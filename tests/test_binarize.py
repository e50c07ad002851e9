"""Rooting of the forest left after deleting an FVS."""

import pytest

from conftest import cycle, path
from ifvs import NotAForestError, mask_of, root_forest


def test_root_forest_path():
    rf = root_forest(path(3), 0)
    assert rf.roots == (0,)
    assert rf.children[0] == (1,) and rf.children[1] == (2,) and rf.children[2] == ()
    assert rf.order == (0, 1, 2)


def test_root_forest_c4_minus_vertex():
    rf = root_forest(cycle(4), mask_of([0]))
    assert rf.roots == (1,)
    assert rf.children[1] == (2,) and rf.children[2] == (3,)


def test_root_forest_rejects_cyclic_remainder():
    with pytest.raises(NotAForestError):
        root_forest(cycle(4), 0)
