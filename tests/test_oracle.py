import pytest

from conftest import complete, cycle, path, star
from ifvs import Graph, TooLargeError, brute_min_fvs, brute_min_ifvs


def test_small_answers():
    assert brute_min_ifvs(cycle(4)) == (1, (0,))
    assert brute_min_ifvs(complete(4)) is None
    two_triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert brute_min_ifvs(two_triangles) == (2, (0, 3))
    assert brute_min_ifvs(path(6))[0] == 0
    assert brute_min_ifvs(star(4))[0] == 0


def test_cycles_need_exactly_one():
    for n in range(3, 10):
        size, cert = brute_min_ifvs(cycle(n))
        assert size == 1 and cert == (0,)


def test_fvs_answers():
    assert brute_min_fvs(path(5)) == (0, ())
    for n in range(3, 9):
        assert brute_min_fvs(cycle(n))[0] == 1
    assert brute_min_fvs(complete(5))[0] == 3


def test_certificates_are_lexicographically_first():
    g = cycle(6)
    size, cert = brute_min_ifvs(g)
    assert size == 1 and cert == (0,)  # all six singletons work; 0 wins


def test_size_guard():
    with pytest.raises(TooLargeError):
        brute_min_ifvs(Graph(21))
    with pytest.raises(TooLargeError):
        brute_min_fvs(Graph(25))
