"""The benchmark's span targets must still name callables of ``ifvs``.

``perfbench/spans.py`` wraps module attributes by name, and a renamed
target only blanks its per-layer metrics, so a rename is caught here.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# deleted with the binarized forest, with the traceback once DP values
# carried their own deletions, with the cycle finder once the exact
# search branched on one vertex, and with the forest rooting and the DP
# once that search decided every candidate; the benchmark still lists
# all five
KNOWN_MISSING = {
    "ifvs.extension.binarize",
    "ifvs.extension.DpTables._trace",
    "ifvs.extension._find_cycle",
    "ifvs.extension.root_forest",
    "ifvs.extension._compute_tables",
}


def span_targets() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, path) for module, path, _, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TARGETS in perfbench/spans.py")


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return False
    found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
    return found and callable(getattr(owner, attr))


def test_every_span_target_resolves():
    targets = span_targets()
    assert len(targets) >= 10
    missing = {f"{m}.{p}" for m, p in targets if not resolves(m, p)}
    assert missing <= KNOWN_MISSING
