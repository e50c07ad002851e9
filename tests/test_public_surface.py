"""The package's advertised surface must match what it exports.

Every name in ``ifvs.__all__`` has to resolve, and the README's "Library"
example has to run as written and give the results its comments state,
so a deletion cannot leave either one stale.
"""

import re
from pathlib import Path

import ifvs

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in ifvs.__all__ if not hasattr(ifvs, name)]
    assert missing == []


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    stated = re.search(r'# decision "(\w+)", certificate (\(.*?\))', code)
    assert stated.groups() == ("yes", "(2,)")
    out = namespace["out"]
    assert out.decision == stated.group(1)
    assert repr(out.certificate) == stated.group(2)
    assert namespace["ext"].size == 1
