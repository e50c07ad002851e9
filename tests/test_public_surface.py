"""The package's advertised surface must match what it exports.

Every name in ``ifvs.__all__`` has to resolve, the README's "Library"
example has to run as written and give the results its comments state,
and its JSON report example has to be what the command line prints, so
a change to the code cannot leave any of them stale.
"""

import dataclasses
import inspect
import io
import re
import sys
from pathlib import Path

import ifvs
from ifvs.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in ifvs.__all__ if not hasattr(ifvs, name)]
    assert missing == []


def test_no_class_of_the_package_is_a_dataclass():
    # importing dataclasses and building the records with it took about
    # two fifths of a fresh import: records are named tuples and counters
    # slotted classes
    found = [
        f"{name}.{cls.__qualname__}"
        for name, module in list(sys.modules.items())
        if name == "ifvs" or name.startswith("ifvs.")
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
    ]
    assert found == []


def test_readme_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    stated = re.search(r'# decision "(\w+)", certificate (\(.*?\))', code)
    assert stated.groups() == ("yes", "(0,)")
    out = namespace["out"]
    assert out.decision == stated.group(1)
    assert repr(out.certificate) == stated.group(2)
    assert namespace["ext"].size == 1


def test_readme_json_example_is_the_cli_output(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    example = re.search(r"JSON report shape.*?```json\n(.*?)```", text, re.S).group(1)
    monkeypatch.setattr("sys.stdin", io.StringIO("4 4\n0 1\n1 2\n2 3\n3 0\n"))
    assert main(["ifvs", "--k", "1", "--json", "--no-timing"]) == 0
    assert capsys.readouterr().out == example
