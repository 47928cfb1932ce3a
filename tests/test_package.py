"""The package's exports: every advertised name resolves, so a name left in
`__all__` after its definition is deleted fails here, not at a user's
`from lobsim import *`.  Also that the command line and the commands that
fit nothing never load scipy, that no module keeps an import it no longer
uses, and that JSON artifacts have one writer."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["lobsim", "lobsim.agents"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from lobsim import *", namespace)
    import lobsim
    assert set(lobsim.__all__) <= set(namespace)


SCIPY_AFTER_COMMANDS = """
import json, sys
from lobsim.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for mode in ("gen-data", "replay", "train", "evaluate"):
    assert main([mode, "--config", sys.argv[1], "--out", sys.argv[2]]) == 0, mode
    loaded[mode] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_import_and_commands_leave_scipy_unloaded(tmp_path):
    # every command pays for what it imports, and only the realism fits need
    # scipy.special
    from test_cli import base_config, write_config

    import lobsim
    src = str(Path(lobsim.__file__).resolve().parents[1])
    config = write_config(tmp_path, base_config())
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_AFTER_COMMANDS, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {step: [] for step in ("import", "gen-data", "replay", "train", "evaluate")}


def names_used(tree: ast.Module) -> set:
    """Every name a module reads, those in quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= names_used(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list:
    """`line: name` for each module-level import whose name the module never
    reads; `from __future__` imports excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = names_used(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{node.lineno}: {name}")
    return unused


def test_no_module_keeps_an_unused_import():
    # a package's __init__.py imports to re-export; the tests' own modules
    # are checked too
    import lobsim
    package = Path(lobsim.__file__).resolve().parent
    tests = Path(__file__).resolve().parent
    found = {path.relative_to(root.parent).as_posix(): unused_imports(path)
             for root, paths in ((package, package.rglob("*.py")), (tests, tests.glob("*.py")))
             for path in sorted(paths) if path.name != "__init__.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unused_import_check_sees_a_leftover(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "from enum import Enum\nfrom typing import Optional as Maybe\n\n"
                      "def f(x: \"Maybe[int]\") -> None:\n    return os.path.join(x)\n")
    assert unused_imports(module) == ["3: Enum"]


def json_dump_calls(path: Path) -> list:
    """`line: function` for each json.dump call in a module, named by the
    innermost function around it."""
    calls = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "dump" and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "json"):
                calls.append(f"{child.lineno}: {function}")
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return calls


# module -> the one function there that may call json.dump: every report and
# the manifest go through report_to_json; the LOBSTER sidecar keeps its own
# writer because lobster is imported below metrics
JSON_WRITERS = {"metrics.py": "report_to_json", "lobster.py": "generate_to_file"}


def test_json_artifacts_have_one_writer():
    import lobsim
    package = Path(lobsim.__file__).resolve().parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        calls = [call for call in json_dump_calls(path)
                 if call.split(": ")[1] != JSON_WRITERS.get(name)]
        if calls:
            found[name] = calls
    assert found == {}


def test_json_writer_check_sees_a_second_writer(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import json\n\ndef save(body, fh):\n    json.dump(body, fh)\n\n"
                      "def text(body):\n    return json.dumps(body)\n")
    assert json_dump_calls(module) == ["4: save"]
