"""The package's exports: every advertised name resolves, so a name left in
`__all__` after its definition is deleted fails here, not at a user's
`from lobsim import *`.  Also that the command line and the commands that
fit nothing never load scipy."""

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
