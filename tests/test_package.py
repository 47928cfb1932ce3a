"""The package's exports: every advertised name resolves, so a name left in
`__all__` after its definition is deleted fails here, not at a user's
`from lobsim import *`.  Also what importing the command line loads."""

import importlib
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # every command pays for what `lobsim.cli` imports; the fits need only
    # scipy.special
    import lobsim
    src = str(Path(lobsim.__file__).resolve().parents[1])
    code = "import sys, lobsim.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "False"
