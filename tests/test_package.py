"""The package's exports: every advertised name resolves, so a name left in
`__all__` after its definition is deleted fails here, not at a user's
`from lobsim import *`."""

import importlib

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
