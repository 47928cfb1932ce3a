"""Shared pytest set-up: Hypothesis runs derandomized, without a deadline
and without an example database, so property tests draw the same examples
on every run and a slow host cannot fail them.  `flows_made` counts the
synthetic days a test makes, and every test must leave no child process
behind."""

import gc
import os
import weakref

import pytest
from hypothesis import settings

settings.register_profile("lobsim", derandomize=True, deadline=None, database=None)
settings.load_profile("lobsim")


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process, running or unreaped, such
    as a synthetic day's helper that nothing reaped."""
    yield
    try:
        child = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {child})")


@pytest.fixture
def flows_made(monkeypatch):
    """Weak references to every synthetic day the episodes of a test start
    making, counted in this process where each day's helper is forked.
    Each new day first checks that no earlier one is still alive, so a run
    never holds two days at once."""
    from lobsim import training  # here: the benchmark-contract tests run without lobsim on the path

    made = []
    stream = training.stream_synthetic

    def counted(config):
        gc.collect()
        assert all(ref() is None for ref in made), "an earlier flow is still held"
        flow = stream(config)
        made.append(weakref.ref(flow))
        return flow

    monkeypatch.setattr(training, "stream_synthetic", counted)
    return made
