"""Shared pytest set-up: Hypothesis runs derandomized, without a deadline
and without an example database, so property tests draw the same examples
on every run and a slow host cannot fail them.  `flows_made` counts the
synthetic days a test makes."""

import gc
import weakref

import pytest
from hypothesis import settings

settings.register_profile("lobsim", derandomize=True, deadline=None, database=None)
settings.load_profile("lobsim")


@pytest.fixture
def flows_made(monkeypatch):
    """Weak references to every synthetic flow the episodes of a test make.
    Each new flow first checks that no earlier one is still alive, so a run
    never holds two days at once."""
    from lobsim import training  # here: the benchmark-contract tests run without lobsim on the path

    made = []
    generate = training.generate_synthetic

    def counted(config):
        gc.collect()
        assert all(ref() is None for ref in made), "an earlier flow is still held"
        flow = generate(config)
        made.append(weakref.ref(flow))
        return flow

    monkeypatch.setattr(training, "generate_synthetic", counted)
    return made
