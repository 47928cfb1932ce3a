"""Shared pytest set-up: Hypothesis runs derandomized, without a deadline
and without an example database, so property tests draw the same examples
on every run and a slow host cannot fail them."""

from hypothesis import settings

settings.register_profile("lobsim", derandomize=True, deadline=None, database=None)
settings.load_profile("lobsim")
