"""Hypothesis runs the same examples on every run and never fails on timing."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
