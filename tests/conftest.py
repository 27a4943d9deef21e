"""Hypothesis runs the same examples on every run and never fails on timing.

A test that runs past TEST_LIMIT_S seconds dumps every thread's traceback to
the terminal's stderr and ends the run with a non-zero exit: the eliminations
end only because each row step clears the entry it is given, so a fault there
hangs instead of failing.
"""

import contextlib
import faulthandler
import os

import pytest
from hypothesis import settings

TEST_LIMIT_S = 60  # the slowest test takes about 1.5 s

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def _terminal_stderr(request):
    """A copy of stderr as it is outside pytest's output capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
        err = os.fdopen(os.dup(2), "w")
    yield err
    err.close()


@pytest.fixture(autouse=True)
def _time_limit(_terminal_stderr):
    faulthandler.dump_traceback_later(TEST_LIMIT_S, exit=True, file=_terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
