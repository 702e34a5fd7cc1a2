"""Test-run hooks for every test directory, ``perfbench/`` included."""

import faulthandler
import os

import pytest

# A test still running after this many seconds is taken to hang: every
# thread's stack is written to stderr and the process exits, so a loop that
# never ends (a root finder that stops converging, say) fails the run
# instead of stalling it.  The slowest test takes about a second.
TEST_TIMEOUT_S = 60.0

# stderr as it was before output capture, which redirects fd 2 during tests
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR_FD])
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()
