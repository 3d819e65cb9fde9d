"""Test-suite configuration.

Hypothesis runs derandomized so CI results are reproducible; the
differential fuzzers still cover fresh ground locally when run with
``--hypothesis-seed=random``.

``@pytest.mark.needs_fork`` skips a test on platforms without the POSIX
``fork`` start method (the pid-tracked cache tests fork a child that
inherits the parent's caches).
"""

import multiprocessing

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "needs_fork: skip unless the POSIX fork start method exists"
    )


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_fork") and not _fork_available():
        pytest.skip("needs POSIX fork")
