"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Heavy
artifacts (verified kernel/app builds) are memoized per process by the
experiment engine, and cycle-level results persist in its on-disk cache
for the rest of the test session.  That cache starts empty in every
session (the repo-root ``conftest.py`` points ``REPRO_CACHE_DIR`` at a
private temporary directory), so each run times the *simulation*; set
``REPRO_CACHE_DIR`` yourself to keep results across runs, and a
warm-cache rerun of the full grid then skips simulation entirely and
times only the cache reads.

Set ``REPRO_NO_CACHE=1`` to force every benchmark to re-simulate.
"""

import pytest

from repro.exp import Session, default_session


def pytest_configure(config):
    # Keep benchmark runs deterministic and comparable.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False


@pytest.fixture(scope="session")
def exp_session() -> Session:
    """The process-wide engine session every benchmark shares."""
    return default_session()
