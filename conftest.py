"""Repo-wide pytest hooks, seen by both ``tests/`` and ``benchmarks/``.

Every test session gets a private, initially empty result cache:
``pytest_configure`` points ``REPRO_CACHE_DIR`` at a fresh temporary
directory unless the variable is already set, so the suite neither
writes into the checkout's ``.repro-cache/`` nor reads back results an
earlier run left there.  Subprocesses the tests start (the examples,
served workers) inherit the variable; ``pytest_unconfigure`` removes the
directory.
"""

import os
import shutil
import tempfile

import pytest

_CACHE_DIR = pytest.StashKey[str]()


def pytest_configure(config):
    if os.environ.get("REPRO_CACHE_DIR"):
        return
    path = tempfile.mkdtemp(prefix="repro-cache-")
    config.stash[_CACHE_DIR] = path
    os.environ["REPRO_CACHE_DIR"] = path


def pytest_unconfigure(config):
    path = config.stash.get(_CACHE_DIR, None)
    if path is not None:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(path, ignore_errors=True)
