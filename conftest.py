"""Repo-wide pytest hooks, seen by both ``tests/`` and ``benchmarks/``.

A test session writes nothing into the checkout.  ``pytest_configure``
makes one temporary directory per session and points there:

* the result cache (``REPRO_CACHE_DIR``), so the suite neither writes
  into the checkout's ``.repro-cache/`` nor reads back results an earlier
  run left there;
* hypothesis's storage (``HYPOTHESIS_STORAGE_DIRECTORY``): its example
  database and its constants cache;
* pytest-benchmark's storage, which it creates at start-up even when
  nothing is saved.

A variable that is already set is left alone.  pytest's own cache is off
(``-p no:cacheprovider`` in ``pyproject.toml``).  Subprocesses the tests
start (the examples, served workers) inherit the variables;
``pytest_unconfigure`` removes the directory.
"""

import os
import shutil
import tempfile

import pytest

_SCRATCH = pytest.StashKey[str]()
_REDIRECTED = pytest.StashKey[list]()

#: Environment variables pointed into the session directory, with the
#: subdirectory each one gets.
_STORAGE_VARS = (("REPRO_CACHE_DIR", "repro-cache"),
                 ("HYPOTHESIS_STORAGE_DIRECTORY", "hypothesis"))


def pytest_configure(config):
    scratch = tempfile.mkdtemp(prefix="repro-pytest-")
    config.stash[_SCRATCH] = scratch
    redirected = []
    for var, name in _STORAGE_VARS:
        if not os.environ.get(var):
            os.environ[var] = os.path.join(scratch, name)
            redirected.append(var)
    config.stash[_REDIRECTED] = redirected
    if getattr(config.option, "benchmark_storage",
               None) == "file://./.benchmarks":
        config.option.benchmark_storage = (
            "file://" + os.path.join(scratch, "benchmarks"))


def pytest_unconfigure(config):
    for var in config.stash.get(_REDIRECTED, ()):
        os.environ.pop(var, None)
    scratch = config.stash.get(_SCRATCH, None)
    if scratch is not None:
        shutil.rmtree(scratch, ignore_errors=True)
