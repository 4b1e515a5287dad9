"""Stable content hashing for builds and for the experiment-result cache.

Two digests live here:

* :func:`source_fingerprint` -- a hash over every Python source file of the
  ``repro`` package.  The experiment engine mixes it into every cache key as
  a *code-version salt*, so editing any model file automatically invalidates
  previously cached :class:`~repro.cpu.core.SimResult`\\ s.
* :func:`trace_digest` -- a hash over the dynamic instruction stream of one
  built kernel or application.  Builds are deterministic (workloads are
  seeded), so two builds of the same (target, isa, scale) must produce the
  same digest; the tests use this to pin build stability, and cached results
  record it so a cache entry can be audited against a fresh build.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

from .trace import Trace


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """Digest of all ``repro`` package sources (the cache's version salt)."""
    root = Path(__file__).resolve().parents[1]          # src/repro
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trace_digest(trace: Trace) -> str:
    """Digest of a dynamic instruction stream (order- and field-sensitive).

    Hashes the ``repr`` of each row's field tuple.  The columnar store
    yields those tuples directly (:meth:`~repro.emulib.trace.Trace.
    iter_field_tuples`) with the same Python value types a materialized
    :class:`~repro.emulib.trace.DynInstr` carries, so digests are
    bit-identical to the historical list-of-objects encoding and
    independent of chunk geometry.
    """
    digest = hashlib.sha256(trace.isa.encode())
    update = digest.update
    for record in trace.iter_field_tuples():
        update(repr(record).encode())
        update(b"\n")
    return digest.hexdigest()[:16]
