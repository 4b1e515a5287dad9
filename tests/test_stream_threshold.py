"""The cached-records / streaming crossover is seamless at the boundary.

``Core.run`` picks its record source by trace size: below
``STREAM_THRESHOLD`` (or whenever a record list is already cached) it
walks the cached ``timing_records()`` list; at or above it it streams
``TimingRecords`` chunk by chunk.  These tests pin that a trace at
exactly the threshold and at ``threshold +- 1`` produces bit-identical
``SimResult`` digests through both paths, so the crossover can never
shift timing, and that ``BatchCore`` (which decodes the trace columns
directly, whatever the size) matches both.

The default threshold (1 << 20 instructions) would need megainstruction
traces, so the boundary is exercised by lowering ``STREAM_THRESHOLD`` to
a kernel-sized value -- the selection logic is identical, only the
constant moves.
"""

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore, LaneSpec
from repro.emulib.trace import Trace
from repro.exp.engine import built_kernel
from repro.memsys import PerfectMemory

from test_golden_digest import result_digest


def test_default_threshold_value():
    """The production crossover sits at 1M instructions (frame scale)."""
    assert Core.STREAM_THRESHOLD == 1 << 20


def _trace_of_length(n: int):
    """A trace of exactly ``n`` instructions (kernel trace, repeated).

    Built as a *fresh* ``Trace`` object: ``built_kernel`` memoizes per
    process, so extending/truncating its trace in place would corrupt
    every later test and benchmark sharing the memo (and, through the
    experiment engine, poison the on-disk result cache with results of
    the mutilated trace)."""
    seed = built_kernel("idct", "mmx").trace
    base = Trace(seed.isa)
    while len(base) < n:
        base.extend(seed)
    base.truncate(n)
    base.invalidate_summary()
    assert len(base) == n and not base.records_cached()
    return base


def _digest(trace, *, streamed: bool, monkeypatch, threshold: int) -> str:
    """One run through an explicitly-selected record source."""
    if streamed:
        monkeypatch.setattr(Core, "STREAM_THRESHOLD", threshold)
        trace.invalidate_summary()      # a cached list would win otherwise
    else:
        monkeypatch.setattr(Core, "STREAM_THRESHOLD", 1 << 60)
    core = Core(machine_config(4, "mmx"), PerfectMemory(1, 2, 1))
    result = core.run(trace)
    assert result.instructions == len(trace)
    return result_digest(result)


THRESHOLD = 512      # kernel-sized stand-in for 1 << 20


@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1],
                         ids=("below", "exact", "above"))
def test_boundary_lengths_digest_identically_through_both_paths(
        monkeypatch, n):
    trace = _trace_of_length(n)
    cached = _digest(trace, streamed=False, monkeypatch=monkeypatch,
                     threshold=THRESHOLD)
    streamed = _digest(trace, streamed=True, monkeypatch=monkeypatch,
                       threshold=THRESHOLD)
    assert cached == streamed


@pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1],
                         ids=("below", "exact", "above"))
def test_boundary_lengths_batch_matches_core(monkeypatch, n):
    """BatchCore matches Core on both of Core's record sources."""
    trace = _trace_of_length(n)
    cached = _digest(trace, streamed=False, monkeypatch=monkeypatch,
                     threshold=THRESHOLD)
    streamed = _digest(trace, streamed=True, monkeypatch=monkeypatch,
                       threshold=THRESHOLD)
    lanes = [LaneSpec(machine_config(4, "mmx"), PerfectMemory(1, 2, 1))]
    (result,) = BatchCore(lanes).run(trace)
    assert result_digest(result) == cached == streamed
