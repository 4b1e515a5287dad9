"""BatchCore parity: every lane bit-identical to the busy-wait oracle.

The batch engine shares one decode pass -- records, dependence edges,
branch-predictor streams, packed register charges -- across all
configuration lanes, so these tests pin the only thing that matters:
each lane's ``SimResult`` digests identically to running that lane alone
through ``Core.run_reference`` (or to the seed digests).  Covered: the
full golden mini-grid batched per trace, randomized mixed-lane batches
(Table-1 configs x ablation knobs x perfect-vs-cache memory),
duplicate lanes, ring wrap-around with artificially small decode
blocks, the ring-retention safety check, the lanes a batch rejects,
and the empty trace.  A lane is a ``Core``.
"""

import dataclasses
import itertools
import random

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore
from repro.cpu.core import STACK_COMPONENTS
from repro.emulib.trace import Trace
from repro.exp.engine import built_kernel
from repro.memsys import PerfectMemory

from test_golden_digest import (GOLDEN_DIGESTS, grid_points, make_memsys,
                                result_digest)


def _grouped_grid():
    return [(key, list(points)) for key, points in itertools.groupby(
        sorted(grid_points()), key=lambda p: (p[0], p[1]))]


@pytest.mark.parametrize("group,points", _grouped_grid(),
                         ids=lambda v: "-".join(v) if isinstance(v, tuple)
                         and isinstance(v[0], str) else None)
def test_golden_grid_batched_per_trace(group, points):
    """All (way, memory) lanes of one trace in a single batch pass."""
    kernel, isa = group
    trace = built_kernel(kernel, isa).trace
    lanes = [Core(machine_config(way, isa), make_memsys(mem, way, isa))
             for _, _, way, mem in points]
    results = BatchCore(lanes).run(trace)
    for (k, i, way, mem), result in zip(points, results):
        assert result_digest(result) == GOLDEN_DIGESTS[(k, i, way, mem)], \
            (k, i, way, mem)


KNOB_SPACE = [
    dict(acc_chaining=ac, late_release=lr, zero_idiom_elision=ze)
    for ac in (True, False) for lr in (True, False) for ze in (True, False)
]


def test_mixed_lane_fuzz_matches_per_lane_core():
    """Random lane subsets -- knobs and memory models diverging *within*
    one batch -- each match a fresh per-lane ``Core.run_reference``
    digest: the one independent engine for the knob variants."""
    rng = random.Random(0xB47C)
    for kernel, isa in (("idct", "mom"), ("motion2", "mom"),
                        ("idct", "mmx"), ("motion2", "alpha")):
        trace = built_kernel(kernel, isa).trace
        memories = ["perfect", "latency50", "cache"]
        if isa == "mom":
            memories += ["vectorcache", "collapsing"]
        pool = [(way, mem, knobs) for way in (2, 8) for mem in memories
                for knobs in KNOB_SPACE]
        picks = rng.sample(pool, 8)
        lanes = [Core(machine_config(way, isa),
                      make_memsys(mem, way, isa), **knobs)
                 for way, mem, knobs in picks]
        results = BatchCore(lanes).run(trace)
        for (way, mem, knobs), result in zip(picks, results):
            ref = Core(machine_config(way, isa), make_memsys(mem, way, isa),
                       **knobs).run_reference(trace)
            assert result_digest(result) == result_digest(ref), \
                (kernel, isa, way, mem, knobs)


def test_duplicate_perfect_lanes_each_simulate_and_agree():
    """Identical perfect-memory lanes each simulate and digest
    identically (nothing is shared between them but the decode)."""
    trace = built_kernel("idct", "mom").trace
    cfg = machine_config(8, "mom")

    def lane():
        return Core(cfg, PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width))

    results = BatchCore([lane(), lane(), lane()]).run(trace)
    digests = {result_digest(r) for r in results}
    assert len(digests) == 1
    assert digests.pop() == GOLDEN_DIGESTS[("idct", "mom", 8, "perfect")]


def test_duplicate_cache_lanes_each_simulate_and_agree():
    """Equally configured hierarchies each run their own cache."""
    lane_a = Core(machine_config(2, "alpha"),
                  make_memsys("cache", 2, "alpha"))
    lane_b = Core(machine_config(2, "alpha"),
                  make_memsys("cache", 2, "alpha"))
    trace = built_kernel("idct", "alpha").trace
    results = BatchCore([lane_a, lane_b]).run(trace)
    assert result_digest(results[0]) == result_digest(results[1]) \
        == GOLDEN_DIGESTS[("idct", "alpha", 2, "cache")]


def test_lanes_sharing_a_memory_model_rejected():
    """Each lane drives its own memory model: two lanes on one model
    (the same core twice, say) would interleave their accesses."""
    core = Core(machine_config(2, "alpha"), make_memsys("perfect", 2, "alpha"))
    with pytest.raises(ValueError, match="share a memory model"):
        BatchCore([core, core])


def test_ring_wraparound_with_tiny_blocks(monkeypatch):
    """Small decode blocks force many pause/resume rounds and full ring
    wrap-around; timing must be unaffected (pausing is cycle-transparent)."""
    monkeypatch.setattr(BatchCore, "BLOCK", 256)
    monkeypatch.setattr(BatchCore, "RING", 512)
    for kernel, isa, way, mem in (("idct", "alpha", 8, "cache"),
                                  ("motion2", "mmx", 2, "perfect")):
        trace = built_kernel(kernel, isa).trace
        assert len(trace) > 512      # otherwise nothing wraps
        lanes = [Core(machine_config(way, isa), make_memsys(mem, way, isa))]
        (result,) = BatchCore(lanes).run(trace)
        assert result_digest(result) == GOLDEN_DIGESTS[(kernel, isa, way,
                                                        mem)]


def test_ring_retention_violation_raises(monkeypatch):
    """A ring no larger than one block would be overwritten while lanes
    still need it: ``BatchCore.run``'s safety check must refuse, not
    corrupt."""
    monkeypatch.setattr(BatchCore, "BLOCK", 256)
    monkeypatch.setattr(BatchCore, "RING", 256)
    trace = built_kernel("idct", "alpha").trace
    assert len(trace) > 256
    lanes = [Core(machine_config(2, "alpha"),
                  make_memsys("perfect", 2, "alpha"))]
    with pytest.raises(RuntimeError, match="batch ring retention violated"):
        BatchCore(lanes).run(trace)


def test_memsys_without_try_issue_is_unbatchable():
    class Weird:
        pass

    with pytest.raises(ValueError, match="try_issue"):
        BatchCore([Core(machine_config(2, "alpha"), Weird())])
    with pytest.raises(ValueError, match="try_issue"):
        Core(machine_config(2, "alpha"), Weird()).run(
            built_kernel("idct", "alpha").trace)


@pytest.mark.parametrize("field", ["bimodal_entries", "btb_entries"])
def test_predictor_tables_must_be_powers_of_two(field):
    cfg = dataclasses.replace(machine_config(2, "alpha"), **{field: 1000})
    with pytest.raises(ValueError, match="powers of two"):
        BatchCore([Core(cfg, PerfectMemory(1, 2, 1))])


def test_empty_lane_list_rejected():
    with pytest.raises(ValueError):
        BatchCore([])


@pytest.mark.parametrize("accounting", [False, True])
def test_empty_trace_keeps_the_run_bookkeeping(accounting):
    """An empty trace gets the bookkeeping of any other run: every phase
    key and, with accounting, a zero stack over every component --
    through ``Core.run`` and ``BatchCore.run``."""
    cfg = machine_config(4, "mom")
    trace = Trace("mom")
    phases = {}
    result = Core(cfg, PerfectMemory(1, 2, 1),
                  accounting=accounting).run(trace, phases=phases)
    assert set(phases) == {"decode", "step", "writeback"}
    assert result.cycles == 0 and result.instructions == 0
    batch = BatchCore([Core(cfg, PerfectMemory(1, 2, 1),
                            accounting=accounting),
                       Core(cfg, make_memsys("cache", 4, "mom"),
                            accounting=accounting)])
    phases = {}
    results = batch.run(trace, phases=phases)
    assert set(phases) == {"decode", "step", "writeback"}
    for lane in results:
        assert lane.cycles == 0 and lane.branch_lookups == 0
        if accounting:
            assert lane.stack.to_dict() == dict.fromkeys(STACK_COMPONENTS, 0)
        else:
            assert lane.stack is None
    assert results[0] == result
