"""Cycle accounting: conservation, engine parity, tolerant round-trips.

The CPI stack obeys one hard invariant -- every simulated cycle lands in
exactly one component (``cycles == sum(stack)``) -- and one parity
contract: the batch-lane stepper (behind ``Core.run`` as a one-lane
batch) and the busy-wait reference oracle attribute every cycle to the
*same* bucket, bit for bit, across the whole golden mini-grid.  A frozen pre-1.7 result dict pins the
tolerant loading path, and a hypothesis fuzzer hammers conservation on
random knob/width/latency configurations.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore
from repro.cpu.core import STACK_COMPONENTS, SimResult, TimingStats, \
    checked_stack
from repro.exp.engine import built_kernel
from repro.exp.spec import PointSpec

from test_golden_digest import (GOLDEN_DIGESTS, grid_points, make_memsys,
                                result_digest)


def _accounted(kernel, isa, way, label, *, reference=False):
    core = Core(machine_config(way, isa), make_memsys(label, way, isa),
                accounting=True)
    trace = built_kernel(kernel, isa).trace
    if reference:
        return core.run_reference(trace)
    return core.run(trace)


# --- conservation and digest neutrality --------------------------------------

@pytest.mark.parametrize("kernel,isa,way,memory", list(grid_points()),
                         ids=lambda v: str(v))
def test_conservation_and_digest_neutrality(kernel, isa, way, memory):
    """Accounting attributes every cycle exactly once -- and changes no
    timing field: stripping ``cpi_stack`` recovers the seed digest."""
    result = _accounted(kernel, isa, way, memory)
    assert result.stack is not None
    assert result.stack.total() == result.cycles
    assert all(getattr(result.stack, c) >= 0 for c in STACK_COMPONENTS)
    data = result.to_dict()
    data.pop("cpi_stack")
    bare = SimResult.from_dict(data)
    bare.stack = None
    assert result_digest(bare) == GOLDEN_DIGESTS[(kernel, isa, way, memory)]


def test_accounting_off_produces_no_stack():
    result = Core(machine_config(2, "mmx"),
                  make_memsys("perfect", 2, "mmx")).run(
                      built_kernel("idct", "mmx").trace)
    assert result.stack is None
    assert "cpi_stack" not in result.to_dict()


# --- engine parity across the golden mini-grid -------------------------------

def _grouped_grid():
    return [(key, list(points)) for key, points in itertools.groupby(
        sorted(grid_points()), key=lambda p: (p[0], p[1]))]


@pytest.mark.parametrize("group,points", _grouped_grid(),
                         ids=lambda v: "-".join(v) if isinstance(v, tuple)
                         and isinstance(v[0], str) else None)
def test_batch_stack_parity(group, points):
    """The batch-lane stepper's stacks are bit-identical to the busy-wait
    oracle's on every golden point (the digests, captured with
    accounting off, do not cover the stacks)."""
    kernel, isa = group
    trace = built_kernel(kernel, isa).trace
    lanes = [Core(machine_config(way, isa), make_memsys(mem, way, isa),
                  accounting=True)
             for _, _, way, mem in points]
    results = BatchCore(lanes).run(trace)
    for (k, i, way, mem), batched in zip(points, results):
        oracle = _accounted(k, i, way, mem, reference=True)
        assert batched.stack == oracle.stack, (k, i, way, mem)
        assert batched.stack.total() == batched.cycles


@pytest.mark.parametrize("kernel,isa,way,memory", list(grid_points()),
                         ids=lambda v: str(v))
def test_mem_accounting_parity(kernel, isa, way, memory):
    """The memory model's accounting tallies (``meta["mem_accounting"]``)
    equal the oracle's: the stepper skips futile retries, so no tally
    may count failed attempts."""
    event = _accounted(kernel, isa, way, memory)
    oracle = _accounted(kernel, isa, way, memory, reference=True)
    assert event.meta["mem_accounting"] == oracle.meta["mem_accounting"]


def test_reference_oracle_stack_parity():
    """The retained busy-wait oracle agrees bucket for bucket (spot check:
    one point per memory-model family)."""
    for point in (("idct", "mom", 8, "cache"),
                  ("idct", "mom", 2, "vectorcache"),
                  ("motion2", "mom", 8, "collapsing"),
                  ("motion2", "alpha", 2, "perfect"),
                  ("motion2", "mmx", 8, "latency50")):
        kernel, isa, way, memory = point
        event = _accounted(kernel, isa, way, memory)
        oracle = _accounted(kernel, isa, way, memory, reference=True)
        assert event.stack == oracle.stack, point


def test_duplicate_accounted_lanes_each_simulate_and_agree():
    """Duplicate lanes in one batch attribute identical stacks."""
    cfg = machine_config(8, "mom")
    trace = built_kernel("idct", "mom").trace

    def lane():
        return Core(cfg, make_memsys("perfect", 8, "mom"), accounting=True)

    results = BatchCore([lane(), lane()]).run(trace)
    assert results[0].stack == results[1].stack
    assert results[1].stack.total() == results[1].cycles


# --- tolerant round-trips ----------------------------------------------------

#: A result dict exactly as package 1.6 wrote it (no ``cpi_stack``),
#: captured from ``compensation/mmx/2-way/perfect`` before accounting
#: existed.  Loading it must keep working forever.
FROZEN_V16_RESULT = {
    "branch_lookups": 16,
    "branch_mispredicts": 4,
    "btb_misses": 1,
    "cycles": 418,
    "fetch_stall_cycles": 25,
    "instructions": 752,
    "mem_stats": {
        "element_accesses": 384,
        "scalar_accesses": 384,
        "vector_accesses": 0,
    },
    "meta": {},
    "operations": 1648,
    "rename_stall_events": 0,
}


def test_frozen_v16_result_loads_without_stack():
    result = SimResult.from_dict(dict(FROZEN_V16_RESULT))
    assert result.stack is None
    assert result.cycles == 418 and result.instructions == 752
    assert result.to_dict() == FROZEN_V16_RESULT      # round-trip, no growth


def test_partial_stack_loads_default_zero_and_flagged():
    stack = TimingStats.from_dict({"base": 400, "fetch": 18})
    assert stack.legacy
    assert stack.base == 400 and stack.fetch == 18
    assert stack.mem_latency == 0 and stack.total() == 418
    full = TimingStats.from_dict(TimingStats(base=1, drain=2).to_dict())
    assert not full.legacy
    # legacy is excluded from equality so old results stay comparable.
    assert stack == TimingStats(base=400, fetch=18)


def test_accounted_result_roundtrips_through_dict():
    result = _accounted("idct", "mom", 2, "vectorcache")
    clone = SimResult.from_dict(result.to_dict())
    assert clone.stack == result.stack and not clone.stack.legacy
    assert clone == result


def test_checked_stack_raises_on_leak():
    with pytest.raises(AssertionError, match="conservation"):
        checked_stack(10, TimingStats(base=9))
    assert checked_stack(9, TimingStats(base=9)).base == 9


def test_point_payload_omits_accounting_when_off():
    plain = PointSpec(kind="kernel", target="idct", isa="mom", way=2)
    assert "accounting" not in plain.payload()
    on = PointSpec(kind="kernel", target="idct", isa="mom", way=2,
                   accounting=True)
    assert on.payload()["accounting"] is True
    assert on.content_hash() != plain.content_hash()


# --- conservation fuzzer -----------------------------------------------------

@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(
    kernel=st.sampled_from(("compensation", "idct")),
    isa=st.sampled_from(("alpha", "mmx", "mdmx", "mom")),
    way=st.sampled_from((1, 2, 4, 8)),
    latency=st.integers(min_value=1, max_value=60),
    cache=st.booleans(),
    acc_chaining=st.booleans(),
    late_release=st.booleans(),
    zero_idiom_elision=st.booleans(),
)
def test_conservation_fuzz(kernel, isa, way, latency, cache,
                           acc_chaining, late_release, zero_idiom_elision):
    """Random machine/knob/latency points never leak or double-count a
    cycle, and the event core agrees with the reference oracle."""
    if cache:
        memsys = make_memsys("cache", way, isa)
    else:
        cfg = machine_config(way, isa)
        from repro.memsys import PerfectMemory
        memsys = PerfectMemory(latency, cfg.mem_ports, cfg.mem_port_width)
    core = Core(machine_config(way, isa), memsys, accounting=True,
                acc_chaining=acc_chaining, late_release=late_release,
                zero_idiom_elision=zero_idiom_elision)
    result = core.run(built_kernel(kernel, isa).trace)
    assert result.stack.total() == result.cycles
    assert all(getattr(result.stack, c) >= 0 for c in STACK_COMPONENTS)
