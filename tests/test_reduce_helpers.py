"""Tests for the cross-lane reduction idioms and end-to-end memory systems.

The reduction helpers are the realistic read-out cost MDMX pays for its
per-lane accumulators; the hierarchy integration tests run one verified
kernel trace through all four memory organizations and check the ordering
invariants the cache study rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MdmxBuilder, MomBuilder
from repro.cpu import Core, machine_config
from repro.exp import built_kernel
from repro.kernels.reduce import (mdmx_sad_total, mdmx_sqd_total,
                                  mom_sad_total, mom_sqd_total)
from repro.memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)

bytes8 = st.lists(st.integers(0, 255), min_size=8, max_size=8)


def word_of(vals):
    return int.from_bytes(bytes(vals), "little")


@given(bytes8, bytes8)
@settings(max_examples=30)
def test_mdmx_sad_total_matches_reference(xs, ys):
    b = MdmxBuilder()
    acc = b.areg()
    x, y = b.mreg(word_of(xs)), b.mreg(word_of(ys))
    # Accumulate a few rounds to stress the 16-bit lane assumption.
    for _ in range(4):
        b.paccsadb(acc, x, y)
    scratch = [b.mreg() for _ in range(4)]
    out = b.ireg()
    mdmx_sad_total(b, acc, scratch, out)
    expected = 4 * sum(abs(a - c) for a, c in zip(xs, ys))
    assert int(out.value) == expected


@given(bytes8, bytes8)
@settings(max_examples=30)
def test_mdmx_sqd_total_matches_reference(xs, ys):
    b = MdmxBuilder()
    acc = b.areg()
    x, y = b.mreg(word_of(xs)), b.mreg(word_of(ys))
    zero = b.mreg(0)
    for _ in range(8):
        b.paccsqdb(acc, x, y)
    scratch = [b.mreg() for _ in range(7)]
    out = b.ireg()
    mdmx_sqd_total(b, acc, scratch, zero, out)
    expected = 8 * sum((a - c) ** 2 for a, c in zip(xs, ys))
    assert int(out.value) == expected


def test_mom_reduction_helpers():
    b = MomBuilder()
    acc = b.areg()
    x, y = b.mreg(), b.mreg()
    data = np.full(16, word_of([9] * 8), dtype=np.uint64)
    from repro.core.matrix import MomRegister
    x.value = MomRegister(data)
    y.value = MomRegister(np.zeros(16, dtype=np.uint64))
    b.setvli(4)
    b.paccsadb(acc, x, y)            # per-lane: 4 rows x 9 per lane
    scratch = [b.mreg() for _ in range(4)]
    out = b.ireg()
    mom_sad_total(b, acc, scratch, out)
    assert int(out.value) == 4 * 8 * 9
    assert b.vl == 4                 # helper restores the caller's VL


def test_mom_sqd_total_restores_vl():
    b = MomBuilder()
    acc = b.areg()
    zero = b.mreg()
    b.momzero(zero)
    scratch = [b.mreg() for _ in range(7)]
    out = b.ireg()
    b.setvli(10)
    mom_sqd_total(b, acc, scratch, zero, out)
    assert int(out.value) == 0
    assert b.vl == 10


# --- end-to-end memory-system integration -------------------------------------------

@pytest.fixture(scope="module")
def mom_trace():
    return built_kernel("compensation", "mom", 1).trace


def test_all_hierarchies_complete_kernel(mom_trace):
    cfg = machine_config(4, "mom")
    cycles = {}
    for name, mem in (
        ("perfect", PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)),
        ("multiaddress", MultiAddressHierarchy(4)),
        ("vectorcache", VectorCacheHierarchy(4)),
        ("collapsing", CollapsingBufferHierarchy(4)),
    ):
        cycles[name] = Core(cfg, mem).run(mom_trace).cycles
    # Perfect memory is a lower bound for every realistic organization.
    for name in ("multiaddress", "vectorcache", "collapsing"):
        assert cycles[name] >= cycles["perfect"], cycles


def test_realistic_hierarchy_reports_stats(mom_trace):
    cfg = machine_config(4, "mom")
    mem = MultiAddressHierarchy(4)
    result = Core(cfg, mem).run(mom_trace)
    stats = result.mem_stats
    assert stats["vector_elements"] > 0
    assert stats["l1_hits"] + stats["l1_misses"] > 0
    assert "dram_accesses" in stats


def test_alpha_kernel_on_conventional_hierarchy():
    trace = built_kernel("compensation", "alpha", 1).trace
    cfg = machine_config(4, "alpha")
    result = Core(cfg, ConventionalHierarchy(4)).run(trace)
    assert result.instructions == len(trace)
    assert 0 <= result.mem_stats["l1_miss_rate"] < 0.5


def test_simulation_deterministic(mom_trace):
    cfg = machine_config(4, "mom")
    a = Core(cfg, MultiAddressHierarchy(4)).run(mom_trace).cycles
    b = Core(cfg, MultiAddressHierarchy(4)).run(mom_trace).cycles
    assert a == b
