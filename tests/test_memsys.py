"""Tests for the memory system: caches, MSHRs, write buffer, DRAM, ports."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)
from repro.memsys.cache import CacheArray, MshrFile, WriteBuffer
from repro.memsys.dram import DirectRambus
from repro.memsys.hierarchy import HierarchyParams, L2Cache
from repro.memsys.perfect import PortSet


# An access as the memory models take it: (is_store, addr, nbytes, vl,
# stride), followed by the issue cycle.

def load(addr, nbytes=8):
    return False, addr, nbytes, 1, 0


def store(addr, nbytes=8):
    return True, addr, nbytes, 1, 0


def vload(addr, stride, vl):
    return False, addr, 8, vl, stride


def vstore(addr, stride, vl):
    return True, addr, 8, vl, stride


# --- PerfectMemory / ports ---------------------------------------------------------

def test_perfect_scalar_latency():
    mem = PerfectMemory(latency=1, ports=1)
    assert mem.try_issue(*load(0x100), 10) == 11


def test_perfect_port_contention():
    mem = PerfectMemory(latency=1, ports=1)
    assert mem.try_issue(*load(0x100), 5) is not None
    assert mem.try_issue(*load(0x108), 5) is None       # port busy this cycle
    assert mem.try_issue(*load(0x108), 6) is not None


def test_perfect_vector_reserves_all_ports():
    mem = PerfectMemory(latency=1, ports=2, port_width=1)
    done = mem.try_issue(*vload(0x100, 8, 16), 0)
    assert done == 0 + 8 - 1 + 1       # 16 elems / 2 ports = 8 cycles
    assert mem.try_issue(*load(0x500), 3) is None       # both ports held
    assert mem.try_issue(*load(0x500), 8) is not None


def test_perfect_wide_ports_speed_vectors():
    narrow = PerfectMemory(latency=1, ports=2, port_width=1)
    wide = PerfectMemory(latency=1, ports=2, port_width=2)
    t_narrow = narrow.try_issue(*vload(0x100, 8, 16), 0)
    t_wide = wide.try_issue(*vload(0x100, 8, 16), 0)
    assert t_wide < t_narrow


def test_perfect_high_latency():
    mem = PerfectMemory(latency=50, ports=1)
    assert mem.try_issue(*load(0x100), 0) == 50


def test_portset_validation():
    with pytest.raises(ValueError):
        PortSet(0, 1)
    with pytest.raises(ValueError):
        PerfectMemory(latency=0)


def test_perfect_stats():
    mem = PerfectMemory(latency=1, ports=2)
    mem.try_issue(*load(0x100), 0)
    mem.try_issue(*vload(0x200, 8, 4), 1)
    stats = mem.stats()
    assert stats["scalar_accesses"] == 1
    assert stats["vector_accesses"] == 1
    assert stats["element_accesses"] == 5


# --- CacheArray -----------------------------------------------------------------------

def test_cache_array_hit_after_fill():
    arr = CacheArray(1024, 32, assoc=1)
    assert arr.probe(0x100) is False
    arr.fill(0x100)
    assert arr.probe(0x100) is True


def test_cache_array_direct_mapped_conflict():
    arr = CacheArray(1024, 32, assoc=1)     # 32 sets
    arr.fill(0x0)
    arr.fill(1024)                           # same set, different tag
    assert arr.probe(0x0) is False


def test_cache_array_lru_in_set():
    arr = CacheArray(2048, 32, assoc=2)      # 32 sets, 2 ways
    arr.fill(0)
    arr.fill(2048)
    arr.probe(0)                              # touch -> MRU
    arr.fill(4096)                            # evicts 2048
    assert arr.probe(0, update_lru=False) is True
    assert arr.contains(2048) is False


def test_cache_array_dirty_victim_address():
    arr = CacheArray(1024, 32, assoc=1)
    arr.fill(0x40, dirty=True)
    victim = arr.fill(0x40 + 1024)
    assert victim == 0x40


def test_cache_array_clean_victim_silent():
    arr = CacheArray(1024, 32, assoc=1)
    arr.fill(0x40, dirty=False)
    assert arr.fill(0x40 + 1024) is None


def test_cache_array_invalidate():
    arr = CacheArray(1024, 32, assoc=1)
    arr.fill(0x80)
    assert arr.invalidate(0x80) is True
    assert arr.invalidate(0x80) is False
    assert arr.contains(0x80) is False


def test_cache_array_miss_rate():
    arr = CacheArray(1024, 32, assoc=1)
    arr.probe(0)
    arr.fill(0)
    arr.probe(0)
    assert arr.miss_rate == pytest.approx(0.5)


def test_cache_array_size_validation():
    with pytest.raises(ValueError):
        CacheArray(1000, 32, assoc=1)


@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
@settings(max_examples=25, deadline=None)
def test_cache_array_agrees_with_reference(lines):
    """Fully-associative reference vs the set-indexed array, assoc covers
    the whole set population for a single set."""
    arr = CacheArray(8 * 32, 32, assoc=8)     # 1 set, 8 ways
    resident: list[int] = []
    for line in lines:
        addr = line * 32
        hit = arr.probe(addr)
        assert hit == (line in resident)
        if not hit:
            arr.fill(addr)
            resident.append(line)
            if len(resident) > 8:
                resident.pop(0)               # LRU order: oldest unused
        else:
            resident.remove(line)
            resident.append(line)


# --- MSHRs -------------------------------------------------------------------------------

def test_mshr_merge():
    m = MshrFile(2)
    assert m.lookup(5, 0) is None
    assert m.allocate(5, done_cycle=20, cycle=0)
    assert m.lookup(5, 10) == 20
    assert m.merges == 1


def test_mshr_capacity_and_expiry():
    m = MshrFile(1)
    assert m.allocate(1, 10, 0)
    assert not m.allocate(2, 10, 5)      # full
    assert m.full_events == 1
    assert m.allocate(2, 30, 11)         # first entry expired


def test_mshr_validation():
    with pytest.raises(ValueError):
        MshrFile(0)


# --- write buffer ---------------------------------------------------------------------------

def test_write_buffer_coalesces_same_line():
    wb = WriteBuffer(depth=2, line_bytes=128, drain_interval=6)
    assert wb.push(0x100, 0)
    assert wb.push(0x110, 0)     # same 128B line
    assert wb.coalesced == 1
    assert wb.occupancy(0) == 1


def test_write_buffer_full_then_drains():
    wb = WriteBuffer(depth=1, line_bytes=128, drain_interval=4)
    assert wb.push(0x000, 0)
    assert not wb.push(0x100, 1)     # full, distinct line
    assert wb.push(0x100, 10)        # drained by now


def test_write_buffer_selective_flush():
    wb = WriteBuffer(depth=4, line_bytes=128, drain_interval=6)
    wb.push(0x200, 0)
    delay = wb.flush_line(0x210, 0)      # same line -> flushed
    assert delay == 6
    assert wb.flush_line(0x210, 0) == 0  # already gone


# --- DRDRAM ------------------------------------------------------------------------------------

def test_dram_latency_plus_transfer():
    dram = DirectRambus(device_latency=45, bytes_per_cycle=5.3)
    done = dram.access(0, 128, 0)
    assert done == 45 + round(128 / 5.3)


def test_dram_channel_serializes():
    dram = DirectRambus()
    first = dram.access(0, 128, 0)
    second = dram.access(1 << 16, 128, 0)     # different device, same channel
    assert second > first


def test_dram_stats():
    dram = DirectRambus()
    dram.access(0, 128, 0)
    assert dram.stats()["dram_bytes"] == 128


def test_dram_validation():
    with pytest.raises(ValueError):
        DirectRambus(device_latency=0)


# --- L1 / L2 composition -------------------------------------------------------------------------

def test_conventional_cold_miss_then_hit():
    mem = ConventionalHierarchy(4)
    cold = mem.try_issue(*load(0x2000), 0)
    assert cold > 40                      # through L2 + DRAM
    warm = mem.try_issue(*load(0x2000), cold + 1)
    assert warm == cold + 1 + mem.params.l1_latency


def test_conventional_store_buffered():
    mem = ConventionalHierarchy(4)
    done = mem.try_issue(*store(0x3000), 0)
    assert done is not None and done <= 2     # absorbed by write buffer


def test_conventional_unaligned_split():
    mem = ConventionalHierarchy(4)
    mem.try_issue(*load(0x2001, nbytes=8), 0)
    assert mem.unaligned_splits == 1


def test_conventional_rejects_vector():
    mem = ConventionalHierarchy(4)
    with pytest.raises(ValueError):
        mem.try_issue(*vload(0x100, 8, 16), 0)


def test_write_through_keeps_l2_current():
    mem = ConventionalHierarchy(4)
    t = mem.try_issue(*load(0x4000), 0)        # fill both levels
    mem.try_issue(*store(0x4000), t + 1)
    assert mem.l2.array.contains(0x4000)
    assert 0x4000 // L2Cache.LINE in mem.l1.wbuf.lines   # store buffered
    stats = mem.stats()
    assert stats["l1_hits"] >= 1


def test_l2_dirty_writeback_on_eviction():
    dram = DirectRambus()
    l2 = L2Cache(dram, latency=6)
    l2.access(0x0, True, 0)                       # dirty fill
    conflict = 0x0 + L2Cache.SIZE // 2            # same set, way 2
    conflict2 = 0x0 + L2Cache.SIZE
    l2.access(conflict, False, 200)
    l2.access(conflict2, False, 400)              # evicts the dirty line
    assert l2.writebacks == 1


def test_table3_params():
    conv4 = HierarchyParams.conventional(4)
    assert (conv4.l1_ports, conv4.l1_banks, conv4.l1_latency) == (2, 4, 1)
    conv8 = HierarchyParams.conventional(8)
    assert (conv8.l1_ports, conv8.l1_banks, conv8.l1_latency) == (4, 8, 2)
    vc4 = HierarchyParams.vector(4, collapsing=False)
    assert vc4.l2_latency == 8 and vc4.vector_port_width == 2
    col8 = HierarchyParams.vector(8, collapsing=True)
    assert col8.l2_latency == 10 and col8.vector_port_width == 4


# --- MOM cache organizations --------------------------------------------------------------------

def test_multi_address_handles_vectors():
    mem = MultiAddressHierarchy(4)
    done = mem.try_issue(*vload(0x2000, 8, 16), 0)
    assert done is not None
    assert mem.stats()["vector_elements"] == 16


def test_multi_address_reserves_all_ports():
    mem = MultiAddressHierarchy(4)
    mem.try_issue(*vload(0x2000, 8, 16), 0)
    assert mem.try_issue(*load(0x100), 1) is None


def test_vector_cache_unit_stride_groups_lines():
    mem = VectorCacheHierarchy(4)
    mem.try_issue(*vload(0x2000, 8, 16), 0)        # 128 contiguous bytes
    assert mem.stats()["vector_transactions"] == 1


def test_vector_cache_large_stride_degenerates():
    mem = VectorCacheHierarchy(4)
    mem.try_issue(*vload(0x2000, 512, 16), 0)
    assert mem.stats()["vector_transactions"] == 16


def test_collapsing_buffer_groups_moderate_strides():
    vc = VectorCacheHierarchy(4)
    col = CollapsingBufferHierarchy(4)
    vc.try_issue(*vload(0x2000, 32, 16), 0)
    col.try_issue(*vload(0x2000, 32, 16), 0)
    assert col.stats()["vector_transactions"] < vc.stats()["vector_transactions"]


def test_collapsing_buffer_no_help_for_huge_strides():
    """The mpeg2-encode exception: far-apart words cannot be compressed."""
    col = CollapsingBufferHierarchy(4)
    col.try_issue(*vload(0x2000, 4096, 16), 0)
    assert col.stats()["vector_transactions"] == 16


def test_vector_store_invalidates_l1():
    mem = VectorCacheHierarchy(4)
    t = mem.try_issue(*load(0x2000), 0)            # bring line into L1
    mem.try_issue(*vstore(0x2000, 8, 4), t + 1)
    assert mem.stats()["l1_invalidations"] >= 1
    assert not mem.l1.array.contains(0x2000)


def test_vector_load_bypasses_l1():
    mem = VectorCacheHierarchy(4)
    mem.try_issue(*vload(0x6000, 8, 16), 0)
    assert not mem.l1.array.contains(0x6000)


def test_vector_cache_warm_hits_faster():
    mem = VectorCacheHierarchy(4)
    cold = mem.try_issue(*vload(0x2000, 8, 16), 0)
    warm_start = cold + 10
    warm = mem.try_issue(*vload(0x2000, 8, 16), warm_start) - warm_start
    assert warm < cold


def test_scalar_path_still_works_in_mom_hierarchies():
    for cls in (MultiAddressHierarchy, VectorCacheHierarchy,
                CollapsingBufferHierarchy):
        mem = cls(4)
        assert mem.try_issue(*load(0x9000), 0) is not None
