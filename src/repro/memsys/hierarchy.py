"""The realistic cache hierarchy (Section 4.2.1) and the conventional system.

Composition, following the Alpha 21364 the paper cites:

* **L1**: 32 KB, direct-mapped, write-through, 32-byte lines, no-allocate on
  store miss, 8 MSHRs, behind ``ports`` cache ports and ``banks`` interleaved
  banks (Table 3).  Unaligned accesses are split by the port into two
  aligned accesses.
* **Write buffer**: 8-deep, coalescing by L2 line, selective flush.
* **L2**: 1 MB, 2-way, write-back, write-allocate, 128-byte lines, 8 MSHRs.
* **Main memory**: Direct Rambus (see :mod:`repro.memsys.dram`).

:class:`ConventionalHierarchy` is the memory system used by the Alpha and
MMX runs of Figure 7 and the scalar side of every MOM configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import CacheArray, MshrFile, WriteBuffer
from .dram import DirectRambus


@dataclass(frozen=True)
class HierarchyParams:
    """Table 3 knobs for one cache organization at one issue width."""

    l1_ports: int
    l1_banks: int
    l1_latency: int
    l2_latency: int
    #: vector-side port width in elements/cycle (VC/COL organizations).
    vector_port_width: int = 1

    @staticmethod
    def conventional(way: int) -> "HierarchyParams":
        """Conv/MA column of Table 3 (4-way and 8-way machines)."""
        if way >= 8:
            return HierarchyParams(l1_ports=4, l1_banks=8, l1_latency=2,
                                   l2_latency=6)
        return HierarchyParams(l1_ports=2, l1_banks=4, l1_latency=1,
                               l2_latency=6)

    @staticmethod
    def vector(way: int, collapsing: bool) -> "HierarchyParams":
        """VC/COL column of Table 3; L2 latency 8 (VC) or 10 (COL)."""
        if way >= 8:
            return HierarchyParams(l1_ports=2, l1_banks=2, l1_latency=1,
                                   l2_latency=10 if collapsing else 8,
                                   vector_port_width=4)
        return HierarchyParams(l1_ports=1, l1_banks=1, l1_latency=1,
                               l2_latency=10 if collapsing else 8,
                               vector_port_width=2)


class L2Cache:
    """1 MB 2-way write-back second-level cache with MSHRs."""

    SIZE = 1 << 20
    LINE = 128
    MSHRS = 8

    def __init__(self, dram: DirectRambus, latency: int) -> None:
        self.array = CacheArray(self.SIZE, self.LINE, assoc=2)
        self.mshr = MshrFile(self.MSHRS)
        self.dram = dram
        self.latency = latency
        self.writebacks = 0

    def access(self, addr: int, is_store: bool, cycle: int) -> int:
        """Access one L2 line; returns the data-ready cycle.

        Its callers cannot roll back, so a miss that finds every MSHR
        busy is charged a serialization penalty instead of a retry.
        """
        line_addr = (addr // self.LINE) * self.LINE
        if self.array.probe(addr):
            if is_store:
                self.array.set_dirty(addr)
            return cycle + self.latency
        inflight = self.mshr.lookup(self.array.line_of(addr), cycle)
        if inflight is not None:
            return max(inflight, cycle + self.latency)
        fill_done = self.dram.access(line_addr, self.LINE, cycle + self.latency)
        if not self.mshr.allocate(self.array.line_of(addr), fill_done, cycle):
            fill_done += self.latency  # charge a serialization penalty
        victim = self.array.fill(addr, dirty=is_store)
        if victim is not None:
            self.writebacks += 1
            self.dram.access(victim, self.LINE, fill_done)
        return fill_done + self.latency

    def stats(self) -> dict[str, float]:
        return {
            "l2_hits": self.array.hits,
            "l2_misses": self.array.misses,
            "l2_miss_rate": self.array.miss_rate,
            "l2_writebacks": self.writebacks,
            "l2_mshr_merges": self.mshr.merges,
        }


class L1Cache:
    """32 KB direct-mapped write-through first-level cache."""

    SIZE = 32 << 10
    LINE = 32
    MSHRS = 8
    WBUF_DEPTH = 8

    def __init__(self, l2: L2Cache, latency: int, banks: int) -> None:
        self.array = CacheArray(self.SIZE, self.LINE, assoc=1)
        self.mshr = MshrFile(self.MSHRS)
        self.l2 = l2
        self.latency = latency
        self.banks = banks
        self.bank_free = [0] * banks
        self.wbuf = WriteBuffer(self.WBUF_DEPTH, L2Cache.LINE,
                                drain_interval=l2.latency)

    def load(self, addr: int, cycle: int) -> int:
        """Load one aligned word; returns its data-ready cycle.

        The hit path is inline, in this order: the interleaved bank
        serializes colliding accesses, the write buffer selectively
        flushes a buffered copy of the line, then the tag test (a set of
        the direct-mapped array holds at most one line).  A miss merges
        into an in-flight fill or goes to the L2; one that finds every
        MSHR busy pays a serialization penalty.
        """
        line = addr // self.LINE
        bank_free = self.bank_free
        bank = line % self.banks
        start = bank_free[bank]
        if start < cycle:
            start = cycle
        bank_free[bank] = start + 1
        wbuf = self.wbuf
        flush = 0
        wline = addr // wbuf.line_bytes
        if wline in wbuf.lines:
            del wbuf.lines[wline]
            wbuf.selective_flushes += 1
            flush = wbuf.drain_interval
        array = self.array
        entries = array._sets[line % array.sets]
        if entries and entries[0][0] == line // array.sets:
            array.hits += 1
            return start + self.latency + flush
        array.misses += 1
        inflight = self.mshr.lookup(line, start)
        if inflight is not None:
            return max(inflight, start + self.latency) + flush
        l2_done = self.l2.access(addr, False, start + self.latency + flush)
        if not self.mshr.allocate(line, l2_done + self.latency, start):
            l2_done += self.latency
        array.fill(addr)             # write-through L1: lines never dirty
        return l2_done + self.latency

    def store(self, addr: int, cycle: int) -> int | None:
        """Write-through, no-allocate; completes when buffered (``None``
        when the buffer is full, after the bank was claimed)."""
        line = addr // self.LINE
        bank_free = self.bank_free
        bank = line % self.banks
        start = bank_free[bank]
        if start < cycle:
            start = cycle
        bank_free[bank] = start + 1
        if not self.wbuf.push(addr, start):
            return None
        array = self.array
        entries = array._sets[line % array.sets]
        if entries and entries[0][0] == line // array.sets:
            array.hits += 1          # a write hit counts as an L1 hit
        return start + self.latency

    def invalidate(self, addr: int) -> bool:
        return self.array.invalidate(addr)

    def stats(self) -> dict[str, float]:
        return {
            "l1_hits": self.array.hits,
            "l1_misses": self.array.misses,
            "l1_miss_rate": self.array.miss_rate,
            "wbuf_coalesced": self.wbuf.coalesced,
            "wbuf_full_stalls": self.wbuf.full_stalls,
            "wbuf_selective_flushes": self.wbuf.selective_flushes,
        }


class ConventionalHierarchy:
    """The baseline memory system: ports -> banked L1 -> WB -> L2 -> DRDRAM.

    Used for the Alpha and MMX full-program runs.  Scalar and MMX media
    accesses are single words; unaligned words are decoupled into two
    aligned accesses by the port, as the paper specifies.
    """

    def __init__(self, way: int, params: HierarchyParams | None = None) -> None:
        self.params = params or HierarchyParams.conventional(way)
        self.dram = DirectRambus()
        self.l2 = L2Cache(self.dram, self.params.l2_latency)
        self.l1 = L1Cache(self.l2, self.params.l1_latency, self.params.l1_banks)
        self.port_free = [0] * self.params.l1_ports
        self.unaligned_splits = 0
        # Cycle-accounting counters (success-path occupancy; kept out of
        # digest-pinned ``stats``).
        self.acct_accesses = 0
        self.acct_occupancy = 0

    # --- core-facing API ------------------------------------------------------------

    def try_issue(self, is_store: bool, addr: int, nbytes: int, vl: int,
                  stride: int, cycle: int) -> int | None:
        if vl > 1:
            raise ValueError(
                "conventional hierarchy cannot issue matrix accesses; "
                "use the multi-address / vector-cache systems"
            )
        return self._scalar_access(is_store, addr, nbytes, cycle)

    def earliest_issue(self, addr: int, nbytes: int, vl: int,
                       cycle: int) -> int:
        """Scheduler hint: earliest cycle :meth:`try_issue` could succeed.

        Follows the contract in :mod:`repro.memsys.cache`: an aligned
        scalar whose ports are all claimed skips to the first port
        release, because a failed port claim touches nothing.  An
        unaligned scalar counts a split on every attempt, so it gets no
        skip (the hint is ``cycle`` itself); nor does a cycle with a free
        port, where a full write buffer fails with effects.
        """
        if vl > 1 or nbytes > 1 and addr % nbytes:
            return cycle     # decoupled subclasses override vector hints
        earliest = min(self.port_free)
        return earliest if earliest > cycle else cycle

    def _scalar_access(self, is_store: bool, addr: int, nbytes: int,
                       cycle: int) -> int | None:
        """One scalar access: a port, then the L1 for each aligned piece.

        The port splits an unaligned word into its two aligned words,
        counted before the port claim (a failed attempt counts too); they
        issue at ``cycle`` and ``cycle + 1``.  A store whose second piece
        finds the write buffer full keeps the first piece's effects.
        """
        if nbytes < 1:
            nbytes = 1
        offset = addr % nbytes
        if offset:
            self.unaligned_splits += 1
            addr -= offset
        port_free = self.port_free
        for port, free in enumerate(port_free):
            if free <= cycle:
                port_free[port] = cycle + 2 if offset else cycle + 1
                break
        else:
            return None
        access = self.l1.store if is_store else self.l1.load
        completion = access(addr, cycle)
        if offset and completion is not None:
            done = access(addr + nbytes, cycle + 1)
            completion = None if done is None else max(completion, done)
        if completion is None:       # write buffer full: retry it whole
            return None
        self.acct_accesses += 1
        self.acct_occupancy += completion - cycle
        return completion

    def stats(self) -> dict[str, float]:
        merged: dict[str, float] = {"unaligned_splits": self.unaligned_splits}
        merged.update(self.l1.stats())
        merged.update(self.l2.stats())
        merged.update(self.dram.stats())
        return merged

    def accounting_stats(self) -> dict[str, int]:
        """Per-access occupancy detail for CPI-stack ``meta`` reporting.

        The fill-wait counters expose the raw miss latency the MSHR files
        absorbed (the ``mem_latency`` side of the stack).
        """
        return {
            "accesses": self.acct_accesses,
            "occupancy_cycles": self.acct_occupancy,
            "l1_fill_wait_cycles": self.l1.mshr.acct_fill_cycles,
            "l2_fill_wait_cycles": self.l2.mshr.acct_fill_cycles,
        }
