"""Cache building blocks: tag arrays, MSHRs and the coalescing write buffer.

These are the ingredients of the Alpha-21364-style hierarchy of Section
4.2.1: a 32 KB direct-mapped write-through L1 with 32-byte lines, a 1 MB
2-way write-back L2 with 128-byte lines, 8 MSHRs per cache and an 8-deep
coalescing write buffer with a selective-flush policy.  The composition
lives in :mod:`repro.memsys.hierarchy`.

All timing here is expressed as *completion cycles*; structural back
pressure is expressed by methods returning ``None`` (the core retries the
instruction next cycle).  The memory models built from these blocks take
an access as plain ints, ``try_issue(is_store, addr, nbytes, vl, stride,
cycle)``, and export an ``earliest_issue(addr, nbytes, vl, cycle)`` hint
for the event-driven core.  The hint contract: every ``try_issue`` of that
access strictly before the returned cycle fails *without side effects*
(no port, bank, MSHR, write-buffer or counter is touched), so the core
may skip those retries and stay cycle-exact against a core that retries
every cycle.  A failing port claim touches nothing, so an aligned access
may skip to the first port release; an access whose failure has effects
-- an unaligned split is counted before the port claim, a store may find
the write buffer full after claiming its port -- gets the current cycle,
which keeps it on the cycle-by-cycle cadence.  Port claims only push busy
horizons forward, so the bound stays valid while other accesses issue.
"""

from __future__ import annotations


class CacheArray:
    """Tag/state array of one cache level (LRU within a set).

    Purely behavioural: the data itself lives in the functional memory of
    the emulation library; the array tracks presence, dirtiness and
    eviction decisions so the timing model charges the right misses.
    """

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int) -> None:
        if size_bytes % (line_bytes * assoc):
            raise ValueError("size must be a multiple of line*assoc")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.sets = size_bytes // (line_bytes * assoc)
        # Per set: list of (tag, dirty) in LRU order (front = MRU).
        self._sets: list[list[list]] = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def line_of(self, addr: int) -> int:
        return addr // self.line_bytes

    def _locate(self, addr: int):
        line = self.line_of(addr)
        return self._sets[line % self.sets], line // self.sets

    def probe(self, addr: int, update_lru: bool = True) -> bool:
        """Look up a line; move to MRU on hit."""
        entries, tag = self._locate(addr)
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                if update_lru and i:
                    entries.insert(0, entries.pop(i))
                self.hits += 1
                return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Presence check without touching LRU state or counters."""
        entries, tag = self._locate(addr)
        return any(entry[0] == tag for entry in entries)

    def fill(self, addr: int, dirty: bool = False) -> int | None:
        """Install a line; returns the *address* of a dirty victim, if any.

        Clean victims vanish silently (write-through L1 / clean L2 lines);
        a dirty victim must be written back by the caller.
        """
        entries, tag = self._locate(addr)
        for i, entry in enumerate(entries):
            if entry[0] == tag:       # refill of a present line
                entry[1] = entry[1] or dirty
                if i:
                    entries.insert(0, entries.pop(i))
                return None
        victim_addr = None
        if len(entries) >= self.assoc:
            victim_tag, victim_dirty = entries.pop()
            if victim_dirty:
                set_index = self.line_of(addr) % self.sets
                victim_line = victim_tag * self.sets + set_index
                victim_addr = victim_line * self.line_bytes
        entries.insert(0, [tag, dirty])
        return victim_addr

    def set_dirty(self, addr: int) -> None:
        entries, tag = self._locate(addr)
        for entry in entries:
            if entry[0] == tag:
                entry[1] = True
                return

    def invalidate(self, addr: int) -> bool:
        """Drop a line (coherence); returns True if it was present."""
        entries, tag = self._locate(addr)
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                entries.pop(i)
                return True
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class MshrFile:
    """Miss status holding registers: outstanding-miss tracking and merging.

    A new miss to a line already in flight merges into the existing entry
    (completing when the first fill returns).  When all registers are busy
    the access must be retried -- the caller sees ``None``.
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("need at least one MSHR")
        self.capacity = entries
        self.inflight: dict[int, int] = {}   # line -> fill completion cycle
        self.merges = 0
        self.full_events = 0
        # Cycle-accounting counter (kept out of digest-pinned ``stats``):
        # total cycles outstanding fills spent in flight, i.e. the raw
        # miss-latency exposure this MSHR file absorbed.
        self.acct_fill_cycles = 0

    def _expire(self, cycle: int) -> None:
        expired = [line for line, done in self.inflight.items() if done <= cycle]
        for line in expired:
            del self.inflight[line]

    def lookup(self, line: int, cycle: int) -> int | None:
        """Completion cycle if this line is already being fetched."""
        self._expire(cycle)
        done = self.inflight.get(line)
        if done is not None:
            self.merges += 1
        return done

    def allocate(self, line: int, done_cycle: int, cycle: int) -> bool:
        """Reserve an MSHR for a new miss; False when all are busy."""
        self._expire(cycle)
        if len(self.inflight) >= self.capacity:
            self.full_events += 1
            return False
        self.inflight[line] = done_cycle
        self.acct_fill_cycles += done_cycle - cycle
        return True


class WriteBuffer:
    """Coalescing write buffer between the write-through L1 and the L2.

    Stores coalesce by L2 line; the buffer drains one entry per L2 write
    opportunity.  The *selective flush* policy lets a load that hits a
    buffered line force just that entry out (charged as one L2 write)
    instead of draining the whole buffer.
    """

    def __init__(self, depth: int, line_bytes: int, drain_interval: int) -> None:
        if depth < 1:
            raise ValueError("write buffer needs depth >= 1")
        self.depth = depth
        self.line_bytes = line_bytes
        self.drain_interval = drain_interval
        self.lines: dict[int, int] = {}     # line -> earliest drain cycle
        self.coalesced = 0
        self.full_stalls = 0
        self.selective_flushes = 0
        self._next_drain = 0

    def _drain(self, cycle: int) -> None:
        """Retire entries whose drain opportunity has passed."""
        while self.lines and self._next_drain <= cycle:
            oldest = min(self.lines, key=self.lines.__getitem__)
            if self.lines[oldest] > cycle:
                break
            del self.lines[oldest]
            self._next_drain = cycle + self.drain_interval

    def push(self, addr: int, cycle: int) -> bool:
        """Enqueue a store; returns False (stall) when full and uncoalescable."""
        self._drain(cycle)
        line = addr // self.line_bytes
        if line in self.lines:
            self.coalesced += 1
            return True
        if len(self.lines) >= self.depth:
            self.full_stalls += 1
            return False
        self.lines[line] = cycle + self.drain_interval
        return True

    def flush_line(self, addr: int, cycle: int) -> int:
        """Selective flush: force out the entry covering ``addr``.

        Returns the extra delay (cycles) a dependent load must wait; zero
        when the address is not buffered.
        """
        line = addr // self.line_bytes
        if line in self.lines:
            del self.lines[line]
            self.selective_flushes += 1
            return self.drain_interval
        return 0

    def occupancy(self, cycle: int) -> int:
        self._drain(cycle)
        return len(self.lines)
