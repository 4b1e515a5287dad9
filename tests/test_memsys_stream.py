"""A seeded access stream pins every memory model's observable behaviour.

The busy-wait oracle (``Core.run_reference``) drives the same memory
models as the lane stepper, so oracle parity cannot catch a drift inside
a model, and the golden grid never reaches several of their paths
(write-buffer stalls, L2 writebacks, L2 MSHR merges, vector-store L1
invalidations).  This file drives each hierarchy at 4-way and 8-way, and
perfect memory, through one seeded stream that reaches all of them --
aligned and unaligned scalars on busy ports, write-buffer overflow
(including a split store whose second piece meets the full buffer),
vector loads and stores at every stride class, L2 set conflicts with
dirty vector-cache lines and a line re-accessed after it was evicted
while its fill was still in flight -- and hashes every ``try_issue``
return, every ``earliest_issue`` hint, ``stats()`` and
``accounting_stats()``.  The digests were captured from the models
before their interface moved from ``DynInstr`` records to plain ints.
"""

import hashlib
import json
import random

import pytest

from repro.memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)
from repro.memsys.hierarchy import L2Cache

#: Addresses this far apart share a set of the 2-way L2 and of the
#: direct-mapped L1 (whose size divides it).
SET_STRIDE = L2Cache.SIZE // 2

#: Attempts per access: a failed attempt is retried at the later of the
#: next cycle and the model's hint, as the engine would.
ATTEMPTS = 4

MODELS = {
    "perfect-1x2": lambda: PerfectMemory(1, 2, 1),
    "perfect-50x4w2": lambda: PerfectMemory(50, 4, 2),
    "conventional-4": lambda: ConventionalHierarchy(4),
    "conventional-8": lambda: ConventionalHierarchy(8),
    "multiaddress-4": lambda: MultiAddressHierarchy(4),
    "multiaddress-8": lambda: MultiAddressHierarchy(8),
    "vectorcache-4": lambda: VectorCacheHierarchy(4),
    "vectorcache-8": lambda: VectorCacheHierarchy(8),
    "collapsing-4": lambda: CollapsingBufferHierarchy(4),
    "collapsing-8": lambda: CollapsingBufferHierarchy(8),
}

STREAM_DIGESTS = {
    "collapsing-4": "f0c25883ee0d64a2",
    "collapsing-8": "125950e7760017c4",
    "conventional-4": "2d95973a233851ff",
    "conventional-8": "38f0022d5ca3ae79",
    "multiaddress-4": "85e38a04c25d5c12",
    "multiaddress-8": "f5090f973804572d",
    "perfect-1x2": "f83889e9917283b1",
    "perfect-50x4w2": "bec76ee300b7de2b",
    "vectorcache-4": "273c2bf4e3cfac3c",
    "vectorcache-8": "a6a5b8ffa8c92a4e",
}


def access_stream(seed: int = 17, rounds: int = 24) -> list[tuple]:
    """``(is_store, addr, nbytes, vl, stride, advance)`` accesses; each
    issues ``advance`` cycles after the previous one settled."""
    rng = random.Random(seed)
    events: list[tuple] = []

    def add(is_store, addr, nbytes=8, vl=1, stride=0, advance=1):
        events.append((is_store, addr, nbytes, vl, stride, advance))

    line = L2Cache.LINE
    for r in range(rounds):
        base = 0x100000 * (r + 1)
        # A burst of scalars in one cycle, some unaligned: busy ports.
        for k in range(6):
            add(rng.random() < 0.3, base + 8 * k + rng.choice((0, 0, 1, 3, 6)),
                rng.choice((1, 2, 4, 8, 8)), advance=0 if k else 1)
        # Stores to distinct L2 lines fill the write buffer; then a split
        # store whose first piece coalesces into the last buffered line
        # and whose second piece needs a new entry.
        lines = rng.randint(6, 14)
        for k in range(lines):
            add(True, base + 0x8000 + line * k, advance=rng.choice((0, 1, 1)))
        add(True, base + 0x8000 + line * lines - 5, 8, advance=0)
        # Vector loads and stores at every stride class, over the lines
        # the scalar burst brought into the L1.
        for stride in (0, 8, 32, 512, 4096):
            add(rng.random() < 0.4, base + 8 * rng.randrange(64), 8,
                rng.choice((2, 4, 16)), stride, advance=rng.choice((1, 2, 4)))
        # A dirty vector-cache line pair evicted by two same-set loads.
        dirty = base + 0x20000
        add(True, dirty, 8, 16, 8, advance=2)
        add(False, dirty + SET_STRIDE, 8, 16, 8, advance=rng.choice((20, 80)))
        add(False, dirty + 2 * SET_STRIDE, 8, 16, 8,
            advance=rng.choice((20, 80)))
        # A line evicted while its fill is in flight, then re-accessed:
        # by a scalar on the other L1 line of the same L2 line, and by a
        # vector load.
        cold = base + 0x30000
        add(False, cold, advance=3)
        add(False, cold + SET_STRIDE)
        add(False, cold + 2 * SET_STRIDE)
        add(False, cold + 32)
        cold += 0x8000
        add(False, cold, 8, 4, 8, advance=3)
        add(False, cold + SET_STRIDE, 8, 4, 8)
        add(False, cold + 2 * SET_STRIDE, 8, 4, 8)
        add(False, cold, 8, 4, 8)
        # Random traffic over hot lines and same-set conflicts.
        for _ in range(100):
            addr = base + rng.choice((rng.randrange(0x4000),
                                      rng.randrange(4) * SET_STRIDE
                                      + rng.randrange(0x400)))
            if rng.random() < 0.3:
                add(rng.random() < 0.4, addr & ~7, 8, rng.choice((2, 4, 8, 16)),
                    rng.choice((0, 8, 8, 32, 512, 4096)),
                    advance=rng.choice((0, 1, 2, 6)))
            else:
                add(rng.random() < 0.35, addr, rng.choice((1, 2, 4, 8, 8, 8)),
                    advance=rng.choice((0, 0, 1, 1, 1, 2, 3, 8, 40)))
    return events


def drive(mem, events) -> str:
    """Feed ``events`` to ``mem``; the digest of everything it returned."""
    hint = getattr(mem, "earliest_issue", None)
    out: list = []
    now = 0
    for is_store, addr, nbytes, vl, stride, advance in events:
        now += advance
        for _ in range(ATTEMPTS):
            done = mem.try_issue(is_store, addr, nbytes, vl, stride, now)
            out.append(done)
            if done is not None:
                break
            retry = hint(addr, nbytes, vl, now) if hint else now
            out.append(retry)
            now = max(now + 1, retry)
    out.append(mem.stats())
    out.append(mem.accounting_stats())
    canon = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def model_stream(label: str) -> list[tuple]:
    """The stream a model takes: the conventional hierarchy cannot issue
    vector accesses, so it gets the scalars only."""
    events = access_stream()
    if label.startswith("conventional"):
        events = [e for e in events if e[3] <= 1]
    return events


@pytest.mark.parametrize("label", sorted(MODELS))
def test_stream_digest(label):
    mem = MODELS[label]()
    assert drive(mem, model_stream(label)) == STREAM_DIGESTS[label]
    stats = mem.stats()
    if label.startswith("perfect"):
        assert stats["scalar_accesses"] and stats["vector_accesses"]
        return
    # The rare paths this stream exists for are really reached.
    assert stats["wbuf_full_stalls"] > 0
    assert stats["unaligned_splits"] > 0
    assert stats["l2_mshr_merges"] > 0
    if "vector" in label or "collapsing" in label:
        assert stats["l2_writebacks"] > 0
        assert stats["l1_invalidations"] > 0
    if label.startswith("conventional"):
        with pytest.raises(ValueError, match="matrix"):
            mem.try_issue(False, 0x2000, 8, 16, 8, 10 ** 6)


def test_split_store_second_piece_meets_full_buffer():
    """The first piece's effects stay; the whole access fails."""
    mem = ConventionalHierarchy(4)           # 2 ports, 4 banks
    wbuf = mem.l1.wbuf
    line = L2Cache.LINE
    for k in range(wbuf.depth):              # two stores a cycle, no bank clash
        addr = 0x8000 + line * k + 32 * (k % 4)
        assert mem.try_issue(True, addr, 8, 1, 0, k // 2) is not None
    assert len(wbuf.lines) == wbuf.depth     # nothing drains before cycle 6
    before = (wbuf.coalesced, wbuf.full_stalls, mem.unaligned_splits)
    # Pieces: the last buffered line (coalesces), then the next line.
    assert mem.try_issue(True, 0x8000 + line * wbuf.depth - 5, 8, 1, 0, 4) \
        is None
    assert (wbuf.coalesced, wbuf.full_stalls, mem.unaligned_splits) == (
        before[0] + 1, before[1] + 1, before[2] + 1)
