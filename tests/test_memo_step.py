"""Memoized stepping over replayed calls: every lane equals the oracle.

The lane stepper replays a call of the trace's call table from its memo
when the lane enters it in a state it has entered before and the memory
model gives a recorded path's answers (DESIGN.md section 1.5).  These
traces are built from repeated ``emit_skeleton`` calls between per-row
glue, with what a call sees varied per call: its addresses (cache hits,
misses, bank collisions, unaligned splits, a write buffer filled by a
run of stores), its branch outcomes, the glue rows before it (edges
into the call, long-latency rows still in flight, a branch, a store)
and, at the end, a call within the fetch width of the trace end.  Every
lane -- each memory organization, 1-, 2-, 4- and 8-way, cycle accounting
on, the ablation knobs -- must equal ``Core.run_reference`` on a fresh
memory model in its ``SimResult``, CPI stack and ``mem_accounting``,
and the memo counters in ``meta["memo"]`` show that calls were replayed,
fell back mid-call, or were stepped where they must be.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.core.mom_isa import MOM
from repro.cpu import Core, machine_config
from repro.cpu.batch import (_UNISSUED, BatchCore, _CallMemo, _Recording)
from repro.emulib.trace import RowSkeleton, Trace, reg
from repro.isa.alpha import ALPHA
from repro.isa.model import RegPool
from repro.memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)

from test_golden_digest import result_digest

WAYS = (1, 2, 4, 8)
MEMORIES = {"alpha": ("perfect", "latency50", "conventional"),
            "mom": ("perfect", "multiaddress", "vectorcache", "collapsing")}
KNOBS = [dict(acc_chaining=ac, late_release=lr, zero_idiom_elision=ze)
         for ac in (True, False) for lr in (True, False)
         for ze in (True, False)]
_PLAIN = (None, 0, 0, 1, None, 0)


def _i(r):
    return reg(RegPool.INT, r)


def _m(r):
    return reg(RegPool.MED, r)


def _a(r):
    return reg(RegPool.ACC, r)


def _row(name, srcs=(), dsts=(), *, isa=ALPHA):
    return (isa[name], srcs, dsts) + _PLAIN


def _mem(name, srcs, dsts, nbytes=8, stride=0, vl=1, isa=ALPHA):
    """A memory row; its address comes from the call (``None`` here)."""
    return (isa[name], srcs, dsts, 0, nbytes, stride, vl, None, 0)


def _branch(name, srcs=()):
    return (ALPHA[name], srcs, (), None, 0, 0, 1, True, 0)


def _alpha_body(stores: int = 8, tail: int = 6) -> list:
    """A loop-like scalar body: rows 0-3 read registers written before
    the call (i1, i2, i3), a divide stays in flight, two conditional
    branches and a jump take outcomes from the call, a run of stores to
    distinct lines can fill the write buffer."""
    rows = [
        _mem("ldq", (_i(1),), (_i(4),)),
        _mem("ldq", (_i(2),), (_i(5),)),
        _row("addq", (_i(4), _i(5)), (_i(6),)),
        _row("mulq", (_i(6), _i(3)), (_i(7),)),
        _mem("stq", (_i(7), _i(1)), ()),
        _branch("bne", (_i(6),)),
        _mem("ldl", (_i(4),), (_i(8),), nbytes=4),
        _row("divq", (_i(8), _i(7)), (_i(9),)),
        _row("addq", (_i(9), _i(6)), (_i(10),)),
        _row("addq", (_i(10), _i(10)), (_i(11),)),
        _mem("stq", (_i(11), _i(2)), ()),
        _row("bis", (), (_i(12),)),
        _branch("beq", (_i(11),)),
    ]
    rows += [_mem("stq", (_i(5), _i(2)), ()) for _ in range(stores)]
    rows += [_row("addq", (_i(k % 3 + 4), _i(5)), (_i(k % 3 + 4),))
             for k in range(tail)]
    rows += [_mem("ldq", (_i(4),), (_i(1),)), _branch("br")]
    return rows


def _vl_row(name, srcs, dsts, vl):
    """A media compute row with a vector length: no address, no outcome."""
    return (MOM[name], srcs, dsts, None, 0, 0, vl, None, 0)


def _mom_body() -> list:
    """A matrix body: strided vector loads feeding packed and
    accumulator work, a vector store, scalar glue and a branch.  Its
    media rows carry vector lengths 8 and 16 (a re-run MOM call's rows
    do, as the glue's between calls do) next to rows at VL 1."""
    return [
        _mem("ldq", (_i(1),), (_i(4),)),
        _mem("momldq", (_i(4),), (_m(1),), stride=32, vl=8, isa=MOM),
        _mem("momldq", (_i(2),), (_m(2),), stride=16, vl=16, isa=MOM),
        _row("momzero", (), (_m(3),), isa=MOM),
        _row("paddb", (_m(1), _m(2)), (_m(3),), isa=MOM),
        _vl_row("paddb", (_m(1), _m(2)), (_m(4),), 8),
        _vl_row("mommpvb", (_m(4), _a(1)), (_a(1),), 16),
        _row("mommpvb", (_m(3), _a(0)), (_a(0),), isa=MOM),
        _row("mommpvb", (_m(1), _a(0)), (_a(0),), isa=MOM),
        _vl_row("pmaxsh", (_m(4), _m(2)), (_m(3),), 16),
        _row("addq", (_i(4), _i(3)), (_i(5),)),
        _mem("momstq", (_m(3), _i(5)), (), stride=8, vl=4, isa=MOM),
        _mem("stq", (_i(5), _i(2)), ()),
        _branch("bne", (_i(5),)),
        _row("mulq", (_i(5), _i(5)), (_i(6),)),
        _mem("ldq", (_i(6),), (_i(2),)),
    ]


def _glue(kind: int, isa: str, taken: bool) -> list:
    """Per-row rows before a call: nothing, an edge into the call, a
    load, a divide or a store still in flight, a branch."""
    if kind == 0:
        return []
    if kind == 1:
        return [_row("addq", (_i(1), _i(2)), (_i(1),))]
    if kind == 2:
        return [(ALPHA["ldq"], (_i(3),), (_i(2),), 0x8000, 8, 0, 1, None, 0)]
    if kind == 3:
        return [_row("divq", (_i(3), _i(1)), (_i(3),))]
    if kind == 4:
        return [(ALPHA["stq"], (_i(3), _i(1)), (), 0x8800, 8, 0, 1, None, 0),
                _row("nop")]
    if kind == 5:
        return [(ALPHA["beq"], (_i(1),), (), None, 0, 0, 1, taken, 7),
                _row("addq", (_i(3), _i(3)), (_i(3),))]
    rows = [_row("nop")] * 3
    if isa == "mom":
        rows += [(MOM["paddb"], (_m(1), _m(2)), (_m(1),), None, 0, 0, 8,
                  None, 0),
                 (MOM["mommpvb"], (_m(1), _a(0)), (_a(0),), None, 0, 0, 16,
                  None, 0)]
    return rows


#: How a call's addresses are chosen: repeated lines (hits), fresh lines
#: (misses), one bank's lines (collisions), unaligned words (splits), or
#: stores to distinct lines (a full write buffer).
MODES = ("repeat", "fresh", "bank", "unaligned", "stores")


def _addresses(mode: str, skeleton: RowSkeleton, call: int) -> list:
    n = skeleton.addresses
    if mode == "repeat":
        return [0x10000 + 64 * k for k in range(n)]
    if mode == "fresh":
        return [0x100000 + 0x4000 * call + 64 * k for k in range(n)]
    if mode == "bank":
        return [0x20000 + 1024 * k for k in range(n)]
    if mode == "unaligned":
        return [0x30000 + 64 * k + (3 if k % 2 else 0) for k in range(n)]
    return [0x40000 + 0x1000 * call + 32 * k for k in range(n)]


def _outcomes(pattern: tuple, skeleton: RowSkeleton) -> list:
    return [pattern[k % len(pattern)] for k in range(skeleton.branches)]


def build_trace(isa: str, seed: int, calls: int = 48, *, bodies=None,
                tail=(), chunk_rows: int = 1 << 16) -> Trace:
    """A seeded trace of ``calls`` replayed calls between glue rows,
    then ``tail`` rows.  Each call follows one of five templates drawn
    per trace -- skeleton, glue, address mode, branch outcomes -- in a
    loop over the first two with one call in four drawn from all five,
    so that entry states repeat while what follows them varies."""
    rng = random.Random(seed)
    if bodies is None:
        bodies = ([_alpha_body(), _alpha_body(stores=2, tail=1)]
                  if isa == "alpha" else [_mom_body(), _alpha_body(2, 1)])
    skeletons = [RowSkeleton(rows) for rows in bodies]
    patterns = ((True,), (False,), (True, False))
    templates = [(rng.choice(skeletons), rng.randrange(7), MODES[k % 5],
                  rng.choice(patterns), rng.random() < 0.5)
                 for k in range(5)]
    trace = Trace(isa, chunk_rows=chunk_rows)
    for call in range(calls):
        skeleton, glue, mode, pattern, taken = (
            rng.choice(templates) if rng.random() < 0.25
            else templates[call % 2])
        for row in _glue(glue, isa, taken):
            trace.emit(*row)
        trace.emit_skeleton(skeleton, _addresses(mode, skeleton, call),
                            _outcomes(pattern, skeleton), 3)
    for row in tail:
        trace.emit(*row)
    return trace


def _memsys(label: str, way: int, isa: str):
    cfg = machine_config(way, isa)
    if label == "perfect":
        return PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)
    if label == "latency50":
        return PerfectMemory(50, cfg.mem_ports, cfg.mem_port_width)
    return {"conventional": ConventionalHierarchy,
            "multiaddress": MultiAddressHierarchy,
            "vectorcache": VectorCacheHierarchy,
            "collapsing": CollapsingBufferHierarchy}[label](way)


def _core(isa: str, way: int, memory: str, knobs: dict) -> Core:
    return Core(machine_config(way, isa), _memsys(memory, way, isa), **knobs)


def assert_lanes_match_oracle(trace: Trace, isa: str, lanes: list) -> list:
    """Run ``lanes`` -- ``(way, memory, knobs)`` -- as one batch; each
    must equal its own oracle run on a fresh memory model.  Returns the
    lanes' memo counters."""
    results = BatchCore([_core(isa, *lane) for lane in lanes]).run(trace)
    for lane, result in zip(lanes, results):
        ref = _core(isa, *lane).run_reference(trace)
        assert result_digest(result) == result_digest(ref), lane
        assert result.stack == ref.stack, lane
        assert result.meta.get("mem_accounting") == \
            ref.meta.get("mem_accounting"), lane
    return [result.meta["memo"] for result in results]


def _lanes(isa: str, way: int) -> list:
    """Every memory organization with cycle accounting on, and two knob
    variants on the last one."""
    memories = MEMORIES[isa]
    return ([(way, memory, dict(accounting=True)) for memory in memories]
            + [(way, memories[-1], KNOBS[k]) for k in (3, 6)])


def _total(memos, field):
    return sum(memo[field] for memo in memos)


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("isa", ["alpha", "mom"])
def test_every_memory_organization_matches_the_oracle(isa, way):
    """Each memory organization, accounting on, two knob variants: each
    lane equals the oracle, and calls were replayed from the memo."""
    trace = build_trace(isa, seed=way)
    memos = assert_lanes_match_oracle(trace, isa, _lanes(isa, way))
    assert all(memo["hits"] for memo in memos), memos
    assert _total(memos, "rows") > len(trace) // 4


@pytest.mark.parametrize("isa", ["alpha", "mom"])
def test_knob_variants_match_the_oracle(isa):
    """All eight ablation-knob combinations in one batch."""
    trace = build_trace(isa, seed=11)
    lanes = [(4, MEMORIES[isa][-1], knobs) for knobs in KNOBS]
    memos = assert_lanes_match_oracle(trace, isa, lanes)
    assert all(memo["hits"] for memo in memos), memos


def test_replays_fall_back_mid_call_and_branch(monkeypatch):
    """A cache lane sees calls whose entry repeats but whose memory
    answers differ: the replay falls back where the answers part and
    stores a branch, and later calls replay through keys whose paths
    branch."""
    branched_hits = []
    real_enter = _CallMemo.enter

    def enter(self, key, first, end, cycle):
        node = self.table.get(key)
        got = real_enter(self, key, first, end, cycle)
        if node is not None and node[3] and type(got) is tuple:
            branched_hits.append(key)
        return got

    monkeypatch.setattr(_CallMemo, "enter", enter)
    trace = build_trace("alpha", seed=5, calls=96)
    (memo,) = assert_lanes_match_oracle(
        trace, "alpha", [(2, "conventional", dict(accounting=True))])
    assert memo["hits"] and memo["fallbacks"], memo
    assert branched_hits, memo


def test_call_ends_within_the_fetch_width_of_the_trace_end():
    """The last call ends right at the trace end (or a few rows before
    it), after the same history as an earlier call that rows without
    branches follow: the trace end is part of the key."""
    skeleton = RowSkeleton(_alpha_body(stores=2, tail=1))
    addrs = _addresses("repeat", skeleton, 0)
    taken = _outcomes((True, False), skeleton)
    for rows_after in (0, 3):
        trace = Trace("alpha")
        for _ in range(6):
            trace.emit_skeleton(skeleton, addrs, taken, 3)
            for _ in range(12):
                trace.emit(*_row("nop"))
        trace.emit_skeleton(skeleton, addrs, taken, 3)
        for _ in range(rows_after):
            trace.emit(*_row("nop"))
        lanes = [(way, memory, dict(accounting=True)) for way in WAYS
                 for memory in ("perfect", "conventional")]
        memos = assert_lanes_match_oracle(trace, "alpha", lanes)
        assert all(memo["hits"] for memo in memos), memos


@pytest.mark.parametrize("isa", ["alpha", "mom"])
def test_calls_straddle_small_decode_blocks(monkeypatch, isa):
    """Blocks of 128 rows cut calls at every offset and the ring wraps
    many times; lanes wait at a call's start until it is decoded through
    its end plus the fetch width, and still replay."""
    monkeypatch.setattr(BatchCore, "BLOCK", 128)
    monkeypatch.setattr(BatchCore, "RING", 256)
    trace = build_trace(isa, seed=21, calls=128, chunk_rows=100)
    assert len(trace) > 8 * 256
    lanes = [(way, memory, dict(accounting=True)) for way in WAYS
             for memory in MEMORIES[isa][::2]]
    memos = assert_lanes_match_oracle(trace, isa, lanes)
    assert all(memo["hits"] for memo in memos), memos


def test_call_longer_than_the_ring_allows_is_stepped(monkeypatch):
    """A call the decode could not hold whole while a lane waits at its
    start (longer than ``BLOCK - rob - 3 * width`` rows) is stepped, never
    recorded; the same trace in default blocks is replayed."""
    long_body = _alpha_body(stores=40, tail=200)
    trace = build_trace("alpha", seed=8, calls=20, bodies=[long_body])
    lanes = [(way, "conventional", {}) for way in (1, 8)]
    memos = assert_lanes_match_oracle(trace, "alpha", lanes)
    assert all(memo["hits"] for memo in memos), memos
    monkeypatch.setattr(BatchCore, "BLOCK", 256)
    monkeypatch.setattr(BatchCore, "RING", 512)
    assert len(long_body) > 256 - 8 - 3 and len(trace) > 512
    memos = assert_lanes_match_oracle(trace, "alpha", lanes)
    assert not any(memo["paths"] or memo["hits"] for memo in memos), memos


@pytest.mark.parametrize("cut", [0.5, 0.77])
def test_calls_cut_by_truncate_and_joined_by_extend(cut):
    """A call ``truncate`` cuts keeps its head (a shorter call, its own
    key); a trace joined by ``extend`` carries its calls moved down."""
    head = build_trace("alpha", seed=31, calls=24, chunk_rows=300)
    start, end, _ = head.calls[int(len(head.calls) * cut)]
    head.truncate((start + end) // 2)
    assert head.calls[-1][1] == (start + end) // 2
    head.extend(build_trace("alpha", seed=32, calls=24, chunk_rows=300))
    head.extend(head)
    lanes = [(way, memory, dict(accounting=True)) for way in (1, 4)
             for memory in MEMORIES["alpha"]]
    memos = assert_lanes_match_oracle(head, "alpha", lanes)
    assert all(memo["hits"] for memo in memos), memos


def _steady(glue, odd, calls: int = 9):
    """Calls of one skeleton with the same addresses and outcomes, each
    after ``glue(k)``, except call 6 after ``odd(k)``: every entry state
    repeats, so call 6 meets a recorded key unless what ``odd`` changes
    is in it."""
    skeleton = RowSkeleton(_alpha_body(stores=2, tail=1))
    addrs = _addresses("repeat", skeleton, 0)
    taken = _outcomes((True, False), skeleton)
    trace = Trace("alpha")
    for k in range(calls):
        for row in (odd if k == 6 else glue)(k):
            trace.emit(*row)
        trace.emit_skeleton(skeleton, addrs, taken, 3)
    for _ in range(12):
        trace.emit(*_row("nop"))
    return trace


def _load(dst: int, addr: int, src: int = 3):
    return (ALPHA["ldq"], (_i(src),), (_i(dst),), addr, 8, 0, 1, None, 0)


def _miss(k: int) -> int:
    return 0x200000 + 0x1000 * k


def _hot(k: int) -> int:
    return 0x10000


ODD_ONES = {
    # The call's first row reads i1: from the missing load before the
    # call, or (call 6) from the hitting one -- the same rows and states,
    # only the edge into the call differs.
    "edge into the call": (
        lambda k: [_load(1, _miss(k)), _load(7, _hot(k))],
        lambda k: [_load(7, _miss(k)), _load(1, _hot(k))]),
    # A row waiting on a miss when the call starts: an add, or (call 6)
    # a multiply -- the same state, only its product differs.
    "row in flight before the call": (
        lambda k: [_load(5, _miss(k)), _row("addq", (_i(5), _i(5)),
                                            (_i(1),))],
        lambda k: [_load(5, _miss(k)), _row("mulq", (_i(5), _i(5)),
                                            (_i(1),))]),
}


@pytest.mark.parametrize("odd", sorted(ODD_ONES))
def test_entries_that_differ_only_in_ring_values(odd):
    """A call whose entry state repeats an earlier call's while a ring
    value the key holds differs is stepped, not replayed."""
    trace = _steady(*ODD_ONES[odd])
    lanes = [(way, memory, dict(accounting=True)) for way in WAYS
             for memory in ("perfect", "conventional")]
    memos = assert_lanes_match_oracle(trace, "alpha", lanes)
    assert all(memo["hits"] for memo in memos), memos


def test_a_call_cut_short_is_its_own_key():
    """A call ``truncate`` cut, entered like the full calls before it:
    its only edge from before the call and all its rows up to the cut
    are the full calls', and no branch follows, so only the call's
    length tells the two apart."""
    body = [_mem("ldq", (_i(1),), (_i(4),))] + [
        _row("mulq" if k % 3 else "addq", (_i(4 + k % 5), _i(4)),
             (_i(4 + (k + 1) % 5),)) for k in range(29)]
    skeleton = RowSkeleton(body)
    trace = Trace("alpha")
    for k in range(16):
        trace.emit(*_row("nop"))
        trace.emit_skeleton(skeleton, [0x10000], [], 3)
    start, end, _ = trace.calls[-1]
    trace.truncate(start + 15)
    for _ in range(40):
        trace.emit(*_row("nop"))
    lanes = [(way, memory, dict(accounting=True)) for way in WAYS
             for memory in ("perfect", "conventional")]
    memos = assert_lanes_match_oracle(trace, "alpha", lanes)
    assert all(memo["hits"] for memo in memos), memos


def test_a_full_memo_steps_new_calls(monkeypatch):
    """Once a lane's memo holds its cap of ints, new entries and branches
    are not stored and their calls are stepped; stored ones still
    replay."""
    from repro.cpu import batch

    trace = build_trace("alpha", seed=5, calls=96)
    lanes = [(2, "conventional", dict(accounting=True)),
             (4, "perfect", {})]
    free = assert_lanes_match_oracle(trace, "alpha", lanes)
    monkeypatch.setattr(batch, "_MEMO_CAP", 3000)
    full = assert_lanes_match_oracle(trace, "alpha", lanes)
    for memo, capped in zip(free, full):
        assert 0 < capped["paths"] < memo["paths"], (memo, capped)
        assert 0 < capped["hits"] < memo["hits"], (memo, capped)


def _lane_state():
    """A small hand-made lane state at cycle 1000, window rows 90-97 of a
    call starting at row 100: rows 90-93 issued, 94-97 not (96 waits on
    95), fetch at 104."""
    window = 8
    state = dict(
        e_completion=[0] * window, e_chain=[0] * window,
        e_pending=[0] * window, e_base=[0] * window,
        e_waiters=[[] for _ in range(window)],
        bursts=deque([104 << 32 | 1002]), issuable=[94],
        wakeups_next=[97], wakeups=[1004 << 32 | 95],
        parked=[1006 << 32 | 93], releases=[1005 << 80 | 7],
        fu_busy=[[1003, 1], [1]], pm_busy=[1004])
    for i in range(90, 94):
        state["e_completion"][i % window] = 1003 + i % 4
        state["e_chain"][i % window] = 1002 + i % 4
    for i in range(94, 98):
        state["e_completion"][i % window] = _UNISSUED
    state["e_pending"][96 % window] = 1
    state["e_base"][96 % window] = 1005
    state["e_waiters"][95 % window].append(96)
    scalars = dict(committed=90, disp_idx=98, fetch_idx=104, D=12345,
                   nfc=1003, burst_end=102, front_ready=1002)
    return state, scalars


#: One change per state component, each to a value the stepper reads
#: differently from the base state's.
STATE_CHANGES = {
    "completion": lambda st, sc: st["e_completion"].__setitem__(2, 1009),
    "chain": lambda st, sc: st["e_chain"].__setitem__(2, 1009),
    "ready floor": lambda st, sc: st["e_base"].__setitem__(0, 1009),
    "waiters": lambda st, sc: st["e_waiters"][95 % 8].append(97),
    "SWAR word": lambda st, sc: sc.__setitem__("D", 12344),
    "releases": lambda st, sc: st["releases"].__setitem__(0, 1006 << 80 | 7),
    "wakeups": lambda st, sc: st["wakeups"].__setitem__(0, 1005 << 32 | 95),
    "parked": lambda st, sc: st["parked"].__setitem__(0, 1007 << 32 | 93),
    "ready list": lambda st, sc: st["issuable"].clear(),
    "queued bursts": lambda st, sc: st["bursts"].append(105 << 32 | 1003),
    "current burst": lambda st, sc: sc.__setitem__("front_ready", 1003),
    "next fetch cycle": lambda st, sc: sc.__setitem__("nfc", 1004),
    "FU horizons": lambda st, sc: st["fu_busy"][0].__setitem__(0, 1004),
    "port horizons": lambda st, sc: st["pm_busy"].__setitem__(0, 1005),
    "committed row": lambda st, sc: sc.__setitem__("committed", 91),
    "dispatched row": lambda st, sc: sc.__setitem__("disp_idx", 97),
    "fetched row": lambda st, sc: sc.__setitem__("fetch_idx", 103),
}


def _key(change=None):
    """The key of a 30-row call at row 100 entered in :func:`_lane_state`
    (after ``change``), over all-zero rings."""
    state, scalars = _lane_state()
    if change is not None:
        change(state, scalars)
    ls = SimpleNamespace(window=8, width=2, mem_try=None, mem_hint=None)
    shared = SimpleNamespace(addr=[], nbytes=[], stride=[], mask=255, n=999,
                             call_edges=lambda skeleton: [])
    memo = _CallMemo(ls, shared, tuple(state.values()),
                     tuple([0] * 256 for _ in range(10)), [], [])
    return memo.key(100, 130, "skeleton", 1000, *scalars.values())


@pytest.mark.parametrize("component", sorted(STATE_CHANGES))
def test_every_state_component_is_in_the_key(component):
    """The key holds the whole lane state, parts the rest of the key
    implies included (DESIGN.md section 1.5): a change to any one of
    them changes the key."""
    assert _key(STATE_CHANGES[component]) != _key()


def test_memo_counters_are_meta_only():
    """The counters ride in ``meta``, which no digest or equality reads."""
    trace = build_trace("alpha", seed=2, calls=8)
    core = _core("alpha", 2, "perfect", {})
    result = core.run(trace)
    assert set(result.meta["memo"]) == {"hits", "rows", "fallbacks",
                                        "paths"}
    assert result == _core("alpha", 2, "perfect", {}).run_reference(trace)


def test_a_repeated_entry_and_answers_reach_the_recorded_exit(monkeypatch):
    """The exactness argument itself, checked call by call: with every
    call stepped and recorded (none replayed), a call whose key and
    memory answers repeat an earlier call's reaches the same exit state
    and counter deltas.  Unlike a result comparison this sees a key that
    misses a state component even where the end result happens to
    agree."""
    exits = {}
    repeats = []

    def enter(self, key, first, end, cycle):
        return _Recording(self, key, first, end, cycle, (), ())

    def finish(self, rec, snap, deltas):
        lane = exits.setdefault(self, {})      # a memo is one lane's
        path = (rec.key, tuple(rec.calls), tuple(rec.answers))
        done = (tuple(snap), deltas)
        if path in lane:
            assert lane[path] == done
            repeats.append(path)
        lane[path] = done

    monkeypatch.setattr(_CallMemo, "enter", enter)
    monkeypatch.setattr(_CallMemo, "finish", finish)
    for isa in ("alpha", "mom"):
        for way in WAYS:
            trace = build_trace(isa, seed=40 + way, calls=96)
            lanes = [(way, memory, dict(accounting=True))
                     for memory in MEMORIES[isa]]
            results = BatchCore([_core(isa, *lane) for lane in lanes]).run(
                trace)
            for lane, result in zip(lanes, results):
                assert result_digest(result) == result_digest(
                    _core(isa, *lane).run_reference(trace)), lane
    assert len(repeats) > 500
