"""Trace-driven out-of-order superscalar core.

Models the paper's R10000-like machine (Section 3.2): per-cycle fetch
bounded by the issue width and by taken branches, a bimodal predictor and
BTB, register renaming over four pools with finite physical registers, a
reorder buffer, a load/store queue, fully-pipelined functional units (with
multi-lane media units for MOM) and out-of-order issue with oldest-first
priority.  Instruction *semantics* were already executed by the emulation
library; the core consumes :class:`~repro.emulib.trace.DynInstr` records and
charges time, exactly like the ATOM + Jinks arrangement of the paper.

Two engines implement the same machine:

* :meth:`Core.run` -- the production **event-driven scheduler**.  Instead of
  rescanning the whole reorder buffer every cycle it keeps per-producer
  wakeup lists (an instruction is re-examined only when a dependence
  completes), an oldest-first ready queue, structural-stall horizons from
  :meth:`~repro.cpu.funit.FuPool.next_free` and the memory models'
  ``earliest_issue`` hints, and *cycle skipping*: when no commit, wakeup,
  issue retry, dispatch or fetch can happen, the clock jumps straight to
  the next event horizon.  See DESIGN.md section 1.5.
* :meth:`Core.run_reference` -- the original per-cycle busy-wait loop,
  retained verbatim as the differential oracle.  Both engines are
  bit-identical in every :class:`SimResult` field; the golden-digest test
  pins that equivalence over a mini-grid captured from the seed core.

Simplifications (documented in DESIGN.md): mispredicted branches stall fetch
until the branch resolves (wrong-path fetch is not simulated -- standard for
trace-driven models), and memory disambiguation is optimistic (kernels
carry their memory dependences through registers).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, fields
from time import perf_counter as _perf_counter

from ..emulib.trace import DynInstr, TimingRecord, Trace, reg_pool
from ..isa.model import InstrClass, RegPool
from .bpred import BimodalPredictor, BranchTargetBuffer
from .config import MachineConfig
from .funit import FuPool, fu_family, needs_complex_unit

#: Sentinel blocking fetch until a mispredicted branch resolves.
_FAR_FUTURE = 1 << 60

#: "No pending event" sentinel for the event scheduler's horizon search.
_NO_EVENT = 1 << 62


class _Entry:
    """One in-flight instruction in the reorder buffer (reference core)."""

    __slots__ = ("instr", "deps", "completion", "chain_ready", "issued",
                 "fetch_cycle", "dispatch_cycle", "mispredicted")

    def __init__(self, instr: DynInstr, fetch_cycle: int) -> None:
        self.instr = instr
        self.deps: list[_Entry] = []
        self.completion: int | None = None
        #: When a *chaining* consumer (another vector operation) may start:
        #: the producer's first element result is available while the rest
        #: still streams -- classic vector chaining.
        self.chain_ready: int | None = None
        self.issued = False
        self.fetch_cycle = fetch_cycle
        self.mispredicted = False


class _EventEntry:
    """One in-flight instruction in the event-driven scheduler.

    Beyond the reference entry's fields it carries the wakeup machinery:
    ``waiters`` (consumers to re-examine when this producer issues),
    ``pending_deps`` (producers this entry still waits on) and ``seq``
    (dispatch order, which is ROB order -- the ready queue's priority).
    """

    __slots__ = ("rec", "deps", "waiters", "pending_deps", "seq",
                 "completion", "chain_ready", "issued", "fetch_cycle",
                 "dispatch_cycle", "mispredicted")

    def __init__(self, rec, fetch_cycle: int) -> None:
        self.rec = rec
        self.deps: list[_EventEntry] = []
        self.waiters: list[_EventEntry] = []
        self.completion: int | None = None
        self.chain_ready: int | None = None
        self.issued = False
        self.fetch_cycle = fetch_cycle
        self.mispredicted = False
        # seq, dispatch_cycle and pending_deps are assigned at dispatch.


#: CPI-stack components, in display order.  With cycle accounting enabled
#: every simulated cycle lands in exactly one of these buckets (the
#: one-cycle-one-bucket rule; see DESIGN.md section 9):
#:
#: * ``base`` -- committing at full width, or the head is making normal
#:   single-cycle progress (includes issued compute latency).
#: * ``fetch`` -- the instruction window is empty because the front end
#:   has not delivered (I-window fill, taken-branch bubbles, misprediction
#:   redirect).
#: * ``rename`` -- dispatch blocked on window admission: physical-register
#:   headroom or a full load/store queue.
#: * ``fu_structural`` -- the window head is ready but no functional unit
#:   of its class is free.
#: * ``mem_conflict`` -- the head is a memory operation that cannot issue
#:   (port/bank conflict, MSHR or bus occupancy in the cache models).
#: * ``mem_latency`` -- the head is an issued memory operation still
#:   waiting on the hierarchy (miss latency, element streaming).
#: * ``drain`` -- the trace is exhausted and the pipeline is emptying.
STACK_COMPONENTS = ("base", "fetch", "rename", "fu_structural",
                    "mem_conflict", "mem_latency", "drain")


@dataclass
class TimingStats:
    """A CPI stack: simulated cycles attributed to exactly one component.

    Produced by the timing engines when ``accounting=`` is on; conservation
    (``total() == SimResult.cycles``) is asserted at construction via
    :func:`checked_stack`.  ``legacy`` marks an instance rebuilt from a
    pre-1.7 result dict that carried no stack fields (all zero); it is
    excluded from equality so legacy round-trips stay comparable.
    """

    base: int = 0
    fetch: int = 0
    rename: int = 0
    fu_structural: int = 0
    mem_conflict: int = 0
    mem_latency: int = 0
    drain: int = 0
    legacy: bool = field(default=False, compare=False)

    def total(self) -> int:
        return (self.base + self.fetch + self.rename + self.fu_structural
                + self.mem_conflict + self.mem_latency + self.drain)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in STACK_COMPONENTS}

    @classmethod
    def from_dict(cls, data: dict) -> "TimingStats":
        """Tolerant inverse of :meth:`to_dict`.

        Components missing from ``data`` (a result written before the
        component existed) default to zero and flag the instance as
        ``legacy`` instead of raising, so old cached/served results stay
        loadable forever.
        """
        stack = cls(**{name: int(data.get(name, 0))
                       for name in STACK_COMPONENTS})
        stack.legacy = any(name not in data for name in STACK_COMPONENTS)
        return stack


def checked_stack(cycles: int, stack: TimingStats) -> TimingStats:
    """Enforce the conservation invariant ``cycles == sum(stack)``."""
    total = stack.total()
    if total != cycles:
        raise AssertionError(
            f"CPI-stack conservation violated: {total} cycles attributed "
            f"vs {cycles} simulated ({stack.to_dict()})")
    return stack


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    cycles: int
    instructions: int
    operations: int
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0
    fetch_stall_cycles: int = 0
    rename_stall_events: int = 0
    mem_stats: dict = field(default_factory=dict)
    #: CPI stack (cycle accounting); ``None`` unless the run was made with
    #: ``accounting=`` on.  Serialized as ``cpi_stack`` -- and only when
    #: present, so accounting-off results stay bit-identical to pre-1.7.
    stack: TimingStats | None = None
    #: Non-deterministic run metadata (wall-clock timing and the like);
    #: excluded from equality so simulation results stay comparable across
    #: hosts, cache hits and parallel execution paths.
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def opc(self) -> float:
        """Operations (lane-level work items) per cycle."""
        return self.operations / self.cycles if self.cycles else 0.0

    def to_dict(self) -> dict:
        """Plain-data image for the persistent result cache (JSON-safe)."""
        data = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "operations": self.operations,
            "branch_lookups": self.branch_lookups,
            "branch_mispredicts": self.branch_mispredicts,
            "btb_misses": self.btb_misses,
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "rename_stall_events": self.rename_stall_events,
            "mem_stats": dict(self.mem_stats),
            "meta": dict(self.meta),
        }
        if self.stack is not None:
            data["cpi_stack"] = self.stack.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimResult":
        """Inverse of :meth:`to_dict`; round-trips to an equal instance.

        Unknown keys are ignored rather than raised on, so persistent-cache
        entries written by a newer schema degrade gracefully instead of
        breaking older readers; pre-1.7 dicts (no ``cpi_stack``) load with
        ``stack=None``, and partial stacks load default-zero via the
        tolerant :meth:`TimingStats.from_dict`.
        """
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items()
                  if k in known and k != "stack"}
        stack = data.get("cpi_stack")
        if stack is not None:
            kwargs["stack"] = TimingStats.from_dict(stack)
        return cls(**kwargs)


class Core:
    """The cycle-level engine.

    Args:
        config: a Table 1 machine configuration.
        memsys: any object with ``try_issue(instr, cycle) -> int | None``
            (perfect model or a full cache hierarchy).  A memory model may
            additionally export ``earliest_issue(instr, cycle) -> int``, a
            retry horizon the event scheduler uses to skip guaranteed-futile
            reattempts (see :mod:`repro.memsys.cache` for the contract).
    """

    #: Extra cycles between a mispredicted branch resolving and useful
    #: instructions re-entering the pipeline (redirect + refill).
    MISPREDICT_REDIRECT = 1

    #: Pools whose physical registers release at *writeback* rather than
    #: commit.  The media and accumulator files are the banked structures
    #: of Section 3.2 (the paper cites DeVries & Lee and Asanovic's banked
    #: vector register files); with only 20 physical matrix registers for
    #: 16 logical ones, Table 2's sizing is only sufficient under this
    #: eager-reclamation discipline.
    LATE_RELEASE_POOLS = frozenset({RegPool.MED, RegPool.ACC})

    #: Traces at or above this many instructions stream their
    #: :class:`TimingRecord`\ s straight from the columnar chunks instead
    #: of materializing (and caching) the full record list -- the
    #: frame-scale path.  Below it, the cached list is kept so the
    #: experiment grid's reuse of one trace across many configurations
    #: classifies each instruction once.
    STREAM_THRESHOLD = 1 << 20

    #: Zeroing idioms rename to a hard-wired zero value and allocate no
    #: physical register -- standard renamer practice; essential for the
    #: accumulator pool, whose clear-accumulate-read pattern would
    #: otherwise burn two of its four physical registers per chain.
    ZERO_IDIOMS = frozenset({"clracc", "momzero"})

    def __init__(self, config: MachineConfig, memsys, *,
                 acc_chaining: bool = True, late_release: bool = True,
                 zero_idiom_elision: bool = True,
                 accounting: bool = False) -> None:
        """Args beyond config/memsys are ablation knobs (benchmarks):

        acc_chaining: pipeline partial accumulations inside matrix
            accumulate instructions (Section 2.1); off = MDMX-style
            recurrence for MOM too.
        late_release: banked media/accumulator files release physical
            registers at writeback instead of commit.
        zero_idiom_elision: ``clracc``/``momzero`` allocate no register.
        accounting: attribute every simulated cycle to one CPI-stack
            component (``result.stack``); off by default so results and
            speed are untouched.
        """
        self.config = config
        self.memsys = memsys
        self.accounting = accounting
        self.acc_chaining = acc_chaining
        self.late_release_pools = (self.LATE_RELEASE_POOLS if late_release
                                   else frozenset())
        self.zero_idioms = (self.ZERO_IDIOMS if zero_idiom_elision
                            else frozenset())
        self._reset_frontend()

    def _reset_frontend(self) -> None:
        """Rebuild the run-scoped microarchitectural state.

        Called at the top of every :meth:`run` / :meth:`run_reference` so
        a reused ``Core`` instance starts each run with cold predictor
        tables and idle functional units, exactly like a fresh one --
        predictor counters, BTB tags and FU busy horizons would otherwise
        leak from the previous trace and silently skew the second run.
        (The memory system is caller-owned and deliberately *not* reset.)
        """
        config = self.config
        self.bpred = BimodalPredictor(config.bimodal_entries)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.pools = {
            "int": FuPool(config.int_units),
            "fp": FuPool(config.fp_units),
            "med": FuPool(config.med_units, lanes=config.med_lanes),
        }
        #: computation classes -> (functional-unit pool, needs complex unit).
        self._route = {
            InstrClass.INT_SIMPLE: (self.pools["int"], False),
            InstrClass.INT_COMPLEX: (self.pools["int"], True),
            InstrClass.FP_SIMPLE: (self.pools["fp"], False),
            InstrClass.FP_COMPLEX: (self.pools["fp"], True),
            InstrClass.MED_SIMPLE: (self.pools["med"], False),
            InstrClass.MED_COMPLEX: (self.pools["med"], True),
        }
        # Re-resolved here (not just in __init__) so a caller that swaps
        # in a fresh memory system between runs gets a matching hint.
        self._mem_hint = getattr(self.memsys, "earliest_issue", None)

    # --- public API --------------------------------------------------------------

    def run(self, trace: Trace, *, jit: bool | None = None,
            phases: dict | None = None) -> SimResult:
        """Simulate a full trace to completion and return statistics.

        Event-driven: per-producer wakeup lists re-examine only the
        instructions whose dependences just completed, structurally
        stalled instructions park until their resource's next-free
        horizon, and the clock jumps over cycles in which nothing can
        happen.  Bit-identical to :meth:`run_reference` in every result
        field -- including stall counters and memory-model statistics,
        whose retry cadence the scheduler reproduces exactly.

        Args:
            jit: ``True``/``False`` forces the compiled fast path on or
                off; ``None`` (default) uses it when available unless
                ``REPRO_NO_JIT=1``.  Points the kernel cannot express
                fall back to this interpreted loop automatically;
                ``result.meta["jit"]`` records which path ran.
            phases: optional dict the run *adds* decode/step/writeback
                wall-clock seconds into.  Timed only at natural block
                boundaries — record-source setup, the scheduler loop,
                result assembly — so the guard costs a handful of
                ``perf_counter`` calls per run, never one per record.
                On the streaming record source decode interleaves with
                stepping and is accounted under ``step``.
        """
        self._reset_frontend()
        from .jit import jit_enabled
        use_jit = jit_enabled() if jit is None else bool(jit)
        if use_jit:
            result = self._run_jit(trace, phases=phases)
            if result is not None:
                return result
        cfg = self.config
        width = cfg.width
        n = len(trace)
        # Record source: the experiment grid simulates one (small) trace
        # under many machine configurations, so the cached record list
        # amortizes classification across runs.  Frame-scale traces are
        # simulated once each and never fit comfortably as object records;
        # they stream TimingRecords chunk by chunk instead, keeping peak
        # memory at the columnar store plus one in-flight window (fetch
        # consumes records strictly in program order, exactly once).
        _t = _perf_counter()
        if trace.records_cached() or n < self.STREAM_THRESHOLD:
            next_record = iter(trace.timing_records()).__next__
        else:
            next_record = trace.iter_timing_records().__next__
        if phases is not None:
            phases["decode"] = phases.get("decode", 0.0) + _perf_counter() - _t
        _t = _perf_counter()

        rob: deque[_EventEntry] = deque()     # program order; head leftmost
        fetch_queue: deque[_EventEntry] = deque()
        last_writer: dict[int, _EventEntry] = {}
        inflight_dsts = [0] * len(RegPool)    # RegPool is an IntEnum index
        phys_limit = [cfg.phys_limit(pool) for pool in RegPool]
        lsq_used = 0

        releases: list[tuple[int, RegPool, int]] = []  # (completion, pool, rows)

        fetch_idx = 0
        cycle = 0
        committed = 0
        next_fetch_cycle = 0
        fetch_stall_cycles = 0
        rename_stalls = 0
        fetch_queue_cap = 2 * width
        seq = 0

        # CPI-stack accumulators (see STACK_COMPONENTS); only touched when
        # accounting is on, so the default path pays one flag test per
        # cycle plus the admission_blocked reset.
        accounting = self.accounting
        st_base = st_fetch = st_rename = st_fu = 0
        st_memc = st_meml = st_drain = 0

        #: (ready_cycle, seq, entry): all dependences issued, waiting for
        #: their results; promoted to `issuable` when ready_cycle arrives.
        wakeups: list[tuple[int, int, _EventEntry]] = []
        #: entries that become ready exactly next cycle -- the overwhelmingly
        #: common case, kept off the heap (the fast path guarantees the next
        #: active cycle is `cycle + 1` while this list is non-empty).
        wakeups_next: list[_EventEntry] = []
        #: (seq, entry): ready now -- examined oldest-first each cycle.
        issuable: list[tuple[int, _EventEntry]] = []
        #: (retry_cycle, seq, entry): ready but structurally stalled;
        #: sleeping until the resource's earliest possible free cycle.
        parked: list[tuple[int, int, _EventEntry]] = []

        # Hot-loop locals (the scheduler's inner loop is the hottest path in
        # the whole package; attribute loads in it are measurable).
        heappush = heapq.heappush
        heappop = heapq.heappop
        zero_idioms = self.zero_idioms
        late_release_pools = self.late_release_pools
        acc_chaining = self.acc_chaining
        route = self._route
        mem_try_issue = self.memsys.try_issue
        int_try_issue = self.pools["int"].try_issue
        predict_and_update = self.bpred.predict_and_update
        btb_lookup_insert = self.btb.lookup_insert
        rename_ok = self._rename_ok_rec
        rob_size = cfg.rob_size
        lsq_size = cfg.lsq_size
        front_latency = cfg.front_latency
        redirect = self.MISPREDICT_REDIRECT
        KIND_COMPUTE = TimingRecord.KIND_COMPUTE
        KIND_MEMORY = TimingRecord.KIND_MEMORY
        KIND_CONTROL = TimingRecord.KIND_CONTROL

        while committed < n:
            cycle += 1

            # --- release late-freed physical registers (backlog included) -------
            while releases and releases[0][0] <= cycle:
                _done, pool, charge = heappop(releases)
                inflight_dsts[pool] -= charge

            # --- commit: retire completed instructions in order ----------------
            commits = 0
            while rob and commits < width:
                head = rob[0]
                if head.completion is None or head.completion > cycle:
                    break
                rob.popleft()
                rec = head.rec
                head_zero = rec.op_name in zero_idioms
                for dst, pool, charge in rec.dsts:
                    if pool not in late_release_pools and not head_zero:
                        inflight_dsts[pool] -= charge
                    if last_writer.get(dst) is head:
                        del last_writer[dst]
                if rec.is_memory:
                    lsq_used -= 1
                committed += 1
                commits += 1
            if committed >= n:
                # Final cycle: the window and fetch stream are empty.  A
                # full-width commit is base work; anything narrower is the
                # pipeline draining (identical to the per-cycle rules the
                # reference loop applies on its way out).
                if accounting:
                    if commits == width:
                        st_base += 1
                    else:
                        st_drain += 1
                break       # the remaining phases are vacuously empty

            # --- wake: promote entries whose readiness/retry horizon arrived ----
            if wakeups_next:
                for entry in wakeups_next:
                    heappush(issuable, (entry.seq, entry))
                wakeups_next.clear()
            while wakeups and wakeups[0][0] <= cycle:
                _ready, s, entry = heappop(wakeups)
                heappush(issuable, (s, entry))
            while parked and parked[0][0] <= cycle:
                _retry, s, entry = heappop(parked)
                heappush(issuable, (s, entry))

            # --- issue: oldest-first among ready entries, `width` per cycle -----
            issued = 0
            next_cycle = cycle + 1
            while issuable and issued < width:
                s, entry = heappop(issuable)
                rec = entry.rec
                kind = rec.kind
                if kind == KIND_COMPUTE:
                    latency = 1 if (acc_chaining and rec.acc_chain_eligible) \
                        else rec.latency
                    pool, needs_complex = route[rec.iclass]
                    completion = pool.try_issue(
                        needs_complex, cycle, rec.exec_rows, rec.op_name,
                        latency)
                elif kind == KIND_MEMORY:
                    completion = mem_try_issue(rec.instr, cycle)
                elif kind == KIND_CONTROL:
                    # Branches resolve on a simple integer pipe.
                    completion = int_try_issue(False, cycle, 1, rec.op_name, 1)
                else:
                    completion = next_cycle
                if completion is None:
                    # Structural hazard; younger ops may go.  Park until the
                    # resource's earliest-free horizon (retries the seed core
                    # would have made in between are guaranteed futile and
                    # side-effect free -- see _retry_cycle).
                    heappush(parked, (self._retry_cycle(entry, cycle), s,
                                      entry))
                    continue
                entry.issued = True
                entry.completion = completion
                # First-element availability for chaining consumers (see
                # _chain_ready on the reference engine).
                if rec.vl <= 1:
                    entry.chain_ready = completion
                elif rec.is_memory:
                    early = completion - rec.vl + 1
                    entry.chain_ready = early if early > next_cycle \
                        else next_cycle
                elif rec.writes_acc:
                    entry.chain_ready = completion
                else:
                    first = cycle + rec.latency
                    entry.chain_ready = completion if completion < first \
                        else first
                issued += 1
                if rec.op_name not in zero_idioms:
                    for _dst, pool, charge in rec.dsts:
                        if pool in late_release_pools:
                            heappush(releases, (completion, pool, charge))
                if entry.mispredicted:
                    # Redirect fetch once the branch resolves.
                    next_fetch_cycle = completion + redirect
                waiters = entry.waiters
                if waiters:
                    for waiter in waiters:
                        pending = waiter.pending_deps - 1
                        waiter.pending_deps = pending
                        if pending == 0:
                            # All producers issued: earliest issue cycle is
                            # the latest dependence availability (chain time
                            # for chaining vector consumers) but never before
                            # the cycle after dispatch.
                            ready = waiter.dispatch_cycle + 1
                            chaining = waiter.rec.chains
                            for dep in waiter.deps:
                                avail = dep.chain_ready if chaining \
                                    else dep.completion
                                if avail > ready:
                                    ready = avail
                            if ready == next_cycle:
                                wakeups_next.append(waiter)
                            elif ready <= cycle:
                                heappush(issuable, (waiter.seq, waiter))
                            else:
                                heappush(wakeups, (ready, waiter.seq, waiter))
                    entry.waiters = []

            # --- dispatch: fetch queue -> ROB (rename + allocate) ---------------
            dispatched = 0
            admission_blocked = False
            while (fetch_queue and dispatched < width
                   and len(rob) < rob_size):
                entry = fetch_queue[0]
                rec = entry.rec
                if entry.fetch_cycle + front_latency > cycle:
                    break
                if rec.is_memory and lsq_used >= lsq_size:
                    admission_blocked = True
                    break
                zero_idiom = rec.op_name in zero_idioms
                if not zero_idiom:
                    # Physical-register headroom for every destination pool
                    # (inline _rename_ok_rec; this runs once per instruction).
                    blocked = False
                    for _dst, pool, charge in rec.dsts:
                        if inflight_dsts[pool] + charge - 1 >= phys_limit[pool]:
                            blocked = True
                            break
                    if blocked:
                        rename_stalls += 1
                        admission_blocked = True
                        break
                fetch_queue.popleft()
                pending = 0
                for src in rec.srcs:
                    producer = last_writer.get(src)
                    if producer is not None:
                        entry.deps.append(producer)
                        if not producer.issued:
                            producer.waiters.append(entry)
                            pending += 1
                for dst, pool, charge in rec.dsts:
                    if not zero_idiom:
                        inflight_dsts[pool] += charge
                    last_writer[dst] = entry
                if rec.is_memory:
                    lsq_used += 1
                entry.seq = seq
                entry.dispatch_cycle = cycle
                seq += 1
                rob.append(entry)
                dispatched += 1
                entry.pending_deps = pending
                if pending == 0:
                    ready = next_cycle
                    chaining = rec.chains
                    for dep in entry.deps:
                        avail = dep.chain_ready if chaining \
                            else dep.completion
                        if avail > ready:
                            ready = avail
                    if ready == next_cycle:
                        wakeups_next.append(entry)
                    else:
                        heappush(wakeups, (ready, entry.seq, entry))

            # --- fetch: up to `width`, stopping at taken branches ---------------
            if fetch_idx < n and cycle >= next_fetch_cycle:
                fetched = 0
                while (fetch_idx < n and fetched < width
                       and len(fetch_queue) < fetch_queue_cap):
                    rec = next_record()
                    entry = _EventEntry(rec, cycle)
                    fetch_queue.append(entry)
                    fetch_idx += 1
                    fetched += 1
                    if rec.is_branch:
                        prediction = predict_and_update(
                            rec.site, bool(rec.taken)
                        )
                        if prediction != rec.taken:
                            # Fetch blocks until the branch resolves at
                            # issue, which rewrites next_fetch_cycle.
                            entry.mispredicted = True
                            next_fetch_cycle = _FAR_FUTURE
                            break
                        if rec.taken:
                            hit = btb_lookup_insert(rec.site)
                            next_fetch_cycle = cycle + (1 if hit else 2)
                            break
                    elif rec.is_jump:
                        hit = btb_lookup_insert(rec.site)
                        next_fetch_cycle = cycle + (1 if hit else 2)
                        break
            elif fetch_idx < n:
                fetch_stall_cycles += 1

            # --- account: attribute this cycle to exactly one stack bucket ------
            # End-of-cycle classification, first-match-wins (DESIGN.md §9):
            # full-width commit > head memory latency > head memory conflict
            # > window admission > FU structural > base > drain > fetch.
            if accounting:
                if commits == width:
                    st_base += 1
                elif rob:
                    head = rob[0]
                    if head.completion is not None:
                        if head.rec.is_memory and head.completion > cycle + 1:
                            st_meml += 1
                        elif admission_blocked:
                            st_rename += 1
                        else:
                            st_base += 1
                    elif head.dispatch_cycle < cycle:
                        if head.rec.is_memory:
                            st_memc += 1
                        elif admission_blocked:
                            st_rename += 1
                        else:
                            st_fu += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_base += 1
                elif fetch_idx >= n:
                    st_drain += 1
                else:
                    st_fetch += 1

            # --- horizon: first future cycle at which anything can happen -------
            # Fast path: leftover ready entries (width cutoff) or wakeups due
            # next cycle mean the next cycle is active; nothing to account.
            if issuable or wakeups_next:
                continue
            nxt = _NO_EVENT
            if rob:
                head = rob[0]
                if head.completion is not None:
                    nxt = head.completion if head.completion > cycle \
                        else next_cycle
            if parked and parked[0][0] < nxt:
                nxt = parked[0][0]
            if wakeups:
                ready = wakeups[0][0]
                if ready <= cycle:
                    ready = next_cycle
                if ready < nxt:
                    nxt = ready
            rename_blocked = False
            lsq_blocked = False
            if fetch_queue and len(rob) < rob_size:
                head = fetch_queue[0]
                front_ready = head.fetch_cycle + front_latency
                if front_ready > cycle:
                    if front_ready < nxt:
                        nxt = front_ready
                elif head.rec.is_memory and lsq_used >= lsq_size:
                    lsq_blocked = True  # a commit frees the LSQ; commits are events
                elif not rename_ok(head.rec, inflight_dsts, phys_limit):
                    # Dispatch resumes at a register release or a commit;
                    # skipped cycles still count as rename-stall events.
                    rename_blocked = True
                    if releases and releases[0][0] < nxt:
                        nxt = releases[0][0]
                elif next_cycle < nxt:
                    nxt = next_cycle
            if (fetch_idx < n and len(fetch_queue) < fetch_queue_cap
                    and next_fetch_cycle != _FAR_FUTURE):
                fetch_at = next_fetch_cycle if next_fetch_cycle > cycle \
                    else next_cycle
                if fetch_at < nxt:
                    nxt = fetch_at
            if nxt >= _NO_EVENT:
                raise RuntimeError(
                    "event scheduler deadlocked with no pending event "
                    f"(cycle {cycle}, {committed}/{n} committed)")

            # --- cycle skip: account the stall counters the seed loop would
            # have incremented while busy-waiting through the skipped span.
            skipped = nxt - next_cycle
            if skipped > 0:
                if fetch_idx < n and next_fetch_cycle > next_cycle:
                    fetch_stall_cycles += (min(nxt, next_fetch_cycle)
                                           - next_cycle)
                if rename_blocked:
                    rename_stalls += skipped
                if accounting:
                    # The skipped span replays the per-cycle rules against
                    # frozen state: no commits, no releases, no dispatch and
                    # no fetch can occur before `nxt`, so every span cycle
                    # classifies identically -- except the last one when the
                    # head's memory completion lands exactly on `nxt`, where
                    # the latency rule (completion > t+1) no longer holds.
                    adm = rename_blocked or lsq_blocked
                    if rob:
                        head = rob[0]
                        if head.completion is not None:
                            if head.rec.is_memory:
                                st_meml += skipped
                                if head.completion == nxt:
                                    st_meml -= 1
                                    if adm:
                                        st_rename += 1
                                    else:
                                        st_base += 1
                            elif adm:
                                st_rename += skipped
                            else:
                                st_base += skipped
                        elif head.rec.is_memory:
                            st_memc += skipped
                        elif adm:
                            st_rename += skipped
                        else:
                            st_fu += skipped
                    elif fetch_idx >= n:
                        st_drain += skipped
                    else:
                        st_fetch += skipped
                cycle = nxt - 1     # the loop header re-increments

        if phases is not None:
            phases["step"] = phases.get("step", 0.0) + _perf_counter() - _t
        _t = _perf_counter()
        result = SimResult(
            cycles=cycle,
            instructions=n,
            operations=trace.operation_count(),
            branch_lookups=self.bpred.lookups,
            branch_mispredicts=self.bpred.mispredicts,
            btb_misses=self.btb.misses,
            fetch_stall_cycles=fetch_stall_cycles,
            rename_stall_events=rename_stalls,
            mem_stats=self.memsys.stats() if hasattr(self.memsys, "stats") else {},
        )
        if accounting:
            result.stack = checked_stack(cycle, TimingStats(
                base=st_base, fetch=st_fetch, rename=st_rename,
                fu_structural=st_fu, mem_conflict=st_memc,
                mem_latency=st_meml, drain=st_drain))
            if hasattr(self.memsys, "accounting_stats"):
                result.meta["mem_accounting"] = self.memsys.accounting_stats()
        result.meta["jit"] = False
        if phases is not None:
            phases["writeback"] = (phases.get("writeback", 0.0)
                                   + _perf_counter() - _t)
        return result

    def _run_jit(self, trace: Trace,
                 phases: dict | None = None) -> SimResult | None:
        """Attempt the compiled fast path; ``None`` means fall back.

        The jit kernel consumes the same shared-decode rings as
        :class:`~repro.cpu.batch.BatchCore` and is bit-identical to this
        method's interpreted loop on every result field.  Inexpressible
        points (non-perfect memory, numba missing, in-kernel capacity
        limits) return ``None`` without mutating caller-visible state.
        """
        from .jit import (UnjittableError, jit_available,
                          lane_unjittable_reason, run_lanes_jit)
        if not jit_available() or len(trace) == 0:
            return None
        from .batch import LaneSpec
        spec = LaneSpec(self.config, self.memsys,
                        acc_chaining=self.acc_chaining,
                        late_release=bool(self.late_release_pools),
                        zero_idiom_elision=bool(self.zero_idioms),
                        accounting=self.accounting)
        if lane_unjittable_reason(spec) is not None:
            return None
        # Phase timings go to a local dict first: an UnjittableError
        # mid-run must not leave partial jit timings in the caller's
        # view of the interpreted re-run.
        jit_phases: dict | None = {} if phases is not None else None
        try:
            (stats,) = run_lanes_jit([spec], trace, phases=jit_phases)
        except UnjittableError:
            return None
        ctl = stats["ctl"]
        result = SimResult(
            cycles=stats["cycles"],
            instructions=len(trace),
            operations=trace.operation_count(),
            branch_lookups=ctl.lookups,
            branch_mispredicts=ctl.mispredicts,
            btb_misses=ctl.btb_misses,
            fetch_stall_cycles=stats["fetch_stalls"],
            rename_stall_events=stats["rename_stalls"],
            mem_stats=self.memsys.stats() if hasattr(self.memsys, "stats")
            else {},
        )
        if self.accounting:
            result.stack = checked_stack(
                stats["cycles"], TimingStats(**stats["stack"]))
            if hasattr(self.memsys, "accounting_stats"):
                result.meta["mem_accounting"] = self.memsys.accounting_stats()
        result.meta["jit"] = True
        if phases is not None:
            for key, dt in jit_phases.items():
                phases[key] = phases.get(key, 0.0) + dt
        return result

    def run_reference(self, trace: Trace) -> SimResult:
        """The seed per-cycle busy-wait engine, kept as the timing oracle.

        Rescans the whole ROB every cycle and retries every stalled
        instruction cycle-by-cycle.  Slow, but trivially correct; the
        golden-digest and differential tests pin :meth:`run` against it.
        """
        self._reset_frontend()
        cfg = self.config
        width = cfg.width
        rob: list[_Entry] = []          # in program order; head at index 0
        fetch_queue: list[_Entry] = []
        last_writer: dict[int, _Entry] = {}
        inflight_dsts = {pool: 0 for pool in RegPool}
        phys_limit = {pool: cfg.phys_limit(pool) for pool in RegPool}
        lsq_used = 0

        releases: list[tuple[int, RegPool, int]] = []  # (completion, pool, rows)

        instrs = trace.instructions
        n = len(instrs)
        fetch_idx = 0
        cycle = 0
        committed = 0
        next_fetch_cycle = 0
        fetch_stall_cycles = 0
        rename_stalls = 0
        fetch_queue_cap = 2 * width

        accounting = self.accounting
        st_base = st_fetch = st_rename = st_fu = 0
        st_memc = st_meml = st_drain = 0

        while committed < n:
            cycle += 1

            # --- release late-freed physical registers --------------------------
            while releases and releases[0][0] <= cycle:
                _done, pool, charge = heapq.heappop(releases)
                inflight_dsts[pool] -= charge

            # --- commit: retire completed instructions in order ----------------
            commits = 0
            while rob and commits < width:
                head = rob[0]
                if head.completion is None or head.completion > cycle:
                    break
                rob.pop(0)
                head_zero = head.instr.op.name in self.zero_idioms
                for dst in head.instr.dsts:
                    pool = reg_pool(dst)
                    if pool not in self.late_release_pools and not head_zero:
                        inflight_dsts[pool] -= self._charge(head.instr, dst)
                    if last_writer.get(dst) is head:
                        del last_writer[dst]
                if head.instr.iclass.is_memory:
                    lsq_used -= 1
                committed += 1
                commits += 1

            # --- issue: oldest-first, up to `width` per cycle --------------------
            issued = 0
            for entry in rob:
                if issued >= width:
                    break
                if entry.issued:
                    continue
                if not self._deps_ready(entry, cycle, self._chains(entry)):
                    continue
                completion = self._execute(entry, cycle)
                if completion is None:
                    continue        # structural hazard; younger ops may go
                entry.issued = True
                entry.completion = completion
                entry.chain_ready = self._chain_ready(entry, cycle, completion)
                issued += 1
                if entry.instr.op.name not in self.zero_idioms:
                    for dst in entry.instr.dsts:
                        pool = reg_pool(dst)
                        if pool in self.late_release_pools:
                            charge = self._charge(entry.instr, dst)
                            heapq.heappush(releases, (completion, pool, charge))
                if entry.mispredicted:
                    # Redirect fetch once the branch resolves.
                    next_fetch_cycle = completion + self.MISPREDICT_REDIRECT

            # --- dispatch: fetch queue -> ROB (rename + allocate) ------------------
            dispatched = 0
            admission_blocked = False
            while (fetch_queue and dispatched < width and len(rob) < cfg.rob_size):
                entry = fetch_queue[0]
                if entry.fetch_cycle + cfg.front_latency > cycle:
                    break
                instr = entry.instr
                if instr.iclass.is_memory and lsq_used >= cfg.lsq_size:
                    admission_blocked = True
                    break
                if not self._rename_ok(instr, inflight_dsts, phys_limit):
                    rename_stalls += 1
                    admission_blocked = True
                    break
                fetch_queue.pop(0)
                zero_idiom = instr.op.name in self.zero_idioms
                for src in instr.srcs:
                    producer = last_writer.get(src)
                    if producer is not None:
                        entry.deps.append(producer)
                for dst in instr.dsts:
                    if not zero_idiom:
                        inflight_dsts[reg_pool(dst)] += self._charge(instr, dst)
                    last_writer[dst] = entry
                if instr.iclass.is_memory:
                    lsq_used += 1
                entry.dispatch_cycle = cycle
                rob.append(entry)
                dispatched += 1

            # --- fetch: up to `width`, stopping at taken branches -------------------
            if fetch_idx < n and cycle >= next_fetch_cycle:
                fetched = 0
                while (fetch_idx < n and fetched < width
                       and len(fetch_queue) < fetch_queue_cap):
                    instr = instrs[fetch_idx]
                    entry = _Entry(instr, cycle)
                    fetch_queue.append(entry)
                    fetch_idx += 1
                    fetched += 1
                    if instr.iclass == InstrClass.BRANCH:
                        prediction = self.bpred.predict_and_update(
                            instr.site, bool(instr.taken)
                        )
                        if prediction != instr.taken:
                            # Fetch blocks until the branch resolves at issue,
                            # which rewrites next_fetch_cycle.
                            entry.mispredicted = True
                            next_fetch_cycle = _FAR_FUTURE
                            break
                        if instr.taken:
                            hit = self.btb.lookup_insert(instr.site)
                            next_fetch_cycle = cycle + (1 if hit else 2)
                            break
                    elif instr.iclass == InstrClass.JUMP:
                        hit = self.btb.lookup_insert(instr.site)
                        next_fetch_cycle = cycle + (1 if hit else 2)
                        break
            elif fetch_idx < n:
                fetch_stall_cycles += 1

            # --- account: the same end-of-cycle rules as the event engine -------
            if accounting:
                if commits == width:
                    st_base += 1
                elif rob:
                    head = rob[0]
                    if head.completion is not None:
                        if (head.instr.iclass.is_memory
                                and head.completion > cycle + 1):
                            st_meml += 1
                        elif admission_blocked:
                            st_rename += 1
                        else:
                            st_base += 1
                    elif head.dispatch_cycle < cycle:
                        if head.instr.iclass.is_memory:
                            st_memc += 1
                        elif admission_blocked:
                            st_rename += 1
                        else:
                            st_fu += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_base += 1
                elif fetch_idx >= n:
                    st_drain += 1
                else:
                    st_fetch += 1

        result = SimResult(
            cycles=cycle,
            instructions=n,
            operations=trace.operation_count(),
            branch_lookups=self.bpred.lookups,
            branch_mispredicts=self.bpred.mispredicts,
            btb_misses=self.btb.misses,
            fetch_stall_cycles=fetch_stall_cycles,
            rename_stall_events=rename_stalls,
            mem_stats=self.memsys.stats() if hasattr(self.memsys, "stats") else {},
        )
        if accounting:
            result.stack = checked_stack(cycle, TimingStats(
                base=st_base, fetch=st_fetch, rename=st_rename,
                fu_structural=st_fu, mem_conflict=st_memc,
                mem_latency=st_meml, drain=st_drain))
            if hasattr(self.memsys, "accounting_stats"):
                result.meta["mem_accounting"] = self.memsys.accounting_stats()
        return result

    # --- event-scheduler helpers --------------------------------------------------

    def _retry_cycle(self, entry: _EventEntry, cycle: int) -> int:
        """Next cycle a structurally stalled entry must be re-attempted.

        Resources whose failures are side-effect free report how long they
        stay busy (:meth:`FuPool.next_free`, the memory models'
        ``earliest_issue``); everything else retries next cycle, exactly
        like the busy-wait loop.
        """
        rec = entry.rec
        if rec.is_memory:
            hint = self._mem_hint(rec.instr, cycle) if self._mem_hint \
                else cycle
        elif rec.is_branch or rec.is_jump:
            hint = self.pools["int"].next_free(False)
        elif rec.is_nop:
            hint = cycle        # a NOP never stalls; defensive only
        else:
            pool, needs_complex = self._route[rec.iclass]
            hint = pool.next_free(needs_complex)
        return hint if hint > cycle else cycle + 1

    def _rename_ok_rec(self, rec, inflight, limits) -> bool:
        """Record-based twin of :meth:`_rename_ok`."""
        if rec.op_name in self.zero_idioms:
            return True
        for _dst, pool, charge in rec.dsts:
            if inflight[pool] + charge - 1 >= limits[pool]:
                return False
        return True

    # --- reference-core helpers ---------------------------------------------------

    @staticmethod
    def _chains(entry: _Entry) -> bool:
        """Vector operations chain on their producers' element streams."""
        instr = entry.instr
        return instr.vl > 1 and (instr.iclass.is_media
                                 or instr.iclass.is_memory)

    @staticmethod
    def _deps_ready(entry: _Entry, cycle: int, chaining: bool) -> bool:
        for dep in entry.deps:
            if dep.completion is None:
                return False
            ready = dep.chain_ready if (chaining and dep.chain_ready
                                        is not None) else dep.completion
            if ready > cycle:
                return False
        return True

    @staticmethod
    def _chain_ready(entry: _Entry, cycle: int, completion: int) -> int:
        """First-element availability for chaining consumers.

        Vector computations deliver their first element after one latency;
        vector loads stream roughly one element per cycle ahead of their
        final completion.  Scalar results do not stream: chain time equals
        completion.
        """
        instr = entry.instr
        if instr.vl <= 1:
            return completion
        if instr.iclass.is_memory:
            return max(cycle + 1, completion - (instr.vl - 1))
        if instr.op.writes_acc:
            # Accumulator totals only exist once every row has drained.
            return completion
        return min(completion, cycle + instr.op.latency)

    @staticmethod
    def _charge(instr: DynInstr, dst: int) -> int:
        """Row slots a destination occupies (VL rows for matrix writes)."""
        if reg_pool(dst) == RegPool.MED:
            return max(1, instr.vl)
        return 1

    def _rename_ok(self, instr: DynInstr, inflight, limits) -> bool:
        """Check physical-register headroom for every destination pool."""
        if instr.op.name in self.zero_idioms:
            return True
        for dst in instr.dsts:
            pool = reg_pool(dst)
            if inflight[pool] + self._charge(instr, dst) - 1 >= limits[pool]:
                return False
        return True

    def _execute(self, entry: _Entry, cycle: int) -> int | None:
        """Acquire execution resources; return the completion cycle."""
        instr = entry.instr
        iclass = instr.iclass
        if iclass.is_memory:
            return self.memsys.try_issue(instr, cycle)
        if iclass == InstrClass.NOP:
            return cycle + 1
        if iclass in (InstrClass.BRANCH, InstrClass.JUMP):
            # Branches resolve on a simple integer pipe.
            return self.pools["int"].try_issue(False, cycle, 1, instr.op.name, 1)
        family = fu_family(iclass)
        pool = self.pools[family]
        rows = instr.vl if family == "med" else 1
        op = instr.op
        latency = op.latency
        if (self.acc_chaining and family == "med" and op.reads_acc
                and op.writes_acc and rows > 1):
            # Pipelined accumulation (Section 2.1): a matrix accumulate
            # keeps `latency` partial sums in flight and folds as it
            # streams, so a dependent accumulate can chain one cycle after
            # the rows drain -- unlike MDMX, whose scalar accumulator
            # recurrence pays the full latency per instruction.
            latency = 1
        return pool.try_issue(
            needs_complex_unit(iclass), cycle, rows, op.name, latency,
        )
