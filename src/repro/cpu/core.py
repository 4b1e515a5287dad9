"""Trace-driven out-of-order superscalar core.

Models the paper's R10000-like machine (Section 3.2): per-cycle fetch
bounded by the issue width and by taken branches, a bimodal predictor and
BTB, register renaming over four pools with finite physical registers, a
reorder buffer, a load/store queue, fully-pipelined functional units (with
multi-lane media units for MOM) and out-of-order issue with oldest-first
priority.  Instruction *semantics* were already executed by the emulation
library; the core consumes :class:`~repro.emulib.trace.DynInstr` records and
charges time, exactly like the ATOM + Jinks arrangement of the paper.

One timing engine plus one oracle implement the machine:

* :meth:`Core.run` -- the single-point entry to the production
  **event-driven scheduler**, which lives in :mod:`repro.cpu.batch` as
  the lane stepper of :class:`~repro.cpu.batch.BatchCore`.  A ``Core``
  *is* a batch lane (its configuration, memory system and knobs are
  what a lane reads), so ``Core.run`` runs the core as the one lane of
  a ``BatchCore``.  Instead of rescanning the whole reorder buffer
  every cycle the stepper keeps per-producer wakeup lists (an
  instruction is re-examined only when a dependence completes), an
  oldest-first ready list, structural-stall horizons from the functional
  units' busy horizons and the memory models' ``earliest_issue`` hints,
  and *cycle skipping*: when no commit, wakeup, issue retry, dispatch or
  fetch can happen, the clock jumps straight to the next event horizon.
  See DESIGN.md section 1.5.
* :meth:`Core.run_reference` -- the original per-cycle busy-wait loop,
  retained verbatim as the differential oracle.  Both are bit-identical
  in every :class:`SimResult` field; the golden-digest test pins that
  equivalence over a mini-grid captured from the seed core.

Simplifications (documented in DESIGN.md): mispredicted branches stall fetch
until the branch resolves (wrong-path fetch is not simulated -- standard for
trace-driven models), and memory disambiguation is optimistic (kernels
carry their memory dependences through registers).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields

from ..emulib.trace import DynInstr, Trace, reg_pool
from ..isa.model import InstrClass, RegPool
from .bpred import BimodalPredictor, BranchTargetBuffer
from .config import MachineConfig
from .funit import FuPool, fu_family, needs_complex_unit

#: Sentinel blocking fetch until a mispredicted branch resolves.
_FAR_FUTURE = 1 << 60


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
    """One machine: a configuration, a memory system and the ablation knobs.

    A ``Core`` is also a lane of :class:`~repro.cpu.batch.BatchCore`,
    which reads exactly these attributes; :meth:`run` is a one-lane
    batch and :meth:`run_reference` the busy-wait oracle.  Neither
    engine keeps state on the core between runs: predictor tables and
    functional-unit horizons are built fresh for every run.

    Args:
        config: a Table 1 machine configuration.
        memsys: any object with ``try_issue(is_store, addr, nbytes, vl,
            stride, cycle) -> int | None`` (perfect model or a cache
            hierarchy).  It may also export ``earliest_issue(addr, nbytes,
            vl, cycle) -> int``, a retry horizon the event scheduler uses
            to skip futile reattempts (contract in :mod:`repro.memsys.cache`).
            It is caller-owned and not reset between runs.
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
        self.acc_chaining = acc_chaining
        self.late_release = late_release
        self.zero_idiom_elision = zero_idiom_elision
        self.accounting = accounting

    # --- public API --------------------------------------------------------------

    def run(self, trace: Trace, *, phases: dict | None = None) -> SimResult:
        """Simulate a full trace to completion and return statistics.

        Runs this core as a one-lane :class:`~repro.cpu.batch.BatchCore`:
        the event-driven lane stepper is the one timing engine, and it is
        bit-identical to :meth:`run_reference` in every result field --
        including stall counters and memory-model statistics, whose
        retry cadence the stepper reproduces exactly.

        Args:
            phases: optional dict the run *adds* decode/step/writeback
                wall-clock seconds into (see :meth:`BatchCore.run`).
        """
        from .batch import BatchCore
        (result,) = BatchCore([self]).run(trace, phases=phases)
        return result

    def run_reference(self, trace: Trace) -> SimResult:
        """The seed per-cycle busy-wait engine, kept as the timing oracle.

        Rescans the whole ROB every cycle and retries every stalled
        instruction cycle-by-cycle.  Slow, but trivially correct; the
        golden-digest and differential tests pin :meth:`run` against it.
        """
        cfg = self.config
        width = cfg.width
        bpred = BimodalPredictor(cfg.bimodal_entries)
        btb = BranchTargetBuffer(cfg.btb_entries)
        pools = {
            "int": FuPool(cfg.int_units),
            "fp": FuPool(cfg.fp_units),
            "med": FuPool(cfg.med_units, lanes=cfg.med_lanes),
        }
        late_release_pools = (self.LATE_RELEASE_POOLS if self.late_release
                              else frozenset())
        zero_idioms = (self.ZERO_IDIOMS if self.zero_idiom_elision
                       else frozenset())
        rob: list[_Entry] = []          # in program order; head at index 0
        fetch_queue: list[_Entry] = []
        last_writer: dict[int, _Entry] = {}
        inflight_dsts = {pool: 0 for pool in RegPool}
        phys_limit = {pool: cfg.phys_limit(pool) for pool in RegPool}
        lsq_used = 0

        releases: list[tuple[int, RegPool, int]] = []  # (completion, pool, rows)

        n = len(trace)
        rows = iter(trace)              # fetch is strictly in program order
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
                head_zero = head.instr.op.name in zero_idioms
                for dst in head.instr.dsts:
                    pool = reg_pool(dst)
                    if pool not in late_release_pools and not head_zero:
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
                completion = self._execute(entry, cycle, pools)
                if completion is None:
                    continue        # structural hazard; younger ops may go
                entry.issued = True
                entry.completion = completion
                entry.chain_ready = self._chain_ready(entry, cycle, completion)
                issued += 1
                if entry.instr.op.name not in zero_idioms:
                    for dst in entry.instr.dsts:
                        pool = reg_pool(dst)
                        if pool in late_release_pools:
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
                zero_idiom = instr.op.name in zero_idioms
                if not zero_idiom and not self._rename_ok(
                        instr, inflight_dsts, phys_limit):
                    rename_stalls += 1
                    admission_blocked = True
                    break
                fetch_queue.pop(0)
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
                    instr = next(rows)
                    entry = _Entry(instr, cycle)
                    fetch_queue.append(entry)
                    fetch_idx += 1
                    fetched += 1
                    if instr.iclass == InstrClass.BRANCH:
                        prediction = bpred.predict_and_update(
                            instr.site, bool(instr.taken)
                        )
                        if prediction != instr.taken:
                            # Fetch blocks until the branch resolves at issue,
                            # which rewrites next_fetch_cycle.
                            entry.mispredicted = True
                            next_fetch_cycle = _FAR_FUTURE
                            break
                        if instr.taken:
                            hit = btb.lookup_insert(instr.site)
                            next_fetch_cycle = cycle + (1 if hit else 2)
                            break
                    elif instr.iclass == InstrClass.JUMP:
                        hit = btb.lookup_insert(instr.site)
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
            branch_lookups=bpred.lookups,
            branch_mispredicts=bpred.mispredicts,
            btb_misses=btb.misses,
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
        for dst in instr.dsts:
            pool = reg_pool(dst)
            if inflight[pool] + self._charge(instr, dst) - 1 >= limits[pool]:
                return False
        return True

    def _execute(self, entry: _Entry, cycle: int, pools) -> int | None:
        """Acquire execution resources; return the completion cycle."""
        instr = entry.instr
        iclass = instr.iclass
        if iclass.is_memory:
            return self.memsys.try_issue(iclass.is_store, instr.addr,
                                         instr.nbytes, instr.vl,
                                         instr.stride, cycle)
        if iclass == InstrClass.NOP:
            return cycle + 1
        if iclass in (InstrClass.BRANCH, InstrClass.JUMP):
            # Branches resolve on a simple integer pipe.
            return pools["int"].try_issue(False, cycle, 1, instr.op.name, 1)
        family = fu_family(iclass)
        pool = pools[family]
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
