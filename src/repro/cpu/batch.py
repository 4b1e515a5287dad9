"""Batch-lane timing core: N machine configurations, one pass over a trace.

A Figure-7 grid simulates one trace under many machine configurations.
Run one configuration at a time, every point would pay the trace walk --
columnar decode, instruction classification, dependence discovery,
branch-predictor streams -- again; :class:`BatchCore` pays it once per
*trace* and shares the products read-only across all configurations
("lanes"), exactly the fetch/decode amortization the paper's matrix ISA
applies to data lanes (Section 2).

What is shared, and why it is exact
-----------------------------------

* **Decode.**  Each block of the trace's numpy columns
  (:meth:`~repro.emulib.trace.Trace.iter_column_blocks`) is decoded once
  into flat ring buffers of plain ints and tuples (issue constants,
  packed register charges, chaining mode) sized to two blocks, so a
  trace is decoded once for the whole grid instead of once per point
  while peak memory stays at the columnar store plus two blocks.  The
  decode is numpy over the columns -- per-opcode tables gathered by op
  id, each distinct row shape's products built once -- and the rings
  are filled with ``tolist()`` slices; no per-row record object is
  built, kept or cached, whatever the trace size.  A replayed call's
  rows (the trace's call table) take slices of its skeleton's products,
  built once per pass.  Constants that depend
  on an ablation knob are folded into per-knob ring *variants*, so lanes
  select a ring up front instead of re-testing knobs per instruction.
* **Dependences.**  The reference core discovers producers dynamically
  through a ``last_writer`` map that drops entries at commit.  Commit is in
  order, so the in-flight window is the contiguous index range
  ``[committed, fetch_idx)`` -- the *static* last-writer edge (computed
  once at decode, by a ``searchsorted`` over the block's destinations
  plus a per-register table carried across blocks) filtered per lane by
  ``producer >= committed`` is the identical relation, and any producer
  further back than the largest ROB in the batch can never be in
  flight, which bounds the edge distance.  Edges are kept as distances
  (the producer of row ``i`` is ``i - d``), so every call of a skeleton
  shares its rows' edge tuples.
* **Branch outcomes.**  Fetch is strictly in program order, so the
  bimodal counters and BTB tags see a configuration-independent stream:
  per (bimodal, BTB) *size class* the mispredict/redirect outcome of
  every control instruction -- and the total lookup/mispredict/BTB-miss
  counters -- are pure functions of the trace, computed once at decode.
  (The BTB stream depends on the bimodal size because mispredicted taken
  branches bypass the BTB, which is why the class key is the pair.)
  Fetch-disturbing controls are also listed positionally per class, so a
  lane's fetch phase advances a whole fetch group in O(1) instead of
  testing every instruction for a taken branch.
* **Register/LSQ charges.**  Rename bookkeeping runs on SWAR-packed
  ints: the four pool counters *and* the LSQ occupancy live in one
  integer (16-bit biased fields), and every record's allocation,
  rename-check, commit-release and writeback-release charges are packed
  once at decode, so dispatch admission is one subtract-mask-compare.
* **Memory rows.**  A memory row's address, bytes per element and
  stride sit in three more rings, filled from the columns like the rest,
  and its store bit rides in the op tuple, so a lane hands its memory
  model plain ints and no ``DynInstr`` is built for any row.  The
  stepper inlines ``PerfectMemory``; every other model is called.

Lane state and stepping
-----------------------

Each lane still owns divergent scheduler state -- clock, ROB window,
physical-register counters, FU and port horizons, stall counters -- kept
in flat rings of plain ints indexed by ``instruction_index & (window-1)``
(the live window is bounded by ``rob_size + 2*width``).  Lanes with
different configurations retire the same instruction at different
cycles, so there is no cross-lane cycle lockstep to vectorize; lockstep
exists at the *trace* level instead: all lanes consume one decoded block
stream, pausing at block boundaries.  Each lane records how far it has
committed whenever it pauses; :meth:`BatchCore.run` checks the
ring-retention invariant against those marks before decoding over the
oldest block.

Divergent events -- mispredict redirects, structural parks, memory-model
retries -- are per-lane by nature and handled inside each lane's
stepper, the event-driven scheduler of DESIGN.md section 1.5: every
timing and CPI-attribution rule is written once, here, and pinned
bit-identical to the busy-wait oracle :meth:`Core.run_reference
<repro.cpu.core.Core.run_reference>` by the golden-digest and
accounting parity tests.  A lane *is* a :class:`~repro.cpu.core.Core`
(its configuration, memory system and knobs), and :meth:`Core.run
<repro.cpu.core.Core.run>` is a one-lane :class:`BatchCore`.

A lane also memoizes the trace's replayed calls (DESIGN.md section 1.5,
:class:`_CallMemo`): a call entered in a lane state and with ring values
the lane has met before, whose memory model gives the answers of a
recorded path, jumps to that path's recorded exit instead of being
stepped.  The model is asked exactly the calls stepping would make, so a
hit is exact; an answer no path recorded steps the call from its entry.

Lanes a batch cannot express -- predictor tables that are not a power
of two, a memory model without ``try_issue``, two lanes sharing one
memory model -- raise ``ValueError``.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left
from collections import deque
from time import perf_counter as _perf_counter

import numpy as _np

from ..emulib.trace import (REG_LIMIT, RowSkeleton, Trace, _Block,
                            ragged_tuples)
from ..isa.model import InstrClass, Opcode, RegPool
from ..memsys.perfect import PerfectMemory
from .core import Core, SimResult, TimingStats, checked_stack, _FAR_FUTURE
from .funit import _NON_PIPELINED

#: "No pending event" sentinel for the stepper's horizon search.
_NO_EVENT = 1 << 62

#: Issue-path kinds of an instruction (:attr:`OpMeta.kind`), ordered by
#: frequency.
KIND_COMPUTE = 0
KIND_MEMORY = 1
KIND_CONTROL = 2
KIND_NOP = 3

#: compute InstrClass -> (family index, needs complex unit);
#: family order is (int, fp, med), matching Core's pool routing.
_FAM = {
    InstrClass.INT_SIMPLE: (0, False),
    InstrClass.INT_COMPLEX: (0, True),
    InstrClass.FP_SIMPLE: (1, False),
    InstrClass.FP_COMPLEX: (1, True),
    InstrClass.MED_SIMPLE: (2, False),
    InstrClass.MED_COMPLEX: (2, True),
}

#: SWAR register/LSQ accounting: pool ``p`` occupies bits ``[16p,
#: 16p+16)`` and the LSQ is field 4 (bits ``[64, 80)``), each with bias
#: ``1 << 15``.  Field values never stray more than a few hundred from
#: the bias (limits and charges are small), so fields never borrow into
#: their neighbours and sign tests reduce to bit 15.
_BIAS = 1 << 15
_LSQ_SHIFT = 64
_M32 = (1 << 32) - 1
_M80 = (1 << 80) - 1

#: ``e_completion`` sentinel for dispatched-but-unissued entries -- far
#: above any reachable cycle, so the commit head test and the producer
#: scan read one ring instead of a ring plus an "issued" flag ring.
_UNISSUED = 1 << 62


class OpMeta:
    """Per-opcode constants the decode classifies rows by, folded once
    per trace and gathered by op id."""

    __slots__ = ("iclass", "kind", "is_jump", "is_media_compute",
                 "chains_class", "op_name", "latency", "acc_pair",
                 "writes_acc")

    def __init__(self, op: Opcode) -> None:
        iclass = op.iclass
        is_memory = iclass.is_memory
        self.iclass = iclass
        self.is_jump = iclass == InstrClass.JUMP
        if is_memory:
            self.kind = KIND_MEMORY
        elif self.is_jump or iclass == InstrClass.BRANCH:
            self.kind = KIND_CONTROL
        elif iclass == InstrClass.NOP:
            self.kind = KIND_NOP
        else:
            self.kind = KIND_COMPUTE
        self.is_media_compute = iclass in (InstrClass.MED_SIMPLE,
                                           InstrClass.MED_COMPLEX)
        #: vector rows of these classes chain on their producers'
        #: element streams.
        self.chains_class = iclass.is_media or is_memory
        self.op_name = op.name
        self.latency = op.latency
        self.acc_pair = op.reads_acc and op.writes_acc
        self.writes_acc = op.writes_acc


class _CtlState:
    """Predictor/BTB stream for one (bimodal entries, BTB entries) class."""

    __slots__ = ("ring", "pos_idx", "pos_code", "counters", "bmask", "tags",
                 "btbmask", "btbdiv", "lookups", "mispredicts", "btb_misses")

    def __init__(self, bimodal_entries: int, btb_entries: int,
                 ring_size: int) -> None:
        #: per-record fetch outcome: 0 = fall through, 1 = mispredict
        #: (fetch blocks until resolve), 2 = taken redirect on a BTB hit
        #: (next fetch at cycle+1), 3 = redirect on a BTB miss (cycle+2).
        self.ring = [0] * ring_size
        #: absolute index / outcome of every *nonzero* control (the ones
        #: that disturb fetch), in program order.  Fetch consumes these
        #: sequentially, so a fetch group with no taken branch advances
        #: in one jump.
        self.pos_idx: list[int] = []
        self.pos_code: list[int] = []
        self.counters = bytearray([2]) * bimodal_entries
        self.bmask = bimodal_entries - 1
        self.tags: list[int | None] = [None] * btb_entries
        self.btbmask = btb_entries - 1
        self.btbdiv = btb_entries
        self.lookups = 0
        self.mispredicts = 0
        self.btb_misses = 0


def _group_rows(columns):
    """Dense ids for the distinct rows of parallel integer columns.

    ``columns`` pairs each column with an exclusive upper bound of its
    (non-negative) values.  Returns ``(first, ids)``: the index of each
    id's first row, and the id of every row.  The columns are folded into
    one int64 key, compacted whenever the next fold could overflow it.
    """
    key = None
    span = 1
    for col, hi in columns:
        if key is None:
            key = col.astype(_np.int64)
        else:
            if span * hi >= 1 << 62:
                uniq, key = _np.unique(key, return_inverse=True)
                span = len(uniq)
            key = key * hi + col
        span *= hi
    _, first, ids = _np.unique(key, return_index=True, return_inverse=True)
    return first, ids


def _writers(sreg, srow, wkey, span: int, writer, start: int):
    """The latest earlier writer (absolute row) of each source operand
    ``sreg`` at row ``srow``: the last destination before it in ``wkey``
    -- destinations keyed ``reg * span + row``, sorted -- else
    ``writer``.  A row that reads and writes a register reads the earlier
    writer."""
    if wkey.size and sreg.size:
        skey = sreg * span
        at = _np.searchsorted(wkey, skey + srow)
        prev = wkey[at - 1]
        mine = (at > 0) & (prev >= skey)
        writer = _np.where(mine, start + prev - skey, writer)
    return writer


def _block_rows(blk: _Block, ids=None) -> tuple:
    """What the decode reads of a column block's rows: per row its op id
    (the block's own, or its index into ``ids``), vector length, row
    number and count of destinations per register pool, then every
    source and destination operand with its row: ``(op, vl, rowno,
    counts, sreg, srow, dreg, drow)``."""
    m = blk.n
    op = blk.op.astype(_np.intp) if ids is None else ids[blk.op]
    rowno = _np.arange(m, dtype=_np.int64)
    dreg = blk.dst_val.astype(_np.int64)
    drow = _np.repeat(rowno, _np.diff(blk.dst_off))
    counts = _np.bincount(drow * 4 + (dreg >> 8),
                          minlength=4 * m).reshape(m, 4)
    sreg = blk.src_val.astype(_np.int64)
    srow = _np.repeat(rowno, _np.diff(blk.src_off))
    return (op, blk.vl.astype(_np.int64), rowno, counts, sreg, srow, dreg,
            drow)


#: The rings filled with per-row op and SWAR products, each with the
#: :meth:`_SharedDecode._shape` product it holds; a ``_z`` ring holds 0
#: on elided zeroing idioms.
_PRODUCT_RINGS = {"op_raw": 0, "op_ac": 1, "alloc_raw": 2, "alloc_z": 2,
                  "chk": 3, "smask_raw": 4, "smask_z": 4, "commit_if_raw": 5,
                  "commit_if_z": 5, "rel_raw": 6, "rel_z": 6}


def _lane_rings(ls: "_LaneState") -> set[str]:
    """The product rings a lane reads, chosen by its knobs."""
    z = "_z" if ls.zero_elision else "_raw"
    rings = {"op_ac" if ls.acc_chaining else "op_raw", "chk", "alloc" + z,
             "smask" + z}
    if ls.late_release:
        rings |= {"commit_if" + z, "rel" + z}
    return rings


class _SharedDecode:
    """The once-per-trace decode products, consumed block by block.

    Per record, indexed ``i & mask``:

    * ``op_raw`` / ``op_ac`` -- single-row pipelined compute packs to a
      small int (scan index | latency << 3, the overwhelmingly common
      case and the stepper's fastest path); everything else is a
      (kind, scan index, unused, exec_rows, latency, non_pipelined,
      chain_mode, vl, is_store) tuple, ``is_store`` being ``None`` on
      rows that are not memory rows.  The ``_ac`` variant folds
      accumulator chaining (latency 1 on eligible records)
    * ``addr`` / ``nbytes`` / ``stride`` -- the memory columns, as the
      memory models take them (0 on rows without an address)
    * ``deps`` -- tuple of producer distances (static last-writer edges:
      the producer of row ``i`` is row ``i - d``), or ``None``
    * ``chains`` -- consumer chains on producers' element streams
    * ``ismem`` -- 0/1, for the horizon's LSQ-vs-rename disambiguation
    * SWAR charge rings, in raw / zero-idiom-elided variants:
      ``alloc`` (sum of charges + LSQ slot, dispatch), ``chk``/``smask``
      (per-pool max charge and presence mask, rename/LSQ admission),
      ``commit_if`` (commit-time decrements under late release; a lane
      without it refunds its whole ``alloc`` at commit), ``rel``
      (writeback-release charges of the MED/ACC pools)
    * per (bimodal, BTB) class, ``ctl`` -- fetch-control codes (ring)
      plus the positional nonzero-control lists

    A pass fills only the op and SWAR variants its lanes read
    (``rings``, :func:`_lane_rings`); the other variant rings are
    ``None``.

    Each block is computed from the trace's columns
    (:meth:`~repro.emulib.trace.Trace.iter_column_blocks`) with numpy;
    the rings are filled with ``tolist()`` slices, so they hold exactly
    the plain ints and tuples a per-record decode would.  Two products
    stay per-row Python: the predictor/BTB replay over control rows and
    the ``deps`` tuples.  The rows of a replayed call
    (:attr:`~repro.emulib.trace.Trace.calls`) take their op, SWAR,
    ``deps`` and ``chains`` values from its skeleton's products instead,
    built on the skeleton's first call and kept for the pass; only its
    rows that may depend on a row before the call decode their edges
    here.  A memory row without an address raises ``ValueError``.
    """

    def __init__(self, trace: Trace, dep_cap: int, ctl_classes,
                 block: int, ring: int, rings=_PRODUCT_RINGS) -> None:
        n = len(trace)
        self.n = n
        self.blocks = trace.iter_column_blocks(block)
        self.block = block
        self.dep_cap = dep_cap
        #: the product rings this pass fills (the others stay ``None``)
        self.rings = tuple(name for name in _PRODUCT_RINGS if name in rings)
        if n > ring:
            self.size = ring
        else:
            self.size = 1 << max(0, (n - 1).bit_length())
        self.mask = self.size - 1
        self.avail = 0
        size = self.size
        for name in _PRODUCT_RINGS:
            empty = None if name.startswith("op") else 0
            setattr(self, name,
                    [empty] * size if name in self.rings else None)
        self.deps: list = [None] * size
        self.chains = [False] * size
        self.ismem = [0] * size
        self.addr = [0] * size
        self.nbytes = [0] * size
        self.stride = [0] * size
        #: all-zero ring late_release=False lanes read their releases from.
        self.zero_ring = [0] * size
        #: latest writer (absolute index) of each encoded register, -1
        #: for none yet: the last-writer state carried across blocks.
        self.last_writer = _np.full(REG_LIMIT, -1, dtype=_np.int64)
        self.ctl: dict[tuple[int, int], _CtlState] = {
            key: _CtlState(key[0], key[1], size) for key in ctl_classes}
        self._zeros = [0] * min(block, size)

        # Per-opcode constants, indexed by op id, with numpy columns of
        # the ones the row masks need.
        self.opcodes = trace.opcodes
        self._meta = metas = [OpMeta(op) for op in self.opcodes]
        self._kind = _np.array([m.kind for m in metas], dtype=_np.int8)
        self._chain_class = _np.array([m.chains_class for m in metas],
                                      dtype=bool)
        self._zero = _np.array([m.op_name in Core.ZERO_IDIOMS
                                for m in metas], dtype=bool)
        self._jump = _np.array([m.is_jump for m in metas], dtype=bool)
        self._op_id = {id(op): k for k, op in enumerate(self.opcodes)}

        # The trace's replayed calls, walked block by block, and the
        # decode products of their skeletons: built on a skeleton's first
        # call and kept for this pass only.
        self.calls = trace.calls
        self._next_call = 0
        self._skeletons: dict[RowSkeleton, tuple] = {}

    def _shape(self, op_id: int, vl: int, counts) -> tuple:
        """The op and SWAR products of every row with this opcode, vector
        length and count of destinations per register pool:
        ``(op_raw, op_ac, alloc, chk, smask, commit_if, rel)``; a lane
        without late release refunds ``alloc`` at commit."""
        meta = self._meta[op_id]
        kind = meta.kind
        if vl <= 1:
            chmode = 0
        elif kind == KIND_MEMORY:
            chmode = 1
        elif meta.writes_acc:
            chmode = 0
        else:
            chmode = 2
        if kind == KIND_COMPUTE:
            fam, needc = _FAM[meta.iclass]
            sidx = fam * 2 + needc
            lat = meta.latency
            nonpip = meta.op_name in _NON_PIPELINED
            rows = vl if meta.is_media_compute else 1
            if rows == 1 and not nonpip:
                # Fast single-row pipelined compute, packed as a small
                # int (scan index | latency << 3).  For these the
                # chain-ready cycle always equals completion (chmode 0
                # trivially; chmode 2 because the first element lands
                # with the last when occupancy is one cycle), so the
                # stepper's int path skips the chain-mode dispatch.
                op = sidx | lat << 3
            else:
                op = (kind, sidx, False, rows, lat, nonpip, chmode, vl, None)
            # Eligible accumulates always span multiple rows, so the
            # chained variant is never int-packed.
            op_ac = ((kind, sidx, False, rows, 1, nonpip, chmode, vl, None)
                     if meta.acc_pair and meta.is_media_compute and vl > 1
                     else op)
        elif kind == KIND_MEMORY:
            op = op_ac = (kind, 0, False, 1, 0, False, chmode, vl,
                          meta.iclass.is_store)
        else:
            op = op_ac = (kind, 0, False, 1, 0, False, 0, 1, None)
        # Rename charges: one row per destination, VL rows on the media
        # pool.  Pools 0-1 refund at commit, 2-3 at writeback.
        charge = vl if vl > 1 else 1
        c_int, c_fp, c_med, c_acc = counts
        commit_if = c_int + (c_fp << 16)
        rel = (c_med * charge << 32) + (c_acc << 48)
        alloc = commit_if + rel
        smask = chk = 0
        for p, c in enumerate(counts):
            if c:
                smask |= _BIAS << (p << 4)
                chk += (charge if p == RegPool.MED else 1) << (p << 4)
        if kind == KIND_MEMORY:     # LSQ admission/occupancy, field 4
            lsq = 1 << _LSQ_SHIFT
            alloc += lsq
            chk += lsq
            smask |= _BIAS << _LSQ_SHIFT
            commit_if += lsq
        return op, op_ac, alloc, chk, smask, commit_if, rel

    def _products(self, op, vl, counts) -> list[list]:
        """The op and SWAR ring values of rows with these op ids, vector
        lengths and destinations per pool, one list per ring this pass
        fills (:attr:`rings`).  Rows with the same opcode, vector length
        and destinations per pool share every product: each distinct
        shape's products are built once and gathered."""
        if not len(op):
            return [[] for _ in self.rings]
        vls, vl_id = _np.unique(vl, return_inverse=True)
        first, shape = _group_rows(
            [(op, len(self.opcodes)), (vl_id, len(vls))]
            + [(counts[:, p], int(counts[:, p].max()) + 1)
               for p in range(4)])
        table = [self._shape(o, v, c) for o, v, c in zip(
            op[first].tolist(), vl[first].tolist(),
            counts[first].tolist())]
        columns = list(zip(*table))
        # Elided zeroing idioms allocate nothing.
        zero_rows = _np.flatnonzero(self._zero[op]).tolist()
        out = []
        for name in self.rings:
            words = _np.fromiter(columns[_PRODUCT_RINGS[name]], dtype=object,
                                 count=len(table))[shape].tolist()
            if name.endswith("_z"):
                for k in zero_rows:
                    words[k] = 0
            out.append(words)
        return out

    def _edges(self, op, vl, srow, writer, rows, start: int):
        """Static last-writer edges of ``rows`` (ascending), whose source
        operands, at rows ``srow``, have latest earlier writers ``writer``
        (absolute, -1 for none): per row the tuple of producer distances
        (``None`` for none) and the chain flag.  An edge longer than
        ``dep_cap`` is dropped: no lane has that producer in flight."""
        dist = start + srow - writer
        edge = (writer >= 0) & (dist <= self.dep_cap)
        ndeps = _np.bincount(srow[edge], minlength=len(op))[rows]
        deps = ragged_tuples(_np.cumsum(ndeps) - ndeps, ndeps,
                             dist[edge]).tolist()
        chains = ((ndeps > 0) & (vl[rows] > 1)
                  & self._chain_class[op[rows]]).tolist()
        return deps, chains

    def _skeleton(self, skeleton: RowSkeleton) -> tuple:
        """A skeleton's decode products, built on its first call in this
        pass: per row, the values of the rings this pass fills followed
        by the deps and chain flags of its edges inside the call (as
        distances); and the rows that may also have an edge to a row
        before the call -- rows below ``dep_cap`` reading a register no
        earlier row of the call writes -- which each call decodes again,
        as an array and as a list."""
        products = self._skeletons.get(skeleton)
        if products is not None:
            return products
        ids = _np.asarray([self._op_id[id(op)] for op in skeleton.opcodes],
                          dtype=_np.intp)
        op, vl, rowno, counts, sreg, srow, dreg, drow = _block_rows(
            _Block([skeleton.template]), ids)
        n = len(rowno)
        writer = _writers(sreg, srow, _np.sort(dreg * (n + 1) + drow), n + 1,
                          _np.full(len(sreg), -1, dtype=_np.int64), 0)
        outside = _np.unique(srow[(writer < 0) & (srow < self.dep_cap)])
        products = self._skeletons[skeleton] = (
            self._products(op, vl, counts)
            + list(self._edges(op, vl, srow, writer, rowno, 0)), outside,
            outside.tolist())
        return products

    def call_edges(self, skeleton: RowSkeleton) -> list[int]:
        """The rows of a decoded call's skeleton that may have an edge to
        a row before the call."""
        return self._skeletons[skeleton][2]

    def _calls_in(self, start: int, stop: int) -> list[tuple]:
        """The calls' rows in block ``[start, stop)``: per call, its
        first and end block row, skeleton, first skeleton row, and the
        block rows that decode their edges again."""
        calls, c = self.calls, self._next_call
        spans = []
        while c < len(calls) and calls[c][0] < stop:
            first, end, skeleton = calls[c]
            lo, hi = max(first, start), min(end, stop)
            if lo < hi:
                outside = self._skeleton(skeleton)[1]
                r0, r1 = lo - first, hi - first
                again = outside[(outside >= r0) & (outside < r1)]
                spans.append((lo - start, hi - start, skeleton, r0,
                              again + (lo - start - r0)))
            if end > stop:
                break
            c += 1
        self._next_call = c
        return spans

    def decode_block(self) -> None:
        """Decode the next block of rows into the shared rings.

        A replayed call's rows take their skeleton's products (sliced,
        built once per pass), except that its rows reading a register
        from before the call decode their edges here; every other row is
        decoded from the columns."""
        start = self.avail
        if start >= self.n:
            return
        blk = next(self.blocks)
        m = blk.n
        base = start & self.mask    # blocks are aligned: the span is contiguous
        end = base + m
        op, vl, rowno, counts, sreg, srow, dreg, drow = _block_rows(blk)
        kind = self._kind[op]
        spans = self._calls_in(start, start + m)
        if spans:
            # Rows outside every call, and those plus the call rows that
            # decode their edges again.
            own = _np.ones(m, dtype=bool)
            for lo, hi, _sk, _r0, _again in spans:
                own[lo:hi] = False
            edged = own.copy()
            for span in spans:
                edged[span[4]] = True
            rows = _np.flatnonzero(own)
            edge_rows = _np.flatnonzero(edged)
            picked = edged[srow]
            sreg, srow = sreg[picked], srow[picked]
        else:
            rows = edge_rows = rowno

        products = self._products(op[rows], vl[rows], counts[rows])
        is_mem = kind == KIND_MEMORY
        lost = is_mem & ~blk.has_addr
        if lost.any():
            raise ValueError(f"memory row {start + int(lost.argmax())} "
                             "has no address")
        self.ismem[base:end] = is_mem.astype(_np.int8).tolist()
        self.addr[base:end] = blk.addr.tolist()
        self.nbytes[base:end] = blk.nbytes.tolist()
        self.stride[base:end] = blk.stride.tolist()

        # Static last-writer edges: each source operand's latest earlier
        # writer, found in this block by a search over its destinations
        # sorted by (register, row), else in the carried table.
        lw = self.last_writer
        span = m + 1
        wkey = _np.sort(dreg * span + drow)
        writer = _writers(sreg, srow, wkey, span, lw[sreg], start)
        deps, chains = self._edges(op, vl, srow, writer, edge_rows, start)
        if wkey.size:
            wreg = wkey // span
            last = _np.ones(len(wkey), dtype=bool)
            last[:-1] = wreg[1:] != wreg[:-1]
            lw[wreg[last]] = start + (wkey - wreg * span)[last]

        self._fill(products, deps, chains, spans, base, m)
        self._predict(kind, op, blk, base, start, m)
        self.avail = start + m

    def _fill(self, products, deps, chains, spans, base: int,
              m: int) -> None:
        """Fill a block's rings in row order: the rows outside every call
        from ``products`` (and ``deps``/``chains``, which also hold the
        call rows that decoded their edges again) and, per call, its
        skeleton's values with those rows patched in."""
        rings = [getattr(self, name) for name in self.rings]
        g_deps, g_chains = self.deps, self.chains
        g = e = prev = 0            # cursors: own rows, edge rows, block row
        for lo, hi, skeleton, r0, again in spans + [(m, m, None, 0, None)]:
            if lo > prev:
                k = lo - prev
                own = [values if k == len(values) else values[g:g + k]
                       for values in products + [deps[e:e + k],
                                                 chains[e:e + k]]]
                for ring, values in zip(rings + [g_deps, g_chains], own):
                    ring[base + prev:base + lo] = values
                g += k
                e += k
            if skeleton is None:
                break
            values = self._skeletons[skeleton][0]
            if hi - lo < len(skeleton):     # a call the block cuts
                values = [v[r0:r0 + hi - lo] for v in values]
            for ring, v in zip(rings + [g_deps, g_chains], values):
                ring[base + lo:base + hi] = v
            for row in again.tolist():
                g_deps[base + row] = deps[e]
                g_chains[base + row] = chains[e]
                e += 1
            prev = hi

    def _predict(self, kind, op, blk, base: int, start: int, m: int) -> None:
        """Predictor/BTB replay: scalar, over the control rows only."""
        ctl = _np.flatnonzero(kind == KIND_CONTROL)
        ctl_rows = list(zip(ctl.tolist(), self._jump[op[ctl]].tolist(),
                            blk.site[ctl].tolist(), blk.taken_at(ctl)))
        zeros = self._zeros
        for st in self.ctl.values():
            ring = st.ring
            ring[base:base + m] = zeros[:m]
            pos_idx, pos_code = st.pos_idx, st.pos_code
            counters, bmask = st.counters, st.bmask
            tags, btbmask, btbdiv = st.tags, st.btbmask, st.btbdiv
            lookups = st.lookups
            mispred = st.mispredicts
            bmiss = st.btb_misses
            for k, is_jump, site, taken in ctl_rows:
                code = 0
                if is_jump:
                    idx = site & btbmask
                    tag = site // btbdiv
                    if tags[idx] == tag:
                        code = 2
                    else:
                        tags[idx] = tag
                        bmiss += 1
                        code = 3
                else:
                    # Transcribes BimodalPredictor.predict_and_update plus
                    # the reference fetch path's use of its return value.
                    lookups += 1
                    idx = site & bmask
                    ctr = counters[idx]
                    pred = ctr >= 2
                    if taken:
                        if ctr < 3:
                            counters[idx] = ctr + 1
                    elif ctr > 0:
                        counters[idx] = ctr - 1
                    if pred != taken:
                        mispred += 1
                        code = 1
                    elif taken:
                        idx = site & btbmask
                        tag = site // btbdiv
                        if tags[idx] == tag:
                            code = 2
                        else:
                            tags[idx] = tag
                            bmiss += 1
                            code = 3
                if code:
                    ring[base + k] = code
                    pos_idx.append(start + k)
                    pos_code.append(code)
            st.lookups = lookups
            st.mispredicts = mispred
            st.btb_misses = bmiss


class _LaneState:
    """Per-lane constants and end-of-run outputs for one stepper."""

    __slots__ = ("memsys", "index", "width", "rob_size", "lsq_size",
                 "front_latency", "phys_limit", "acc_chaining",
                 "late_release", "zero_elision", "window",
                 "fu_busy", "fu_of", "scan", "lanes_of",
                 "fu_simple", "fu_total",
                 "pm", "mem_try", "mem_hint", "ctl_key", "accounting",
                 "cycles", "fetch_stalls", "rename_stalls", "stack",
                 "committed", "memo")

    def __init__(self, core: Core, index: int) -> None:
        cfg = core.config
        ms = core.memsys
        self.memsys = ms
        self.index = index
        self.width = cfg.width
        self.rob_size = cfg.rob_size
        self.lsq_size = cfg.lsq_size
        self.front_latency = cfg.front_latency
        self.phys_limit = [cfg.phys_limit(pool) for pool in RegPool]
        self.acc_chaining = core.acc_chaining
        self.late_release = core.late_release
        self.zero_elision = core.zero_idiom_elision
        need = cfg.rob_size + 2 * cfg.width
        self.window = 1 << (need - 1).bit_length()
        # One busy-horizon list per FU family, simple units first -- the
        # exact unit order FuPool scans, so first-free-wins matches.
        self.fu_busy = [[0] * cfg.int_units.total,
                        [0] * cfg.fp_units.total,
                        [0] * cfg.med_units.total]
        self.fu_simple = [cfg.int_units.simple, cfg.fp_units.simple,
                          cfg.med_units.simple]
        self.fu_total = [cfg.int_units.total, cfg.fp_units.total,
                         cfg.med_units.total]
        # Indexed by a record's scan index (family*2 + needs_complex):
        # the busy list, the unit subrange FuPool would scan, and the
        # family's lane (row-per-cycle) count.
        self.fu_of = [self.fu_busy[0], self.fu_busy[0],
                      self.fu_busy[1], self.fu_busy[1],
                      self.fu_busy[2], self.fu_busy[2]]
        self.scan = [range(0, self.fu_total[0]),
                     range(self.fu_simple[0], self.fu_total[0]),
                     range(0, self.fu_total[1]),
                     range(self.fu_simple[1], self.fu_total[1]),
                     range(0, self.fu_total[2]),
                     range(self.fu_simple[2], self.fu_total[2])]
        self.lanes_of = [1, 1, 1, 1, cfg.med_lanes, cfg.med_lanes]
        self.pm = ms if type(ms) is PerfectMemory else None
        self.mem_try = ms.try_issue
        self.mem_hint = getattr(ms, "earliest_issue", None)
        self.ctl_key = (cfg.bimodal_entries, cfg.btb_entries)
        self.accounting = core.accounting
        self.cycles = 0
        self.fetch_stalls = 0
        self.rename_stalls = 0
        self.stack = None         # CPI-stack dict when accounting is on
        self.committed = 0        # commit mark, stored at every pause
        self.memo: dict = {}      # memo counters (:meth:`_CallMemo.stats`)


#: A memory-model call in a memo path, packed as one int: ``(cycle << 24
#: | row + _ROW_OFF) << 1 | kind``, the cycle relative to the call's
#: entry cycle, the row relative to its first row (rows in flight before
#: the call are negative), kind 0 for ``try_issue``, 1 for
#: ``earliest_issue``.
_ROW_OFF = 1 << 23
_ROW_MASK = (1 << 24) - 1
#: Longest call a memo keeps (rows), so a row fits its packed field.
_MEMO_SPAN = 1 << 22
#: Ints (key entries, packed calls and answers, exit entries) one lane's
#: memo may hold; a recording that would pass it is dropped, and no new
#: one starts once it is reached.
_MEMO_CAP = 1 << 18


class _Recording:
    """One replayed call being stepped with its memory-model calls
    recorded: relative row and cycle as a packed int, answer relative to
    the call's cycle (``None`` for a refused ``try_issue``, 0 for an
    ``earliest_issue`` hint at or before it).  A fallback feeds back the
    answers the failed replay already received (``feed``) instead of
    asking the model again."""

    __slots__ = ("key", "first", "end", "c0", "counters", "calls",
                 "answers", "feed_calls", "feed", "mem_try", "mem_hint")

    def __init__(self, memo: "_CallMemo", key: tuple, first: int, end: int,
                 cycle: int, feed_calls, feed) -> None:
        self.key = key
        self.first = first
        self.end = end
        self.c0 = cycle
        self.counters: tuple = ()
        self.calls: list[int] = []
        self.answers: list = []
        self.feed_calls = feed_calls
        self.feed = feed
        self.mem_try = memo.mem_try
        self.mem_hint = memo.mem_hint

    def _fed(self, word: int):
        """The fed answer of the next call, if the failed replay made it."""
        k = len(self.calls)
        self.calls.append(word)
        if k < len(self.feed):
            if word != self.feed_calls[k]:
                raise RuntimeError("memoized call left its recorded path")
            return True, self.feed[k]
        return False, None

    def try_issue(self, i: int, is_store, addr: int, nbytes: int, vl: int,
                  stride: int, cycle: int):
        fed, answer = self._fed(((cycle - self.c0) << 24
                                 | (i - self.first + _ROW_OFF)) << 1)
        if fed:
            self.answers.append(answer)
            return None if answer is None else cycle + answer
        got = self.mem_try(is_store, addr, nbytes, vl, stride, cycle)
        self.answers.append(None if got is None else got - cycle)
        return got

    def hint(self, i: int, addr: int, nbytes: int, vl: int,
             cycle: int) -> int:
        fed, answer = self._fed(((cycle - self.c0) << 24
                                 | (i - self.first + _ROW_OFF)) << 1 | 1)
        if not fed:
            got = self.mem_hint(addr, nbytes, vl, cycle)
            answer = got - cycle if got > cycle else 0
        self.answers.append(answer)
        return cycle + answer


class _CallMemo:
    """One lane's memo of replayed calls, for one run (DESIGN.md §1.5).

    ``table`` maps a call's entry key (:meth:`key`) to a path tree: a
    node is ``[calls, answers, exit, branches]`` -- the packed memory
    calls of one recorded path from where the node starts, their
    answers, the exit state and counter deltas that path reached, and
    ``{(k, answer): child}`` for the paths that took another answer at
    its ``k``-th call (the child starts after that call).  The lists it
    reads and writes are the stepper's own, bound once.
    """

    __slots__ = ("table", "size", "hits", "rows", "fallbacks", "paths",
                 "state", "rings", "g_deps", "g_chains", "g_op", "g_addr",
                 "g_nbytes", "g_stride", "gmask", "wmask", "n", "width",
                 "pos_idx", "pos_code", "shared", "mem_try", "mem_hint")

    def __init__(self, ls: _LaneState, shared: _SharedDecode, state: tuple,
                 rings: tuple, pos_idx: list, pos_code: list) -> None:
        self.table: dict[tuple, list] = {}
        self.size = 0
        self.hits = 0
        self.rows = 0
        self.fallbacks = 0
        self.paths = 0
        #: (e_completion, e_chain, e_pending, e_base, e_waiters, bursts,
        #: issuable, wakeups_next, wakeups, parked, releases, fu_busy,
        #: pm_busy or None)
        self.state = state
        #: the ring variants the lane reads, g_deps and g_chains among them
        self.rings = rings
        self.g_op, self.g_deps, self.g_chains = rings[:3]
        self.g_addr = shared.addr
        self.g_nbytes = shared.nbytes
        self.g_stride = shared.stride
        self.gmask = shared.mask
        self.wmask = ls.window - 1
        self.n = shared.n
        self.width = ls.width
        self.pos_idx = pos_idx
        self.pos_code = pos_code
        self.shared = shared
        self.mem_try = ls.mem_try
        self.mem_hint = ls.mem_hint

    def snapshot(self, first: int, cycle: int, committed: int,
                 disp_idx: int, fetch_idx: int, D: int, nfc: int,
                 burst_end: int, front_ready: int) -> list:
        """The lane's state at a loop top, rows relative to ``first`` and
        times relative to ``cycle``.  A time at or before ``cycle + 1``
        reads as 1: every test against it is made at ``cycle + 1`` or
        later, where such times all act alike.  Stale ring slots are left
        out: the window's entries only, a ready floor only while pending,
        the current fetch burst only while dispatch is inside it.  The
        issuable and next-cycle lists are one sorted list (the next
        cycle's wake merges them before anything reads either), and the
        pending counts are left to the waiter lists that imply them."""
        (e_completion, e_chain, e_pending, e_base, e_waiters, bursts,
         issuable, wakeups_next, wakeups, parked, releases, fu_busy,
         pm_busy) = self.state
        wmask = self.wmask
        soon = cycle + 1
        out = [committed - first, disp_idx - first, fetch_idx - first, D,
               -1 if nfc == _FAR_FUTURE else
               nfc - cycle if nfc > soon else 1]
        if disp_idx < burst_end:
            out += (1, burst_end - first,
                    front_ready - cycle if front_ready > soon else 1)
        else:
            out.append(0)
        out.append(len(bursts))
        for v in bursts:
            ready = v & _M32
            out += ((v >> 32) - first, ready - cycle if ready > soon else 1)
        for i in range(committed, disp_idx):
            ws = i & wmask
            c = e_completion[ws]
            if c == _UNISSUED:
                if e_pending[ws]:
                    b = e_base[ws]
                    out += (-1, b - cycle if b > soon else 1)
                else:
                    out.append(0)
                waiters = e_waiters[ws]
                out.append(len(waiters))
                out += [w - first for w in waiters]
            else:
                h = e_chain[ws]
                out += (c - cycle if c > soon else 1,
                        h - cycle if h > soon else 1)
        ready = sorted(issuable + wakeups_next)
        out.append(len(ready))
        out += [i - first for i in ready]
        for heap in (wakeups, parked):
            out.append(len(heap))
            out += sorted(((v >> 32) - cycle if v >> 32 > soon else 1) << 32
                          | ((v & _M32) - first + _ROW_OFF) for v in heap)
        out.append(len(releases))
        out += sorted(((v >> 80) - cycle if v >> 80 > soon else 1) << 80
                      | (v & _M80) for v in releases)
        for busy in fu_busy if pm_busy is None else fu_busy + [pm_busy]:
            out += [b - cycle if b > soon else 1 for b in busy]
        return out

    def key(self, first: int, end: int, skeleton: RowSkeleton,
            cycle: int, *state) -> tuple:
        """A call's entry key: the lane's :meth:`snapshot`, the skeleton
        and call length, then the ring values the call's rows do not
        share with their skeleton -- every lane-read product of the rows
        in flight before it, the edges of its rows that read registers
        written before it, the trace end if fetch can reach it, and the
        fetch-control codes from its first row to its end plus the fetch
        width."""
        out = self.snapshot(first, cycle, *state)
        out += (skeleton, end - first)
        gmask = self.gmask
        rings = self.rings
        for i in range(state[0], first):
            gs = i & gmask
            out += [ring[gs] for ring in rings]
        g_deps, g_chains = self.g_deps, self.g_chains
        for r in self.shared.call_edges(skeleton):
            if r >= end - first:
                break
            gs = (first + r) & gmask
            out += (g_deps[gs], g_chains[gs])
        stop = end + self.width
        if stop >= self.n:
            stop = self.n
            out.append(self.n - first)
        else:
            out.append(-1)
        pos_idx, pos_code = self.pos_idx, self.pos_code
        j = bisect_left(pos_idx, first)
        while j < len(pos_idx) and pos_idx[j] < stop:
            out += (pos_idx[j] - first, pos_code[j])
            j += 1
        return tuple(out)

    def enter(self, key: tuple, first: int, end: int, cycle: int):
        """At a call's entry: the recorded exit when the memory model
        gives a recorded path's answers (the model is asked exactly what
        stepping would ask), else a :class:`_Recording` to step the call
        with (fed the answers already received), or ``None`` when the
        memo is full and the call has no entry."""
        node = self.table.get(key)
        if node is None:
            if self.size >= _MEMO_CAP:
                return None
            return _Recording(self, key, first, end, cycle, (), ())
        g_op, g_addr, g_nbytes, g_stride = (self.g_op, self.g_addr,
                                            self.g_nbytes, self.g_stride)
        gmask = self.gmask
        rmask = _ROW_MASK
        base = first - _ROW_OFF
        mem_try, mem_hint = self.mem_try, self.mem_hint
        trail = []          # (calls, answers, k, answer) at each branch
        calls, answers, done, branches = node
        k = 0
        ncalls = len(calls)
        while k < ncalls:
            word = calls[k]
            c = cycle + (word >> 25)
            gs = (base + ((word >> 1) & rmask)) & gmask
            op = g_op[gs]
            if word & 1:
                a = mem_hint(g_addr[gs], g_nbytes[gs], op[7], c) - c
                if a < 0:
                    a = 0
            else:
                a = mem_try(op[8], g_addr[gs], g_nbytes[gs], op[7],
                            g_stride[gs], c)
                if a is not None:
                    a -= c
            if a != answers[k]:
                trail.append((calls, answers, k, a))
                child = branches.get((k, a)) if branches else None
                if child is None:
                    self.fallbacks += 1
                    made = [w for seg, _, j, _ in trail for w in seg[:j + 1]]
                    got = [x for _, seg, j, b in trail
                           for x in seg[:j] + (b,)]
                    return _Recording(self, key, first, end, cycle, made,
                                      got)
                calls, answers, done, branches = child
                ncalls = len(calls)
                k = 0
                continue
            k += 1
        self.hits += 1
        return done

    def finish(self, rec: _Recording, snap: list, deltas: tuple) -> None:
        """Store a stepped call's path and exit, as a new entry or as a
        branch off the path its replay failed on."""
        calls, answers = rec.calls, rec.answers
        done = (tuple(snap), deltas)
        node = self.table.get(rec.key)
        j = 0               # calls of the new path already in the tree
        branch = None       # where it leaves the tree: (node, (k, answer))
        while node is not None and branch is None:
            seg_calls, seg_answers, _, branches = node
            for k in range(len(seg_calls)):
                if j >= len(calls) or calls[j] != seg_calls[k]:
                    raise RuntimeError("memoized call left its recorded path")
                a = answers[j]
                j += 1
                if a != seg_answers[k]:
                    child = branches.get((k, a)) if branches else None
                    if child is None:
                        branch = node, (k, a)
                    node = child
                    break
            else:
                raise RuntimeError("memoized call recorded twice")
        size = 2 * (len(calls) - j) + len(done[0]) + (
            len(rec.key) if branch is None else 0)
        if self.size + size > _MEMO_CAP:
            return
        self.size += size
        self.paths += 1
        leaf = [tuple(calls[j:]), tuple(answers[j:]), done, None]
        if branch is None:
            self.table[rec.key] = leaf
        else:
            node, at = branch
            if node[3] is None:
                node[3] = {}
            node[3][at] = leaf

    def restore(self, snap: tuple, first: int, end: int, cycle: int,
                committed: int, fetch_idx: int) -> tuple:
        """Write a :meth:`snapshot` back as the exit state at ``cycle`` of
        the call ``[first, end)``, over the window that held ``[committed,
        fetch_idx)``; returns the scalars ``(committed, disp_idx,
        fetch_idx, D, next_fetch_cycle, burst_end, front_ready,
        waiting)``.  An exit that does not lie past the call's end inside
        the trace raises ``RuntimeError`` (a key that missed a
        difference would otherwise leave the lane stepping rows that are
        not there)."""
        (e_completion, e_chain, e_pending, e_base, e_waiters, bursts,
         issuable, wakeups_next, wakeups, parked, releases, fu_busy,
         pm_busy) = self.state
        wmask = self.wmask
        # Slots outside the window hold no waiters and no pending count.
        for i in range(committed, fetch_idx):
            ws = i & wmask
            e_pending[ws] = 0
            if e_waiters[ws]:
                e_waiters[ws] = []
        committed = first + snap[0]
        disp_idx = first + snap[1]
        fetch_idx = first + snap[2]
        if not (committed <= disp_idx <= fetch_idx <= self.n
                and fetch_idx >= end):
            raise RuntimeError(f"memoized exit rows {committed}-{fetch_idx} "
                               f"do not follow call [{first}, {end})")
        D = snap[3]
        nfc = _FAR_FUTURE if snap[4] < 0 else cycle + snap[4]
        if snap[5]:
            burst_end = first + snap[6]
            front_ready = cycle + snap[7]
            p = 8
        else:
            burst_end = disp_idx
            front_ready = 0
            p = 6
        k = snap[p]
        bursts.clear()
        for q in range(p + 1, p + 1 + 2 * k, 2):
            bursts.append((first + snap[q]) << 32 | (cycle + snap[q + 1]))
        p += 1 + 2 * k
        waiting = 0
        for i in range(committed, disp_idx):
            ws = i & wmask
            t = snap[p]
            p += 1
            if t > 0:                       # issued: completion, chain
                e_completion[ws] = cycle + t
                e_chain[ws] = cycle + snap[p]
                p += 1
                continue
            e_completion[ws] = _UNISSUED
            if t:                           # pending: ready floor
                e_base[ws] = cycle + snap[p]
                p += 1
            k = snap[p]
            if k:
                waiters = e_waiters[ws] = [first + w
                                           for w in snap[p + 1:p + 1 + k]]
                for w in waiters:
                    e_pending[w & wmask] += 1
                waiting += k
            p += 1 + k
        k = snap[p]
        issuable[:] = [first + i for i in reversed(snap[p + 1:p + 1 + k])]
        wakeups_next.clear()
        p += 1 + k
        for heap in (wakeups, parked):
            k = snap[p]
            heap[:] = [(cycle + (v >> 32)) << 32
                       | (first + (v & _M32) - _ROW_OFF)
                       for v in snap[p + 1:p + 1 + k]]
            p += 1 + k
        k = snap[p]
        releases[:] = [(cycle + (v >> 80)) << 80 | (v & _M80)
                       for v in snap[p + 1:p + 1 + k]]
        p += 1 + k
        for busy in fu_busy if pm_busy is None else fu_busy + [pm_busy]:
            k = len(busy)
            busy[:] = [cycle + b for b in snap[p:p + k]]
            p += k
        return (committed, disp_idx, fetch_idx, D, nfc, burst_end,
                front_ready, waiting)

    def stats(self) -> dict:
        return {"hits": self.hits, "rows": self.rows,
                "fallbacks": self.fallbacks, "paths": self.paths}


def _lane_stepper(ls: _LaneState, shared: _SharedDecode):
    """One lane's event loop over the shared decode stream.

    The event-driven scheduler (DESIGN.md section 1.5): the phase order
    of :meth:`Core.run_reference <repro.cpu.core.Core.run_reference>`
    (release, commit, issue, dispatch, fetch, then the CPI-stack
    classification), with wakeup lists, parked structural stalls and a
    horizon search that skips cycles in which nothing can happen, over
    ring-buffered plain-int state instead of per-instruction objects.
    Heap entries are packed ints (``cycle << 32 | index``, ordered by
    cycle then program order), the ready list is kept sorted instead of
    heapified (nothing is ever inserted mid-walk: every wakeup computed
    during issue lands strictly after ``cycle``), register/LSQ
    accounting is one SWAR word, and fetch advances per *group* (bounded
    by the shared nonzero-control positions) rather than per
    instruction.

    It ``yield``\\ s whenever fetch could outrun the decoded prefix, or
    a call it is about to replay or record is not yet decoded through
    its end plus the fetch width; the driver decodes the next block and
    resumes every paused lane.  Pausing is timing-transparent: the lane
    resumes inside the same simulated cycle with more records visible.
    """
    n = shared.n
    gmask = shared.mask
    g_deps = shared.deps
    g_chains = shared.chains
    g_ismem = shared.ismem
    g_addr = shared.addr
    g_nbytes = shared.nbytes
    g_stride = shared.stride
    ctl = shared.ctl[ls.ctl_key]
    g_ctl = ctl.ring
    pos_idx = ctl.pos_idx
    pos_code = ctl.pos_code
    g_op = shared.op_ac if ls.acc_chaining else shared.op_raw
    zel = ls.zero_elision
    g_alloc = shared.alloc_z if zel else shared.alloc_raw
    g_chk = shared.chk
    g_smask = shared.smask_z if zel else shared.smask_raw
    if ls.late_release:
        g_rel = shared.rel_z if zel else shared.rel_raw
        g_commit = shared.commit_if_z if zel else shared.commit_if_raw
    else:
        g_rel = shared.zero_ring
        g_commit = g_alloc          # every charge refunds at commit
    heappush = heapq.heappush
    heappop = heapq.heappop

    width = ls.width
    rob_size = ls.rob_size
    front_latency = ls.front_latency
    fqcap = 2 * width
    redirect = Core.MISPREDICT_REDIRECT

    fu_of = ls.fu_of
    scan = ls.scan
    lanes_of = ls.lanes_of
    fu_simple = ls.fu_simple
    busy_int = ls.fu_busy[0]

    pm = ls.pm
    if pm is not None:
        portset = pm.portset
        pm_busy = portset.busy_until
        pm_ports = len(pm_busy)
        pm_lat = pm.latency
        pm_slots = pm_ports * portset.port_width
        pm_scalar = portset.scalar_accesses
        pm_vector = portset.vector_accesses
        pm_elem = portset.element_accesses
        mem_try = mem_hint = None
    else:
        pm_busy = None
        pm_scalar = pm_vector = pm_elem = 0
        mem_try = ls.mem_try
        mem_hint = ls.mem_hint

    W = ls.window
    wmask = W - 1
    e_completion = [0] * W
    e_chain = [0] * W
    e_pending = [0] * W
    e_base = [0] * W
    e_waiters: list[list[int]] = [[] for _ in range(W)]

    #: SWAR headroom word: field p holds (limit[p] - inflight[p]) + bias
    #: for the four register pools; field 4 is the LSQ.
    limits = ls.phys_limit
    D = sum((limits[p] + _BIAS) << (p << 4) for p in range(len(limits)))
    D += (ls.lsq_size + _BIAS) << _LSQ_SHIFT
    releases: list[int] = []            # completion << 80 | packed charges
    issuable: list[int] = []            # indices, sorted descending
    wakeups: list[int] = []             # heap of ready << 32 | index
    wakeups_next: list[int] = []
    parked: list[int] = []              # heap of retry << 32 | index
    waiting = 0                         # entries registered on producers

    #: fetch groups: each fetch cycle appends ``end_index << 32 |
    #: (cycle + front_latency)``; dispatch consumes them in order.  The
    #: queue never holds more than the fetch-queue cap of instructions.
    bursts: deque[int] = deque()
    bq_append = bursts.append
    bq_popleft = bursts.popleft
    burst_end = 0
    front_ready = 0
    cp = 0                              # cursor into pos_idx / pos_code

    fetch_idx = 0
    disp_idx = 0
    committed = 0
    cycle = 0
    next_fetch_cycle = 0
    fetch_stalls = 0
    rename_stalls = 0
    # CPI-stack accumulators; cbase/disp_before feed the classifier's
    # commits-this-cycle and head-age tests (same rules as
    # Core.run_reference).
    accounting = ls.accounting
    st_base = st_fetch = st_rename = st_fu = 0
    st_memc = st_meml = st_drain = 0
    pm_acct_n = 0
    pm_acct_occ = 0
    avail = shared.avail
    #: pause guard: fetch may proceed while ``fetch_idx <= aw``; decode
    #: appends to ``pos_idx`` only while this lane is paused, so its
    #: length is refreshed at the same points.
    aw = avail - width if avail < n else n
    npos = len(pos_idx)

    # Memoized calls (DESIGN.md section 1.5): at the first loop top where
    # fetch has reached a call (``watch``), the lane replays or records
    # it; a recording ends at the first loop top where fetch has reached
    # the call's end (``watch`` again).  A call the decode must hold
    # whole in the ring while the lane waits at its start is stepped.
    calls = shared.calls
    ncalls = len(calls)
    nc = 0
    watch = calls[0][0] if calls else _NO_EVENT
    span_cap = n if n <= shared.size else (
        shared.size - shared.block - rob_size - 3 * width)
    if span_cap > _MEMO_SPAN:
        span_cap = _MEMO_SPAN
    memo = _CallMemo(
        ls, shared,
        (e_completion, e_chain, e_pending, e_base, e_waiters, bursts,
         issuable, wakeups_next, wakeups, parked, releases, ls.fu_busy,
         pm_busy),
        (g_op, g_deps, g_chains, g_ismem, g_alloc, g_chk, g_smask, g_commit,
         g_rel, g_ctl), pos_idx, pos_code)
    rec = None

    while committed < n:
        if fetch_idx >= watch:
            counters = (cycle, fetch_stalls, rename_stalls, st_base,
                        st_fetch, st_rename, st_fu, st_memc, st_meml,
                        st_drain, pm_scalar, pm_vector, pm_elem, pm_acct_n,
                        pm_acct_occ, cp, committed)
            if rec is not None:
                memo.finish(rec, memo.snapshot(
                    rec.first, cycle, committed, disp_idx, fetch_idx, D,
                    next_fetch_cycle, burst_end, front_ready), tuple(
                    now - then for now, then in zip(counters, rec.counters)))
                rec = None
                nc += 1
            while nc < ncalls:
                first, end, skeleton = calls[nc]
                if fetch_idx < first:
                    break
                if fetch_idx >= end or end - first > span_cap:
                    nc += 1
                    continue
                # The key reads the call's rows to its end plus the fetch
                # width: wait for them at the call's start, as at a block
                # boundary.
                need = end + width if end + width < n else n
                while avail < need:
                    ls.committed = committed
                    yield
                    avail = shared.avail
                    aw = avail - width if avail < n else n
                    npos = len(pos_idx)
                key = memo.key(first, end, skeleton, cycle, committed,
                               disp_idx, fetch_idx, D, next_fetch_cycle,
                               burst_end, front_ready)
                entered = memo.enter(key, first, end, cycle)
                if entered is None:             # memo full: step it
                    nc += 1
                    continue
                if type(entered) is _Recording:
                    rec = entered
                    rec.counters = counters
                    break
                snap, (d_cycle, d_fs, d_rs, d_base, d_fetch, d_rename,
                       d_fu, d_memc, d_meml, d_drain, d_scalar, d_vector,
                       d_elem, d_acct_n, d_acct_occ, d_cp, d_rows) = entered
                cycle += d_cycle
                fetch_stalls += d_fs
                rename_stalls += d_rs
                st_base += d_base
                st_fetch += d_fetch
                st_rename += d_rename
                st_fu += d_fu
                st_memc += d_memc
                st_meml += d_meml
                st_drain += d_drain
                pm_scalar += d_scalar
                pm_vector += d_vector
                pm_elem += d_elem
                pm_acct_n += d_acct_n
                pm_acct_occ += d_acct_occ
                cp += d_cp
                memo.rows += d_rows
                (committed, disp_idx, fetch_idx, D, next_fetch_cycle,
                 burst_end, front_ready, waiting) = memo.restore(
                    snap, first, end, cycle, committed, fetch_idx)
                nc += 1
                counters = (cycle, fetch_stalls, rename_stalls, st_base,
                            st_fetch, st_rename, st_fu, st_memc, st_meml,
                            st_drain, pm_scalar, pm_vector, pm_elem,
                            pm_acct_n, pm_acct_occ, cp, committed)
            if rec is not None:
                watch = rec.end
            elif nc < ncalls:
                watch = calls[nc][0]
            else:
                watch = _NO_EVENT
        while fetch_idx > aw:
            ls.committed = committed
            yield
            avail = shared.avail
            aw = avail - width if avail < n else n
            npos = len(pos_idx)

        cycle += 1

        # --- release late-freed physical registers --------------------------
        while releases and (releases[0] >> 80) <= cycle:
            D += heappop(releases) & _M80

        # --- commit ---------------------------------------------------------
        cbase = committed
        lim = committed + width
        if disp_idx < lim:
            lim = disp_idx
        while committed < lim:
            if e_completion[committed & wmask] > cycle:
                break
            D += g_commit[committed & gmask]
            committed += 1
        if committed >= n:
            if accounting:
                if committed - cbase == width:
                    st_base += 1
                else:
                    st_drain += 1
            break

        # --- wake -----------------------------------------------------------
        dirty = False
        if wakeups_next:
            issuable += wakeups_next
            del wakeups_next[:]
            dirty = True
        while wakeups and (wakeups[0] >> 32) <= cycle:
            issuable.append(heappop(wakeups) & _M32)
            dirty = True
        while parked and (parked[0] >> 32) <= cycle:
            issuable.append(heappop(parked) & _M32)
            dirty = True
        if dirty and len(issuable) > 1:
            issuable.sort(reverse=True)     # pop() takes the oldest

        # --- issue: oldest-first among ready entries ------------------------
        issued = 0
        next_cycle = cycle + 1
        while issuable and issued < width:
            i = issuable.pop()
            gs = i & gmask
            op = g_op[gs]
            if type(op) is int:             # fast compute: 1 row, pipelined
                sidx = op & 7
                busy = fu_of[sidx]
                completion = None
                for u in scan[sidx]:
                    if busy[u] <= cycle:
                        busy[u] = next_cycle
                        completion = cycle + (op >> 3)
                        break
                if completion is None:
                    hint = min(busy[fu_simple[sidx >> 1]:]) if sidx & 1 \
                        else min(busy)
                    heappush(
                        parked,
                        ((hint if hint > cycle else next_cycle) << 32) | i)
                    continue
                ws = i & wmask
                e_completion[ws] = completion
                e_chain[ws] = completion
            else:
                kind, sidx, _fast, rows, lat, nonpip, chmode, vl, is_store = op
                completion = None
                if kind == 0:               # multi-row / non-pipelined
                    busy = fu_of[sidx]
                    for u in scan[sidx]:
                        if busy[u] <= cycle:
                            occ = -(-rows // lanes_of[sidx])
                            if nonpip and occ < lat:
                                occ = lat
                            if occ < 1:
                                occ = 1
                            busy[u] = cycle + occ
                            completion = cycle + occ - 1 + lat
                            break
                elif kind == 1:             # memory
                    if pm_busy is not None:
                        if vl > 1:
                            for b in pm_busy:
                                if b > cycle:
                                    break
                            else:
                                occ = -(-vl // pm_slots)
                                if occ < 1:
                                    occ = 1
                                until = cycle + occ
                                for p in range(pm_ports):
                                    pm_busy[p] = until
                                pm_vector += 1
                                pm_elem += vl
                                completion = cycle + occ - 1 + pm_lat
                                pm_acct_n += 1
                                pm_acct_occ += completion - cycle
                        else:
                            for p in range(pm_ports):
                                if pm_busy[p] <= cycle:
                                    pm_busy[p] = next_cycle
                                    pm_scalar += 1
                                    pm_elem += 1
                                    completion = cycle + pm_lat
                                    pm_acct_n += 1
                                    pm_acct_occ += pm_lat
                                    break
                    elif rec is None:
                        completion = mem_try(is_store, g_addr[gs],
                                             g_nbytes[gs], vl,
                                             g_stride[gs], cycle)
                    else:
                        completion = rec.try_issue(i, is_store, g_addr[gs],
                                                   g_nbytes[gs], vl,
                                                   g_stride[gs], cycle)
                elif kind == 2:             # control: simple integer pipe
                    for u in range(len(busy_int)):
                        if busy_int[u] <= cycle:
                            busy_int[u] = next_cycle
                            completion = next_cycle
                            break
                else:                       # nop
                    completion = next_cycle
                if completion is None:
                    # Structural hazard: park until the resource's
                    # earliest possible free cycle: the retries the
                    # busy-wait oracle makes in between are futile and
                    # free of side effects.
                    if kind == 1:
                        if pm_busy is not None:
                            hint = max(pm_busy) if vl > 1 else min(pm_busy)
                        elif not mem_hint:
                            hint = cycle
                        elif rec is None:
                            hint = mem_hint(g_addr[gs], g_nbytes[gs], vl,
                                            cycle)
                        else:
                            hint = rec.hint(i, g_addr[gs], g_nbytes[gs], vl,
                                            cycle)
                    elif kind == 2:
                        hint = min(busy_int)
                    else:
                        busy = fu_of[sidx]
                        hint = min(busy[fu_simple[sidx >> 1]:]) if sidx & 1 \
                            else min(busy)
                    heappush(
                        parked,
                        ((hint if hint > cycle else next_cycle) << 32) | i)
                    continue
                ws = i & wmask
                e_completion[ws] = completion
                if chmode == 0:
                    e_chain[ws] = completion
                elif chmode == 1:
                    early = completion - vl + 1
                    e_chain[ws] = early if early > next_cycle else next_cycle
                else:
                    first = cycle + lat
                    e_chain[ws] = completion if completion < first else first
                if kind == 2 and g_ctl[gs] == 1:
                    next_fetch_cycle = completion + redirect
            issued += 1
            rel = g_rel[gs]
            if rel:
                heappush(releases, (completion << 80) | rel)
            if waiting:
                waiters = e_waiters[ws]
                if waiters:
                    waiting -= len(waiters)
                    chain = e_chain[ws]
                    for w in waiters:
                        wws = w & wmask
                        p = e_pending[wws] - 1
                        e_pending[wws] = p
                        avail_w = chain if g_chains[w & gmask] else completion
                        if avail_w > e_base[wws]:
                            e_base[wws] = avail_w
                        if p == 0:
                            ready = e_base[wws]
                            if ready == next_cycle:
                                wakeups_next.append(w)
                            elif ready <= cycle:
                                # Unreachable (results land after `cycle`);
                                # kept to issue this cycle, as the oracle
                                # would.
                                issuable.append(w)
                                issuable.sort(reverse=True)
                            else:
                                heappush(wakeups, (ready << 32) | w)
                    del waiters[:]

        # --- dispatch: fetch queue -> ROB (rename + allocate) ---------------
        # The three bounds (fetch frontier, dispatch width, ROB room) are
        # all fixed for the duration of the phase, so fold them into one.
        disp_before = disp_idx
        admission_blocked = False
        dlim = disp_idx + width
        if fetch_idx < dlim:
            dlim = fetch_idx
        rcap = committed + rob_size
        if rcap < dlim:
            dlim = rcap
        while disp_idx < dlim:
            if disp_idx >= burst_end:
                v = bq_popleft()
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                break
            gs = disp_idx & gmask
            sm = g_smask[gs]
            if sm:
                if ((D - g_chk[gs]) & sm) != sm:
                    # Admission failed: LSQ-full breaks silently (a
                    # commit will free it); a register shortfall is a
                    # rename stall, the oracle's check order.
                    admission_blocked = True
                    if (g_ismem[gs]
                            and ((D >> _LSQ_SHIFT) & 0xffff) <= _BIAS):
                        break
                    rename_stalls += 1
                    break
                D -= g_alloc[gs]
            i = disp_idx
            disp_idx += 1
            ws = i & wmask
            e_completion[ws] = _UNISSUED
            deps = g_deps[gs]
            if deps is None:
                wakeups_next.append(i)      # ready at dispatch + 1
                continue
            pending = 0
            base = next_cycle
            chaining = g_chains[gs]
            for d in deps:
                j = i - d
                if j >= committed:          # producer still in flight
                    js = j & wmask
                    c = e_completion[js]
                    if c != _UNISSUED:
                        avail_d = e_chain[js] if chaining else c
                        if avail_d > base:
                            base = avail_d
                    else:
                        e_waiters[js].append(i)
                        pending += 1
            if pending:
                e_pending[ws] = pending
                e_base[ws] = base
                waiting += pending
            elif base == next_cycle:
                wakeups_next.append(i)
            else:
                heappush(wakeups, (base << 32) | i)

        # --- fetch: one group, stopping at the next taken branch ------------
        if cycle >= next_fetch_cycle:
            if fetch_idx < n:
                stop = fetch_idx + width
                if stop > n:
                    stop = n
                cap_stop = disp_idx + fqcap
                if stop > cap_stop:
                    stop = cap_stop
                if stop > fetch_idx:
                    if cp < npos and pos_idx[cp] < stop:
                        fetch_idx = pos_idx[cp] + 1
                        code = pos_code[cp]
                        cp += 1
                        if code == 1:
                            next_fetch_cycle = _FAR_FUTURE
                        elif code == 2:
                            next_fetch_cycle = next_cycle
                        else:
                            next_fetch_cycle = cycle + 2
                    else:
                        fetch_idx = stop
                    bq_append((fetch_idx << 32) | (cycle + front_latency))
        elif fetch_idx < n:
            fetch_stalls += 1

        # --- account: attribute this cycle to exactly one stack bucket ------
        # End-of-cycle classification, first-match-wins (DESIGN.md §9):
        # full-width commit > head memory latency > head memory conflict
        # > window admission > FU structural > base > drain > fetch.
        # Head index is `committed`; dispatched-this-cycle is
        # `committed >= disp_before` (the dispatch_cycle test without a
        # per-entry field).
        if accounting:
            if committed - cbase == width:
                st_base += 1
            elif committed < disp_idx:
                hc = e_completion[committed & wmask]
                if hc != _UNISSUED:
                    if g_ismem[committed & gmask] and hc > next_cycle:
                        st_meml += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_base += 1
                elif committed < disp_before:
                    if g_ismem[committed & gmask]:
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
        if issuable or wakeups_next:
            continue
        nxt = _NO_EVENT
        if committed < disp_idx:
            hc = e_completion[committed & wmask]
            if hc != _UNISSUED:
                nxt = hc if hc > cycle else next_cycle
        if parked:
            retry = parked[0] >> 32
            if retry < nxt:
                nxt = retry
        if wakeups:
            ready = wakeups[0] >> 32
            if ready <= cycle:
                ready = next_cycle
            if ready < nxt:
                nxt = ready
        rename_blocked = False
        lsq_blocked = False
        if disp_idx < fetch_idx and disp_idx - committed < rob_size:
            if disp_idx >= burst_end:
                v = bq_popleft()
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                if front_ready < nxt:
                    nxt = front_ready
            else:
                gs = disp_idx & gmask
                sm = g_smask[gs]
                if sm and ((D - g_chk[gs]) & sm) != sm:
                    if (g_ismem[gs]
                            and ((D >> _LSQ_SHIFT) & 0xffff) <= _BIAS):
                        # A commit frees the LSQ; commits are events.
                        lsq_blocked = True
                    else:
                        # Dispatch resumes at a register release or a
                        # commit; skipped cycles still count as
                        # rename-stall events.
                        rename_blocked = True
                        if releases:
                            rel_at = releases[0] >> 80
                            if rel_at < nxt:
                                nxt = rel_at
                elif next_cycle < nxt:
                    nxt = next_cycle
        if (fetch_idx < n and fetch_idx - disp_idx < fqcap
                and next_fetch_cycle != _FAR_FUTURE):
            fetch_at = next_fetch_cycle if next_fetch_cycle > cycle \
                else next_cycle
            if fetch_at < nxt:
                nxt = fetch_at
        if nxt >= _NO_EVENT:
            raise RuntimeError(
                "batch lane deadlocked with no pending event "
                f"(lane {ls.index}, cycle {cycle}, {committed}/{n})")
        # --- cycle skip: account the stall counters the busy-wait oracle
        # increments while it waits through the skipped span.
        skipped = nxt - next_cycle
        if skipped > 0:
            if fetch_idx < n and next_fetch_cycle > next_cycle:
                stop = nxt if nxt < next_fetch_cycle else next_fetch_cycle
                fetch_stalls += stop - next_cycle
            if rename_blocked:
                rename_stalls += skipped
            if accounting:
                # Frozen-state span replay of the per-cycle rules; the
                # only in-span transition is the head's memory completion
                # landing exactly on `nxt`, where the latency rule
                # (completion > t+1) no longer holds.
                adm = rename_blocked or lsq_blocked
                if committed < disp_idx:
                    hc = e_completion[committed & wmask]
                    if hc != _UNISSUED:
                        if g_ismem[committed & gmask]:
                            st_meml += skipped
                            if hc == nxt:
                                st_meml -= 1
                                if adm:
                                    st_rename += 1
                                else:
                                    st_base += 1
                        elif adm:
                            st_rename += skipped
                        else:
                            st_base += skipped
                    elif g_ismem[committed & gmask]:
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

    ls.cycles = cycle
    ls.fetch_stalls = fetch_stalls
    ls.rename_stalls = rename_stalls
    if accounting:
        ls.stack = {
            "base": st_base, "fetch": st_fetch, "rename": st_rename,
            "fu_structural": st_fu, "mem_conflict": st_memc,
            "mem_latency": st_meml, "drain": st_drain}
    if pm is not None:
        portset.scalar_accesses = pm_scalar
        portset.vector_accesses = pm_vector
        portset.element_accesses = pm_elem
        pm.acct_accesses += pm_acct_n
        pm.acct_occupancy += pm_acct_occ
    ls.committed = committed
    ls.memo = memo.stats()


class BatchCore:
    """Run N configuration lanes over one trace in a single decode pass.

    Every lane's :class:`SimResult` is bit-identical to what
    ``lane.run_reference(trace)`` returns on a fresh memory model -- the
    golden-digest and accounting parity suites pin this.

    Args:
        lanes: :class:`~repro.cpu.core.Core` sequence, each with its own
            memory model.  Order is preserved in :meth:`run`'s result
            list.

    Raises:
        ValueError: no lanes, a predictor table that is not a power of
            two, a memory model without ``try_issue``, or two lanes
            sharing one memory model.
    """

    #: Records decoded per pause-resume round.  The shared rings hold
    #: two blocks, so a lane may trail the decode frontier by up to one
    #: whole block (its live window is only ``rob + 2*width`` anyway).
    #: The rings (about 445 bytes per slot) are what a one-lane run adds
    #: to peak memory above the trace itself, so the block is kept small
    #: at the cost of more pause-resume rounds.
    BLOCK = 1 << 13
    RING = 1 << 14

    def __init__(self, lanes) -> None:
        lanes = list(lanes)
        if not lanes:
            raise ValueError("BatchCore needs at least one lane")
        for lane in lanes:
            cfg = lane.config
            for entries in (cfg.bimodal_entries, cfg.btb_entries):
                if entries <= 0 or entries & (entries - 1):
                    raise ValueError(
                        "predictor tables must be powers of two")
            if not hasattr(lane.memsys, "try_issue"):
                raise ValueError(
                    f"memory model {type(lane.memsys).__name__} lacks "
                    "try_issue")
        if len({id(lane.memsys) for lane in lanes}) < len(lanes):
            raise ValueError("lanes must not share a memory model")
        self.lanes = lanes

    def run(self, trace: Trace,
            phases: dict | None = None) -> list[SimResult]:
        """Simulate every lane to completion; results in lane order.

        ``phases``, when given, accumulates decode/step/writeback
        wall-clock seconds across the whole group (shared decode plus
        every lane), timed at decode-block granularity -- a handful of
        ``perf_counter`` calls per block, never one per record.  Decode
        covers building the shared rings block by block, step the lane
        steppers, writeback result assembly.
        """
        n = len(trace)
        operations = trace.operation_count()

        _t = _perf_counter()
        _decode_t = 0.0
        _step_t = 0.0
        states = [_LaneState(lane, i) for i, lane in enumerate(self.lanes)]
        dep_cap = max(st.rob_size for st in states)
        shared = _SharedDecode(trace, dep_cap,
                               {st.ctl_key for st in states},
                               self.BLOCK, self.RING,
                               set().union(*map(_lane_rings, states)))
        _decode_t += _perf_counter() - _t

        _t = _perf_counter()
        steppers = [_lane_stepper(st, shared) for st in states]
        active = []
        for gen in steppers:
            try:
                next(gen)
                active.append(gen)
            except StopIteration:
                pass
        _step_t += _perf_counter() - _t

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while active:
                if shared.avail < n:
                    if shared.avail >= shared.size:
                        # About to overwrite the oldest ring block: every
                        # lane must have retired past it (lanes pause at
                        # the decode frontier, so their live windows all
                        # hug it; this is the safety net for that proof).
                        m = min(self.BLOCK, n - shared.avail)
                        floor = shared.avail + m - shared.size
                        cmin = min(st.committed for st in states)
                        if cmin < floor:
                            raise RuntimeError(
                                "batch ring retention violated: lane "
                                f"committed {cmin} < floor {floor}")
                    _t = _perf_counter()
                    shared.decode_block()
                    _decode_t += _perf_counter() - _t
                _t = _perf_counter()
                still = []
                for gen in active:
                    try:
                        next(gen)
                        still.append(gen)
                    except StopIteration:
                        pass
                active = still
                _step_t += _perf_counter() - _t
        finally:
            if was_enabled:
                gc.enable()

        _t = _perf_counter()
        results = [self._result(st, shared.ctl[st.ctl_key], n, operations)
                   for st in states]
        if phases is not None:
            phases["decode"] = phases.get("decode", 0.0) + _decode_t
            phases["step"] = phases.get("step", 0.0) + _step_t
            phases["writeback"] = (phases.get("writeback", 0.0)
                                   + _perf_counter() - _t)
        return results

    @staticmethod
    def _result(st: _LaneState, ctl: _CtlState, n: int,
                operations: int) -> SimResult:
        """A lane's result from its final state."""
        source = st.memsys
        mem_stats = source.stats() if hasattr(source, "stats") else {}
        result = SimResult(
            cycles=st.cycles,
            instructions=n,
            operations=operations,
            branch_lookups=ctl.lookups,
            branch_mispredicts=ctl.mispredicts,
            btb_misses=ctl.btb_misses,
            fetch_stall_cycles=st.fetch_stalls,
            rename_stall_events=st.rename_stalls,
            mem_stats=dict(mem_stats),
        )
        result.meta["memo"] = st.memo
        if st.stack is not None:
            result.stack = checked_stack(st.cycles, TimingStats(**st.stack))
            if hasattr(source, "accounting_stats"):
                result.meta["mem_accounting"] = source.accounting_stats()
        return result
