"""The columnar shared decode fills exactly the rings a per-record decode would.

``_RecordDecode`` below is the reference: the record-by-record
``_SharedDecode.decode_block`` that :class:`~repro.cpu.batch.BatchCore`
ran before its decode moved onto the trace columns, walking one
``_Record`` per instruction of the trace's :class:`DynInstr` view.
``_Record`` classifies an instruction from its opcode alone, independent
of the per-opcode tables the columnar decode uses.  After every
block the tests compare every ring of the columnar decode against it --
op tuples, memory columns, dependence edges, chain flags, memory flags,
every SWAR variant and every predictor/BTB class -- over every kernel
and application trace, and over synthetic traces that reach the corner
cases the real ones may not: chunk and block geometries that do not
line up, truncated and unsealed storage, repeated and self-referencing
operands, multi-pool destinations, both zeroing idioms and dependence
distances on either side of the cap.  Dependence edges are distances:
the producer of row ``i`` is row ``i - d``.

Replayed calls (``Trace.emit_skeleton``) decode from their skeleton's
products; the twin-trace tests below hold those rings equal to the rings
of the same rows written one by one with ``Trace.emit``, after every
block, whatever cuts a call: the block size, the trace's chunks,
``truncate`` or ``extend``.
"""

import numpy as np
import pytest

from repro.apps import APPS
from repro.core.mom_isa import MOM
from repro.cpu import Core, machine_config
from repro.cpu.batch import (BatchCore, _BIAS, _CtlState, _FAM, _LSQ_SHIFT,
                             _SharedDecode, _group_rows)
from repro.cpu.funit import _NON_PIPELINED
from repro.emulib.trace import DynInstr, RowSkeleton, Trace, reg, reg_pool
from repro.exp.engine import built_app, built_kernel
from repro.isa.alpha import ALPHA
from repro.isa.mdmx import MDMX
from repro.isa.model import InstrClass, RegPool
from repro.kernels import KERNELS
from repro.memsys import PerfectMemory

from test_golden_digest import GOLDEN_DIGESTS, make_memsys, result_digest

ISAS = ("alpha", "mmx", "mdmx", "mom")
APP_ISAS = ("alpha", "mmx", "mom")


class _Record:
    """Preclassified image of one :class:`DynInstr`: its class predicates,
    issue constants and per-destination rename charges."""

    #: values of :attr:`kind`, the issue-path kinds of the op tuples.
    KIND_COMPUTE = 0
    KIND_MEMORY = 1
    KIND_CONTROL = 2
    KIND_NOP = 3

    def __init__(self, instr: DynInstr) -> None:
        op = instr.op
        iclass = op.iclass
        self.instr = instr
        self.iclass = iclass
        self.is_memory = iclass.is_memory
        self.is_branch = iclass == InstrClass.BRANCH
        self.is_jump = iclass == InstrClass.JUMP
        self.is_nop = iclass == InstrClass.NOP
        if self.is_memory:
            self.kind = self.KIND_MEMORY
        elif self.is_branch or self.is_jump:
            self.kind = self.KIND_CONTROL
        elif self.is_nop:
            self.kind = self.KIND_NOP
        else:
            self.kind = self.KIND_COMPUTE
        is_media_compute = iclass in (InstrClass.MED_SIMPLE,
                                      InstrClass.MED_COMPLEX)
        self.chains = instr.vl > 1 and (iclass.is_media or self.is_memory)
        self.op_name = op.name
        self.latency = op.latency
        self.vl = instr.vl
        #: rows a media computation streams through its functional unit.
        self.exec_rows = instr.vl if is_media_compute else 1
        self.acc_chain_eligible = (is_media_compute and op.reads_acc
                                   and op.writes_acc and instr.vl > 1)
        self.writes_acc = op.writes_acc
        self.srcs = instr.srcs
        #: per destination: (encoded reg, pool, rename row charge).
        self.dsts = tuple(
            (dst, reg_pool(dst),
             max(1, instr.vl) if reg_pool(dst) == RegPool.MED else 1)
            for dst in instr.dsts)
        self.site = instr.site
        self.taken = instr.taken
        #: the memory columns, as the columnar store keeps them.
        self.addr = 0 if instr.addr is None else instr.addr
        self.nbytes = instr.nbytes
        self.stride = instr.stride
        self.is_store = iclass.is_store


_KIND_MEMORY = _Record.KIND_MEMORY
_KIND_CONTROL = _Record.KIND_CONTROL
_KIND_COMPUTE = _Record.KIND_COMPUTE


class _RecordDecode:
    """Reference decode: one :class:`_Record` at a time, from
    ``next_record`` (same rings, same constructor geometry)."""

    def __init__(self, n: int, next_record, dep_cap: int,
                 ctl_classes, block: int, ring: int) -> None:
        self.n = n
        self.next_record = next_record
        self.dep_cap = dep_cap
        self.block = block
        if n > ring:
            self.size = ring
        else:
            self.size = 1 << max(0, (n - 1).bit_length())
        self.mask = self.size - 1
        self.avail = 0
        size = self.size
        self.op_raw: list = [None] * size
        self.op_ac: list = [None] * size
        self.deps: list = [None] * size
        self.chains = [False] * size
        self.ismem = [0] * size
        self.addr = [0] * size
        self.nbytes = [0] * size
        self.stride = [0] * size
        self.alloc_raw = [0] * size
        self.alloc_z = [0] * size
        self.chk = [0] * size
        self.smask_raw = [0] * size
        self.smask_z = [0] * size
        self.commit_if_raw = [0] * size
        self.commit_if_z = [0] * size
        self.commit_full_raw = [0] * size
        self.commit_full_z = [0] * size
        self.rel_raw = [0] * size
        self.rel_z = [0] * size
        #: all-zero ring late_release=False lanes read their releases from.
        self.zero_ring = [0] * size
        self.last_writer: dict[int, int] = {}
        self.ctl: dict[tuple[int, int], _CtlState] = {
            key: _CtlState(key[0], key[1], size) for key in ctl_classes}
        fill = min(block, size)
        self._zeros = [0] * fill
        self._nones: list = [None] * fill
        self._falses = [False] * fill

    def decode_block(self) -> None:
        """Decode up to one block of records into the shared rings."""
        n = self.n
        start = self.avail
        if start >= n:
            return
        m = min(self.block, n - start)
        mask = self.mask
        base = start & mask      # blocks are aligned: the span is contiguous
        end = base + m
        zeros = self._zeros
        # Reset the span (sparsely-written rings only; the op rings are
        # always written).  Slice stores are C-speed.
        self.deps[base:end] = self._nones[:m]
        self.chains[base:end] = self._falses[:m]
        self.ismem[base:end] = zeros[:m]
        self.alloc_raw[base:end] = zeros[:m]
        self.alloc_z[base:end] = zeros[:m]
        self.chk[base:end] = zeros[:m]
        self.smask_raw[base:end] = zeros[:m]
        self.smask_z[base:end] = zeros[:m]
        self.commit_if_raw[base:end] = zeros[:m]
        self.commit_if_z[base:end] = zeros[:m]
        self.commit_full_raw[base:end] = zeros[:m]
        self.commit_full_z[base:end] = zeros[:m]
        self.rel_raw[base:end] = zeros[:m]
        self.rel_z[base:end] = zeros[:m]

        op_raw_r = self.op_raw
        op_ac_r = self.op_ac
        deps_r = self.deps
        chains_r = self.chains
        ismem_r = self.ismem
        addr_r = self.addr
        nbytes_r = self.nbytes
        stride_r = self.stride
        alloc_raw = self.alloc_raw
        alloc_z = self.alloc_z
        chk_r = self.chk
        smask_raw = self.smask_raw
        smask_z = self.smask_z
        cif_raw = self.commit_if_raw
        cif_z = self.commit_if_z
        cfull_raw = self.commit_full_raw
        cfull_z = self.commit_full_z
        rel_raw = self.rel_raw
        rel_z = self.rel_z
        lw = self.last_writer
        cap = self.dep_cap
        nxt = self.next_record
        zero_set = Core.ZERO_IDIOMS
        nonpip_set = _NON_PIPELINED
        fam_map = _FAM
        lsq_bit = 1 << _LSQ_SHIFT
        lsq_mask = _BIAS << _LSQ_SHIFT
        ctl_rows: list[tuple[int, int, bool, int, object]] = []
        for off in range(m):
            rec = nxt()
            i = start + off
            slot = i & mask
            kind = rec.kind
            vl = rec.vl
            is_mem = kind == _KIND_MEMORY
            addr_r[slot] = rec.addr
            nbytes_r[slot] = rec.nbytes
            stride_r[slot] = rec.stride
            if vl <= 1:
                chmode = 0
            elif is_mem:
                chmode = 1
            elif rec.writes_acc:
                chmode = 0
            else:
                chmode = 2
            op_name = rec.op_name
            if kind == _KIND_COMPUTE:
                fam, needc = fam_map[rec.iclass]
                rows = rec.exec_rows
                nonpip = op_name in nonpip_set
                sidx = fam * 2 + needc
                if rows == 1 and not nonpip:
                    # Fast single-row pipelined compute, packed as a
                    # small int (scan index | latency << 3).  For these
                    # the chain-ready cycle always equals completion
                    # (chmode 0 trivially; chmode 2 because the first
                    # element lands with the last when occupancy is one
                    # cycle), so the stepper's int path skips the
                    # chain-mode dispatch entirely.
                    op = sidx | rec.latency << 3
                else:
                    op = (kind, sidx, False, rows, rec.latency, nonpip,
                          chmode, vl, None)
                op_raw_r[slot] = op
                # Eligible accumulates always span multiple rows, so the
                # chained variant is never int-packed.
                op_ac_r[slot] = ((kind, sidx, False, rows, 1, nonpip,
                                  chmode, vl, None)
                                 if rec.acc_chain_eligible else op)
            else:
                if is_mem:
                    ismem_r[slot] = 1
                    op = (1, 0, False, 1, 0, False, chmode, vl,
                          rec.is_store)
                elif kind == _KIND_CONTROL:
                    op = (2, 0, False, 1, 0, False, 0, 1, None)
                    ctl_rows.append((i, slot, rec.is_jump, rec.site,
                                     rec.taken))
                else:
                    op = (3, 0, False, 1, 0, False, 0, 1, None)
                op_raw_r[slot] = op
                op_ac_r[slot] = op
            srcs = rec.srcs
            if srcs:
                dl = None
                for src in srcs:
                    j = lw.get(src, -1)
                    if j >= 0 and i - j <= cap:
                        if dl is None:
                            dl = [i - j]
                        else:
                            dl.append(i - j)
                if dl is not None:
                    deps_r[slot] = tuple(dl)
                    if rec.chains:
                        chains_r[slot] = True
            dsts = rec.dsts
            if dsts or is_mem:
                alloc = smask = if_sum = all_sum = rel = chk = 0
                if len(dsts) == 1:
                    d, pool, charge = dsts[0]
                    sh = pool << 4
                    alloc = chk = all_sum = charge << sh
                    smask = _BIAS << sh
                    if pool < 2:
                        if_sum = alloc
                    else:
                        rel = alloc
                    lw[d] = i
                elif dsts:
                    mx: dict[int, int] = {}
                    for d, pool, charge in dsts:
                        p = int(pool)
                        sh = p << 4
                        packed = charge << sh
                        alloc += packed
                        all_sum += packed
                        if p < 2:
                            if_sum += packed
                        else:
                            rel += packed
                        smask |= _BIAS << sh
                        if charge > mx.get(p, 0):
                            mx[p] = charge
                        lw[d] = i
                    for p, c in mx.items():
                        chk += c << (p << 4)
                if is_mem:       # LSQ admission/occupancy as SWAR field 4
                    alloc += lsq_bit
                    chk += lsq_bit
                    smask |= lsq_mask
                    if_sum += lsq_bit
                    all_sum += lsq_bit
                alloc_raw[slot] = alloc
                chk_r[slot] = chk
                smask_raw[slot] = smask
                cfull_raw[slot] = all_sum
                cif_raw[slot] = if_sum
                rel_raw[slot] = rel
                if op_name not in zero_set:
                    alloc_z[slot] = alloc
                    smask_z[slot] = smask
                    cfull_z[slot] = all_sum
                    cif_z[slot] = if_sum
                    rel_z[slot] = rel
        for st in self.ctl.values():
            ring = st.ring
            ring[base:end] = zeros[:m]
            pos_idx, pos_code = st.pos_idx, st.pos_code
            counters, bmask = st.counters, st.bmask
            tags, btbmask, btbdiv = st.tags, st.btbmask, st.btbdiv
            lookups = st.lookups
            mispred = st.mispredicts
            bmiss = st.btb_misses
            for i, slot, is_jump, site, taken in ctl_rows:
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
                    # Core.run's fetch-path use of its return value.
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
                    ring[slot] = code
                    pos_idx.append(i)
                    pos_code.append(code)
            st.lookups = lookups
            st.mispredicts = mispred
            st.btb_misses = bmiss
        self.avail = start + m


# --- comparison ---------------------------------------------------------------

_RINGS = ("deps", "chains", "ismem", "addr", "nbytes", "stride",
          "alloc_raw", "alloc_z", "chk",
          "smask_raw", "smask_z", "commit_if_raw", "commit_if_z",
          "rel_raw", "rel_z")

#: A lane without late release refunds its whole allocation at commit,
#: so the engine keeps no full-commit ring: the reference's full-commit
#: charges are checked against the engine's ``alloc`` rings.
_ENGINE_RING = {"commit_full_raw": "alloc_raw", "commit_full_z": "alloc_z"}

#: two predictor/BTB size classes, one small enough to alias often.
CTL_CLASSES = {(16, 4), (4096, 512)}


def _assert_same_rings(ref, new, *, lo: int, hi: int) -> None:
    """Every ring equal in value and type over slots ``[lo, hi)``, and
    every predictor class equal in full."""
    assert (new.avail, new.size, new.mask) == (ref.avail, ref.size, ref.mask)
    for name in ("op_raw", "op_ac"):    # tuple members' types too
        assert repr(getattr(new, name)[lo:hi]) == \
            repr(getattr(ref, name)[lo:hi]), name
    for name in _RINGS + tuple(_ENGINE_RING):
        want = getattr(ref, name)[lo:hi]
        got = getattr(new, _ENGINE_RING.get(name, name))[lo:hi]
        assert got == want, name
        assert list(map(type, got)) == list(map(type, want)), name
    assert new.ctl.keys() == ref.ctl.keys()
    for key, want in ref.ctl.items():
        got = new.ctl[key]
        for field in _CtlState.__slots__:
            assert repr(getattr(got, field)) == repr(getattr(want, field)), \
                (key, field)


def assert_decode_parity(trace: Trace, *, block: int, ring: int,
                         dep_cap: int = 32) -> int:
    """Decode ``trace`` both ways, comparing after every block; returns
    the number of blocks decoded."""
    ref = _RecordDecode(len(trace), map(_Record, trace).__next__,
                        dep_cap, CTL_CLASSES, block, ring)
    new = _SharedDecode(trace, dep_cap, CTL_CLASSES, block, ring)
    blocks = 0
    while ref.avail < ref.n:
        start = ref.avail
        ref.decode_block()
        new.decode_block()
        blocks += 1
        lo = start & ref.mask
        _assert_same_rings(ref, new, lo=lo, hi=lo + ref.avail - start)
    new.decode_block()                  # past the end: a no-op
    assert new.avail == len(trace)
    assert next(new.blocks, None) is None
    return blocks


# --- every real trace ----------------------------------------------------------

#: Small blocks and rings: many blocks per trace (the last-writer table
#: carries across each boundary) and the rings wrap many times.
BLOCK, RING = 1 << 10, 1 << 11


@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_traces(kernel, isa):
    trace = built_kernel(kernel, isa).trace
    assert_decode_parity(trace, block=256, ring=512)


#: mpeg2_frame is the frame-scale target (tens of millions of rows).
@pytest.mark.parametrize("isa", APP_ISAS)
@pytest.mark.parametrize("app", sorted(set(APPS) - {"mpeg2_frame"}))
def test_app_traces(app, isa):
    trace = built_app(app, isa).trace
    assert assert_decode_parity(trace, block=BLOCK, ring=RING) > 2


def test_cache_lanes_build_no_dyninstr(monkeypatch):
    """Memory rows reach every memory model as ints from the decode
    rings: a batch on all four cache hierarchies builds no DynInstr,
    and each lane still matches its golden digest."""
    groups = {"mom": (2, "cache"), "alpha": (8, "cache")}
    lanes, points = {}, {}
    for isa, (way, _) in groups.items():
        points[isa] = [(way, "cache")] + ([(8, "vectorcache"),
                                           (2, "collapsing")]
                                          if isa == "mom" else [])
        lanes[isa] = [Core(machine_config(w, isa), make_memsys(m, w, isa))
                      for w, m in points[isa]]
    traces = {isa: built_kernel("idct", isa).trace for isa in groups}

    def refuse(self, *args, **kwargs):
        raise AssertionError("a DynInstr was built")

    monkeypatch.setattr(DynInstr, "__init__", refuse)
    for isa, trace in traces.items():
        results = BatchCore(lanes[isa]).run(trace)
        for (way, memory), result in zip(points[isa], results):
            assert result_digest(result) == \
                GOLDEN_DIGESTS[("idct", isa, way, memory)]


# --- synthetic corner cases ----------------------------------------------------

def _i(r):
    return reg(RegPool.INT, r)


def _m(r):
    return reg(RegPool.MED, r)


def _a(r):
    return reg(RegPool.ACC, r)


def _f(r):
    return reg(RegPool.FP, r)


def _mixed(n):
    """Every row kind, vector lengths, branches, jumps, nops, stores."""
    rows = []
    for i in range(n):
        k = i % 9
        if k == 0:
            rows.append(DynInstr(ALPHA["addq"], srcs=(_i(i % 7), _i(3)),
                                 dsts=(_i((i + 1) % 7),)))
        elif k == 1:
            rows.append(DynInstr(ALPHA["ldq"], srcs=(_i(2),),
                                 dsts=(_i(i % 7),), addr=0x1000 + 8 * i,
                                 nbytes=8))
        elif k == 2:
            rows.append(DynInstr(MOM["momldq"], srcs=(_i(4),),
                                 dsts=(_m(i % 5),), addr=0x2000 + 64 * i,
                                 nbytes=8, stride=32, vl=1 + i % 16))
        elif k == 3:
            rows.append(DynInstr(MOM["paddb"], vl=i % 17,
                                 srcs=(_m(0), _m(1)), dsts=(_m(2),)))
        elif k == 4:
            rows.append(DynInstr(ALPHA["bne"], srcs=(_i(1),),
                                 taken=bool(i % 3), site=1 + i % 23))
        elif k == 5:
            rows.append(DynInstr(MOM["mommpvb"], vl=1 + i % 16,
                                 srcs=(_m(i % 4), _a(0)), dsts=(_a(0),)))
        elif k == 6:
            rows.append(DynInstr(ALPHA["divq"], srcs=(_i(5), _i(6)),
                                 dsts=(_i(5),)))
        elif k == 7:
            rows.append(DynInstr(ALPHA["br"], site=40 + i % 5))
        else:
            rows.append(DynInstr(MOM["momstq"], srcs=(_m(2), _i(4)),
                                 addr=0x9000 + 16 * i, nbytes=8, stride=8,
                                 vl=4) if i % 2 else DynInstr(ALPHA["nop"]))
    return rows


def _trace(rows, *, chunk_rows=1 << 16, isa="mom"):
    trace = Trace(isa, chunk_rows=chunk_rows)
    for row in rows:
        trace.append(row)
    return trace


@pytest.mark.parametrize("chunk_rows", [7, 16, 1000])
def test_chunks_that_do_not_line_up_with_blocks(chunk_rows):
    trace = _trace(_mixed(301), chunk_rows=chunk_rows)
    assert_decode_parity(trace, block=16, ring=32, dep_cap=8)


def test_truncated_chunk_head_and_unsealed_tail():
    trace = _trace(_mixed(200), chunk_rows=9)
    trace.truncate(121)                 # 13 whole chunks + a 4-row head
    assert trace._stage.op == [] and trace._chunks[-1].n == 4
    assert_decode_parity(trace, block=16, ring=32)
    for row in _mixed(30):              # now an unsealed staging tail
        trace.append(row)
    assert len(trace._stage) == 3
    assert_decode_parity(trace, block=16, ring=32)


def test_unsealed_tail_only():
    trace = _trace(_mixed(50))
    assert not trace._chunks
    assert_decode_parity(trace, block=16, ring=32)
    assert_decode_parity(trace, block=64, ring=128)   # one short block


def test_empty_trace():
    trace = Trace("mom")
    assert assert_decode_parity(trace, block=16, ring=32) == 0
    lanes = [Core(machine_config(4, "mom"), PerfectMemory(1, 2, 1))]
    (result,) = BatchCore(lanes).run(trace)
    assert result.cycles == 0 and result.instructions == 0


def test_repeated_and_self_referencing_sources():
    rows = [
        DynInstr(ALPHA["addq"], srcs=(_i(1),), dsts=(_i(1),)),
        DynInstr(ALPHA["addq"], srcs=(_i(1), _i(1)), dsts=(_i(2),)),
        DynInstr(ALPHA["addq"], srcs=(_i(2), _i(1), _i(2)), dsts=(_i(2),)),
        DynInstr(ALPHA["addq"], srcs=(_i(2),), dsts=(_i(2), _i(2))),
        DynInstr(ALPHA["addq"], srcs=(_i(2), _i(2)), dsts=(_i(2),)),
        DynInstr(ALPHA["addq"], srcs=(_i(9),), dsts=(_i(9),)),
    ] * 5
    trace = _trace(rows, isa="alpha")
    # Block 4 puts a self-reference on every block boundary.
    assert_decode_parity(trace, block=4, ring=8)
    assert_decode_parity(trace, block=64, ring=64)


def test_multi_destination_rows_across_pools():
    """Several destinations per row, several pools per row, repeated
    pools (charges sum, the admission check takes the max) and media
    destinations charged VL rows."""
    rows = []
    for vl in (0, 1, 2, 16, 300):
        rows += [
            DynInstr(MOM["paddb"], vl=vl, srcs=(_m(1),),
                     dsts=(_m(2), _m(3), _i(4), _a(1))),
            DynInstr(MOM["momldq"], vl=vl, addr=0x100, nbytes=8, stride=8,
                     srcs=(_i(4),), dsts=(_m(1), _f(2), _f(3), _i(5))),
            DynInstr(MOM["mommpvb"], vl=vl, srcs=(_m(2), _a(1)),
                     dsts=(_a(1), _a(2), _m(7), _m(7))),
            DynInstr(ALPHA["addq"], srcs=(_i(5),),
                     dsts=(_i(1), _i(2), _i(3), _f(1), _f(2))),
        ]
    assert_decode_parity(_trace(rows), block=8, ring=16)


def test_both_zero_idioms():
    """clracc (MDMX) and momzero (MOM) are elided in the ``_z`` rings."""
    rows = [
        DynInstr(MDMX["clracc"], dsts=(_a(0),)),
        DynInstr(MDMX["pmaddab"], srcs=(_m(1), _a(0)), dsts=(_a(0),)),
        DynInstr(MOM["momzero"], vl=16, dsts=(_m(3),)),
        DynInstr(MOM["paddb"], vl=16, srcs=(_m(3), _m(3)), dsts=(_m(4),)),
        DynInstr(MOM["momzero"], vl=1, dsts=(_m(3), _i(2))),
    ] * 7
    trace = _trace(rows)
    new = _SharedDecode(trace, 32, CTL_CLASSES, 64, 64)
    new.decode_block()
    assert new.alloc_raw[0] and not new.alloc_z[0]
    assert new.alloc_raw[2] and not new.alloc_z[2]
    assert_decode_parity(trace, block=8, ring=16)


@pytest.mark.parametrize("dep_cap", [1, 3, 8])
def test_dependence_distance_at_the_cap(dep_cap):
    """A producer exactly ``dep_cap`` rows back is an edge; one more row
    back is not -- within a block and across block boundaries."""
    rows = []
    for distance in (dep_cap, dep_cap + 1):
        rows.append(DynInstr(ALPHA["addq"], dsts=(_i(20),)))
        rows += [DynInstr(ALPHA["nop"])] * (distance - 1)
        rows.append(DynInstr(ALPHA["addq"], srcs=(_i(20),), dsts=(_i(21),)))
    trace = _trace(rows * 3, isa="alpha")
    new = _SharedDecode(trace, dep_cap, CTL_CLASSES, 64, 64)
    new.decode_block()
    assert new.deps[dep_cap] == (dep_cap,)
    assert new.deps[2 * dep_cap + 2] is None
    for block in (1, 2, 4, 8):
        assert_decode_parity(trace, block=block, ring=2 * block,
                             dep_cap=dep_cap)


def test_group_rows_compacts_before_overflow():
    """Row grouping stays exact when the folded key would overflow int64."""
    rng = np.random.default_rng(7)
    cols = [rng.integers(0, 3, 500) * (1 << 40) for _ in range(3)]
    first, ids = _group_rows([(c, 1 << 42) for c in cols])
    keys = list(zip(*(c.tolist() for c in cols)))
    assert len(first) == len(set(keys))
    for row, gid in enumerate(ids.tolist()):
        assert keys[first[gid]] == keys[row]


# --- out-of-range register operands ---------------------------------------------

@pytest.mark.parametrize("operand", [-5, len(RegPool) << 8],
                         ids=("negative", "past-last-pool"))
@pytest.mark.parametrize("field", ["srcs", "dsts"])
def test_out_of_range_operand_rejected_at_seal(operand, field):
    trace = Trace("alpha", chunk_rows=4)
    for _ in range(3):
        trace.append(DynInstr(ALPHA["addq"], srcs=(_i(1),), dsts=(_i(2),)))
    bad = DynInstr(ALPHA["addq"], **{field: (_i(1), operand)})
    with pytest.raises(ValueError, match="register operand"):
        trace.append(bad)              # the fourth row seals the chunk
    if field == "dsts":
        with pytest.raises(ValueError):
            _Record(bad)               # the reference constructor agrees


@pytest.mark.parametrize("operand", [-5, len(RegPool) << 8],
                         ids=("negative", "past-last-pool"))
def test_out_of_range_operand_rejected_in_unsealed_tail(operand):
    trace = _trace([DynInstr(ALPHA["addq"], srcs=(_i(1),), dsts=(_i(2),)),
                    DynInstr(ALPHA["addq"], dsts=(operand,))], isa="alpha")
    with pytest.raises(ValueError, match="register operand"):
        list(trace.iter_column_blocks(16))
    lanes = [Core(machine_config(4, "alpha"), PerfectMemory(1, 2, 1))]
    with pytest.raises(ValueError, match="register operand"):
        BatchCore(lanes).run(trace)
    with pytest.raises(ValueError, match="register operand"):
        Core(machine_config(4, "alpha"), PerfectMemory(1, 2, 1)).run(trace)


# --- memory rows without an address ------------------------------------------

@pytest.mark.parametrize("memory", ["perfect", "cache"])
def test_memory_row_without_address_rejected(memory):
    """Every lane type refuses it at decode, before any model sees it."""
    rows = [DynInstr(ALPHA["addq"], srcs=(_i(1),), dsts=(_i(2),)),
            DynInstr(ALPHA["ldq"], srcs=(_i(2),), dsts=(_i(3),), nbytes=8)]
    trace = _trace(rows * 3, isa="alpha")
    lane = Core(machine_config(4, "alpha"), make_memsys(memory, 4, "alpha"))
    with pytest.raises(ValueError, match="memory row 1 has no address"):
        BatchCore([lane]).run(trace)


# --- the decode inside BatchCore ---------------------------------------------

def test_batch_with_forced_small_blocks_matches_core(monkeypatch):
    """The whole engine over a small-block decode, cache and perfect
    memory lanes mixed, against per-point busy-wait oracle runs."""
    trace = _trace(_mixed(3000), chunk_rows=700)
    monkeypatch.setattr(BatchCore, "BLOCK", 128)
    monkeypatch.setattr(BatchCore, "RING", 256)
    points = [(2, "perfect"), (4, "latency50"), (4, "cache"),
              (8, "vectorcache")]
    lanes = [Core(machine_config(way, "mom"), make_memsys(label, way, "mom"))
             for way, label in points]
    results = BatchCore(lanes).run(trace)
    for (way, label), result in zip(points, results):
        core = Core(machine_config(way, "mom"), make_memsys(label, way, "mom"))
        assert result_digest(result) == result_digest(
            core.run_reference(trace)), (way, label)


# --- replayed calls against the same rows written one by one ----------------------

#: Every ring the engine reads, predictor classes apart.
_ENGINE_RINGS = ("op_raw", "op_ac", "deps", "chains", "ismem", "addr",
                 "nbytes", "stride", "alloc_raw", "alloc_z", "chk",
                 "smask_raw", "smask_z", "commit_if_raw", "commit_if_z",
                 "rel_raw", "rel_z")


def _call_rows(call=0):
    """One replayable call (44 rows) as canonical tuples: rows 0 and 40
    read registers written before the call (``i1``, ``i2``; ``i9``), row
    40 also has an edge 40 rows long inside it, a MOM load with a VL
    chains on the row before it, a zeroing idiom, a row with repeated
    sources and destinations in two pools, a self-referencing row, media
    rows at VL 8 (chaining on the load) and 16 with no address, a store,
    a conditional branch and a jump.  ``call`` moves the addresses and
    flips the outcomes."""
    addr = 0x4000 + 256 * call
    plain = (None, 0, 0, 1, None, 0)
    rows = [
        (ALPHA["addq"], (_i(1), _i(2)), (_i(3),)) + plain,
        (ALPHA["ldq"], (_i(3),), (_i(4),), addr, 8, 0, 1, None, 0),
        (MOM["momldq"], (_i(4),), (_m(1),), addr + 64, 8, 8, 8, None, 0),
        (MOM["momzero"], (), (_m(2),)) + plain,
        (MOM["paddb"], (_m(1), _m(2), _m(1)), (_m(3), _i(5))) + plain,
        (ALPHA["bne"], (_i(5),), (), None, 0, 0, 1, call % 2 == 0, 3),
        (MOM["paddb"], (_m(1), _m(3)), (_m(4),), None, 0, 0, 8, None, 0),
        (MOM["pmaxsh"], (_m(4), _m(4)), (_m(5),), None, 0, 0, 16, None, 0),
    ]
    rows += [(ALPHA["nop"], (), ()) + plain] * 32
    rows += [
        (ALPHA["addq"], (_i(3), _i(9)), (_i(6),)) + plain,
        (ALPHA["stq"], (_i(6), _i(4)), (), addr + 8, 8, 0, 1, None, 0),
        (ALPHA["br"], (), (), None, 0, 0, 1, True, 9),
        (ALPHA["addq"], (_i(6), _i(6)), (_i(6),)) + plain,
    ]
    return rows


_SKELETON = RowSkeleton(_call_rows())


def _call_values(call):
    rows = _call_rows(call)
    return ([r[3] for r in rows if r[3] is not None],
            [r[7] for r in rows if r[7] is not None], 3 + call % 5)


def _twin_traces(pattern, chunk_rows=1 << 16):
    """The same rows written two ways: ``pattern`` items are a call
    number (the replayed trace writes the call with ``emit_skeleton``,
    the other row by row) or a number of :func:`_mixed` rows (both
    append them)."""
    replayed = Trace("mom", chunk_rows=chunk_rows)
    rowwise = Trace("mom", chunk_rows=chunk_rows)
    for kind, value in pattern:
        if kind == "call":
            values = _call_values(value)
            replayed.emit_skeleton(_SKELETON, *values)
            for row in _SKELETON.rows(*values):
                rowwise.emit(*row)
        else:
            for row in _mixed(value):
                replayed.append(row)
                rowwise.append(row)
    return replayed, rowwise


#: Calls back to back, calls between per-row rows, a call at each end.
PATTERN = ([("call", 0), ("call", 1), ("rows", 5), ("call", 2)]
           + [("rows", 30), ("call", 3), ("call", 4), ("rows", 1)] * 3
           + [("call", 5)])


def assert_twin_decode(replayed, rowwise, *, block, ring, dep_cap):
    """Decode both traces, comparing every ring after every block; the
    replayed one must decode its calls from the skeleton."""
    assert replayed.calls and not rowwise.calls
    got = _SharedDecode(replayed, dep_cap, CTL_CLASSES, block, ring)
    want = _SharedDecode(rowwise, dep_cap, CTL_CLASSES, block, ring)
    while want.avail < want.n:
        got.decode_block()
        want.decode_block()
        assert got.avail == want.avail
        for name in _ENGINE_RINGS:
            assert repr(getattr(got, name)) == repr(getattr(want, name)), \
                (name, want.avail)
        for key, state in want.ctl.items():
            for field in _CtlState.__slots__:
                assert repr(getattr(got.ctl[key], field)) == \
                    repr(getattr(state, field)), (key, field)
    assert list(got._skeletons) == [_SKELETON]
    assert_decode_parity(replayed, block=block, ring=ring, dep_cap=dep_cap)


@pytest.mark.parametrize("dep_cap", [1, 8, 32, 64])
@pytest.mark.parametrize("block", [8, 32, 64, 1024])
def test_replayed_calls_decode_as_rows(block, dep_cap):
    """Blocks of 8 and 32 rows cut every 44-row call, 64 cuts some and
    1024 holds many; caps of 1, 8 and 32 fall below the call's 40-row
    internal edge (and keep row 40's read from before the call out of
    reach), 64 reaches both."""
    replayed, rowwise = _twin_traces(PATTERN, chunk_rows=100)
    assert trace_rows(replayed) == trace_rows(rowwise)
    assert_twin_decode(replayed, rowwise, block=block, ring=2 * block,
                       dep_cap=dep_cap)


def trace_rows(trace):
    return list(trace.iter_field_tuples())


@pytest.mark.parametrize("cut", [3, 44 + 20, 44 * 2 + 5 + 43])
@pytest.mark.parametrize("chunk_rows", [50, 1 << 16])
def test_call_cut_by_truncate(cut, chunk_rows):
    """A call ``truncate`` cuts keeps its head in the call table and
    decodes like the rows left; rows written afterwards decode too."""
    replayed, rowwise = _twin_traces(PATTERN, chunk_rows=chunk_rows)
    for trace in (replayed, rowwise):
        trace.truncate(cut)
    start, end, skeleton = replayed.calls[-1]
    assert end == cut and start < cut and skeleton is _SKELETON
    assert_twin_decode(replayed, rowwise, block=16, ring=32, dep_cap=32)
    more_replayed, more_rowwise = _twin_traces(PATTERN[:4], chunk_rows)
    replayed.extend(more_replayed)
    rowwise.extend(more_rowwise)
    assert_twin_decode(replayed, rowwise, block=16, ring=32, dep_cap=32)


def test_traces_stitched_by_extend():
    """``extend`` carries the other trace's calls, moved down by this
    trace's length -- self-extension included."""
    head, head_rows = _twin_traces(PATTERN[:6], chunk_rows=64)
    tail, tail_rows = _twin_traces(PATTERN[6:], chunk_rows=64)
    shift = len(head)
    calls = head.calls + tuple((s + shift, e + shift, sk)
                               for s, e, sk in tail.calls)
    head.extend(tail)
    head_rows.extend(tail_rows)
    assert head.calls == calls
    assert_twin_decode(head, head_rows, block=32, ring=64, dep_cap=32)
    head.extend(head)
    head_rows.extend(head_rows)
    assert len(head.calls) == 2 * len(calls)
    assert_twin_decode(head, head_rows, block=64, ring=128, dep_cap=64)


def test_lanes_with_mixed_rob_sizes():
    """One batch of 1-, 2-, 4- and 8-way lanes (ROBs of 8 to 64, so the
    cap is the 8-way's) on perfect and cache memory: each lane equals its
    busy-wait oracle run, on the replayed trace and its twin."""
    replayed, rowwise = _twin_traces(PATTERN * 4, chunk_rows=300)
    points = [(1, "perfect"), (2, "cache"), (4, "perfect"), (8, "cache")]

    def lanes():
        return [Core(machine_config(way, "mom"), make_memsys(m, way, "mom"))
                for way, m in points]

    for trace in (replayed, rowwise):
        results = BatchCore(lanes()).run(trace)
        for core, result in zip(lanes(), results):
            assert result_digest(result) == result_digest(
                core.run_reference(trace))
