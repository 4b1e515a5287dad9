"""Columnar trace store: chunk geometry, digests, mutation, writers.

The contract under test (DESIGN.md section 5): the structure-of-arrays
encoding behind :class:`~repro.emulib.trace.Trace` is invisible at the
API -- iteration yields equal :class:`~repro.emulib.trace.DynInstr`
objects, digests are bit-identical to the historical list encoding and
independent of chunk boundaries and of which writer staged a row,
``extend`` copies rows by value, and builders write rows without
constructing a ``DynInstr``.
"""

from itertools import product

import numpy as np
import pytest

from repro.apps import APP_ISAS, APP_ORDER, APPS
from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore
from repro.emulib.fingerprint import trace_digest
from repro.emulib.trace import (CHUNK_ROWS, DynInstr, RowSkeleton, Trace,
                                reg)
from repro.exp.engine import built_app
from repro.isa.alpha import ALPHA
from repro.core.mom_isa import MOM
from repro.isa.model import InstrClass, RegPool
from repro.kernels import KERNELS, build_and_check
from repro.memsys import PerfectMemory


def _mixed_rows(n, numpy_typed=False):
    """A deterministic mix of scalar / vector / memory / branch rows.

    ``numpy_typed`` gives the same rows with numpy scalars where a caller
    might hold them: ``np.int16`` operands, ``np.int64`` addr/stride and
    ``np.bool_`` taken.
    """
    num = np.int64 if numpy_typed else int
    flag = np.bool_ if numpy_typed else bool

    def ops(*encoded):
        return tuple(np.int16(e) for e in encoded) if numpy_typed else encoded

    rows = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            rows.append(DynInstr(ALPHA["addq"],
                                 srcs=ops(reg(RegPool.INT, i % 7)),
                                 dsts=ops(reg(RegPool.INT, (i + 1) % 7))))
        elif kind == 1:
            rows.append(DynInstr(ALPHA["ldq"], addr=num(0x1000 + 8 * i),
                                 nbytes=8,
                                 dsts=ops(reg(RegPool.INT, i % 7))))
        elif kind == 2:
            rows.append(DynInstr(MOM["momldq"], addr=num(0x2000 + 64 * i),
                                 nbytes=8, stride=num(32), vl=4 + i % 12,
                                 dsts=ops(reg(RegPool.MED, i % 5))))
        elif kind == 3:
            rows.append(DynInstr(MOM["paddb"], vl=16,
                                 srcs=ops(reg(RegPool.MED, 0),
                                          reg(RegPool.MED, 1)),
                                 dsts=ops(reg(RegPool.MED, 2))))
        else:
            rows.append(DynInstr(ALPHA["bne"], srcs=ops(reg(RegPool.INT, 1)),
                                 taken=flag(i % 3), site=1 + i % 4))
    return rows


def _fill(trace, rows):
    for row in rows:
        trace.append(row)
    return trace


def _fill_emit(trace, rows):
    """Write ``rows`` through the row writer: operands as plain-int tuples
    (its contract), the scalar fields exactly as given."""
    for r in rows:
        trace.emit(r.op, tuple(map(int, r.srcs)), tuple(map(int, r.dsts)),
                   r.addr, r.nbytes, r.stride, r.vl, r.taken, r.site)
    return trace


WRITERS = {"append": _fill, "emit": _fill_emit}


def _assert_instr_equal(a, b):
    assert a.op is b.op
    for f in ("srcs", "dsts", "addr", "nbytes", "stride", "vl", "taken",
              "site"):
        assert getattr(a, f) == getattr(b, f), f


# --- chunk-boundary edge cases -------------------------------------------------

def test_empty_trace():
    t = Trace("alpha")
    assert len(t) == 0
    assert list(t) == []
    assert t.operation_count() == 0
    assert t.class_histogram() == {} and t.opcode_histogram() == {}
    assert trace_digest(t) == trace_digest(Trace("alpha"))
    with pytest.raises(IndexError):
        t[0]


@pytest.mark.parametrize("n,chunk", [
    (1, 4),          # staging only
    (4, 4),          # exactly one chunk, empty staging
    (8, 4),          # two exact chunks
    (11, 4),         # chunks + staging tail
    (5, CHUNK_ROWS),  # default geometry, staging only
])
def test_roundtrip_across_chunk_geometries(n, chunk):
    rows = _mixed_rows(n)
    t = _fill(Trace("mom", chunk_rows=chunk), rows)
    assert len(t) == n
    for got, want in zip(t, rows):
        _assert_instr_equal(got, want)
    for i in range(n):
        _assert_instr_equal(t[i], rows[i])
        _assert_instr_equal(t[i - n], rows[i])          # negative indexing
    assert [i.op.name for i in t[1:4]] == [r.op.name for r in rows[1:4]]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_digest_independent_of_chunk_geometry(writer):
    """Both writers give the rows and digest of plain-typed rows appended
    in one staging tail, whatever the chunk geometry and even from numpy
    inputs (the staging tail is hashed raw, so a numpy scalar kept there
    would change its ``repr``)."""
    want = _mixed_rows(23)
    want_digest = trace_digest(_fill(Trace("mom"), want))
    for numpy_typed in (False, True):
        rows = _mixed_rows(23, numpy_typed)
        for chunk in (1, 4, 7, 23, CHUNK_ROWS):
            t = WRITERS[writer](Trace("mom", chunk_rows=chunk), rows)
            assert trace_digest(t) == want_digest, (numpy_typed, chunk)
            for got, ref in zip(t, want, strict=True):
                _assert_instr_equal(got, ref)
                assert {type(got.addr), type(got.stride),
                        type(got.taken)} <= {int, bool, type(None)}
                assert {type(v) for v in got.srcs + got.dsts} <= {int}


def test_summary_matches_reference_loop_per_chunk_geometry():
    """Vectorized statistics equal the historical per-record walk."""
    rows = _mixed_rows(37)
    ref_ops = sum(r.vl * max(1, r.op.elem.lanes) for r in rows)
    ref_mem = sum(r.vl for r in rows if r.op.iclass.is_memory)
    ref_branch = sum(1 for r in rows if r.op.iclass == InstrClass.BRANCH)
    for chunk in (3, 37, CHUNK_ROWS):
        t = _fill(Trace("mom", chunk_rows=chunk), rows)
        assert t.operation_count() == ref_ops
        assert t.memory_references() == ref_mem
        assert t.branch_count() == ref_branch
        hist = t.opcode_histogram()
        assert sum(hist.values()) == len(rows)
        assert hist["paddb"] == sum(1 for r in rows if r.op.name == "paddb")


def test_append_after_summary_reseals_and_recounts():
    t = Trace("alpha", chunk_rows=2)
    t.append(DynInstr(ALPHA["addq"]))
    t.append(DynInstr(ALPHA["addq"]))               # seals chunk 0
    assert t.operation_count() == 2                 # caches a summary
    first = t.summary()
    t.append(DynInstr(ALPHA["ldq"], addr=8, nbytes=8))
    assert t.operation_count() == 3                 # invalidated + recounted
    assert t.summary() is not first
    assert t.memory_references() == 1


def test_truncate_across_chunk_boundary():
    rows = _mixed_rows(10)
    t = _fill(Trace("mom", chunk_rows=4), rows)
    t.truncate(6)                                   # cuts into chunk 1
    assert len(t) == 6
    for got, want in zip(t, rows[:6]):
        _assert_instr_equal(got, want)
    assert trace_digest(t) == trace_digest(_fill(Trace("mom"), rows[:6]))
    t.truncate(6)                                   # no-op at exact length
    assert len(t) == 6
    t.truncate(0)
    assert len(t) == 0 and list(t) == []
    with pytest.raises(ValueError):
        t.truncate(-1)


# --- extend: value copy, not aliasing (regression) -----------------------------

def test_extend_copies_rows_instead_of_aliasing():
    a, b = Trace("alpha"), Trace("alpha")
    a.append(DynInstr(ALPHA["addq"], dsts=(reg(RegPool.INT, 0),)))
    b.append(DynInstr(ALPHA["subq"], dsts=(reg(RegPool.INT, 1),)))
    a.extend(b)
    digest_a = trace_digest(a)
    summary_a = a.summary()

    # Replacing the source trace's row must not reach through to the
    # extended copy (the seed list encoding shared DynInstr instances
    # here, so a later in-place edit corrupted both streams and silently
    # desynchronized whichever cached TraceSummary the other trace held).
    b.truncate(0)
    b.append(DynInstr(ALPHA["mulq"], dsts=(reg(RegPool.INT, 2),)))
    assert b.opcode_histogram() == {"mulq": 1}
    assert trace_digest(a) == digest_a
    assert a[1].op.name == "subq"
    assert a.summary() is summary_a
    assert a.opcode_histogram() == {"addq": 1, "subq": 1}

    # And symmetrically: replacing the copied row leaves the source alone.
    a.truncate(1)
    a.append(DynInstr(ALPHA["bis"], dsts=(reg(RegPool.INT, 3),)))
    assert b[0].op.name == "mulq"
    assert a.opcode_histogram() == {"addq": 1, "bis": 1}


def test_self_extend_doubles_the_stream():
    t = _fill(Trace("mom"), _mixed_rows(5))
    rows = list(t)
    t.extend(t)
    assert len(t) == 10
    for got, want in zip(t, rows + rows):
        _assert_instr_equal(got, want)


# --- storage economics ---------------------------------------------------------

def test_columnar_storage_is_compact():
    """Sealed storage stays within tens of bytes per instruction -- the
    whole point of the encoding (the object form measured ~225 B/instr).
    The synthetic mix carries scalar fields on four rows in five, so its
    sparse columns cost most (26.7 B/row).  Every Fig. 7 trace keeps no
    staged row after one simulation and seals at <= 18 B/row."""
    t = _fill(Trace("mom", chunk_rows=1024), _mixed_rows(4096))
    per_row = t.storage_bytes() / 4096
    assert per_row < 27, per_row
    for app in APP_ORDER:
        for isa in APP_ISAS:
            trace = built_app(app, isa).trace
            BatchCore([Core(machine_config(4, isa),
                            PerfectMemory(1, 2, 1))]).run(trace)
            assert not len(trace._stage), (app, isa)
            per_row = trace.storage_bytes() / len(trace)
            assert per_row <= 18, (app, isa, per_row)


def test_storage_bytes_counts_the_staging_tail():
    """A column reader seals the tail, so the bytes are those of the same
    rows sealed by the writer, not 0."""
    rows = _mixed_rows(10)
    staged = _fill(Trace("mom"), rows)
    assert len(staged._stage) == 10
    sealed = _fill(Trace("mom", chunk_rows=10), rows)
    assert not len(sealed._stage)
    assert staged.storage_bytes() == sealed.storage_bytes() > 0
    assert not len(staged._stage)


@pytest.mark.parametrize("chunk", [4, CHUNK_ROWS])
@pytest.mark.parametrize("started", [0, 1, 9])
def test_sealing_never_cuts_a_live_reader_short(chunk, started):
    """The first column reader seals the staging tail by swapping in a
    fresh one, never by clearing the old lists in place, so row iterators
    already walking the tail (or not yet started) still yield every row
    once, in order; rows appended afterwards read back too."""
    rows = _mixed_rows(11)
    t = _fill(Trace("mom", chunk_rows=chunk), rows)
    want = list(t.iter_field_tuples())
    objects, fields = iter(t), t.iter_field_tuples()
    got_objects = [next(objects) for _ in range(started)]
    got_fields = [next(fields) for _ in range(started)]
    assert len(t._stage) == 11 % chunk
    assert t.operation_count() == sum(
        r.vl * max(1, r.op.elem.lanes) for r in rows)
    assert not len(t._stage)
    assert sum(block.n for block in t.iter_column_blocks(3)) == 11
    got_objects += objects
    got_fields += fields
    for got, ref in zip(got_objects, rows, strict=True):
        _assert_instr_equal(got, ref)
    assert got_fields == want
    more = _mixed_rows(17)[11:]
    _fill(t, more)
    assert trace_digest(t) == trace_digest(_fill(Trace("mom"), rows + more))


def test_vl_column_survives_large_values():
    t = Trace("mom", chunk_rows=2)
    big = DynInstr(MOM["momldq"], addr=0x4000, nbytes=8, stride=1 << 40,
                   vl=255, dsts=(reg(RegPool.MED, 0),))
    t.append(big)
    t.append(DynInstr(ALPHA["addq"]))       # seals the chunk
    _assert_instr_equal(t[0], big)
    assert np.int64(t[0].stride) == 1 << 40


# --- the bulk writer: a recorded row skeleton written again ------------------

def _call_rows(call=0, site=7, vl=False):
    """The rows of one emitter-like call, as canonical tuples: plain ALU
    rows, scalar and MOM memory rows (stride and VL) and loop branches,
    and with ``vl`` a MOM media row at VL 8 or 16 per iteration.
    ``call`` moves the addresses and flips the outcomes; no opcode is one
    :func:`_mixed_rows` starts with, so the bulk writer interns them."""
    INT, MED = RegPool.INT, RegPool.MED
    rows = []
    for i in range(9):
        rows += [
            (ALPHA["mulq"], (reg(INT, i % 3), reg(INT, 4)), (reg(INT, 5),))
            + (None, 0, 0, 1, None, 0),
            (ALPHA["stq"], (reg(INT, 5), reg(INT, 1)), (),
             0x1000 + 8 * i + 512 * call, 8, 0, 1, None, 0),
            (MOM["momldq"], (reg(INT, 2),), (reg(MED, i % 5),),
             0x2000 + 64 * i + 512 * call, 8, 32, 4 + i, None, 0),
        ]
        if vl:
            rows.append((MOM["pmaxsh"], (reg(MED, i % 5), reg(MED, 6)),
                         (reg(MED, 7),), None, 0, 0, 8 << i % 2, None, 0))
        rows.append((ALPHA["beq"], (reg(INT, 1),), (), None, 0, 0, 1,
                     (i + call) % 2 == 0, site))
    return rows


def _call_values(call, site):
    """The addresses, outcomes and site :func:`_call_rows` ``call`` holds
    (with or without its VL rows)."""
    rows = _call_rows(call, site)
    return ([r[3] for r in rows if r[3] is not None],
            [r[7] for r in rows if r[7] is not None], site)


def test_skeleton_replays_the_rows_it_recorded():
    """A skeleton read back from any row on -- from a sealed chunk on into
    the tail, or from the tail alone -- fills in to the rows written, VL
    rows (no address, no outcome) included."""
    for vl, chunk, start in product((False, True), (1, 5, 36, CHUNK_ROWS),
                                    (0, 3, 17)):
        rows = _call_rows(vl=vl)
        t = _fill(Trace("mom", chunk_rows=chunk), _mixed_rows(start))
        for row in rows:
            t.emit(*row)
        skeleton = t.skeleton(start)
        assert len(skeleton) == len(rows)
        assert (skeleton.addresses, skeleton.branches) == (18, 9)
        assert list(skeleton.rows(*_call_values(0, 7))) == rows
        assert list(skeleton.rows(*_call_values(2, 9))) == _call_rows(2, 9,
                                                                      vl)


def _columns(chunk):
    """Every column of a sealed chunk, operand marks included."""
    columns = {name: getattr(chunk, name) for name in (
        "op", "at", "has_addr", "addr", "nbytes", "stride", "vl", "taken",
        "site")}
    for side in ("src", "dst"):
        for part in ("count", "val", "mark"):
            columns[f"{side}.{part}"] = getattr(getattr(chunk, side), part)
    return columns


def assert_same_store(got, want):
    """Chunk ends, every sealed column (values and dtypes) and the staged
    rows of two traces are equal."""
    assert got._chunk_ends == want._chunk_ends
    for a, b in zip(got._chunks, want._chunks, strict=True):
        assert a.n == b.n
        ours, theirs = _columns(a), _columns(b)
        for name, column in theirs.items():
            assert ours[name].dtype == column.dtype, name
            assert np.array_equal(ours[name], column), name
    assert (list(got._stage.iter_rows())
            == list(want._stage.iter_rows()))


@pytest.mark.parametrize("chunk", [1, 4, 7, 36, 40, CHUNK_ROWS])
def test_bulk_writer_matches_per_row_emit(chunk):
    """The bulk writer leaves the trace per-row emit leaves for the same
    rows: digest, storage bytes, chunk ends, op ids and intern order,
    whatever the chunk geometry (a write may straddle several seals),
    with and without VL rows in the skeleton (which the template fills
    whole)."""
    for vl in (False, True):
        skeleton = RowSkeleton(_call_rows(vl=vl))
        assert (skeleton.addresses, skeleton.branches) == (18, 9)
        bulk = _fill(Trace("mom", chunk_rows=chunk), _mixed_rows(3))
        rowwise = _fill(Trace("mom", chunk_rows=chunk), _mixed_rows(3))
        for call in range(5):
            values = _call_values(call, 7 + call)
            bulk.emit_skeleton(skeleton, *values)
            for row in skeleton.rows(*values):
                rowwise.emit(*row)
            assert trace_digest(bulk) == trace_digest(rowwise)
        assert bulk.opcodes == rowwise.opcodes
        assert [op.name for op in bulk.opcodes[3:]] == [
            "mulq", "stq"] + ["pmaxsh"] * vl + ["beq"]
        for i in range(len(rowwise)):   # staged call pieces cut by a seal too
            _assert_instr_equal(bulk[i], rowwise[i])
        assert_same_store(bulk, rowwise)
        assert bulk.storage_bytes() == rowwise.storage_bytes()
        assert bulk._chunk_ends == rowwise._chunk_ends


@pytest.mark.parametrize("started", [0, 20, 37])
def test_bulk_seal_never_cuts_a_live_reader_short(started):
    """A reader walking the staged tail when the bulk writer seals it
    yields every row of that tail -- the rows staged before the write and
    those the write appended up to the seal -- as per-row emit's would;
    started at 37 it has already passed the tail's last sparse row.  A
    reader not yet started walks the sealed chunk and the new tail."""
    skeleton = RowSkeleton(_call_rows())
    plain = _call_rows()[0]
    got = {}
    for writer in ("bulk", "emit"):
        t = Trace("mom", chunk_rows=40)
        t.emit_skeleton(skeleton, *_call_values(0, 7))
        t.emit(*plain)                      # the tail ends on a plain row
        reader = t.iter_field_tuples()
        head = [next(reader) for _ in range(started)]
        values = _call_values(1, 8)
        if writer == "bulk":
            t.emit_skeleton(skeleton, *values)
        else:
            for row in skeleton.rows(*values):
                t.emit(*row)
        assert t._chunk_ends == [40] and len(t._stage) == 33
        got[writer] = head + list(reader)
        rows = list(t.iter_field_tuples())
        assert got[writer] == (rows[:40] if started else rows)
    assert got["bulk"] == got["emit"]


def _wide_call_rows():
    """A call whose values need every column's wide fallback: 300
    operands in a row (counts past uint8), nbytes past int16, a stride
    past int32, VLs past int16 (a memory row's and a VL row's) and an
    address at the top of 64 bits; the call's site (past int32) widens
    that column too."""
    INT, MED = RegPool.INT, RegPool.MED
    plain = (None, 0, 0, 1, None, 0)
    many = tuple(reg(INT, i % 30) for i in range(300))
    return [
        (ALPHA["addq"], many, (reg(INT, 1),)) + plain,
        (MOM["momldq"], (reg(INT, 2),), (reg(MED, 3),), 0x1000, 1 << 20,
         1 << 40, 1 << 17, None, 0),
        (MOM["paddb"], (reg(MED, 3), reg(MED, 3)), (reg(MED, 4),), None, 0,
         0, 1 << 18, None, 0),
        (ALPHA["ldq"], (reg(INT, 2),), (reg(INT, 4),), (1 << 64) - 8, 8, 0,
         1, None, 0),
        (ALPHA["bne"], (reg(INT, 4),), (), None, 0, 0, 1, True, 1 << 40),
    ]


@pytest.mark.parametrize("chunk", [3, 5, 1 << 17])
def test_bulk_writer_seals_wide_columns_as_per_row_emit(chunk):
    """Wide fallbacks -- and, in a chunk of more than 65536 rows, the
    int64 row numbers of the sparse rows -- come out column by column and
    dtype by dtype as per-row emit seals them."""
    rows = _wide_call_rows()
    skeleton = RowSkeleton(rows)
    values = ([r[3] for r in rows if r[3] is not None], [True], 1 << 40)
    bulk, rowwise = Trace("mom", chunk_rows=chunk), Trace("mom",
                                                          chunk_rows=chunk)
    filler = RowSkeleton(_call_rows())
    for call in range(3 if chunk < 100 else 1900):
        if chunk > 100 or call % 2:
            fill = _call_values(call, 7)
            bulk.emit_skeleton(filler, *fill)
            for row in filler.rows(*fill):
                rowwise.emit(*row)
        bulk.emit_skeleton(skeleton, *values)
        for row in rows:
            rowwise.emit(*row)
    assert bulk.storage_bytes() == rowwise.storage_bytes()
    assert_same_store(bulk, rowwise)
    chunk0 = bulk._chunks[0]
    assert chunk0.src.count.dtype == np.int64
    if chunk > 65536:
        assert len(bulk._chunks) == 1 and chunk0.at.dtype == np.int64
    else:
        assert any(chunk.stride.dtype == np.int64 for chunk in bulk._chunks)


def _interleaved():
    """Twin traces holding four calls, each followed by per-row rows --
    a sparse one first -- bulk-written and written row by row."""
    skeleton = RowSkeleton(_call_rows())
    bulk, rowwise = Trace("mom"), Trace("mom")
    for call in range(4):
        values = _call_values(call, 7 + call)
        bulk.emit_skeleton(skeleton, *values)
        for row in skeleton.rows(*values):
            rowwise.emit(*row)
        for row in _mixed_rows(call * 3 + 2)[1:]:
            bulk.append(row)
            rowwise.append(row)
    return bulk, rowwise


def test_bulk_writes_between_rows_read_back_in_order():
    """Calls and per-row rows interleaved in one tail read back in write
    order -- whole, from any row on, and row by row by index -- seal to
    the same chunks, and truncating anywhere, inside a call included,
    keeps exactly the rows before the cut, in the tail and in the call
    table."""
    bulk, rowwise = _interleaved()
    want = list(rowwise.iter_field_tuples())
    assert list(bulk.iter_field_tuples()) == want
    for start in (0, 1, 35, 36, 37, 80, len(want) - 1):
        assert list(bulk._raw_rows(start)) == list(rowwise._raw_rows(start))
    for i in range(len(want)):
        _assert_instr_equal(bulk[i], rowwise[i])
    assert [end - start for start, end, _ in bulk.calls] == [36] * 4
    for cut in (100, 75, 40, 36, 20):
        bulk.truncate(cut)
        rowwise.truncate(cut)
        assert list(bulk.iter_field_tuples()) == want[:cut]
        assert bulk.calls[-1][1] == min(cut, bulk.calls[-1][0] + 36)
        assert_same_store(bulk, rowwise)
    bulk.truncate(0)
    assert bulk.calls == () and len(bulk._stage) == 0
    bulk, rowwise = _interleaved()
    assert bulk.storage_bytes() == rowwise.storage_bytes()
    assert_same_store(bulk, rowwise)


@pytest.mark.parametrize("started", [0, 5, 37])
def test_bulk_reader_sees_rows_written_while_it_walks(started):
    """A reader walking a tail of calls and per-row rows also yields the
    calls and rows written after it started, in order."""
    skeleton = RowSkeleton(_call_rows())
    t = Trace("mom")
    t.emit_skeleton(skeleton, *_call_values(0, 7))
    t.append(_mixed_rows(1)[0])
    reader = t.iter_field_tuples()
    got = [next(reader) for _ in range(started)]
    t.emit_skeleton(skeleton, *_call_values(1, 8))
    for row in _mixed_rows(4):
        t.append(row)
    t.emit_skeleton(skeleton, *_call_values(2, 9))
    assert got + list(reader) == list(t.iter_field_tuples())


def test_failed_bulk_seal_leaves_the_tail_staged():
    """A seal the bulk writer triggers and that raises leaves every row
    written before it staged -- as per-row emit leaves them -- and the
    call out of the call table; the rows still read back."""
    skeleton = RowSkeleton(_call_rows())
    bad = DynInstr(ALPHA["addq"], srcs=(reg(RegPool.INT, 1), -5))
    got = {}
    for writer in ("bulk", "emit"):
        t = Trace("mom", chunk_rows=20)
        t.append(_mixed_rows(1)[0])
        t.append(bad)
        values = _call_values(0, 7)
        with pytest.raises(ValueError, match="register operand -5"):
            if writer == "bulk":
                t.emit_skeleton(skeleton, *values)
            else:
                for row in skeleton.rows(*values):
                    t.emit(*row)
        assert len(t) == 20 and not t._chunks and len(t._stage) == 20
        assert t.calls == ()
        got[writer] = list(t.iter_field_tuples())
    assert got["bulk"] == got["emit"]


def test_skeleton_shares_operands_apart_from_field_kinds():
    """Operands ``(1, 0, 1, 0)``, which compare equal to a memory row's
    ``(nbytes, stride, vl, False)``, replay as the ints written: a
    ``False`` operand would change the row's digest."""
    INT = RegPool.INT
    ops = tuple(reg(INT, i) for i in (1, 0, 1, 0))
    rows = [(ALPHA["ldbu"], (reg(INT, 2),), (reg(INT, 3),), 0x1000, 1, 0, 1,
             None, 0),
            (ALPHA["addq"], ops, (reg(INT, 3),)) + (None, 0, 0, 1, None, 0),
            (ALPHA["addq"], tuple(list(ops)), (reg(INT, 3),))
            + (None, 0, 0, 1, None, 0)]
    skeleton = RowSkeleton(rows)
    t = Trace("alpha")
    t.emit_skeleton(skeleton, [0x1000], [], 0)
    assert list(t.iter_field_tuples())[1][2] == ops
    assert {type(v) for v in list(t.iter_field_tuples())[1][2]} == {int}


def test_skeleton_rejects_rows_it_cannot_fill():
    """Only plain, VL, memory and branch rows can be replayed, and a write
    must supply one address per memory row and one outcome per branch."""
    INT = RegPool.INT
    for fields in [(None, 8, 0, 1, None, 0),          # nbytes but no address
                   (None, 0, 8, 1, None, 0),          # stride but no address
                   (0x1000, 8, 0, 1, True, 3),        # address and outcome
                   (None, 8, 0, 1, True, 3),          # branch with nbytes
                   (0x1000, 8, 0, 1, None, 3)]:       # memory row with a site
        with pytest.raises(ValueError, match="row 1"):
            RowSkeleton([_call_rows()[0], (ALPHA["addq"], (), (reg(INT, 1),))
                         + fields])
    with pytest.raises(ValueError, match=r"register operand -5 outside \["):
        RowSkeleton([_call_rows()[0], (ALPHA["addq"], (reg(INT, 1), -5),
                                       (reg(INT, 1),), None, 0, 0, 1, None, 0)])
    skeleton = RowSkeleton(_call_rows())
    addrs, taken, site = _call_values(0, 7)
    t = Trace("mom")
    for bad in [(addrs[:-1], taken), (addrs, taken + [True])]:
        with pytest.raises(ValueError, match="18 addresses and 9 branch"):
            t.emit_skeleton(skeleton, *bad, site)
    assert len(t) == 0


# --- range checks on the way into columns --------------------------------------

@pytest.mark.parametrize("field,value", [
    ("addr", -8),
    ("addr", 1 << 64),
    ("nbytes", 1 << 70),
    ("stride", 1 << 70),
    ("vl", 1 << 70),
    ("site", 1 << 70),
], ids=["addr-negative", "addr-2^64", "nbytes-2^70", "stride-2^70",
        "vl-2^70", "site-2^70"])
def test_out_of_range_scalar_column_names_the_column(field, value):
    """A value no column dtype can hold is a ``ValueError`` naming the
    column, as for operands, by the time the first column reader returns:
    whether the row is converted by sealing or on its way out of the
    staging tail, recorded into a skeleton (a memory row, or a branch row
    for ``site``), or passed to the bulk writer as a call's address or
    site."""
    row = dict(addr=0x1000, nbytes=8, stride=8, vl=4, site=3)
    row[field] = value
    bad = DynInstr(MOM["momldq"], **row)
    message = rf"^{field} value out of range"

    sealing = Trace("mom", chunk_rows=2)
    sealing.append(bad)
    with pytest.raises(ValueError, match=message):
        sealing.append(DynInstr(ALPHA["addq"]))        # seals the chunk

    tail = Trace("mom")
    tail.append(bad)
    with pytest.raises(ValueError, match=message):
        list(tail.iter_column_blocks(8))

    if field == "site":
        recorded = (ALPHA["bne"], (), (), None, 0, 0, 1, True, value)
    else:
        recorded = (MOM["momldq"], (), (), row["addr"], row["nbytes"],
                    row["stride"], row["vl"], None, 0)
    with pytest.raises(ValueError, match=message):
        RowSkeleton([recorded])

    if field in ("addr", "site"):
        addrs, taken, site = _call_values(0, 7)
        if field == "addr":
            addrs[-1] = value
        else:
            site = value
        bulk = Trace("mom")
        with pytest.raises(ValueError, match=message):
            bulk.emit_skeleton(RowSkeleton(_call_rows()), addrs, taken, site)
            list(bulk.iter_column_blocks(8))


# --- the build path writes rows, never objects ---------------------------------

@pytest.fixture
def dyninstr_count(monkeypatch):
    """Counts every :class:`DynInstr` constructed while the test runs."""
    made = []
    init = DynInstr.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DynInstr, "__init__", counting_init)
    return made


@pytest.mark.parametrize("isa", ["alpha", "mmx", "mdmx", "mom"])
def test_kernel_build_constructs_no_dyninstr(dyninstr_count, isa):
    spec = KERNELS["idct"]
    built = build_and_check(spec, isa, spec.make_workload(1))
    assert len(built.trace) > 0
    assert not dyninstr_count


def test_app_build_constructs_no_dyninstr(dyninstr_count):
    built = APPS["mpeg2_decode"].build("mom", 1)
    assert len(built.trace) > 0
    assert not dyninstr_count
