"""Dynamic instruction traces.

The builders in this package execute kernels functionally and record one
dynamic instruction per emitted operation -- the same information the paper
obtains by filtering an ATOM-instrumented instruction stream into the Jinks
simulator.  The out-of-order core (:mod:`repro.cpu.core`, whose timing
engine lives in :mod:`repro.cpu.batch`) consumes these records; it never
re-executes data computation.

Storage model
-------------
Frame-scale workloads (a single 720x480 MPEG-2 frame is tens of millions of
dynamic instructions) made the original list-of-:class:`DynInstr` encoding
the limiting factor: ~225 bytes and three heap objects per instruction,
gigabytes per trace, all resident before the first simulated cycle.
:class:`Trace` now stores instructions **columnar**: one structure-of-arrays
chunk per :data:`CHUNK_ROWS` rows (numpy arrays for opcode id / operand CSR /
address / size / stride / VL / branch outcome / site), with a small
plain-list staging buffer for the rows of the not-yet-sealed tail.
Builders write rows through :meth:`Trace.emit`, the one row writer, which
appends each emitted instruction's canonical fields to the staging lists
(the scalar fields only for rows that carry one; sealing fills in the
defaults of the rest): no :class:`DynInstr` is built on the way in.
:class:`DynInstr` stays the read-side type -- :meth:`Trace.append` still
takes one (and hands its fields to the same writer), and iteration and
indexing yield :class:`DynInstr` objects (materialized on demand).  Rows
are only ever appended or cut off the end (:meth:`Trace.truncate`); no
row is edited in place.  The timing engine reads the columns without
materializing the object form: :class:`~repro.cpu.batch.BatchCore`
decodes fixed-size column blocks (:meth:`Trace.iter_column_blocks`,
which cuts blocks across chunk boundaries and converts the staging tail
the way sealing does).  Only the reference core
(:meth:`~repro.cpu.core.Core.run_reference`) and the tests walk the
:class:`DynInstr` view.

Two invariants the tests pin:

* **Digest stability** -- :func:`repro.emulib.fingerprint.trace_digest`
  hashes the same bytes whether a row sits in the staging tail or a sealed
  chunk; field values are plain Python ints/bools/``None`` from the moment
  :meth:`Trace.emit` stages them, so chunk geometry can never leak into a
  digest.
* **Summary equivalence** -- :class:`TraceSummary` statistics are computed
  by vectorized reductions over the columns, but match the historical
  per-record loop integer-for-integer.

Register encoding
-----------------
Operands are encoded as small integers ``(pool << 8) | index`` so the timing
model can use them as dictionary keys and table indices cheaply.  Use
:func:`reg` and :func:`reg_pool` / :func:`reg_index` to build and decode
them.  Rows become columns only through one conversion (sealing, or the
staging tail on its way to a reader), and it rejects any operand outside
``[0, REG_LIMIT)`` -- or any scalar value its column cannot hold -- with
``ValueError``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain

import numpy as np

from ..isa.model import InstrClass, Opcode, RegPool

#: Rows per sealed columnar chunk.  65536 rows cost ~3 MiB of column data;
#: the staging tail holds at most this many Python-object rows, which is
#: what bounds the per-trace object overhead regardless of trace length.
CHUNK_ROWS = 1 << 16

#: ``taken`` column encoding (int8): -1 = not a branch, 0/1 = outcome.
_TAKEN_DECODE = (None, False, True)        # indexed by encoded + 1
_TAKEN_ENCODE = {None: -1, False: 0, True: 1}

#: Encoded operands lie in ``[0, REG_LIMIT)``; sealing rejects the rest.
REG_LIMIT = len(RegPool) << 8


def reg(pool: RegPool, index: int) -> int:
    """Encode an architectural register operand (always a plain ``int``,
    so operand tuples built from it need no per-row conversion)."""
    if index < 0 or index > 0xFF:
        raise ValueError(f"register index {index} out of range")
    return (int(pool) << 8) | int(index)


def reg_pool(encoded: int) -> RegPool:
    """Pool of an encoded operand."""
    return RegPool(encoded >> 8)


def reg_index(encoded: int) -> int:
    """Index of an encoded operand within its pool."""
    return encoded & 0xFF


class DynInstr:
    """One dynamic instruction instance.

    Attributes:
        op: the static :class:`~repro.isa.model.Opcode`.
        srcs: encoded source registers (dependences the core must honour).
        dsts: encoded destination registers.
        addr: first effective address for memory classes, else ``None``.
        nbytes: bytes accessed *per element* for memory classes.
        stride: byte distance between consecutive elements (MOM memory).
        vl: number of vector elements (MOM: rows covered by VL; 1 for
            scalar and MMX/MDMX instructions).
        taken: branch outcome for control classes.
        site: static instruction identity (synthetic PC) -- used by the
            branch predictor and the BTB.
    """

    __slots__ = (
        "op", "srcs", "dsts", "addr", "nbytes", "stride",
        "vl", "taken", "site",
    )

    def __init__(
        self,
        op: Opcode,
        srcs: tuple[int, ...] = (),
        dsts: tuple[int, ...] = (),
        addr: int | None = None,
        nbytes: int = 0,
        stride: int = 0,
        vl: int = 1,
        taken: bool | None = None,
        site: int = 0,
    ) -> None:
        self.op = op
        self.srcs = srcs
        self.dsts = dsts
        self.addr = addr
        self.nbytes = nbytes
        self.stride = stride
        self.vl = vl
        self.taken = taken
        self.site = site

    @property
    def iclass(self) -> InstrClass:
        return self.op.iclass

    def element_addresses(self) -> list[int]:
        """Effective addresses of every element access of this instruction."""
        if self.addr is None:
            return []
        if self.vl == 1 or self.stride == 0:
            return [self.addr]
        return [self.addr + i * self.stride for i in range(self.vl)]

    def __repr__(self) -> str:
        extra = ""
        if self.addr is not None:
            extra = f" @{self.addr:#x}x{self.vl}"
        if self.taken is not None:
            extra = f" taken={self.taken}"
        return f"<{self.op.isa}:{self.op.name}{extra}>"


#: The six scalar fields of a row that carries none of them: an ALU row.
_PLAIN = (None, 0, 0, 1, None, 0)


def _extra_row(extra: tuple) -> int:
    return extra[0]


class _Stage:
    """Staging tail: plain lists for the not-yet-sealed rows.

    ``op``, ``srcs`` and ``dsts`` hold one entry per row.  The six scalar
    fields (``addr``, ``nbytes``, ``stride``, ``vl``, ``taken``, ``site``)
    are sparse: a row that carries any of them -- a memory access, a
    branch, a MOM row with a VL -- adds one ``(row, addr, nbytes, stride,
    vl, taken, site)`` tuple to ``extra``; every other row has the
    defaults :data:`_PLAIN`.  Values are canonical Python objects exactly
    as a :class:`DynInstr` would hold them (``addr``/``taken`` keep their
    ``None``), so reads from the tail need no decoding and sealing is one
    bulk conversion.
    """

    __slots__ = ("op", "srcs", "dsts", "extra")

    def __init__(self) -> None:
        self.op: list[int] = []
        self.srcs: list[tuple[int, ...]] = []
        self.dsts: list[tuple[int, ...]] = []
        self.extra: list[tuple] = []        # ascending by row

    def __len__(self) -> int:
        return len(self.op)

    def clear(self) -> None:
        self.truncate(0)

    def truncate(self, keep: int) -> None:
        del self.op[keep:]
        del self.srcs[keep:]
        del self.dsts[keep:]
        del self.extra[bisect_left(self.extra, keep, key=_extra_row):]

    def row(self, i: int) -> tuple:
        extra = self.extra
        k = bisect_left(extra, i, key=_extra_row)
        fields = (extra[k][1:] if k < len(extra) and extra[k][0] == i
                  else _PLAIN)
        return (self.op[i], self.srcs[i], self.dsts[i]) + fields

    def iter_rows(self):
        extra = iter(self.extra)
        nxt = next(extra, None)
        for i, head in enumerate(zip(self.op, self.srcs, self.dsts)):
            if nxt is not None and nxt[0] == i:
                yield head + nxt[1:]
                nxt = next(extra, None)
            else:
                yield head + _PLAIN

    def vl(self) -> np.ndarray:
        """The ``vl`` column of the staged rows."""
        column = np.ones(len(self), dtype=np.int64)
        if self.extra:
            column[[e[0] for e in self.extra]] = [e[4] for e in self.extra]
        return column


def _csr(tuples: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of operand tuples into (offsets, values) arrays.

    Offsets fit int32 by construction (at most ``CHUNK_ROWS`` rows of a
    few operands each); values fit int16 because an encoded register is
    ``(pool << 8) | index`` with four pools and 8-bit indices.  Anything
    else names no register and raises ``ValueError``: consumers index
    per-register tables with these values.
    """
    offsets = np.zeros(len(tuples) + 1, dtype=np.int32)
    lengths = np.fromiter(map(len, tuples), dtype=np.int32, count=len(tuples))
    np.cumsum(lengths, out=offsets[1:])
    try:
        values = np.fromiter(chain.from_iterable(tuples), dtype=np.int64,
                             count=int(offsets[-1]))
    except OverflowError as exc:
        raise ValueError(f"register operand out of range: {exc}") from None
    if values.size:
        bad = (values < 0) | (values >= REG_LIMIT)
        if bad.any():
            raise ValueError(
                f"register operand {int(values[bad][0])} outside "
                f"[0, {REG_LIMIT})")
    return offsets, values.astype(np.int16)


def ragged_tuples(starts, counts, values) -> np.ndarray:
    """Object array holding, per row, ``tuple(values[start:start+count])``.

    Rows with no values hold ``None``.  Rows are grouped by count, so
    each tuple is built by ``zip`` over gathered columns rather than by a
    Python-level slice per row.
    """
    out = np.empty(len(counts), dtype=object)
    for k in np.flatnonzero(np.bincount(counts)).tolist():
        if k:
            rows = np.flatnonzero(counts == k)
            at = starts[rows]
            out[rows] = np.fromiter(
                zip(*[values[at + t].tolist() for t in range(k)]),
                dtype=object, count=len(rows))
    return out


def _fit(values, small: np.dtype, wide: np.dtype,
         name: str) -> np.ndarray:
    """A column in its compact dtype, widened only when a value demands it.

    Almost every row fits the compact form (nbytes <= 8, strides within a
    frame, VL <= matrix rows); the wide fallback keeps the store correct
    for synthetic or adversarial traces without taxing the common case.
    A value outside even the wide dtype raises ``ValueError`` naming the
    column ``name``.
    """
    try:
        arr = np.asarray(values, dtype=wide)
    except OverflowError as exc:
        raise ValueError(f"{name} value out of range: {exc}") from None
    if arr.size == 0:
        return arr.astype(small)
    info = np.iinfo(small)
    lo, hi = int(arr.min()), int(arr.max())
    if lo >= info.min and hi <= info.max:
        return arr.astype(small)
    return arr


def _scatter(n: int, at: np.ndarray, values, default: int,
             small: np.dtype, wide: np.dtype, name: str) -> np.ndarray:
    """An ``n``-row column holding ``default`` except ``values`` at rows
    ``at``, in the dtype :func:`_fit` gives the whole column (every
    default fits the compact dtype, so the staged values decide)."""
    fitted = _fit(values, small, wide, name)
    column = np.full(n, default, dtype=fitted.dtype)
    column[at] = fitted
    return column


class _Chunk:
    """One sealed block of rows in structure-of-arrays form.

    Fixed-width columns are numpy arrays of one scalar per row; the
    variable-width operand lists use a CSR pair (``off[i]:off[i+1]`` slices
    ``val``).  ``addr`` stores 0 for address-less rows, disambiguated by
    ``has_addr`` (address 0 itself never occurs -- the functional memory
    allocates above :data:`~repro.emulib.memory.Memory.BASE` -- but the
    column does not rely on that).
    """

    __slots__ = ("n", "op", "addr", "has_addr", "nbytes", "stride", "vl",
                 "taken", "site", "src_off", "src_val", "dst_off", "dst_val")

    def __init__(self, stage: _Stage) -> None:
        n = self.n = len(stage)
        self.op = _fit(stage.op, np.int16, np.int32, "op")
        # The sparse fields: every column starts at its default and takes
        # the staged rows' values in one scatter each.
        at, addr, nbytes, stride, vl, taken, site = (
            zip(*stage.extra) if stage.extra else ((),) * 7)
        at = np.array(at, dtype=np.intp)
        addr = np.array(addr, dtype=object)
        has = np.not_equal(addr, None)
        self.has_addr = np.zeros(n, dtype=bool)
        self.has_addr[at[has]] = True
        self.addr = np.zeros(n, dtype=np.uint64)
        try:
            self.addr[at[has]] = addr[has].astype(np.uint64)
        except OverflowError as exc:
            raise ValueError(f"addr value out of range: {exc}") from None
        self.nbytes = _scatter(n, at, nbytes, 0, np.int16, np.int64, "nbytes")
        self.stride = _scatter(n, at, stride, 0, np.int32, np.int64, "stride")
        self.vl = _scatter(n, at, vl, 1, np.int16, np.int64, "vl")
        self.taken = np.full(n, _TAKEN_ENCODE[None], dtype=np.int8)
        self.taken[at] = np.fromiter(map(_TAKEN_ENCODE.__getitem__, taken),
                                     dtype=np.int8, count=len(at))
        self.site = _scatter(n, at, site, 0, np.int32, np.int64, "site")
        self.src_off, self.src_val = _csr(stage.srcs)
        self.dst_off, self.dst_val = _csr(stage.dsts)

    _ROW_COLUMNS = ("op", "has_addr", "addr", "nbytes", "stride", "vl",
                    "taken", "site")

    def rows(self, lo: int, hi: int) -> "_Chunk":
        """A chunk holding rows ``[lo, hi)``; the row columns and operand
        values share storage, the CSR offsets are rebased copies."""
        clone = _Chunk.__new__(_Chunk)
        clone.n = hi - lo
        for name in self._ROW_COLUMNS:
            setattr(clone, name, getattr(self, name)[lo:hi])
        for off, val in (("src_off", "src_val"), ("dst_off", "dst_val")):
            offsets = getattr(self, off)[lo:hi + 1]
            setattr(clone, off, offsets - offsets[0])
            setattr(clone, val, getattr(self, val)[offsets[0]:offsets[-1]])
        return clone

    @staticmethod
    def concat(parts: list["_Chunk"]) -> "_Chunk":
        """One chunk holding ``parts``' rows in order (a copy, unless
        there is only one part)."""
        if len(parts) == 1:
            return parts[0]
        out = _Chunk.__new__(_Chunk)
        out.n = sum(part.n for part in parts)
        for name in _Chunk._ROW_COLUMNS:
            setattr(out, name,
                    np.concatenate([getattr(part, name) for part in parts]))
        for off, val in (("src_off", "src_val"), ("dst_off", "dst_val")):
            pieces = [np.zeros(1, dtype=np.int32)]
            total = 0
            for part in parts:
                pieces.append(getattr(part, off)[1:] + total)
                total += int(getattr(part, off)[-1])
            setattr(out, off, np.concatenate(pieces))
            setattr(out, val,
                    np.concatenate([getattr(part, val) for part in parts]))
        return out

    def row(self, i: int) -> tuple:
        """One row decoded back to canonical Python values (op still an id)."""
        s0, s1 = self.src_off[i], self.src_off[i + 1]
        d0, d1 = self.dst_off[i], self.dst_off[i + 1]
        return (
            int(self.op[i]),
            tuple(int(v) for v in self.src_val[s0:s1]),
            tuple(int(v) for v in self.dst_val[d0:d1]),
            int(self.addr[i]) if self.has_addr[i] else None,
            int(self.nbytes[i]),
            int(self.stride[i]),
            int(self.vl[i]),
            _TAKEN_DECODE[int(self.taken[i]) + 1],
            int(self.site[i]),
        )

    def iter_rows(self):
        """All rows as canonical Python tuples (bulk ``tolist`` decode)."""
        op = self.op.tolist()
        has_addr = self.has_addr.tolist()
        addr = self.addr.tolist()
        nbytes = self.nbytes.tolist()
        stride = self.stride.tolist()
        vl = self.vl.tolist()
        taken = self.taken.tolist()
        site = self.site.tolist()
        src_off = self.src_off.tolist()
        src_val = self.src_val.tolist()
        dst_off = self.dst_off.tolist()
        dst_val = self.dst_val.tolist()
        for i in range(self.n):
            yield (op[i],
                   tuple(src_val[src_off[i]:src_off[i + 1]]),
                   tuple(dst_val[dst_off[i]:dst_off[i + 1]]),
                   addr[i] if has_addr[i] else None,
                   nbytes[i], stride[i], vl[i],
                   _TAKEN_DECODE[taken[i] + 1], site[i])

    def taken_at(self, rows) -> list:
        """Decoded ``taken`` (``None``/``False``/``True``) of ``rows``."""
        return [_TAKEN_DECODE[t + 1] for t in self.taken[rows].tolist()]

    def nbytes_storage(self) -> int:
        """Bytes of column storage this chunk occupies (diagnostics)."""
        return sum(getattr(self, name).nbytes
                   for name in self._ROW_COLUMNS + ("src_off", "src_val",
                                                    "dst_off", "dst_val"))


class TraceSummary:
    """One-pass summary statistics of a trace.

    Computed lazily by :meth:`Trace.summary` and cached until the trace is
    mutated, so repeated simulation of the same trace (the experiment grid
    runs each trace under many machine/memory configurations) pays the
    O(trace) walk once instead of once per run.  The statistics are
    vectorized reductions over the columnar store; ``rows`` is the trace
    length they cover.
    """

    __slots__ = ("rows", "class_histogram", "opcode_histogram",
                 "operation_count", "memory_references", "branch_count")

    def __init__(self, trace: "Trace") -> None:
        self.rows = len(trace)
        ops = trace._ops
        nops = len(ops)
        counts = np.zeros(nops, dtype=np.int64)
        operations = memory_refs = 0
        if nops:
            lanes = np.array([max(1, op.elem.lanes) for op in ops],
                             dtype=np.int64)
            is_mem = np.array([op.iclass.is_memory for op in ops], dtype=bool)
            for op_ids, vl in trace._stat_blocks():
                counts += np.bincount(op_ids, minlength=nops)
                operations += int((vl * lanes[op_ids]).sum())
                memory_refs += int(vl[is_mem[op_ids]].sum())

        class_hist: dict[InstrClass, int] = {}
        opcode_hist: dict[str, int] = {}
        branches = 0
        for op, count in zip(ops, counts.tolist()):
            if not count:
                continue
            iclass = op.iclass
            class_hist[iclass] = class_hist.get(iclass, 0) + count
            opcode_hist[op.name] = opcode_hist.get(op.name, 0) + count
            if iclass == InstrClass.BRANCH:
                branches += count
        self.class_histogram = class_hist
        self.opcode_histogram = opcode_hist
        self.operation_count = operations
        self.memory_references = memory_refs
        self.branch_count = branches


class Trace:
    """An ordered dynamic instruction stream plus summary statistics.

    Statistics are computed once and cached; every mutation --
    :meth:`emit` / :meth:`append` / :meth:`extend` / :meth:`truncate` --
    invalidates the cache (rows only grow at the end, so a cached summary
    is stale once the length differs; :meth:`truncate` drops it).
    """

    __slots__ = ("isa", "_ops", "_op_ids", "_chunks", "_chunk_ends",
                 "_stage", "_sealed", "_chunk_rows", "_summary")

    def __init__(self, isa: str, *, chunk_rows: int = CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.isa = isa
        self._ops: list[Opcode] = []            # op id -> Opcode
        self._op_ids: dict[int, int] = {}       # id(Opcode) -> op id
        self._chunks: list[_Chunk] = []
        self._chunk_ends: list[int] = []        # cumulative rows per chunk
        self._stage = _Stage()
        self._sealed = 0                        # rows in sealed chunks
        self._chunk_rows = chunk_rows
        self._summary: TraceSummary | None = None

    def __repr__(self) -> str:
        return (f"Trace(isa={self.isa!r}, instructions={len(self)}, "
                f"chunks={len(self._chunks)})")

    # --- mutation ---------------------------------------------------------------

    def emit(self, op: Opcode, srcs: tuple[int, ...], dsts: tuple[int, ...],
             addr: int | None = None, nbytes: int = 0, stride: int = 0,
             vl: int = 1, taken: bool | None = None, site: int = 0) -> None:
        """Append one row: the trace's only row writer.

        Builders call it once per emitted instruction, so no
        :class:`DynInstr` is built on the way in.  ``srcs`` and ``dsts``
        are stored as given and must be tuples of plain ``int`` operands
        (what :func:`reg` returns); :meth:`append` canonicalizes a
        caller's :class:`DynInstr` operands before calling this.  ``op``
        is interned; the six scalar fields are staged only when one of
        them differs from its default, and then canonicalized to
        ``int``/``bool``/``None``, so every staged value is a plain
        Python object whichever writer put it there.
        """
        op_id = self._op_ids.get(id(op))
        if op_id is None:
            op_id = self._intern(op)
        stage = self._stage
        ops = stage.op
        if (addr is not None or taken is not None or vl != 1 or nbytes
                or stride or site):
            # A field at its default needs no conversion call.
            stage.extra.append((
                len(ops), None if addr is None else int(addr),
                int(nbytes) if nbytes else 0, int(stride) if stride else 0,
                1 if vl == 1 else int(vl),
                None if taken is None else bool(taken),
                int(site) if site else 0))
        ops.append(op_id)
        stage.srcs.append(srcs)
        stage.dsts.append(dsts)
        if len(ops) >= self._chunk_rows:
            self._seal()

    def append(self, instr: DynInstr) -> DynInstr:
        """Append one instruction (columnar row) and return it.

        The operands may be any sequences of integer-like values (lists,
        numpy scalars); they are canonicalized to tuples of ``int``.
        """
        self.emit(instr.op, tuple(map(int, instr.srcs)),
                  tuple(map(int, instr.dsts)), instr.addr, instr.nbytes,
                  instr.stride, instr.vl, instr.taken, instr.site)
        return instr

    def extend(self, other: "Trace") -> None:
        """Concatenate another trace (used to stitch program phases).

        Rows are **copied by value** -- the two traces share no mutable
        state afterwards, so later mutation of either can never corrupt
        the other or desynchronize a cached summary it holds (the seed
        list-of-objects encoding aliased ``DynInstr`` instances here).
        """
        rows = other._raw_rows()
        if other is self:
            rows = list(rows)           # snapshot before appending to self
        emit = self.emit
        for row in rows:
            emit(*row)

    def truncate(self, length: int) -> None:
        """Drop every row at index ``length`` and beyond."""
        if length < 0:
            raise ValueError("length must be >= 0")
        if length >= len(self):
            return
        if length >= self._sealed:
            self._stage.truncate(length - self._sealed)
        else:
            kept: list[_Chunk] = []
            ends: list[int] = []
            total = 0
            for chunk in self._chunks:
                if total + chunk.n <= length:
                    kept.append(chunk)
                    total += chunk.n
                elif total < length:
                    kept.append(chunk.rows(0, length - total))
                    total = length
                else:
                    break
                ends.append(total)
            self._chunks = kept
            self._chunk_ends = ends
            self._sealed = length
            self._stage.clear()
        self._summary = None

    # --- internal plumbing ------------------------------------------------------

    def _intern(self, op: Opcode) -> int:
        """Give a first-seen opcode the next op id (opcodes are singletons,
        so :meth:`emit` looks ids up by identity)."""
        op_id = len(self._ops)
        self._ops.append(op)
        self._op_ids[id(op)] = op_id
        return op_id

    def _seal(self) -> None:
        """Convert the staging tail into a sealed columnar chunk."""
        if not len(self._stage):
            return
        chunk = _Chunk(self._stage)
        self._chunks.append(chunk)
        self._sealed += chunk.n
        self._chunk_ends.append(self._sealed)
        self._stage.clear()

    def _row(self, index: int) -> tuple:
        """Row ``index`` with the op decoded to its :class:`Opcode`.

        Sealed rows locate their chunk by bisecting the cumulative-end
        table, so indexed access stays O(log chunks) however long the
        trace grows (the reference core walks the trace by index).
        """
        if index < self._sealed:
            which = bisect_right(self._chunk_ends, index)
            start = self._chunk_ends[which - 1] if which else 0
            row = self._chunks[which].row(index - start)
        else:
            row = self._stage.row(index - self._sealed)
        return (self._ops[row[0]],) + row[1:]

    def _raw_rows(self):
        """Every row as a canonical tuple, op decoded to its Opcode."""
        ops = self._ops
        for chunk in self._chunks:
            for row in chunk.iter_rows():
                yield (ops[row[0]],) + row[1:]
        for row in self._stage.iter_rows():
            yield (ops[row[0]],) + row[1:]

    def _stat_blocks(self):
        """(op_id array, vl array) per storage block, for summary stats."""
        for chunk in self._chunks:
            yield chunk.op, chunk.vl
        if len(self._stage):
            yield (np.asarray(self._stage.op, dtype=np.int32),
                   self._stage.vl())

    def _materialize(self, row: tuple) -> DynInstr:
        op, srcs, dsts, addr, nbytes, stride, vl, taken, site = row
        return DynInstr(op, srcs=srcs, dsts=dsts, addr=addr, nbytes=nbytes,
                        stride=stride, vl=vl, taken=taken, site=site)

    # --- sequence protocol ------------------------------------------------------

    def __len__(self) -> int:
        return self._sealed + len(self._stage)

    def __iter__(self):
        for row in self._raw_rows():
            yield self._materialize(row)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self._materialize(self._row(i))
                    for i in range(*idx.indices(len(self)))]
        n = len(self)
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError("trace index out of range")
        return self._materialize(self._row(idx))

    # --- digest / streaming access ----------------------------------------------

    def iter_field_tuples(self):
        """Per-row ``(isa, name, srcs, dsts, addr, nbytes, stride, vl,
        taken, site)`` tuples -- exactly the fields (and Python types) of
        the materialized :class:`DynInstr`, without building one.  The
        trace digest hashes the ``repr`` of these, so their layout is
        part of the digest-compatibility contract (DESIGN.md section 5).
        """
        for op, *rest in self._raw_rows():
            yield (op.isa, op.name, *rest)

    @property
    def opcodes(self) -> tuple[Opcode, ...]:
        """The opcode intern table: column ``op`` values index it."""
        return tuple(self._ops)

    def _column_chunks(self):
        """The sealed chunks, then the staging tail converted the way
        sealing converts it (operand checks included)."""
        yield from self._chunks
        if len(self._stage):
            yield _Chunk(self._stage)

    def iter_column_blocks(self, rows: int):
        """The trace as consecutive column blocks of ``rows`` rows each
        (the last one shorter), in program order.

        Each block has the column attributes of a sealed chunk (``n``,
        ``op``, ``addr``/``has_addr``, ``nbytes``, ``stride``, ``vl``,
        ``taken``, ``site`` and the ``src``/``dst`` CSR pairs with offsets
        starting at 0), whatever the chunk geometry: blocks are cut
        across chunk boundaries and the staging tail is converted on the
        way, so a consumer holds the columns plus the block it reads.
        """
        if rows < 1:
            raise ValueError("rows must be >= 1")
        parts: list[_Chunk] = []
        have = 0
        for chunk in self._column_chunks():
            lo = 0
            while lo < chunk.n:
                take = min(rows - have, chunk.n - lo)
                parts.append(chunk if take == chunk.n
                             else chunk.rows(lo, lo + take))
                have += take
                lo += take
                if have == rows:
                    yield _Chunk.concat(parts)
                    parts = []
                    have = 0
        if parts:
            yield _Chunk.concat(parts)

    # --- statistics ------------------------------------------------------------

    def summary(self) -> TraceSummary:
        """The cached one-pass summary (recomputed after mutation)."""
        summary = self._summary
        if summary is None or summary.rows != len(self):
            summary = self._summary = TraceSummary(self)
        return summary

    def class_histogram(self) -> dict[InstrClass, int]:
        return dict(self.summary().class_histogram)

    def opcode_histogram(self) -> dict[str, int]:
        return dict(self.summary().opcode_histogram)

    def operation_count(self) -> int:
        """Total *operations* (lane-level work items), counting vector length.

        One MOM instruction of VL=16 on byte lanes counts 16 x 8 = 128
        operations -- the "order of magnitude more operations per
        instruction" the paper credits for MOM's low fetch pressure.
        """
        return self.summary().operation_count

    def memory_references(self) -> int:
        """Total element-level memory accesses in the trace."""
        return self.summary().memory_references

    def branch_count(self) -> int:
        return self.summary().branch_count

    def storage_bytes(self) -> int:
        """Approximate bytes of sealed column storage (diagnostics; the
        staging tail and interning tables are not counted)."""
        return sum(chunk.nbytes_storage() for chunk in self._chunks)
