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
:class:`Trace` now stores instructions **columnar**: sealed
structure-of-arrays chunks of at most :data:`CHUNK_ROWS` rows, with a
small staging buffer for the rows of the not-yet-sealed tail.
Builders write rows through :meth:`Trace.emit`, the row writer, which
appends each emitted instruction's canonical fields to the staging lists
(the six scalar fields only for rows that carry one): no
:class:`DynInstr` is built on the way in.  Its bulk twin,
:meth:`Trace.emit_skeleton`, appends the rows of a :class:`RowSkeleton`
-- the rows one replayed emitter call wrote, recorded by
:meth:`Trace.skeleton` and sealed into a template chunk -- with a later
call's addresses, branch outcomes and site filled in.  It stages the
call as a chunk that owns only its op ids and those values and shares
every other column with the template, so sealing copies them with
numpy; it leaves the store as per-row ``emit`` would, and records the
call in the trace's call table (:attr:`Trace.calls`) for the decode.  A
call that re-runs its body writes to a :class:`RowChecker` in place of
the trace, which holds each row to the skeleton's before the call is
appended.  A
sealed chunk keeps that layout in numpy form -- per row an opcode id and
two operand counts, the operands in row order, and the scalar fields
only for the rows that carry any -- at 12-17 bytes per row on the
Figure 7 traces.  The tail is
sealed when it reaches :data:`CHUNK_ROWS` rows or, once, by the first
column reader (:meth:`Trace.iter_column_blocks`, the summary statistics,
:meth:`Trace.storage_bytes`), so a simulated trace keeps no staged rows.
Sealing swaps in a fresh staging buffer and never clears the old one, so
a row iterator already walking the tail still yields every row.
:class:`DynInstr` stays the read-side type -- :meth:`Trace.append` still
takes one (and hands its fields to the same writer), and iteration and
indexing yield :class:`DynInstr` objects (materialized on demand).  Rows
are only ever appended or cut off the end (:meth:`Trace.truncate`); no
row is edited in place.  The timing engine reads the columns without
materializing the object form: :class:`~repro.cpu.batch.BatchCore`
decodes fixed-size dense column blocks (:meth:`Trace.iter_column_blocks`,
which cuts blocks across chunk boundaries and fills in the scalar
fields' defaults).  Only the reference core
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
them.  Rows become columns only through one conversion (sealing, by the
writer or by the first column reader), and it rejects any operand
outside ``[0, REG_LIMIT)`` -- or any scalar value its column cannot hold
-- with ``ValueError`` naming the column, leaving the tail staged.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from ..isa.model import InstrClass, Opcode, RegPool

#: Rows per sealed columnar chunk.  65536 rows cost about 1 MiB of column
#: data (12-17 B/row on the Figure 7 traces); the staging tail holds at
#: most this many Python-object rows while a trace is built, and its first
#: column reader seals it.
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

#: Rows between operand marks: a sealed row's operands are found from the
#: mark at or below it plus at most ``_MARK - 1`` operand counts.
_MARK = 64


#: The row a staged ``extra`` tuple, a staged call or a call-table entry
#: starts at: the key each list is bisected by.
_start = itemgetter(0)


class _Stage:
    """Staging tail: the not-yet-sealed rows.

    Rows :meth:`Trace.emit` writes sit in plain lists: ``op``, ``srcs``
    and ``dsts`` hold one entry per row.  The six scalar fields
    (``addr``, ``nbytes``, ``stride``, ``vl``, ``taken``, ``site``) are
    sparse: a row that carries any of them -- a memory access, a branch,
    a MOM row with a VL -- adds one ``(j, addr, nbytes, stride, vl,
    taken, site)`` tuple to ``extra``, ``j`` its index in those lists;
    every other row has the defaults :data:`_PLAIN`.  Values are
    canonical Python objects exactly as a :class:`DynInstr` would hold
    them (``addr``/``taken`` keep their ``None``), so reads from the tail
    need no decoding.

    Rows :meth:`Trace.emit_skeleton` writes are staged as chunks
    (:meth:`RowSkeleton.call`, or the pieces of one a seal cut off):
    ``calls`` holds ``(s, j, chunk)`` ascending, ``s`` the tail row of
    the chunk's first row and ``j`` the per-row row it sits before.
    ``called`` counts their rows, and ``limit`` is the number of per-row
    rows at which the tail is full.  Sealing (:meth:`columns`) converts
    the per-row rows' tuples and takes the chunks' columns as they are.
    """

    __slots__ = ("op", "srcs", "dsts", "extra", "calls", "called", "limit")

    def __init__(self, chunk_rows: int) -> None:
        self.op: list[int] = []
        self.srcs: list[tuple[int, ...]] = []
        self.dsts: list[tuple[int, ...]] = []
        self.extra: list[tuple] = []        # ascending by row
        self.calls: list[tuple[int, int, _Chunk]] = []
        self.called = 0
        self.limit = chunk_rows

    def __len__(self) -> int:
        return len(self.op) + self.called

    def _seek(self, i: int) -> tuple[int, int]:
        """``(c, j)`` for tail row ``i``: the calls that start at or
        before it, and -- unless ``i`` lies inside call ``c - 1`` --
        the per-row index of row ``i`` (else -1)."""
        calls = self.calls
        c = bisect_right(calls, i, key=_start)
        if not c:
            return 0, i
        s, j, call = calls[c - 1]
        end = s + call.n
        return c, (j + i - end if i >= end else -1)

    def truncate(self, keep: int) -> None:
        calls = self.calls
        del calls[bisect_left(calls, keep, key=_start):]
        _, j = self._seek(keep)
        if j < 0:                           # cut inside the last call
            s, j, last = calls[-1]
            calls[-1] = (s, j, last.rows(0, keep - s))
        called = sum(call.n for _, _, call in calls)
        self.limit += self.called - called
        self.called = called
        del self.op[j:]
        del self.srcs[j:]
        del self.dsts[j:]
        del self.extra[bisect_left(self.extra, j, key=_start):]

    def row(self, i: int) -> tuple:
        c, j = self._seek(i)
        if j < 0:
            s, _, call = self.calls[c - 1]
            return call.row(i - s)
        extra = self.extra
        k = bisect_left(extra, j, key=_start)
        fields = (extra[k][1:] if k < len(extra) and extra[k][0] == j
                  else _PLAIN)
        return (self.op[j], self.srcs[j], self.dsts[j]) + fields

    def iter_rows(self, start: int = 0):
        """Rows ``start`` onward.  The reader walks the live lists, so it
        also yields rows -- per-row or call rows -- appended while it
        walks them."""
        op, srcs, dsts = self.op, self.srcs, self.dsts
        extra, calls = self.extra, self.calls
        c, j = self._seek(start)
        if j < 0:
            s, j, call = calls[c - 1]
            yield from islice(call.iter_rows(), start - s, None)
        k = bisect_left(extra, j, key=_start)
        while True:
            if c < len(calls) and calls[c][1] == j:
                yield from calls[c][2].iter_rows()
                c += 1
            elif j < len(op):
                if k < len(extra) and extra[k][0] == j:
                    yield (op[j], srcs[j], dsts[j]) + extra[k][1:]
                    k += 1
                else:
                    yield (op[j], srcs[j], dsts[j]) + _PLAIN
                j += 1
            else:
                return

    def columns(self) -> tuple:
        """The tail's rows as columns, in row order: ``op``, the source
        and destination ``(count, val)`` pairs, then the sparse rows'
        ``at``, ``has_addr``, ``addr``, ``nbytes``, ``stride``, ``vl``,
        ``taken`` and ``site``.  Per-row rows are converted from their
        tuples; staged calls add their chunks' columns.  A value no
        column can hold raises ``ValueError`` naming the column, columns
        checked in that order."""
        calls = self.calls
        js = [j for _, j, _ in calls]
        chunks = [call for _, _, call in calls]

        def merged(rowwise, cuts, parts):
            # The per-row values up to each call's cut, then the call's.
            pieces, prev = [], 0
            for cut, part in zip(cuts, parts):
                pieces += (rowwise[prev:cut], part)
                prev = cut
            pieces.append(rowwise[prev:])
            return np.concatenate(pieces) if calls else rowwise

        op = merged(np.asarray(self.op, dtype=np.int64), js,
                    [call.op for call in chunks])
        operands = []
        for tuples, name in ((self.srcs, "src"), (self.dsts, "dst")):
            count, val = _operand_columns(tuples)
            off = np.concatenate(([0], np.cumsum(count)))
            sides = [getattr(call, name) for call in chunks]
            operands.append((
                merged(count, js, [side.count for side in sides]),
                _checked(merged(val, off[js], [side.val for side in sides]))))

        extra = self.extra
        at, addr, nbytes, stride, vl, taken, site = (
            zip(*extra) if extra else ((),) * 7)
        at = np.asarray(at, dtype=np.int64)
        addr = np.array(addr, dtype=object)
        has_addr = np.not_equal(addr, None)
        addr[~has_addr] = 0
        taken = np.fromiter(map(_TAKEN_ENCODE.__getitem__, taken),
                            dtype=np.int8, count=len(at))
        sparse = [at, has_addr, _wide(addr, "addr", np.uint64),
                  _wide(nbytes, "nbytes"), _wide(stride, "stride"),
                  _wide(vl, "vl"), taken, _wide(site, "site")]
        if calls:
            # Per-row rows move down by the call rows staged before them.
            ends = np.cumsum([0] + [call.n for call in chunks])
            at += ends[np.searchsorted(js, at, side="right")]
            cuts = np.searchsorted(at, [s for s, _, _ in calls])
            sparse = [merged(at, cuts, [call.at.astype(np.int64) + s
                                        for s, _, call in calls])] + [
                merged(column, cuts, [getattr(call, name) for call in chunks])
                for column, (name, _) in zip(sparse[1:], _SPARSE)]
        return (op, *operands, *sparse)


class RowSkeleton:
    """The rows one emitter call writes, less what changes between calls.

    Recorded from the rows a call wrote (:meth:`Trace.skeleton`) and
    written again by :meth:`Trace.emit_skeleton`.  ``opcodes`` holds the
    distinct opcodes in first-appearance order, and ``template`` the rows
    as the tail's own sealing conversion encodes them, ``op`` indexing
    ``opcodes``; so a skeleton rejects, with ``ValueError`` and the same
    message, any value sealing rejects.  Each sparse row of the template
    is a memory row, which takes its address from the call, a branch row
    (``nbytes``, ``stride`` and ``vl`` at their defaults), which takes
    its outcome and site from the call, or a VL row (a MOM media row: a
    ``vl`` and no other scalar field), which the template fills whole;
    ``addresses`` and ``branches`` count the first two.  A row that
    carries any other mix of scalar fields cannot be replayed and raises
    ``ValueError``.

    A skeleton outlives the build that recorded it (its builder keeps
    it), and keeps nothing but these, the op ids of the trace it wrote
    to last (:meth:`op_column`) and, once a re-run call has been checked
    against it, its rows in the form :class:`RowChecker` compares
    (:meth:`expected_rows`).
    """

    __slots__ = ("opcodes", "template", "addresses", "branches", "_branch",
                 "_ids", "_op_col", "_expected")

    def __init__(self, rows) -> None:
        """``rows``: canonical ``(op, srcs, dsts, addr, nbytes, stride,
        vl, taken, site)`` tuples with ``op`` an :class:`Opcode`."""
        index: dict[int, int] = {}
        self.opcodes: list[Opcode] = []
        stage = _Stage(CHUNK_ROWS)
        for i, row in enumerate(rows):
            op = row[0]
            k = index.get(id(op))
            if k is None:
                k = index[id(op)] = len(self.opcodes)
                self.opcodes.append(op)
            stage.op.append(k)
            stage.srcs.append(row[1])
            stage.dsts.append(row[2])
            if row[3:] != _PLAIN:
                stage.extra.append((i,) + row[3:])
        t = self.template = _Chunk(stage)
        branch = t.taken != -1
        bare = (t.nbytes == 0) & (t.stride == 0)
        memory = t.has_addr & ~branch & (t.site == 0)
        control = ~t.has_addr & branch & bare & (t.vl == 1)
        vector = ~t.has_addr & ~branch & bare & (t.site == 0)
        odd = np.flatnonzero(~(memory | control | vector))
        if odd.size:
            raise ValueError(f"row {int(t.at[odd[0]])} is not a memory, "
                             "branch or VL row but carries scalar fields")
        self.addresses = int(np.count_nonzero(memory))
        self.branches = int(np.count_nonzero(branch))
        self._branch = branch
        self._ids: tuple[int, ...] | None = None
        self._op_col: np.ndarray | None = None
        self._expected: list | None = None

    def __len__(self) -> int:
        return self.template.n

    def op_column(self, ids: tuple[int, ...]) -> np.ndarray:
        """Every row's op id, given a trace's id for each of ``opcodes``
        (kept until another trace's ids differ: calls keep writing to
        one trace, and a staged call holds the array it was given)."""
        if ids != self._ids:
            self._op_col = _fit(np.asarray(ids, dtype=np.int64)[
                self.template.op], np.int16, np.int32, "op")
            self._ids = ids
        return self._op_col

    def call(self, addrs, taken, site: int) -> _Chunk:
        """The rows with one call's addresses, branch outcomes and site: a
        chunk that owns those three columns and shares every other with
        ``template`` (``op`` too, which :meth:`Trace.emit_skeleton`
        swaps for the trace's ids).  The k-th memory row takes
        ``addrs[k]`` and the k-th branch row ``taken[k]`` and ``site``;
        a VL row takes nothing.  A miscount, or a value no column can
        hold, raises ``ValueError``."""
        if (len(addrs), len(taken)) != (self.addresses, self.branches):
            raise ValueError(
                f"skeleton takes {self.addresses} addresses and "
                f"{self.branches} branch outcomes, got {len(addrs)} "
                f"and {len(taken)}")
        t = self.template
        call = _Chunk.__new__(_Chunk)
        for name in ("n", "op", "src", "dst", "at", "has_addr", "nbytes",
                     "stride", "vl"):
            setattr(call, name, getattr(t, name))
        memory = t.has_addr
        call.addr = np.zeros(len(t.at), dtype=np.uint64)
        call.addr[memory] = _wide(list(map(int, addrs)), "addr", np.uint64)
        branch = self._branch
        call.taken = np.full(len(t.at), _TAKEN_ENCODE[None], dtype=np.int8)
        call.taken[branch] = list(map(bool, taken))
        call.site = np.where(branch, _wide(int(site), "site"), 0)
        return call

    def rows(self, addrs, taken, site: int):
        """The rows as canonical tuples, ``op`` an :class:`Opcode`, with
        one call's addresses, branch outcomes and site filled in: the rows
        :meth:`Trace.emit_skeleton` appends."""
        ops = self.opcodes
        return ((ops[row[0]],) + row[1:]
                for row in self.call(addrs, taken, site).iter_rows())

    def expected_rows(self) -> list:
        """Per row, what :meth:`RowChecker.emit` holds a re-run row to:
        ``(op, srcs, dsts, addr is None, nbytes, stride, vl, taken is
        None, site)``, ``site`` ``None`` on a branch row (the call gives
        it), then ``None`` for the row past the end.  Decoded from the
        template on first use and kept, so only the skeletons whose
        calls re-run their body keep it; equal rows share one tuple."""
        if self._expected is None:
            ops = self.opcodes
            rows: dict[tuple, tuple] = {}
            self._expected = [rows.setdefault(row, row) for row in (
                (ops[op], srcs, dsts, addr is None, nbytes, stride, vl,
                 taken is None, None if taken is not None else site)
                for op, srcs, dsts, addr, nbytes, stride, vl, taken, site
                in self.template.iter_rows())] + [None]
        return self._expected


class RowChecker:
    """What a builder writes to while a replayed call re-runs its body
    (:func:`~repro.emulib.base_builder.replay_body`).

    :meth:`emit` takes the rows the body writes, as :meth:`Trace.emit`
    would, and holds each to the skeleton's row at its place: opcode,
    sources, destinations, ``nbytes``, ``stride``, ``vl``, whether it
    carries an address and whether it carries an outcome.  It keeps the
    call's addresses, branch outcomes and its one branch site, which
    :meth:`finish` hands over for :meth:`Trace.emit_skeleton`.  Any
    difference raises ``ValueError`` naming ``shape`` and the row.
    """

    __slots__ = ("skeleton", "shape", "addrs", "taken", "site", "_i",
                 "_expected")

    def __init__(self, skeleton: RowSkeleton, shape: tuple) -> None:
        self.skeleton = skeleton
        self.shape = shape
        self.addrs: list[int] = []
        self.taken: list[bool] = []
        self.site: int | None = None
        self._i = 0
        self._expected = skeleton.expected_rows()

    def emit(self, op: Opcode, srcs: tuple[int, ...], dsts: tuple[int, ...],
             addr: int | None = None, nbytes: int = 0, stride: int = 0,
             vl: int = 1, taken: bool | None = None, site: int = 0) -> None:
        i = self._i
        if (op, srcs, dsts, addr is None, nbytes, stride, vl, taken is None,
                None if taken is not None else site) != self._expected[i]:
            self._differs(i, (op, srcs, dsts, addr, nbytes, stride, vl,
                              taken, site))
        self._i = i + 1
        if addr is not None:
            self.addrs.append(addr)
        elif taken is not None:
            self.taken.append(taken)
            if site != self.site:
                if self.site is not None:
                    raise ValueError(
                        f"replayed call {self.shape!r}: row {i} branches "
                        f"at site {site}, an earlier row at {self.site}")
                self.site = site

    def _differs(self, i: int, row: tuple) -> None:
        want = self._expected[i]
        got = (f"{row[0].isa}:{row[0].name}",) + row[1:]
        if want is None:
            raise ValueError(f"replayed call {self.shape!r}: row {i} is "
                             f"past its skeleton's {i} rows: {got}")
        want = (f"{want[0].isa}:{want[0].name}",) + want[1:]
        raise ValueError(f"replayed call {self.shape!r}: row {i} differs "
                         f"from its skeleton: wrote {got} (op, srcs, dsts, "
                         "addr, nbytes, stride, vl, taken, site), the "
                         f"skeleton holds {want} (op, srcs, dsts, no "
                         "address, nbytes, stride, vl, no outcome, site)")

    def finish(self) -> tuple[list[int], list[bool], int]:
        """The call's addresses, branch outcomes and site, once the body
        has written every row of the skeleton (else ``ValueError``)."""
        if self._i != len(self.skeleton):
            raise ValueError(f"replayed call {self.shape!r} wrote {self._i} "
                             f"rows, its skeleton holds {len(self.skeleton)}")
        return self.addrs, self.taken, 0 if self.site is None else self.site


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


def _wide(values, name: str, dtype: np.dtype = np.int64) -> np.ndarray:
    """Python ints as an int64 (or ``dtype``) column; a value it cannot
    hold raises ``ValueError`` naming the column ``name``."""
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{name} value out of range: {exc}") from None


def _fit(arr: np.ndarray, small: np.dtype, wide: np.dtype,
         name: str) -> np.ndarray:
    """An integer column in its compact dtype, widened only when a value
    demands it.

    Almost every row fits the compact form (nbytes <= 8, strides within a
    frame, VL <= matrix rows, a few operands); the wide fallback keeps
    the store correct for synthetic or adversarial traces without taxing
    the common case.  A value outside even the wide dtype raises
    ``ValueError`` naming the column ``name``.
    """
    if arr.size == 0:
        return arr.astype(small)
    lo, hi = int(arr.min()), int(arr.max())
    info = np.iinfo(small)
    if lo >= info.min and hi <= info.max:
        return arr.astype(small)
    info = np.iinfo(wide)
    if lo < info.min or hi > info.max:
        raise ValueError(f"{name} value out of range: "
                         f"{lo if lo < info.min else hi}")
    return arr.astype(wide)


def _operand_columns(tuples) -> tuple[np.ndarray, np.ndarray]:
    """Operand tuples as int64 ``(count, val)`` columns."""
    count = np.fromiter(map(len, tuples), dtype=np.int64, count=len(tuples))
    try:
        val = np.fromiter(chain.from_iterable(tuples), dtype=np.int64,
                          count=int(count.sum()))
    except OverflowError as exc:
        raise ValueError(f"register operand out of range: {exc}") from None
    return count, val


def _checked(val: np.ndarray) -> np.ndarray:
    """``val``, once every operand lies in ``[0, REG_LIMIT)``: an operand
    outside names no register and raises ``ValueError`` (consumers index
    per-register tables with these values)."""
    if val.size:
        bad = (val < 0) | (val >= REG_LIMIT)
        if bad.any():
            raise ValueError(f"register operand {int(val[bad][0])} outside "
                             f"[0, {REG_LIMIT})")
    return val


class _Operands:
    """The operand lists of a sealed chunk's rows.

    ``count`` holds each row's operand count (uint8 unless a row has
    more than 255), ``val`` the operands in row order, and ``mark`` the
    position in ``val`` of rows 0, :data:`_MARK`, 2 * :data:`_MARK`, ...
    up to the row count, so one row's operands are found without a
    per-row offset column.  Values fit int16 because an encoded register
    is ``(pool << 8) | index`` with four pools and 8-bit indices.  A part
    cut only to be read in bulk (``marked`` false: a column block's
    piece, a row walk's first chunk) has no ``mark``.
    """

    __slots__ = ("count", "val", "mark")

    def __init__(self, count: np.ndarray, val: np.ndarray,
                 marked: bool = True) -> None:
        self.count = count
        self.val = val
        self.mark = np.concatenate((
            np.zeros(1, dtype=np.int64),
            np.cumsum(count, dtype=np.int64)[_MARK - 1::_MARK])
        ) if marked else None

    @classmethod
    def fit(cls, count: np.ndarray, val: np.ndarray) -> "_Operands":
        """Int64 ``(count, val)`` columns, ``val`` :func:`_checked`, in
        their compact dtypes."""
        return cls(_fit(count, np.uint8, np.int64, "operand count"),
                   val.astype(np.int16))

    def offset(self, i: int) -> int:
        """Position in ``val`` of row ``i``'s first operand (``i`` may be
        the row count)."""
        return (int(self.mark[i // _MARK])
                + sum(self.count[i - i % _MARK:i].tolist()))

    def slice(self, lo: int, hi: int) -> np.ndarray:
        """The operands of rows ``[lo, hi)``."""
        return self.val[self.offset(lo):self.offset(hi)]

    def row(self, i: int) -> tuple[int, ...]:
        start = self.offset(i)
        return tuple(self.val[start:start + int(self.count[i])].tolist())

    def rows(self, lo: int, hi: int, marked: bool = True) -> "_Operands":
        """Rows ``[lo, hi)``: counts and values share storage."""
        return _Operands(self.count[lo:hi], self.slice(lo, hi), marked)

    def tuples(self) -> list[tuple[int, ...]]:
        """Every row's operand tuple."""
        val = self.val.tolist()
        ends = np.cumsum(self.count, dtype=np.int64).tolist()
        return [tuple(val[a:b]) for a, b in zip(chain((0,), ends), ends)]

    def nbytes(self) -> int:
        return self.count.nbytes + self.val.nbytes + self.mark.nbytes


def _csr(lists: list[_Operands]) -> tuple[np.ndarray, np.ndarray]:
    """``lists``' rows in order as one CSR pair: offsets from 0, values."""
    count = np.concatenate([ops.count for ops in lists])
    offsets = np.zeros(len(count) + 1, dtype=np.int64)
    np.cumsum(count, dtype=np.int64, out=offsets[1:])
    return offsets, np.concatenate([ops.val for ops in lists])


#: The sparse columns of a sealed chunk, each with the value a row that
#: carries no scalar field reads as (``taken`` in its int8 encoding).
_SPARSE = (("has_addr", False), ("addr", 0), ("nbytes", 0), ("stride", 0),
           ("vl", 1), ("taken", _TAKEN_ENCODE[None]), ("site", 0))


class _Chunk:
    """One sealed block of rows: a trace's chunk, a skeleton's template,
    or a replayed call staged in the tail (:meth:`RowSkeleton.call`).

    ``op`` holds one opcode id per row and ``src``/``dst`` the operand
    lists (:class:`_Operands`).  The six scalar fields stay sparse, as in
    the staging tail: ``at`` lists the rows that carry any of them,
    ascending, and ``has_addr``, ``addr``, ``nbytes``, ``stride``, ``vl``,
    ``taken`` and ``site`` hold one value per listed row.  ``addr`` stores
    0 for an address-less row, disambiguated by ``has_addr`` (address 0
    itself never occurs -- the functional memory allocates above
    :data:`~repro.emulib.memory.Memory.BASE` -- but the column does not
    rely on that); ``taken`` is int8 (-1 not a branch, 0/1 outcome).
    """

    __slots__ = ("n", "op", "src", "dst", "at") + tuple(
        name for name, _ in _SPARSE)

    def __init__(self, stage: _Stage) -> None:
        n = self.n = len(stage)
        (op, (src_count, src_val), (dst_count, dst_val), at, self.has_addr,
         self.addr, nbytes, stride, vl, self.taken, site) = stage.columns()
        self.op = _fit(op, np.int16, np.int32, "op")
        self.src = _Operands.fit(src_count, src_val)
        self.dst = _Operands.fit(dst_count, dst_val)
        # Row numbers fit uint16 in a chunk of at most 65536 rows, and
        # stay re-basable (see ``rows``) in any chunk.
        self.at = at.astype(np.uint16 if n <= 1 << 16 else np.int64)
        self.nbytes = _fit(nbytes, np.int16, np.int64, "nbytes")
        self.stride = _fit(stride, np.int32, np.int64, "stride")
        self.vl = _fit(vl, np.int16, np.int64, "vl")
        self.site = _fit(site, np.int32, np.int64, "site")

    def rows(self, lo: int, hi: int, marked: bool = True) -> "_Chunk":
        """A chunk holding rows ``[lo, hi)``; its columns share storage
        with this one's, except the re-based ``at`` and operand marks
        (left out unless ``marked``: only :meth:`row` reads them)."""
        part = _Chunk.__new__(_Chunk)
        part.n = hi - lo
        part.op = self.op[lo:hi]
        part.src = self.src.rows(lo, hi, marked)
        part.dst = self.dst.rows(lo, hi, marked)
        k0, k1 = self.at.searchsorted((lo, hi)).tolist()
        part.at = self.at[k0:k1] - lo
        for name, _ in _SPARSE:
            setattr(part, name, getattr(self, name)[k0:k1])
        return part

    def _fields(self, k: int) -> tuple:
        """The scalar fields of the ``k``-th sparse row, decoded."""
        return (int(self.addr[k]) if self.has_addr[k] else None,
                int(self.nbytes[k]), int(self.stride[k]), int(self.vl[k]),
                _TAKEN_DECODE[int(self.taken[k]) + 1], int(self.site[k]))

    def row(self, i: int) -> tuple:
        """One row decoded back to canonical Python values (op still an id)."""
        k = int(self.at.searchsorted(i))
        fields = (self._fields(k) if k < len(self.at) and self.at[k] == i
                  else _PLAIN)
        return (int(self.op[i]), self.src.row(i), self.dst.row(i)) + fields

    def iter_rows(self):
        """All rows as canonical Python tuples (bulk ``tolist`` decode)."""
        addr = [a if has else None for a, has in zip(
            self.addr.tolist(), self.has_addr.tolist())]
        taken = [_TAKEN_DECODE[t + 1] for t in self.taken.tolist()]
        extra = zip(self.at.tolist(), addr, self.nbytes.tolist(),
                    self.stride.tolist(), self.vl.tolist(), taken,
                    self.site.tolist())
        nxt = next(extra, None)
        for i, head in enumerate(zip(self.op.tolist(), self.src.tuples(),
                                     self.dst.tuples())):
            if nxt is not None and nxt[0] == i:
                yield head + nxt[1:]
                nxt = next(extra, None)
            else:
                yield head + _PLAIN

    def nbytes_storage(self) -> int:
        """Bytes of column storage this chunk occupies (diagnostics)."""
        return (self.op.nbytes + self.src.nbytes() + self.dst.nbytes()
                + self.at.nbytes
                + sum(getattr(self, name).nbytes for name, _ in _SPARSE))


class _Block:
    """Consecutive sealed rows in dense column form: what
    :meth:`Trace.iter_column_blocks` yields.

    ``n`` rows; ``op``, ``has_addr``, ``addr``, ``nbytes``, ``stride``,
    ``vl``, ``taken`` and ``site`` hold one value per row (a row that
    carries no scalar field reads the defaults), and the operand lists are
    CSR pairs: ``src_off[i]:src_off[i + 1]`` slices ``src_val``, with
    offsets starting at 0 (likewise ``dst``).
    """

    __slots__ = ("n", "op", "src_off", "src_val", "dst_off", "dst_val") + (
        tuple(name for name, _ in _SPARSE))

    def __init__(self, parts: list[_Chunk]) -> None:
        n = self.n = sum(part.n for part in parts)
        self.op = np.concatenate([part.op for part in parts])
        self.src_off, self.src_val = _csr([part.src for part in parts])
        self.dst_off, self.dst_val = _csr([part.dst for part in parts])
        starts = np.cumsum([0] + [part.n for part in parts[:-1]]).tolist()
        at = np.concatenate([part.at.astype(np.intp) + start
                             for part, start in zip(parts, starts)])
        for name, default in _SPARSE:
            values = np.concatenate([getattr(part, name) for part in parts])
            column = np.full(n, default, dtype=values.dtype)
            column[at] = values
            setattr(self, name, column)

    def taken_at(self, rows) -> list:
        """Decoded ``taken`` (``None``/``False``/``True``) of ``rows``."""
        return [_TAKEN_DECODE[t + 1] for t in self.taken[rows].tolist()]


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
            for op_ids, vl_ids, vl in trace._stat_blocks():
                counts += np.bincount(op_ids, minlength=nops)
                # Every row counts once; a row with a VL counts VL - 1 more.
                more = vl.astype(np.int64) - 1
                operations += int((more * lanes[vl_ids]).sum())
                memory_refs += int(more[is_mem[vl_ids]].sum())
            operations += int(counts @ lanes)
            memory_refs += int(counts[is_mem].sum())

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
    :meth:`emit` / :meth:`emit_skeleton` / :meth:`append` /
    :meth:`extend` / :meth:`truncate` -- invalidates the cache (rows only
    grow at the end, so a cached summary is stale once the length
    differs; :meth:`truncate` drops it).

    The trace also keeps a call table (:attr:`calls`): where each
    :meth:`emit_skeleton` write put its skeleton's rows, so a consumer
    can decode a skeleton once for all its calls.
    """

    __slots__ = ("isa", "_ops", "_op_ids", "_chunks", "_chunk_ends",
                 "_stage", "_sealed", "_chunk_rows", "_summary", "_calls")

    def __init__(self, isa: str, *, chunk_rows: int = CHUNK_ROWS) -> None:
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.isa = isa
        self._ops: list[Opcode] = []            # op id -> Opcode
        self._op_ids: dict[int, int] = {}       # id(Opcode) -> op id
        self._chunks: list[_Chunk] = []
        self._chunk_ends: list[int] = []        # cumulative rows per chunk
        self._stage = _Stage(chunk_rows)
        self._sealed = 0                        # rows in sealed chunks
        self._chunk_rows = chunk_rows
        self._summary: TraceSummary | None = None
        self._calls: list[tuple[int, int, RowSkeleton]] = []

    def __repr__(self) -> str:
        return (f"Trace(isa={self.isa!r}, instructions={len(self)}, "
                f"chunks={len(self._chunks)})")

    # --- mutation ---------------------------------------------------------------

    def emit(self, op: Opcode, srcs: tuple[int, ...], dsts: tuple[int, ...],
             addr: int | None = None, nbytes: int = 0, stride: int = 0,
             vl: int = 1, taken: bool | None = None, site: int = 0) -> None:
        """Append one row: the trace's row writer.

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
        if len(ops) >= stage.limit:
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

    def emit_skeleton(self, skeleton: RowSkeleton, addrs, taken,
                      site: int) -> None:
        """Append the rows of ``skeleton``: the bulk twin of :meth:`emit`.

        The k-th memory row gets ``addrs[k]``, the k-th branch row
        ``taken[k]`` and ``site`` (:meth:`RowSkeleton.call`, which
        raises before anything changes).  The tail stages that call
        chunk, or the pieces of it a seal cuts off, and the call joins
        the call table.  The trace is left as :meth:`emit` would leave it
        for the same rows written one by one: new opcodes are interned in
        first-appearance order, addresses and outcomes are canonicalized
        to ``int`` and ``bool``, the tail seals at the same row counts --
        by swapping in a fresh one, so a reader walking the old tail
        keeps its rows -- and sealed chunks are identical.  A seal that
        raises leaves the rows written so far staged, and the call out of
        the call table.
        """
        call = skeleton.call(addrs, taken, site)
        ids = []
        for op in skeleton.opcodes:
            op_id = self._op_ids.get(id(op))
            ids.append(self._intern(op) if op_id is None else op_id)
        call.op = skeleton.op_column(tuple(ids))
        n = call.n
        start = len(self)
        lo = 0
        while lo < n:
            # Up to the row at which per-row emit would seal, then seal.
            stage = self._stage
            hi = min(n, lo + self._chunk_rows - len(stage))
            stage.calls.append((len(stage), len(stage.op),
                                call if hi - lo == n else call.rows(lo, hi)))
            stage.called += hi - lo
            stage.limit -= hi - lo
            lo = hi
            if len(stage) >= self._chunk_rows:
                self._seal()
        if n:
            self._calls.append((start, start + n, skeleton))

    def extend(self, other: "Trace") -> None:
        """Concatenate another trace (used to stitch program phases).

        Rows are **copied by value** -- the two traces share no mutable
        state afterwards, so later mutation of either can never corrupt
        the other or desynchronize a cached summary it holds (the seed
        list-of-objects encoding aliased ``DynInstr`` instances here).
        ``other``'s calls join the call table, moved down by this
        trace's length.
        """
        rows, calls = other._raw_rows(), other._calls
        if other is self:
            rows, calls = list(rows), list(calls)   # snapshot first
        shift = len(self)
        emit = self.emit
        for row in rows:
            emit(*row)
        self._calls += [(start + shift, end + shift, skeleton)
                        for start, end, skeleton in calls]

    def truncate(self, length: int) -> None:
        """Drop every row at index ``length`` and beyond (a call cut
        short keeps its head in the call table)."""
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
            self._stage = _Stage(self._chunk_rows)
        calls = self._calls
        del calls[bisect_left(calls, length, key=_start):]
        if calls and calls[-1][1] > length:
            calls[-1] = (calls[-1][0], length, calls[-1][2])
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
        """Convert the staging tail into a sealed chunk and start a new one.

        The old tail's lists are swapped out, never cleared, so a row
        iterator already walking them still yields every row.  A value
        the conversion rejects raises before anything changes.
        """
        if not len(self._stage):
            return
        chunk = _Chunk(self._stage)
        self._chunks.append(chunk)
        self._sealed += chunk.n
        self._chunk_ends.append(self._sealed)
        self._stage = _Stage(self._chunk_rows)

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

    def _raw_rows(self, start: int = 0):
        """Rows ``start`` onward as canonical tuples, op decoded to its
        Opcode."""
        ops = self._ops
        first = bisect_right(self._chunk_ends, start)
        skip = start - (self._chunk_ends[first - 1] if first else 0)
        for chunk in islice(self._chunks, first, None):
            if skip:
                chunk, skip = chunk.rows(skip, chunk.n, marked=False), 0
            for row in chunk.iter_rows():
                yield (ops[row[0]],) + row[1:]
        for row in self._stage.iter_rows(skip):
            yield (ops[row[0]],) + row[1:]

    def _stat_blocks(self):
        """Per sealed chunk, for summary stats: every row's op id, then the
        op ids and ``vl`` of the rows that carry scalar fields (every
        other row has ``vl`` 1).  A column reader: seals the tail first."""
        self._seal()
        for chunk in self._chunks:
            yield chunk.op, chunk.op[chunk.at], chunk.vl

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

    def skeleton(self, start: int) -> RowSkeleton:
        """The skeleton of rows ``start`` onward -- what one emitter call
        wrote -- for :meth:`emit_skeleton` to write again."""
        return RowSkeleton(self._raw_rows(start))

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

    @property
    def calls(self) -> tuple[tuple[int, int, RowSkeleton], ...]:
        """The call table: ``(start, end, skeleton)`` per call, ascending.
        Rows ``[start, end)`` are the skeleton's rows ``[0, end - start)``
        with the call's addresses, outcomes and site (a call
        :meth:`truncate` cut short keeps its head).  Rows outside every
        call were written row by row."""
        return tuple(self._calls)

    def iter_column_blocks(self, rows: int):
        """The trace as consecutive column blocks of ``rows`` rows each
        (the last one shorter), in program order.

        Each block (``_Block``) has dense columns -- ``n``, ``op``,
        ``addr``/``has_addr``, ``nbytes``, ``stride``, ``vl``, ``taken``,
        ``site`` and the ``src``/``dst`` CSR pairs with offsets starting
        at 0 -- whatever the chunk geometry: blocks are cut across chunk
        boundaries, so a consumer holds the columns plus the block it
        reads.  A column reader: the first block seals the staging tail.
        """
        if rows < 1:
            raise ValueError("rows must be >= 1")
        self._seal()
        parts: list[_Chunk] = []
        have = 0
        for chunk in self._chunks:
            lo = 0
            while lo < chunk.n:
                take = min(rows - have, chunk.n - lo)
                parts.append(chunk.rows(lo, lo + take, marked=False))
                have += take
                lo += take
                if have == rows:
                    yield _Block(parts)
                    parts = []
                    have = 0
        if parts:
            yield _Block(parts)

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
        """Bytes of column storage over every row (diagnostics; the
        interning tables are not counted).  A column reader: seals the
        staging tail first."""
        self._seal()
        return sum(chunk.nbytes_storage() for chunk in self._chunks)
