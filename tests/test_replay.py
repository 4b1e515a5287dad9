"""Replayed emitters against their per-instruction bodies.

``idct.emit_alpha_pass``, ``motion.emit_alpha_distance``,
``addblock.emit_alpha_addblock`` and the ``ScalarStages`` methods
``quant8``, ``residual8`` and ``dequant8`` run their per-instruction body
on the first call with a shape and record the rows it wrote; later calls
compute on Python ints and append the recorded row skeleton (DESIGN.md
section 5).  The emitters replayed by re-running (``replay_body``) run
their body on every call, later calls against a row checker, and append
the skeleton.  Each test drives twin builders with the same allocations:
the oracle runs the body on every call, the other calls the emitter.
After every call -- the recording one and the replayed ones -- both must
hold the same trace rows, the same memory bytes and the same value in
every register.
"""

import numpy as np
import pytest

from repro.apps import stages, stages_media
from repro.apps.stages import FDCT_MAT, IDCT_MAT, ScalarStages
from repro.apps.stages_media import MmxStages, MomStages
from repro.emulib import base_builder
from repro.emulib.alpha_builder import AlphaBuilder
from repro.emulib.base_builder import replay, replay_body
from repro.emulib.mdmx_builder import MdmxBuilder
from repro.emulib.mmx_builder import MmxBuilder
from repro.emulib.mom_builder import MomBuilder
from repro.emulib.trace import RowChecker, Trace
from repro.kernels import addblock, idct, ltp, motion
from repro.kernels.idct import (N, OUT_MAX, OUT_MIN, PASS1_ROUND,
                                PASS1_SHIFT, PASS2_ROUND, PASS2_SHIFT)

SEED = 20251019
PASS_BODY = idct._pass_body
DISTANCE_BODY = motion._distance_body
ADDBLOCK_BODY = addblock._addblock_body
QUANT_BODY = stages._quant_body
DEQUANT_BODY = stages._dequant_body
RESIDUAL_BODY = stages._residual_body


def _twins(chunk_rows=None, cls=AlphaBuilder):
    """Two fresh ``cls`` builders (oracle, replaying); ``chunk_rows``
    shrinks both traces' chunks so replays straddle seals."""
    twins = (cls(), cls())
    if chunk_rows:
        for b in twins:
            b.trace = Trace(b.isa_name, chunk_rows=chunk_rows)
    return twins


def _assert_same(oracle, replayed, regs):
    assert len(replayed.trace) == len(oracle.trace)
    assert (list(replayed.trace.iter_field_tuples())
            == list(oracle.trace.iter_field_tuples()))
    assert np.array_equal(replayed.mem.data, oracle.mem.data)
    assert [r.value for r in regs[1]] == [r.value for r in regs[0]]


@pytest.fixture
def body_calls(monkeypatch):
    """Counts the emitters' own calls of their bodies (the oracle calls
    the bodies it imported above, which are not counted)."""
    calls = []
    for module, name in ((idct, "_pass_body"), (motion, "_distance_body"),
                         (addblock, "_addblock_body"),
                         (stages, "_quant_body"), (stages, "_dequant_body"),
                         (stages, "_residual_body")):
        body = getattr(module, name)

        def counted(*args, _body=body):
            calls.append(1)
            return _body(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def _coefficients(rng):
    """int16 blocks at the extremes: +-32767, -32768, 0, and random."""
    block = rng.integers(-32768, 32768, (N, N)).astype(np.int16)
    edges = np.asarray([32767, -32767, -32768, 0, 1, -1], dtype=np.int16)
    block.flat[rng.choice(N * N, 16, replace=False)] = rng.choice(edges, 16)
    return block


# --- the transform pass --------------------------------------------------------

@pytest.mark.parametrize("column", [True, False])
@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("chunk_rows", [None, 1000])
def test_pass_replay_matches_body(body_calls, column, clamp, chunk_rows):
    """Same rows, bytes and registers on the recording call and on every
    replay: the IDCT and FDCT passes, then a matrix of huge constants
    with a huge rounding term and a shift past 63 (products and sums wrap
    at 64 bits), then clamp bounds with ``lo`` above ``hi``.  With
    1000-row chunks every 3,344- or 3,600-row call straddles seals."""
    rng = np.random.default_rng(SEED)
    huge = rng.integers(-(1 << 62), 1 << 62, (N, N))
    calls = [(idct.idct_matrix(), PASS1_ROUND, PASS1_SHIFT),
             (idct.idct_matrix().T.copy(), PASS2_ROUND, PASS2_SHIFT),
             (huge, int(rng.integers(-(1 << 62), 1 << 62)), 70),
             (idct.idct_matrix(), PASS2_ROUND, PASS2_SHIFT)]
    twins = _twins(chunk_rows)
    regs, bases = [], []
    for b in twins:
        b.mem.alloc(3)                      # bases off the 64-byte grid
        regs.append([b.ireg() for _ in range(6)]
                    + [b.ireg(OUT_MIN), b.ireg(OUT_MAX), b.ireg()])
        bases.append((b.mem.alloc(128, align=2), b.mem.alloc(128, align=2)))
    site = twins[0].site()
    for call, (mat, rnd, shift) in enumerate(calls):
        block = _coefficients(rng)
        if call == len(calls) - 1:
            for reg in regs:
                reg[6].value, reg[7].value = 300, -5
        for b, (src, _dst) in zip(twins, bases):
            b.mem.store_array(src, block)
        PASS_BODY(twins[0], mat, *bases[0], rnd, shift, column, clamp,
                  regs[0], site)
        idct.emit_alpha_pass(twins[1], mat, *bases[1], rnd, shift, column,
                             clamp, regs[1], site)
        _assert_same(*twins, regs)
    assert len(body_calls) == 1 and len(twins[1].skeletons) == 1
    if chunk_rows:
        assert twins[1].trace._chunk_ends == twins[0].trace._chunk_ends
        assert (twins[1].trace.storage_bytes()
                == twins[0].trace.storage_bytes())


def test_overlapping_pass_raises_before_writing():
    """Overlapping source and destination regions are refused before any
    row is written; adjacent ones are fine."""
    b = AlphaBuilder()
    regs = [b.ireg() for _ in range(9)]
    base = b.mem.alloc(256)
    for src, dst in ((base, base), (base, base + 126), (base + 126, base)):
        with pytest.raises(ValueError, match="overlap"):
            idct.emit_alpha_pass(b, idct.idct_matrix(), src, dst,
                                 PASS1_ROUND, PASS1_SHIFT, True, False,
                                 regs, 1)
    assert len(b.trace) == 0
    idct.emit_alpha_pass(b, idct.idct_matrix(), base, base + 128,
                         PASS1_ROUND, PASS1_SHIFT, True, False, regs, 1)
    assert len(b.trace) == 3344


# --- the block distance --------------------------------------------------------

def _frame(rng, height=40, width=64):
    """Random bytes with runs of 0 and 255 (the extremes of a pixel)."""
    frame = rng.integers(0, 256, (height, width), dtype=np.uint8)
    frame[rng.integers(0, height, 8), :] = 255
    frame[:, rng.integers(0, width, 8)] = 0
    return frame


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("chunk_rows", [None, 1000])
def test_distance_replay_matches_body(body_calls, squared, chunk_rows):
    """Same rows, bytes and registers on the recording call and on every
    replay, over positive, zero and negative row strides."""
    rng = np.random.default_rng(SEED + squared)
    ref, blk = _frame(rng), _frame(rng, 16, 16)
    twins = _twins(chunk_rows)
    regs, addrs = [], []
    for b in twins:
        regs.append([b.ireg() for _ in range(8)])
        addrs.append((b.mem.alloc_array(ref), b.mem.alloc_array(blk)))
    site = twins[0].site()
    width = ref.shape[1]
    calls = [(0, width, 0, 16), (5 * width + 17, width, 0, 16),
             (3, 0, 1, 0), (39 * width + 40, -width, 15 * 16, -16)]
    for ref_off, ref_stride, blk_off, blk_stride in calls:
        args = [(ref_addr + ref_off, ref_stride, blk_addr + blk_off,
                 blk_stride, reg[7], reg[:7], site)
                for reg, (ref_addr, blk_addr) in zip(regs, addrs)]
        DISTANCE_BODY(twins[0], *args[0], squared)
        motion.emit_alpha_distance(twins[1], *args[1], squared)
        _assert_same(*twins, regs)
    assert len(body_calls) == 1 and len(twins[1].skeletons) == 1
    if chunk_rows:
        assert twins[1].trace._chunk_ends == twins[0].trace._chunk_ends


def test_out_of_range_replay_raises_before_writing():
    """A replay reads and writes memory through the bounds-checked block
    accessors, so an access outside memory raises ``IndexError`` -- and
    before any row, byte or register changes."""
    b = AlphaBuilder()
    regs = [b.ireg() for _ in range(8)]
    frame = b.mem.alloc_array(np.zeros((16, 16), dtype=np.uint8))
    motion.emit_alpha_distance(b, frame, 16, frame, 16, regs[7], regs[:7], 1)
    end = b.mem.BASE + b.mem.size
    src = b.mem.alloc(128)
    pregs = [b.ireg() for _ in range(9)]

    def transform(dst):
        idct.emit_alpha_pass(b, idct.idct_matrix(), src, dst, PASS1_ROUND,
                             PASS1_SHIFT, True, False, pregs, 1)

    transform(src + 128)
    rows, values = len(b.trace), [r.value for r in regs + pregs]
    data = b.mem.data.copy()
    for ref_addr in (end - 16, -64, b.mem.BASE - 8):
        with pytest.raises(IndexError):
            motion.emit_alpha_distance(b, ref_addr, 16, frame, 16, regs[7],
                                       regs[:7], 1)
    with pytest.raises(IndexError):
        transform(end - 64)
    assert len(b.trace) == rows
    assert [r.value for r in regs + pregs] == values
    assert np.array_equal(b.mem.data, data)


def test_aliased_registers_never_replay(body_calls):
    """A call whose registers are not all distinct runs the body every
    time, so its values still follow the body's."""
    twins = _twins()
    regs, addrs = [], []
    for b in twins:
        reg = [b.ireg() for _ in range(7)]
        regs.append(reg + [reg[4]])                 # out aliases d
        addrs.append(b.mem.alloc_array(_frame(np.random.default_rng(SEED))))
    for _ in range(3):
        DISTANCE_BODY(twins[0], addrs[0], 64, addrs[0] + 3, 64,
                      regs[0][7], regs[0][:7], 1, False)
        motion.emit_alpha_distance(twins[1], addrs[1], 64, addrs[1] + 3, 64,
                                   regs[1][7], regs[1][:7], 1)
        _assert_same(*twins, regs)
    assert len(body_calls) == 3 and not twins[1].skeletons


# --- the block addition ----------------------------------------------------------

def _residuals(rng, low=-256, high=256):
    """int16 residuals, random in ``[low, high)`` with the extremes of
    that range and 0 planted."""
    block = rng.integers(low, high, (8, 8)).astype(np.int16)
    block.flat[rng.choice(64, 12, replace=False)] = rng.choice(
        [low, high - 1, 0], 12)
    return block


def _addblock_twins(rng, chunk_rows=None, pad=0):
    """Twin builders holding one frame, one residual slot and the clamp
    table (``pad`` bytes above it, so extreme residuals index memory)."""
    twins = _twins(chunk_rows)
    frame = _frame(rng)
    regs, addrs = [], []
    for b in twins:
        frame_addr = b.mem.alloc_array(frame)
        resid_addr = b.mem.alloc(128)
        out_addr = b.mem.alloc(64 * 8)
        b.mem.alloc(pad)
        table = b.mem.alloc_array(addblock.clamp_table())
        b.mem.alloc(pad)
        regs.append([b.ireg() for _ in range(7)]
                    + [b.ireg(table + addblock.TABLE_BIAS)])
        addrs.append((frame_addr, resid_addr, out_addr))
    return twins, regs, addrs


def _addblock_calls(twins, regs, addrs, calls, site):
    """``calls``: (residual block, pred offset, pstride, dst offset or
    ``None`` for in place at pred, dstride) per call."""
    for block, pred_off, pstride, dst_off, dstride in calls:
        args = []
        for b, reg, (frame, resid, out) in zip(twins, regs, addrs):
            b.mem.store_array(resid, block)
            pred = frame + pred_off
            dst = pred if dst_off is None else out + dst_off
            args.append((pred, pstride, resid, dst, dstride, reg[7],
                         reg[:7], site))
        ADDBLOCK_BODY(twins[0], *args[0])
        addblock.emit_alpha_addblock(twins[1], *args[1])
        _assert_same(*twins, regs)


@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_addblock_replay_matches_body(body_calls, chunk_rows):
    """Same rows, bytes and registers over residuals at the clamp's
    extremes, positive/zero/negative strides and in-place stores (the
    decoder's form, which still replays); with 100-row chunks every
    492-row call straddles several seals."""
    rng = np.random.default_rng(SEED + 7)
    twins, regs, addrs = _addblock_twins(rng, chunk_rows)
    site = twins[0].site()
    calls = [(_residuals(rng), 0, 64, 0, 8),
             (_residuals(rng), 5 * 64 + 17, 64, 64, 8),
             (_residuals(rng), 3, 0, 128, 0),
             (_residuals(rng), 39 * 64 + 40, -64, 448, -8),
             (_residuals(rng), 2 * 64 + 8, 64, None, 64)]
    _addblock_calls(twins, regs, addrs, calls, site)
    assert len(body_calls) == 1 and len(twins[1].skeletons) == 1
    if chunk_rows:
        assert twins[1].trace._chunk_ends == twins[0].trace._chunk_ends


def test_addblock_replay_with_extreme_residuals(body_calls):
    """int16 residuals at -32768 and 32767 index bytes far outside the
    clamp table: the replay reads the same bytes the body would."""
    rng = np.random.default_rng(SEED + 8)
    twins, regs, addrs = _addblock_twins(rng, pad=40000)
    calls = [(_residuals(rng, -32768, 32768), 64 * k, 64, 0, 8)
             for k in range(4)]
    _addblock_calls(twins, regs, addrs, calls, 1)
    assert len(body_calls) == 1


def test_addblock_reading_its_own_stores_runs_the_body(body_calls):
    """A call whose stores land on bytes it loads later -- the residual
    block, or prediction rows further down -- runs the body, so it still
    reads what the body reads."""
    rng = np.random.default_rng(SEED + 9)
    twins, regs, addrs = _addblock_twins(rng)
    _addblock_calls(twins, regs, addrs,
                    [(_residuals(rng), 0, 64, 0, 8)], 1)       # recorded
    for dst, dstride in (("resid", 8), ("frame", 32)):
        block = _residuals(rng)
        args = []
        for b, reg, (frame, resid, _out) in zip(twins, regs, addrs):
            b.mem.store_array(resid, block)
            args.append((frame, 64, resid,
                         resid + 2 if dst == "resid" else frame + 64,
                         dstride, reg[7], reg[:7], 1))
        ADDBLOCK_BODY(twins[0], *args[0])
        addblock.emit_alpha_addblock(twins[1], *args[1])
        _assert_same(*twins, regs)
    assert len(body_calls) == 3


def test_addblock_out_of_range_raises_before_writing():
    """Prediction rows past memory, or residuals that index the table
    below memory, raise ``IndexError`` before any row, byte or register
    changes."""
    rng = np.random.default_rng(SEED + 10)
    (b, _), (regs, _), ((frame, resid, out), _) = _addblock_twins(rng)
    b.mem.store_array(resid, _residuals(rng))
    addblock.emit_alpha_addblock(b, frame, 64, resid, out, 8, regs[7],
                                 regs[:7], 1)
    regs[7].value = b.mem.BASE + 100        # the table index drops below
    b.mem.store_array(resid, np.full((8, 8), -300, dtype=np.int16))
    rows, values = len(b.trace), [r.value for r in regs]
    data = b.mem.data.copy()
    for pred in (b.mem.BASE + b.mem.size - 64, frame):
        with pytest.raises(IndexError):
            addblock.emit_alpha_addblock(b, pred, 64, resid, out, 8,
                                         regs[7], regs[:7], 1)
    assert len(b.trace) == rows
    assert [r.value for r in regs] == values
    assert np.array_equal(b.mem.data, data)


def test_addblock_aliased_registers_never_replay(body_calls):
    rng = np.random.default_rng(SEED + 11)
    twins, regs, addrs = _addblock_twins(rng)
    for reg in regs:
        reg[7] = reg[5]                     # the table register is idx
    for b, reg in zip(twins, regs):
        reg[7].value = b.mem.BASE + 0x4000
    for _ in range(3):
        for reg, b in zip(regs, twins):     # the body moves idx
            reg[7].value = b.mem.BASE + 0x4000
        _addblock_calls(twins, regs, addrs,
                        [(_residuals(rng), 64, 64, 0, 8)], 1)
    assert len(body_calls) == 3 and not twins[1].skeletons


# --- the coefficient and residual stages ------------------------------------------

def _stage_twins(chunk_rows=None):
    """Twin builders with a :class:`ScalarStages` each, a frame and a
    coefficient block."""
    twins = _twins(chunk_rows)
    st = [ScalarStages(b) for b in twins]
    return twins, st


def _stage_regs(st):
    return [list(s.r) + [s.z] for s in st]


@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_coefficient_stages_replay_matches_body(body_calls, chunk_rows):
    """quant8 and dequant8 over coefficients at the int16 extremes, on
    and off 16's multiples; later calls with a nonzero ``z`` register
    (the body subtracts from it).  With 100-row chunks every call
    straddles seals."""
    rng = np.random.default_rng(SEED + 12)
    twins, st = _stage_twins(chunk_rows)
    slots = [b.mem.alloc(128, align=2) for b in twins]
    regs = _stage_regs(st)
    edges = [32767, -32768, -32767, 16, -16, 15, -15, 17, -17, 0, 1, -1]
    for call in range(6):
        block = _coefficients(rng)
        block.flat[:len(edges)] = edges
        if call == 4:
            for s in st:
                s.z.value = -12345
        for b, slot in zip(twins, slots):
            b.mem.store_array(slot, block)
        for stage, body, count in (("quant8", QUANT_BODY, 5),
                                   ("dequant8", DEQUANT_BODY, 3)):
            body(twins[0], slots[0],
                 (*st[0].r[:count], st[0].z)[:count + (stage == "quant8")],
                 twins[0].site())
            getattr(st[1], stage)(slots[1])
            _assert_same(*twins, regs)
    assert len(body_calls) == 2 and len(twins[1].skeletons) == 2


@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_residual_replay_matches_body(body_calls, chunk_rows):
    """residual8 over pixels at 0 and 255 and positive, zero and negative
    strides; a call that stores over bytes it loads later runs the
    body."""
    rng = np.random.default_rng(SEED + 13)
    twins, st = _stage_twins(chunk_rows)
    frames = [b.mem.alloc_array(_frame(rng)) for b in twins]
    frame = twins[0].mem.load_array(frames[0], np.uint8, 40 * 64)
    twins[1].mem.store_array(frames[1], frame)
    outs = [b.mem.alloc(128) for b in twins]
    regs = _stage_regs(st)
    calls = [(0, 64, 16 * 64, 64, "out"), (5 * 64 + 3, 64, 9, 0, "out"),
             (39 * 64 + 40, -64, 20 * 64, 64, "out"),
             (0, 64, 8, 64, 3 * 64)]          # stores over later loads
    for cur, cstride, pred, pstride, dst in calls:
        args = [(f + cur, cstride, f + pred, pstride,
                 out if dst == "out" else f + dst)
                for f, out in zip(frames, outs)]
        RESIDUAL_BODY(twins[0], *args[0], st[0].r[:6], twins[0].site())
        st[1].residual8(*args[1])
        _assert_same(*twins, regs)
    assert len(body_calls) == 2 and len(twins[1].skeletons) == 1


def test_stage_out_of_range_raises_before_writing():
    """The stages read and write through the bounds-checked block
    accessors: an access outside memory raises ``IndexError`` before any
    row, byte or register changes."""
    b = AlphaBuilder()
    st = ScalarStages(b)
    slot = b.mem.alloc(128)
    frame = b.mem.alloc(64 * 16)
    st.quant8(slot)
    st.dequant8(slot)
    st.residual8(frame, 64, frame + 512, 64, slot)
    rows, values = len(b.trace), [r.value for r in st.r]
    data = b.mem.data.copy()
    end = b.mem.BASE + b.mem.size
    for call in (lambda: st.quant8(end - 64), lambda: st.dequant8(-128),
                 lambda: st.residual8(end - 8, 64, frame, 64, slot),
                 lambda: st.residual8(frame, 64, frame + 512, 64, end)):
        with pytest.raises(IndexError):
            call()
    assert len(b.trace) == rows
    assert [r.value for r in st.r] == values
    assert np.array_equal(b.mem.data, data)


def test_stage_aliased_registers_never_replay(body_calls):
    twins, st = _stage_twins()
    for s in st:
        s.r[3] = s.r[1]                     # quant8's sign is its v
    slots = [b.mem.alloc(128, align=2) for b in twins]
    rng = np.random.default_rng(SEED + 14)
    for _ in range(3):
        block = _coefficients(rng)
        for b, slot in zip(twins, slots):
            b.mem.store_array(slot, block)
        QUANT_BODY(twins[0], slots[0], (*st[0].r[:5], st[0].z),
                   twins[0].site())
        st[1].quant8(slots[1])
        _assert_same(*twins, _stage_regs(st))
    assert len(body_calls) == 3 and not twins[1].skeletons


# --- emitters replayed by re-running their body -----------------------------------

@pytest.fixture
def rerun(monkeypatch):
    """Makes every builder with a true ``oracle`` attribute run each
    ``replay_body`` call's body directly, as per-row emit would; the
    other builders go through ``replay_body``."""
    def patched(b, shape, regs, body):
        if getattr(b, "oracle", False):
            body()
        else:
            replay_body(b, shape, regs, body)

    for module in (stages, stages_media, idct, ltp):
        monkeypatch.setattr(module, "replay_body", patched)


def _rerun_twins(cls, chunk_rows=None):
    twins = _twins(chunk_rows, cls)
    twins[0].oracle = True
    return twins


def _same_calls(twins, shapes):
    """The replaying twin wrote one call per call of a recorded shape
    and the oracle none; ``shapes`` lists the key of every call."""
    replayed = twins[1].trace.calls
    assert not twins[0].trace.calls
    assert len(replayed) == len(shapes) - len(set(shapes))
    assert len(twins[1].skeletons) == len(set(shapes))


def _stage_values(st):
    """Every register a media stage set holds."""
    regs = list(st.r) + [st.z] + list(st.m) + list(st.k) + [st.mzero]
    if isinstance(st, MomStages):
        return regs + [st.acc, st.acc2, st.stride_reg]
    return regs + list(st.c4)


def _block_extremes(rng):
    """An int16 8x8 block holding +-32767, -32768 and 0 among random
    values."""
    block = _coefficients(rng)
    block.flat[:4] = [32767, -32767, -32768, 0]
    return block


@pytest.mark.parametrize("chunk_rows", [None, 1000])
def test_mmx_stages_rerun_matches_body(rerun, chunk_rows):
    """The MMX transform8 (IDCT and FDCT, with and without the clamp),
    quant8, dequant8, residual8 and addblock8 stages over int16 extremes
    and bytes at 0 and 255, aligned and not; with 1000-row chunks calls
    straddle seals."""
    rng = np.random.default_rng(SEED + 20)
    twins = _rerun_twins(MmxBuilder, chunk_rows)
    st = [MmxStages(b) for b in twins]
    frame = _frame(rng)
    places = []
    for b in twins:
        places.append((b.mem.alloc_array(frame), b.mem.alloc(256),
                       b.mem.alloc(256), b.mem.alloc(64 * 8)))
    shapes = []
    for call in range(3):
        block, resid = _block_extremes(rng), _residuals(rng, -32768, 32768)
        for b, (_f, coef, _o, _d) in zip(twins, places):
            b.mem.store_array(coef, block)
            b.mem.store_array(coef + 128, resid)
        steps = [
            ("transform8", lambda f, c, o, d: (c, o, IDCT_MAT, True),
             ("mmx_transform8", True, 0)),
            ("transform8", lambda f, c, o, d: (o, c, FDCT_MAT, False),
             ("mmx_transform8", False, 0)),
            ("quant8", lambda f, c, o, d: (c,), ("mmx_quant8", 0)),
            ("dequant8", lambda f, c, o, d: (c,), ("mmx_dequant8", 0)),
            ("dequant8", lambda f, c, o, d: (c + 2,), ("mmx_dequant8", 2)),
            ("residual8", lambda f, c, o, d: (f + 64 * call, 64, f + 3, 64,
                                              o), ("mmx_residual8",
                                                   0, 0, 3, 0)),
            ("residual8", lambda f, c, o, d: (f + 39 * 64 + 5, -64, f + 8,
                                              0, o), ("mmx_residual8",
                                                      5, 0, 0, 0)),
            ("addblock8", lambda f, c, o, d: (f + 64 * call + 1, 64,
                                              c + 128, d, 8),
             ("mmx_addblock8", 1, 0, 0)),
            ("addblock8", lambda f, c, o, d: (f + 8, 64, c + 128, f + 8,
                                              64), ("mmx_addblock8",
                                                    0, 0, 0)),
        ]
        for name, args, shape in steps:
            for s_, place in zip(st, places):
                getattr(s_, name)(*args(*place))
            shapes.append(shape)
            _assert_same(*twins, [_stage_values(s_) for s_ in st])
    _same_calls(twins, shapes)
    if chunk_rows:
        assert twins[1].trace._chunk_ends == twins[0].trace._chunk_ends


@pytest.mark.parametrize("chunk_rows", [None, 1000])
def test_mom_transform_rerun_matches_body(rerun, chunk_rows):
    """The MOM transform8 stage, IDCT with the clamp and FDCT without,
    from aligned and unaligned blocks: rows with a VL inside a re-run
    call."""
    rng = np.random.default_rng(SEED + 21)
    twins = _rerun_twins(MomBuilder, chunk_rows)
    st = [MomStages(b) for b in twins]
    places = [(b.mem.alloc(256), b.mem.alloc(256)) for b in twins]
    shapes = []
    for call in range(4):
        skew = 2 if call == 3 else 0
        block = _block_extremes(rng)
        for b, (src, _dst) in zip(twins, places):
            b.mem.store_array(src + skew, block)
        for mat, clamp in ((IDCT_MAT, True), (FDCT_MAT, False)):
            for s_, (src, dst) in zip(st, places):
                s_.transform8(src + skew, dst, mat, clamp)
            shapes.append(("mom_transform8", clamp, skew, 0))
            _assert_same(*twins, [_stage_values(s_) for s_ in st])
    _same_calls(twins, shapes)
    assert all(((sk.template.vl != 1) & ~sk.template.has_addr).any()
               for sk in twins[1].skeletons.values())


@pytest.mark.parametrize("chunk_rows", [None, 1000])
@pytest.mark.parametrize("n", [64, 30])
def test_colour_conversion_rerun_matches_body(rerun, chunk_rows, n):
    """Alpha rgb2ycc and ycc2rgb, one call per four pixels (and one for
    the two left over when ``n`` is 30), over bytes at 0 and 255."""
    rng = np.random.default_rng(SEED + 22 + n)
    twins = _rerun_twins(AlphaBuilder, chunk_rows)
    st = [ScalarStages(b) for b in twins]
    planes = rng.integers(0, 256, 6 * n, dtype=np.uint8)
    planes[rng.choice(6 * n, 2 * n, replace=False)] = rng.choice(
        [0, 255], 2 * n)
    bases = [b.mem.alloc_array(planes) for b in twins]
    shapes = []
    for call in range(2):
        for s_, base in zip(st, bases):
            s_.rgb2ycc(base, base + n, base + 2 * n, base + 3 * n,
                       base + 4 * n, base + 5 * n, n)
        shapes += [("rgb2ycc", min(4, n - i)) for i in range(0, n, 4)]
        _assert_same(*twins, [list(s_.r) + [s_.z] for s_ in st])
        for s_, base in zip(st, bases):
            s_.ycc2rgb(base + 3 * n, base + 4 * n, base + 5 * n, base,
                       base + n, base + 2 * n, n)
        shapes += [("ycc2rgb", min(4, n - i)) for i in range(0, n, 4)]
        _assert_same(*twins, [list(s_.r) + [s_.z] for s_ in st])
    _same_calls(twins, shapes)


@pytest.mark.parametrize("chunk_rows", [None, 100])
def test_dot_rerun_matches_body(rerun, chunk_rows):
    """ltp.emit_alpha_dot keyed by ``n``: 40 and 152 samples, and 42,
    whose last two samples have no loop branch after them, over int16
    extremes."""
    rng = np.random.default_rng(SEED + 23)
    twins = _rerun_twins(AlphaBuilder, chunk_rows)
    samples = rng.integers(-32768, 32768, 200).astype(np.int16)
    samples[rng.choice(200, 40, replace=False)] = rng.choice(
        [32767, -32767, -32768, 0], 40)
    regs, bases = [], []
    for b in twins:
        regs.append([b.ireg() for _ in range(7)])
        bases.append(b.mem.alloc_array(samples))
    site = twins[0].site()
    shapes = []
    for n, off in ((40, 0), (152, 6), (40, 40), (42, 2), (152, 0), (42, 9)):
        for b, reg, base in zip(twins, regs, bases):
            b.li(reg[0], base + 2 * off)
            b.li(reg[1], base + 2 * (off + 3))
            ltp.emit_alpha_dot(b, n, reg[6], reg[:6], site)
        shapes.append(("alpha_dot", n))
        _assert_same(*twins, regs)
    _same_calls(twins, shapes)


@pytest.mark.parametrize("kind", ["mmx", "mdmx", "mom"])
def test_idct_kernel_blocks_rerun_match_body(rerun, monkeypatch, kind):
    """The per-block bodies of the packed and MOM idct builders, over
    coefficient blocks at the int16 extremes, in 1000-row chunks: the
    replaying build holds the oracle build's rows, memory and pixels."""
    rng = np.random.default_rng(SEED + 24)
    work = idct.IdctWorkload(blocks=np.stack(
        [_block_extremes(rng) for _ in range(5)]))
    base = {"mmx": MmxBuilder, "mdmx": MdmxBuilder, "mom": MomBuilder}[kind]
    builds = []
    for oracle in (True, False):
        class Twin(base):
            def __init__(self):
                super().__init__()
                self.trace = Trace(self.isa_name, chunk_rows=1000)
                self.oracle = oracle

        if kind == "mom":
            monkeypatch.setattr(idct, "MomBuilder", Twin)
            builds.append(idct._build_mom(work))
        else:
            builds.append(idct._build_packed(work, Twin))
    want, got = (built.builder for built in builds)
    assert (list(got.trace.iter_field_tuples())
            == list(want.trace.iter_field_tuples()))
    assert got.trace._chunk_ends == want.trace._chunk_ends
    assert np.array_equal(got.mem.data, want.mem.data)
    assert np.array_equal(builds[0].outputs["pixels"],
                          builds[1].outputs["pixels"])
    assert len(got.trace.calls) == 4 and not want.trace.calls


# --- what the re-run path refuses -----------------------------------------------

def test_rerun_row_that_differs_raises_naming_the_row():
    """A momldq whose stride changed under the same key -- what a key
    that leaves out a row's field lets through -- raises ``ValueError``
    naming the shape and the row, writes no row of the call, and gives
    the trace back."""
    b = MomBuilder()
    base, stride = b.ireg(), b.ireg()
    m = b.mreg()
    block = b.mem.alloc(1024)

    def body(step):
        b.setvli(8)
        b.li(base, block)
        b.li(stride, step)
        b.momldq(m, base, stride)
        b.pmaxsh(m, m, m)

    trace = b.trace
    replay_body(b, ("strided",), (base, stride, m), lambda: body(16))
    replay_body(b, ("strided",), (base, stride, m), lambda: body(16))
    rows = len(trace)
    with pytest.raises(ValueError, match=r"\('strided',\): row 3 differs"):
        replay_body(b, ("strided",), (base, stride, m), lambda: body(8))
    assert b.trace is trace and len(trace) == rows
    assert len(trace.calls) == 1


def test_rerun_row_count_and_sites_are_checked():
    """A re-run that writes more or fewer rows than its skeleton, or
    branches at two sites in one call, raises ``ValueError``."""
    b = AlphaBuilder()
    v = b.ireg()

    def body(rows, sites=(5,)):
        for k in range(rows):
            b.addi(v, v, 1)
        for site in sites:
            b.bne(v, site)

    replay_body(b, ("count",), (v,), lambda: body(3, (5, 5)))
    for bad, message in (((4, (5, 5)), "row 3 differs"),
                         ((2, (5, 5)), "row 2 differs"),
                         ((3, (5, 5, 5)), "row 5 is past its skeleton's 5"),
                         ((3, (5, 6)), "row 4 branches at site 6"),
                         ((3, (5,)), "wrote 4 rows, its skeleton holds 5")):
        with pytest.raises(ValueError, match=message):
            replay_body(b, ("count",), (v,), lambda: body(*bad))
    assert len(b.trace) == 5 and not b.trace.calls
    replay_body(b, ("count",), (v,), lambda: body(3, (9, 9)))
    assert [r.site for r in b.trace[5:]][-2:] == [9, 9]


def test_rerun_body_that_raises_leaves_no_row():
    """A re-run body that raises ``IndexError`` part way (a load past
    memory) leaves no row of its call in the trace, and ``b.trace`` is
    the trace again."""
    b = AlphaBuilder()
    p, v = b.ireg(), b.ireg()
    slot = b.mem.alloc(64)

    def body(addr):
        b.li(p, addr)
        b.addi(v, v, 1)
        b.ldq(v, p, 0)

    trace = b.trace
    replay_body(b, ("load",), (p, v), lambda: body(slot))
    rows = len(trace)
    with pytest.raises(IndexError):
        replay_body(b, ("load",), (p, v),
                    lambda: body(b.mem.BASE + b.mem.size))
    assert b.trace is trace and len(trace) == rows and not trace.calls
    replay_body(b, ("load",), (p, v), lambda: body(slot + 8))
    assert len(trace) == 2 * rows and len(trace.calls) == 1


def test_replay_nested_in_a_rerun_body_raises():
    """A replayed call inside a re-run body raises, by either kind of
    replay, and the trace is given back."""
    b = AlphaBuilder()
    v = b.ireg()

    def inner():
        b.addi(v, v, 1)

    for nested in (replay_body, lambda *a: replay(*a)):
        def outer(nested=nested):
            b.addi(v, v, 2)
            nested(b, ("inner",), (v,), inner)

        b = AlphaBuilder()
        v = b.ireg()
        trace = b.trace
        replay_body(b, ("outer",), (v,), outer)
        with pytest.raises(ValueError, match="cannot run inside the re-run "
                                             r"body of replayed call \('outer"):
            replay_body(b, ("outer",), (v,), outer)
        assert b.trace is trace and len(trace) == 2


def test_checker_rows_are_decoded_once_per_skeleton():
    """The checker holds a skeleton's decoded rows, built on its first
    re-run and shared by every later one; skeletons that are only
    recorded, or replayed by value, keep none."""
    b = AlphaBuilder()
    v = b.ireg()
    replay_body(b, ("ones",), (v,), lambda: b.addi(v, v, 1))
    skeleton = b.skeletons[("ones", v.encoded)]
    assert skeleton._expected is None
    replay_body(b, ("ones",), (v,), lambda: b.addi(v, v, 1))
    rows = skeleton._expected
    assert rows is not None
    replay_body(b, ("ones",), (v,), lambda: b.addi(v, v, 1))
    assert RowChecker(skeleton, ("ones",))._expected is rows
    st = ScalarStages(AlphaBuilder())
    slot = st.b.mem.alloc(128)
    st.quant8(slot)
    st.quant8(slot)
    assert all(sk._expected is None for sk in st.b.skeletons.values())
