"""Replayed emitters against their per-instruction bodies.

``idct.emit_alpha_pass``, ``motion.emit_alpha_distance``,
``addblock.emit_alpha_addblock`` and the ``ScalarStages`` methods
``quant8``, ``residual8`` and ``dequant8`` run their per-instruction body
on the first call with a shape and record the rows it wrote; later calls
compute on Python ints and append the recorded row skeleton (DESIGN.md
section 5).  Each test drives twin builders with the same allocations:
the oracle calls the body on every call, the other calls the emitter.
After every call -- the recording one and the replayed ones -- both must
hold the same trace rows, the same memory bytes and the same value in
every register.
"""

import numpy as np
import pytest

from repro.apps import stages
from repro.apps.stages import ScalarStages
from repro.emulib.alpha_builder import AlphaBuilder
from repro.emulib.trace import Trace
from repro.kernels import addblock, idct, motion
from repro.kernels.idct import (N, OUT_MAX, OUT_MIN, PASS1_ROUND,
                                PASS1_SHIFT, PASS2_ROUND, PASS2_SHIFT)

SEED = 20251019
PASS_BODY = idct._pass_body
DISTANCE_BODY = motion._distance_body
ADDBLOCK_BODY = addblock._addblock_body
QUANT_BODY = stages._quant_body
DEQUANT_BODY = stages._dequant_body
RESIDUAL_BODY = stages._residual_body


def _twins(chunk_rows=None):
    """Two fresh builders (oracle, replaying); ``chunk_rows`` shrinks
    both traces' chunks so replays straddle seals."""
    twins = (AlphaBuilder(), AlphaBuilder())
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
