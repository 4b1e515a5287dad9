"""Replayed emitters against their per-instruction bodies.

``idct.emit_alpha_pass`` and ``motion.emit_alpha_distance`` run their
per-instruction body on the first call with a shape and record the rows
it wrote; later calls compute on Python ints and append the recorded row
skeleton (DESIGN.md section 5).  Each test drives twin builders with the
same allocations: the oracle calls the body on every call, the other
calls the emitter.  After every call -- the recording one and the
replayed ones -- both must hold the same trace rows, the same memory
bytes and the same value in every register.
"""

import numpy as np
import pytest

from repro.emulib.alpha_builder import AlphaBuilder
from repro.emulib.trace import Trace
from repro.kernels import idct, motion
from repro.kernels.idct import (N, OUT_MAX, OUT_MIN, PASS1_ROUND,
                                PASS1_SHIFT, PASS2_ROUND, PASS2_SHIFT)

SEED = 20251019
PASS_BODY = idct._pass_body
DISTANCE_BODY = motion._distance_body


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
    for module, name in ((idct, "_pass_body"), (motion, "_distance_body")):
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
