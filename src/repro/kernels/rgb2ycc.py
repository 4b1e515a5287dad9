"""rgb2ycc: RGB to YCbCr color-space conversion (JPEG encode front end).

Integer arithmetic, 8-bit coefficients::

    Y  =  (77 R + 150 G +  29 B + 128) >> 8
    Cb = ((-43 R -  84 G + 127 B + 128) >> 8) + 128
    Cr = ((127 R - 106 G -  21 B + 128) >> 8) + 128

The paper singles this kernel out: "vectorization happens along the color
space (Red, Green and Blue) dimension, yielding a vector length of only 3",
so MOM's second DLP dimension buys little here -- the one kernel where MOM
is not much more effective than MDMX.  The MOM version loads the three
colour planes as a VL=3 matrix (row stride = plane size) and reduces across
rows with one ``pmaddah`` per component; MDMX does the same reduction with
three chained accumulator operations; MMX uses explicit multiply/add trees.
Input is planar, as produced by the workload generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..emulib.alpha_builder import AlphaBuilder
from ..emulib.mdmx_builder import MdmxBuilder
from ..emulib.mmx_builder import MmxBuilder
from ..emulib.mom_builder import MomBuilder
from .common import BuiltKernel, KernelSpec, register, rng_for

#: (name, cR, cG, cB, bias_after_shift).  Coefficient magnitudes are kept
#: strictly below 128 so every output provably lands in [0, 255] -- the
#: scalar byte store and the saturating ``packushb`` then agree bit-exactly.
COMPONENTS = (
    ("y", 77, 150, 29, 0),
    ("cb", -43, -84, 127, 128),
    ("cr", 127, -106, -21, 128),
)


@dataclass
class RgbWorkload:
    """Planar 8-bit RGB pixels (length a multiple of 8)."""

    r: np.ndarray
    g: np.ndarray
    b: np.ndarray

    @property
    def pixels(self) -> int:
        return self.r.size


def make_workload(scale: int = 1) -> RgbWorkload:
    rng = rng_for("rgb2ycc", scale)
    n = 64 * max(1, scale)
    return RgbWorkload(
        r=rng.integers(0, 256, n, dtype=np.uint8),
        g=rng.integers(0, 256, n, dtype=np.uint8),
        b=rng.integers(0, 256, n, dtype=np.uint8),
    )


def golden(workload: RgbWorkload) -> dict[str, np.ndarray]:
    r = workload.r.astype(np.int64)
    g = workload.g.astype(np.int64)
    bb = workload.b.astype(np.int64)
    out = {}
    for name, cr_, cg, cb, bias in COMPONENTS:
        out[name] = (((cr_ * r + cg * g + cb * bb + 128) >> 8) + bias).astype(
            np.uint8
        )
    return out


# --- Alpha ---------------------------------------------------------------------

def _build_alpha(workload: RgbWorkload) -> BuiltKernel:
    b = AlphaBuilder()
    n = workload.pixels
    r_addr = b.mem.alloc_array(workload.r)
    g_addr = b.mem.alloc_array(workload.g)
    b_addr = b.mem.alloc_array(workload.b)
    out_addrs = {name: b.mem.alloc(n) for name, *_ in COMPONENTS}

    pr, pg, pb = b.ireg(r_addr), b.ireg(g_addr), b.ireg(b_addr)
    po = {name: b.ireg(addr) for name, addr in out_addrs.items()}
    vr, vg, vb, c, prod, s = (b.ireg() for _ in range(6))
    cnt = b.ireg(n // 4)
    site = b.site()

    for i in range(n):
        b.ldbu(vr, pr, i)
        b.ldbu(vg, pg, i)
        b.ldbu(vb, pb, i)
        for name, cr_, cg, cb, bias in COMPONENTS:
            b.li(c, cr_)
            b.mulq(s, vr, c)
            b.li(c, cg)
            b.mulq(prod, vg, c)
            b.addq(s, s, prod)
            b.li(c, cb)
            b.mulq(prod, vb, c)
            b.addq(s, s, prod)
            b.addi(s, s, 128)
            b.sra(s, s, 8)
            if bias:
                b.addi(s, s, bias)
            b.stb(s, po[name], i)
        if i % 4 == 3:
            b.subi(cnt, cnt, 1)
            b.bne(cnt, site)

    outputs = {
        name: b.mem.load_array(addr, np.uint8, n)
        for name, addr in out_addrs.items()
    }
    return BuiltKernel(builder=b, outputs=outputs)


# --- MMX ------------------------------------------------------------------------

def broadcast_h(value: int) -> int:
    """A packed word with ``value`` in all four halfword lanes."""
    return int(np.asarray([value] * 4, dtype=np.int16).view(np.uint64)[0])


def _const_words_mmx() -> tuple[np.ndarray, list[str]]:
    """Constant table: one broadcast halfword word per coefficient + biases."""
    words, labels = [], []
    for name, cr_, cg, cb, bias in COMPONENTS:
        for tag, coef in (("r", cr_), ("g", cg), ("b", cb)):
            words.append(broadcast_h(coef))
            labels.append(f"{name}_{tag}")
    words.append(broadcast_h(128))
    labels.append("round")
    words.append(broadcast_h(128))
    labels.append("bias")
    return np.asarray(words, dtype=np.uint64), labels


def emit_mmx_rgb2ycc(b, n: int, ptr, po, halves, consts, regs, cnt,
                     site: int) -> None:
    """Convert ``n`` pixels, 8 per iteration: unpack each plane's bytes to
    halfwords, ``pmullh``/``paddh`` trees per component, ``packushb`` and
    one store per component; one loop branch per 8 pixels.

    ``ptr``/``po`` map plane/component names to pointer registers,
    ``halves`` maps each plane to its (low, high) registers, ``consts``
    holds ``"<component>_<plane>"`` coefficients plus ``"round"`` and
    ``"bias"``, and ``regs`` is ``(raw_r, raw_g, raw_b, acc, prod, lo_out,
    packed_out, zero)``.
    """
    *raws, acc, prod, lo_out, packed_out, zero = regs
    raw = dict(zip("rgb", raws))
    for i in range(0, n, 8):
        for k in raw:
            b.m_ldq(raw[k], ptr[k], i)
            b.punpcklb(halves[k][0], raw[k], zero)
            b.punpckhb(halves[k][1], raw[k], zero)
        for name, cr_, cg, cb, bias in COMPONENTS:
            for h in range(2):
                b.pmullh(acc, halves["r"][h], consts[f"{name}_r"])
                b.pmullh(prod, halves["g"][h], consts[f"{name}_g"])
                b.paddh(acc, acc, prod)
                b.pmullh(prod, halves["b"][h], consts[f"{name}_b"])
                b.paddh(acc, acc, prod)
                b.paddh(acc, acc, consts["round"])
                if bias:
                    b.psrah(acc, acc, 8)
                    b.paddh(acc, acc, consts["bias"])
                else:
                    b.psrlh(acc, acc, 8)
                if h == 0:
                    b.movq(lo_out, acc)
            b.packushb(packed_out, lo_out, acc)
            b.m_stq(packed_out, po[name], i)
        b.subi(cnt, cnt, 1)
        b.bne(cnt, site)


def _build_mmx(workload: RgbWorkload) -> BuiltKernel:
    b = MmxBuilder()
    n = workload.pixels
    r_addr = b.mem.alloc_array(workload.r)
    g_addr = b.mem.alloc_array(workload.g)
    b_addr = b.mem.alloc_array(workload.b)
    out_addrs = {name: b.mem.alloc(n) for name, *_ in COMPONENTS}
    cwords, clabels = _const_words_mmx()
    c_addr = b.mem.alloc_array(cwords)

    addr = b.ireg()
    consts = {}
    for i, label in enumerate(clabels):
        reg = b.mreg()
        b.li(addr, c_addr + 8 * i)
        b.m_ldq(reg, addr, 0)
        consts[label] = reg

    zero = b.mreg()
    b.pxor(zero, zero, zero)
    raw = [b.mreg() for _ in "rgb"]
    halves = {k: (b.mreg(), b.mreg()) for k in "rgb"}
    acc, prod, lo_out, packed_out = b.mreg(), b.mreg(), b.mreg(), b.mreg()
    ptr = {"r": b.ireg(r_addr), "g": b.ireg(g_addr), "b": b.ireg(b_addr)}
    po = {name: b.ireg(a) for name, a in out_addrs.items()}
    cnt = b.ireg(n // 8)
    site = b.site()

    emit_mmx_rgb2ycc(b, n, ptr, po, halves, consts,
                     (*raw, acc, prod, lo_out, packed_out, zero), cnt, site)

    outputs = {
        name: b.mem.load_array(a, np.uint8, n) for name, a in out_addrs.items()
    }
    return BuiltKernel(builder=b, outputs=outputs)


# --- MDMX ---------------------------------------------------------------------------

def _build_mdmx(workload: RgbWorkload) -> BuiltKernel:
    b = MdmxBuilder()
    n = workload.pixels
    r_addr = b.mem.alloc_array(workload.r)
    g_addr = b.mem.alloc_array(workload.g)
    b_addr = b.mem.alloc_array(workload.b)
    out_addrs = {name: b.mem.alloc(n) for name, *_ in COMPONENTS}
    cwords, clabels = _const_words_mmx()
    c_addr = b.mem.alloc_array(cwords)

    addr = b.ireg()
    consts = {}
    for i, label in enumerate(clabels):
        reg = b.mreg()
        b.li(addr, c_addr + 8 * i)
        b.m_ldq(reg, addr, 0)
        consts[label] = reg
    # The shared MMX constant table carries a rounding word, but MDMX
    # rounds inside the accumulator readout (raccsh/raccuh shift=8).
    b.mark_live_out(consts["round"])

    zero = b.mreg()
    b.pxor(zero, zero, zero)
    raw = {"r": b.mreg(), "g": b.mreg(), "b": b.mreg()}
    halves = {k: (b.mreg(), b.mreg()) for k in raw}
    lo_out, hi_out, packed_out = b.mreg(), b.mreg(), b.mreg()
    accs = [b.areg() for _ in range(2)]      # ping-pong the recurrence
    ptr = {"r": b.ireg(r_addr), "g": b.ireg(g_addr), "b": b.ireg(b_addr)}
    po = {name: b.ireg(a) for name, a in out_addrs.items()}
    cnt = b.ireg(n // 8)
    site = b.site()

    for i in range(0, n, 8):
        for k in raw:
            b.m_ldq(raw[k], ptr[k], i)
            b.punpcklb(halves[k][0], raw[k], zero)
            b.punpckhb(halves[k][1], raw[k], zero)
        for name, cr_, cg, cb, bias in COMPONENTS:
            for h, out_reg in ((0, lo_out), (1, hi_out)):
                acc = accs[h]
                b.clracc(acc)
                b.pmaddah(acc, halves["r"][h], consts[f"{name}_r"])
                b.pmaddah(acc, halves["g"][h], consts[f"{name}_g"])
                b.pmaddah(acc, halves["b"][h], consts[f"{name}_b"])
                if bias:
                    b.raccsh(out_reg, acc, shift=8)
                    b.paddh(out_reg, out_reg, consts["bias"])
                else:
                    b.raccuh(out_reg, acc, shift=8)
            b.packushb(packed_out, lo_out, hi_out)
            b.m_stq(packed_out, po[name], i)
        b.subi(cnt, cnt, 1)
        b.bne(cnt, site)

    outputs = {
        name: b.mem.load_array(a, np.uint8, n) for name, a in out_addrs.items()
    }
    return BuiltKernel(builder=b, outputs=outputs)


# --- MOM -----------------------------------------------------------------------------

def _build_mom(workload: RgbWorkload) -> BuiltKernel:
    b = MomBuilder()
    n = workload.pixels
    # One contiguous planar buffer so a VL=3 load with stride = plane size
    # fetches the R, G and B rows of the same 8 pixels.
    planes = np.concatenate([workload.r, workload.g, workload.b])
    base_addr = b.mem.alloc_array(planes)
    out_addrs = {name: b.mem.alloc(n) for name, *_ in COMPONENTS}

    # Constant matrices: rows (cR, cG, cB), each coefficient broadcast.
    cmat = {}
    words = []
    for name, cr_, cg, cb, _bias in COMPONENTS:
        for coef in (cr_, cg, cb):
            words.append(broadcast_h(coef))
    words.append(broadcast_h(128))
    c_addr = b.mem.alloc_array(np.asarray(words, dtype=np.uint64))

    addr, stride8, plane_stride = b.ireg(), b.ireg(8), b.ireg(n)
    b.setvli(3)
    for ci, (name, *_rest) in enumerate(COMPONENTS):
        reg = b.mreg()
        b.li(addr, c_addr + ci * 3 * 8)
        b.momldq(reg, addr, stride8)
        cmat[name] = reg
    bias_reg = b.mreg()
    b.setvli(1)
    b.li(addr, c_addr + 9 * 8)
    b.momldq(bias_reg, addr, stride8)

    zero, rgb, lo, hi, lo_out, hi_out, packed_out = (b.mreg() for _ in range(7))
    b.momzero(zero)
    acc = b.areg()
    po = {name: b.ireg(a) for name, a in out_addrs.items()}
    cnt = b.ireg(n // 8)
    site = b.site()

    for i in range(0, n, 8):
        b.setvli(3)
        b.li(addr, base_addr + i)
        b.momldq(rgb, addr, plane_stride)
        b.punpcklb(lo, rgb, zero)
        b.punpckhb(hi, rgb, zero)
        for name, cr_, cg, cb, bias in COMPONENTS:
            for half, out_reg in ((lo, lo_out), (hi, hi_out)):
                b.setvli(3)
                b.clracc(acc)
                b.pmaddah(acc, half, cmat[name])
                if bias:
                    b.raccsh(out_reg, acc, shift=8)
                    b.setvli(1)
                    b.paddh(out_reg, out_reg, bias_reg)
                else:
                    b.raccuh(out_reg, acc, shift=8)
            b.setvli(1)
            b.packushb(packed_out, lo_out, hi_out)
            b.momstrow(packed_out, po[name], 0, offset=i)
        b.subi(cnt, cnt, 1)
        b.bne(cnt, site)

    outputs = {
        name: b.mem.load_array(a, np.uint8, n) for name, a in out_addrs.items()
    }
    return BuiltKernel(builder=b, outputs=outputs)


register(KernelSpec(
    name="rgb2ycc",
    description="RGB to YCbCr colour conversion (JPEG encode)",
    make_workload=make_workload,
    golden=golden,
    builders={
        "alpha": _build_alpha,
        "mmx": _build_mmx,
        "mdmx": _build_mdmx,
        "mom": _build_mom,
    },
))
