"""gsm encode application pipeline.

A GSM-06.10-flavoured speech encoder over synthetic PCM: per 160-sample
frame it computes the LPC autocorrelation (vectorizable dot products), runs
a Schur-style recursion (synthesized scalar, calibrated), short-term
filters the frame through an order-2 fixed-point lattice (an inherently
serial recurrence -- synthesized from exact counts, data materialized from
the reference computation), then for each 40-sample subframe searches the
long-term-predictor lag by cross-correlation (the ltpparameters kernel) and
quantizes the residual grid (synthesized).

``gsm decode`` is omitted exactly as in the paper: "gsm decode had a very
low vectorization percentage and therefore was dropped from this study."

Correctness contract: autocorrelations and chosen lags are bit-identical
across ISA configurations.
"""

from __future__ import annotations

import numpy as np

from ..emulib.alpha_builder import emit_track_max
from ..emulib.scalar_section import SectionProfile
from .common import AppSpec, BuiltApp, PhaseTimer, make_stages, register
from .workloads import pcm_audio

FRAME = 160
SUBFRAME = 40
ACF_LAGS = 9
LTP_MIN, LTP_MAX = 40, 120
#: Scaled-down LTP search range (the full 81 lags at --scale 3+).
LAGS_PER_SCALE = 16


def _lpc_coeffs(acf: list[int]) -> tuple[int, int]:
    """Order-2 LPC analysis (Levinson-Durbin), Q12 fixed point."""
    if acf[0] == 0:
        return 0, 0
    r0, r1, r2 = float(acf[0]), float(acf[1]), float(acf[2])
    k1 = r1 / r0
    e = r0 * (1 - k1 * k1)
    k2 = (r2 - k1 * r1) / e if e else 0.0
    a1 = k1 - k1 * k2
    a2 = k2
    q = 1 << 12
    return int(np.clip(round(a1 * q), -q, q - 1)), \
        int(np.clip(round(a2 * q), -q, q - 1))


def _stp_filter(samples: np.ndarray, a1: int, a2: int) -> np.ndarray:
    """Short-term analysis filter: d[i] = s[i] - (a1 s[i-1] + a2 s[i-2]) >> 12."""
    s = samples.astype(np.int64)
    d = np.zeros_like(s)
    for i in range(len(s)):
        s1 = s[i - 1] if i >= 1 else 0
        s2 = s[i - 2] if i >= 2 else 0
        d[i] = s[i] - ((a1 * s1 + a2 * s2 + 2048) >> 12)
    return np.clip(d, -32768, 32767).astype(np.int16)


def _schur_profile() -> SectionProfile:
    """Operation counts of an order-8 Schur recursion + coefficient coding."""
    return SectionProfile(
        name="scalar_schur", loads=96, stores=24, alu=420, muls=100,
        loop_branches=36, data_branches=16, footprint=512,
    )


def _stp_profile() -> SectionProfile:
    """Counts for the serial short-term lattice over one frame.

    GSM's order-8 lattice executes 2 MACs per stage per sample; the order-2
    data computation above is a reduced model, but the *charged* work keeps
    the full order-8 cost so the scalar fraction matches the real encoder.
    """
    per_sample_macs = 2 * 8
    return SectionProfile(
        name="scalar_stp",
        loads=FRAME * 2, stores=FRAME,
        alu=FRAME * per_sample_macs, muls=FRAME * per_sample_macs // 2,
        loop_branches=FRAME, footprint=1024,
    )


def _rpe_profile() -> SectionProfile:
    """Counts for RPE grid selection and APCM quantization, per subframe."""
    return SectionProfile(
        name="scalar_rpe", loads=SUBFRAME * 2, stores=SUBFRAME // 2 + 13,
        alu=SUBFRAME * 6, muls=13, loop_branches=SUBFRAME // 4,
        data_branches=8, footprint=512,
    )


def build_gsm_encode(isa: str, scale: int = 1) -> BuiltApp:
    pcm = pcm_audio(frames=1 + max(1, scale), scale=scale)
    n_lags = min(LTP_MAX - LTP_MIN + 1, LAGS_PER_SCALE * max(1, scale))
    b, st = make_stages(isa)
    timer = PhaseTimer(b)

    pcm_addr = b.mem.alloc_array(pcm)
    dp_addr = b.mem.alloc(pcm.size * 2)      # short-term residual history
    corr = b.ireg()
    best, besti, tmp, cand = b.ireg(), b.ireg(), b.ireg(), b.ireg()

    dp_all = np.zeros(pcm.size, dtype=np.int16)
    acfs, lags = [], []
    frames = pcm.size // FRAME
    for f in range(frames):
        base = f * FRAME
        frame_addr = pcm_addr + 2 * base

        # --- LPC autocorrelation: 9 vectorizable dot products -------------
        acf = []
        for k in range(ACF_LAGS):
            st.dot16(frame_addr + 2 * k, frame_addr, 152, corr)
            acf.append(int(corr.value))
        acfs.append(acf)
        timer.close("autocorrelation")

        # --- Schur recursion / reflection coefficients (scalar) ------------
        st.scalar_section(_schur_profile(), seed=0x50 + f)
        timer.close("scalar_schur")

        # --- short-term analysis filter (serial recurrence, scalar) --------
        a1, a2 = _lpc_coeffs(acf)
        dp_frame = _stp_filter(pcm[base : base + FRAME], a1, a2)
        dp_all[base : base + FRAME] = dp_frame
        b.mem.store_array(dp_addr + 2 * base, dp_frame)
        st.scalar_section(_stp_profile(), seed=0x60 + f)
        timer.close("scalar_stp")

        # --- per-subframe long-term predictor search ------------------------
        if f == 0:
            continue          # no residual history yet
        for sub in range(FRAME // SUBFRAME):
            wt_addr = dp_addr + 2 * (base + sub * SUBFRAME)
            b.li(best, -(1 << 62))
            b.li(besti, 0)
            for li, lag in enumerate(range(LTP_MIN, LTP_MIN + n_lags)):
                st.dot16(wt_addr, wt_addr - 2 * lag, SUBFRAME, corr)
                emit_track_max(b, corr, best, besti, tmp, cand, li)
            lags.append(LTP_MIN + int(besti.value))
            timer.close("ltp_search")
            st.scalar_section(_rpe_profile(), seed=0x70 + 4 * f + sub)
            timer.close("scalar_rpe")

        st.scalar_section(SectionProfile(
            name="scalar_pack", loads=24, stores=33, alu=180,
            loop_branches=12, footprint=256), seed=0x40 + f)
        timer.close("scalar_pack")

    outputs = {
        "acf": np.asarray(acfs, dtype=np.int64),
        "lags": np.asarray(lags, dtype=np.int64),
    }
    return BuiltApp(builder=b, outputs=outputs, phases=timer.phases)


register(AppSpec(
    name="gsm_encode",
    description="GSM 06.10-style speech encoder (LPC, LTP, RPE)",
    build=build_gsm_encode,
))
