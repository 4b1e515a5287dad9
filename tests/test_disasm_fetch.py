"""Tests for the trace disassembler and the fetch-pressure study."""

import numpy as np

from repro import AlphaBuilder, MomBuilder
from repro.emulib.disasm import disassemble, format_instr, format_operand
from repro.emulib.trace import reg
from repro.eval.fetch_pressure import mom_fetch_advantage, run
from repro.exp import Session, engine
from repro.isa.model import RegPool
import repro.kernels


def test_format_operand_pools():
    assert format_operand(reg(RegPool.INT, 5)) == "r5"
    assert format_operand(reg(RegPool.MED, 3)) == "m3"
    assert format_operand(reg(RegPool.ACC, 0)) == "acc0"
    assert format_operand(reg(RegPool.FP, 7)) == "f7"


def test_format_scalar_instr():
    b = AlphaBuilder()
    x, y, z = b.ireg(1), b.ireg(2), b.ireg()
    b.addq(z, x, y)
    line = format_instr(b.trace[-1])
    assert line.startswith("addq")
    assert "r" in line


def test_format_memory_instr_shows_address():
    b = AlphaBuilder()
    addr = b.mem.alloc(8)
    base, v = b.ireg(addr), b.ireg()
    b.ldq(v, base)
    line = format_instr(b.trace[-1])
    assert f"@{addr:#x}" in line


def test_format_vector_instr_shows_stride():
    b = MomBuilder()
    data = np.zeros(128, dtype=np.uint8)
    a = b.mem.alloc_array(data)
    base, stride = b.ireg(a), b.ireg(8)
    m = b.mreg()
    b.setvli(16)
    b.momldq(m, base, stride)
    line = format_instr(b.trace[-1])
    assert "+8*16" in line


def test_format_branch_shows_outcome():
    b = AlphaBuilder()
    cond = b.ireg(1)
    b.bne(cond, b.site())
    line = format_instr(b.trace[-1])
    assert "taken" in line and "site=" in line


def test_disassemble_listing():
    b = AlphaBuilder()
    x = b.ireg(0)
    for _ in range(5):
        b.addi(x, x, 1)
    text = disassemble(b.trace)
    assert text.count("\n") == 5
    assert "isa=alpha" in text
    short = disassemble(b.trace, start=1, count=2)
    assert short.count("lda") == 2


def test_fetch_pressure_study():
    results = run(kernels=("compensation", "motion1"))
    comp = results["compensation"]
    # ops/instruction ordering: MOM >> MMX > scalar (the paper's
    # "order of magnitude more operations per instruction").
    assert comp["mom"].ops_per_instruction > 4 * comp["mmx"].ops_per_instruction
    assert comp["mmx"].ops_per_instruction > comp["alpha"].ops_per_instruction
    # Measured attribution: the SIMD machine is essentially 100%
    # fetch-bound at 1-way, MOM spends most cycles elsewhere.
    assert comp["mmx"].fetch_bound_share > 0.9
    assert comp["mom"].fetch_bound_share < 0.5
    # MOM retains the most of its wide-machine performance on 1-way.
    motion = results["motion1"]
    assert motion["mom"].retention_1way >= motion["mmx"].retention_1way
    ratios = mom_fetch_advantage(results)
    assert ratios["motion1"] > 8       # "an order of magnitude"


def test_warm_fetch_pressure_builds_no_trace(tmp_path, monkeypatch):
    """Every row is read off the sweep's results: with the build memo
    emptied and every kernel build refused, a warm run returns the cold
    run's rows."""
    kernels = ("compensation", "motion1")
    cold = run(kernels=kernels, session=Session(tmp_path))

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel trace was built")

    monkeypatch.setattr(engine, "_BUILD_MEMO", {})
    monkeypatch.setattr(repro.kernels, "build_and_check", refuse)
    assert run(kernels=kernels, session=Session(tmp_path)) == cold
