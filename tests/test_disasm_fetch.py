"""Tests for the trace disassembler and the fetch-pressure study."""

import numpy as np

from repro import AlphaBuilder, MomBuilder
from repro.emulib.disasm import (class_mix_report, disassemble, format_instr,
                                 format_operand, summarize)
from repro.emulib.trace import reg
from repro.eval.fetch_pressure import mom_fetch_advantage, run
from repro.isa.model import RegPool


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


def test_summarize_counts():
    b = MomBuilder()
    data = np.zeros(128, dtype=np.uint8)
    a = b.mem.alloc_array(data)
    base, stride = b.ireg(a), b.ireg(8)
    m, m2 = b.mreg(), b.mreg()
    b.setvli(16)
    b.momldq(m, base, stride)
    b.paddb(m2, m, m)
    stats = summarize(b.trace)
    assert stats["instructions"] == 3   # setvli + momldq + paddb
    assert stats["ops_per_instruction"] > 10
    assert stats["avg_vector_length"] == 16.0


def test_summarize_empty():
    b = AlphaBuilder()
    assert summarize(b.trace) == {"instructions": 0}


def test_class_mix_report():
    b = AlphaBuilder()
    x = b.ireg(0)
    b.addi(x, x, 1)
    report = class_mix_report(b.trace)
    assert "INT_SIMPLE" in report


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
