"""Tests for the calibrated scalar-section synthesizer."""

import pytest

from repro import AlphaBuilder
from repro.emulib.scalar_section import SectionProfile, emit_scalar_section
from repro.isa.model import InstrClass


def histogram(trace):
    hist = {}
    for ins in trace:
        hist[ins.iclass] = hist.get(ins.iclass, 0) + 1
    return hist


def test_profile_total():
    p = SectionProfile(name="x", loads=10, stores=5, alu=20, muls=2,
                       loop_branches=3, data_branches=4)
    assert p.total_instructions() == 44


def test_profile_scaling():
    p = SectionProfile(name="x", loads=100, alu=50)
    half = p.scaled(0.5)
    assert half.loads == 50 and half.alu == 25
    assert half.name == p.name


def test_emission_matches_profile_shape():
    b = AlphaBuilder()
    p = SectionProfile(name="vlc", loads=40, stores=20, alu=120, muls=8,
                       loop_branches=10, data_branches=12, footprint=1024)
    emit_scalar_section(b, p, seed=3)
    hist = histogram(b.trace)
    assert hist[InstrClass.LOAD] == 40
    assert hist[InstrClass.STORE] == 20
    assert hist[InstrClass.BRANCH] == 22
    assert hist[InstrClass.INT_COMPLEX] == 8
    # ALU within tolerance (dependent adds + branch setup inflate slightly)
    total = len(b.trace)
    assert p.total_instructions() <= total <= p.total_instructions() * 1.4


def test_emission_deterministic():
    traces = []
    for _ in range(2):
        b = AlphaBuilder()
        emit_scalar_section(b, SectionProfile(name="x", alu=50,
                                              data_branches=20), seed=9)
        traces.append([(i.op.name, i.taken) for i in b.trace])
    assert traces[0] == traces[1]


def test_data_branches_are_noisy():
    b = AlphaBuilder()
    emit_scalar_section(b, SectionProfile(name="x", data_branches=64,
                                          alu=64), seed=5)
    outcomes = [i.taken for i in b.trace if i.iclass == InstrClass.BRANCH]
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


def test_empty_profile_emits_nothing():
    b = AlphaBuilder()
    emit_scalar_section(b, SectionProfile(name="empty"))
    assert len(b.trace) == 0


def test_loads_walk_the_footprint():
    b = AlphaBuilder()
    emit_scalar_section(b, SectionProfile(name="x", loads=64, alu=64,
                                          footprint=256), seed=1)
    addrs = {i.addr for i in b.trace if i.iclass == InstrClass.LOAD}
    assert len(addrs) > 4
    span = max(addrs) - min(addrs)
    assert span < 256


def test_registers_released_after_emission():
    b = AlphaBuilder()
    before = b.int_alloc.in_use
    emit_scalar_section(b, SectionProfile(name="x", alu=30), seed=1)
    assert b.int_alloc.in_use == before
