"""Golden differential test: the timing engine is cycle-exact to the seed.

The digests below were captured from the *seed* per-cycle busy-wait core
(commit 950ede5's ``Core.run``, kept as ``Core.run_reference``) over a
representative mini-grid: two
kernels x all four ISAs x 2/8-way x {perfect 1-cycle, perfect 50-cycle,
realistic cache} memory, plus the vector-cache and collapsing-buffer
hierarchies for MOM.  Each digest hashes every deterministic
:class:`~repro.cpu.core.SimResult` field -- cycles, instruction and
operation counts, branch/BTB statistics, fetch- and rename-stall counters
and the full memory-system statistics dict -- so the event-driven lane
stepper behind ``Core.run`` must reproduce the seed model bit-for-bit,
stall cadence and all, not merely approximate it.

A second table, ``TRACE_DIGESTS``, pins what the timing engine is fed:
the ``trace_digest`` of each of the 47 builds behind Figures 5 and 7 at
scale 1, so a change to how builders record rows cannot alter a field.

If a deliberate timing-model change invalidates these values, re-capture
them with ``python -m tests.test_golden_digest`` and update the table in
the same commit as the model change.
"""

import hashlib
import json

import pytest

from repro.apps import APP_ISAS, APP_ORDER, APPS
from repro.cpu import Core, machine_config
from repro.cpu.batch import BatchCore
from repro.emulib.fingerprint import trace_digest
from repro.emulib.trace import Trace
from repro.exp.engine import built_app, built_kernel
from repro.kernels import KERNEL_ORDER, build_and_check
from repro.kernels import KERNELS as KERNEL_SPECS
from repro.memsys import (CollapsingBufferHierarchy, ConventionalHierarchy,
                          MultiAddressHierarchy, PerfectMemory,
                          VectorCacheHierarchy)

KERNELS = ("idct", "motion2")
ISAS = ("alpha", "mmx", "mdmx", "mom")
WAYS = (2, 8)

#: The realistic cache model each ISA runs on: the conventional hierarchy
#: serves the scalar/SIMD ISAs (their accesses are all VL=1); MOM's matrix
#: accesses need the decoupled multi-address scheme.
CACHE_MODEL = {
    "alpha": ConventionalHierarchy,
    "mmx": ConventionalHierarchy,
    "mdmx": ConventionalHierarchy,
    "mom": MultiAddressHierarchy,
}


def make_memsys(label: str, way: int, isa: str):
    cfg = machine_config(way, isa)
    if label == "perfect":
        return PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)
    if label == "latency50":
        return PerfectMemory(50, cfg.mem_ports, cfg.mem_port_width)
    if label == "cache":
        return CACHE_MODEL[isa](way)
    if label == "vectorcache":
        return VectorCacheHierarchy(way)
    if label == "collapsing":
        return CollapsingBufferHierarchy(way)
    raise ValueError(label)


def result_digest(result) -> str:
    """Digest of every deterministic SimResult field (meta is wall-clock)."""
    data = result.to_dict()
    data.pop("meta", None)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def grid_points():
    for kernel in KERNELS:
        for isa in ISAS:
            memories = ["perfect", "latency50", "cache"]
            if isa == "mom":
                memories += ["vectorcache", "collapsing"]
            for way in WAYS:
                for label in memories:
                    yield kernel, isa, way, label


#: Captured from the seed busy-wait core -- see the module docstring.
GOLDEN_DIGESTS = {
    ('idct', 'alpha', 2, 'perfect'): '559f2403b41f08cb',
    ('idct', 'alpha', 2, 'latency50'): '77dee657f47d1dd7',
    ('idct', 'alpha', 2, 'cache'): '141f20b4ee4283c7',
    ('idct', 'alpha', 8, 'perfect'): 'dc4d7182159805d0',
    ('idct', 'alpha', 8, 'latency50'): 'ec03681bcebd084e',
    ('idct', 'alpha', 8, 'cache'): 'bf9713d0dfdb20c6',
    ('idct', 'mmx', 2, 'perfect'): 'cd6ddbbabcb7fb7c',
    ('idct', 'mmx', 2, 'latency50'): 'd6a410a30fab7d8f',
    ('idct', 'mmx', 2, 'cache'): '5a797f32a7a4840b',
    ('idct', 'mmx', 8, 'perfect'): '795db29d1a4c444c',
    ('idct', 'mmx', 8, 'latency50'): 'd9a1b3bd180b2430',
    ('idct', 'mmx', 8, 'cache'): 'aba72c67f7e60979',
    ('idct', 'mdmx', 2, 'perfect'): 'cd6ddbbabcb7fb7c',
    ('idct', 'mdmx', 2, 'latency50'): 'd6a410a30fab7d8f',
    ('idct', 'mdmx', 2, 'cache'): '5a797f32a7a4840b',
    ('idct', 'mdmx', 8, 'perfect'): '3e541f82b78b0e29',
    ('idct', 'mdmx', 8, 'latency50'): '00d4b6ed64c3970c',
    ('idct', 'mdmx', 8, 'cache'): 'aab8d4a1e7559aff',
    ('idct', 'mom', 2, 'perfect'): '1291265249d87f89',
    ('idct', 'mom', 2, 'latency50'): '2712ed2503c61f2d',
    ('idct', 'mom', 2, 'cache'): 'e5c3e2acdbbefa3c',
    ('idct', 'mom', 2, 'vectorcache'): 'd09d2f10ab521296',
    ('idct', 'mom', 2, 'collapsing'): 'ba07b1547d2fc800',
    ('idct', 'mom', 8, 'perfect'): 'b259e5230ea713c0',
    ('idct', 'mom', 8, 'latency50'): 'd85692f7a364c4f9',
    ('idct', 'mom', 8, 'cache'): 'dcabc86fb00951ca',
    ('idct', 'mom', 8, 'vectorcache'): 'a2781f24b596d4b4',
    ('idct', 'mom', 8, 'collapsing'): '53f7afe933acd5ae',
    ('motion2', 'alpha', 2, 'perfect'): 'd7683771a810e5ef',
    ('motion2', 'alpha', 2, 'latency50'): '21a7364c4f38f1fd',
    ('motion2', 'alpha', 2, 'cache'): 'c39302c802b400ca',
    ('motion2', 'alpha', 8, 'perfect'): '2bca430d35a79ae2',
    ('motion2', 'alpha', 8, 'latency50'): '05446a8c2c931c27',
    ('motion2', 'alpha', 8, 'cache'): '7fa88b7523fc78f6',
    ('motion2', 'mmx', 2, 'perfect'): 'c5b47daba2ed47f7',
    ('motion2', 'mmx', 2, 'latency50'): 'a8715d4d5b45cacf',
    ('motion2', 'mmx', 2, 'cache'): '2276b7dc7552569a',
    ('motion2', 'mmx', 8, 'perfect'): '8678eb3e6182900b',
    ('motion2', 'mmx', 8, 'latency50'): 'fb639a739038635d',
    ('motion2', 'mmx', 8, 'cache'): 'b57256a9b764e40f',
    ('motion2', 'mdmx', 2, 'perfect'): '31a87cb02f79862d',
    ('motion2', 'mdmx', 2, 'latency50'): 'dfc195f6dec2206c',
    ('motion2', 'mdmx', 2, 'cache'): '8a3ea5800a3ad2aa',
    ('motion2', 'mdmx', 8, 'perfect'): '3fa8375dc329440a',
    ('motion2', 'mdmx', 8, 'latency50'): '5073a8a9796dc84f',
    ('motion2', 'mdmx', 8, 'cache'): 'e0593649af8a9a6e',
    ('motion2', 'mom', 2, 'perfect'): '00e6159b8bcddf26',
    ('motion2', 'mom', 2, 'latency50'): 'fba0830ecf79d402',
    ('motion2', 'mom', 2, 'cache'): 'c60a6ecb2614e565',
    ('motion2', 'mom', 2, 'vectorcache'): 'aca490dea7d81658',
    ('motion2', 'mom', 2, 'collapsing'): '526787732e059c40',
    ('motion2', 'mom', 8, 'perfect'): '5279ec217a651d13',
    ('motion2', 'mom', 8, 'latency50'): 'e0925c3ce6ea6d02',
    ('motion2', 'mom', 8, 'cache'): '958b3d4708a19bab',
    ('motion2', 'mom', 8, 'vectorcache'): 'b64b6a47261ddf83',
    ('motion2', 'mom', 8, 'collapsing'): '538d644c6b27629f',
}


def test_grid_matches_digest_table():
    """Every mini-grid point has a pinned digest, and nothing is orphaned."""
    assert set(grid_points()) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("kernel,isa,way,memory", list(grid_points()),
                         ids=lambda v: str(v))
def test_event_core_matches_seed_digest(kernel, isa, way, memory):
    built = built_kernel(kernel, isa)
    core = Core(machine_config(way, isa), make_memsys(memory, way, isa))
    result = core.run(built.trace)
    assert result_digest(result) == GOLDEN_DIGESTS[(kernel, isa, way, memory)]


@pytest.mark.parametrize("kernel,isa,way,memory", [
    ("idct", "mom", 8, "vectorcache"),
    ("idct", "alpha", 2, "cache"),
    ("motion2", "mmx", 8, "cache"),
    ("motion2", "mom", 2, "collapsing"),
    ("idct", "mdmx", 8, "latency50"),
], ids=lambda v: str(v))
def test_streaming_consume_path_matches_seed_digest(monkeypatch, kernel,
                                                    isa, way, memory):
    """The streaming consume path (column blocks decoded into rings that
    wrap many times, lanes pausing at every block boundary -- the
    frame-scale route) reproduces the seed digests bit for bit, across
    every memory-model family."""
    cfg = machine_config(way, isa)
    # The smallest block a lane's live window (ROB + fetch queue + one
    # fetch group) always fits in, so the retention check still holds.
    block = 1 << (cfg.rob_size + 3 * cfg.width).bit_length()
    monkeypatch.setattr(BatchCore, "BLOCK", block)
    monkeypatch.setattr(BatchCore, "RING", 2 * block)
    built = built_kernel(kernel, isa)
    assert len(built.trace) > 2 * block     # otherwise nothing wraps
    core = Core(cfg, make_memsys(memory, way, isa))
    result = core.run(built.trace)
    assert result_digest(result) == GOLDEN_DIGESTS[(kernel, isa, way, memory)]


def test_reference_core_still_matches_seed_digest():
    """The retained busy-wait oracle reproduces the seed too (spot check)."""
    for point in (("idct", "mom", 8, "cache"),
                  ("motion2", "alpha", 2, "perfect")):
        kernel, isa, way, memory = point
        built = built_kernel(kernel, isa)
        core = Core(machine_config(way, isa), make_memsys(memory, way, isa))
        result = core.run_reference(built.trace)
        assert result_digest(result) == GOLDEN_DIGESTS[point]


def figure_builds():
    """The 47 builds behind Figures 5 and 7 at scale 1: every Figure 5
    kernel on the four kernel ISAs, every Figure 7 app on its three."""
    for kernel in KERNEL_ORDER:
        for isa in ISAS:
            yield "kernel", kernel, isa
    for app in APP_ORDER:
        for isa in APP_ISAS:
            yield "app", app, isa


#: ``trace_digest`` of every figure-grid build, captured from the builders
#: that still appended one ``DynInstr`` per emitted instruction: writing
#: rows straight into the columnar store must not change a single field.
TRACE_DIGESTS = {
    ('kernel', 'idct', 'alpha'): '3312fadb6ad0f723',
    ('kernel', 'idct', 'mmx'): '03eea6bd4d90856f',
    ('kernel', 'idct', 'mdmx'): '9342012268d721b5',
    ('kernel', 'idct', 'mom'): 'c3ce8bba24f55a0a',
    ('kernel', 'motion2', 'alpha'): '18e9a2af46ef4b9e',
    ('kernel', 'motion2', 'mmx'): '0e9a2beb5971bd09',
    ('kernel', 'motion2', 'mdmx'): '29b2af326b0fe9c7',
    ('kernel', 'motion2', 'mom'): 'f0709f768df2a88a',
    ('kernel', 'rgb2ycc', 'alpha'): '97e830e5bc6c4839',
    ('kernel', 'rgb2ycc', 'mmx'): 'e835454b8401ff92',
    ('kernel', 'rgb2ycc', 'mdmx'): 'c0db981280a1b37c',
    ('kernel', 'rgb2ycc', 'mom'): 'd8f25e3eed0703b0',
    ('kernel', 'ltpparameters', 'alpha'): '96b0d0f55ff59b87',
    ('kernel', 'ltpparameters', 'mmx'): '566f2d9e570a1625',
    ('kernel', 'ltpparameters', 'mdmx'): 'dd26364f48cf93a3',
    ('kernel', 'ltpparameters', 'mom'): 'e8631ad4a2ea25c5',
    ('kernel', 'addblock', 'alpha'): '6ab4e9dad320c225',
    ('kernel', 'addblock', 'mmx'): 'd581968f8ca8b3de',
    ('kernel', 'addblock', 'mdmx'): '6606e553322dfa13',
    ('kernel', 'addblock', 'mom'): 'b92a614af1fbc402',
    ('kernel', 'compensation', 'alpha'): '4d44c0ea332da766',
    ('kernel', 'compensation', 'mmx'): 'b2ed79446379331c',
    ('kernel', 'compensation', 'mdmx'): '0d01e3429b1cb569',
    ('kernel', 'compensation', 'mom'): '3f418a69d70e56e7',
    ('kernel', 'h2v2upsample', 'alpha'): '0110bb51d1967d13',
    ('kernel', 'h2v2upsample', 'mmx'): '397985907a419fd7',
    ('kernel', 'h2v2upsample', 'mdmx'): 'efd26335565c2a66',
    ('kernel', 'h2v2upsample', 'mom'): '7c972aabfd227352',
    ('kernel', 'motion1', 'alpha'): '5cd58fd25fc35dc6',
    ('kernel', 'motion1', 'mmx'): '42f6ce81819f581c',
    ('kernel', 'motion1', 'mdmx'): 'a0351af713e6158d',
    ('kernel', 'motion1', 'mom'): '208061b254d4aed2',
    ('app', 'jpeg_encode', 'alpha'): 'cb103c82782b196d',
    ('app', 'jpeg_encode', 'mmx'): '3be2e15305915f79',
    ('app', 'jpeg_encode', 'mom'): '96571a2b75790424',
    ('app', 'jpeg_decode', 'alpha'): '94b20fb9be84c02e',
    ('app', 'jpeg_decode', 'mmx'): '21a640f2366617e5',
    ('app', 'jpeg_decode', 'mom'): '8e39eda3d629a7ca',
    ('app', 'gsm_encode', 'alpha'): '53f0b341d3f17cb0',
    ('app', 'gsm_encode', 'mmx'): '191a115ff9474c92',
    ('app', 'gsm_encode', 'mom'): 'bb5a4f73d0ca537f',
    ('app', 'mpeg2_decode', 'alpha'): 'f53847b243a2e240',
    ('app', 'mpeg2_decode', 'mmx'): '5836cb4913c27aee',
    ('app', 'mpeg2_decode', 'mom'): '3a7d39c11f3573cd',
    ('app', 'mpeg2_encode', 'alpha'): 'a77ef4b628ba021b',
    ('app', 'mpeg2_encode', 'mmx'): '04f41ad4c61a4e72',
    ('app', 'mpeg2_encode', 'mom'): '4c8d2af62c97e19f',
}


def test_figure_builds_match_trace_digest_table():
    assert set(figure_builds()) == set(TRACE_DIGESTS)


@pytest.mark.parametrize("kind,target,isa", list(figure_builds()),
                         ids=lambda v: str(v))
def test_figure_build_trace_digest(kind, target, isa):
    # A fresh build, not the memoized one: the first column reader (a
    # simulation, say) seals a trace's staging tail, and this digest
    # must hash the staged rows raw.  A copy sealed into one chunk reads
    # every row back as plain ints, so it hashes the same only if no
    # staged value is a numpy scalar or other non-plain type.
    if kind == "kernel":
        spec = KERNEL_SPECS[target]
        trace = build_and_check(spec, isa, spec.make_workload(1)).trace
    else:
        trace = APPS[target].build(isa, 1).trace
    assert len(trace._stage)
    digest = trace_digest(trace)
    assert digest == TRACE_DIGESTS[(kind, target, isa)]
    sealed = Trace(trace.isa, chunk_rows=len(trace))
    sealed.extend(trace)
    assert trace_digest(sealed) == digest


def _recapture():     # pragma: no cover - maintenance helper
    """Print the table from the oracle, so the engine is never checked
    against digests it produced itself."""
    print("GOLDEN_DIGESTS = {")
    for kernel, isa, way, memory in grid_points():
        built = built_kernel(kernel, isa)
        core = Core(machine_config(way, isa), make_memsys(memory, way, isa))
        digest = result_digest(core.run_reference(built.trace))
        print(f"    {(kernel, isa, way, memory)!r}: {digest!r},")
    print("}")
    print("TRACE_DIGESTS = {")
    for kind, target, isa in figure_builds():
        build = built_kernel if kind == "kernel" else built_app
        digest = trace_digest(build(target, isa).trace)
        print(f"    {(kind, target, isa)!r}: {digest!r},")
    print("}")


if __name__ == "__main__":     # pragma: no cover
    _recapture()
