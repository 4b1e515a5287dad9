"""Core instances are safely reusable across ``run()`` calls.

Regression for the reuse footgun: ``bpred``/``btb``/``FuPool`` state used
to survive across ``run()`` calls on one instance, so a second run saw
warm predictor tables and stale FU busy horizons and silently diverged
from a fresh core.  ``Core`` now keeps no such state: both engines build
it afresh inside every run.

The *memory system* is caller-owned and deliberately not reset -- cache
contents surviving a run is a feature (and perfect-memory port horizons a
documented caller responsibility) -- so these tests swap in a fresh
memsys between runs to isolate exactly the core-owned state.
"""

from repro.cpu import Core, machine_config
from repro.exp.engine import built_kernel
from repro.memsys import ConventionalHierarchy, PerfectMemory

from test_golden_digest import make_memsys, result_digest


def _fresh_digest(kernel, isa, way, memory, trace):
    core = Core(machine_config(way, isa), make_memsys(memory, way, isa))
    return result_digest(core.run(trace))


def test_second_run_matches_fresh_core():
    """Two consecutive run() calls == two fresh cores, per-run digests."""
    for kernel, isa, way, memory in (("idct", "mom", 8, "perfect"),
                                     ("motion2", "mmx", 2, "cache")):
        trace = built_kernel(kernel, isa).trace
        core = Core(machine_config(way, isa), make_memsys(memory, way, isa))
        first = result_digest(core.run(trace))
        core.memsys = make_memsys(memory, way, isa)     # caller-owned state
        second = result_digest(core.run(trace))
        assert first == _fresh_digest(kernel, isa, way, memory, trace)
        assert second == _fresh_digest(kernel, isa, way, memory, trace)
        assert first == second


def test_second_run_different_trace_matches_fresh_core():
    """Reuse across *different* traces must not leak predictor history."""
    isa, way = "mom", 2
    t1 = built_kernel("idct", isa).trace
    t2 = built_kernel("motion2", isa).trace
    core = Core(machine_config(way, isa), PerfectMemory(1, 2, 1))
    core.run(t1)
    core.memsys = PerfectMemory(1, 2, 1)
    reused = result_digest(core.run(t2))
    fresh = result_digest(
        Core(machine_config(way, isa), PerfectMemory(1, 2, 1)).run(t2))
    assert reused == fresh


def test_reference_engine_reuse_matches_fresh_core():
    """The busy-wait oracle resets per run too."""
    isa, way = "alpha", 2
    trace = built_kernel("idct", isa).trace
    core = Core(machine_config(way, isa), ConventionalHierarchy(way))
    core.run_reference(trace)
    core.memsys = ConventionalHierarchy(way)
    reused = result_digest(core.run_reference(trace))
    fresh = result_digest(Core(machine_config(way, isa),
                               ConventionalHierarchy(way)).run_reference(trace))
    assert reused == fresh
