"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation toggles one mechanism of the MOM implementation and measures
its contribution on a representative kernel:

* **accumulator pipelining** (Section 2.1's central argument) -- without
  partial-sum chaining, MOM's matrix accumulates serialize at the
  functional-unit latency, exactly like MDMX;
* **media-unit lanes** -- the 8-way machine's 2x2 organization vs
  hypothetical 1- and 4-lane units;
* **register-file discipline** -- late (writeback-time) release and
  zero-idiom elision on the banked matrix file vs commit-time release.
"""

import pytest

from repro.cpu import Core, machine_config
from repro.cpu.config import FuConfig
from repro.exp import built_kernel
from repro.memsys import PerfectMemory

import dataclasses


def _run(kernel, way=4, **core_kwargs):
    built = built_kernel(kernel, "mom", 1)
    cfg = machine_config(way, "mom")
    mem = PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)
    return Core(cfg, mem, **core_kwargs).run(built.trace).cycles


def test_ablation_accumulator_pipelining(benchmark):
    """motion2 leans on chained mommsqdb: pipelining must pay off."""
    built_kernel("motion2", "mom", 1)

    def measure():
        return {
            "chained": _run("motion2", acc_chaining=True),
            "serialized": _run("motion2", acc_chaining=False),
        }

    cycles = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(cycles)
    assert cycles["chained"] < cycles["serialized"]
    print(f"\nAccumulator pipelining: {cycles['serialized']} -> "
          f"{cycles['chained']} cycles "
          f"({cycles['serialized'] / cycles['chained']:.2f}x)")


def test_ablation_media_lanes(benchmark):
    """Sweep vector lanes per media unit on the 8-way machine."""
    built = built_kernel("compensation", "mom", 1)
    base = machine_config(8, "mom")

    def sweep():
        out = {}
        for lanes in (1, 2, 4):
            cfg = dataclasses.replace(base, med_lanes=lanes,
                                      med_units=FuConfig(0, 2))
            mem = PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)
            out[lanes] = Core(cfg, mem).run(built.trace).cycles
        return out

    cycles = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["cycles_by_lanes"] = cycles
    assert cycles[2] <= cycles[1]
    assert cycles[4] <= cycles[2]
    print(f"\nMedia lanes sweep (8-way compensation): {cycles}")


def test_ablation_regfile_discipline(benchmark):
    """Late release + zero idioms vs strict commit-time reclamation."""
    built_kernel("idct", "mom", 1)

    def measure():
        return {
            "banked": _run("idct", late_release=True,
                           zero_idiom_elision=True),
            "strict": _run("idct", late_release=False,
                           zero_idiom_elision=False),
        }

    cycles = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(cycles)
    assert cycles["banked"] <= cycles["strict"]
    print(f"\nRegister-file discipline (idct): strict={cycles['strict']} "
          f"banked={cycles['banked']}")


def test_ablation_vector_length(benchmark):
    """Speed-up of MOM motion estimation as the search window (and hence
    the amount of 2D work per scalar overhead) grows."""
    from repro.kernels import KERNELS, build_and_check

    spec = KERNELS["motion1"]

    def sweep():
        out = {}
        for scale in (1, 2):
            workload = spec.make_workload(scale)
            mom = build_and_check(spec, "mom", workload)
            cfg = machine_config(4, "mom")
            mem = PerfectMemory(1, cfg.mem_ports, cfg.mem_port_width)
            cycles = Core(cfg, mem).run(mom.trace).cycles
            out[scale] = cycles / len(workload.candidates)
        return out

    per_candidate = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["cycles_per_candidate"] = {
        str(k): round(v, 1) for k, v in per_candidate.items()
    }
    # Larger searches amortize setup: per-candidate cost must not grow.
    assert per_candidate[2] <= per_candidate[1] * 1.1
    print(f"\nPer-candidate MOM cycles by window scale: {per_candidate}")
