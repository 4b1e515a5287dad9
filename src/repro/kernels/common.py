"""Kernel framework: one kernel, four ISAs, one golden reference.

Every kernel module registers a :class:`KernelSpec` carrying

* a *workload factory* -- deterministic synthetic inputs at a chosen scale,
* a numpy *golden* function -- the bit-exact expected outputs, and
* one *builder function per ISA* -- hand-vectorized implementations written
  against the emulation libraries, mirroring how the paper "identified those
  functions with potential DLP and manually rewrote them using stylized
  subroutine calls" (Section 3.1), including the loop unrolling and software
  pipelining they applied to MMX/MDMX.

``build_and_check`` runs a builder and asserts its outputs equal the golden
reference, so every simulated trace is backed by a verified computation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..emulib.base_builder import BaseBuilder

#: ISAs every kernel must implement.
ISAS = ("alpha", "mmx", "mdmx", "mom")


@dataclass
class BuiltKernel:
    """A functionally-executed kernel ready for timing simulation."""

    builder: BaseBuilder
    #: named output arrays, to compare against the golden reference.
    outputs: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def trace(self):
        return self.builder.trace


@dataclass(frozen=True)
class KernelSpec:
    """Registry entry for one kernel."""

    name: str
    description: str
    make_workload: Callable[[int], object]
    golden: Callable[[object], dict[str, np.ndarray]]
    builders: dict[str, Callable[[object], BuiltKernel]]

    def build(self, isa: str, workload) -> BuiltKernel:
        if isa not in self.builders:
            raise KeyError(f"kernel {self.name!r} has no {isa!r} version")
        return self.builders[isa](workload)


#: Global kernel registry, populated by the kernel modules at import time.
KERNELS: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    if spec.name in KERNELS:
        raise ValueError(f"kernel {spec.name!r} registered twice")
    missing = [isa for isa in ISAS if isa not in spec.builders]
    if missing:
        raise ValueError(f"kernel {spec.name!r} missing ISAs: {missing}")
    KERNELS[spec.name] = spec
    return spec


def build_and_check(spec: KernelSpec, isa: str, workload) -> BuiltKernel:
    """Build a kernel and verify its outputs against the golden reference.

    Raises ``AssertionError`` with a helpful message on any mismatch; the
    verified :class:`BuiltKernel` is returned otherwise.
    """
    golden = spec.golden(workload)
    built = spec.build(isa, workload)
    for name, expected in golden.items():
        if name not in built.outputs:
            raise AssertionError(
                f"{spec.name}/{isa}: output {name!r} missing "
                f"(has {sorted(built.outputs)})"
            )
        actual, expected = np.asarray(built.outputs[name]), np.asarray(expected)
        if actual.shape != expected.shape:
            raise AssertionError(
                f"{spec.name}/{isa}: output {name!r} has shape "
                f"{actual.shape}, golden has {expected.shape}"
            )
        if not np.array_equal(actual, expected):
            diff = np.flatnonzero(actual.ravel() != expected.ravel())
            raise AssertionError(
                f"{spec.name}/{isa}: output {name!r} mismatches golden at "
                f"{diff.size} positions (first: {diff[:8]})"
            )
    return built


def rng_for(kernel: str, scale: int) -> np.random.Generator:
    """Deterministic per-kernel random source (stable across runs)."""
    seed = zlib.crc32(f"{kernel}:{scale}".encode())
    return np.random.default_rng(seed)
