"""Declarative experiment specs: points, sweeps and named presets.

A :class:`PointSpec` is one simulation point -- (kernel or app, ISA, issue
width, memory model, latency, workload scale) -- as frozen, hashable data.
A :class:`SweepSpec` describes a family of points (cartesian product or an
explicit list of (isa, memory) pairs) without running anything.  The
:data:`PRESETS` registry names the sweeps behind every figure and table of
the paper, so drivers and the ``repro`` CLI share one source of truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

#: Valid point kinds.
KINDS = ("kernel", "app")

#: Memory-model names resolvable by the engine.
MEMORY_MODELS = ("perfect", "conventional", "multiaddress", "vectorcache",
                 "collapsing")

#: Issue widths of the Table 1 machines.
MACHINE_WAYS = (1, 2, 4, 8)


@dataclass(frozen=True, order=True)
class PointSpec:
    """One simulation point of the evaluation grid.

    Attributes:
        kind: ``"kernel"`` (Section 4.1 grid) or ``"app"`` (Section 4.2).
        target: kernel or application name in the respective registry.
        isa: ``alpha`` / ``mmx`` / ``mdmx`` / ``mom``.
        way: issue width (Table 1 machine).
        latency: fixed access latency for the ``perfect`` memory model;
            ignored by the cache hierarchies, which carry their own timing.
        memory: memory-model name from :data:`MEMORY_MODELS`.
        scale: workload scale factor.
        accounting: run with per-cycle CPI-stack attribution (slower;
            digests of the timing fields are unchanged either way).
    """

    kind: str
    target: str
    isa: str
    way: int
    latency: int = 1
    memory: str = "perfect"
    scale: int = 1
    accounting: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind {self.kind!r} not in {KINDS}")
        if self.memory not in MEMORY_MODELS:
            raise ValueError(
                f"memory {self.memory!r} not in {MEMORY_MODELS}")
        if self.way not in MACHINE_WAYS:
            raise ValueError(f"way {self.way} not in {MACHINE_WAYS}")
        if self.latency < 1:
            raise ValueError("latency must be >= 1")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")

    def payload(self) -> dict:
        """Plain-data image (stable field order) for hashing and storage.

        ``accounting`` is emitted only when set, so pre-v1.7 payloads,
        cache keys and serve requests are byte-identical for plain
        points (and old servers accept them).  Built field by field, not
        with ``dataclasses.asdict`` (a recursive deep copy): the serve
        layer builds one per answer.  A new field must be added here;
        ``tests/test_exp.py`` holds this equal to ``asdict``.
        """
        data = {"kind": self.kind, "target": self.target, "isa": self.isa,
                "way": self.way, "latency": self.latency,
                "memory": self.memory, "scale": self.scale}
        if self.accounting:
            data["accounting"] = self.accounting
        return data

    def content_hash(self, salt: str = "") -> str:
        """Deterministic digest of this point (plus an optional salt).

        Stable across processes and Python hash randomization: derived
        from canonical JSON, never from :func:`hash`.
        """
        canon = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{salt}|{canon}".encode()).hexdigest()[:32]

    @classmethod
    def from_payload(cls, data: dict) -> "PointSpec":
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A named family of :class:`PointSpec`\\ s.

    By default points are the cartesian product ``targets x isas x ways x
    latencies x memories``; passing ``pairs`` instead of ``isas``/
    ``memories`` enumerates explicit (isa, memory) configurations, as
    Figure 7 needs (MOM runs only on the decoupled caches).
    """

    name: str
    kind: str
    targets: tuple[str, ...]
    isas: tuple[str, ...] = ()
    ways: tuple[int, ...] = (4,)
    latencies: tuple[int, ...] = (1,)
    memories: tuple[str, ...] = ("perfect",)
    pairs: tuple[tuple[str, str], ...] = ()
    scale: int = 1
    accounting: bool = False

    def points(self) -> tuple[PointSpec, ...]:
        """Resolve the sweep into concrete points (deterministic order)."""
        configs = self.pairs or tuple(
            (isa, memory) for isa in self.isas for memory in self.memories)
        return tuple(
            PointSpec(kind=self.kind, target=target, isa=isa, way=way,
                      latency=latency, memory=memory, scale=self.scale,
                      accounting=self.accounting)
            for target in self.targets
            for way in self.ways
            for isa, memory in configs
            for latency in self.latencies
        )

    def replace(self, **overrides) -> "SweepSpec":
        """A copy with some axes overridden (CLI ``repro sweep`` flags)."""
        data = {f: getattr(self, f) for f in self.__dataclass_fields__}
        data.update(overrides)
        return SweepSpec(**data)


# --- named presets (the paper's figures and tables) ---------------------------

#: Figure 7's five configurations: (label, isa, memory model).
FIGURE7_CONFIGS = (
    ("alpha-conv", "alpha", "conventional"),
    ("mmx-conv", "mmx", "conventional"),
    ("mom-multiaddress", "mom", "multiaddress"),
    ("mom-vectorcache", "mom", "vectorcache"),
    ("mom-collapsing", "mom", "collapsing"),
)

#: Section 4.1's "streaming-like" fixed memory latency.
HIGH_LATENCY = 50

#: The frame-scale study runs one full 720x480 MPEG-2 frame end-to-end on
#: one configuration per Figure 7 ISA: the conventional hierarchy for the
#: scalar and SIMD machines, the vector cache for MOM.
FRAME_SCALE_CONFIGS = (
    ("alpha-conv", "alpha", "conventional"),
    ("mmx-conv", "mmx", "conventional"),
    ("mom-vectorcache", "mom", "vectorcache"),
)


def _presets() -> dict[str, SweepSpec]:
    # Local import keeps module load order obvious; the kernel/app
    # registries populate as a side effect of importing their packages
    # (they never import repro.exp, so there is no cycle).
    from ..apps import APP_ORDER
    from ..kernels import KERNEL_ORDER, VC_KERNEL_ORDER

    kernel_isas = ("alpha", "mmx", "mdmx", "mom")
    return {
        # Compiler-built kernels (repro.vc): the full ISA x width grid,
        # same shape as figure5 but over the new workloads.
        "vc-kernels": SweepSpec(
            name="vc-kernels", kind="kernel", targets=VC_KERNEL_ORDER,
            isas=kernel_isas, ways=MACHINE_WAYS),
        # Figure 5: per-kernel speedups, idealized 1-cycle memory.
        "figure5": SweepSpec(
            name="figure5", kind="kernel", targets=KERNEL_ORDER,
            isas=kernel_isas, ways=MACHINE_WAYS),
        # Figure 7: full applications on the realistic hierarchies.
        "figure7": SweepSpec(
            name="figure7", kind="app", targets=APP_ORDER, ways=(4, 8),
            pairs=tuple((isa, mem) for _, isa, mem in FIGURE7_CONFIGS)),
        # Frame-scale study: one full 720x480 MPEG-2 frame per ISA
        # configuration.  Tens of millions of dynamic instructions per
        # point -- the columnar streaming trace engine is what makes this
        # preset buildable and simulatable in bounded memory.
        "frame-scale": SweepSpec(
            name="frame-scale", kind="app", targets=("mpeg2_frame",),
            ways=(4,),
            pairs=tuple((isa, mem) for _, isa, mem in FRAME_SCALE_CONFIGS)),
        # Section 4.1 latency-tolerance study: 1- vs 50-cycle memory.
        "latency": SweepSpec(
            name="latency", kind="kernel", targets=KERNEL_ORDER,
            isas=kernel_isas, ways=(4,), latencies=(1, HIGH_LATENCY)),
        # Fetch-pressure study: narrow vs wide machines.
        "fetch-pressure": SweepSpec(
            name="fetch-pressure", kind="kernel", targets=KERNEL_ORDER,
            isas=kernel_isas, ways=(1, 8)),
        # Tables 1-3 are configuration tables, not simulations; this small
        # sanity sweep exercises one point per Table 1 machine so `repro
        # sweep table1` can smoke-test every configured width.
        "table1": SweepSpec(
            name="table1", kind="kernel", targets=("compensation",),
            isas=("mmx", "mom"), ways=MACHINE_WAYS),
    }


#: Named sweeps behind the paper's figures and tables.
PRESETS: dict[str, SweepSpec] = _presets()


def preset(name: str) -> SweepSpec:
    """Look up a named sweep; raises with the available names on a miss."""
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]
