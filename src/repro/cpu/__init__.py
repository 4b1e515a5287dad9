"""Trace-driven out-of-order superscalar core (R10000-like, Table 1)."""

from .config import MachineConfig, machine_config, register_file_specs, WAYS
from .bpred import BimodalPredictor, BranchTargetBuffer
from .funit import FuPool, FunctionalUnit
from .core import Core, SimResult

__all__ = [
    "MachineConfig", "machine_config", "register_file_specs", "WAYS",
    "BimodalPredictor", "BranchTargetBuffer", "FuPool", "FunctionalUnit",
    "Core", "SimResult",
]
