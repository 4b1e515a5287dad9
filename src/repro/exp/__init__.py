"""Unified experiment engine: declarative sweeps over the simulator.

The engine separates *what* to simulate from *how* it runs:

* :mod:`repro.exp.spec` -- :class:`PointSpec` (one simulation point as
  frozen, hashable data) and :class:`SweepSpec` (cartesian products plus
  the named presets behind every paper figure and table).
* :mod:`repro.exp.cache` -- :class:`ResultCache`, a persistent on-disk
  JSON store of :class:`~repro.cpu.core.SimResult`\\ s keyed by spec
  content hash plus a code-version salt.
* :mod:`repro.exp.engine` -- :class:`Session`, which resolves sweeps into
  points, executes cache misses (in process, or on a process pool with
  ``jobs > 1``) and memoizes everything it runs.
* :mod:`repro.exp.cli` -- the ``repro`` console command (``repro figure5``,
  ``repro sweep``, ``repro cache`` ...).

Every figure/table driver in :mod:`repro.eval` is a thin preset over this
package that returns data; the ``repro`` command renders it.
"""

from .spec import PointSpec, SweepSpec, PRESETS, preset
from .cache import ResultCache
from .engine import Session, default_session, built_kernel, built_app

__all__ = [
    "PointSpec", "SweepSpec", "PRESETS", "preset",
    "ResultCache", "Session", "default_session",
    "built_kernel", "built_app",
]
