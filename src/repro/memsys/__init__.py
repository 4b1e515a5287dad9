"""Memory-system models: perfect memory and the full cache hierarchies.

Every class exposes ``try_issue(is_store, addr, nbytes, vl, stride, cycle)
-> completion | None`` -- the interface the out-of-order core drives, one
access as plain ints -- plus ``stats()``; the hierarchies add the
``earliest_issue(addr, nbytes, vl, cycle)`` hint (:mod:`repro.memsys.cache`).

* :class:`PerfectMemory` -- fixed latency, Table 1 ports (Section 4.1).
* :class:`ConventionalHierarchy` -- ports / banked L1 / write buffer / L2 /
  DRDRAM (Alpha and MMX full-program runs).
* :class:`MultiAddressHierarchy` -- conventional cache with MOM element
  decoupling over all ports (Figure 6a).
* :class:`VectorCacheHierarchy` -- L1 bypass, line-pair vector cache
  (Figure 6b).
* :class:`CollapsingBufferHierarchy` -- vector cache with element-collapsing
  gather logic (Figure 6c).
"""

from .perfect import PerfectMemory, PortSet
from .cache import CacheArray, MshrFile, WriteBuffer
from .dram import DirectRambus
from .hierarchy import ConventionalHierarchy, HierarchyParams, L1Cache, L2Cache
from .multi_address import MultiAddressHierarchy
from .vector_cache import VectorCacheHierarchy
from .collapsing import CollapsingBufferHierarchy

__all__ = [
    "PerfectMemory", "PortSet", "CacheArray", "MshrFile", "WriteBuffer",
    "DirectRambus", "ConventionalHierarchy", "HierarchyParams",
    "L1Cache", "L2Cache", "MultiAddressHierarchy", "VectorCacheHierarchy",
    "CollapsingBufferHierarchy",
]
