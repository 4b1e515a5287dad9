"""Multi-address cache (Figure 6a): the conventional option for MOM.

"A multi-address cache is simply a conventional multi-banked cache where a
MOM memory access is decoupled among all available memory ports.  So, if we
have two independent memory ports, a MOM memory request will reserve both
ports so that the first will access the odd vector elements while the other
will access the even vector elements.  This model has the advantage of fully
taking benefit from all the port resources, even if we have only one single
memory request."

Strengths: MOM traffic enjoys the low-latency L1 when working sets fit (the
4-way winner of Figure 7); weaknesses: bank collisions and interconnect
pressure at higher widths.
"""

from __future__ import annotations

from .hierarchy import ConventionalHierarchy, HierarchyParams


class MultiAddressHierarchy(ConventionalHierarchy):
    """Conventional banked hierarchy plus decoupled MOM element access."""

    def __init__(self, way: int) -> None:
        super().__init__(way, HierarchyParams.conventional(way))
        self.vector_accesses = 0
        self.vector_elements = 0

    def try_issue(self, is_store: bool, addr: int, nbytes: int, vl: int,
                  stride: int, cycle: int) -> int | None:
        if vl <= 1:
            return self._scalar_access(is_store, addr, nbytes, cycle)
        return self._vector_access(is_store, addr, vl, stride, cycle)

    def earliest_issue(self, addr: int, nbytes: int, vl: int,
                       cycle: int) -> int:
        """Scheduler hint; a MOM access needs *every* port simultaneously."""
        if vl > 1:
            return max(cycle, max(self.port_free))
        return super().earliest_issue(addr, nbytes, vl, cycle)

    def _vector_access(self, is_store: bool, addr: int, vl: int, stride: int,
                       cycle: int) -> int | None:
        """Stream the elements round-robin over every port."""
        port_free = self.port_free
        for free in port_free:
            if free > cycle:
                return None          # a MOM request reserves all ports
        ports = len(port_free)
        elements = vl if stride else 1      # stride 0: one word
        self.vector_accesses += 1
        self.vector_elements += elements
        l1 = self.l1
        completion = cycle
        for i in range(elements):
            slot_cycle = cycle + i // ports
            if is_store:
                done = l1.store(addr + i * stride, slot_cycle)
                if done is None:
                    # Write buffer full mid-stream: charge a drain delay
                    # instead of rolling back the issued elements.
                    done = slot_cycle + l1.wbuf.drain_interval
            else:
                done = l1.load(addr + i * stride, slot_cycle)
            if done > completion:
                completion = done
        until = cycle - (-elements // ports)   # ceil
        for p in range(ports):
            port_free[p] = until
        self.acct_accesses += 1
        self.acct_occupancy += completion - cycle
        return completion

    def stats(self) -> dict[str, float]:
        merged = super().stats()
        merged.update({
            "vector_accesses": self.vector_accesses,
            "vector_elements": self.vector_elements,
        })
        return merged
