"""Idealized memory models used by the kernel-level study (Section 4.1).

The paper's Figure 5 assumes "an idealized memory system with no bandwidth
constraints and a fixed memory latency of one single cycle (that is, an
equivalent model of a perfect cache)"; the latency-tolerance study repeats
the experiment with a fixed 50-cycle latency.  Ports are still modeled --
they are processor resources (Table 1), not memory ones: a MOM memory
instruction reserves every port and streams its VL elements at the aggregate
element rate, exactly like the multi-address scheme.
"""

from __future__ import annotations


class PortSet:
    """Occupancy tracker for the processor's cache ports."""

    def __init__(self, ports: int, port_width: int) -> None:
        if ports < 1 or port_width < 1:
            raise ValueError("ports and port_width must be >= 1")
        self.ports = ports
        self.port_width = port_width
        self.busy_until = [0] * ports
        self.scalar_accesses = 0
        self.vector_accesses = 0
        self.element_accesses = 0

    def try_scalar(self, cycle: int) -> bool:
        """Claim one port for one cycle; scalar data moves one element."""
        for i, busy in enumerate(self.busy_until):
            if busy <= cycle:
                self.busy_until[i] = cycle + 1
                self.scalar_accesses += 1
                self.element_accesses += 1
                return True
        return False

    def try_vector(self, cycle: int, elements: int) -> int | None:
        """Claim *all* ports for a MOM access of ``elements`` rows.

        Mirrors the paper's multi-address discipline: "a MOM memory request
        will reserve both ports so that the first will access the odd vector
        elements while the other will access the even".  Returns the number
        of cycles the transfer occupies, or ``None`` if any port is busy.
        """
        if any(busy > cycle for busy in self.busy_until):
            return None
        slots_per_cycle = self.ports * self.port_width
        occupancy = max(1, -(-elements // slots_per_cycle))
        for i in range(self.ports):
            self.busy_until[i] = cycle + occupancy
        self.vector_accesses += 1
        self.element_accesses += elements
        return occupancy


class PerfectMemory:
    """Fixed-latency memory behind the configured cache ports.

    Args:
        latency: access latency in cycles (1 for the perfect cache, 50 for
            the streaming-latency study).
        ports: number of cache ports (Table 1).
        port_width: vector elements per port per cycle (2 for 8-way MOM).
    """

    def __init__(self, latency: int = 1, ports: int = 1, port_width: int = 1) -> None:
        if latency < 1:
            raise ValueError("latency must be >= 1")
        self.latency = latency
        self.portset = PortSet(ports, port_width)
        # Cycle-accounting counters (success-path only; kept out of
        # :meth:`stats`, which is digest-pinned): how many accesses
        # issued and the total cycles between issue and completion.
        self.acct_accesses = 0
        self.acct_occupancy = 0

    def try_issue(self, is_store: bool, addr: int, nbytes: int, vl: int,
                  stride: int, cycle: int) -> int | None:
        """Start a memory access; returns its completion cycle or None.

        Only the vector length matters here: ``vl`` elements stream over
        the ports whatever their addresses.
        """
        if vl > 1:
            occupancy = self.portset.try_vector(cycle, vl)
            if occupancy is None:
                return None
            completion = cycle + occupancy - 1 + self.latency
            self.acct_accesses += 1
            self.acct_occupancy += completion - cycle
            return completion
        if not self.portset.try_scalar(cycle):
            return None
        self.acct_accesses += 1
        self.acct_occupancy += self.latency
        return cycle + self.latency

    def stats(self) -> dict[str, int]:
        return {
            "scalar_accesses": self.portset.scalar_accesses,
            "vector_accesses": self.portset.vector_accesses,
            "element_accesses": self.portset.element_accesses,
        }

    def accounting_stats(self) -> dict[str, int]:
        """Per-access occupancy detail for CPI-stack ``meta`` reporting."""
        return {
            "accesses": self.acct_accesses,
            "occupancy_cycles": self.acct_occupancy,
        }
