"""The vector cache (Figure 6b) and its MOM memory system.

The vector cache (from the authors' ICS'99 paper, building on Conte et al.)
sits next to the L2: MOM vector requests bypass the L1 entirely and load
**two whole cache lines** (one per interleaved bank); an interchange switch,
a shifter and mask logic align the data, allowing byte-wise alignment of
stride-one streams.  The paper argues this (a) protects the L1 cycle time,
(b) decouples the vector from the scalar working set and (c) costs little
thanks to MOM's latency tolerance.  A coherence protocol (exclusive-bit plus
L1/L2 inclusion) keeps the bypass safe; here that means vector stores
invalidate L1 copies and vector loads selectively flush the write buffer.

The organization shines for stride-one accesses -- each line-pair transaction
delivers up to 2 x 128 bytes of useful data -- but degrades to one transaction
per element for large strides, which is exactly the mpeg2-encode exception
discussed in Section 4.2.2.
"""

from __future__ import annotations

from .hierarchy import ConventionalHierarchy, HierarchyParams, L2Cache


class VectorCacheHierarchy(ConventionalHierarchy):
    """Scalar traffic through a small L1; MOM traffic through the vector cache.

    Args:
        way: machine issue width (selects the Table 3 column).
        collapsing: build the collapsing-buffer variant (see subclass).
    """

    #: A line-pair transaction spans two consecutive L2 lines.
    WINDOW = 2 * L2Cache.LINE

    #: Strides (bytes) up to this are "stride-one" for the shift&mask logic:
    #: consecutive elements sit in consecutive 64-bit words.
    UNIT_STRIDE = 8

    def __init__(self, way: int, collapsing: bool = False) -> None:
        super().__init__(way, HierarchyParams.vector(way, collapsing))
        self.collapsing = collapsing
        self.vector_port_free = 0
        self.vector_transactions = 0
        self.vector_elements = 0
        self.l1_invalidations = 0

    # --- transaction grouping --------------------------------------------------

    def _windows(self, addresses: list[int]) -> list[list[int]]:
        """Group element addresses into line-pair transactions.

        The plain vector cache can only exploit the 2-line window for
        (near-)unit strides -- its shift&mask path extracts one contiguous
        chunk.  The collapsing buffer groups any elements that fall inside
        the same aligned 2-line window, "even if they are not consecutively
        allocated".
        """
        if not addresses:
            return []
        stride = abs(addresses[1] - addresses[0]) if len(addresses) > 1 else 0
        if not self.collapsing and stride > self.UNIT_STRIDE:
            return [[addr] for addr in addresses]
        groups: dict[int, list[int]] = {}
        for addr in addresses:
            groups.setdefault(addr // self.WINDOW, []).append(addr)
        return [groups[key] for key in sorted(groups)]

    # --- vector access ------------------------------------------------------------

    def try_issue(self, is_store: bool, addr: int, nbytes: int, vl: int,
                  stride: int, cycle: int) -> int | None:
        if vl <= 1:
            return self._scalar_access(is_store, addr, nbytes, cycle)
        return self._vector_access(is_store, addr, vl, stride, cycle)

    def earliest_issue(self, addr: int, nbytes: int, vl: int,
                       cycle: int) -> int:
        """Scheduler hint; vector traffic waits on the single vector port."""
        if vl > 1:
            return max(cycle, self.vector_port_free)
        return super().earliest_issue(addr, nbytes, vl, cycle)

    def _vector_access(self, is_store: bool, addr: int, vl: int, stride: int,
                       cycle: int) -> int | None:
        """Line-pair transactions through the L2, bypassing the L1."""
        if self.vector_port_free > cycle:
            return None
        addresses = ([addr + i * stride for i in range(vl)] if stride
                     else [addr])            # stride 0: one word
        windows = self._windows(addresses)
        self.vector_transactions += len(windows)
        self.vector_elements += len(addresses)
        width = self.params.vector_port_width
        wbuf = self.l1.wbuf
        line = L2Cache.LINE
        completion = cycle
        txn_start = cycle
        for window in windows:
            # Selective write-buffer flush keeps the bypass coherent.
            flush = 0
            for element in window:
                if wbuf.flush_line(element, txn_start):
                    flush = wbuf.drain_interval
            # Both lines of the pair travel through the L2 tag path.
            first_line = window[0] // line * line
            data_ready = txn_start + flush
            for line_addr in (first_line, first_line + line):
                done = self.l2.access(line_addr, is_store, txn_start + flush)
                if done > data_ready:
                    data_ready = done
            if is_store:
                for element in window:
                    if self.l1.invalidate(element):
                        self.l1_invalidations += 1
            transfer = -(-len(window) // width)     # windows are never empty
            txn_start += transfer          # the single vector port streams
            if data_ready + transfer > completion:
                completion = data_ready + transfer
        self.vector_port_free = txn_start
        self.acct_accesses += 1
        self.acct_occupancy += completion - cycle
        return completion

    def stats(self) -> dict[str, float]:
        merged = super().stats()
        merged.update({
            "vector_transactions": self.vector_transactions,
            "vector_elements": self.vector_elements,
            "l1_invalidations": self.l1_invalidations,
        })
        return merged
