"""Byte-addressable flat memory for the emulation libraries.

The paper's methodology instruments real Alpha binaries with ATOM; our
builders instead execute kernels functionally against this memory, so the
dynamic traces carry *real* effective addresses that later drive the cache
models.  Little-endian layout matches the packed-word lane order used by
:mod:`repro.core.packed`.
"""

from __future__ import annotations

import numpy as np


class Memory:
    """A flat little-endian memory image with a bump allocator.

    Addresses start at :attr:`BASE` (a non-zero base catches accidental
    null-pointer arithmetic in kernels).  The allocator hands out aligned,
    non-overlapping regions; there is no ``free`` because kernel runs are
    short-lived.
    """

    BASE = 0x1_0000

    def __init__(self, size: int = 8 << 20) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._brk = self.BASE

    # --- allocation ---------------------------------------------------------

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the (aligned) base address."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        base = (self._brk + align - 1) & ~(align - 1)
        if base + nbytes - self.BASE > self.size:
            raise MemoryError(
                f"out of simulated memory allocating {nbytes} bytes"
            )
        self._brk = base + nbytes
        return base

    def _offset(self, addr: int, nbytes: int) -> int:
        off = addr - self.BASE
        if off < 0 or off + nbytes > self.size:
            raise IndexError(f"address {addr:#x}+{nbytes} outside memory")
        return off

    # --- scalar access -------------------------------------------------------

    def read(self, addr: int, nbytes: int, signed: bool = False) -> int:
        """Read an integer of 1/2/4/8 bytes, little-endian."""
        off = self._offset(addr, nbytes)
        raw = self.data[off : off + nbytes].tobytes()
        return int.from_bytes(raw, "little", signed=signed)

    def write(self, addr: int, value: int, nbytes: int) -> None:
        """Write an integer of 1/2/4/8 bytes, little-endian (truncating)."""
        off = self._offset(addr, nbytes)
        mask = (1 << (8 * nbytes)) - 1
        raw = (int(value) & mask).to_bytes(nbytes, "little")
        self.data[off : off + nbytes] = np.frombuffer(raw, dtype=np.uint8)

    # --- bulk access ------------------------------------------------------------

    def read_block(self, addr: int, nbytes: int) -> bytes:
        off = self._offset(addr, nbytes)
        return self.data[off : off + nbytes].tobytes()

    def write_block(self, addr: int, payload: bytes) -> None:
        off = self._offset(addr, len(payload))
        self.data[off : off + len(payload)] = np.frombuffer(
            bytes(payload), dtype=np.uint8
        )

    # --- numpy array helpers ------------------------------------------------------

    def store_array(self, addr: int, array: np.ndarray) -> None:
        """Copy a numpy array into memory at ``addr`` (native little-endian)."""
        self.write_block(addr, np.ascontiguousarray(array).tobytes())

    def load_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Read ``count`` items of ``dtype`` starting at ``addr``."""
        item = np.dtype(dtype).itemsize
        raw = self.read_block(addr, item * count)
        return np.frombuffer(raw, dtype=dtype).copy()

    def alloc_array(self, array: np.ndarray, align: int = 64) -> int:
        """Allocate space for ``array``, copy it in, and return the address."""
        arr = np.ascontiguousarray(array)
        addr = self.alloc(arr.nbytes, align=align)
        self.store_array(addr, arr)
        return addr
