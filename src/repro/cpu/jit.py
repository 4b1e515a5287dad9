"""JIT-compiled timing-core fast path over the shared decode rings.

PR 5/6 flattened the hot path into integer rings: columnar trace chunks
and :class:`~repro.cpu.batch._SharedDecode`'s per-record issue
constants, SWAR register charges and precomputed predictor streams.
This module compiles the one remaining interpreted piece -- the
per-record event loop -- into a numba ``@njit`` kernel over preallocated
numpy arrays, one call per lane per decode block.

The kernel is a *transcription* of :func:`repro.cpu.batch._lane_stepper`
(itself a transcription of :meth:`repro.cpu.core.Core.run`): identical
phase order (release, commit, wake, issue, dispatch, fetch, horizon),
identical scheduling disciplines, identical stall accounting.  Every
scheduler structure maps onto a flat typed array:

* the ROB window becomes ``e_completion``/``e_chain``/``e_pending``/
  ``e_base`` rings indexed by ``instruction_index & (window - 1)``;
* the heaps (``releases``, ``wakeups``, ``parked``) become int64 arrays
  with explicit sift-up/sift-down helpers; entries keep the stepper's
  ``cycle << 32 | payload`` packing, so pop order is unchanged (the
  release word is repacked from ``cycle << 80 | SWAR`` to fit int64:
  ``cycle << 32 | (MED charge << 16 | ACC charge)``);
* the per-producer waiter lists become a free-listed edge pool
  (``whead``/``wedge_w``/``wedge_next``), sized ``window * DEP_CAP`` so
  it can never overflow (records carry at most three producer edges);
* the SWAR headroom word ``D`` becomes explicit ``inflight[pool]`` /
  ``lsq_used`` counters plus unpacked per-record charge matrices; the
  masked-subtract admission test becomes a per-present-pool compare,
  field for field the same predicate;
* the ``PerfectMemory`` port set is inlined (the only memory model a
  jit lane admits -- see :func:`lane_unjittable_reason`), with the
  access counters buffered in kernel registers and written back only
  after the whole run succeeds, so a fallback re-run starts clean.

Capability detection mirrors PR 6's ``UnbatchableError`` idiom: numba
missing, an inexpressible lane, or an in-kernel capacity limit raises
:class:`UnjittableError` and the caller falls back to the interpreted
path.  ``REPRO_JIT_PUREPY=1`` forces the jit path *without* numba --
the kernels are plain functions that run under the interpreter -- which
is how the parity suite exercises this module in environments where
numba is not installed.

:func:`warm` triggers (cached) kernel compilation once per process with
a zero-length run, so a one-shot CLI invocation pays the cold ``@njit``
latency before timing-sensitive work, and ``cache=True`` persists the
compiled kernel across processes.
"""

from __future__ import annotations

import os
import time as _time

try:
    import numpy as _np
except ImportError:                    # pragma: no cover - numpy is baked in
    _np = None

try:
    import numba as _numba
except ImportError:
    _numba = None

from ..isa.model import RegPool
from ..memsys.perfect import PerfectMemory
from .core import Core, _FAR_FUTURE, _NO_EVENT

#: numba version string, or ``None`` when numba is not importable
#: (reported by ``repro --version``).
NUMBA_VERSION = getattr(_numba, "__version__", None)

#: Producer-edge capacity per record.  Records carry at most three
#: register sources, so at most three (possibly duplicated) producer
#: edges; the conversion layer asserts this.
DEP_CAP = 4

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_UNISSUED = 1 << 62

#: Heap entries pack a cycle into the upper 32 bits of an int64; abort
#: to the interpreter (status ``_ST_OVERFLOW``) before any cycle could
#: reach the packing limit.  The margin keeps ``completion`` (cycle plus
#: occupancy plus latency) packable too.
_PACK_LIMIT = (1 << 31) - (1 << 20)

# ``regs`` slots: one int64 array per lane holds every scalar the
# stepper keeps in locals, so a lane can pause at a decode-block
# boundary and resume bit-exactly.
_R_CYCLE = 0
_R_COMMITTED = 1
_R_DISP = 2
_R_FETCH = 3
_R_NFC = 4            # next_fetch_cycle
_R_FSTALL = 5
_R_RSTALL = 6
_R_CP = 7             # cursor into the nonzero-control position lists
_R_BURST_END = 8
_R_FRONT_READY = 9
_R_WAITING = 10
_R_LSQ = 11
_R_EFREE = 12         # head of the waiter-edge free list
_R_NREL = 13          # live heap/list sizes
_R_NWAKE = 14
_R_NPARK = 15
_R_NISS = 16
_R_NWNEXT = 17
_R_BQ_HEAD = 18
_R_BQ_TAIL = 19
_R_PM_SCALAR = 20
_R_PM_VECTOR = 21
_R_PM_ELEM = 22
# CPI-stack accumulators (live only when ``cfg[_C_ACCT]`` is set; the
# kernel statements are identical under numba and pure python).
_R_ST_BASE = 23
_R_ST_FETCH = 24
_R_ST_RENAME = 25
_R_ST_FU = 26
_R_ST_MEMC = 27
_R_ST_MEML = 28
_R_ST_DRAIN = 29
_R_PM_ACCT_N = 30
_R_PM_ACCT_OCC = 31
_NREGS = 32

# ``cfg`` slots: per-lane constants.
_C_WIDTH = 0
_C_ROB = 1
_C_LSQ = 2
_C_FRONT = 3
_C_FQCAP = 4
_C_REDIRECT = 5
_C_GMASK = 6
_C_WMASK = 7
_C_BQMASK = 8
_C_PM_LAT = 9
_C_PM_PORTS = 10
_C_PM_SLOTS = 11
_C_LIM0 = 12          # .. _C_LIM0 + 3: physical-register pool limits
_C_ACCT = 16          # 1 when the lane runs with cycle accounting
_NCFG = 17

# Kernel exit statuses.
_ST_PAUSED = 0        # fetch reached the decoded prefix; resume after decode
_ST_DONE = 1
_ST_DEADLOCK = 2      # no pending event (model bug; driver raises)
_ST_EDGES = 3         # waiter-edge pool exhausted (unreachable; defensive)
_ST_OVERFLOW = 4      # cycle count would overflow the packed heaps


class UnjittableError(RuntimeError):
    """This point cannot run through the jit kernels; use the fallback."""


def numba_available() -> bool:
    """True when numba imported successfully."""
    return _numba is not None


def _purepy_forced() -> bool:
    """``REPRO_JIT_PUREPY=1`` runs the kernels as plain python."""
    return os.environ.get("REPRO_JIT_PUREPY") == "1"


def jit_available() -> bool:
    """True when the jit path can execute (compiled or forced pure-python)."""
    return _np is not None and (_numba is not None or _purepy_forced())


def jit_enabled() -> bool:
    """False when ``REPRO_NO_JIT=1`` disables the path (mirrors
    ``REPRO_NO_BATCH``)."""
    return os.environ.get("REPRO_NO_JIT") != "1"


def lane_unjittable_reason(spec) -> str | None:
    """Why this lane cannot run through the kernel, or ``None`` if it can.

    The kernel inlines the perfect-memory port set; any other memory
    model (cache hierarchies with per-access state) stays on the
    interpreted path.  Predictor tables must be powers of two, exactly
    as :class:`~repro.cpu.batch.BatchCore` requires.
    """
    if not jit_available():
        return "numba is unavailable (and REPRO_JIT_PUREPY is not set)"
    if type(spec.memsys) is not PerfectMemory:
        return (f"memory model {type(spec.memsys).__name__} is not "
                "expressible in typed kernel state")
    cfg = spec.config
    for entries in (cfg.bimodal_entries, cfg.btb_entries):
        if entries <= 0 or entries & (entries - 1):
            return "predictor tables must be powers of two"
    return None


# --- kernels ----------------------------------------------------------------
#
# Plain functions, reassigned through ``numba.njit`` below when numba is
# importable.  ``_step_lane`` resolves ``_heap_push``/``_heap_pop`` at
# first-call compile time, so the reassignment is what it compiles.


def _heap_push(heap, m, val):
    """Push ``val`` onto the min-heap ``heap[:m]``; returns the new size.

    Identical ordering to ``heapq`` on the packed int entries: the pop
    always returns the minimum value, and equal packed values are
    indistinguishable, so the stepper's pop *sequence* is unchanged.
    """
    i = m
    while i > 0:
        parent = (i - 1) >> 1
        pv = heap[parent]
        if val < pv:
            heap[i] = pv
            i = parent
        else:
            break
    heap[i] = val
    return m + 1


def _heap_pop(heap, m):
    """Pop the minimum of ``heap[:m]``; returns ``(value, new_size)``."""
    top = heap[0]
    m -= 1
    if m > 0:
        val = heap[m]
        i = 0
        while True:
            child = 2 * i + 1
            if child >= m:
                break
            right = child + 1
            if right < m and heap[right] < heap[child]:
                child = right
            cv = heap[child]
            if cv < val:
                heap[i] = cv
                i = child
            else:
                break
        heap[i] = val
    return top, m


def _step_lane(regs, cfg, inflight, fu_busy, fu_lo, fu_hi, fu_lanes,
               pm_busy,
               e_completion, e_chain, e_pending, e_base,
               whead, wedge_w, wedge_next,
               rel_heap, wake_heap, park_heap, iss_heap, wnext, bursts,
               r_kind, r_sidx, r_rows, r_lat, r_nonpip, r_chmode, r_vl,
               r_chains, r_ndep, r_dep,
               c_alloc, c_chk, c_commit, r_rel, r_has,
               ctl_ring, pos_idx, pos_code,
               n, aw, npos):
    """One lane's event loop until completion or a decode-block pause.

    Transcribes :func:`repro.cpu.batch._lane_stepper` phase for phase;
    the parity suites pin bit-identity.  Returns a ``_ST_*`` status.
    """
    width = cfg[_C_WIDTH]
    rob_size = cfg[_C_ROB]
    lsq_size = cfg[_C_LSQ]
    front_latency = cfg[_C_FRONT]
    fqcap = cfg[_C_FQCAP]
    redirect = cfg[_C_REDIRECT]
    gmask = cfg[_C_GMASK]
    wmask = cfg[_C_WMASK]
    bqmask = cfg[_C_BQMASK]
    pm_lat = cfg[_C_PM_LAT]
    pm_ports = cfg[_C_PM_PORTS]
    pm_slots = cfg[_C_PM_SLOTS]
    accounting = cfg[_C_ACCT]

    cycle = regs[_R_CYCLE]
    committed = regs[_R_COMMITTED]
    disp_idx = regs[_R_DISP]
    fetch_idx = regs[_R_FETCH]
    next_fetch_cycle = regs[_R_NFC]
    fetch_stalls = regs[_R_FSTALL]
    rename_stalls = regs[_R_RSTALL]
    cp = regs[_R_CP]
    burst_end = regs[_R_BURST_END]
    front_ready = regs[_R_FRONT_READY]
    waiting = regs[_R_WAITING]
    lsq_used = regs[_R_LSQ]
    efree = regs[_R_EFREE]
    nrel = regs[_R_NREL]
    nwake = regs[_R_NWAKE]
    npark = regs[_R_NPARK]
    niss = regs[_R_NISS]
    nwn = regs[_R_NWNEXT]
    bq_head = regs[_R_BQ_HEAD]
    bq_tail = regs[_R_BQ_TAIL]
    pm_scalar = regs[_R_PM_SCALAR]
    pm_vector = regs[_R_PM_VECTOR]
    pm_elem = regs[_R_PM_ELEM]
    st_base = regs[_R_ST_BASE]
    st_fetch = regs[_R_ST_FETCH]
    st_rename = regs[_R_ST_RENAME]
    st_fu = regs[_R_ST_FU]
    st_memc = regs[_R_ST_MEMC]
    st_meml = regs[_R_ST_MEML]
    st_drain = regs[_R_ST_DRAIN]
    pm_acct_n = regs[_R_PM_ACCT_N]
    pm_acct_occ = regs[_R_PM_ACCT_OCC]

    status = _ST_DONE
    while committed < n:
        # Pause whenever fetch could outrun the decoded prefix; the
        # driver decodes the next block and re-enters inside the same
        # simulated cycle (timing-transparent, like the stepper's yield).
        if fetch_idx > aw:
            status = _ST_PAUSED
            break

        cycle += 1
        if cycle >= _PACK_LIMIT:
            status = _ST_OVERFLOW
            break

        # --- release late-freed physical registers --------------------------
        while nrel > 0 and (rel_heap[0] >> 32) <= cycle:
            v, nrel = _heap_pop(rel_heap, nrel)
            inflight[2] -= (v >> 16) & 0xFFFF
            inflight[3] -= v & 0xFFFF

        # --- commit ---------------------------------------------------------
        cbase = committed
        lim = committed + width
        if disp_idx < lim:
            lim = disp_idx
        while committed < lim:
            if e_completion[committed & wmask] > cycle:
                break
            gs = committed & gmask
            inflight[0] -= c_commit[gs, 0]
            inflight[1] -= c_commit[gs, 1]
            inflight[2] -= c_commit[gs, 2]
            inflight[3] -= c_commit[gs, 3]
            lsq_used -= c_commit[gs, 4]
            committed += 1
        if committed >= n:
            if accounting != 0:
                if committed - cbase == width:
                    st_base += 1
                else:
                    st_drain += 1
            break

        # --- wake -----------------------------------------------------------
        for k in range(nwn):
            niss = _heap_push(iss_heap, niss, wnext[k])
        nwn = 0
        while nwake > 0 and (wake_heap[0] >> 32) <= cycle:
            v, nwake = _heap_pop(wake_heap, nwake)
            niss = _heap_push(iss_heap, niss, v & _M32)
        while npark > 0 and (park_heap[0] >> 32) <= cycle:
            v, npark = _heap_pop(park_heap, npark)
            niss = _heap_push(iss_heap, niss, v & _M32)

        # --- issue: oldest-first among ready entries ------------------------
        # (a min-heap of indices pops the same oldest-first sequence the
        # stepper's descending-sorted list does)
        issued = 0
        next_cycle = cycle + 1
        while niss > 0 and issued < width:
            i, niss = _heap_pop(iss_heap, niss)
            gs = i & gmask
            kind = r_kind[gs]
            sidx = r_sidx[gs]
            vl = r_vl[gs]
            lat = r_lat[gs]
            completion = -1
            if kind == 0:               # compute
                lo = fu_lo[sidx]
                hi = fu_hi[sidx]
                for u in range(lo, hi):
                    if fu_busy[u] <= cycle:
                        occ = -(-r_rows[gs] // fu_lanes[sidx])
                        if r_nonpip[gs] != 0 and occ < lat:
                            occ = lat
                        if occ < 1:
                            occ = 1
                        fu_busy[u] = cycle + occ
                        completion = cycle + occ - 1 + lat
                        break
            elif kind == 1:             # memory (inlined PerfectMemory)
                if vl > 1:
                    free = True
                    for p in range(pm_ports):
                        if pm_busy[p] > cycle:
                            free = False
                            break
                    if free:
                        occ = -(-vl // pm_slots)
                        if occ < 1:
                            occ = 1
                        until = cycle + occ
                        for p in range(pm_ports):
                            pm_busy[p] = until
                        pm_vector += 1
                        pm_elem += vl
                        completion = cycle + occ - 1 + pm_lat
                        pm_acct_n += 1
                        pm_acct_occ += completion - cycle
                else:
                    for p in range(pm_ports):
                        if pm_busy[p] <= cycle:
                            pm_busy[p] = next_cycle
                            pm_scalar += 1
                            pm_elem += 1
                            completion = cycle + pm_lat
                            pm_acct_n += 1
                            pm_acct_occ += pm_lat
                            break
            elif kind == 2:             # control: simple integer pipe
                for u in range(fu_lo[0], fu_hi[0]):
                    if fu_busy[u] <= cycle:
                        fu_busy[u] = next_cycle
                        completion = next_cycle
                        break
            else:                       # nop
                completion = next_cycle
            if completion < 0:
                # Structural hazard: park until the resource's earliest
                # possible free cycle (Core._retry_cycle).
                if kind == 1:
                    hint = pm_busy[0]
                    if vl > 1:
                        for p in range(1, pm_ports):
                            if pm_busy[p] > hint:
                                hint = pm_busy[p]
                    else:
                        for p in range(1, pm_ports):
                            if pm_busy[p] < hint:
                                hint = pm_busy[p]
                else:
                    if kind == 2:
                        lo = fu_lo[0]
                        hi = fu_hi[0]
                    else:
                        lo = fu_lo[sidx]
                        hi = fu_hi[sidx]
                    hint = cycle
                    if hi > lo:
                        hint = fu_busy[lo]
                        for u in range(lo + 1, hi):
                            if fu_busy[u] < hint:
                                hint = fu_busy[u]
                npark = _heap_push(
                    park_heap, npark,
                    ((hint if hint > cycle else next_cycle) << 32) | i)
                continue
            ws = i & wmask
            e_completion[ws] = completion
            chmode = r_chmode[gs]
            if chmode == 0:
                e_chain[ws] = completion
            elif chmode == 1:
                early = completion - vl + 1
                e_chain[ws] = early if early > next_cycle else next_cycle
            else:
                first = cycle + lat
                e_chain[ws] = completion if completion < first else first
            if kind == 2 and ctl_ring[gs] == 1:
                next_fetch_cycle = completion + redirect
            issued += 1
            rv = r_rel[gs]
            if rv != 0:
                nrel = _heap_push(rel_heap, nrel, (completion << 32) | rv)
            if waiting > 0:
                e = whead[ws]
                if e >= 0:
                    chain = e_chain[ws]
                    while e >= 0:
                        w = wedge_w[e]
                        waiting -= 1
                        wws = w & wmask
                        p = e_pending[wws] - 1
                        e_pending[wws] = p
                        if r_chains[w & gmask] != 0:
                            availw = chain
                        else:
                            availw = completion
                        if availw > e_base[wws]:
                            e_base[wws] = availw
                        if p == 0:
                            ready = e_base[wws]
                            if ready == next_cycle:
                                wnext[nwn] = w
                                nwn += 1
                            elif ready <= cycle:
                                # Unreachable (results land after `cycle`);
                                # kept for strict equivalence with Core.
                                niss = _heap_push(iss_heap, niss, w)
                            else:
                                nwake = _heap_push(wake_heap, nwake,
                                                   (ready << 32) | w)
                        nxt_e = wedge_next[e]
                        wedge_next[e] = efree
                        efree = e
                        e = nxt_e
                    whead[ws] = -1

        # --- dispatch: fetch queue -> ROB (rename + allocate) ---------------
        disp_before = disp_idx
        admission_blocked = False
        dlim = disp_idx + width
        if fetch_idx < dlim:
            dlim = fetch_idx
        rcap = committed + rob_size
        if rcap < dlim:
            dlim = rcap
        fail = 0
        while disp_idx < dlim:
            if disp_idx >= burst_end:
                v = bursts[bq_head & bqmask]
                bq_head += 1
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                break
            gs = disp_idx & gmask
            sm = r_has[gs]
            if sm != 0:
                blocked = False
                for p in range(4):
                    if ((sm >> p) & 1) != 0 and \
                            inflight[p] + c_chk[gs, p] > cfg[_C_LIM0 + p]:
                        blocked = True
                        break
                if not blocked and ((sm >> 4) & 1) != 0 and \
                        lsq_used + c_chk[gs, 4] > lsq_size:
                    blocked = True
                if blocked:
                    # Admission failed: LSQ-full breaks silently (a
                    # commit will free it); a register shortfall is a
                    # rename stall, exactly Core's check order.
                    admission_blocked = True
                    if r_kind[gs] == 1 and lsq_used >= lsq_size:
                        break
                    rename_stalls += 1
                    break
                inflight[0] += c_alloc[gs, 0]
                inflight[1] += c_alloc[gs, 1]
                inflight[2] += c_alloc[gs, 2]
                inflight[3] += c_alloc[gs, 3]
                lsq_used += c_alloc[gs, 4]
            i = disp_idx
            disp_idx += 1
            ws = i & wmask
            e_completion[ws] = _UNISSUED
            nd = r_ndep[gs]
            if nd == 0:
                wnext[nwn] = i          # ready at dispatch + 1
                nwn += 1
                continue
            pending = 0
            base = next_cycle
            chaining = r_chains[gs]
            for k in range(nd):
                j = r_dep[gs, k]
                if j >= committed:      # producer still in flight
                    js = j & wmask
                    c = e_completion[js]
                    if c != _UNISSUED:
                        availd = e_chain[js] if chaining != 0 else c
                        if availd > base:
                            base = availd
                    else:
                        if efree < 0:
                            fail = 1
                            break
                        e = efree
                        efree = wedge_next[e]
                        wedge_w[e] = i
                        wedge_next[e] = whead[js]
                        whead[js] = e
                        pending += 1
            if fail != 0:
                break
            if pending > 0:
                e_pending[ws] = pending
                e_base[ws] = base
                waiting += pending
            elif base == next_cycle:
                wnext[nwn] = i
                nwn += 1
            else:
                nwake = _heap_push(wake_heap, nwake, (base << 32) | i)
        if fail != 0:
            status = _ST_EDGES
            break

        # --- fetch: one group, stopping at the next taken branch ------------
        if cycle >= next_fetch_cycle:
            if fetch_idx < n:
                stop = fetch_idx + width
                if stop > n:
                    stop = n
                cap_stop = disp_idx + fqcap
                if stop > cap_stop:
                    stop = cap_stop
                if stop > fetch_idx:
                    if cp < npos and pos_idx[cp] < stop:
                        fetch_idx = pos_idx[cp] + 1
                        code = pos_code[cp]
                        cp += 1
                        if code == 1:
                            next_fetch_cycle = _FAR_FUTURE
                        elif code == 2:
                            next_fetch_cycle = next_cycle
                        else:
                            next_fetch_cycle = cycle + 2
                    else:
                        fetch_idx = stop
                    bursts[bq_tail & bqmask] = \
                        (fetch_idx << 32) | (cycle + front_latency)
                    bq_tail += 1
        elif fetch_idx < n:
            fetch_stalls += 1

        # --- account: same end-of-cycle classification as Core.run ----------
        # Head index is `committed`; dispatched-this-cycle is
        # `committed >= disp_before` (the dispatch_cycle test without a
        # per-entry field).
        if accounting != 0:
            if committed - cbase == width:
                st_base += 1
            elif committed < disp_idx:
                hcc = e_completion[committed & wmask]
                if hcc != _UNISSUED:
                    if r_kind[committed & gmask] == 1 and hcc > next_cycle:
                        st_meml += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_base += 1
                elif committed < disp_before:
                    if r_kind[committed & gmask] == 1:
                        st_memc += 1
                    elif admission_blocked:
                        st_rename += 1
                    else:
                        st_fu += 1
                elif admission_blocked:
                    st_rename += 1
                else:
                    st_base += 1
            elif fetch_idx >= n:
                st_drain += 1
            else:
                st_fetch += 1

        # --- horizon: first future cycle at which anything can happen -------
        if niss > 0 or nwn > 0:
            continue
        nxt = _NO_EVENT
        if committed < disp_idx:
            hc = e_completion[committed & wmask]
            if hc != _UNISSUED:
                nxt = hc if hc > cycle else next_cycle
        if npark > 0:
            retry = park_heap[0] >> 32
            if retry < nxt:
                nxt = retry
        if nwake > 0:
            ready = wake_heap[0] >> 32
            if ready <= cycle:
                ready = next_cycle
            if ready < nxt:
                nxt = ready
        rename_blocked = False
        lsq_blocked = False
        if disp_idx < fetch_idx and disp_idx - committed < rob_size:
            if disp_idx >= burst_end:
                v = bursts[bq_head & bqmask]
                bq_head += 1
                burst_end = v >> 32
                front_ready = v & _M32
            if front_ready > cycle:
                if front_ready < nxt:
                    nxt = front_ready
            else:
                gs = disp_idx & gmask
                sm = r_has[gs]
                blocked = False
                if sm != 0:
                    for p in range(4):
                        if ((sm >> p) & 1) != 0 and \
                                inflight[p] + c_chk[gs, p] > cfg[_C_LIM0 + p]:
                            blocked = True
                            break
                    if not blocked and ((sm >> 4) & 1) != 0 and \
                            lsq_used + c_chk[gs, 4] > lsq_size:
                        blocked = True
                if blocked:
                    if r_kind[gs] == 1 and lsq_used >= lsq_size:
                        # A commit frees the LSQ; commits are events.
                        lsq_blocked = True
                    else:
                        rename_blocked = True
                        if nrel > 0:
                            rel_at = rel_heap[0] >> 32
                            if rel_at < nxt:
                                nxt = rel_at
                elif next_cycle < nxt:
                    nxt = next_cycle
        if fetch_idx < n and fetch_idx - disp_idx < fqcap \
                and next_fetch_cycle != _FAR_FUTURE:
            fetch_at = next_fetch_cycle if next_fetch_cycle > cycle \
                else next_cycle
            if fetch_at < nxt:
                nxt = fetch_at
        if nxt >= _NO_EVENT:
            status = _ST_DEADLOCK
            break
        skipped = nxt - next_cycle
        if skipped > 0:
            if fetch_idx < n and next_fetch_cycle > next_cycle:
                stop = nxt if nxt < next_fetch_cycle else next_fetch_cycle
                fetch_stalls += stop - next_cycle
            if rename_blocked:
                rename_stalls += skipped
            if accounting != 0:
                # Frozen-state span replay of the per-cycle rules; the
                # only in-span transition is the head's memory completion
                # landing exactly on `nxt` (see Core.run).
                adm = rename_blocked or lsq_blocked
                if committed < disp_idx:
                    hcs = e_completion[committed & wmask]
                    if hcs != _UNISSUED:
                        if r_kind[committed & gmask] == 1:
                            st_meml += skipped
                            if hcs == nxt:
                                st_meml -= 1
                                if adm:
                                    st_rename += 1
                                else:
                                    st_base += 1
                        elif adm:
                            st_rename += skipped
                        else:
                            st_base += skipped
                    elif r_kind[committed & gmask] == 1:
                        st_memc += skipped
                    elif adm:
                        st_rename += skipped
                    else:
                        st_fu += skipped
                elif fetch_idx >= n:
                    st_drain += skipped
                else:
                    st_fetch += skipped
            cycle = nxt - 1     # the loop header re-increments

    regs[_R_CYCLE] = cycle
    regs[_R_COMMITTED] = committed
    regs[_R_DISP] = disp_idx
    regs[_R_FETCH] = fetch_idx
    regs[_R_NFC] = next_fetch_cycle
    regs[_R_FSTALL] = fetch_stalls
    regs[_R_RSTALL] = rename_stalls
    regs[_R_CP] = cp
    regs[_R_BURST_END] = burst_end
    regs[_R_FRONT_READY] = front_ready
    regs[_R_WAITING] = waiting
    regs[_R_LSQ] = lsq_used
    regs[_R_EFREE] = efree
    regs[_R_NREL] = nrel
    regs[_R_NWAKE] = nwake
    regs[_R_NPARK] = npark
    regs[_R_NISS] = niss
    regs[_R_NWNEXT] = nwn
    regs[_R_BQ_HEAD] = bq_head
    regs[_R_BQ_TAIL] = bq_tail
    regs[_R_PM_SCALAR] = pm_scalar
    regs[_R_PM_VECTOR] = pm_vector
    regs[_R_PM_ELEM] = pm_elem
    regs[_R_ST_BASE] = st_base
    regs[_R_ST_FETCH] = st_fetch
    regs[_R_ST_RENAME] = st_rename
    regs[_R_ST_FU] = st_fu
    regs[_R_ST_MEMC] = st_memc
    regs[_R_ST_MEML] = st_meml
    regs[_R_ST_DRAIN] = st_drain
    regs[_R_PM_ACCT_N] = pm_acct_n
    regs[_R_PM_ACCT_OCC] = pm_acct_occ
    return status


if _numba is not None:
    _heap_push = _numba.njit(cache=True)(_heap_push)
    _heap_pop = _numba.njit(cache=True)(_heap_pop)
    _step_lane = _numba.njit(cache=True)(_step_lane)


_warmed = False


def warm() -> None:
    """Compile the kernels once per process (idempotent, cheap if cached).

    A zero-length run exercises every signature the real driver uses;
    ``cache=True`` persists the machine code on disk, so only the first
    process on a host pays full compilation latency.
    """
    global _warmed
    if _warmed or _np is None:
        return
    _warmed = True
    i64 = _np.int64
    regs = _np.zeros(_NREGS, i64)
    cfg = _np.zeros(_NCFG, i64)
    cfg[_C_WIDTH] = 1
    cfg[_C_PM_PORTS] = 1
    cfg[_C_PM_SLOTS] = 1
    one = _np.zeros(1, i64)
    mat5 = _np.zeros((1, 5), i64)
    dep = _np.zeros((1, DEP_CAP), i64)
    _step_lane(regs, cfg, _np.zeros(4, i64), one.copy(), _np.zeros(6, i64),
               _np.zeros(6, i64), _np.ones(6, i64), one.copy(),
               one.copy(), one.copy(), one.copy(), one.copy(),
               _np.full(1, -1, i64), one.copy(), one.copy(),
               one.copy(), one.copy(), one.copy(), one.copy(), one.copy(),
               one.copy(),
               one.copy(), one.copy(), one.copy(), one.copy(), one.copy(),
               one.copy(), one.copy(), one.copy(), one.copy(), dep,
               mat5, mat5.copy(), mat5.copy(), one.copy(), one.copy(),
               one.copy(), one.copy(), one.copy(),
               0, 0, 0)


# --- conversion layer -------------------------------------------------------


def _unpack_charges(src, base, stop, out):
    """Unpack a SWAR charge ring span into an int64 ``[:, 5]`` matrix.

    Charge fields carry no bias and stay far below 2**15, so the low 64
    bits always fit a nonnegative int64.
    """
    m = stop - base
    lo = _np.fromiter((v & _M64 for v in src[base:stop]), _np.int64, m)
    hi = _np.fromiter((v >> 64 for v in src[base:stop]), _np.int64, m)
    out[base:stop, 0] = lo & 0xFFFF
    out[base:stop, 1] = (lo >> 16) & 0xFFFF
    out[base:stop, 2] = (lo >> 32) & 0xFFFF
    out[base:stop, 3] = (lo >> 48) & 0xFFFF
    out[base:stop, 4] = hi


def _pack_releases(src, base, stop, out):
    """Repack writeback-release charges (MED/ACC fields only) into
    ``MED << 16 | ACC`` so a heap entry fits ``cycle << 32 | charges``."""
    m = stop - base
    seg = _np.fromiter((v for v in src[base:stop]), _np.int64, m)
    out[base:stop] = (((seg >> 32) & 0xFFFF) << 16) | ((seg >> 48) & 0xFFFF)


def _presence_bits(v: int) -> int:
    """smask SWAR word -> per-pool presence bitmask (bit 4 = LSQ)."""
    return (((v >> 15) & 1) | ((v >> 30) & 2) | ((v >> 45) & 4)
            | ((v >> 60) & 8) | ((v >> 75) & 16))


class _CtlArrays:
    """numpy image of one ``_CtlState``'s ring + positional lists."""

    __slots__ = ("ring", "pos_idx", "pos_code", "npos")

    def __init__(self, size: int) -> None:
        self.ring = _np.zeros(size, _np.int64)
        self.pos_idx = _np.zeros(64, _np.int64)
        self.pos_code = _np.zeros(64, _np.int64)
        self.npos = 0

    def sync(self, st, base: int, stop: int) -> None:
        self.ring[base:stop] = st.ring[base:stop]
        tail = len(st.pos_idx)
        if tail > self.npos:
            if tail > len(self.pos_idx):
                cap = max(2 * len(self.pos_idx), tail)
                for name in ("pos_idx", "pos_code"):
                    grown = _np.zeros(cap, _np.int64)
                    old = getattr(self, name)
                    grown[:len(old)] = old
                    setattr(self, name, grown)
            self.pos_idx[self.npos:tail] = st.pos_idx[self.npos:tail]
            self.pos_code[self.npos:tail] = st.pos_code[self.npos:tail]
            self.npos = tail


class _Rings:
    """numpy images of the ``_SharedDecode`` rings, refreshed per block.

    Only the knob variants some lane in the batch actually selects are
    materialized; lanes with ``late_release=False`` read their releases
    from one shared all-zero ring.
    """

    def __init__(self, shared, specs) -> None:
        size = shared.size
        i64 = _np.int64
        self.r_kind = _np.zeros(size, i64)
        self.r_sidx = _np.zeros(size, i64)
        self.r_rows = _np.zeros(size, i64)
        self.r_nonpip = _np.zeros(size, i64)
        self.r_chmode = _np.zeros(size, i64)
        self.r_vl = _np.zeros(size, i64)
        self.r_chains = _np.zeros(size, i64)
        self.r_ndep = _np.zeros(size, i64)
        self.r_dep = _np.zeros((size, DEP_CAP), i64)
        self.lat_raw = _np.zeros(size, i64)
        self.lat_ac = _np.zeros(size, i64)
        self.chk = _np.zeros((size, 5), i64)
        self.zero_rel = _np.zeros(size, i64)
        alloc_names = set()
        commit_names = set()
        rel_names = set()
        has_names = set()
        ctl_keys = set()
        for spec in specs:
            z = "z" if spec.zero_idiom_elision else "raw"
            alloc_names.add(f"alloc_{z}")
            has_names.add(f"smask_{z}")
            if spec.late_release:
                commit_names.add(f"commit_if_{z}")
                rel_names.add(f"rel_{z}")
            else:
                commit_names.add(f"commit_full_{z}")
            cfg = spec.config
            ctl_keys.add((cfg.bimodal_entries, cfg.btb_entries))
        self.alloc = {k: _np.zeros((size, 5), i64) for k in alloc_names}
        self.commit = {k: _np.zeros((size, 5), i64) for k in commit_names}
        self.rel = {k: _np.zeros(size, i64) for k in rel_names}
        self.has = {k: _np.zeros(size, i64) for k in has_names}
        self.ctl = {k: _CtlArrays(size) for k in ctl_keys}

    def select(self, spec):
        """The (lat, alloc, chk, commit, rel, has) rings this lane reads."""
        z = "z" if spec.zero_idiom_elision else "raw"
        if spec.late_release:
            commit = self.commit[f"commit_if_{z}"]
            rel = self.rel[f"rel_{z}"]
        else:
            commit = self.commit[f"commit_full_{z}"]
            rel = self.zero_rel
        lat = self.lat_ac if spec.acc_chaining else self.lat_raw
        return (lat, self.alloc[f"alloc_{z}"], self.chk, commit, rel,
                self.has[f"smask_{z}"])

    def sync(self, shared, start: int, end: int) -> None:
        """Convert the just-decoded span ``[start, end)`` (ring-aligned,
        contiguous -- decode blocks never wrap)."""
        if start >= end:
            return
        base = start & shared.mask
        stop = base + (end - start)
        self._sync_ops(shared, base, stop)
        for name, out in self.alloc.items():
            _unpack_charges(getattr(shared, name), base, stop, out)
        for name, out in self.commit.items():
            _unpack_charges(getattr(shared, name), base, stop, out)
        _unpack_charges(shared.chk, base, stop, self.chk)
        for name, out in self.rel.items():
            _pack_releases(getattr(shared, name), base, stop, out)
        for name, out in self.has.items():
            src = getattr(shared, name)
            for s in range(base, stop):
                out[s] = _presence_bits(src[s])
        for key, ca in self.ctl.items():
            ca.sync(shared.ctl[key], base, stop)

    def _sync_ops(self, shared, base: int, stop: int) -> None:
        op_raw = shared.op_raw
        op_ac = shared.op_ac
        deps = shared.deps
        chains = shared.chains
        m = stop - base
        kind_l = [0] * m
        sidx_l = [0] * m
        rows_l = [1] * m
        latr_l = [0] * m
        lata_l = [0] * m
        nonpip_l = [0] * m
        chmode_l = [0] * m
        vl_l = [1] * m
        chains_l = [0] * m
        ndep_l = [0] * m
        r_dep = self.r_dep
        for k in range(m):
            s = base + k
            op = op_raw[s]
            if type(op) is int:
                # single-row pipelined compute: kind 0, rows 1, chmode 0
                sidx_l[k] = op & 7
                lat = op >> 3
                latr_l[k] = lat
                lata_l[k] = lat
            else:
                kind_l[k] = op[0]
                sidx_l[k] = op[1]
                rows_l[k] = op[3]
                latr_l[k] = op[4]
                if op[5]:
                    nonpip_l[k] = 1
                chmode_l[k] = op[6]
                vl_l[k] = op[7]
                lata_l[k] = op_ac[s][4]
            if chains[s]:
                chains_l[k] = 1
            d = deps[s]
            if d is not None:
                nd = len(d)
                if nd > DEP_CAP:
                    raise UnjittableError(
                        f"record carries {nd} producer edges "
                        f"(kernel cap {DEP_CAP})")
                ndep_l[k] = nd
                for x in range(nd):
                    r_dep[s, x] = d[x]
        self.r_kind[base:stop] = kind_l
        self.r_sidx[base:stop] = sidx_l
        self.r_rows[base:stop] = rows_l
        self.lat_raw[base:stop] = latr_l
        self.lat_ac[base:stop] = lata_l
        self.r_nonpip[base:stop] = nonpip_l
        self.r_chmode[base:stop] = chmode_l
        self.r_vl[base:stop] = vl_l
        self.r_chains[base:stop] = chains_l
        self.r_ndep[base:stop] = ndep_l


# --- per-lane typed state ---------------------------------------------------


class _JitLane:
    """Preallocated kernel state for one lane."""

    __slots__ = ("spec", "index", "width", "ctl_key", "regs", "cfg",
                 "inflight", "fu_busy", "fu_lo", "fu_hi", "fu_lanes",
                 "pm_busy", "e_completion", "e_chain", "e_pending",
                 "e_base", "whead", "wedge_w", "wedge_next", "rel_heap",
                 "wake_heap", "park_heap", "iss_heap", "wnext", "bursts")

    def __init__(self, spec, index: int, gmask: int) -> None:
        cfg = spec.config
        i64 = _np.int64
        self.spec = spec
        self.index = index
        self.width = cfg.width
        self.ctl_key = (cfg.bimodal_entries, cfg.btb_entries)

        need = cfg.rob_size + 2 * cfg.width
        window = 1 << (need - 1).bit_length()
        wcap = 2 * window + 2
        edges = window * DEP_CAP

        self.regs = _np.zeros(_NREGS, i64)
        self.inflight = _np.zeros(4, i64)

        # FU pools flattened [int | fp | med], simple units first inside
        # each family -- the exact order FuPool scans, so first-free-wins
        # (and the park hint's min over the same subrange) matches.
        fus = (cfg.int_units, cfg.fp_units, cfg.med_units)
        totals = [f.total for f in fus]
        offsets = [0, totals[0], totals[0] + totals[1]]
        self.fu_busy = _np.zeros(max(1, sum(totals)), i64)
        lo, hi = [], []
        for fam in range(3):
            lo += [offsets[fam], offsets[fam] + fus[fam].simple]
            hi += [offsets[fam] + totals[fam]] * 2
        self.fu_lo = _np.array(lo, i64)
        self.fu_hi = _np.array(hi, i64)
        self.fu_lanes = _np.array([1, 1, 1, 1, cfg.med_lanes,
                                   cfg.med_lanes], i64)

        pm = spec.memsys
        portset = pm.portset
        self.pm_busy = _np.array(portset.busy_until, dtype=i64)
        regs = self.regs
        regs[_R_PM_SCALAR] = portset.scalar_accesses
        regs[_R_PM_VECTOR] = portset.vector_accesses
        regs[_R_PM_ELEM] = portset.element_accesses
        regs[_R_PM_ACCT_N] = pm.acct_accesses
        regs[_R_PM_ACCT_OCC] = pm.acct_occupancy

        self.e_completion = _np.zeros(window, i64)
        self.e_chain = _np.zeros(window, i64)
        self.e_pending = _np.zeros(window, i64)
        self.e_base = _np.zeros(window, i64)
        self.whead = _np.full(window, -1, i64)
        self.wedge_w = _np.zeros(edges, i64)
        self.wedge_next = _np.arange(1, edges + 1, dtype=i64)
        self.wedge_next[edges - 1] = -1
        self.rel_heap = _np.zeros(wcap, i64)
        self.wake_heap = _np.zeros(wcap, i64)
        self.park_heap = _np.zeros(wcap, i64)
        self.iss_heap = _np.zeros(wcap, i64)
        self.wnext = _np.zeros(wcap, i64)
        bqcap = 1 << (4 * cfg.width - 1).bit_length()
        self.bursts = _np.zeros(bqcap, i64)

        c = _np.zeros(_NCFG, i64)
        c[_C_WIDTH] = cfg.width
        c[_C_ROB] = cfg.rob_size
        c[_C_LSQ] = cfg.lsq_size
        c[_C_FRONT] = cfg.front_latency
        c[_C_FQCAP] = 2 * cfg.width
        c[_C_REDIRECT] = Core.MISPREDICT_REDIRECT
        c[_C_GMASK] = gmask
        c[_C_WMASK] = window - 1
        c[_C_BQMASK] = bqcap - 1
        c[_C_PM_LAT] = pm.latency
        c[_C_PM_PORTS] = portset.ports
        c[_C_PM_SLOTS] = portset.ports * portset.port_width
        for pool in RegPool:
            c[_C_LIM0 + int(pool)] = cfg.phys_limit(pool)
        c[_C_ACCT] = 1 if spec.accounting else 0
        self.cfg = c

    def step(self, rings: _Rings, n: int, avail: int) -> int:
        aw = n if avail >= n else avail - self.width
        ca = rings.ctl[self.ctl_key]
        lat, alloc, chk, commit, rel, has = rings.select(self.spec)
        return _step_lane(
            self.regs, self.cfg, self.inflight, self.fu_busy, self.fu_lo,
            self.fu_hi, self.fu_lanes, self.pm_busy,
            self.e_completion, self.e_chain, self.e_pending, self.e_base,
            self.whead, self.wedge_w, self.wedge_next,
            self.rel_heap, self.wake_heap, self.park_heap, self.iss_heap,
            self.wnext, self.bursts,
            rings.r_kind, rings.r_sidx, rings.r_rows, lat, rings.r_nonpip,
            rings.r_chmode, rings.r_vl, rings.r_chains,
            rings.r_ndep, rings.r_dep,
            alloc, chk, commit, rel, has,
            ca.ring, ca.pos_idx, ca.pos_code,
            n, aw, ca.npos)

    def finish(self) -> dict:
        """Write the buffered memory-model state back and report stats.

        Called only after *every* lane of the run completed, so a failed
        run (``UnjittableError`` fallback) leaves the caller-owned
        memory systems untouched for the interpreted re-run.
        """
        regs = self.regs
        pm = self.spec.memsys
        portset = pm.portset
        portset.busy_until[:] = [int(v) for v in self.pm_busy]
        portset.scalar_accesses = int(regs[_R_PM_SCALAR])
        portset.vector_accesses = int(regs[_R_PM_VECTOR])
        portset.element_accesses = int(regs[_R_PM_ELEM])
        pm.acct_accesses = int(regs[_R_PM_ACCT_N])
        pm.acct_occupancy = int(regs[_R_PM_ACCT_OCC])
        stats = {
            "cycles": int(regs[_R_CYCLE]),
            "fetch_stalls": int(regs[_R_FSTALL]),
            "rename_stalls": int(regs[_R_RSTALL]),
        }
        if self.spec.accounting:
            stats["stack"] = {
                "base": int(regs[_R_ST_BASE]),
                "fetch": int(regs[_R_ST_FETCH]),
                "rename": int(regs[_R_ST_RENAME]),
                "fu_structural": int(regs[_R_ST_FU]),
                "mem_conflict": int(regs[_R_ST_MEMC]),
                "mem_latency": int(regs[_R_ST_MEML]),
                "drain": int(regs[_R_ST_DRAIN]),
            }
        return stats


# --- driver -----------------------------------------------------------------


def run_lanes_jit(specs, trace, *, block: int | None = None,
                  ring: int | None = None,
                  phases: dict | None = None) -> list:
    """Run every lane through the kernel; one stats dict per lane.

    Same columnar shared decode, decode-block cadence and ring-retention
    invariant as :meth:`BatchCore.run`; raises :class:`UnjittableError`
    when any lane (or the trace) cannot be expressed, *before* any
    caller-visible state is mutated.

    ``phases``, when given, accumulates decode/step/writeback wall-clock
    seconds, timed once per decode block (65536 records by default) —
    decode covers ring construction + ``decode_block``/``rings.sync``,
    step the lane kernel calls, writeback the ``finish`` readback.
    """
    from .batch import BatchCore, _SharedDecode

    for spec in specs:
        reason = lane_unjittable_reason(spec)
        if reason is not None:
            raise UnjittableError(reason)
    n = len(trace)
    if n >= 1 << 31:
        raise UnjittableError("trace too long for packed int64 indices")
    if n == 0:
        out = []
        for spec in specs:
            s = {"cycles": 0, "fetch_stalls": 0, "rename_stalls": 0,
                 "ctl": None}
            if spec.accounting:
                s["stack"] = {name: 0 for name in
                              ("base", "fetch", "rename", "fu_structural",
                               "mem_conflict", "mem_latency", "drain")}
            out.append(s)
        return out

    if block is None:
        block = BatchCore.BLOCK
    if ring is None:
        ring = BatchCore.RING

    _pc = _time.perf_counter
    _decode_t = 0.0
    _step_t = 0.0
    _t = _pc()
    warm()
    dep_cap = max(spec.config.rob_size for spec in specs)
    ctl_classes = {(spec.config.bimodal_entries, spec.config.btb_entries)
                   for spec in specs}
    # Every jit lane is on perfect memory, which never reads a DynInstr.
    shared = _SharedDecode(trace, dep_cap, ctl_classes, block, ring,
                           instrs=False)
    rings = _Rings(shared, specs)
    lanes = [_JitLane(spec, i, shared.mask) for i, spec in enumerate(specs)]
    _decode_t += _pc() - _t

    active = list(lanes)
    converted = 0
    while active:
        if shared.avail < n:
            if shared.avail >= shared.size:
                # About to overwrite the oldest ring block: every lane
                # must have retired past it (same invariant, and the
                # same safety net, as BatchCore.run).
                m = min(block, n - shared.avail)
                floor = shared.avail + m - shared.size
                cmin = min(int(lane.regs[_R_COMMITTED]) for lane in active)
                if cmin < floor:
                    raise RuntimeError(
                        "jit ring retention violated: lane committed "
                        f"{cmin} < floor {floor}")
            _t = _pc()
            shared.decode_block()
            rings.sync(shared, converted, shared.avail)
            converted = shared.avail
            _decode_t += _pc() - _t
        _t = _pc()
        still = []
        for lane in active:
            status = lane.step(rings, n, shared.avail)
            if status == _ST_PAUSED:
                still.append(lane)
            elif status == _ST_DONE:
                pass
            elif status == _ST_OVERFLOW:
                raise UnjittableError(
                    "cycle count overflows the packed int64 heap entries")
            elif status == _ST_EDGES:
                raise UnjittableError("waiter-edge pool exhausted")
            else:
                regs = lane.regs
                raise RuntimeError(
                    "jit lane deadlocked with no pending event "
                    f"(lane {lane.index}, cycle {int(regs[_R_CYCLE])}, "
                    f"{int(regs[_R_COMMITTED])}/{n})")
        active = still
        _step_t += _pc() - _t

    _t = _pc()
    stats = []
    for lane in lanes:
        s = lane.finish()
        s["ctl"] = shared.ctl[lane.ctl_key]
        stats.append(s)
    if phases is not None:
        phases["decode"] = phases.get("decode", 0.0) + _decode_t
        phases["step"] = phases.get("step", 0.0) + _step_t
        phases["writeback"] = (phases.get("writeback", 0.0)
                               + _pc() - _t)
    return stats
