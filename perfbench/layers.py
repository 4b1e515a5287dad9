"""In-memory span recorder for traced runs.

A traced run wraps the public entry points of each layer -- nothing in
``repro`` changes -- and keeps one span per call in a list: name, start,
end and the index of the enclosing span.  Self time is a span's duration
minus its children's, so the self times of all spans under one root add
up to the root's duration exactly; whatever no wrapper covers lands in
the root's own self time (``bench.self_s``).

Wrapped entry points and the layer names they report under:

=====================================================  ================
``Session.run``                                         ``exp.session``
``engine.built_kernel`` / ``engine.built_app``          ``emulib.build``
``Core.run`` / ``BatchCore.run``                        ``cpu.sim``
``ResultCache.get`` / ``ResultCache.put``               ``exp.cache.*``
``SimResult.to_dict`` / ``SimResult.from_dict``         ``exp.codec``
=====================================================  ================

``cpu.sim`` self time is split further by the ``phases`` dict the engine
passes to every ``run`` call (decode / step / writeback); the remainder
is ``cpu.other_s``.
"""

from __future__ import annotations

import functools
import time

from common import peak_rss_mb

_clock = time.perf_counter


class Recorder:
    """Spans and counters of one traced region (see module docstring)."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = {}
        self.active = False
        self._stack: list[int] = []
        self._traces: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name: str, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, _clock(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = _clock()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self._wrap(raw.__func__, name, after)))
        else:
            setattr(owner, attr, self._wrap(raw, name, after))

    def root(self, name: str = "bench.iteration"):
        """Context manager: the root span of one timed iteration."""
        recorder = self

        class _Root:
            def __enter__(self):
                recorder._stack.append(len(recorder.spans))
                recorder.spans.append([name, _clock(), None, None])
                recorder.active = True
                return self

            def __exit__(self, *exc):
                recorder.spans[recorder._stack.pop()][2] = _clock()
                recorder.active = False
        return _Root()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # --- the layers ---------------------------------------------------------

    def install(self) -> "Recorder":
        """Wrap every layer entry point listed in the module docstring."""
        from repro.cpu.batch import BatchCore
        from repro.cpu.core import Core, SimResult
        from repro.exp import engine
        from repro.exp.cache import ResultCache

        def built(result, args, kwargs):
            trace = result.trace
            if id(trace) not in self._traces:      # memo hits build nothing
                self._traces.add(id(trace))
                self.add("emulib.instr", len(trace))
                self.add("emulib.trace_bytes", trace.storage_bytes())
            self.counts["emulib.peak_rss_mb"] = peak_rss_mb()

        def simulated(result, args, kwargs):
            # A run nested in another (one engine delegating to the other)
            # shares its caller's phases; count them and the run once.
            if any(self.spans[i][0] == "cpu.sim" for i in self._stack):
                return
            for phase, seconds in (kwargs.get("phases") or {}).items():
                self.add(f"cpu.{phase}_s", seconds)
            self.add("cpu.runs", 1)
            self.counts["cpu.peak_rss_mb"] = peak_rss_mb()

        def got(result, args, kwargs):
            self.add("exp.cache.gets", 1)
            self.add("exp.cache.hits", result is not None)

        def put(result, args, kwargs):
            self.add("exp.cache.puts", 1)

        self.patch(engine.Session, "run", "exp.session")
        self.patch(engine, "built_kernel", "emulib.build", built)
        self.patch(engine, "built_app", "emulib.build", built)
        self.patch(Core, "run", "cpu.sim", simulated)
        self.patch(BatchCore, "run", "cpu.sim", simulated)
        self.patch(ResultCache, "get", "exp.cache.get", got)
        self.patch(ResultCache, "put", "exp.cache.put", put)
        self.patch(SimResult, "to_dict", "exp.codec")
        self.patch(SimResult, "from_dict", "exp.codec")
        return self

    # --- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over every finished span."""
        children = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) \
                - children[index]
        return totals

    def roots_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent in self.spans
                   if parent is None)

    def layer_report(self) -> dict[str, float]:
        """Self time per layer plus the counters, as reported metrics.

        The ``*_s`` entries other than ``setup.*`` partition the traced
        wall time: their sum equals ``trace.wall_s`` up to float rounding.
        """
        selfs = self.self_times()
        counts = self.counts
        phases = sum(counts.get(f"cpu.{p}_s", 0.0)
                     for p in ("decode", "step", "writeback"))
        report = {
            "bench.self_s": selfs.get("bench.iteration", 0.0),
            "exp.session_self_s": selfs.get("exp.session", 0.0),
            "emulib.build_s": selfs.get("emulib.build", 0.0),
            "cpu.decode_s": counts.get("cpu.decode_s", 0.0),
            "cpu.step_s": counts.get("cpu.step_s", 0.0),
            "cpu.writeback_s": counts.get("cpu.writeback_s", 0.0),
            "cpu.other_s": selfs.get("cpu.sim", 0.0) - phases,
            "exp.cache.get_s": selfs.get("exp.cache.get", 0.0),
            "exp.cache.put_s": selfs.get("exp.cache.put", 0.0),
            "exp.codec_s": selfs.get("exp.codec", 0.0),
        }
        report["trace.wall_s"] = self.roots_seconds()
        for key in ("emulib.instr", "cpu.runs", "exp.cache.gets",
                    "exp.cache.hits", "exp.cache.puts"):
            report[key] = counts.get(key, 0)
        report["emulib.trace_mb"] = counts.get("emulib.trace_bytes", 0) / 2**20
        report["emulib.peak_rss_mb"] = counts.get("emulib.peak_rss_mb", 0.0)
        report["cpu.peak_rss_mb"] = counts.get("cpu.peak_rss_mb", 0.0)
        return report


#: Layer self-time entries of :meth:`Recorder.layer_report` that together
#: partition the traced wall time.
SELF_KEYS = ("bench.self_s", "exp.session_self_s", "emulib.build_s",
             "cpu.decode_s", "cpu.step_s", "cpu.writeback_s", "cpu.other_s",
             "exp.cache.get_s", "exp.cache.put_s", "exp.codec_s")
