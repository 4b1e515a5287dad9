"""Tests for the unified experiment engine (specs, cache, sessions, CLI)."""

import io
import json
import re
import sys

import pytest

from repro.cpu import SimResult
from repro.emulib.fingerprint import source_fingerprint, trace_digest
from repro.exp import PointSpec, ResultCache, Session, SweepSpec, preset
from repro.exp.engine import built_kernel, execute_group
from repro.exp.spec import PRESETS


KERNEL_POINT = dict(kind="kernel", target="addblock", isa="mom", way=4)


# --- PointSpec ----------------------------------------------------------------

def test_pointspec_is_frozen_and_hashable():
    a = PointSpec(**KERNEL_POINT)
    b = PointSpec(**KERNEL_POINT)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.way = 8


def test_pointspec_content_hash_stability():
    """The cache key is derived from canonical JSON, not ``hash()``, so it
    must be identical across equal instances and payload round-trips."""
    a = PointSpec(**KERNEL_POINT)
    b = PointSpec.from_payload(json.loads(json.dumps(a.payload())))
    assert a.content_hash() == b.content_hash()
    assert a.content_hash("s1") == b.content_hash("s1")
    assert a.content_hash("s1") != a.content_hash("s2")
    changed = PointSpec(**{**KERNEL_POINT, "way": 8})
    assert changed.content_hash() != a.content_hash()


def test_pointspec_content_hash_is_pinned():
    """Every cached result is filed under its content hash, so a key that
    changes silently orphans every user's result cache: the keys are
    pinned literals, not compared with a second hash of the same point."""
    assert PointSpec("kernel", "idct", "mmx", 2).content_hash() \
        == "83b0b0b74e3b02e78f6ecaf05f8d40fe"
    assert PointSpec("kernel", "idct", "mom", 4,
                     accounting=True).content_hash("s1") \
        == "4526cd4737e94cb12aacd4c32320ff57"
    assert PointSpec("app", "mpeg2_encode", "alpha", 4, 1, "conventional",
                     5).content_hash("x") \
        == "82413b93bffb51b92dfd588c7d936727"


def test_pointspec_payload_is_asdict_without_false_accounting():
    """``payload()`` builds its dict field by field; it must equal the
    dataclass image (same keys, order and values) minus ``accounting``
    when that is false, over every preset the figures use."""
    from dataclasses import asdict

    points = [point for name in ("figure5", "figure7", "latency",
                                 "frame-scale", "vc-kernels")
              for point in preset(name).points()]
    points.append(PointSpec("kernel", "idct", "mom", 4, accounting=True))
    for point in points:
        expected = asdict(point)
        if not expected["accounting"]:
            del expected["accounting"]
        payload = point.payload()
        assert list(payload.items()) == list(expected.items()), point


def test_pointspec_validation():
    with pytest.raises(ValueError):
        PointSpec(kind="nope", target="addblock", isa="mom", way=4)
    with pytest.raises(ValueError):
        PointSpec(**{**KERNEL_POINT, "way": 3})
    with pytest.raises(ValueError):
        PointSpec(**{**KERNEL_POINT, "memory": "imaginary"})
    with pytest.raises(ValueError):
        PointSpec(**{**KERNEL_POINT, "latency": 0})


# --- SweepSpec and presets -----------------------------------------------------

def test_sweep_cartesian_product():
    sweep = SweepSpec(name="t", kind="kernel", targets=("addblock", "idct"),
                      isas=("alpha", "mom"), ways=(1, 4), latencies=(1, 50))
    points = sweep.points()
    assert len(points) == 2 * 2 * 2 * 2
    assert len(set(points)) == len(points)
    assert all(p.kind == "kernel" for p in points)


def test_sweep_pairs_override_product():
    sweep = SweepSpec(name="t", kind="app", targets=("jpeg_encode",),
                      ways=(4,), pairs=(("alpha", "conventional"),
                                        ("mom", "vectorcache")))
    points = sweep.points()
    assert [(p.isa, p.memory) for p in points] == [
        ("alpha", "conventional"), ("mom", "vectorcache")]


def test_presets_cover_the_paper():
    assert {"figure5", "figure7", "latency", "fetch-pressure",
            "table1", "frame-scale"} <= set(PRESETS)
    fig5 = preset("figure5")
    assert len(fig5.points()) == 8 * 4 * 4          # kernels x isas x ways
    fig7 = preset("figure7")
    assert len(fig7.points()) == 5 * 2 * 5          # apps x ways x configs
    assert all(p.kind == "app" for p in fig7.points())
    with pytest.raises(KeyError):
        preset("figure99")


def test_frame_scale_preset_runs_one_config_per_figure7_isa():
    frame = preset("frame-scale")
    points = frame.points()
    assert [(p.isa, p.memory) for p in points] == [
        ("alpha", "conventional"), ("mmx", "conventional"),
        ("mom", "vectorcache")]
    assert all(p.kind == "app" and p.target == "mpeg2_frame"
               and p.way == 4 for p in points)
    # The target exists in the registry but stays out of the Figure 7 grid.
    from repro.apps import APP_ORDER, APPS
    assert "mpeg2_frame" in APPS and "mpeg2_frame" not in APP_ORDER


def test_preset_replace_narrows_targets():
    sweep = preset("figure5").replace(targets=("idct",))
    assert len(sweep.points()) == 4 * 4
    assert {p.target for p in sweep.points()} == {"idct"}


# --- SimResult serialization ----------------------------------------------------

def test_simresult_roundtrip():
    result = execute_group([PointSpec(**KERNEL_POINT)])[0]
    clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert clone == result
    assert clone.ipc == result.ipc


def test_simresult_from_dict_ignores_unknown_keys():
    """Cache entries written by a newer schema must degrade gracefully."""
    data = SimResult(cycles=10, instructions=5, operations=5).to_dict()
    data["a_future_field"] = {"nested": True}
    clone = SimResult.from_dict(data)
    assert (clone.cycles, clone.instructions) == (10, 5)


def test_simresult_meta_excluded_from_equality():
    """Wall-clock metadata must not break result comparisons or caching."""
    a = SimResult(cycles=10, instructions=5, operations=5,
                  meta={"sim_seconds": 0.25})
    b = SimResult(cycles=10, instructions=5, operations=5)
    assert a == b
    assert SimResult.from_dict(a.to_dict()).meta == {"sim_seconds": 0.25}


def test_execute_group_records_wall_clock_meta():
    result = execute_group([PointSpec(**KERNEL_POINT)])[0]
    assert result.meta["sim_seconds"] >= 0
    assert result.meta["sim_instructions_per_second"] > 0


# --- ResultCache ----------------------------------------------------------------

def test_result_cache_put_get_clear(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get("k") is None
    cache.put("k", {"result": {"cycles": 1}})
    assert "k" in cache
    assert cache.get("k")["result"] == {"cycles": 1}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("k") is None


def test_result_cache_ignores_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", {"result": {}})
    (tmp_path / "k.json").write_text("{not json")
    assert cache.get("k") is None
    (tmp_path / "k.json").write_text("[1, 2]")         # valid JSON, not a dict
    assert cache.get("k") is None
    (tmp_path / "k.json").write_bytes(b"\xff\xfe\x00") # not UTF-8
    assert cache.get("k") is None


def test_result_cache_clear_sweeps_tmp_orphans(tmp_path):
    import os
    import time

    cache = ResultCache(tmp_path)
    cache.put("k", {"result": {}})
    orphan = tmp_path / "orphan123.tmp"
    orphan.write_text("partial write")
    # A *young* temp file may belong to a live writer mid-atomic-rename
    # (clear() honours the same TMP_GRACE_SECONDS window as prune()); an
    # aged orphan from a crashed writer is swept.
    assert cache.clear() == 1
    assert orphan.exists()
    past = time.time() - 3600
    os.utime(orphan, (past, past))
    assert cache.clear() == 0
    assert not list(tmp_path.iterdir())


def test_result_cache_crash_mid_write_leaves_no_torn_entry(tmp_path,
                                                           monkeypatch):
    """A writer dying mid-``put`` must never corrupt the published entry.

    The atomic write protocol (temp file + ``os.replace``) means the
    entry file either holds the complete old record or the complete new
    one; the half-written bytes only ever live in a ``*.tmp`` file that
    readers ignore and ``clear`` sweeps.
    """
    cache = ResultCache(tmp_path)
    cache.put("k", {"result": {"cycles": 1}})

    def dies_mid_write(obj, fh, **kwargs):
        fh.write('{"version": 1, "result": {"cyc')       # torn JSON
        fh.flush()
        raise KeyboardInterrupt("writer killed mid-write")

    monkeypatch.setattr(json, "dump", dies_mid_write)
    with pytest.raises(KeyboardInterrupt):
        cache.put("k", {"result": {"cycles": 2}})
    monkeypatch.undo()

    # The old entry is fully intact and is the only entry on disk.
    assert cache.get("k")["result"] == {"cycles": 1}
    assert [p.name for p in cache.entries()] == ["k.json"]

    # Even a hard kill (no chance to unlink the temp file) leaves only a
    # *.tmp orphan, which is never visible as an entry and never parsed.
    (tmp_path / "killed456.tmp").write_text('{"version": 1, "result')
    assert cache.get("killed456") is None
    assert [p.name for p in cache.entries()] == ["k.json"]


# --- Session: hit/miss accounting and invalidation ------------------------------

def test_session_cache_hit_and_miss(tmp_path):
    point = PointSpec(**KERNEL_POINT)
    s1 = Session(tmp_path, salt="s1")
    first = s1.run_point(point)
    assert (s1.hits, s1.misses) == (0, 1)
    second = s1.run_point(point)
    assert (s1.hits, s1.misses) == (1, 1)
    assert first == second

    # A fresh session over the same directory hits the *persistent* layer.
    s2 = Session(tmp_path, salt="s1")
    assert s2.run_point(point) == first
    assert (s2.hits, s2.misses) == (1, 0)


def test_session_salt_change_invalidates(tmp_path):
    point = PointSpec(**KERNEL_POINT)
    Session(tmp_path, salt="s1").run_point(point)
    bumped = Session(tmp_path, salt="s2")
    bumped.run_point(point)
    assert bumped.misses == 1, "a salt change must invalidate old entries"


def test_session_use_cache_false_still_memoizes(tmp_path):
    point = PointSpec(**KERNEL_POINT)
    session = Session(tmp_path, salt="x", use_cache=False)
    session.run_point(point)
    session.run_point(point)
    assert session.cache is None
    assert (session.hits, session.misses) == (1, 1)
    assert not list(tmp_path.glob("*.json"))


def test_key_for_hashes_each_point_once(monkeypatch, tmp_path):
    """``key_for`` is the point's ``content_hash`` under the session's
    salt, hashed once per point for the session's life: an equal point
    built again reads the same key, and another salt another key."""
    session = Session(tmp_path, salt="s")
    point = PointSpec(**KERNEL_POINT)
    other = PointSpec(**{**KERNEL_POINT, "way": 8})
    want = {p: p.content_hash("s") for p in (point, other)}
    calls = []
    real = PointSpec.content_hash
    monkeypatch.setattr(PointSpec, "content_hash",
                        lambda self, salt="": calls.append(self)
                        or real(self, salt))
    for _ in range(3):
        assert session.key_for(point) == want[point]
        assert session.key_for(PointSpec(**KERNEL_POINT)) == want[point]
        assert session.key_for(other) == want[other]
    assert calls == [point, other]
    assert Session(tmp_path, salt="t").key_for(point) == real(point, "t") \
        != want[point]


def test_cache_replay_marks_meta_cache_hit(tmp_path):
    """Disk replays carry ``meta["cache_hit"]``; fresh runs never do."""
    point = PointSpec(**KERNEL_POINT)
    s1 = Session(tmp_path, salt="s")
    fresh = s1.run_point(point)
    assert "cache_hit" not in fresh.meta
    # A memo replay in the same session is still this process's own
    # measurement; only the *persistent* layer marks the result.
    assert "cache_hit" not in s1.run_point(point).meta

    s2 = Session(tmp_path, salt="s")
    replay = s2.run_point(point)
    assert replay.meta["cache_hit"] is True
    assert replay == fresh        # meta is excluded from equality
    assert replay.meta["sim_seconds"] == fresh.meta["sim_seconds"]

    # Re-storing a replayed result never persists the marker itself.
    s2.store(point, replay)
    entry = s2.cache.get(s2.key_for(point))
    assert "cache_hit" not in entry["result"]["meta"]
    assert Session(tmp_path, salt="s").run_point(point).meta["cache_hit"] \
        is True


def test_default_salt_is_source_fingerprint():
    assert Session(use_cache=False).salt == source_fingerprint()
    assert len(source_fingerprint()) == 16


# --- Session: parallel execution parity ------------------------------------------

SMALL_SWEEP = SweepSpec(name="parity", kind="kernel", targets=("addblock",),
                        isas=("alpha", "mom"), ways=(1, 4))


def test_jobs_parallel_matches_sequential(tmp_path):
    seq = Session(tmp_path / "a", salt="x").run(SMALL_SWEEP, jobs=1)
    par = Session(tmp_path / "b", salt="x").run(SMALL_SWEEP, jobs=2)
    assert list(seq) == list(par)
    for point in seq:
        assert seq[point] == par[point], point


def test_parallel_results_are_cached(tmp_path):
    session = Session(tmp_path, salt="x")
    session.run(SMALL_SWEEP, jobs=2)
    warm = Session(tmp_path, salt="x")
    warm.run(SMALL_SWEEP, jobs=1)
    assert warm.misses == 0
    assert warm.hits == len(SMALL_SWEEP.points())


def test_run_accepts_point_iterables(tmp_path):
    point = PointSpec(**KERNEL_POINT)
    session = Session(tmp_path, salt="x")
    results = session.run([point, point])
    assert list(results) == [point]
    assert results[point].cycles > 0
    # Repeats are dropped before grouping, so no batch holds two copies
    # of one point: [p, p, q] on one trace is a single two-lane group.
    other = PointSpec(**{**KERNEL_POINT, "way": 8})
    results = Session(tmp_path, salt="y").run([point, point, other])
    assert list(results) == [point, other]
    assert [r.meta["batch_lanes"] for r in results.values()] == [2, 2]


# --- Session: batch-lane grouping -------------------------------------------------

BATCH_SWEEP = SweepSpec(name="batchy", kind="kernel", targets=("addblock",),
                        isas=("alpha", "mom"), ways=(1, 2, 4))


def test_batch_meta_records_lanes_and_group(tmp_path):
    session = Session(tmp_path, salt="x")
    results = session.run(BATCH_SWEEP)
    for point, result in results.items():
        # Each (kernel, isa) build is one lane group of all three ways.
        assert result.meta["batch_lanes"] == 3, point
        assert result.meta["batch_group"] == \
            f"kernel-{point.target}-{point.isa}-1"
        assert result.meta["sim_seconds"] > 0


def test_singleton_group_skips_batching(tmp_path):
    """A lone point runs as a one-lane pass: the same meta as any group,
    with a measured (not estimated) ``sim_seconds``."""
    session = Session(tmp_path, salt="x")
    meta = session.run_point(PointSpec(**KERNEL_POINT)).meta
    assert meta["batch_lanes"] == 1
    assert meta["batch_group"] == "kernel-addblock-mom-1"
    assert meta["sim_seconds_estimated"] is False
    assert meta["sim_seconds"] == meta["batch_group_seconds"]
    assert meta["sim_instructions_per_second"] > 0
    assert {"decode", "step", "writeback"} <= set(meta["phases"])
    assert "batch_seconds" not in meta


def test_jobs_parallel_batched_matches_sequential(tmp_path):
    seq = Session(tmp_path / "a", salt="x").run(BATCH_SWEEP, jobs=1)
    par = Session(tmp_path / "b", salt="x").run(BATCH_SWEEP, jobs=2)
    for point in seq:
        assert seq[point] == par[point], point
    for result in par.values():
        assert result.meta["batch_lanes"] == 3


#: One trace, sixteen configurations: with ``jobs=2`` the even share is
#: eight points, so the group is cut into two eight-lane tasks.
ONE_TRACE_SWEEP = SweepSpec(name="one-trace", kind="kernel",
                            targets=("addblock",), isas=("mom",),
                            ways=(1, 2, 4, 8), latencies=(1, 2, 3, 50))


def test_jobs_split_one_trace_into_even_lane_groups(tmp_path):
    seq = Session(tmp_path / "a", salt="x").run(ONE_TRACE_SWEEP, jobs=1)
    par = Session(tmp_path / "b", salt="x").run(ONE_TRACE_SWEEP, jobs=2)
    assert len(seq) == 16
    assert list(seq) == list(par)
    for point in seq:
        assert seq[point] == par[point], point
        assert seq[point].meta["batch_lanes"] == 16
        assert par[point].meta["batch_lanes"] == 8


def test_session_rejects_jobs_below_one(tmp_path):
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            Session(tmp_path, salt="x", jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            Session(tmp_path, salt="x").run(SMALL_SWEEP, jobs=jobs)


def test_batched_results_are_cached_per_point(tmp_path):
    session = Session(tmp_path, salt="x")
    session.run(BATCH_SWEEP)
    warm = Session(tmp_path, salt="x")
    warm.run(BATCH_SWEEP)
    assert warm.misses == 0
    assert warm.hits == len(BATCH_SWEEP.points())


# --- build memo and stable build hashing ------------------------------------------

def test_built_kernel_memoized_and_stable():
    a = built_kernel("addblock", "mom", 1)
    b = built_kernel("addblock", "mom", 1)
    assert a is b
    assert trace_digest(a.trace) == trace_digest(b.trace)


def test_trace_digest_distinguishes_isas():
    alpha = built_kernel("addblock", "alpha", 1)
    mom = built_kernel("addblock", "mom", 1)
    assert trace_digest(alpha.trace) != trace_digest(mom.trace)


# --- CLI -------------------------------------------------------------------------

def test_cli_sweep_runs_and_reports_cache(tmp_path, capsys):
    from repro.exp.cli import main

    argv = ["sweep", "--kernels", "addblock", "--isas", "alpha,mom",
            "--ways", "1,4", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "addblock" in cold and "4 points" in cold
    assert "4 misses" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "4 hits, 0 misses" in warm

    def cells(text):
        return [line.split() for line in text.splitlines()
                if line.startswith("addblock")]
    assert cells(cold) == cells(warm)


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_cli_rejects_non_positive_jobs(tmp_path, capsys, jobs):
    from repro.exp.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--kernels", "addblock", "--jobs", jobs,
              "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs: must be a positive integer" in capsys.readouterr().err


def test_cli_rejects_unknown_inputs(tmp_path, capsys):
    from repro.exp.cli import main

    base = ["--cache-dir", str(tmp_path)]
    assert main(["sweep", "nosuchpreset"] + base) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(["sweep", "--kernels", "nosuchkernel"] + base) == 2
    assert "unknown kernel" in capsys.readouterr().err
    assert main(["sweep", "--kernels", "addblock", "--ways", "3"] + base) == 2
    assert "way 3" in capsys.readouterr().err


def test_cli_memory_override_of_pair_preset_is_not_empty(tmp_path):
    """`repro sweep figure7 --memory X` must fall back to the ISA axis
    rather than resolving to a silent 0-point sweep."""
    from repro.exp.cli import _sweep_from_args, build_parser

    args = build_parser().parse_args(
        ["sweep", "figure7", "--memory", "conventional",
         "--apps", "jpeg_encode", "--cache-dir", str(tmp_path)])
    sweep = _sweep_from_args(args)
    points = sweep.points()
    assert points, "override must not produce an empty sweep"
    assert {p.isa for p in points} == {"alpha", "mmx", "mom"}
    assert {p.memory for p in points} == {"conventional"}


def test_presets_is_a_plain_dict():
    assert isinstance(PRESETS, dict)
    assert PRESETS.get("figure5") is not None        # .get must see entries
    assert len(PRESETS.values()) == len(PRESETS)


def test_cli_cache_inspect_and_clear(tmp_path, capsys):
    from repro.exp.cli import main

    main(["sweep", "--kernels", "addblock", "--isas", "alpha",
          "--ways", "1", "--cache-dir", str(tmp_path)])
    capsys.readouterr()
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries:         1" in out
    assert main(["cache", "--cache-dir", str(tmp_path), "--clear"]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert not list(tmp_path.glob("*.json"))


def test_cli_tables(capsys):
    from repro.exp.cli import main

    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "Table 2" in out and "Table 3" in out


# --- figure commands: the drivers return data, the CLI renders it -----------
# Each runs on the session's result cache (the repo-root conftest.py).

def test_cli_figure5_renders_panel_and_summary(capsys):
    from repro.exp.cli import main

    assert main(["figure5", "--kernel", "addblock"]) == 0
    out = capsys.readouterr().out
    assert "\n=== Figure 5: addblock (speed-up vs 1-way Alpha) ===\n" in out
    assert re.search(r"^ +alpha +mmx +mdmx +mom$", out, re.M)
    for way in (1, 2, 4, 8):
        assert re.search(rf"^{way}-way  ( +\d+\.\dx){{4}}$", out, re.M)
    assert "\n=== MOM gain over best 1D SIMD ISA at 4-way ===\n" in out
    assert re.search(r"^  addblock +\d+\.\d\dx$", out, re.M)


def test_cli_figure7_renders_panel_and_summary(capsys):
    from repro.exp.cli import main

    assert main(["figure7", "--app", "gsm_encode"]) == 0
    out = capsys.readouterr().out
    assert "\n=== Figure 7: gsm_encode (speed-up vs 4-way Alpha) ===\n" in out
    for way in (4, 8):
        assert re.search(rf"^{way}-way: alpha-conv= *\d+\.\d\dx  mmx-conv=.*"
                         rf"  mom-collapsing= *\d+\.\d\dx$", out, re.M)
    assert ("\n=== MOM (best cache) gain over MMX at 4-way "
            "(paper: ~20% average) ===\n" in out)
    assert re.search(r"^  gsm_encode +\d+\.\d\dx$", out, re.M)
    assert re.search(r"^  average +\d+\.\d\dx$", out, re.M)


def test_cli_latency_renders_rows_and_ranges(capsys):
    from repro.exp.cli import main
    from repro.kernels import KERNEL_ORDER

    assert main(["latency"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Slow-down going from 1-cycle to 50-cycle memory "
                          "(4-way machine):\n\n")
    for kernel in KERNEL_ORDER:
        assert re.search(
            rf"^{kernel} +alpha= *\d+\.\d\dx .* mom= *\d+\.\d\dx$", out, re.M)
    assert ("\nRange per ISA (paper: Alpha 3-9x, MMX/MDMX 4-8x, "
            "MOM 2-4x):\n" in out)
    for isa in ("alpha", "mmx", "mdmx", "mom"):
        assert re.search(rf"^  {isa} +\d+\.\dx \.\. \d+\.\dx$", out, re.M)


def test_cli_fetch_pressure_names_fetch_bound_cycles(capsys):
    """The fetch-economy column holds measured fetch-bound-cycle ratios,
    so its heading must say so, not call them instruction ratios."""
    from repro.exp.cli import main
    from repro.kernels import KERNEL_ORDER

    assert main(["fetch-pressure"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ops/instruction, measured 1-way fetch-bound share "
                          "(f) and 1-way retention of 8-way performance:\n\n")
    for kernel in KERNEL_ORDER:
        assert re.search(rf"^{kernel} +alpha: *\d+\.\dop/i/f *\d+%/ *\d+%  ",
                         out, re.M)
    assert ("\nFetch economy: measured MMX fetch-bound cycles per MOM "
            "fetch-bound cycle at 1-way (paper: 'an order of magnitude'):\n"
            in out)
    assert "instructions per MOM instruction" not in out
    summary = out.partition("\nFetch economy:")[2].splitlines()[1:]
    assert [line.split()[0] for line in summary] == list(KERNEL_ORDER)
    assert all(re.fullmatch(r"  \S+ +\d+\.\dx", line) for line in summary)


class _TTY(io.StringIO):
    """A stderr that reports a terminal, so ``--progress`` is honoured."""

    def isatty(self):
        return True


@pytest.mark.parametrize("command", ["latency", "fetch-pressure"])
def test_cli_progress_draws_the_line(command, monkeypatch):
    """The line is drawn, and its total is the number of points the
    command's one sweep ran (the CLI counts the eval module's own sweep)."""
    from repro.exp.cli import main

    ran = []
    run = Session.run

    def counting_run(self, sweep, *args, **kwargs):
        ran.append(len(self.resolve(sweep)))
        return run(self, sweep, *args, **kwargs)

    monkeypatch.setattr(Session, "run", counting_run)
    stderr = _TTY()
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main([command, "--progress"]) == 0
    assert "points/s" in stderr.getvalue()
    totals = {int(total) for total in
              re.findall(r"\d+/(\d+) points ", stderr.getvalue())}
    assert len(ran) == 1
    assert totals == {ran[0]}


def test_cli_has_no_bench_command(capsys):
    from repro.exp.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
