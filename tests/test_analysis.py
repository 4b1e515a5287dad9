"""The static verification layer: unit behaviour and grid cleanliness.

The flagship property is *zero false positives*: every shipped kernel on
every ISA passes every analysis pass clean.
The complementary property (seeded defects are caught) lives in
``test_mutations.py``.
"""

import json

import pytest

from repro.analysis import (Interval, check_ir, check_ranges, lint_kernel,
                            pressure_report, verified_status)
from repro.analysis.interval import const
from repro.analysis.runner import kernel_names
from repro.exp.cli import main as cli_main
from repro.kernels import ISAS, KERNELS


# --- interval domain ---------------------------------------------------------

def test_interval_arithmetic():
    a, b = Interval(2, 10), Interval(-3, 4)
    assert a.add(b) == Interval(-1, 14)
    assert a.sub(b) == Interval(-2, 13)
    assert a.mul(b) == Interval(-30, 40)
    assert b.mul(b) == Interval(-12, 16)
    assert a.shr(1) == Interval(1, 5)
    assert a.abs_diff(b) == Interval(0, 13)
    assert b.square() == Interval(0, 16)
    assert Interval(-300, 500).sat_u8() == Interval(0, 255)
    assert a.join(b) == Interval(-3, 10)
    assert a.within(0, 10) and not b.within(0, 10)


def test_interval_helpers():
    assert const(7) == Interval(7, 7)


def test_interval_shr_rejects_negative():
    with pytest.raises(ValueError):
        Interval(-1, 5).shr(2)


# --- the shipped grid is clean ----------------------------------------------

@pytest.mark.parametrize("isa", ISAS)
def test_grid_has_zero_findings(isa):
    for name in kernel_names():
        report, artifacts = lint_kernel(name, isa)
        assert report.ok, (name, isa, [str(f) for f in report.findings])
        assert artifacts["pressure"]["pools"], (name, isa)
        if isa != "alpha":      # Table 2 prices media files only
            assert artifacts["pressure"]["register_files"], (name, isa)


def test_every_compiled_kernel_ships_a_range_proof():
    for name in kernel_names():
        for isa in ISAS:
            _, artifacts = lint_kernel(name, isa)
            proof = artifacts.get("checkpoints",
                                  artifacts.get("mirror_checkpoints"))
            if proof is None:
                continue          # hand kernel without a compiled mirror
            assert proof, (name, isa)
            for checkpoint in proof:
                assert checkpoint["status"] in ("in-range", "saturated")
                lo, hi = checkpoint["interval"]
                blo, bhi = checkpoint["bound"]
                assert blo <= lo <= hi <= bhi, checkpoint


def test_checkpoints_differ_between_scalar_and_packed():
    record_ir = _ir("blend")
    _, scalar = check_ranges(record_ir, None, "alpha")
    _, packed = check_ranges(record_ir, None, "mmx")
    srules = {c["rule"] for c in scalar}
    prules = {c["rule"] for c in packed}
    assert "sat-table" in srules and "sat-table" not in prules
    assert "sat-pack" in prules and "sat-pack" not in srules


def _ir(name):
    from repro.vc import COMPILED
    return COMPILED[name].ir


def test_check_ir_accepts_every_registered_ir():
    from repro.vc import COMPILED
    for name, record in COMPILED.items():
        assert check_ir(record.ir) == [], name


# --- register pressure -------------------------------------------------------

def test_pressure_report_shape():
    spec = KERNELS["blend"]
    built = spec.builders["mmx"](spec.make_workload(1))
    report = pressure_report(built.builder, "blend", "mmx")
    assert report["kernel"] == "blend" and report["isa"] == "mmx"
    pools = report["pools"]
    assert pools["int"]["peak"] <= pools["int"]["registers"]
    assert pools["med"]["peak"] >= 1
    for entry in report["register_files"]:
        assert 0 <= entry["peak_live"] <= entry["logical"]
        assert entry["area_units"] > 0


def test_pressure_peak_below_allocator_watermark():
    # Liveness can only tighten the allocator's watermark, never exceed it.
    for name in ("ssd", "blend"):
        spec = KERNELS[name]
        for isa in ISAS:
            built = spec.builders[isa](spec.make_workload(1))
            report = pressure_report(built.builder, name, isa)
            for pool, stats in report["allocators"].items():
                peak = report["pools"].get(pool, {"peak": 0})["peak"]
                assert peak <= stats["allocated"] <= stats["limit"], (
                    name, isa, pool)


# --- runner & CLI ------------------------------------------------------------

def test_verified_status_is_cached_and_true():
    assert verified_status("blend", "mmx") is True
    assert verified_status("idct", "alpha") is True


def test_lint_kernel_rejects_unknown_names():
    with pytest.raises(KeyError):
        lint_kernel("nonesuch", "mmx")
    with pytest.raises(KeyError):
        lint_kernel("blend", "vax")


def test_cli_lint_single_cell(capsys):
    assert cli_main(["lint", "--kernel", "ssd", "--isa", "mdmx"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_lint_json_artifact(tmp_path, capsys):
    artifact = tmp_path / "findings.json"
    code = cli_main(["lint", "--kernel", "blend", "--isa", "mom",
                     "--json", "--artifact", str(artifact)])
    assert code == 0
    payload = json.loads(artifact.read_text())
    assert payload["ok"] is True and payload["findings"] == []
    (cell,) = payload["cells"]
    assert cell["kernel"] == "blend" and cell["isa"] == "mom"
    assert cell["checkpoints"]
    assert json.loads(capsys.readouterr().out) == payload


def test_cli_kernels_lists_verified_column(capsys):
    assert cli_main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert "NO" not in out
