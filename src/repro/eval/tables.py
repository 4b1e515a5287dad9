"""Tables 1-3: processor, register-file and cache-port configurations.

``repro tables`` prints all three.
"""

from __future__ import annotations

from ..cpu.config import WAYS, machine_config, register_file_specs
from ..isa.regfile_area import table2_report
from ..memsys.hierarchy import HierarchyParams


def table1_rows() -> list[dict]:
    """Table 1: processor configurations per issue width."""
    rows = []
    for way in WAYS:
        cfg = machine_config(way, "mmx")
        mom = machine_config(way, "mom")
        rows.append({
            "way": way,
            "rob": cfg.rob_size,
            "lsq": cfg.lsq_size,
            "bimodal": cfg.bimodal_entries,
            "btb": cfg.btb_entries,
            "int": f"{cfg.int_units.simple}/{cfg.int_units.complex_}",
            "fp": f"{cfg.fp_units.simple}/{cfg.fp_units.complex_}",
            "med": (f"{cfg.med_units.total}"
                    + (f" - ({mom.med_units.total}x{mom.med_lanes})"
                       if mom.med_lanes > 1 else "")),
            "ports": (f"{cfg.mem_ports}"
                      + (f" - ({mom.mem_ports}x{mom.mem_port_width})"
                         if mom.mem_port_width > 1 else "")),
            "int_regs": f"32/{cfg.int_phys}",
            "fp_regs": f"32/{cfg.fp_phys}",
        })
    return rows


def table2_rows() -> dict:
    """Table 2: media register files, sizes and normalized area."""
    reports = table2_report(register_file_specs)
    baseline = reports["mmx"].area_units
    out = {}
    for isa, report in reports.items():
        cfg = machine_config(4, isa)
        out[isa] = {
            "media_regs": f"{cfg.med_logical}/{cfg.med_phys}",
            "acc_regs": (f"{cfg.acc_logical}/{cfg.acc_phys}"
                         if cfg.acc_phys else "-"),
            "size_kb": round(report.size_kbytes, 2),
            "norm_area": round(report.normalized(baseline), 2),
        }
    return out


def table3_rows() -> dict:
    """Table 3: cache port configurations for Conv/MA and VC/COL."""
    out = {}
    for way in (4, 8):
        conv = HierarchyParams.conventional(way)
        vc = HierarchyParams.vector(way, collapsing=False)
        col = HierarchyParams.vector(way, collapsing=True)
        out[way] = {
            "conv_ma": {
                "l1_ports": conv.l1_ports, "l1_banks": conv.l1_banks,
                "l1_latency": conv.l1_latency, "l2_latency": conv.l2_latency,
            },
            "vc_col": {
                "l1_ports": vc.l1_ports, "l1_banks": vc.l1_banks,
                "l1_latency": vc.l1_latency,
                "l2_ports": f"1x{vc.vector_port_width}",
                "l2_latency": f"{vc.l2_latency}/{col.l2_latency}",
            },
        }
    return out


def render_table1() -> str:
    lines = ["=== Table 1: processor configurations ==="]
    header = None
    for row in table1_rows():
        if header is None:
            header = list(row)
            lines.append("  ".join(f"{h:>9s}" for h in header))
        lines.append("  ".join(f"{str(row[h]):>9s}" for h in header))
    return "\n".join(lines)


def render_table2() -> str:
    lines = ["=== Table 2: multimedia register files (4-way machine) ===",
             f"{'':8s}{'media':>10s}{'acc':>8s}{'size KB':>9s}{'area':>7s}"]
    for isa, row in table2_rows().items():
        lines.append(f"{isa:8s}{row['media_regs']:>10s}{row['acc_regs']:>8s}"
                     f"{row['size_kb']:>9.2f}{row['norm_area']:>7.2f}")
    lines.append("(paper: sizes 0.5 / 0.78 / 2.6 KB; "
                 "areas 1.00 / 1.19 / 0.87)")
    return "\n".join(lines)


def render_table3() -> str:
    lines = ["=== Table 3: cache port configurations ==="]
    for way, cols in table3_rows().items():
        lines.append(f"{way}-way  Conv/MA: {cols['conv_ma']}")
        lines.append(f"{'':7s}VC/COL : {cols['vc_col']}")
    return "\n".join(lines)


def render_all() -> str:
    """All three configuration tables, as printed by ``repro tables``."""
    return "\n\n".join((render_table1(), render_table2(), render_table3()))
