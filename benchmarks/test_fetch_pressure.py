"""Fetch-pressure study (Sections 4.1 and 5).

Quantifies the paper's embedded-systems claim: MOM packs "an order of
magnitude more operations per instruction than MMX or MDMX" and keeps the
largest share of its wide-machine performance on a 1-way machine.  Since
package 1.7 the study also measures the pressure directly -- the CPI
stack's fetch-bound cycles on the 1-way machine -- so both the
instruction-count argument and its measured counterpart are asserted.
"""

from repro.eval.fetch_pressure import mom_fetch_advantage, run
from repro.exp import built_kernel
from repro.kernels import KERNEL_ORDER


def test_fetch_pressure(benchmark):
    for kernel in KERNEL_ORDER:
        for isa in ("alpha", "mmx", "mdmx", "mom"):
            built_kernel(kernel, isa, 1)

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    instr_ratios = {
        kernel: row["mmx"].instructions / row["mom"].instructions
        for kernel, row in results.items()
    }
    measured = mom_fetch_advantage(results)
    benchmark.extra_info["mmx_instrs_per_mom_instr"] = {
        k: round(v, 1) for k, v in instr_ratios.items()
    }
    benchmark.extra_info["measured_fetch_bound_ratio"] = {
        k: round(v, 1) for k, v in measured.items()
    }

    print("\nFetch economy (MMX per MOM, instruction count vs measured "
          "1-way fetch-bound cycles):")
    for kernel in results:
        print(f"  {kernel:16s} {instr_ratios[kernel]:5.1f}x "
              f"instrs  {measured[kernel]:5.1f}x cycles")

    # "an order of magnitude" holds for the 2D-parallel kernels; rgb2ycc
    # (VL=3) is the documented exception.
    big = [k for k, v in instr_ratios.items() if v >= 6]
    assert len(big) >= 5
    # Measured attribution agrees in direction everywhere: MOM never
    # spends *more* 1-way cycles fetch-bound than MMX, and the kernels
    # whose MOM runs stay backend-bound show the full order of magnitude.
    assert all(v >= 1 for v in measured.values())
    assert sum(1 for v in measured.values() if v >= 6) >= 3
    # MOM's ops/instruction dwarfs MMX's everywhere but rgb2ycc.
    for kernel, row in results.items():
        if kernel == "rgb2ycc":
            continue
        assert row["mom"].ops_per_instruction > 2.5 * row["mmx"].ops_per_instruction
    # Narrow-machine retention: MOM keeps the largest share of its 8-way
    # performance on the 1-way machine for the majority of kernels.
    wins = sum(
        1 for row in results.values()
        if row["mom"].retention_1way
        >= max(row["mmx"].retention_1way, row["mdmx"].retention_1way)
    )
    assert wins >= 5
