"""The paper's actual use case: explore the bus design before building it.

Walks the rapid-prototyping flow of Sections 4-5:

1. validate the cheap packet-level TpWIRE model against the bit-level
   reference (Table 3) and derive the scaling factor;
2. estimate the tuplespace write+take time on the deployed 1-wire bus
   under increasing CBR load, finding the Out-of-Time threshold
   (Table 4, left column);
3. evaluate the proposed 2-wire upgrade on the same workload (Table 4,
   right column) — the estimate that "gave enough information to plan
   the complete development of the bus and the tuplespace".

Run:  python examples/bus_design_exploration.py
"""

from repro.analysis import Table
from repro.cosim import (
    CaseStudyConfig,
    CaseStudyScenario,
    derive_scaling_factor,
    run_validation_suite,
)


def step1_validate_model():
    print("step 1: validate the NS-2-analog model (Table 3)")
    points = run_validation_suite([5, 15])
    table = Table(["packets", "hw s", "model s", "frames hw/model", "error"])
    for p in points:
        table.add_row(
            p.n_packets, p.reference_seconds, p.model_seconds,
            f"{p.reference.total_frames}/{p.model.total_frames}",
            f"{p.timing_error:.1%}",
        )
    print(table.render())
    factor = derive_scaling_factor(points)
    print(f"  scaling factor (hw/model): {factor:.3f} -> the cheap model "
          "is trustworthy for exploration\n")
    return factor


def step2_estimate_one_wire():
    print("step 2: estimate the deployed 1-wire bus (Table 4, left)")
    results = {}
    for cbr in (0.0, 0.3, 1.0):
        config = CaseStudyConfig(wires=1, cbr_rate_bytes_per_s=cbr)
        results[cbr] = CaseStudyScenario(config).run(max_sim_time=4000.0)
        print(f"  CBR {cbr:3} B/s -> {results[cbr].cell()}")
    assert results[1.0].out_of_time
    print("  => the 1-wire bus cannot carry the tuplespace at 1 B/s of "
          "background traffic (lease 160 s)\n")


def step3_evaluate_two_wire():
    print("step 3: evaluate the proposed 2-wire upgrade (Table 4, right)")
    for cbr in (0.0, 0.3, 1.0):
        config = CaseStudyConfig(wires=2, cbr_rate_bytes_per_s=cbr)
        result = CaseStudyScenario(config).run(max_sim_time=4000.0)
        print(f"  CBR {cbr:3} B/s -> {result.cell()}")
    print("  => the 2-wire bus stays within the lease across the whole "
          "traffic range: worth building.")


if __name__ == "__main__":
    step1_validate_model()
    step2_estimate_one_wire()
    step3_evaluate_two_wire()
