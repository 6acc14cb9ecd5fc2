"""Table 3: validation of the packet-level model against the bit-level one.

The paper measures elapsed seconds for a given number of frames on the
real TpICU/SCM bus and on the NS-2 model, then derives a scaling factor
that tells "how close to reality is the NS-2-TpWIRE model".  Here the
bit-level PHY plays the hardware's role; the packet-level model is the
NS-2 analog; both run the identical workload (the Figure 6 scenario).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stats import relative_error, scaling_factor
from repro.cosim.scenarios import ValidationResult, ValidationScenario


@dataclass(frozen=True)
class ValidationPoint:
    """One Table 3 row: the same workload on both models."""

    n_packets: int
    reference: ValidationResult   #: bit-level ("TpICU/SCM") measurement
    model: ValidationResult       #: packet-level ("NS-2") measurement

    @property
    def reference_seconds(self) -> float:
        return self.reference.elapsed_seconds

    @property
    def model_seconds(self) -> float:
        return self.model.elapsed_seconds

    @property
    def timing_error(self) -> float:
        return relative_error(self.reference_seconds, self.model_seconds)


def run_validation_suite(
    packet_counts: list[int],
    bit_rate: float = 2400.0,
    cbr_rate: float = 8.0,
    seed: int = 1,
) -> list[ValidationPoint]:
    """Run the Figure 6 workload at each size on both bus models."""
    points = []
    for n_packets in packet_counts:
        reference = ValidationScenario(
            bit_rate=bit_rate, bit_level=True, cbr_rate=cbr_rate, seed=seed
        ).run(n_packets)
        model = ValidationScenario(
            bit_rate=bit_rate, bit_level=False, cbr_rate=cbr_rate, seed=seed
        ).run(n_packets)
        points.append(ValidationPoint(n_packets, reference, model))
    return points


def derive_scaling_factor(points: list[ValidationPoint]) -> float:
    """The Table 3 scaling factor: model seconds -> hardware seconds."""
    return scaling_factor(
        [p.reference_seconds for p in points],
        [p.model_seconds for p in points],
    )
