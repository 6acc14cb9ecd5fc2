"""Co-simulation assembly (Figure 5 of the paper).

Puts the layers together: the TpWIRE bus model (packet-level NS-2 analog
or bit-level hardware analog), the master's relay firmware, the SC1/SC2
bridges, the board-side space client and the JavaSpaces server — and the
canned experiment scenarios of Section 5.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.cosim.environment": ("BusSystem", "build_bus_system"),
    "repro.cosim.errors": ("CosimError", "CaseStudyIncompleteError"),
    "repro.cosim.server_host": ("SimServerHost",),
    "repro.cosim.scenarios": (
        "ValidationScenario",
        "ValidationResult",
        "CaseStudyConfig",
        "CaseStudyScenario",
        "CaseStudyResult",
        "MachineParameters",
        "make_case_study_codec",
    ),
    "repro.cosim.calibration": (
        "ValidationPoint",
        "run_validation_suite",
        "derive_scaling_factor",
    ),
    "repro.cosim.ethernet": ("EthernetCaseStudy", "EthernetResult"),
}

__all__ = [
    "BusSystem",
    "CosimError",
    "CaseStudyIncompleteError",
    "build_bus_system",
    "SimServerHost",
    "ValidationScenario",
    "ValidationResult",
    "CaseStudyConfig",
    "CaseStudyScenario",
    "CaseStudyResult",
    "MachineParameters",
    "make_case_study_codec",
    "ValidationPoint",
    "run_validation_suite",
    "derive_scaling_factor",
    "EthernetCaseStudy",
    "EthernetResult",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
