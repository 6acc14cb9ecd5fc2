"""Co-simulation assembly (Figure 5 of the paper).

Puts the layers together: the TpWIRE bus model (packet-level NS-2 analog
or bit-level hardware analog), the master's relay firmware, the SC1/SC2
bridges, the board-side space client and the JavaSpaces server — and the
canned experiment scenarios of Section 5.
"""

from repro.cosim.environment import BusSystem, build_bus_system
from repro.cosim.errors import CosimError, CaseStudyIncompleteError
from repro.cosim.server_host import SimServerHost
from repro.cosim.scenarios import (
    ValidationScenario,
    ValidationResult,
    CaseStudyConfig,
    CaseStudyScenario,
    CaseStudyResult,
    MachineParameters,
    make_case_study_codec,
)
from repro.cosim.calibration import (
    ValidationPoint,
    run_validation_suite,
    derive_scaling_factor,
)
from repro.cosim.ethernet import (
    EthernetCaseStudy,
    EthernetResult,
)

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
