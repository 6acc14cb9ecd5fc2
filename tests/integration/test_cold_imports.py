"""The modules a cold entry point loads, by name, in a fresh interpreter.

Package ``__init__``s import their exports on first access, so an entry
point loads only the modules it runs: the space server does not load
the simulator, and a packet-level case study does not load the
bit-level PHY, the board ISS or the tooling packages.  Each probe runs
in its own interpreter, since this process has long since imported
everything; the pins are module names, not times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Never loaded by a packet-level case study.
NOT_PACKET_LEVEL = (
    "repro.hw.tpwire_phy",
    "repro.hw.kernel",
    "repro.board",
    "repro.analysis",
    "repro.chaos",
    "repro.lint",
    "repro.obs",
)


def loaded_after(code: str) -> set[str]:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out))


def under(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


def test_space_server_import_loads_only_core():
    loaded = loaded_after("from repro.core import TupleSpace, SpaceServer")
    assert loaded - under(loaded, "repro.core") == {"repro"}
    assert {"repro.core.space", "repro.core.server"} <= loaded


def test_packet_level_case_study_loads_no_phy_board_or_tooling():
    loaded = loaded_after(
        "from repro.cosim import CaseStudyConfig, CaseStudyScenario\n"
        "CaseStudyScenario(CaseStudyConfig())"
    )
    assert {"repro.tpwire.bus", "repro.cosim.scenarios"} <= loaded
    for package in NOT_PACKET_LEVEL:
        assert under(loaded, package) == set(), package


def test_bit_level_case_study_loads_the_phy():
    loaded = loaded_after(
        "from repro.cosim import CaseStudyConfig, CaseStudyScenario\n"
        "CaseStudyScenario(CaseStudyConfig(bit_level=True))"
    )
    assert {"repro.hw.tpwire_phy", "repro.hw.kernel"} <= loaded
