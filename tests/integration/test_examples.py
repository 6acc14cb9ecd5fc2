"""Examples run end to end and print what their docstrings promise."""

from __future__ import annotations

import importlib.util
import pathlib

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples.{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bus_activity_timeline_renders_tx_rx_strips(capsys):
    _load("bus_activity_timeline").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "traced 551 events over 5.22 s of simulated time (552 TpWIRE frames)"
    )
    strips = {line.split()[0]: line for line in lines if line.startswith("  ")
              and "|" in line}
    assert set(strips) == {"tx", "rx"}
    for label, line in strips.items():
        assert line.startswith(f"  {label} 0s |")
        assert line.endswith("| 5.22167s")
        strip = line.split("|")[1]
        assert len(strip) == 64
        assert "@" in strip and " " not in strip
    assert "  (tpwire, rx ) -> 275" in lines
    assert "  (tpwire, tx ) -> 276" in lines
