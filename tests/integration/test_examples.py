"""Examples run end to end and print what their docstrings promise."""

from __future__ import annotations

import importlib.util
import pathlib
import runpy

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples.{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_example(name: str) -> None:
    runpy.run_path(str(EXAMPLES_DIR / f"{name}.py"), run_name="__main__")


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


def test_quickstart_runs_to_the_end(capsys):
    _run_example("quickstart")
    out = capsys.readouterr().out
    assert "recovered 1 entry with its remaining lease" in out
    assert out.rstrip().endswith("quickstart done.")


def test_sensor_to_space_alarm_drives_the_cooler(capsys):
    _run_example("sensor_to_space")
    lines = capsys.readouterr().out.splitlines()
    # Twelve leased readings cross the bus; notify raises the alarm and
    # the latch answers, then releases once the oven cools.
    assert sum("board published" in line for line in lines) == 12
    assert "[  11.54s] ALARM: oven-1 at 35.5 degC -> cooler ON" in lines
    assert "[  20.36s] oven-1 back to 22.0 degC -> cooler off" in lines
    assert "space holds 7 live readings (30 s leases expire)" in lines
    assert "alarm fired at t=11.54s on tick 2; cooler pin 2 is off" in lines


def test_fft_offload_scales_with_the_consumer_pool(capsys):
    _run_example("fft_offload")
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.strip()[:1].isdigit() and "|" in line]
    assert [row.split("|")[0].strip() for row in rows] == ["1", "2", "4", "8"]
    times = [float(row.split("|")[1].split()[0]) for row in rows]
    assert times == sorted(times, reverse=True)
    assert lines[-1] == (
        "Performance scales with the number of consumers (Sec. 2.1), "
        "flooring at the single-job service time."
    )


def test_redundant_actuators_backup_takes_over_one_tick_later(capsys):
    _run_example("redundant_actuators")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "control loop started at t=0.10s (start tuple was taken)"
    assert lines[-1] == (
        "failure injected at t=10.0s; actuator.conveyor-drive.1 recovered "
        "the actuator program at t=11.01s (1.01s of outage)."
    )


def test_bus_design_exploration_recommends_the_two_wire_bus(capsys):
    _run_example("bus_design_exploration")
    lines = capsys.readouterr().out.splitlines()
    assert (
        "  scaling factor (hw/model): 0.940 -> the cheap model is "
        "trustworthy for exploration"
    ) in lines
    assert "  CBR 1.0 B/s -> Out of Time" in lines
    assert lines[-1] == (
        "  => the 2-wire bus stays within the lease across the whole "
        "traffic range: worth building."
    )
