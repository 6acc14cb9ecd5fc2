"""Figure 6 validation and Figure 7 case-study scenarios."""

import pytest

from repro.cosim import (
    CaseStudyConfig,
    CaseStudyScenario,
    MachineParameters,
    ValidationScenario,
    make_case_study_codec,
)
from repro.cosim.scenarios import default_entry
from repro.des import HeapScheduler


class TestValidationScenario:
    def test_delivers_requested_packets(self):
        scenario = ValidationScenario(cbr_rate=8.0)
        result = scenario.run(10)
        assert result.packets_delivered == 10
        assert result.bytes_delivered == 10
        assert result.elapsed_seconds > 0

    def test_frames_scale_with_packets(self):
        small = ValidationScenario(cbr_rate=8.0).run(5)
        large = ValidationScenario(cbr_rate=8.0).run(15)
        assert large.total_frames > 2 * small.total_frames
        assert large.elapsed_seconds > 2 * small.elapsed_seconds

    def test_bit_level_variant_runs(self):
        result = ValidationScenario(bit_level=True, cbr_rate=8.0).run(5)
        assert result.packets_delivered == 5

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ValidationScenario().run(0)


class TestCaseStudyPieces:
    def test_default_entry_encodes_to_hundreds_of_bytes(self):
        codec = make_case_study_codec()
        wire = codec.encode(default_entry())
        assert 300 <= len(wire) <= 900

    def test_entry_roundtrips(self):
        codec = make_case_study_codec()
        entry = default_entry()
        assert codec.decode(codec.encode(entry)) == entry

    def test_template_matches_entry(self):
        entry = default_entry()
        template = MachineParameters(machine_id=entry.machine_id)
        assert template.matches(entry)


class TestCaseStudyScenario:
    def test_baseline_completes_in_paper_regime(self):
        result = CaseStudyScenario(CaseStudyConfig()).run()
        assert result.completed and not result.out_of_time
        # The paper's 1-wire baseline is 140 s; ours must land nearby.
        assert 120.0 <= result.elapsed_seconds <= 175.0
        assert result.write_ack_seconds < result.elapsed_seconds

    def test_cbr_slows_the_operation(self):
        quiet = CaseStudyScenario(CaseStudyConfig()).run()
        loaded = CaseStudyScenario(
            CaseStudyConfig(cbr_rate_bytes_per_s=0.3)
        ).run()
        assert loaded.elapsed_seconds > quiet.elapsed_seconds
        assert loaded.cbr_bytes_delivered > 0

    def test_two_wire_faster(self):
        one = CaseStudyScenario(CaseStudyConfig(wires=1)).run()
        two = CaseStudyScenario(CaseStudyConfig(wires=2)).run()
        assert two.elapsed_seconds < one.elapsed_seconds

    def test_two_wire_bit_level_is_refused(self):
        # The PHY has no 2-wire framing; it must not stand in for one.
        with pytest.raises(ValueError, match="1-wire"):
            CaseStudyScenario(CaseStudyConfig(wires=2, bit_level=True))

    def test_heavy_cbr_goes_out_of_time_on_one_wire(self):
        result = CaseStudyScenario(
            CaseStudyConfig(cbr_rate_bytes_per_s=1.0)
        ).run(max_sim_time=4000.0)
        assert result.out_of_time
        assert not result.completed
        assert result.cell() == "Out of Time"

    def test_two_wire_survives_heavy_cbr(self):
        result = CaseStudyScenario(
            CaseStudyConfig(wires=2, cbr_rate_bytes_per_s=1.0)
        ).run(max_sim_time=4000.0)
        assert result.completed

    def test_cell_formatting(self):
        result = CaseStudyScenario(CaseStudyConfig()).run()
        assert result.cell().endswith("s")

    def test_unfinished_run_raises(self):
        with pytest.raises(RuntimeError):
            CaseStudyScenario(CaseStudyConfig()).run(max_sim_time=1.0)


class TestDeterminismAndQueueSeam:
    def test_baseline_cell_run_twice_is_identical(self):
        # Table 4's 1-wire baseline cell: same config, same seed, same
        # result to the bit.
        first = CaseStudyScenario(CaseStudyConfig()).run()
        second = CaseStudyScenario(CaseStudyConfig()).run()
        assert first == second

    def test_configured_queue_is_the_one_the_simulator_drains(self):
        # Benchmarks count events by passing an instrumented heap through
        # CaseStudyConfig(scheduler=...); the scenario must use it as is.
        class CountingHeap(HeapScheduler):
            popped = 0

            def pop_entry(self):
                entry = super().pop_entry()
                if entry is not None:
                    self.popped += 1
                return entry

        queue = CountingHeap()
        scenario = CaseStudyScenario(CaseStudyConfig(scheduler=queue))
        assert scenario.sim._queue is queue
        result = scenario.run()
        assert result == CaseStudyScenario(CaseStudyConfig()).run()
        assert queue.popped > 1000
