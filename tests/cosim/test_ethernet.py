"""The Sec. 4.3 Ethernet alternative carrying the same workload."""

import pytest

from repro.cosim import (
    CaseStudyConfig,
    CaseStudyScenario,
    EthernetCaseStudy,
)
from repro.cosim import ethernet as ethernet_module


def record_client_terms(study) -> dict:
    """Make the study's client record the lease and take timeout it asks
    for; the dict fills in as the study runs."""
    terms = {}
    client = study.client
    write, take = client.write, client.take

    def recording_write(entry, lease=None, created_at=None):
        terms["lease"] = lease
        return write(entry, lease=lease, created_at=created_at)

    def recording_take(template, timeout=None):
        terms["take_timeout"] = timeout
        return take(template, timeout=timeout)

    client.write, client.take = recording_write, recording_take
    return terms


class TestEthernetCaseStudy:
    def test_operation_completes(self):
        result = EthernetCaseStudy().run()
        assert result.completed
        assert result.switch_packets >= 4  # write, ack, take, entry

    def test_processing_dominates_not_the_wire(self):
        """At 10 Mbit/s the wire time is microseconds: the elapsed time is
        almost entirely endpoint processing."""
        result = EthernetCaseStudy().run()
        wire_time = result.wire_bytes * 8 / 10_000_000.0
        assert wire_time < 0.05
        assert result.elapsed_seconds > 100 * wire_time

    def test_much_faster_than_tpwire(self):
        """The §4.3 trade-off, quantified: Ethernet is an order of
        magnitude faster — but needs an active device."""
        ethernet = EthernetCaseStudy().run()
        tpwire = CaseStudyScenario(CaseStudyConfig()).run(max_sim_time=4000.0)
        assert ethernet.elapsed_seconds < tpwire.elapsed_seconds / 5
        assert ethernet.active_devices == 1  # the switch TpWIRE avoids

    def test_same_client_and_host_as_the_case_study(self):
        """Sec. 4.3 compares interconnects, so both studies must charge
        the same board client and the same JVM host."""
        over_ethernet = EthernetCaseStudy()
        over_tpwire = CaseStudyScenario(CaseStudyConfig())
        assert over_ethernet.client.timing == over_tpwire.client.timing
        assert (over_ethernet.server_host.timing
                == over_tpwire.server_host.timing)
        ethernet_terms = record_client_terms(over_ethernet)
        tpwire_terms = record_client_terms(over_tpwire)
        over_ethernet.run()
        over_tpwire.run(max_sim_time=4000.0)
        assert ethernet_terms == tpwire_terms == {
            "lease": 160.0, "take_timeout": 10.0,
        }

    def test_bandwidth_insensitive_in_this_regime(self, monkeypatch):
        """10 vs 100 Mbit/s barely changes the result (endpoint-bound)."""
        slow = EthernetCaseStudy().run()
        monkeypatch.setattr(ethernet_module, "ETHERNET_BANDWIDTH_BPS", 1e8)
        fast = EthernetCaseStudy().run()
        assert fast.elapsed_seconds == pytest.approx(
            slow.elapsed_seconds, rel=0.02
        )

    def test_unfinished_run_raises(self):
        with pytest.raises(RuntimeError):
            EthernetCaseStudy().run(max_sim_time=0.001)
