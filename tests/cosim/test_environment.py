"""Bus-system assembly."""

import pytest

from repro.cosim import build_bus_system
from repro.des import Simulator
from repro.hw.tpwire_phy import BitLevelTpwireBus
from repro.tpwire import WireMode
from repro.tpwire.bus import TpwireBus


class TestBuildBusSystem:
    def test_packet_level_default(self):
        sim = Simulator()
        system = build_bus_system(sim, [1, 2, 3])
        assert isinstance(system.bus, TpwireBus)
        assert sorted(system.slaves) == [1, 2, 3]
        assert sorted(system.endpoints) == [1, 2, 3]
        assert system.kernel is None

    def test_bit_level_variant(self):
        sim = Simulator()
        system = build_bus_system(sim, [1, 2], bit_level=True)
        assert isinstance(system.bus, BitLevelTpwireBus)
        assert system.kernel is not None

    @pytest.mark.parametrize(
        "wires, mode",
        [(2, None), (2, WireMode.PARALLEL_DATA), (1, WireMode.PARALLEL_BUS)],
    )
    def test_bit_level_refuses_other_line_groups(self, wires, mode):
        with pytest.raises(ValueError, match="1-wire"):
            build_bus_system(Simulator(), [1, 2], wires=wires, mode=mode, bit_level=True)

    def test_bit_level_accepts_serial_mode(self):
        system = build_bus_system(Simulator(), [1], mode=WireMode.SERIAL, bit_level=True)
        assert isinstance(system.bus, BitLevelTpwireBus)

    def test_two_wire_timing(self):
        sim = Simulator()
        system = build_bus_system(sim, [1], wires=2)
        assert system.timing.mode is WireMode.PARALLEL_DATA
        assert system.timing.frame_bits_on_wire == 13

    def test_empty_slave_list_rejected(self):
        with pytest.raises(ValueError):
            build_bus_system(Simulator(), [])

    def test_transport_works_after_assembly(self):
        sim = Simulator()
        system = build_bus_system(sim, [1, 2])
        received = []
        system.endpoint(2).on_data = lambda src, data, ctx: received.append(data)
        system.start()
        system.endpoint(1).send(2, b"assembled")
        sim.run(until=30.0)
        system.stop()
        assert received == [b"assembled"]

    def test_transport_over_bit_level_bus(self):
        sim = Simulator()
        system = build_bus_system(sim, [1, 2], bit_level=True)
        received = []
        system.endpoint(2).on_data = lambda src, data, ctx: received.append(data)
        system.start()
        system.endpoint(1).send(2, b"bits")
        sim.run(until=60.0)
        system.stop()
        assert received == [b"bits"]
