"""Sensors to tuplespace: the paper's factory-automation loop, end to end.

A smart board (Slave 1) carries an SPI thermometer behind its system
register set (Sec. 3.1 lists SPI among the system registers).  Its local
firmware samples the sensor each second and publishes a leased
``SensorReading`` entry to the JavaSpaces server on Slave 3 — every byte
crossing the 1-wire TpWIRE bus through the master relay.  A monitoring
agent subscribed with ``notify`` raises an alarm the moment a reading
crosses the threshold, and commands an output latch in response.

Run:  python examples/sensor_to_space.py
"""

from repro.core import (
    Entry,
    SimClock,
    SimSpaceClient,
    SpaceServer,
    TupleSpace,
    XmlCodec,
)
from repro.core.server import SimTimers
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge
from repro.tpwire import OutputShiftRegister, TemperatureSensor
from repro.tpwire.registers import SystemRegister

SENSOR_NODE, SERVER_NODE = 1, 3
ALARM_THRESHOLD_C = 30.0
COOLER_PIN = 2


class SensorReading(Entry):
    def __init__(self, sensor=None, celsius=None, tick=None):
        self.sensor = sensor
        self.celsius = celsius
        self.tick = tick


def main():
    sim = Simulator(seed=4)
    system = build_bus_system(
        sim, [SENSOR_NODE, SERVER_NODE], bit_rate=9600.0
    )
    codec = XmlCodec()
    codec.register(SensorReading)

    # Server side.
    space = TupleSpace(clock=SimClock(sim), name="factory-space")
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    SimServerHost(sim, server, ServerBridge(sim, system.endpoint(SERVER_NODE)))

    # Sensor board: SPI thermometer + cooler latch on local firmware,
    # space client over the bus.
    thermometer = TemperatureSensor(temperature_c=22.0)
    cooler = OutputShiftRegister()
    bridge = ClientBridge(sim, system.endpoint(SENSOR_NODE), SERVER_NODE)
    client = SimSpaceClient(
        sim, bridge.to_bus, bridge.from_bus, codec, name="sensor-board"
    )

    def sample_spi() -> float:
        """Local firmware SPI access (no bus frames: it is our own bus)."""
        thermometer.transfer(TemperatureSensor.SAMPLE)
        return thermometer.transfer(0x00) / 2.0

    def sensor_firmware():
        tick = 0
        while tick < 12:
            celsius = sample_spi()
            yield from client.write(
                SensorReading("oven-1", celsius, tick), lease=30.0
            )
            print(f"[{sim.now:7.2f}s] board published "
                  f"{celsius:5.1f} degC (tick {tick})")
            tick += 1
            yield sim.timeout(1.0)
        sim.stop()

    def heat_ramp():
        """The physical process: the oven heats up, then the cooler acts."""
        while True:
            if cooler.pin(COOLER_PIN):
                thermometer.temperature_c -= 3.0
            else:
                thermometer.temperature_c += 1.5
            yield sim.timeout(1.0)

    # Monitoring agent on the server side: a notify-driven thermostat
    # with hysteresis, actuating the cooler latch.
    alarms = []
    HYSTERESIS_C = 6.0

    def on_reading(event):
        reading = event.item
        if reading.celsius >= ALARM_THRESHOLD_C and not cooler.pin(COOLER_PIN):
            alarms.append((sim.now, reading))
            print(f"[{sim.now:7.2f}s] ALARM: {reading.sensor} at "
                  f"{reading.celsius:.1f} degC -> cooler ON")
            cooler.transfer(1 << COOLER_PIN)
        elif (reading.celsius <= ALARM_THRESHOLD_C - HYSTERESIS_C
              and cooler.pin(COOLER_PIN)):
            print(f"[{sim.now:7.2f}s] {reading.sensor} back to "
                  f"{reading.celsius:.1f} degC -> cooler off")
            cooler.transfer(0)

    space.notify(SensorReading(sensor="oven-1"), on_reading)

    system.start()
    sim.spawn(sensor_firmware())
    sim.spawn(heat_ramp())
    sim.run(until=600.0)

    print(f"\nspace holds {len(space)} live readings (30 s leases expire)")
    assert alarms, "the ramp must have crossed the threshold"
    alarm_time, reading = alarms[0]
    print(f"alarm fired at t={alarm_time:.2f}s on tick {reading.tick}; "
          f"cooler pin {COOLER_PIN} is "
          f"{'ON' if cooler.pin(COOLER_PIN) else 'off'}")
    print(f"final oven temperature: {thermometer.temperature_c:.1f} degC")


if __name__ == "__main__":
    main()
