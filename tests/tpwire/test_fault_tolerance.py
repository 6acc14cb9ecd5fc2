"""Fault injection on the transport: the FIFO recovery protocol.

Destructive FIFO registers break under blind retry: a garbled reply to a
pop skips a byte, a garbled acknowledgement to a push duplicates one.
The poller therefore distinguishes the two failure modes (TIMEOUT = the
slave never executed the frame; CRC_ERROR = it executed but the reply was
lost) and uses the OUT_LAST repeat register / optimistic acknowledgement.
"""

import pytest

from repro.des import Simulator
from repro.obs import Observability
from repro.tpwire import (
    BitErrorModel,
    BusTiming,
    Command,
    MailboxDevice,
    MasterPoller,
    TpwireBus,
    TpwireMaster,
    TpwireSlave,
    TransportEndpoint,
)
from repro.tpwire.transport import LinkMessage, TransportFabric


def build_noisy(p_rx=0.0, p_tx=0.0, seed=11, node_ids=(1, 2)):
    sim = Simulator(seed=seed)
    timing = BusTiming(bit_rate=2400)
    error_model = BitErrorModel(sim, p_tx=p_tx, p_rx=p_rx)
    bus = TpwireBus(sim, timing, error_model)
    master = TpwireMaster(sim, bus)
    fabric = TransportFabric()
    endpoints = {}
    for node_id in node_ids:
        slave = TpwireSlave(sim, node_id, timing)
        mailbox = MailboxDevice()
        slave.attach_device(mailbox)
        bus.attach_slave(slave)
        endpoints[node_id] = TransportEndpoint(sim, fabric, mailbox, node_id)
    poller = MasterPoller(sim, master, fabric, list(node_ids))
    return sim, endpoints, poller


PAYLOAD = bytes(range(200))


class TestRecoveryUnderRxErrors:
    @pytest.mark.parametrize("p_rx", [0.02, 0.05, 0.10])
    def test_payload_survives_reply_corruption(self, p_rx):
        sim, endpoints, poller = build_noisy(p_rx=p_rx)
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=300.0)
        assert received == [PAYLOAD]  # byte-exact despite corruption

    def test_repeat_register_was_used(self):
        sim, endpoints, poller = build_noisy(p_rx=0.10)
        endpoints[2].on_data = lambda s, d, c: None
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=300.0)
        assert poller.recovered_bytes > 0

    def test_optimistic_acks_counted(self):
        sim, endpoints, poller = build_noisy(p_rx=0.10)
        endpoints[2].on_data = lambda s, d, c: None
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=300.0)
        assert poller.optimistic_acks > 0

    def test_clean_line_uses_no_recovery(self):
        sim, endpoints, poller = build_noisy(p_rx=0.0)
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=300.0)
        assert received == [PAYLOAD]
        assert poller.recovered_bytes == 0
        assert poller.optimistic_acks == 0


class TestRecoveryUnderTxErrors:
    def test_payload_survives_request_corruption(self):
        """TX corruption means the slave never executed: plain resending
        is safe and the payload arrives byte-exact."""
        sim, endpoints, poller = build_noisy(p_tx=0.05)
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=600.0)
        assert received == [PAYLOAD]

    def test_mixed_corruption(self):
        sim, endpoints, poller = build_noisy(p_rx=0.04, p_tx=0.04)
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        poller.start()
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=600.0)
        assert received == [PAYLOAD]


class TestWatchdogResetRecovery:
    def test_message_survives_slave_resets(self):
        """Regression: a quiet bus trips the 2048-bit watchdog; the reset
        wipes the FLAGS register, so without the device on_reset hook a
        queued message became invisible to the poller forever."""
        sim, endpoints, poller = build_noisy()
        poller.idle_delay = 3.0  # > reset timeout (2048/2400 = 0.85 s)
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        poller.start()
        sim.after(10.0, lambda: endpoints[1].send(2, b"after-reset"))
        sim.run(until=60.0)
        assert received == [b"after-reset"]

    def test_slaves_really_reset_during_idle(self):
        sim, endpoints, poller = build_noisy()
        poller.idle_delay = 3.0
        poller.start()
        sim.run(until=30.0)
        # The idle gaps exceed the watchdog period repeatedly.
        from repro.tpwire import BusTiming
        assert all(
            ep.mailbox._slave.resets > 0 for ep in endpoints.values()
        )

    def test_fast_polling_avoids_resets(self):
        sim, endpoints, poller = build_noisy()
        poller.start()  # back-to-back polling keeps watchdogs fed
        sim.run(until=30.0)
        assert all(
            ep.mailbox._slave.resets == 0 for ep in endpoints.values()
        )


class TestNoisyCaseStudy:
    def test_case_study_completes_on_noisy_line(self):
        from repro.cosim import CaseStudyConfig, CaseStudyScenario

        result = CaseStudyScenario(
            CaseStudyConfig(rx_error_probability=0.05)
        ).run(max_sim_time=4000.0)
        assert result.completed
        # Errors cost time but not correctness.
        clean = CaseStudyScenario(CaseStudyConfig()).run(max_sim_time=4000.0)
        assert result.elapsed_seconds > clean.elapsed_seconds
        assert result.elapsed_seconds < clean.elapsed_seconds * 1.5


class ScriptedFaults:
    """Error model that garbles chosen cycles of the bus it is given.

    ``faults`` maps a cycle number (the bus's 1-based ``cycles`` count)
    to ``"tx"`` (the TX frame is garbled: no slave executes it, and the
    master times out) or ``"rx"`` (the slave executed the frame and its
    reply is garbled: a CRC error at the master).
    """

    def __init__(self, faults):
        self.faults = faults
        self.bus = None

    def corrupt_tx(self):
        return self.faults.get(self.bus.cycles) == "tx"

    def corrupt_rx(self):
        return self.faults.get(self.bus.cycles) == "rx"


#: One 20-byte send: one link message of 27 wire bytes, read as a 5-byte
#: header burst and a 22-byte burst, written as one 27-byte burst.
SCRIPTED_PAYLOAD = bytes(range(100, 120))


def run_scripted(faults, until=3.0):
    """Relay SCRIPTED_PAYLOAD from node 1 to node 2 with ``faults``.

    Stops at the delivery (or at ``until``).  Returns the TX frames of
    every cycle as ``(command, data)``, the delivered payloads and the
    poller.
    """
    sim = Simulator(seed=11)
    obs = Observability(trace_categories=("tpwire",))
    obs.bind_clock(lambda: sim.now)
    timing = BusTiming(bit_rate=2400)
    errors = ScriptedFaults(faults)
    bus = TpwireBus(sim, timing, errors, obs=obs)
    errors.bus = bus
    master = TpwireMaster(sim, bus)
    fabric = TransportFabric()
    endpoints = {}
    for node_id in (1, 2):
        slave = TpwireSlave(sim, node_id, timing)
        slave.attach_device(mailbox := MailboxDevice())
        bus.attach_slave(slave)
        endpoints[node_id] = TransportEndpoint(sim, fabric, mailbox, node_id)
    poller = MasterPoller(sim, master, fabric, [1, 2])
    delivered = []

    def on_data(_src, data, _ctx):
        delivered.append(data)
        sim.stop()

    endpoints[2].on_data = on_data
    poller.start()
    endpoints[1].send(2, SCRIPTED_PAYLOAD)
    sim.run(until=until)
    frames = [
        (Command[event.fields["cmd"]], event.fields["data"])
        for event in obs.tracer.named("tpwire", "tx")
    ]
    return frames, delivered, poller


def bursts(frames, register):
    """Cycle numbers of each run of READ_DATA or WRITE_DATA cycles that
    follows a WRITE_ADDR to ``register``."""
    found = []
    pointer = current = None
    for number, (cmd, data) in enumerate(frames, 1):
        if cmd is Command.WRITE_ADDR:
            pointer, current = data, None
        elif cmd in (Command.READ_DATA, Command.WRITE_DATA):
            if current is None:
                current = []
                if pointer == register:
                    found.append(current)
            current.append(number)
        else:
            current = None
    return found


@pytest.fixture(scope="module")
def clean_run():
    frames, delivered, poller = run_scripted({})
    assert delivered == [SCRIPTED_PAYLOAD]
    header, rest = bursts(frames, MailboxDevice.OUT_DATA)
    (write,) = bursts(frames, MailboxDevice.IN_DATA)
    assert (len(header), len(rest), len(write)) == (5, 22, 27)
    return {
        "frames": frames,
        "transactions": poller.master.transactions,
        "header": header,
        "rest": rest,
        "write": write,
    }


#: The cycles the poller adds to recover a byte whose reply was garbled.
RECOVERY = [
    (Command.WRITE_ADDR, MailboxDevice.OUT_LAST),
    (Command.READ_DATA, 0),
    (Command.WRITE_ADDR, MailboxDevice.OUT_DATA),
]


class TestScriptedFifoFaults:
    """Chosen cycles of one relay burst fail; the frames that follow,
    the counters and the delivered bytes are checked against the same
    relay on a clean line."""

    def test_timeout_mid_burst_resends_the_same_frame(self, clean_run):
        cycle = clean_run["rest"][11]
        frames, delivered, poller = run_scripted({cycle: "tx"})
        clean = clean_run["frames"]
        assert frames == clean[:cycle] + clean[cycle - 1:]
        assert delivered == [SCRIPTED_PAYLOAD]
        assert poller.master.transactions == clean_run["transactions"] + 1
        assert poller.master.bus.timeouts == 1
        assert (poller.recovered_bytes, poller.master.retries) == (0, 0)

    def test_seven_timeouts_still_deliver(self, clean_run):
        first = clean_run["write"][4]
        frames, delivered, poller = run_scripted(
            {first + i: "tx" for i in range(7)}
        )
        clean = clean_run["frames"]
        assert frames == clean[:first] + [clean[first - 1]] * 7 + clean[first:]
        assert delivered == [SCRIPTED_PAYLOAD]
        assert poller.master.transactions == clean_run["transactions"] + 7
        assert poller.bus_errors == 0

    @pytest.mark.parametrize("burst", ["rest", "write"])
    def test_eight_consecutive_failures_raise_bus_error(self, clean_run, burst):
        first = clean_run[burst][4]
        frames, delivered, poller = run_scripted(
            {first + i: "tx" for i in range(8)}, until=1.5
        )
        clean = clean_run["frames"]
        # The eighth TIMEOUT of one byte ends the visit; the poller moves
        # on to the next slave, whose visit starts with a SELECT.
        assert frames[:first + 7] == clean[:first] + [clean[first - 1]] * 7
        assert frames[first + 7][0] is Command.SELECT
        assert poller.bus_errors >= 1
        assert delivered == []

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("burst", ["header", "rest"])
    def test_read_crc_error_recovers_from_out_last(self, clean_run, burst, position):
        cycles = clean_run[burst]
        cycle = {
            "first": cycles[0], "middle": cycles[len(cycles) // 2], "last": cycles[-1],
        }[position]
        frames, delivered, poller = run_scripted({cycle: "rx"})
        clean = clean_run["frames"]
        assert frames == clean[:cycle] + RECOVERY + clean[cycle:]
        assert delivered == [SCRIPTED_PAYLOAD]
        assert poller.recovered_bytes == 1
        assert poller.master.transactions == clean_run["transactions"] + 3
        assert poller.master.retries == 0

    def test_write_crc_error_counts_as_delivered(self, clean_run):
        cycle = clean_run["write"][10]
        frames, delivered, poller = run_scripted({cycle: "rx"})
        assert frames == clean_run["frames"]
        assert delivered == [SCRIPTED_PAYLOAD]
        assert poller.optimistic_acks == 1
        assert poller.master.transactions == clean_run["transactions"]
        assert poller.master.bus.crc_errors == 1


class TestOutboxUnderrun:
    """A burst that reads past the end of an outbox gets the slave's
    ERROR reply, whose DATA is a status byte, not mailbox data."""

    def test_read_past_the_end_is_a_bus_error_not_data(self):
        sim, endpoints, poller = build_noisy()
        received = []
        endpoints[2].on_data = lambda s, d, c: received.append(d)
        # A message whose last three bytes never reach the outbox: its
        # header promises more bytes than the burst can pop.
        mailbox = endpoints[1].mailbox
        wire = LinkMessage(2, 1, 1, 0, b"truncated").encode()
        mailbox._outbound.extend(wire[:-3])
        mailbox._update_flags()
        poller.start()
        sim.run(until=5.0)
        assert poller.bus_errors == 1
        assert poller.master.errors_signaled == 1
        # No status byte was taken for data, so nothing reached the CRC.
        assert poller.dropped_messages == 0
        assert received == []
        # The poller keeps relaying after the failed burst.
        endpoints[1].send(2, PAYLOAD)
        sim.run(until=120.0)
        assert received == [PAYLOAD]
