"""Full co-simulation (Figure 5): firmware on the board ISS performs a
tuplespace write through every layer of the paper's architecture.

    firmware (stack-machine ISS)          <- the "C++ client"
      | comm ports / gdb-RSP-inspectable  <- Sec. 4.3's gdb link
    SC1 bridge (shared-memory channels)
      | TpWIRE 1-wire bus, master-relayed <- the NS-2-analog bus model
    SC2 bridge
      | socket wrapper (RMI hop timed)    <- Figure 4
    SpaceServer (JavaSpaces analog)

The firmware streams a pre-marshalled WRITE request byte-by-byte out of
its comm port, then *parses the wire-protocol response header* to know
how many reply bytes to read back.  A gdb-style client inspects the board
afterwards, exactly how the SC1 bridge controls the client in the paper.

Run:  python examples/cosim_board_client.py
"""

import struct

from repro.board import GdbClient, TheseusBoard, firmware
from repro.core import (
    LindaTuple,
    Message,
    MessageType,
    SimClock,
    SpaceServer,
    StreamParser,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
    encode_message,
)
from repro.core.server import SimTimers
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge

CLIENT_NODE, SERVER_NODE = 1, 3


def main():
    sim = Simulator(seed=2)
    system = build_bus_system(sim, [CLIENT_NODE, SERVER_NODE], bit_rate=9600.0)
    codec = XmlCodec()
    space = TupleSpace(clock=SimClock(sim), name="javaspace")
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    SimServerHost(sim, server, ServerBridge(sim, system.endpoint(SERVER_NODE)))
    bridge = ClientBridge(sim, system.endpoint(CLIENT_NODE), SERVER_NODE)

    # "Compile" the client: marshal the WRITE request and bake it into
    # board memory next to the firmware.
    entry = LindaTuple("actuator-command", "valve-7", "open")
    request = encode_message(
        Message(MessageType.WRITE, 1, {"lease": 3600}, entry), codec
    )
    blob, symbols = firmware.space_client_program(request, max_response=128)
    board = TheseusBoard(sim, instructions_per_second=200_000.0)
    board.connect_bridge(bridge)
    board.load_firmware(blob)

    print(f"request: {len(request)} wire bytes; firmware: {len(blob)} bytes "
          f"at {board.ips:.0f} instr/s")
    system.start()
    board.start()

    def until_halted():
        while not board.halted:
            yield sim.timeout(0.5)
        system.stop()
        sim.stop()

    sim.spawn(until_halted())
    sim.run(until=600.0)

    assert board.halted, "firmware did not finish"
    print(f"\nboard halted at t={sim.now:.2f}s of simulated time")
    print(f"bus carried {system.bus.tx_frames} TX frames")
    stored = space.read_if_exists(TupleTemplate("actuator-command", str, str))
    print(f"space now holds {len(space)} item(s); stored: {stored}")

    # Inspect the board over the gdb-RSP stub, as SC1 does in the paper.
    gdb = GdbClient(board.stub)
    registers = gdb.read_registers()
    total = struct.unpack("<i", gdb.read_memory(symbols["total"], 4))[0]
    raw = gdb.read_memory(symbols["response"], total)
    reply = StreamParser(codec).feed(raw)[0]
    print(f"\nvia gdb stub: pc={registers['pc']:#x}, "
          f"cycles={registers['cycles']}")
    print(f"response read from board memory: {reply.msg_type.name} "
          f"(request {reply.request_id}), lease id "
          f"{reply.param_int('lease_id')}")


if __name__ == "__main__":
    main()
