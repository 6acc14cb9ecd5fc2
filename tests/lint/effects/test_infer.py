"""Fixpoint propagation and witnesses."""

from repro.lint.effects.infer import infer_effects
from repro.lint.effects.model import REAL_IO, WALL_CLOCK
from repro.lint.project.engine import build_index

from tests.lint.project.projutil import project_config, write_project


def index_for(tmp_path, files, rule_options=None):
    write_project(tmp_path, files)
    config = project_config(tmp_path, rule_options)
    return build_index([tmp_path / "src"], config)


_CHAIN = {
    "src/repro/net/__init__.py": "",
    "src/repro/net/deep.py": """\
        import time

        def top():
            middle()

        def middle():
            bottom()

        def bottom():
            return time.time()
        """,
}


def test_effects_propagate_up_the_call_chain(tmp_path):
    effects = infer_effects(index_for(tmp_path, _CHAIN))
    for qual in ("top", "middle", "bottom"):
        assert WALL_CLOCK in effects.effects_of(f"repro.net.deep:{qual}")


def test_witness_walks_the_cause_chain_to_the_seed(tmp_path):
    effects = infer_effects(index_for(tmp_path, _CHAIN))
    steps = effects.witness("repro.net.deep:top", WALL_CLOCK)
    assert [note for _line, note, _path in steps] == [
        "calls middle()",
        "calls bottom()",
        "time.time()",
    ]
    assert all(path.endswith("deep.py") for _line, _note, path in steps)


def test_mutual_recursion_reaches_the_shared_fixpoint(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/loop.py": """\
                import time

                def ping(n):
                    if n:
                        pong(n - 1)

                def pong(n):
                    time.sleep(0.1)
                    ping(n)
                """,
        },
    )
    effects = infer_effects(index)
    # pong seeds wall-clock (sleep); ping must inherit it through the
    # cycle, and the pair must not oscillate forever.
    assert WALL_CLOCK in effects.effects_of("repro.net.loop:ping")
    assert WALL_CLOCK in effects.effects_of("repro.net.loop:pong")


def test_assume_pure_drops_seeds_and_propagation(tmp_path):
    index = index_for(
        tmp_path,
        _CHAIN,
        rule_options={"effects": {"assume-pure": ["repro.net.deep:bottom"]}},
    )
    effects = infer_effects(index)
    assert effects.effects_of("repro.net.deep:bottom") == {}
    assert effects.effects_of("repro.net.deep:top") == {}


def test_barrier_keeps_local_seeds_but_stops_propagation(tmp_path):
    index = index_for(
        tmp_path,
        _CHAIN,
        rule_options={"effects": {"barrier": ["repro.net.deep:bottom"]}},
    )
    effects = infer_effects(index)
    assert WALL_CLOCK in effects.effects_of("repro.net.deep:bottom")
    assert effects.effects_of("repro.net.deep:middle") == {}
    assert effects.effects_of("repro.net.deep:top") == {}


def test_barrier_resolves_the_transport_seam(tmp_path):
    # The repo-level scenario behind the pyproject `barrier` entry: a
    # protocol with one sim and one real implementation, dispatched
    # through the hierarchy fallback.  Without the barrier the real
    # socket poisons the scheduled callback; with it the sim path is
    # clean while the real implementation keeps its own seed.
    files = {
        "src/repro/net/__init__.py": "",
        "src/repro/net/conn.py": """\
            import socket

            class LocalConnection:
                def recv_frame(self):
                    return b""

            class SocketConnection:
                def recv_frame(self):
                    sock = socket.socket()
                    return sock.recv(64)
            """,
        "src/repro/net/client.py": """\
            def await_response(conn):
                return conn.recv_frame()

            def setup(sim, conn):
                sim.call_after(1.0, await_response)
            """,
    }
    index = index_for(tmp_path, files)
    effects = infer_effects(index)
    assert REAL_IO in effects.effects_of("repro.net.client:await_response")

    index = index_for(
        tmp_path,
        files,
        rule_options={
            "effects": {"barrier": ["repro.net.conn:SocketConnection.*"]}
        },
    )
    effects = infer_effects(index)
    assert REAL_IO not in effects.effects_of("repro.net.client:await_response")
    assert REAL_IO in effects.effects_of(
        "repro.net.conn:SocketConnection.recv_frame"
    )
