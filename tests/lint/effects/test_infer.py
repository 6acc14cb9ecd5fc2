"""Fixpoint propagation, witnesses and the effects cache tier."""

import json

from repro.lint.effects.infer import infer_effects
from repro.lint.effects.model import REAL_IO, WALL_CLOCK
from repro.lint.project.engine import build_index

from tests.lint.project.projutil import project_config, run_rules, write_project


def index_for(tmp_path, files, rule_options=None):
    write_project(tmp_path, files)
    config = project_config(tmp_path, rule_options)
    return build_index([tmp_path / "src"], config, use_cache=False)


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


_SIM_FIXTURE = {
    "src/repro/net/__init__.py": "",
    "src/repro/net/drv.py": """\
        import socket

        def probe(host):
            sock = socket.socket()
            sock.sendall(b"x")

        def setup(sim):
            sim.call_after(1.0, probe)
        """,
}


def _effect_run(tmp_path, rule_options=None):
    return run_rules(
        tmp_path,
        ["nondet-in-sim"],
        rule_options=rule_options,
        use_cache=True,
    )


def test_warm_run_reuses_the_inferred_effects(tmp_path):
    write_project(tmp_path, _SIM_FIXTURE)
    cold_findings, _s, cold_stats = _effect_run(tmp_path)
    warm_findings, _s, warm_stats = _effect_run(tmp_path)
    assert [f.message for f in cold_findings] == [f.message for f in warm_findings]
    assert cold_stats.effects_built == 1 and cold_stats.effects_reused == 0
    assert warm_stats.effects_built == 0 and warm_stats.effects_reused == 1


def test_warm_cache_rerun_reproduces_findings(tmp_path):
    write_project(tmp_path, _SIM_FIXTURE)
    cold, _s, cold_stats = _effect_run(tmp_path)
    warm, _s, warm_stats = _effect_run(tmp_path)
    assert [f.as_dict() for f in warm] == [f.as_dict() for f in cold]
    assert len(warm) == 1
    assert warm[0].code_flow  # the witness path survives the cache
    assert warm_stats.parsed == 0  # everything served from cache
    assert cold_stats.parsed > 0


def test_option_change_invalidates_the_effects_digest(tmp_path):
    write_project(tmp_path, _SIM_FIXTURE)
    _effect_run(tmp_path)
    _f, _s, stats = _effect_run(
        tmp_path, rule_options={"effects": {"cha-cap": 4}}
    )
    assert stats.effects_built == 1 and stats.effects_reused == 0


def test_file_change_invalidates_the_effects_digest(tmp_path):
    write_project(tmp_path, _SIM_FIXTURE)
    findings, _s, _stats = _effect_run(tmp_path)
    assert len(findings) == 1
    drv = tmp_path / "src/repro/net/drv.py"
    drv.write_text(
        "def probe(host):\n"
        "    return host\n"
        "\n"
        "def setup(sim):\n"
        "    sim.call_after(1.0, probe)\n",
        encoding="utf-8",
    )
    findings, _s, stats = _effect_run(tmp_path)
    assert stats.effects_built == 1 and stats.effects_reused == 0
    assert findings == []


def test_cache_version_bump_rebuilds_the_effects(tmp_path):
    write_project(tmp_path, _SIM_FIXTURE)
    _effect_run(tmp_path)
    cache_file = tmp_path / ".cache.json"
    stale = json.loads(cache_file.read_text(encoding="utf-8"))
    stale["version"] = stale["version"] - 1
    cache_file.write_text(json.dumps(stale), encoding="utf-8")
    _f, _s, stats = _effect_run(tmp_path)
    assert stats.effects_built == 1 and stats.effects_reused == 0


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
