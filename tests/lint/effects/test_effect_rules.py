"""True/false positives and suppression for each of the five effect rules."""

from repro.lint.project.engine import lint_paths
from tests.lint.project.projutil import project_config, run_rules, write_project

_PKG = {"src/repro/net/__init__.py": "", "src/repro/obs/__init__.py": ""}


def run(tmp_path, files, select, rule_options=None):
    write_project(tmp_path, {**_PKG, **files})
    return run_rules(tmp_path, select, rule_options=rule_options)


# -- nondet-in-sim ----------------------------------------------------------


def test_nondet_scheduled_callback_is_flagged_at_registration(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/drv.py": """\
                import time

                def sample():
                    return time.time()

                def setup(sim):
                    sim.call_after(1.0, sample)
                """,
        },
        ["nondet-in-sim"],
    )
    assert [f.rule for f in findings] == ["nondet-in-sim"]
    assert findings[0].line == 7
    assert "scheduled callback sample" in findings[0].message
    assert "wall-clock" in findings[0].message


def test_nondet_entry_patterns_cover_configured_functions(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/drv.py": """\
                import os

                def fingerprint(plan):
                    return os.urandom(4)
                """,
        },
        ["nondet-in-sim"],
        rule_options={
            "nondet-in-sim": {"entries": ["repro.net.drv:fingerprint"]}
        },
    )
    assert [f.rule for f in findings] == ["nondet-in-sim"]
    assert "sim-critical entry fingerprint" in findings[0].message


def test_nondet_ignores_deterministic_callbacks(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/drv.py": """\
                def advance(state):
                    state.append(1)

                def setup(sim):
                    sim.call_after(1.0, advance)
                """,
        },
        ["nondet-in-sim"],
    )
    assert findings == []


def test_nondet_suppression_on_the_registration_line(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/net/drv.py": """\
                import time

                def sample():
                    return time.time()

                def setup(sim):
                    sim.call_after(1.0, sample)  # lint: disable=nondet-in-sim
                """,
        },
        ["nondet-in-sim"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["nondet-in-sim"]


# -- unstable-iter-order ----------------------------------------------------


def test_unstable_iteration_reaching_a_sink_reports_the_seed(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/obs/export.py": """\
                def render(rows):
                    return gather(rows)

                def gather(rows):
                    pending = set(rows)
                    return [r for r in pending]
                """,
        },
        ["unstable-iter-order"],
    )
    assert [f.rule for f in findings] == ["unstable-iter-order"]
    assert findings[0].line == 6
    assert "byte-stable sink" in findings[0].message


def test_sorted_iteration_does_not_reach_the_sink_rule(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/obs/export.py": """\
                def render(rows):
                    pending = set(rows)
                    return sorted(pending)
                """,
        },
        ["unstable-iter-order"],
    )
    assert findings == []


def test_unstable_iteration_suppression_at_the_seed(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/obs/export.py": """\
                def render(rows):
                    pending = set(rows)
                    return [r for r in pending]  # lint: disable=unstable-iter-order
                """,
        },
        ["unstable-iter-order"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["unstable-iter-order"]


# -- obs-hook-mutation ------------------------------------------------------


def test_obs_argument_mutation_is_flagged(tmp_path):
    # The pre-refactor MetricRegistry._get pattern: an obs helper that
    # takes a table and writes through it (regression for the fix that
    # keys the lookup by kind instead).
    findings, _s = run(
        tmp_path,
        {
            "src/repro/obs/reg.py": """\
                def get(table, name, factory):
                    if name not in table:
                        table[name] = factory()
                    return table[name]
                """,
        },
        ["obs-hook-mutation"],
    )
    assert [f.rule for f in findings] == ["obs-hook-mutation"]
    assert "mutates argument 'table'" in findings[0].message


def test_obs_call_into_core_mutator_is_flagged(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/space.py": """\
                class Space:
                    def bump(self):
                        self.count = 1
                """,
            "src/repro/obs/hook.py": """\
                from repro.net.space import Space

                def on_frame(space: Space):
                    space.bump()
                """,
        },
        ["obs-hook-mutation"],
    )
    assert [f.rule for f in findings] == ["obs-hook-mutation"]
    assert "calls Space.bump()" in findings[0].message


def test_obs_mutation_inside_core_callees_is_not_an_obs_finding(tmp_path):
    # The smoke-runner regression: a driver in the obs package may call
    # core code that mutates its own arguments internally — that is the
    # callee's contract, not an observability violation.
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/wire.py": """\
                def attach(endpoint, handler):
                    endpoint.on_data = handler
                """,
            "src/repro/obs/driver.py": """\
                from repro.net.wire import attach

                def run_smoke(endpoint):
                    attach(endpoint, print)
                """,
        },
        ["obs-hook-mutation"],
    )
    assert findings == []


def test_obs_mutating_its_own_instance_is_fine(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/obs/rec.py": """\
                class Recorder:
                    def __init__(self):
                        self.events = []

                    def record(self, event):
                        self.events.append(event)
                """,
        },
        ["obs-hook-mutation"],
    )
    assert findings == []


def test_obs_mutation_suppression(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/obs/reg.py": """\
                def get(table, name):
                    table[name] = 1  # lint: disable=obs-hook-mutation
                """,
        },
        ["obs-hook-mutation"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["obs-hook-mutation"]


# -- effect-annotation-drift ------------------------------------------------


def test_pure_annotation_with_any_effect_drifts(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/calc.py": """\
                import time

                def stamp():  # lint: effect=pure
                    return time.time()
                """,
        },
        ["effect-annotation-drift"],
    )
    assert [f.rule for f in findings] == ["effect-annotation-drift"]
    assert "annotated effect=pure" in findings[0].message


def test_sim_safe_allows_benign_effects_but_not_blocking(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/calc.py": """\
                import sys
                import time

                def where():  # lint: effect=sim-safe
                    return sys.platform

                def wait():  # lint: effect=sim-safe
                    time.sleep(0.1)
                """,
        },
        ["effect-annotation-drift"],
    )
    assert len(findings) == 2
    assert all("wait" in f.message for f in findings)
    assert {f.rule for f in findings} == {"effect-annotation-drift"}


def test_truthful_annotations_are_silent_and_transitive_drift_is_not(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/calc.py": """\
                import time

                def double(n):  # lint: effect=pure
                    return 2 * n

                def indirect():  # lint: effect=pure
                    return helper()

                def helper():
                    return time.time()
                """,
        },
        ["effect-annotation-drift"],
    )
    assert len(findings) == 1
    assert "indirect is annotated effect=pure" in findings[0].message


def test_annotation_drift_suppression(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/net/calc.py": """\
                import time

                def stamp():  # lint: effect=pure  # lint: disable=effect-annotation-drift
                    return time.time()
                """,
        },
        ["effect-annotation-drift"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["effect-annotation-drift"]


# -- async-unsafe-call ------------------------------------------------------


def test_async_transitive_blocking_is_flagged(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import time

                def backoff():
                    time.sleep(1.0)

                async def pump():
                    backoff()
                """,
        },
        ["async-unsafe-call"],
    )
    assert [f.rule for f in findings] == ["async-unsafe-call"]
    assert "calls backoff()" in findings[0].message


def test_async_direct_blocking_is_reported_once(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import time

                async def pump():
                    time.sleep(1.0)
                """,
        },
        ["async-unsafe-call"],
    )
    assert [(f.rule, f.line) for f in findings] == [("async-unsafe-call", 4)]
    assert "blocking call time.sleep() inside async def pump" in findings[0].message
    assert "it stalls the event loop" in findings[0].message


def test_async_transitive_blocking_is_one_finding_at_the_call_line(tmp_path):
    # One coroutine calling one blocking helper is one defect: the full
    # default rule set reports it once, where the helper is called.
    write_project(
        tmp_path,
        {
            **_PKG,
            "src/repro/net/aio.py": """\
                def pump(sock):
                    return sock.recv(65536)

                async def tick(sock):
                    return pump(sock)
                """,
        },
    )
    config = project_config(tmp_path)
    reports = lint_paths([tmp_path / "src"], config=config)
    findings = [f for report in reports for f in report.findings]
    assert [(f.rule, f.line) for f in findings] == [("async-unsafe-call", 5)]
    assert "pump()" in findings[0].message
    assert "via sock.recv()" in findings[0].message
    assert findings[0].code_flow[-1][:2] == (2, "sock.recv()")


def test_async_thread_spawn_is_flagged(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import threading

                async def pump(fn):
                    threading.Thread(target=fn).start()
                """,
        },
        ["async-unsafe-call"],
    )
    assert [f.rule for f in findings] == ["async-unsafe-call"]
    assert "spawns OS-scheduled work" in findings[0].message


def test_async_unsafe_suppression(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import time

                def backoff():
                    time.sleep(1.0)

                async def pump():
                    backoff()  # lint: disable=async-unsafe-call
                """,
        },
        ["async-unsafe-call"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["async-unsafe-call"]


def test_async_blocking_direct_call_fires(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import time

                async def tick():
                    time.sleep(0.1)
                """,
        },
        ["async-unsafe-call"],
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.line == 4
    assert "time.sleep()" in finding.message
    assert "event loop" in finding.message


def test_async_blocking_transitive_helper_fires(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                def pump(sock):
                    return sock.recv(65536)

                async def tick(sock):
                    return pump(sock)
                """,
        },
        ["async-unsafe-call"],
    )
    assert len(findings) == 1
    assert "pump()" in findings[0].message
    assert "via sock.recv()" in findings[0].message


def test_await_asyncio_sleep_is_the_correct_idiom(tmp_path):
    findings, _s = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import asyncio

                async def tick():
                    await asyncio.sleep(0.1)
                """,
        },
        ["async-unsafe-call"],
    )
    assert findings == []


def test_async_blocking_suppression(tmp_path):
    findings, suppressed = run(
        tmp_path,
        {
            "src/repro/net/aio.py": """\
                import time

                async def tick():
                    time.sleep(0.1)  # lint: disable=async-unsafe-call
                """,
        },
        ["async-unsafe-call"],
    )
    assert findings == []
    assert [f.rule for f in suppressed] == ["async-unsafe-call"]


_CONN_IN_COROUTINE = {
    "src/repro/net/srv.py": """\
        class Conn:
            def pull(self):
                return self.sock.recv(10)

        class Srv:
            def __init__(self, conn):
                self.conn = conn

            async def tick(self):
                return self.conn.pull()
        """,
}


def _assert_pull_in_coroutine_flagged(findings):
    assert [(f.rule, f.line) for f in findings] == [("async-unsafe-call", 10)]
    finding = findings[0]
    assert "calls self.conn.pull(), which blocks (via self.sock.recv())" in (
        finding.message
    )
    assert finding.code_flow[0][0] == 10
    assert finding.code_flow[-1][:2] == (3, "self.sock.recv()")


def test_blocking_call_through_an_attribute_receiver_in_a_coroutine(tmp_path):
    # ``self.conn.pull()`` has a three-part receiver: the call graph
    # resolves it to Conn.pull, whose recv blocks the event loop.
    findings, _s = run(tmp_path, _CONN_IN_COROUTINE, ["async-unsafe-call"])
    _assert_pull_in_coroutine_flagged(findings)
