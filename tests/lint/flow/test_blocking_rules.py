"""blocking-under-lock, cond-wait-loop, async-unsafe-call, thread-lifecycle.

True-positive + true-negative + suppression for each, through the full
project pass (see ``test_lock_rules`` for the lock-shaped half).
"""

from repro.lint.findings import Severity
from tests.lint.project.projutil import run_rules, write_project


# -- blocking-under-lock ----------------------------------------------------


def test_blocking_under_lock_direct_call_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading
                import time

                LOCK = threading.Lock()

                def tick():
                    with LOCK:
                        time.sleep(0.1)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.ERROR
    assert finding.line == 9
    assert "time.sleep()" in finding.message
    assert "'LOCK'" in finding.message


def test_blocking_under_lock_transitive_call_chain_fires(tmp_path):
    # tick() never blocks itself — it calls pump(), which calls recv.
    # The effects fixpoint attributes the recv to pump, so the call made
    # under the lock is flagged.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                LOCK = threading.Lock()

                def pump(sock):
                    return sock.recv(65536)

                def tick(sock):
                    with LOCK:
                        return pump(sock)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert len(findings) == 1
    assert "pump() blocks (via sock.recv())" in findings[0].message


def test_blocking_outside_lock_is_clean(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading
                import time

                LOCK = threading.Lock()

                def tick(n):
                    with LOCK:
                        n += 1
                    time.sleep(0.1)
                    return n
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert findings == []


def test_blocking_under_lock_allow_option(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading
                import time

                LOCK = threading.Lock()

                def tick():
                    with LOCK:
                        time.sleep(0.1)
                """,
        },
    )
    findings, _s, _stats = run_rules(
        tmp_path,
        ["blocking-under-lock"],
        rule_options={"blocking-under-lock": {"allow": ["time.sleep"]}},
    )
    assert findings == []


def test_blocking_under_lock_suppression(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading
                import time

                LOCK = threading.Lock()

                def tick():
                    with LOCK:
                        time.sleep(0.1)  # lint: disable=blocking-under-lock
                """,
        },
    )
    findings, suppressed, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert findings == []
    assert [f.rule for f in suppressed] == ["blocking-under-lock"]


def test_condition_wait_under_its_lock_is_not_blocking(tmp_path):
    # cond.wait() releases the lock while waiting — the whole point of a
    # Condition — so blocking-under-lock must not flag it.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                COND = threading.Condition()

                def take(ready):
                    with COND:
                        while not ready():
                            COND.wait()
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert findings == []


# -- cond-wait-loop ---------------------------------------------------------


def test_cond_wait_outside_loop_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                COND = threading.Condition()

                def take(ready):
                    with COND:
                        if not ready():
                            COND.wait()
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["cond-wait-loop"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.line == 9
    assert "spurious" in finding.message


def test_cond_wait_in_while_loop_is_clean(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                COND = threading.Condition()

                def take(ready):
                    with COND:
                        while not ready():
                            COND.wait()
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["cond-wait-loop"])
    assert findings == []


def test_cond_wait_loop_suppression(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                COND = threading.Condition()

                def take_once():
                    with COND:
                        COND.wait()  # lint: disable=cond-wait-loop
                """,
        },
    )
    findings, suppressed, _stats = run_rules(tmp_path, ["cond-wait-loop"])
    assert findings == []
    assert [f.rule for f in suppressed] == ["cond-wait-loop"]


# -- async-unsafe-call (the blocking half) ----------------------------------


def test_async_blocking_direct_call_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/aio.py": """
                import time

                async def tick():
                    time.sleep(0.1)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["async-unsafe-call"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.line == 5
    assert "time.sleep()" in finding.message
    assert "event loop" in finding.message


def test_async_blocking_transitive_helper_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/aio.py": """
                def pump(sock):
                    return sock.recv(65536)

                async def tick(sock):
                    return pump(sock)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["async-unsafe-call"])
    assert len(findings) == 1
    assert "pump()" in findings[0].message
    assert "via sock.recv()" in findings[0].message


def test_await_asyncio_sleep_is_the_correct_idiom(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/aio.py": """
                import asyncio

                async def tick():
                    await asyncio.sleep(0.1)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["async-unsafe-call"])
    assert findings == []


def test_async_blocking_suppression(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/aio.py": """
                import time

                async def tick():
                    time.sleep(0.1)  # lint: disable=async-unsafe-call
                """,
        },
    )
    findings, suppressed, _stats = run_rules(tmp_path, ["async-unsafe-call"])
    assert findings == []
    assert [f.rule for f in suppressed] == ["async-unsafe-call"]


# -- thread-lifecycle -------------------------------------------------------


def test_thread_created_but_never_joined_warns(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                def start(fn):
                    thread = threading.Thread(target=fn, daemon=True)
                    thread.start()
                    return thread
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["thread-lifecycle"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity is Severity.WARNING
    assert finding.line == 5
    assert "join" in finding.message


def test_thread_joined_somewhere_in_module_is_clean(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                def start(fn):
                    thread = threading.Thread(target=fn, daemon=True)
                    thread.start()
                    return thread

                def stop(thread):
                    thread.join(timeout=2.0)
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["thread-lifecycle"])
    assert findings == []


def test_timer_is_not_a_tracked_thread(tmp_path):
    # One-shot timers are join-less by design (the lease machinery
    # depends on that); only Thread creations demand a join.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                def later(fn, delay):
                    timer = threading.Timer(delay, fn)
                    timer.start()
                    return timer
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["thread-lifecycle"])
    assert findings == []


def test_thread_lifecycle_suppression(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                def start(fn):
                    t = threading.Thread(target=fn)  # lint: disable=thread-lifecycle
                    t.start()
                    return t
                """,
        },
    )
    findings, suppressed, _stats = run_rules(tmp_path, ["thread-lifecycle"])
    assert findings == []
    assert [f.rule for f in suppressed] == ["thread-lifecycle"]
