"""The transports defects, reduced: the analyzer catches each pre-fix shape.

``repro.core.transports`` was fixed in the same change that added the
concurrency rules; these fixtures replay the *pre-fix* code shapes (and
one tempting wrong fix) to pin down that the rules would have caught
them — the real module staying clean is covered by the repo-wide CLI
test.
"""

import json

from tests.lint.project.projutil import run_rules, write_project


def test_prefix_acceptor_without_joins_is_flagged(tmp_path):
    # The original SocketSpaceServer: a thread per connection, appended
    # to a list nothing ever pruned or joined.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                class Server:
                    def __init__(self, listener):
                        self._listener = listener
                        self._client_threads = []

                    def accept_loop(self):
                        while True:
                            conn, _addr = self._listener.accept()
                            thread = threading.Thread(
                                target=self.serve, args=(conn,), daemon=True
                            )
                            self._client_threads.append(thread)
                            thread.start()

                    def serve(self, conn):
                        conn.close()
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["thread-lifecycle"])
    assert len(findings) == 1
    assert findings[0].rule == "thread-lifecycle"
    assert "join" in findings[0].message


def test_joining_while_holding_the_list_lock_is_flagged(tmp_path):
    # The tempting wrong fix: join the threads inside the same with
    # block that snapshots the list.  A wedged connection would then
    # hold the lock and deadlock the accept loop; the thread-per-
    # connection server's stop() joined outside the lock because of
    # this rule.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                class Server:
                    def __init__(self):
                        self._threads_lock = threading.Lock()
                        self._client_threads = []

                    def stop(self):
                        with self._threads_lock:
                            for thread in self._client_threads:
                                thread.join(timeout=2.0)
                            self._client_threads = []
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    assert len(findings) == 1
    assert "thread.join()" in findings[0].message
    assert "'Server._threads_lock'" in findings[0].message


def test_helper_method_pruning_without_the_lock_is_flagged(tmp_path):
    # Pruning via a helper called with the lock held by the *caller*:
    # the flow facts are per function, so the helper's writes look
    # lock-free — which is exactly why the thread-per-connection
    # server's accept loop pruned inline under the with block instead.
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/srv.py": """
                import threading

                class Server:
                    def __init__(self):
                        self._threads_lock = threading.Lock()
                        self._client_threads = []  # lint: guarded-by=self._threads_lock

                    def register(self, thread):
                        with self._threads_lock:
                            self._prune()
                            self._client_threads.append(thread)

                    def _prune(self):
                        self._client_threads = [
                            t for t in self._client_threads if t.is_alive()
                        ]
                """,
        },
    )
    findings, _s, _stats = run_rules(tmp_path, ["guarded-state"])
    assert len(findings) == 1
    assert "Server._prune" in findings[0].message
    assert "without holding the lock" in findings[0].message


# -- one blocking analysis ----------------------------------------------------

_CONN_UNDER_LOCK = {
    "src/repro/net/__init__.py": "",
    "src/repro/net/srv.py": """
        import threading

        class Conn:
            def pull(self):
                return self.sock.recv(10)

        class Srv:
            def __init__(self, conn):
                self.lock = threading.Lock()
                self.conn = conn

            def tick(self):
                with self.lock:
                    return self.conn.pull()
        """,
}


def _assert_pull_under_lock_flagged(findings):
    assert [(f.rule, f.line) for f in findings] == [("blocking-under-lock", 15)]
    finding = findings[0]
    assert "self.conn.pull() blocks (via self.sock.recv())" in finding.message
    assert "'Srv.lock'" in finding.message
    assert finding.code_flow[0][0] == 15
    assert finding.code_flow[-1][:2] == (6, "self.sock.recv()")


def test_blocking_call_through_an_attribute_receiver_under_lock(tmp_path):
    # ``self.conn.pull()`` has a three-part receiver: the call graph
    # resolves it to Conn.pull, whose recv blocks while the lock is held.
    write_project(tmp_path, _CONN_UNDER_LOCK)
    findings, _s, _stats = run_rules(tmp_path, ["blocking-under-lock"])
    _assert_pull_under_lock_flagged(findings)


def test_version_3_cache_without_blocking_edges_is_rebuilt(tmp_path):
    # A version-3 effects tier has the same project digest but no
    # blocking edges; serving it would silently drop the finding.
    write_project(tmp_path, _CONN_UNDER_LOCK)
    run_rules(tmp_path, ["blocking-under-lock"], use_cache=True)
    cache_file = tmp_path / ".cache.json"
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    del data["effects"]["data"]["blocking_calls"]
    data["version"] = 3
    cache_file.write_text(json.dumps(data), encoding="utf-8")

    findings, _s, stats = run_rules(
        tmp_path, ["blocking-under-lock"], use_cache=True
    )
    assert stats.effects_built == 1
    _assert_pull_under_lock_flagged(findings)
