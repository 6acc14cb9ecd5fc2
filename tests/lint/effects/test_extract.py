"""Per-function effect-seed extraction (repro.lint.effects.extract)."""

import ast
import textwrap

from repro.lint.effects import (
    ENV_READ,
    GLOBAL_MUTATION,
    NONDET_KINDS,
    THREAD_SPAWN,
    UNSTABLE_ITER,
)
from repro.lint.effects.extract import extract_effects
from repro.lint.effects.model import (
    ALL_KINDS,
    OS_ENTROPY,
    REAL_IO,
    WALL_CLOCK,
    blocking_dotted,
)


def test_the_effect_lattice_is_closed():
    assert len(ALL_KINDS) == 8
    assert set(NONDET_KINDS) < set(ALL_KINDS)
    assert {ENV_READ, GLOBAL_MUTATION, THREAD_SPAWN, UNSTABLE_ITER} < set(ALL_KINDS)


def extract(source: str) -> dict:
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    return extract_effects(tree, source, "repro.fixture").get("functions", {})


def kinds_of(record: dict) -> set:
    return set(record.get("effects", {}))


def test_wall_clock_through_module_alias():
    functions = extract(
        """
        import time as t

        def now():
            return t.monotonic()
        """
    )
    assert kinds_of(functions["now"]) == {WALL_CLOCK}
    site = functions["now"]["effects"][WALL_CLOCK][0]
    assert site["what"] == "time.monotonic()"


def test_entropy_and_io_and_threads_seed_their_kinds():
    functions = extract(
        """
        import os
        import socket
        import threading
        from random import random

        def roll():
            return random()

        def fetch(sock):
            return sock.recv(128)

        def spawn(fn):
            t = threading.Thread(target=fn)
            t.start()
            return os.urandom(8)
        """
    )
    assert OS_ENTROPY in kinds_of(functions["roll"])
    assert REAL_IO in kinds_of(functions["fetch"])
    assert {THREAD_SPAWN, OS_ENTROPY} <= kinds_of(functions["spawn"])


def test_blocking_dotted_receiver_guards():
    assert blocking_dotted("time.sleep")
    assert blocking_dotted("sock.recv")
    assert blocking_dotted("worker.join")
    assert not blocking_dotted("os.path.join")  # path, not a thread
    assert not blocking_dotted("cache.get")  # dict-like, not a queue
    assert blocking_dotted("queue.get")
    assert not blocking_dotted("asyncio.sleep")  # suspends, not blocks


def test_seeded_random_stream_is_not_entropy():
    functions = extract(
        """
        import random

        def draw(seed):
            rng = random.Random(seed)
            return rng.random()
        """
    )
    assert OS_ENTROPY not in kinds_of(functions["draw"])


def test_env_reads_cover_calls_and_attributes():
    functions = extract(
        """
        import os
        import sys

        def where():
            return os.getcwd()

        def platform():
            return sys.platform
        """
    )
    assert ENV_READ in kinds_of(functions["where"])
    assert ENV_READ in kinds_of(functions["platform"])


def test_mutation_roots_are_classified_by_ownership():
    functions = extract(
        """
        COUNTS = {}

        def bump_global():
            global TOTAL
            TOTAL = 1

        def bump_argument(table):
            table["x"] = 1

        def bump_module_level():
            COUNTS["x"] = 1

        def bump_local():
            local = {}
            local["x"] = 1
            return local
        """
    )
    whats = {
        name: [s["what"] for s in rec.get("effects", {}).get(GLOBAL_MUTATION, [])]
        for name, rec in functions.items()
    }
    assert whats["bump_global"] == ["writes global 'TOTAL'"]
    assert whats["bump_argument"] == ["mutates argument 'table'"]
    assert whats["bump_module_level"] == ["mutates module-level 'COUNTS'"]
    assert whats["bump_local"] == []


def test_self_writes_recorded_outside_birth_methods_only():
    functions = extract(
        """
        class Box:
            def __init__(self):
                self.items = []

            def put(self, item):
                self.items.append(item)
        """
    )
    assert "self_writes" not in functions["Box.__init__"]
    assert functions["Box.put"]["self_writes"] == [[7, "items"]]
    assert GLOBAL_MUTATION not in kinds_of(functions["Box.put"])


def test_unstable_iteration_over_sets_and_listings():
    functions = extract(
        """
        import os

        def over_set(names):
            pending = set(names)
            return [n for n in pending]

        def converted(names):
            return list(set(names))

        def listing(path):
            return [p for p in os.listdir(path)]

        def sorted_listing(path):
            return sorted(os.listdir(path))

        def sorted_set(names):
            return sorted(set(names))
        """
    )
    assert UNSTABLE_ITER in kinds_of(functions["over_set"])
    assert UNSTABLE_ITER in kinds_of(functions["converted"])
    assert UNSTABLE_ITER in kinds_of(functions["listing"])
    assert UNSTABLE_ITER not in kinds_of(functions["sorted_listing"])
    assert UNSTABLE_ITER not in kinds_of(functions["sorted_set"])


def test_annotations_are_captured_from_the_def_line():
    functions = extract(
        """
        def clean():  # lint: effect=pure
            return 1

        def safeish():  # lint: effect=sim-safe
            return 2

        def plain():
            return 3
        """
    )
    assert functions["clean"]["annotation"] == "pure"
    assert functions["safeish"]["annotation"] == "sim-safe"
    assert "annotation" not in functions["plain"]


def test_scheduler_registrations_capture_the_callback():
    functions = extract(
        """
        def setup(sim, handler):
            sim.call_after(1.0, handler, 42)
            sim.at(2.0, handler)

        def not_a_scheduler(box, handler):
            box.at(2.0, handler)
        """
    )
    assert functions["setup"]["scheduled"] == [["handler", 3], ["handler", 4]]
    assert "scheduled" not in functions["not_a_scheduler"]


def test_every_function_gets_a_record_even_when_pure():
    functions = extract(
        """
        def pure(n):
            return n + 1
        """
    )
    assert "pure" in functions
    assert "effects" not in functions["pure"]


def test_calls_record_raw_names_and_async_flag():
    functions = extract(
        """
        async def pump(queue):
            drain(queue)

        def drain(queue):
            pass
        """
    )
    record = functions["pump"]
    assert record["is_async"] is True
    assert ["drain", 3] in record["calls"]
