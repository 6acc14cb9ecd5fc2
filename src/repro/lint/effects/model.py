"""The effect lattice and the curated seed tables.

An *effect* is an observable a function may produce that the simulated
stack must keep away from sim-critical paths.  Effects form a powerset
lattice over eight kinds (join is set union), so interprocedural
propagation is a monotone fixpoint:

``wall-clock``
    Reads the OS clock (``time.*``, ``datetime.now`` family).
``os-entropy``
    Draws from unseeded OS randomness (module-level ``random.*``,
    ``os.urandom``, ``secrets``, ``uuid.uuid1/uuid4``).
``real-io``
    Talks to the world: sockets, subprocesses, ``select``, raw fd I/O.
    Writing to an injected file object is *not* real-io — that is how
    the tracer emits deterministically.
``thread-spawn``
    Creates threads/processes/executors (scheduling is OS-dependent).
``env-read``
    Reads host identity: ``os.environ``, ``sys.argv``, ``platform``,
    pids, hostnames, CPU counts.
``global-mutation``
    Writes state that outlives the call and is not ``self``: module
    globals, foreign-module attributes, or attributes of arguments.
``unstable-iteration``
    Iterates a hash-ordered or OS-ordered collection (sets,
    ``os.listdir``/``glob``) without ``sorted()``.
``blocking``
    May park the calling thread (socket I/O, ``sleep``, thread joins,
    queue ``get``/``put``; see :func:`blocking_dotted`).

Seed classification is *name-based over alias-normalised dotted calls*:
extraction rewrites ``import time as t; t.monotonic()`` to
``time.monotonic`` before consulting these tables, so the tables stay
alias-free.  A seeded ``random.Random(seed)`` instance is deliberately
not entropy — drawing from it is the repo's sanctioned determinism
idiom (``repro.des.random_streams``).
"""

from __future__ import annotations

import re
from typing import Optional

from repro.lint.rules.wall_clock import DATETIME_ATTRS, TIME_ATTRS

WALL_CLOCK = "wall-clock"
OS_ENTROPY = "os-entropy"
REAL_IO = "real-io"
THREAD_SPAWN = "thread-spawn"
ENV_READ = "env-read"
GLOBAL_MUTATION = "global-mutation"
UNSTABLE_ITER = "unstable-iteration"
BLOCKING = "blocking"

ALL_KINDS = (
    WALL_CLOCK,
    OS_ENTROPY,
    REAL_IO,
    THREAD_SPAWN,
    ENV_READ,
    GLOBAL_MUTATION,
    UNSTABLE_ITER,
    BLOCKING,
)

#: Kinds that make a run irreproducible outright — what ``nondet-in-sim``
#: forbids below scheduler/trace/fingerprint entries.
NONDET_KINDS = frozenset({WALL_CLOCK, OS_ENTROPY, REAL_IO})

#: What a ``# lint: effect=sim-safe`` annotation promises the function
#: (and its callees) never do.
SIM_SAFE_FORBIDDEN = frozenset({WALL_CLOCK, OS_ENTROPY, REAL_IO, BLOCKING})

#: Stdlib modules whose aliases extraction normalises before lookup.
TRACKED_MODULES = (
    "time",
    "datetime",
    "random",
    "os",
    "os.path",
    "sys",
    "secrets",
    "uuid",
    "socket",
    "subprocess",
    "select",
    "selectors",
    "platform",
    "threading",
    "multiprocessing",
    "concurrent.futures",
    "glob",
)

#: Module-level ``random`` draws (entropy unless the module was seeded —
#: statically unknowable, so over-approximated as entropy; the sanctioned
#: idiom is a seeded ``random.Random`` instance, which never matches).
RANDOM_DRAWS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Exact dotted names that are entropy regardless of arguments.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "random.SystemRandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Exact dotted names that reach the real world.
REAL_IO_CALLS = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
        "socket.socketpair",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "socket.gethostbyaddr",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "select.select",
        "select.poll",
        "select.epoll",
        "selectors.DefaultSelector",
        "os.read",
        "os.write",
        "os.pipe",
        "os.popen",
        "os.system",
        "os.fork",
    }
)

#: Method tails that are socket I/O on any receiver (no other common
#: Python object spells these).
SOCKET_TAILS_ALWAYS = frozenset({"sendall", "sendto", "recvfrom", "recv_into"})

#: Method tails that are socket I/O only on a socket-looking receiver —
#: ``conn.recv`` in the real-socket server counts, a simulated
#: ``link.connect`` does not.
SOCKET_TAILS_GUARDED = frozenset({"recv", "accept", "bind", "listen"})

SOCKISH_RE = re.compile(r"(sock|socket|listener)", re.IGNORECASE)

#: Thread/process/executor constructors (``threading.Timer`` included:
#: *any* OS-scheduled execution is nondeterministic relative to sim
#: time).
THREAD_SPAWN_CALLS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "multiprocessing.Process",
        "multiprocessing.Pool",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
    }
)

#: Host-identity reads (calls).
ENV_READ_CALLS = frozenset(
    {
        "os.getenv",
        "os.getcwd",
        "os.getpid",
        "os.getppid",
        "os.uname",
        "os.cpu_count",
        "os.getlogin",
        "platform.system",
        "platform.node",
        "platform.machine",
        "platform.platform",
        "platform.python_version",
        "platform.release",
        "socket.gethostname",
        "socket.getfqdn",
    }
)

#: Host-identity reads (plain attribute access, no call needed).
ENV_READ_ATTRS = frozenset({"os.environ", "sys.argv", "sys.platform"})

#: OS-ordered listing calls — unstable unless wrapped in ``sorted()``.
UNORDERED_OS_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Method tail for ``Path.iterdir()`` — OS-ordered on any receiver.
UNORDERED_OS_TAILS = frozenset({"iterdir"})

#: ``# lint: effect=pure`` / ``# lint: effect=sim-safe`` on the def line.
ANNOTATION_RE = re.compile(r"#\s*lint:\s*effect=(pure|sim-safe)\b")

#: Scheduler registration tails: ``fn`` is the second positional arg.
#: ``call_at``/``call_after`` are distinctive; bare ``at``/``after``
#: additionally need a simulator-looking receiver.
SCHEDULE_TAILS_ALWAYS = frozenset({"call_at", "call_after"})
SCHEDULE_TAILS_GUARDED = frozenset({"at", "after"})
SIMISH_RE = re.compile(r"(sim|sched|env)", re.IGNORECASE)

#: Call tails treated as blocking primitives: the ``blocking`` seeds
#: behind ``async-unsafe-call``.  ``join`` and the queue verbs
#: additionally require a thread/queue-looking receiver so
#: ``os.path.join`` / ``dict.get`` stay out.
BLOCKING_TAILS = frozenset(
    {
        "sleep",
        "recv",
        "recvfrom",
        "recv_into",
        "sendall",
        "sendto",
        "accept",
        "connect",
        "select",
        "getaddrinfo",
        "gethostbyname",
        "wait",
        "join",
        "get",
        "put",
    }
)

_RECEIVER_GUARDED_TAILS = frozenset({"join", "get", "put"})
_THREADISH_RE = re.compile(r"(thread|proc|worker|pool|queue)", re.IGNORECASE)

#: Async frameworks whose same-named primitives suspend instead of
#: blocking — ``await asyncio.sleep(...)`` is the *correct* async idiom.
_ASYNC_NAMESPACES = frozenset({"asyncio", "anyio", "trio", "curio"})

#: Method tails that mutate their receiver — ``arg.items.append(...)``
#: counts as a write to ``arg.items``.
MUTATOR_TAILS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
    }
)


def blocking_dotted(name: str) -> bool:
    """Is the dotted call name a curated blocking primitive?  (Also
    consulted by ``async-unsafe-call``, which re-checks the names
    stored in summaries.)"""
    parts = name.split(".")
    tail = parts[-1]
    if tail not in BLOCKING_TAILS:
        return False
    if len(parts) > 1 and parts[0] in _ASYNC_NAMESPACES:
        return False
    if tail in _RECEIVER_GUARDED_TAILS:
        receiver = parts[-2] if len(parts) > 1 else ""
        if not _THREADISH_RE.search(receiver):
            return False
    return True


def classify_call(name: str, argc: int) -> list[tuple[str, str]]:
    """Effect seeds of one alias-normalised dotted call.

    ``argc`` is the positional-argument count — ``random.seed()`` with
    no argument seeds from the OS, ``random.seed(x)`` is deterministic.
    Returns ``[(kind, what), ...]`` (one call can seed several kinds:
    ``time.sleep`` is wall-clock *and* blocking).
    """
    seeds: list[tuple[str, str]] = []
    parts = name.split(".")
    head, tail = parts[0], parts[-1]

    if head == "time" and len(parts) == 2 and tail in TIME_ATTRS:
        seeds.append((WALL_CLOCK, f"{name}()"))
    elif head == "datetime" and tail in DATETIME_ATTRS and len(parts) == 3:
        if parts[1] in ("datetime", "date"):
            seeds.append((WALL_CLOCK, f"{name}()"))

    if head == "random" and len(parts) == 2:
        if tail in RANDOM_DRAWS:
            seeds.append((OS_ENTROPY, f"{name}()"))
        elif tail == "seed" and argc == 0:
            seeds.append((OS_ENTROPY, "random.seed() with no arguments"))
    if name in ENTROPY_CALLS or head == "secrets":
        seeds.append((OS_ENTROPY, f"{name}()"))

    if name in REAL_IO_CALLS:
        seeds.append((REAL_IO, f"{name}()"))
    elif len(parts) > 1 and tail in SOCKET_TAILS_ALWAYS:
        seeds.append((REAL_IO, f"socket {tail}() via {name}"))
    elif (
        len(parts) > 1
        and tail in SOCKET_TAILS_GUARDED
        and SOCKISH_RE.search(parts[-2])
    ):
        seeds.append((REAL_IO, f"socket {tail}() via {name}"))

    if name in THREAD_SPAWN_CALLS:
        seeds.append((THREAD_SPAWN, f"{name}()"))

    if name in ENV_READ_CALLS:
        seeds.append((ENV_READ, f"{name}()"))

    if blocking_dotted(name):
        seeds.append((BLOCKING, f"{name}()"))

    return seeds
