"""The lock model: what counts as a lock, and how locks are named.

Canonical lock ids are plain strings, stable across runs and JSON-safe:

* ``ClassName.attr`` — an instance attribute (``self._lock``),
* ``name``           — a module-level binding,
* ``qualname:name``  — a local variable or parameter of one function.

A *global* id (used by the cross-module lock-order graph) prefixes the
module: ``repro.core.transports.LocalConnection._lock``.  Function-
local locks never get a global id — their ordering cannot conflict
across modules.

Something is treated as a lock when any of these hold:

* it was created by a known constructor (``threading.Lock`` and
  friends, ``multiprocessing``/``asyncio`` equivalents, or the DES
  ``Resource``),
* its name looks lock-ish (``LOCKISH_RE``) — what makes
  ``with self._send_lock:`` work even when the creation is in another
  method or module,
* it is the receiver of an ``.acquire()`` call (a strong signal on its
  own; ``.request()`` — the DES spelling — additionally requires a
  lock-ish receiver so ``requests.request`` stays out).
"""

from __future__ import annotations

import ast
import re
from typing import Optional

#: Constructor tails that create a lock-like object.  ``Event`` is
#: deliberately absent (no ownership to balance); ``Timer`` likewise.
LOCK_CTOR_TAILS = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Resource",  # the DES engine's capacity-limited resource
}

#: Constructors whose product supports ``wait`` (cond-wait-loop rule).
CONDITION_CTOR_TAILS = {"Condition"}

#: Method tails that take the lock / give it back.
ACQUIRE_TAILS = {"acquire", "request"}
RELEASE_TAILS = {"release"}
WAIT_TAILS = {"wait", "wait_for"}

LOCKISH_RE = re.compile(r"(lock|mutex|sem|cond|cv)", re.IGNORECASE)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def lock_ctor_tail(node: ast.expr) -> Optional[str]:
    """The constructor tail when ``node`` is a known lock creation."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted(node.func)
    if name is None:
        return None
    tail = name.split(".")[-1]
    return tail if tail in LOCK_CTOR_TAILS else None


def lockish_name(name: str) -> bool:
    """Does any dotted component look like a lock name?"""
    return bool(LOCKISH_RE.search(name.split(".")[-1]))


class LockNamer:
    """Maps lock expressions to canonical ids within one function."""

    def __init__(
        self,
        *,
        qualname: str,
        class_name: Optional[str] = None,
        known: Optional[dict] = None,
        local_names: frozenset = frozenset(),
    ):
        self.qualname = qualname
        self.class_name = class_name
        #: canonical id -> {"kind": ctor tail, "line": int} for lock
        #: creations already discovered in the module.
        self.known = known or {}
        #: Names bound inside the function (params, assignments) — these
        #: get function-local ids; everything else is module scope, so
        #: an imported lock keeps a resolvable name for lock-order.
        self.local_names = local_names

    def canonical(self, expr: ast.expr) -> Optional[str]:
        """Canonical id of a lock expression; None for anything that is
        not a Name/self-attribute chain (``locks[i]`` is out of model)."""
        name = dotted(expr)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and self.class_name and len(parts) == 2:
            return f"{self.class_name}.{parts[1]}"
        if len(parts) == 1:
            if name in self.known:
                return name
            if name in self.local_names:
                return f"{self.qualname}:{name}"
            return name
        return name  # e.g. an imported module-level lock: "config.LOCK"

    def is_lock(self, canon: str, source_name: str) -> bool:
        """Is the canonically-named receiver a lock at all?"""
        return canon in self.known or lockish_name(source_name)


def global_lock_id(module: str, canon: str) -> Optional[str]:
    """Module-qualified id for the lock-order graph; None for locals."""
    if ":" in canon:
        return None
    return f"{module}.{canon}"
