"""Layer map, CPU sampler and GC monitor for the traced (``--trace 1``) runs.

Every module under ``src/repro`` maps to exactly one layer.  Whole
packages map by prefix; ``repro.core`` is split between layers, so each
of its modules is listed on its own, and a new core module fails the
harness test until it is placed.  ``repro.core.protocol`` is split again
by function: the XML wire codec and ``decode_body`` are ``codec``, the
rest (``StreamParser``, ``encode_message``) is ``framing``.

The sampler measures each layer from outside the program: a
``SIGPROF`` interval timer interrupts the process every 4 ms of CPU time
(the kernel's tick on the reference box, so one sample is one tick of
CPU), and the handler attributes the sample to the innermost frame whose
file lies under ``src/repro``.  Frames of the standard library and of
this benchmark roll up to their nearest ``repro`` caller.  A sample with
no ``repro`` frame at all is ``loop`` when an asyncio frame is on the
stack (the event loop, selectors, socket calls) and ``other`` otherwise.
"""

from __future__ import annotations

import gc
import os
import pathlib
import signal
import time

SRC_ROOT = pathlib.Path(__file__).resolve().parents[2] / "src"

LAYERS = (
    "des", "tpwire", "hw", "net", "cosim", "space",
    "codec", "framing", "server", "aio", "loop", "other",
)

#: Packages whose every module belongs to one layer.
PACKAGE_LAYERS = {
    "repro.des": "des",
    "repro.tpwire": "tpwire",
    "repro.hw": "hw",
    "repro.net": "net",
    "repro.cosim": "cosim",
    # Not on any workload's path (repro.board is only reached from an
    # example; Table 4 does not use the ISS).
    "repro.analysis": "other",
    "repro.board": "other",
    "repro.chaos": "other",
    "repro.lint": "other",
    "repro.obs": "other",
}

#: Single modules, matched exactly.
MODULE_LAYERS = {
    "repro": "other",
    "repro.__main__": "other",
    "repro.core": "other",
    "repro.core.sim_client": "cosim",
    "repro.core.space": "space",
    "repro.core.index": "space",
    "repro.core.lease": "space",
    "repro.core.tuples": "space",
    "repro.core.entry": "space",
    "repro.core.events": "space",
    "repro.core.transactions": "space",
    "repro.core.xmlcodec": "codec",
    "repro.core.bincodec": "codec",
    "repro.core.protocol": "framing",
    "repro.core.server": "server",
    "repro.core.rmi": "server",
    "repro.core.aio": "aio",
    "repro.core.agents": "other",
    "repro.core.client": "other",
    "repro.core.clock": "other",
    "repro.core.discovery": "other",
    "repro.core.errors": "other",
    "repro.core.persistence": "other",
    "repro.core.resilience": "other",
    "repro.core.simops": "other",
    "repro.core.transports": "other",
}

#: Functions of ``repro.core.protocol`` that belong to the body codec.
PROTOCOL_CODEC_FUNCTIONS = (
    "XmlWireCodec.", "decode_body", "as_wire_codec", "make_wire_codec",
)


def module_name(path: pathlib.Path, src_root: pathlib.Path = SRC_ROOT) -> str:
    """Dotted module name of a source file under ``src_root``."""
    parts = list(path.resolve().relative_to(src_root.resolve()).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def module_layers(module: str) -> list[str]:
    """Every layer the map assigns to ``module`` (exactly one when mapped)."""
    found = []
    if module in MODULE_LAYERS:
        found.append(MODULE_LAYERS[module])
    for package, layer in PACKAGE_LAYERS.items():
        if module == package or module.startswith(package + "."):
            found.append(layer)
    return found


def layer_of(module: str, qualname: str = "") -> str:
    """The layer of one function; raises ``KeyError`` for unmapped modules."""
    layers = module_layers(module)
    if len(layers) != 1:
        raise KeyError(f"{module} maps to {layers or 'no layer'}")
    if module == "repro.core.protocol" and qualname.startswith(
        PROTOCOL_CODEC_FUNCTIONS
    ):
        return "codec"
    return layers[0]


def attribute(frame, cache: dict, src_root: pathlib.Path = SRC_ROOT) -> str:
    """Layer of the innermost ``repro`` frame on ``frame``'s stack.

    ``frame`` is anything with ``f_code`` (``co_filename``,
    ``co_qualname``) and ``f_back``; ``cache`` maps code objects to
    their layer, or ``None`` for code outside ``src/repro``.
    """
    saw_asyncio = False
    while frame is not None:
        code = frame.f_code
        try:
            layer = cache[code]
        except KeyError:
            layer = cache[code] = _code_layer(code, src_root)
        if layer is not None:
            return layer
        if not saw_asyncio and f"{os.sep}asyncio{os.sep}" in code.co_filename:
            saw_asyncio = True
        frame = frame.f_back
    return "loop" if saw_asyncio else "other"


def _code_layer(code, src_root: pathlib.Path):
    repro_root = str(src_root / "repro")
    filename = code.co_filename
    if not filename.startswith(repro_root + os.sep) and filename != repro_root:
        return None
    module = module_name(pathlib.Path(filename), src_root)
    qualname = getattr(code, "co_qualname", code.co_name)
    try:
        return layer_of(module, qualname)
    except KeyError:
        return "other"


def memory_kb() -> dict:
    """Current and peak resident set of this process, in kB.

    ``VmHWM`` belongs to this process image; ``ru_maxrss`` would also
    count the parent's resident set inherited at fork.
    """
    fields = {}
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            name, _, value = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                fields[name] = int(value.split()[0])
    return {"rss_kb": fields["VmRSS"], "peak_rss_kb": fields["VmHWM"]}


class Sampler:
    """CPU-time sampler over ``ITIMER_PROF`` (main thread only)."""

    INTERVAL = 0.004

    def __init__(self, src_root: pathlib.Path = SRC_ROOT):
        self.src_root = src_root
        self.counts = dict.fromkeys(LAYERS, 0)
        self.cpu_s = 0.0
        self._cache: dict = {}
        self._cpu0 = 0.0
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        self.counts[attribute(frame, self._cache, self.src_root)] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s += time.process_time() - self._cpu0
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def summary(self) -> dict:
        """Per-layer samples, self seconds and shares, plus the CPU check."""
        total = self.samples
        self_s = {layer: n * self.INTERVAL for layer, n in self.counts.items()}
        return {
            "samples": total,
            "cpu_s": self.cpu_s,
            "self_s": self_s,
            "share": {
                layer: (n / total if total else 0.0)
                for layer, n in self.counts.items()
            },
            "attributed_ratio": (
                sum(self_s.values()) / self.cpu_s if self.cpu_s else 0.0
            ),
        }


class SpanTotals:
    """Count and total duration of the calls one wrapper timed."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0

    def wrap(self, fn):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - started
                self.count += 1

        return timed


class HandleSpans:
    """``(request id, start, end)`` of every ``SpaceServer.handle`` call."""

    def __init__(self):
        self.request_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []

    def wrap(self, handle):
        clock = time.perf_counter
        ids, starts, ends = self.request_ids, self.starts, self.ends

        def timed(session, message):
            started = clock()
            try:
                return handle(session, message)
            finally:
                ends.append(clock())
                starts.append(started)
                ids.append(message.request_id)

        return timed

    def durations_us(self) -> list[float]:
        return sorted((e - s) * 1e6 for s, e in zip(self.starts, self.ends))


#: The ``TupleSpace`` operations a server calls; each is timed as a span.
SPACE_OPS = ("write", "read_if_exists", "take_if_exists", "register_waiter")


def wrap_space_ops(space, totals: SpanTotals) -> None:
    """Time the public ops of one ``TupleSpace`` instance into ``totals``."""
    for name in SPACE_OPS:
        setattr(space, name, totals.wrap(getattr(space, name)))


class GcMonitor:
    """Collection counts and pause times through ``gc.callbacks``."""

    def __init__(self):
        self.gen2 = 0
        self.pauses_ms: list[float] = []
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pauses_ms.append((time.perf_counter() - self._started) * 1e3)
        if info.get("generation") == 2:
            self.gen2 += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def reset(self) -> None:
        self.gen2 = 0
        self.pauses_ms = []

    def summary(self) -> dict:
        return {
            "gen2": self.gen2,
            "pause_ms_max": max(self.pauses_ms, default=0.0),
            "pause_ms_total": sum(self.pauses_ms),
        }
