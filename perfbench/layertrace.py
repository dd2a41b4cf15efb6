"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the functions and methods each layer's modules
define, from this file, and records a span whenever control crosses into
a layer from a different one.  A span keeps its name, start, end, parent
span and the trace id of the workload operation it ran for.  A layer's
self time is its spans' duration minus the time their child spans cover.

Generator functions are the simulator's blocking entry points: calling
one only creates the generator, and its body runs piecewise each time the
engine resumes it.  Their wrappers therefore return a proxy generator
that times every resumption, so the time lands on the layer at the
engine's dispatch into it rather than at generator creation.

The same wrapping can instead plant a fixed busy cost in one entry point
(:func:`plant`), which is how the benchmark's self-test proves that the
metrics move when one layer gets slower.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path
from time import perf_counter

#: The benchmark's own modules call the program too (the workloads).
_BENCH_DIR = str(Path(__file__).resolve().parent)

#: Layer name -> module prefixes it covers.  ``repro.host`` is the
#: kernel-resident IP/UDP/ARP/ICMP dispatch, so it counts as IP.
LAYERS = {
    "sim": ("repro.sim",),
    "timers": ("repro.timers",),
    "mach": ("repro.mach",),
    "registry": ("repro.registry",),
    "org": ("repro.org",),
    "protocols.tcp": ("repro.protocols.tcp",),
    "protocols.ip": (
        "repro.protocols.ip", "repro.protocols.udp", "repro.protocols.arp",
        "repro.protocols.icmp", "repro.host",
    ),
    "netio": ("repro.netio",),
    "net.nic": ("repro.net.nic",),
    "net.link": ("repro.net.link", "repro.net.faults"),
    "net.fabric": ("repro.net.fabric",),
    "net.buf": ("repro.net.buf", "repro.net.checksum", "repro.protocols.checksum"),
    "net.headers": ("repro.net.headers",),
}

#: ``obs.profile`` site prefix -> layer, for the simulated-µs ledger.
PROFILE_SITES = {
    "router": "net.fabric",
    "tcp": "protocols.tcp",
    "lib": "org",
    "ip": "protocols.ip",
    "netio": "netio",
    "demux": "netio",
}

#: Entry points handled specially: ``run`` loops would merge every
#: engine step into one span, so each ``step`` is a root span instead.
_SKIP = {"Simulator.run", "Simulator.run_all"}

#: Dunder methods worth a span; the rest are cheap protocol plumbing.
_DUNDERS = {"__init__", "__call__"}


def layer_of(module: str):
    """The layer a module belongs to, or ``None``."""
    best = None
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best[1]):
                    best = (layer, prefix)
    return best[0] if best else None


def _layer_modules():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        layer = layer_of(info.name)
        if layer is not None:
            yield importlib.import_module(info.name), layer


def entry_points():
    """Yield ``(owner, attribute, function, layer, qualname)`` for every
    function a layer's modules define, methods included."""
    for module, layer in _layer_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield module, name, obj, layer, name
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("__") and attr not in _DUNDERS:
                        continue
                    func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    qualname = f"{obj.__name__}.{attr}"
                    if inspect.isfunction(func) and qualname not in _SKIP:
                        yield obj, attr, raw, layer, qualname


class _Patcher:
    """Swaps attributes and module-level aliases; restores them all."""

    def __init__(self) -> None:
        self._saved: list = []

    def swap(self, owner, attr, raw, wrapper) -> None:
        if isinstance(raw, staticmethod):
            wrapper = staticmethod(wrapper)
        elif isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def swap_aliases(self, replaced: dict) -> None:
        """Rebind names other modules imported with ``from x import f``."""
        for name, module in list(sys.modules.items()):
            path = getattr(module, "__file__", None) or ""
            if not (name.startswith("repro") or path.startswith(_BENCH_DIR)):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper[0] is value and namespace[attr] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper[1])

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


class Tracer:
    """Records cross-layer spans while :attr:`recording` is true."""

    def __init__(self, span_limit: int = 50_000) -> None:
        self.span_limit = span_limit
        self.recording = False
        self._patcher = _Patcher()
        # The wrappers bind these containers once; reset() empties them.
        #: layer -> [calls, self seconds]
        self.layers = {layer: [0, 0.0] for layer in LAYERS}
        #: Raw spans: (name, start, end, parent index, trace id).
        self.spans: list = []
        #: Process -> operation id; processes inherit their creator's.
        self._trace_of: dict = {}
        self._trace = -1
        # Open spans: [layer, start, child seconds, span index, trace id].
        self._stack: list = [["", 0.0, 0.0, -1, -1]]

    def reset(self) -> None:
        """Forget everything recorded so far."""
        for entry in self.layers.values():
            entry[:] = [0, 0.0]
        self.spans.clear()
        self._trace_of.clear()
        self._trace = -1
        del self._stack[1:]

    # -- recording ------------------------------------------------------

    def op_hook(self, sim):
        """The callback a world calls when an operation starts: it tags
        the running process, and what that process spawns, with the
        operation's id."""

        def begin_op(op_id: int) -> None:
            self._trace_of[sim.active_process] = op_id
            self._trace = op_id

        return begin_op

    def _open(self, layer: str) -> list:
        index = -1
        if len(self.spans) < self.span_limit:
            index = len(self.spans)
            self.spans.append(None)
        frame = [layer, perf_counter(), 0.0, index, self._trace]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        parent = stack[-1]
        parent[2] += duration
        entry = self.layers[frame[0]]
        entry[0] += 1
        entry[1] += duration - frame[2]
        if frame[3] >= 0:
            self.spans[frame[3]] = (name, frame[1], end, parent[3], frame[4])

    def _wrap_call(self, func, layer: str, name: str):
        stack = self._stack

        def call(*args, **kwargs):
            if not self.recording or stack[-1][0] == layer:
                return func(*args, **kwargs)
            frame = self._open(layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(frame, name)

        return call

    def _wrap_gen(self, func, layer: str, name: str):
        stack = self._stack

        def proxy(gen):
            value = None
            error = None
            while True:
                frame = None
                if self.recording and stack[-1][0] != layer:
                    frame = self._open(layer)
                try:
                    if error is None:
                        out = gen.send(value)
                    else:
                        out = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if frame is not None:
                        self._close(frame, name)
                try:
                    value = yield out
                    error = None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # Interrupts and failed events.
                    value, error = None, exc

        def call(*args, **kwargs):
            gen = func(*args, **kwargs)
            wrapped = proxy(gen)
            wrapped.__name__ = gen.__name__
            return wrapped

        return call

    def _hook_engine(self) -> None:
        """Per-step root spans and per-process trace ids."""
        from repro.sim.engine import Simulator
        from repro.sim.events import Process

        tracer = self
        step = self._wrap_call(Simulator.step, "sim", "sim:Simulator.step")

        def root_step(sim):
            tracer._trace = -1
            return step(sim)

        resume = Process._resume

        def traced_resume(process, event):
            saved = tracer._trace
            tracer._trace = tracer._trace_of.get(process, -1)
            try:
                return resume(process, event)
            finally:
                tracer._trace = saved

        init = Process.__init__

        def traced_init(process, sim, generator, name=None):
            init(process, sim, generator, name)
            if tracer.recording:
                tracer._trace_of[process] = tracer._trace

        self._patcher.swap(Simulator, "step", Simulator.step, root_step)
        self._patcher.swap(Process, "_resume", resume, traced_resume)
        self._patcher.swap(Process, "__init__", init, traced_init)

    # -- install --------------------------------------------------------

    def install(self) -> None:
        replaced = {}
        hooked = {("Simulator", "step"), ("Process", "_resume"), ("Process", "__init__")}
        for owner, attr, raw, layer, qualname in entry_points():
            if (getattr(owner, "__name__", ""), attr) in hooked:
                continue
            func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            make = self._wrap_gen if inspect.isgeneratorfunction(func) else self._wrap_call
            wrapper = make(func, layer, f"{layer}:{qualname}")
            self._patcher.swap(owner, attr, raw, wrapper)
            if inspect.ismodule(owner):
                replaced[id(func)] = (func, wrapper)
        self._patcher.swap_aliases(replaced)
        self._hook_engine()

    def uninstall(self) -> None:
        self.recording = False
        self._patcher.restore()

    # -- results --------------------------------------------------------

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, trace = span
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "trace": trace,
                }) + "\n")


def plant(layer: str, qualname: str, busy_seconds: float) -> _Patcher:
    """Add ``busy_seconds`` of spinning to every call of one plain
    (non-generator) entry point of ``layer``.  Returns the patcher whose
    :meth:`~_Patcher.restore` removes the plant."""
    for owner, attr, raw, owner_layer, name in entry_points():
        if owner_layer != layer or name != qualname:
            continue
        func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if inspect.isgeneratorfunction(func):
            raise ValueError(f"{qualname} is a generator function; plant a plain one")

        def wrapper(*args, **kwargs):
            end = perf_counter() + busy_seconds
            while perf_counter() < end:
                pass
            return func(*args, **kwargs)

        patcher = _Patcher()
        patcher.swap(owner, attr, raw, wrapper)
        return patcher
    raise LookupError(f"no entry point {qualname!r} in layer {layer!r}")
