"""Span tracing around the public functions of every tableqa module.

``Tracer.install()`` replaces each public function of the traced modules
with a timing wrapper. Modules bind each other's functions by name
(``from .textproc import tokenize``), so the wrapper is also written over
every other name, in any tableqa module, that is bound to the same
function object. ``uninstall()`` puts the originals back.

Time is attributed by slices: at each span entry and exit, the time since
the thread's previous event goes to the innermost open span, under the
phase that is current (``set_phase``). A function's self time is therefore
its span time minus the part its child spans cover, and time with no span
open is reported as unattributed. Each thread keeps its own stack and
totals, merged when read, so the sweep's thread pool needs no lock on the
hot path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("tabular", "textproc", "embed", "retrieval", "typerec", "clauses",
          "nn", "query", "harness", "cli")


class _ThreadState:
    def __init__(self):
        self.stack: list[str] = []
        self.last = perf_counter()
        self.self_s = defaultdict(float)     # (phase, key) -> seconds
        self.total_s = defaultdict(float)    # (phase, key) -> seconds
        self.calls = defaultdict(int)        # (phase, key) -> count
        self.nones = defaultdict(int)        # (phase, key) -> None results
        self.extra = defaultdict(float)      # (phase, name) -> counter


class Tracer:
    def __init__(self):
        self.phase = "idle"
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _slice(self, st: _ThreadState, now: float):
        key = st.stack[-1] if st.stack else None
        st.self_s[(self.phase, key)] += now - st.last
        st.last = now

    def set_phase(self, phase: str):
        """Close the calling thread's current slice and switch phase."""
        self._slice(self._state(), perf_counter())
        self.phase = phase

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, key: str):
        tracer = self
        on_call = _ON_CALL.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            start = perf_counter()
            tracer._slice(st, start)
            phase = tracer.phase
            st.calls[(phase, key)] += 1
            if on_call is not None:
                on_call(st.extra, phase, args, kwargs)
            st.stack.append(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._slice(st, end)
                st.stack.pop()
                st.total_s[(phase, key)] += end - start
            if result is None:
                st.nones[(phase, key)] += 1
            return result

        return wrapper

    def install(self):
        layers = {name: importlib.import_module(f"tableqa.{name}") for name in LAYERS}
        modules = [importlib.import_module("tableqa"), *layers.values()]
        wrappers = {}
        for name, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{name}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- reading ------------------------------------------------------------

    def merged(self):
        """(self_s, total_s, calls, nones, extra), summed over threads."""
        out = tuple(defaultdict(float) for _ in range(5))
        with self._lock:
            states = list(self._states)
        for st in states:
            for acc, part in zip(out, (st.self_s, st.total_s, st.calls,
                                       st.nones, st.extra)):
                for k, v in part.items():
                    acc[k] += v
        return out


def _count_sgd_steps(extra, phase, args, kwargs):
    # nn.train(spec, data, cfg): one step per mini-batch per epoch
    data = args[1] if len(args) > 1 else kwargs["data"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    extra[(phase, "nn.sgd_steps")] += cfg.epochs * math.ceil(len(data) / cfg.batch_size)


_ON_CALL = {"nn.train": _count_sgd_steps}
