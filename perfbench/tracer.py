"""Out-of-package tracing for the qhevqa benchmark.

Nothing in ``src/`` knows about this module. It wraps public functions of the
package from outside, at every module binding that callers look up: the
package's modules import names with ``from .x import f``, so replacing only
the defining module's attribute would miss most calls. Function-local
imports (``from .simulator import reduced_density_matrix`` inside a function
body) read the defining module at call time, so they see the wrapper too.

Spans nest per thread (the protocol server runs on its own thread). A span's
self time is its duration minus the time covered by its direct children.
Counters and per-function aggregates are kept per thread and merged when
read, so no lock sits on the hot path. Every binding is restored by
``Patcher.restore``.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

PACKAGE = "qhevqa"


def package_modules() -> list:
    """Every loaded module of the package (the places bindings can live)."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Replaces attributes and remembers the originals, to restore in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, name: str, make_wrapper) -> None:
        """Wrap ``module.name`` at every package binding of the same object."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class _ThreadState:
    def __init__(self, label: str):
        self.label = label
        self.stack: list[list] = []  # [span_id, child_seconds]
        self.agg: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.pending_request = False


class Tracer:
    """Span and counter recorder; ``enabled`` gates recording at run time."""

    def __init__(self, span_cap: int = 20000):
        self.enabled = False
        self.span_cap = span_cap
        self.spans: list[tuple] = []  # (id, parent, thread, name, start, end)
        self.spans_dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._t0 = perf_counter()
        self.patcher = Patcher()

    # -- per-thread state --

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            thread = threading.current_thread()
            label = "client" if thread is threading.main_thread() else thread.name
            st = _ThreadState(label)
            self._local.state = st
            with self._states_lock:
                self._states.append(st)
        return st

    def is_client(self) -> bool:
        return threading.current_thread() is threading.main_thread()

    def count(self, key: str, amount: float = 1) -> None:
        counters = self._state().counters
        counters[key] = counters.get(key, 0) + amount

    # -- wrappers --

    def span(self, name: str, after=None):
        """Wrapper factory recording a span; ``after(tracer, args, result)``
        adds counters from the call's arguments and result."""

        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                st = tracer._state()
                span_id = next(tracer._ids)
                parent = st.stack[-1][0] if st.stack else 0
                entry = [span_id, 0.0]
                st.stack.append(entry)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    st.stack.pop()
                    duration = end - start
                    if st.stack:
                        st.stack[-1][1] += duration
                    agg = st.agg.get(name)
                    if agg is None:
                        agg = st.agg[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += duration - entry[1]
                    agg[2] += duration
                    if len(tracer.spans) < tracer.span_cap:
                        tracer.spans.append(
                            (span_id, parent, st.label, name,
                             start - tracer._t0, end - tracer._t0)
                        )
                    else:
                        tracer.spans_dropped += 1
                if after is not None:
                    after(tracer, args, result)
                return result

            return wrapper

        return make

    def counting(self, before=None, after=None):
        """Wrapper factory without a span: ``before(tracer, args)`` and
        ``after(tracer, args, result)`` add counters per call."""

        def make(fn):
            tracer = self

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                if before is not None:
                    before(tracer, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result

            return wrapper

        return make

    # -- results --

    def aggregates(self) -> dict[str, dict]:
        """Per function: calls, self_s and total_s summed over threads."""
        out: dict[str, dict] = {}
        for st in self._states:
            for name, (calls, self_s, total_s) in st.agg.items():
                row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += calls
                row["self_s"] += self_s
                row["total_s"] += total_s
        return out

    def thread_aggregates(self, name: str, label: str = "client") -> dict:
        for st in self._states:
            if st.label == label and name in st.agg:
                calls, self_s, total_s = st.agg[name]
                return {"calls": calls, "self_s": self_s, "total_s": total_s}
        return {"calls": 0, "self_s": 0.0, "total_s": 0.0}

    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._states:
            for key, value in st.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def dump(self) -> dict:
        """Spans, per-thread aggregates and counters as a JSON-ready dict."""
        return {
            "spans_fields": ["id", "parent", "thread", "name", "start_s", "end_s"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "threads": {
                st.label: {
                    "functions": {
                        n: {"calls": a[0], "self_s": a[1], "total_s": a[2]}
                        for n, a in sorted(st.agg.items())
                    },
                    "counters": dict(sorted(st.counters.items())),
                }
                for st in self._states
            },
        }
