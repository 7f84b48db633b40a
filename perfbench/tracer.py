"""Outside-in tracing for the benchmark's traced run.

Nothing here reaches inside the simulator: spans are recorded around
calls into each layer's public functions, hot calls (link steps,
player hooks, cache reads) are timed by wrapping the objects the
benchmark hands to the program, and session events are counted by a
:class:`~repro.sim.session.SessionObserver`. Spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Optional

from repro.net.link import NetworkModel
from repro.runner import ResultCache
from repro.sim.session import SessionObserver

#: Layers, most specific prefix first; a span or timed call belongs to
#: the first layer its name starts with.
LAYERS = (
    "sim.session",
    "sim.cohort",
    "media",
    "players",
    "net",
    "qoe",
    "runner",
    "replay",
    "chaos",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Tracer:
    """Spans, timed leaf calls and counters for one traced pass.

    A span is ``(name, start, end, parent, op, child_s)``; ``child_s``
    is the time its child spans and timed calls covered, so a span's
    self time is ``end - start - child_s``.
    """

    def __init__(self) -> None:
        self.spans = []
        self.calls: Counter = Counter()
        self.call_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack = []  # [span index, child seconds]

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op, frame[1])
            if self._stack:
                self._stack[-1][1] += end - start

    def timed(self, name: str, fn):
        """``fn`` wrapped to count its calls and time them as a leaf."""
        calls, call_s, stack = self.calls, self.call_s, self._stack
        clock = time.perf_counter

        def wrapper(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                call_s[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def wrap_method(self, obj, method: str, name: str) -> None:
        setattr(obj, method, self.timed(name, getattr(obj, method)))

    def span_s(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_s_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, start, end, _parent, _op, child_s in self.spans:
            out[layer_of(name)] += end - start - child_s
        for name, seconds in self.call_s.items():
            out[layer_of(name)] += seconds
        return out

    def dump(self, path: str, meta: dict) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, "child_s": c}
            for n, s, e, p, o, c in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": rows}, f)


class TimedNetwork(NetworkModel):
    """A network model whose link steps and trace lookups are timed."""

    def __init__(self, inner: NetworkModel, tracer: Tracer):
        self.rtt_s = inner.rtt_s
        self.rates = inner.rates
        self.media_rates = inner.media_rates
        self.media_step = tracer.timed("net.media_step", inner.media_step)
        self.next_change_after = tracer.timed(
            "net.next_change_after", inner.next_change_after
        )


class CountingObserver(SessionObserver):
    """Counts the session's events (``sim.session.events``)."""

    def __init__(self, tracer: Tracer):
        self._counts = tracer.counts

    def emit(self, kind, payload) -> None:
        self._counts["sim.session.events"] += 1


class TracedCache(ResultCache):
    """A result cache whose reads and writes are counted and timed."""

    def __init__(self, root: str, tracer: Tracer):
        super().__init__(root)
        self.get = tracer.timed("runner.cache.get", self.get)
        self.put = tracer.timed("runner.cache.put", self.put)
