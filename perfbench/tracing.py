"""Spans and counters recorded from the benchmark's side of each layer boundary.

The traced run replaces the names ``queryboost.pipeline`` calls (and the
provider and HTTP session it is handed) with timing wrappers. Spans stay in
memory until the run ends, when the per-layer metrics are computed from them
and they are written out. The program itself is not changed.
"""

import json
import time
from dataclasses import dataclass, field

import requests

ROOT = "pipeline.run_query_pipeline"


@dataclass
class Span:
    name: str
    parent: int | None
    root: int | None          # the run_query_pipeline span it belongs to
    start: float
    end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn, keep: bool = False):
        """A wrapper recording one span per call; ``keep`` stores args and result."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            root = self.spans[parent].root if parent is not None else None
            sid = len(self.spans)
            span = Span(name, parent, sid if root is None and name == ROOT else root,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.args, span.result = args, result
            return result
        return traced

    def patch(self, module, attr: str, name: str, keep: bool = False) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, keep))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """One JSON line per span: id, parent, root, name, start and end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "root": s.root,
                                     "name": s.name, "start": s.start, "end": s.end}) + "\n")


class TracedProvider:
    """Embedding provider wrapper: one span per call, texts kept for counting."""

    def __init__(self, provider, tracer: Tracer):
        self.inner = provider
        self.dimension = provider.dimension
        self.max_input_tokens = provider.max_input_tokens
        self.embed = tracer.wrap("embedding.embed", provider.embed, keep=True)
        self.embed_batch = tracer.wrap("embedding.embed_batch", provider.embed_batch, keep=True)


class TimedSession(requests.Session):
    """Session recording each round trip and the service time the stub reports."""

    def __init__(self):
        super().__init__()
        self.rtt_ms: list[float] = []
        self.service_ms: list[float] = []

    def request(self, method, url, *args, **kwargs):
        start = time.perf_counter()
        resp = super().request(method, url, *args, **kwargs)
        if method.upper() == "POST":
            self.rtt_ms.append((time.perf_counter() - start) * 1000.0)
            self.service_ms.append(float(resp.headers["X-Service-Ms"]))
        return resp
