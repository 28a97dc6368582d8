"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer, recorded from the benchmark's own files:
its name is ``<layer>.<part>`` (for example ``som.train``), and it carries
start and end times, the span that encloses it and the id of the run it
belongs to.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ORCHESTRATION_LAYER = "experiments"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run: str = ""):
        self.run = run
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield
        finally:
            self._open.pop()
            rec.end = time.perf_counter()

    def of_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer, span time minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def covered(spans: list[Span]) -> float:
    """Length of the union of the layer spans (orchestration spans excluded)."""
    total, reach = 0.0, float("-inf")
    layer_spans = (s for s in spans if s.layer != ORCHESTRATION_LAYER)
    for start, end in sorted((s.start, s.end) for s in layer_spans):
        total += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return total


def span_cost(n: int = 5000) -> float:
    """Seconds one empty span costs on this host (for the overhead estimate)."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(n):
        with tracer.span("trace.calibrate"):
            pass
    return (time.perf_counter() - started) / n
