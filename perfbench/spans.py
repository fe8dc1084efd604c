"""In-memory spans around the benchmark's calls into the library.

A span records layer, name, start, end, parent span, the op it belongs to,
its status and a few attributes.  Spans stay in memory and are written out
once, when the run ends.  ``NullTracer`` is the untraced run: it calls
straight through and records nothing.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from tropcurve.errors import SingularSubdivision, UnsupportedConfiguration

# documented refusals: an op that raises one of these completes with a
# refused outcome; any other exception fails it
REFUSALS = (SingularSubdivision, UnsupportedConfiguration)


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    status: str = "ok"
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    op = None

    def call(self, layer, name, fn, *args, info=None):
        return fn(*args)

    def count(self, key, n=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op: int | None = None

    def call(self, layer, name, fn, *args, info=None):
        """Run fn(*args) inside a span; a raising call is recorded with
        status "refused" (documented refusal) or "error" and re-raised."""
        idx = len(self.spans)
        span = Span(layer, name, 0.0, parent=self._stack[-1] if self._stack else None,
                    op=self.op, info=dict(info or {}))
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            return fn(*args)
        except REFUSALS:
            span.status = "refused"
            raise
        except Exception:
            span.status = "error"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (calls are synchronous, so children never overlap)."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "counts": self.counts}, fh)
