"""In-memory spans around the public calls the benchmark makes.

A span records a name, its start and end on the ``perf_counter`` clock, the
span that caused it, and a few attributes. Spans stay in a list until the run
ends and are written out with the result file. The tracer never touches the
package: it only wraps calls made from the benchmark's own files.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder. ``enabled=False`` makes every method a cheap no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; its parent is the innermost open span. Spans are
        opened from the benchmark's main thread only."""
        if not self.enabled:
            yield None
            return
        sid = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                {"id": sid, "name": name, "parent": parent, "start": start, "end": end, **attrs}
            )

    def durations(self, name: str, **match) -> list[float]:
        """Durations in seconds of every span with this name and attributes."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time covered by
        its direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out
