"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark's own code around calls into the
program (no tracing lives in ``src/``).  Each span is a tuple
``(name, start, end, parent, request_id)``; ``parent`` is the index of
the enclosing span and ``request_id`` is set where the boundary can see
which request the work belongs to.  Everything stays in memory until
:meth:`SpanRecorder.write` dumps it once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request_id: int | None = None) -> int:
        """Record a finished span; returns its index."""
        self.spans.append((name, start, end, parent, request_id))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             request_id: int | None = None):
        """Time the ``with`` body; yields the new span's index.

        The slot is reserved on entry so children can name it as their
        parent, and completed on exit.
        """
        index = self.add(name, time.perf_counter(), 0.0, parent, request_id)
        try:
            yield index
        finally:
            name, start, _, parent, request_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent,
                                 request_id)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Summed duration (seconds) and count of spans, by name."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for name, start, end, _, _ in self.spans:
            entry = out[name]
            entry[0] += end - start
            entry[1] += 1
        return {name: (total, count) for name, (total, count) in out.items()}

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, request_id in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": request_id,
                }) + "\n")
