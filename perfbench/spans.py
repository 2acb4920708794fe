"""In-memory span and counter recorder for the traced benchmark run.

A span has a name ``<layer>.<call>``, a start and end from
``time.perf_counter``, the id of the span that was open when it started,
and the id of its root span, which every span of one request shares.
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        # [id, parent, root, name, start, end]; lists keep recording cheap.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[list] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [
            len(self.spans),
            None if parent is None else parent[0],
            len(self.spans) if parent is None else parent[2],
            name,
            time.perf_counter(),
            None,
        ]
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value

    def total(self, name: str) -> float:
        """Seconds spent in all spans of this name."""
        return sum(end - start for _, _, _, span_name, start, end in self.spans if span_name == name)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, outside their children.

        Children never outlive their parent, so a span's self time is its
        duration minus the durations of its direct children.
        """
        child_time: defaultdict = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: defaultdict = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            layers[name.split(".", 1)[0]] += end - start - child_time[span_id]
        return dict(layers)

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "root", "name", "start", "end")
        records = [dict(zip(keys, record)) for record in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": records, "counts": dict(self.counts)}, indent=1) + "\n",
            encoding="utf-8",
        )
