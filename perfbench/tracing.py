"""Benchmark-side spans: recorded around each call into a layer, kept in memory.

The program under test is not instrumented by the benchmark; these spans
wrap the public calls the benchmark makes (a request on the wire, one
layer's ``forward``, one design's mask build) and are written out as JSONL
when the run ends.  A disabled recorder costs one attribute check per call,
which is how the untraced runs use it.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from perfbench.stats import self_time_ms


class SpanRecorder:
    """In-memory span list: name, start, end, parent and one id per request."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        request_id: str,
        parent: Optional[int] = None,
        **attrs: object,
    ) -> Optional[int]:
        """Store one finished span (monotonic seconds); returns its id."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self.spans.append(
            {"id": span_id, "name": name, "start": start, "end": end,
             "parent": parent, "request": request_id, **attrs}
        )
        return span_id

    @contextmanager
    def span(self, name: str, request_id: str, parent: Optional[int] = None,
             **attrs: object) -> Iterator[Dict[str, Optional[int]]]:
        """Time the body as one span; yields a dict whose ``id`` children can use."""
        handle: Dict[str, Optional[int]] = {"id": None}
        if not self.enabled:
            yield handle
            return
        handle["id"] = span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": time.perf_counter(),
                 "parent": parent, "request": request_id, **attrs}
            )

    def self_times_ms(self) -> Dict[str, float]:
        """Summed self time per span name, in milliseconds."""
        children: Dict[int, List[Dict[str, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = self_time_ms(span, children.get(span["id"], []))
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> int:
        """Write every span as one JSON line; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        return len(self.spans)
