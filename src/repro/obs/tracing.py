"""Per-request tracing: trace ids, spans, a bounded ring, JSONL export.

A *trace* follows one HTTP request through the serving stack; a *span* is a
named timed stage of that trace.  The canonical stages are::

    route          router -> replica forward + reply     (fleet router)
    parse          validation + enqueue (after decode)  (front thread)
    queue-wait     enqueued -> batch leader popped       (scheduler clock)
    batch-execute  the whole coalesced batch's forward   (one per batch)
    execute        this request's share of the batch     (child of batch)
    layer:NAME     per-layer forward, on profiled batches (child of batch)
    vm:NAME        per-layer VM program execution         (child of batch)
    respond        response serialisation + socket write  (front thread)

``queue-wait`` + ``execute`` reproduce the request's reported end-to-end
latency (``wait_ms + service_ms``) exactly, so a trace is an audit of the
latency the metrics already aggregate.  Batch spans carry the member trace
ids in their attributes, linking co-riders of one coalesced batch.

Span timestamps use ``time.monotonic()`` (same clock as the scheduler), plus
one wall-clock anchor per span for cross-process correlation.  The ring is
bounded (``deque(maxlen=...)``) so an unscraped server cannot grow without
bound; :meth:`Tracer.export_jsonl` dumps the ring for the ``repro-tinyml
trace`` CLI.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

#: Stage names in pipeline order -- the column order of trace breakdowns.
#: ``route`` is stamped by the fleet router (the hop in front of a replica);
#: single-server traces simply never record it.  ``escalate`` is the cascade
#: hop between a low-margin cheap attempt and its exact-level re-enqueue;
#: non-cascading traces never record it.
STAGES: tuple = ("route", "parse", "queue-wait", "batch-execute", "escalate", "execute", "respond")

_trace_counter = itertools.count(1)
_span_counter = itertools.count(1)
#: Per-process prefix: keeps ids unique across restarts (and, later, replicas).
_RUN_PREFIX = uuid.uuid4().hex[:8]


def new_trace_id() -> str:
    """A process-unique trace id (cheap: one counter tick, no RNG per call)."""
    return f"{_RUN_PREFIX}-{next(_trace_counter):08x}"


class Span:
    """One named, timed stage of a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s", "end_s", "ts", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        ts: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else f"s{next(_span_counter):x}"
        self.parent_id = parent_id
        self.start_s = float(start_s)  # monotonic clock
        self.end_s = float(end_s)
        self.ts = float(ts) if ts is not None else time.time()  # wall-clock anchor
        self.attrs = attrs or {}

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds."""
        return (self.end_s - self.start_s) * 1e3

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (one JSONL line)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": round(self.duration_ms, 4),
            "ts": self.ts,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`as_dict` (used by the trace CLI)."""
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            start_s=payload["start_s"],
            end_s=payload["end_s"],
            parent_id=payload.get("parent_id"),
            span_id=payload.get("span_id"),
            ts=payload.get("ts"),
            attrs=payload.get("attrs") or {},
        )


class Tracer:
    """Bounded in-memory span ring shared by the fronts and the scheduler.

    Parameters
    ----------
    capacity:
        Ring size; the oldest spans are evicted first.
    enabled:
        ``False`` turns every record call into a cheap no-op (the
        disabled-observability hot path).
    """

    def __init__(self, capacity: int = 4096, enabled: bool = True):
        self.enabled = bool(enabled)
        self._spans: deque = deque(maxlen=int(capacity))
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def record_span(
        self,
        name: str,
        trace_id: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Optional[Span]:
        """Record one completed span; returns it (``None`` when disabled)."""
        if not self.enabled:
            return None
        span = Span(name, trace_id, start_s, end_s, parent_id=parent_id, attrs=attrs or None)
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, trace_id: str, parent_id: Optional[str] = None, **attrs: Any):
        """Context manager timing its body as one span."""
        if not self.enabled:
            yield None
            return
        start_s = time.monotonic()
        try:
            yield None
        finally:
            self.record_span(name, trace_id, start_s, time.monotonic(), parent_id=parent_id, **attrs)

    # ------------------------------------------------------------------ reading
    def spans(self, trace_id: Optional[str] = None, name: Optional[str] = None) -> List[Span]:
        """Spans in the ring, oldest first, optionally filtered."""
        with self._lock:
            spans = list(self._spans)
        if trace_id is not None:
            spans = [s for s in spans if s.trace_id == trace_id]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def clear(self) -> None:
        """Drop every buffered span."""
        with self._lock:
            self._spans.clear()

    def export_jsonl(self, path) -> int:
        """Write the ring as JSON-lines; returns the number of spans written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
        return len(spans)


def load_jsonl(path) -> List[Span]:
    """Read a :meth:`Tracer.export_jsonl` file back into spans."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def trace_breakdown(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Per-trace stage breakdown: one row per trace id, stage sums in ms.

    ``total_ms`` is the wall span of the trace (max end - min start across
    its request-scoped stages); ``layers_ms`` sums any per-layer
    (``layer:*`` / ``vm:*`` / ``kernel:*``) child spans from profiled
    batches.  Rows keep first-seen order.
    """
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    rows: List[Dict[str, Any]] = []
    for trace_id, members in by_trace.items():
        row: Dict[str, Any] = {"trace_id": trace_id}
        stage_sums: Dict[str, float] = {}
        layers = 0.0
        request_scoped = []
        for span in members:
            if span.name in STAGES:
                stage_sums[span.name] = stage_sums.get(span.name, 0.0) + span.duration_ms
                if span.name != "batch-execute":
                    request_scoped.append(span)
            elif ":" in span.name:
                layers += span.duration_ms
        for stage in STAGES:
            row[stage] = round(stage_sums.get(stage, 0.0), 3)
        row["layers_ms"] = round(layers, 3)
        if request_scoped:
            start = min(s.start_s for s in request_scoped)
            end = max(s.end_s for s in request_scoped)
            row["total_ms"] = round((end - start) * 1e3, 3)
        else:
            row["total_ms"] = 0.0
        row["spans"] = len(members)
        rows.append(row)
    return rows
