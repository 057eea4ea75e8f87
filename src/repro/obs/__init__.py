"""Unified observability: metrics registry, tracing, profiling, event log.

One :class:`Observability` bundle travels with a serving stack (the
scheduler owns it, the HTTP front reads it): a
:class:`~repro.obs.metrics.MetricsRegistry` backing the
:class:`~repro.serving.metrics.ServerMetrics` sink and the Prometheus
exposition, a :class:`~repro.obs.tracing.Tracer` holding the per-request
span ring, a :class:`~repro.obs.profiling.Profiler` sampling the hot path,
and an :class:`~repro.obs.events.EventLog` recording control-plane
decisions.

Defaults are chosen for "always-on but cheap": tracing and events are
enabled (bounded rings, a few dict ops per request), profiling is off
(``sample_every=0``) until asked for.  :meth:`Observability.disabled`
switches every pillar off for overhead measurements and
latency-at-all-costs deployments.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import Event, EventLog
from repro.obs.exposition import (
    ExpositionParseError,
    MetricFamily,
    Sample,
    federate_families,
    parse_prometheus,
    render_families,
    sum_samples,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiling import Profiler
from repro.obs.tracing import Span, Tracer, load_jsonl, new_trace_id, trace_breakdown

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Event",
    "EventLog",
    "ExpositionParseError",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "Observability",
    "Profiler",
    "Sample",
    "Span",
    "Tracer",
    "federate_families",
    "load_jsonl",
    "new_trace_id",
    "parse_prometheus",
    "render_families",
    "sum_samples",
    "trace_breakdown",
]


class Observability:
    """The bundle of observability pillars shared by one serving stack.

    Parameters
    ----------
    registry:
        Metrics registry; created on demand if omitted (the scheduler shares
        it with its :class:`~repro.serving.metrics.ServerMetrics` sink).
    trace / trace_capacity:
        Whether to record request spans, and the span ring size.
    profile_every:
        Profile every Nth batch (0 = profiling off, the default).
    events / event_capacity:
        Whether to record structured events, and the event ring size.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        trace: bool = True,
        trace_capacity: int = 4096,
        profile_every: int = 0,
        events: bool = True,
        event_capacity: int = 512,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(capacity=trace_capacity, enabled=trace)
        self.profiler = Profiler(sample_every=profile_every)
        self.events = EventLog(capacity=event_capacity, enabled=events)

    @classmethod
    def disabled(cls) -> "Observability":
        """Every pillar off: the minimal-overhead configuration."""
        return cls(trace=False, profile_every=0, events=False)

    @property
    def enabled(self) -> bool:
        """Whether any pillar records anything."""
        return self.tracer.enabled or self.profiler.enabled or self.events.enabled
