"""Serving telemetry: throughput, batching, per-level traffic, cycle savings.

A single :class:`ServerMetrics` instance is the shared sink of one serving
stack: the scheduler records every batch it executes, the policies read the
resulting :class:`MetricsSnapshot` to pick the next service level, and the
HTTP front exposes the same snapshot on ``GET /metrics``.  All counters live
in a :class:`~repro.obs.metrics.MetricsRegistry` -- the same registry the
front renders as Prometheus text on ``GET /metrics?format=prometheus``, and
the one the fleet router sums per-replica series from.  Only the
percentile windows, the exact batch-size histogram and the current-level
marker stay as plain state behind the sink's lock.

Besides classic serving telemetry (request counts, batch-size histogram,
latency percentiles, throughput), the sink tracks the *simulated MCU cycle
savings*: each service level carries the per-sample cycle estimate of the ISA
cost model, so every batch served at an aggressive level records how many
Cortex-M cycles the skip configuration shed relative to the exact design.

Latencies, sheds and failures are additionally tracked *per priority class*
(:data:`repro.serving.request.PRIORITIES`): the per-class p50/p95 is how the
benchmarks prove that interactive traffic holds its latency under a
bulk-traffic burst, and how the SLO control loop can be audited after the
fact.

Multi-model, multi-tenant serving adds two more dimensions: the completed /
batch counters carry a ``model=`` label (one scheduler hosts a *deployment
table*, and per-model traffic must stay separable after fleet federation),
and per-tenant telemetry -- completions, quota rejections
(``repro_tenant_rejected_total{tenant=,reason=}``), sheds and latency
percentiles against the tenant's SLO target -- appears both as labelled
series and as the snapshot's ``per_tenant`` block.

Two throughput figures are reported: ``throughput_rps`` (lifetime average
over uptime -- stable, but misleading after idle periods) and
``windowed_throughput_rps`` (completions over the trailing
``rate_window_s`` seconds -- what the server is doing *now*).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_MS, MetricsRegistry
from repro.serving.request import DEFAULT_PRIORITY, DEFAULT_TENANT, PRIORITIES

#: The model label applied when a sink is driven without a deployment table
#: (standalone unit tests, single-model back-compat callers).
DEFAULT_MODEL = "default"


@dataclass
class MetricsSnapshot:
    """Point-in-time view of a :class:`ServerMetrics` sink."""

    requests_completed: int = 0
    requests_failed: int = 0
    requests_shed: int = 0
    batches: int = 0
    queue_depth: int = 0
    uptime_s: float = 0.0
    throughput_rps: float = 0.0
    windowed_throughput_rps: float = 0.0
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    mean_batch_size: float = 0.0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)
    per_level_requests: Dict[str, int] = field(default_factory=dict)
    per_level_batches: Dict[str, int] = field(default_factory=dict)
    level_switches: int = 0
    current_level: Optional[str] = None
    cycles_saved: float = 0.0
    mcu_ms_saved: float = 0.0
    #: Per priority class: completed/shed/failed counts and latency percentiles.
    per_priority: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Per model (deployment): requests/batches/current level/per-level traffic.
    per_model: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per tenant: completions, quota rejections, sheds, latency vs SLO.
    per_tenant: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Cascade telemetry (escalation rate, cycles saved vs exact-only,
    #: blended accuracy proxy); ``None`` unless a cascade gate is active.
    cascade: Optional[Dict[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view."""
        return {
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_shed": self.requests_shed,
            "batches": self.batches,
            "queue_depth": self.queue_depth,
            "uptime_s": self.uptime_s,
            "throughput_rps": self.throughput_rps,
            "windowed_throughput_rps": self.windowed_throughput_rps,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": {str(k): v for k, v in sorted(self.batch_size_histogram.items())},
            "per_level_requests": dict(self.per_level_requests),
            "per_level_batches": dict(self.per_level_batches),
            "level_switches": self.level_switches,
            "current_level": self.current_level,
            "cycles_saved": self.cycles_saved,
            "mcu_ms_saved": self.mcu_ms_saved,
            "per_priority": {name: dict(stats) for name, stats in self.per_priority.items()},
            "per_model": {name: dict(stats) for name, stats in self.per_model.items()},
            "per_tenant": {name: dict(stats) for name, stats in self.per_tenant.items()},
            **({"cascade": dict(self.cascade)} if self.cascade is not None else {}),
        }


def _percentile(ordered: List[float], q: float) -> float:
    """Percentile of an already-sorted list (true nearest-rank).

    The nearest-rank definition: the smallest value with at least ``q`` of
    the sample at or below it, i.e. element ``ceil(q * n) - 1`` (0-indexed).
    A rounded interpolation index looks similar but lands one rank short on
    small windows (e.g. p95 of 13 samples picks the 12th instead of the 13th
    value), systematically under-reporting tail latency.
    """
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


class ServerMetrics:
    """Thread-safe telemetry sink shared by the whole serving stack.

    Parameters
    ----------
    baseline_cycles_per_sample:
        Simulated per-sample cycles of the most accurate service level; the
        reference against which cycle savings are accumulated.
    cycles_to_ms:
        Milliseconds per cycle on the deployment board (savings conversion).
    window:
        Number of most-recent request latencies kept for the percentiles.
    registry:
        Metrics registry to record into; a private one is created when
        omitted.  Passing a shared registry (e.g. from an
        :class:`~repro.obs.Observability` bundle) is how the Prometheus
        endpoint and a future fleet aggregator see this sink's counters.
    rate_window_s:
        Width of the windowed-throughput window.
    time_fn:
        Monotonic clock override (tests inject a fake clock).
    """

    def __init__(
        self,
        baseline_cycles_per_sample: float = 0.0,
        cycles_to_ms: float = 0.0,
        window: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        rate_window_s: float = 10.0,
        time_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.baseline_cycles_per_sample = float(baseline_cycles_per_sample)
        self.cycles_to_ms = float(cycles_to_ms)
        self.rate_window_s = float(rate_window_s)
        self._window = int(window)
        self._time = time_fn if time_fn is not None else time.monotonic
        self._lock = threading.Lock()
        self._started_at = self._time()
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        # Target metadata (uptime + build info) so fleet scrapes identify
        # which build/interpreter answers behind each replica= series.
        reg.enable_target_metadata()
        self._c_completed = reg.counter(
            "repro_requests_completed_total",
            "Requests completed, by model, priority class and service level.",
            ("model", "priority", "level"),
        )
        self._c_failed = reg.counter(
            "repro_requests_failed_total", "Requests failed, by priority class.", ("priority",)
        )
        self._c_shed = reg.counter(
            "repro_requests_shed_total",
            "Requests shed on deadline expiry, by priority class.",
            ("priority",),
        )
        self._c_batches = reg.counter(
            "repro_batches_total", "Batches executed, by model and service level.", ("model", "level")
        )
        self._c_tenant_completed = reg.counter(
            "repro_tenant_requests_total", "Requests completed, by tenant.", ("tenant",)
        )
        self._c_tenant_rejected = reg.counter(
            "repro_tenant_rejected_total",
            "Requests rejected at enqueue by a tenant quota, by tenant and "
            'reason ("rate" or "inflight").',
            ("tenant", "reason"),
        )
        self._c_switches = reg.counter(
            "repro_level_switches_total", "Service-level changes between consecutive batches."
        )
        self._c_cycles_saved = reg.counter(
            "repro_cycles_saved_total",
            "Simulated MCU cycles saved versus the most accurate level.",
        )
        self._c_cascade_attempts = reg.counter(
            "repro_cascade_attempts_total",
            "Cascade forward-pass attempts, by service level.",
            ("level",),
        )
        self._c_cascade_escalations = reg.counter(
            "repro_cascade_escalations_total",
            "Requests escalated to the exact level on a low softmax margin, by priority.",
            ("priority",),
        )
        self._c_cascade_suppressed = reg.counter(
            "repro_cascade_suppressed_total",
            "Low-margin requests answered cheap because their deadline left no "
            "headroom for an exact pass, by priority.",
            ("priority",),
        )
        self._c_cascade_completed = reg.counter(
            "repro_cascade_completed_total",
            "Requests completed through the cascade (cheap-accepted or escalated).",
        )
        self._c_cascade_cycles = reg.counter(
            "repro_cascade_cycles_total",
            "Simulated MCU cycles actually spent by cascade attempts.",
        )
        self._c_cascade_exact_cycles = reg.counter(
            "repro_cascade_exact_only_cycles_total",
            "Simulated MCU cycles an exact-only deployment would have spent "
            "on the same completed requests.",
        )
        # Cascade gate metadata, installed by the scheduler when the active
        # policy cascades; the snapshot's blended-accuracy proxy needs the
        # calibrated accept/exact accuracies.
        self._cascade_meta: Optional[Dict[str, Any]] = None
        self._h_latency = reg.histogram(
            "repro_request_latency_ms",
            "End-to-end request latency (queue wait + service), by priority class.",
            ("priority",),
            buckets=LATENCY_BUCKETS_MS,
        )
        self._h_batch_size = reg.histogram(
            "repro_batch_size", "Coalesced batch sizes.", buckets=BATCH_SIZE_BUCKETS
        )
        self._g_queue_depth = reg.gauge("repro_queue_depth", "Requests waiting in the queue.")
        self._g_windowed_rps = reg.gauge(
            "repro_throughput_rps", "Completions per second over the trailing window."
        )
        # Plain state the registry primitives cannot express: percentile
        # windows, the exact (non-bucketed) batch-size histogram, the
        # per-model current-level markers and the per-second completion ring.
        self._batch_sizes: Dict[int, int] = {}
        self._latencies: List[float] = []
        self._current_level: Optional[str] = None
        self._current_levels: Dict[str, str] = {}
        self._priority_latencies: Dict[str, List[float]] = {name: [] for name in PRIORITIES}
        self._tenant_latencies: Dict[str, List[float]] = {}
        self._tenant_shed: Dict[str, int] = {}
        #: tenant -> {"slo_ms": ..., "weight": ...}, installed by the
        #: scheduler from its tenant table so the per-tenant snapshot block
        #: can report p95-vs-SLO without a back-reference to the table.
        self._tenant_meta: Dict[str, Dict[str, Any]] = {}
        self._rate_buckets: deque = deque()  # [second, completions] pairs

    # ------------------------------------------------------------------ recording
    def record_batch(
        self,
        level_name: str,
        batch_size: int,
        latencies_ms: List[float],
        cycles_per_sample: float = 0.0,
        priorities: Optional[Sequence[str]] = None,
        track_level: bool = True,
        model: str = DEFAULT_MODEL,
        tenants: Optional[Sequence[str]] = None,
        baseline_cycles_per_sample: Optional[float] = None,
    ) -> None:
        """Record one executed batch.

        ``latencies_ms`` are the end-to-end (queue wait + service) latencies
        of the batch's requests; ``cycles_per_sample`` is the simulated MCU
        cost of the level that served it; ``priorities`` and ``tenants``
        (parallel to ``latencies_ms``) attribute each request to its
        priority class and tenant -- omitted entries count as ``"standard"``
        / the default tenant.  ``model`` names the deployment that executed
        the batch (a batch never mixes models, so one name covers it), and
        ``baseline_cycles_per_sample`` overrides the sink-level baseline for
        the cycle-savings credit -- each deployment has its own exact-level
        cost.  ``track_level=False`` leaves the current-level marker and the
        level-switch counter alone: the cascade's escalated (exact-level)
        groups interleave with cheap groups by design, and counting each
        interleave as a policy "switch" would drown the signal the counter
        exists for.
        """
        if priorities is None:
            priorities = [DEFAULT_PRIORITY] * len(latencies_ms)
        if tenants is None:
            tenants = [DEFAULT_TENANT] * len(latencies_ms)
        per_priority: Dict[str, int] = {}
        for priority in priorities:
            per_priority[priority] = per_priority.get(priority, 0) + 1
        per_tenant: Dict[str, int] = {}
        for tenant in tenants:
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        with self._lock:
            self._batch_sizes[batch_size] = self._batch_sizes.get(batch_size, 0) + 1
            if track_level:
                previous = self._current_levels.get(model)
                if previous is not None and previous != level_name:
                    self._c_switches.inc()
                self._current_levels[model] = level_name
                self._current_level = level_name
            self._latencies.extend(latencies_ms)
            if len(self._latencies) > self._window:
                del self._latencies[: len(self._latencies) - self._window]
            for priority, latency in zip(priorities, latencies_ms):
                window = self._priority_latencies.setdefault(priority, [])
                window.append(latency)
                if len(window) > self._window:
                    del window[: len(window) - self._window]
            for tenant, latency in zip(tenants, latencies_ms):
                window = self._tenant_latencies.setdefault(tenant, [])
                window.append(latency)
                if len(window) > self._window:
                    del window[: len(window) - self._window]
            self._note_completions(self._time(), batch_size)
        self._c_batches.inc(model=model, level=level_name)
        self._h_batch_size.observe(batch_size)
        for priority, count in per_priority.items():
            self._c_completed.inc(count, model=model, priority=priority, level=level_name)
        for tenant, count in per_tenant.items():
            self._c_tenant_completed.inc(count, tenant=tenant)
        for priority, latency in zip(priorities, latencies_ms):
            self._h_latency.observe(latency, priority=priority)
        baseline = (
            self.baseline_cycles_per_sample
            if baseline_cycles_per_sample is None
            else float(baseline_cycles_per_sample)
        )
        if baseline > 0 and cycles_per_sample > 0:
            saved = baseline - cycles_per_sample
            if saved > 0:
                # Credit per *completed* request (== len(latencies_ms)): under
                # a cascade a group can contain requests that escalate instead
                # of completing, and those must not book cheap-level savings.
                self._c_cycles_saved.inc(saved * len(latencies_ms))

    def record_failure(self, count: int = 1, priority: str = DEFAULT_PRIORITY) -> None:
        """Record failed requests, attributed to their priority class."""
        self._c_failed.inc(int(count), priority=priority)

    def record_shed(
        self, count: int = 1, priority: str = DEFAULT_PRIORITY, tenant: Optional[str] = None
    ) -> None:
        """Record requests shed because their per-request deadline expired."""
        self._c_shed.inc(int(count), priority=priority)
        if tenant is not None:
            with self._lock:
                self._tenant_shed[tenant] = self._tenant_shed.get(tenant, 0) + int(count)

    # ------------------------------------------------------------------ tenants
    def configure_tenants(self, tenant_meta: Dict[str, Dict[str, Any]]) -> None:
        """Install per-tenant metadata (``slo_ms``, ``weight``) for snapshots.

        Called by the scheduler from its tenant table; from then on every
        snapshot carries a ``per_tenant`` block for each configured tenant
        (plus any unconfigured tenant that saw traffic), annotated with its
        SLO target and whether the windowed p95 currently meets it.
        """
        with self._lock:
            self._tenant_meta = {
                str(name): dict(meta) for name, meta in tenant_meta.items()
            }

    def record_tenant_rejection(self, tenant: str, reason: str) -> None:
        """Record one request rejected at enqueue by a tenant quota."""
        self._c_tenant_rejected.inc(tenant=tenant, reason=reason)

    def _tenant_block(self) -> Dict[str, Dict[str, Any]]:
        """The snapshot's ``per_tenant`` dict (lock held by the caller)."""
        completed_series = self._c_tenant_completed.collect()
        rejected_series = self._c_tenant_rejected.collect()
        names = set(self._tenant_meta) | self._tenant_latencies.keys()
        names.update(tenant for (tenant,) in completed_series)
        names.update(tenant for (tenant, _reason) in rejected_series)
        block: Dict[str, Dict[str, Any]] = {}
        for name in sorted(names):
            completed = int(completed_series.get((name,), 0))
            rejected = {
                reason: int(count)
                for (tenant, reason), count in sorted(rejected_series.items())
                if tenant == name
            }
            shed = int(self._tenant_shed.get(name, 0))
            meta = self._tenant_meta.get(name, {})
            if not completed and not rejected and not shed and not meta:
                continue  # only tenants that are configured or saw traffic
            ordered = sorted(self._tenant_latencies.get(name, ()))
            p95 = _percentile(ordered, 0.95)
            stats: Dict[str, Any] = {
                "completed": completed,
                "rejected": rejected,
                "rejected_total": sum(rejected.values()),
                "shed": shed,
                "p50_latency_ms": _percentile(ordered, 0.50),
                "p95_latency_ms": p95,
            }
            slo_ms = meta.get("slo_ms")
            if slo_ms is not None:
                stats["slo_ms"] = float(slo_ms)
                stats["slo_ok"] = bool(not ordered or p95 <= float(slo_ms))
            if meta.get("weight") is not None:
                stats["weight"] = float(meta["weight"])
            block[name] = stats
        return block

    # ------------------------------------------------------------------ cascade
    def configure_cascade(
        self,
        cheap_level: str,
        exact_level: str,
        threshold: float,
        accept_accuracy: Optional[float] = None,
        exact_accuracy: Optional[float] = None,
        accuracy_budget: Optional[float] = None,
    ) -> None:
        """Install the active cascade gate's metadata.

        Called by the scheduler when its policy produces a cascade gate;
        from then on :meth:`snapshot` carries a ``cascade`` block with the
        escalation rate, the cycles saved vs an exact-only deployment, and
        the blended accuracy proxy derived from the calibrated accuracies.
        """
        self._cascade_meta = {
            "cheap_level": str(cheap_level),
            "exact_level": str(exact_level),
            "threshold": float(threshold),
            "accept_accuracy": accept_accuracy,
            "exact_accuracy": exact_accuracy,
            "accuracy_budget": accuracy_budget,
        }

    def record_cascade_attempt(self, level_name: str, count: int, cycles_per_sample: float) -> None:
        """Record ``count`` forward passes at ``level_name`` in the cascade."""
        self._c_cascade_attempts.inc(int(count), level=level_name)
        if cycles_per_sample > 0:
            self._c_cascade_cycles.inc(float(cycles_per_sample) * count)

    def record_cascade_escalation(self, priority: str = DEFAULT_PRIORITY) -> None:
        """Record one request re-enqueued to the exact level."""
        self._c_cascade_escalations.inc(priority=priority)

    def record_cascade_suppressed(self, priority: str = DEFAULT_PRIORITY) -> None:
        """Record one low-margin request kept cheap for lack of deadline headroom."""
        self._c_cascade_suppressed.inc(priority=priority)

    def record_cascade_completions(self, count: int, exact_cycles_per_sample: float) -> None:
        """Credit ``count`` cascade completions against the exact-only baseline."""
        self._c_cascade_completed.inc(int(count))
        if exact_cycles_per_sample > 0:
            self._c_cascade_exact_cycles.inc(float(exact_cycles_per_sample) * count)

    def _cascade_block(self) -> Optional[Dict[str, Any]]:
        """The snapshot's ``cascade`` dict, or ``None`` when not cascading."""
        meta = self._cascade_meta
        if meta is None:
            return None
        completed = int(self._c_cascade_completed.total())
        escalations = int(self._c_cascade_escalations.total())
        suppressed = int(self._c_cascade_suppressed.total())
        spent = self._c_cascade_cycles.total()
        exact_only = self._c_cascade_exact_cycles.total()
        escalation_rate = escalations / completed if completed else 0.0
        block: Dict[str, Any] = {
            **meta,
            "completed": completed,
            "escalations": escalations,
            "suppressed": suppressed,
            "escalation_rate": escalation_rate,
            "attempts_per_level": {
                level: int(count) for (level,), count in self._c_cascade_attempts.collect().items()
            },
            "cycles_spent": spent,
            "exact_only_cycles": exact_only,
            "cycles_saved": exact_only - spent,
            "cycles_saved_frac": (exact_only - spent) / exact_only if exact_only else 0.0,
        }
        if meta["accept_accuracy"] is not None and meta["exact_accuracy"] is not None:
            # Accepted requests carry the calibrated above-threshold cheap
            # accuracy, escalated ones the exact accuracy: the live blend.
            block["blended_accuracy_proxy"] = (1.0 - escalation_rate) * meta[
                "accept_accuracy"
            ] + escalation_rate * meta["exact_accuracy"]
        return block

    def _note_completions(self, now: float, count: int) -> None:
        """Credit ``count`` completions to the current one-second bucket."""
        second = int(now)
        buckets = self._rate_buckets
        if buckets and buckets[-1][0] == second:
            buckets[-1][1] += count
        else:
            buckets.append([second, count])
        horizon = second - int(self.rate_window_s) - 1
        while buckets and buckets[0][0] < horizon:
            buckets.popleft()

    def _windowed_rps(self, now: float) -> float:
        """Completions per second over the trailing ``rate_window_s``."""
        horizon = now - self.rate_window_s
        total = sum(count for second, count in self._rate_buckets if second + 1.0 > horizon)
        span = min(self.rate_window_s, max(now - self._started_at, 1e-9))
        return total / span

    # ------------------------------------------------------------------ reading
    def snapshot(self, queue_depth: int = 0) -> MetricsSnapshot:
        """A consistent point-in-time view of every counter."""
        # Registry reads take per-instrument locks; aggregate by label after.
        completed_series = self._c_completed.collect()
        completed = int(sum(completed_series.values()))
        per_level_requests: Dict[str, int] = {}
        priority_completed: Dict[str, int] = {}
        model_completed: Dict[str, int] = {}
        model_levels: Dict[str, Dict[str, int]] = {}
        for (model, priority, level), count in completed_series.items():
            per_level_requests[level] = per_level_requests.get(level, 0) + int(count)
            priority_completed[priority] = priority_completed.get(priority, 0) + int(count)
            model_completed[model] = model_completed.get(model, 0) + int(count)
            levels = model_levels.setdefault(model, {})
            levels[level] = levels.get(level, 0) + int(count)
        failed_series = self._c_failed.collect()
        shed_series = self._c_shed.collect()
        batch_series = self._c_batches.collect()
        batches = int(sum(batch_series.values()))
        per_level_batches: Dict[str, int] = {}
        model_batches: Dict[str, int] = {}
        for (model, level), count in batch_series.items():
            per_level_batches[level] = per_level_batches.get(level, 0) + int(count)
            model_batches[model] = model_batches.get(model, 0) + int(count)
        with self._lock:
            now = self._time()
            uptime = max(now - self._started_at, 1e-9)
            windowed = self._windowed_rps(now)
            # Sorted once; both percentiles index the same ordered window
            # (snapshot runs on the scheduler loop before every batch).
            latencies = sorted(self._latencies)
            per_priority: Dict[str, Dict[str, float]] = {}
            for name in PRIORITIES:
                n_completed = priority_completed.get(name, 0)
                shed = int(shed_series.get((name,), 0))
                n_failed = int(failed_series.get((name,), 0))
                if not n_completed and not shed and not n_failed:
                    continue  # keep the snapshot small: only classes that saw traffic
                ordered = sorted(self._priority_latencies.get(name, ()))
                per_priority[name] = {
                    "completed": n_completed,
                    "shed": shed,
                    "failed": n_failed,
                    "p50_latency_ms": _percentile(ordered, 0.50),
                    "p95_latency_ms": _percentile(ordered, 0.95),
                }
            batch_size_histogram = dict(self._batch_sizes)
            current_level = self._current_level
            current_levels = dict(self._current_levels)
            per_tenant = self._tenant_block()
        per_model: Dict[str, Dict[str, Any]] = {}
        for model in sorted(set(model_completed) | set(model_batches) | set(current_levels)):
            per_model[model] = {
                "requests": model_completed.get(model, 0),
                "batches": model_batches.get(model, 0),
                "current_level": current_levels.get(model),
                "per_level_requests": model_levels.get(model, {}),
            }
        cycles_saved = self._c_cycles_saved.total()
        self._g_queue_depth.set(int(queue_depth))
        self._g_windowed_rps.set(windowed)
        return MetricsSnapshot(
            requests_completed=completed,
            requests_failed=int(sum(failed_series.values())),
            requests_shed=int(sum(shed_series.values())),
            batches=batches,
            queue_depth=int(queue_depth),
            uptime_s=uptime,
            throughput_rps=completed / uptime,
            windowed_throughput_rps=windowed,
            p50_latency_ms=_percentile(latencies, 0.50),
            p95_latency_ms=_percentile(latencies, 0.95),
            mean_batch_size=(completed / batches) if batches else 0.0,
            batch_size_histogram=batch_size_histogram,
            per_level_requests=per_level_requests,
            per_level_batches=per_level_batches,
            level_switches=int(self._c_switches.total()),
            current_level=current_level,
            cycles_saved=cycles_saved,
            mcu_ms_saved=cycles_saved * self.cycles_to_ms,
            per_priority=per_priority,
            per_model=per_model,
            per_tenant=per_tenant,
            cascade=self._cascade_block(),
        )

    def render_prometheus(self, queue_depth: int = 0) -> str:
        """The sink's registry as Prometheus text exposition.

        Takes a snapshot first so derived gauges (queue depth, windowed
        throughput) are fresh at scrape time.
        """
        self.snapshot(queue_depth=queue_depth)
        return self.registry.render_prometheus()
