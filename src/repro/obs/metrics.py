"""Thread-safe metrics registry: Counter / Gauge / Histogram with labels.

The registry is the storage layer of the observability subsystem: the
serving-side :class:`~repro.serving.metrics.ServerMetrics` sink records into
these primitives, and the HTTP front exposes the same state as Prometheus
text exposition format on ``GET /metrics?format=prometheus``.

Design notes:

* **Labels are positional tuples internally.**  An instrument declares its
  ``labelnames`` once; every sample is keyed by the tuple of label *values*
  in that order.  This keeps the hot path (one dict lookup + add under a
  per-instrument lock) cheap enough to sit inside the scheduler loop.
* **Constant labels** (e.g. ``replica="3"``) are attached at the registry
  level and rendered onto every series, so a future fleet router can scrape
  N replicas and ``sum()`` the per-replica series without name collisions.
* **Histograms use fixed bucket boundaries** (exponential by default, see
  :data:`LATENCY_BUCKETS_MS`): cumulative ``_bucket`` counts, ``_sum`` and
  ``_count`` follow the Prometheus data model, so the exposition is directly
  scrapeable.

No dependency on any serving module -- the registry is usable standalone.
"""

from __future__ import annotations

import platform
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Fixed exponential latency buckets (milliseconds): 0.5 ms .. ~4 s.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
)

#: Power-of-two batch-size buckets matching the scheduler's coalescing range.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition format."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape a HELP line per the exposition format."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    """``{a="x",b="y"}`` or the empty string for an unlabelled series."""
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


class _Instrument:
    """Base class: name, help text, declared label names, per-child state."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = str(name)
        self.help = str(help)
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        if not self.labelnames:
            # Pre-seed the unlabelled series so the metric renders (at zero)
            # from the first scrape, before any sample lands.
            self._children[()] = self._zero()

    def _zero(self) -> Any:
        return 0.0

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if len(labels) != len(self.labelnames) or any(n not in labels for n in self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    # ------------------------------------------------------------------ reading
    def collect(self) -> Dict[Tuple[str, ...], Any]:
        """Point-in-time copy of every child series."""
        with self._lock:
            return dict(self._children)

    def render_into(self, lines: List[str], const: Sequence[Tuple[str, str]]) -> None:
        for key, value in sorted(self.collect().items()):
            pairs = list(const) + list(zip(self.labelnames, key))
            lines.append(f"{self.name}{_render_labels(pairs)} {_format_value(value)}")


class Counter(_Instrument):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (must be >= 0) to the series selected by ``labels``."""
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {value})")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one series (0 if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def total(self) -> float:
        """Sum across every labelled series."""
        with self._lock:
            return float(sum(self._children.values()))


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, windowed throughput)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the series selected by ``labels`` to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` (may be negative) to the series."""
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one series (0 if never set)."""
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))


class _HistogramState:
    """Per-series histogram accumulator: bucket counts + sum + count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative) counts
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket histogram following the Prometheus data model.

    ``observe(v)`` lands in the first bucket whose upper bound is >= ``v``;
    values beyond the last bound count only toward ``+Inf`` (i.e. ``_count``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = LATENCY_BUCKETS_MS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be non-empty and strictly increasing")
        self.buckets = bounds
        super().__init__(name, help, labelnames)

    def _zero(self) -> "_HistogramState":
        return _HistogramState(len(self.buckets))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the series selected by ``labels``."""
        value = float(value)
        key = self._key(labels)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = _HistogramState(len(self.buckets))
            if idx < len(self.buckets):
                state.counts[idx] += 1
            state.sum += value
            state.count += 1

    def series(self, **labels: Any) -> Tuple[List[int], float, int]:
        """``(cumulative_bucket_counts, sum, count)`` of one series."""
        key = self._key(labels)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                return [0] * len(self.buckets), 0.0, 0
            cumulative, running = [], 0
            for count in state.counts:
                running += count
                cumulative.append(running)
            return cumulative, state.sum, state.count

    def total_count(self) -> int:
        """Total observations across every labelled series."""
        with self._lock:
            return sum(state.count for state in self._children.values())

    def render_into(self, lines: List[str], const: Sequence[Tuple[str, str]]) -> None:
        """Append the ``_bucket``/``_sum``/``_count`` exposition lines."""
        with self._lock:
            children = {key: (list(s.counts), s.sum, s.count) for key, s in self._children.items()}
        for key, (counts, total, count) in sorted(children.items()):
            base = list(const) + list(zip(self.labelnames, key))
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                pairs = base + [("le", f"{bound:g}")]
                lines.append(f"{self.name}_bucket{_render_labels(pairs)} {cumulative}")
            pairs = base + [("le", "+Inf")]
            lines.append(f"{self.name}_bucket{_render_labels(pairs)} {count}")
            lines.append(f"{self.name}_sum{_render_labels(base)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_render_labels(base)} {count}")


class MetricsRegistry:
    """Named collection of instruments with one text-exposition renderer.

    Parameters
    ----------
    const_labels:
        Labels stamped onto every rendered series (e.g. ``{"replica": "3"}``)
        so a fleet aggregator can sum the same metric across replicas.
    """

    def __init__(self, const_labels: Optional[Mapping[str, Any]] = None):
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}
        self.const_labels: Tuple[Tuple[str, str], ...] = tuple(
            (str(k), str(v)) for k, v in (const_labels or {}).items()
        )
        self._uptime_gauge: Optional[Gauge] = None
        self._uptime_started: float = 0.0

    def enable_target_metadata(self, version: Optional[str] = None) -> "MetricsRegistry":
        """Register the standard target-metadata instruments (idempotent).

        Adds ``repro_process_uptime_seconds`` (refreshed on every
        :meth:`render_prometheus` call) and the Prometheus info-style
        ``repro_build_info`` gauge whose ``version`` / ``python`` labels --
        on top of the registry's const labels -- let a fleet scrape identify
        exactly which build answers behind each ``replica=`` series.
        """
        if version is None:
            from repro._version import __version__ as version
        info = self.gauge(
            "repro_build_info",
            "Build metadata carried as labels; the value is always 1.",
            ("version", "python"),
        )
        info.set(1, version=version, python=platform.python_version())
        if self._uptime_gauge is None:
            self._uptime_started = time.monotonic()
            self._uptime_gauge = self.gauge(
                "repro_process_uptime_seconds", "Seconds since this registry came up."
            )
            self._uptime_gauge.set(0.0)
        return self

    def _get_or_create(self, cls, name: str, help: str, labelnames: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {list(existing.labelnames)}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        """Register (or fetch, if identical) a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Register (or fetch, if identical) a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """Register (or fetch, if identical) a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        """Registered instruments, in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        if self._uptime_gauge is not None:
            self._uptime_gauge.set(time.monotonic() - self._uptime_started)
        lines: List[str] = []
        for metric in self.instruments():
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            metric.render_into(lines, self.const_labels)
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ish debugging view: metric name -> {label-tuple-str: value}."""
        view: Dict[str, Any] = {}
        for metric in self.instruments():
            series: Dict[str, Any] = {}
            for key, value in sorted(metric.collect().items()):
                label = ",".join(f"{n}={v}" for n, v in zip(metric.labelnames, key))
                if isinstance(value, _HistogramState):
                    series[label] = {"count": value.count, "sum": value.sum}
                else:
                    series[label] = value
            view[metric.name] = series
        return view
