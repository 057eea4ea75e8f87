"""The benchmark's own arithmetic: percentiles, open-loop timing, rate search.

Everything here is a pure function of recorded numbers, so the rules the
benchmark reports by can be unit-tested with fake clocks and synthetic
samples (``perfbench/test_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_TAIL_SAMPLES`` beyond quantile ``q``."""
    return n * (1.0 - q) >= MIN_TAIL_SAMPLES - 1e-9


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``0 < q <= 1``) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def tail(values: Sequence[float], q: float = 0.99) -> Dict[str, object]:
    """Median and the ``q`` quantile with the sample count behind them.

    ``basis`` says how the tail was taken: ``"p99"`` when the sample
    supports it, otherwise ``"max"`` -- the largest value, reported under the
    same key so every workload prints the metric, and flagged so a reader
    never mistakes it for a supported percentile.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if percentile_supported(n, q):
        value, basis = percentile(values, q), f"p{q * 100:g}"
    else:
        value, basis = float(max(values)), "max"
    return {"p50": float(statistics.median(values)), "tail": value, "basis": basis, "n": n}


def windowed(stamps_s: Sequence[float], latencies_ms: Sequence[float], size: int,
             q: float = 0.99) -> Dict[str, object]:
    """Throughput, median and tail per window of answers, then the median over windows.

    Window ``i`` holds answers ``i*size .. (i+1)*size - 1`` in completion
    order; its throughput is ``size`` over the time from its first answer to
    the next window's first answer, so the figure stays continuous even when
    answers arrive in whole batches.  A burst of interference on a shared
    host spoils a few windows, not the run's figure.  A window's tail is its
    ``q`` quantile when ``size`` supports it, else ``None``.
    """
    order = sorted(range(len(stamps_s)), key=stamps_s.__getitem__)
    n_windows = (len(order) - 1) // size
    if n_windows < 1:
        raise ValueError(f"fewer than {size + 1} answers: not even one window")
    rates, p50s, tails = [], [], []
    for i in range(n_windows):
        members = order[i * size:(i + 1) * size]
        span = stamps_s[order[(i + 1) * size]] - stamps_s[members[0]]
        rates.append(size / span)
        window = [latencies_ms[j] for j in members]
        p50s.append(statistics.median(window))
        if percentile_supported(size, q):
            tails.append(percentile(window, q))
    return {
        "throughput_per_s": statistics.median(rates),
        "p50": statistics.median(p50s),
        "tail": statistics.median(tails) if tails else None,
        "windows": n_windows,
    }


# --------------------------------------------------------------------------- open loop
def due_latencies_ms(due_s: Sequence[float], done_s: Sequence[Optional[float]]) -> List[float]:
    """Latency of each answered request measured from when it was *due*.

    Timing from the schedule rather than from the actual send charges a
    stall to every request it delayed.  Unanswered requests (``None``) are
    left out; :func:`count_outcomes` counts them as missing the limit.
    """
    return [(done - due) * 1e3 for due, done in zip(due_s, done_s) if done is not None]


def lag_ms(due_s: Sequence[float], dispatched_s: Sequence[float]) -> List[float]:
    """How late the generator handed each request out, in milliseconds."""
    return [max(0.0, (sent - due) * 1e3) for due, sent in zip(due_s, dispatched_s)]


def backlog_growing(latencies_ms: Sequence[float], limit_ms: float) -> bool:
    """Whether latency trends upward across a fixed-rate step.

    A rate the system sustains has a stationary latency distribution; one
    it does not leaves a queue that grows with time, so the last quarter of
    the requests (in schedule order) waits measurably longer than the first.
    The step counts as growing when the last quarter's median exceeds the
    first quarter's by more than a quarter of the latency limit.
    """
    n = len(latencies_ms)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(latencies_ms[:quarter])
    last = statistics.median(latencies_ms[-quarter:])
    return last - first > 0.25 * limit_ms


@dataclass
class Outcomes:
    """Per-request outcome counts of one run or step."""

    attempted: int = 0
    ok: int = 0
    wrong: int = 0
    refused: int = 0
    timed_out: int = 0
    unanswered: int = 0
    #: Admitted requests the tenant table never released, or released twice.
    unreleased: int = 0

    @property
    def failed(self) -> int:
        """Requests that did not return a correct answer, or leaked a tenant slot."""
        return self.wrong + self.refused + self.timed_out + self.unanswered + self.unreleased

    @property
    def error_rate(self) -> float:
        """``failed / attempted`` (0 for an empty run)."""
        return self.failed / self.attempted if self.attempted else 0.0

    def add(self, other: "Outcomes") -> "Outcomes":
        """Sum of two outcome tallies."""
        return Outcomes(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )


def count_outcomes(kinds: Iterable[str]) -> Outcomes:
    """Tally request outcomes named ``ok``/``wrong``/``refused``/``timed_out``/``unanswered``."""
    tally = Outcomes()
    for kind in kinds:
        if not hasattr(tally, kind) or kind == "attempted":
            raise ValueError(f"unknown outcome {kind!r}")
        setattr(tally, kind, getattr(tally, kind) + 1)
        tally.attempted += 1
    return tally


def tenancy_counts(per_tenant: Dict[str, Dict[str, Any]], failed: int) -> Dict[str, int]:
    """Released and rejected requests from a metrics snapshot's ``per_tenant`` block.

    A request the tenant table admitted is released when it completes, is
    shed or fails; ``failed`` is the snapshot's ``requests_failed``.
    """
    released = sum(t.get("completed", 0) + t.get("shed", 0) for t in per_tenant.values())
    rejected = sum(t.get("rejected_total", 0) for t in per_tenant.values())
    return {"released": int(released + failed), "rejected": int(rejected)}


def release_check(admitted: int, released: int) -> Outcomes:
    """An outcome tally charging every admitted request whose release is missing or extra."""
    return Outcomes(unreleased=abs(int(admitted) - int(released)))


# --------------------------------------------------------------------------- rate search
@dataclass
class RateStep:
    """One fixed-rate step of the open-loop ladder."""

    rate: float
    latencies_ms: List[float] = field(default_factory=list)
    lag_ms: List[float] = field(default_factory=list)
    outcomes: Outcomes = field(default_factory=Outcomes)
    aborted: bool = False  # the client-side backlog outgrew its bound mid-step

    def verdict(self, limit_ms: float, lag_bound_ms: float, q: float = 0.99) -> str:
        """``pass``, or the first reason the step misses the limit.

        Order matters only for the message: a step is ``discarded`` when the
        generator itself ran too late to trust its timings; it ``fails``
        when any request missed (wrong, refused, timed out, unanswered),
        when too few requests were answered to support the percentile, when
        the percentile exceeds the limit, or when the backlog grew.
        """
        if self.lag_ms and percentile(self.lag_ms, q) > lag_bound_ms:
            return "discarded: generator lag"
        if self.aborted:
            return "fail: backlog outgrew its bound"
        if self.outcomes.failed:
            return "fail: requests missed"
        if not percentile_supported(len(self.latencies_ms), q):
            return "fail: too few answers for the percentile"
        if percentile(self.latencies_ms, q) > limit_ms:
            return "fail: tail over limit"
        if backlog_growing(self.latencies_ms, limit_ms):
            return "fail: growing backlog"
        return "pass"


def highest_passing(steps: Sequence[RateStep], limit_ms: float,
                    lag_bound_ms: float) -> Optional[RateStep]:
    """The highest-rate step that passes, with every lower step passing too.

    The ladder is read in ascending order and stops at the first step that
    does not pass, so a lucky high step above a failed lower one never
    counts.  ``None`` when even the lowest rate misses.
    """
    best = None
    for step in sorted(steps, key=lambda s: s.rate):
        if step.verdict(limit_ms, lag_bound_ms) != "pass":
            break
        best = step
    return best


# --------------------------------------------------------------------------- reconciliation
def unattributed(total: float, parts: Iterable[float]) -> float:
    """What a total leaves after its measured parts: ``total - sum(parts)``."""
    return float(total) - float(sum(parts))


def reconciles(total: float, parts: Iterable[float], tolerance: float) -> bool:
    """Whether the parts sum to the total within ``tolerance`` (a share of the total)."""
    return abs(unattributed(total, parts)) <= tolerance * abs(total)


def self_time_ms(span: Dict[str, float], children: Sequence[Dict[str, float]]) -> float:
    """A span's duration minus the part of its interval its children cover.

    Spans are dicts with ``start`` and ``end`` (seconds).  Overlapping
    children are merged first so concurrent children are not subtracted
    twice.
    """
    start, end = span["start"], span["end"]
    clipped = sorted(
        (max(start, c["start"]), min(end, c["end"])) for c in children if c["end"] > start
        and c["start"] < end
    )
    covered = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for lo, hi in clipped:
        if cur_start is None or lo > cur_end:
            if cur_start is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_start is not None:
        covered += cur_end - cur_start
    return (end - start - covered) * 1e3
