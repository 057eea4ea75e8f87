"""Tests of the benchmark's own arithmetic (no model, no server, no clock)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run, stats
from perfbench.tracing import SpanRecorder

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- percentiles
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile_supported(1000, 0.99)
    assert not stats.percentile_supported(999, 0.99)
    assert stats.percentile_supported(100, 0.9)
    assert not stats.percentile_supported(99, 0.9)


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_tail_reports_p99_only_when_supported():
    supported = stats.tail([float(i) for i in range(1000)])
    assert supported["basis"] == "p99" and supported["tail"] == 989.0
    assert supported["n"] == 1000 and supported["p50"] == 499.5
    small = stats.tail([3.0, 1.0, 2.0])
    assert small["basis"] == "max" and small["tail"] == 3.0 and small["p50"] == 2.0


def test_windowed_medians_ignore_one_disturbed_window():
    # Three windows of 1000 answers at 1000/s and 10 ms; the middle one is
    # slow (a host stall).  Answers arrive in batches of 4 sharing a stamp.
    stamps, latencies, t = [], [], 0.0
    for spacing, latency in [(0.001, 10.0), (0.004, 80.0), (0.001, 10.0), (0.001, 10.0)]:
        for i in range(1000):
            if i % 4 == 0:
                t += 4 * spacing
            stamps.append(t)
            latencies.append(latency)
    summary = stats.windowed(stamps, latencies, size=1000)
    assert summary["windows"] == 3
    assert summary["throughput_per_s"] == pytest.approx(1000.0, rel=0.02)
    assert summary["p50"] == 10.0 and summary["tail"] == 10.0
    assert stats.windowed(stamps, latencies, size=500)["tail"] is None
    with pytest.raises(ValueError):
        stats.windowed(stamps[:1000], latencies[:1000], size=1000)


# --------------------------------------------------------------------------- open loop
def test_latency_is_timed_from_due_time_with_a_fake_clock():
    # Three requests due 10 ms apart; the generator stalls 25 ms before the
    # second, which delays the third too.  From the due time both carry the
    # stall; from the send time they would not.
    due = [0.000, 0.010, 0.020]
    dispatched = [0.000, 0.035, 0.035]
    done = [0.004, 0.039, 0.040]
    assert stats.due_latencies_ms(due, done) == pytest.approx([4.0, 29.0, 20.0])
    assert stats.lag_ms(due, dispatched) == pytest.approx([0.0, 25.0, 15.0])


def test_unanswered_requests_have_no_latency():
    assert stats.due_latencies_ms([0.0, 1.0], [0.002, None]) == pytest.approx([2.0])


def test_lag_never_negative():
    assert stats.lag_ms([1.0], [0.999]) == [0.0]


# --------------------------------------------------------------------------- failures
def test_failure_counting():
    tally = stats.count_outcomes(["ok", "ok", "wrong", "refused", "timed_out", "unanswered"])
    assert tally.attempted == 6 and tally.ok == 2
    assert tally.failed == 4
    assert tally.error_rate == pytest.approx(4 / 6)
    both = tally.add(stats.count_outcomes(["ok"]))
    assert both.attempted == 7 and both.ok == 3 and both.failed == 4
    assert stats.Outcomes().error_rate == 0.0
    with pytest.raises(ValueError):
        stats.count_outcomes(["lost"])
    with pytest.raises(ValueError):
        stats.count_outcomes(["attempted"])


def test_unreleased_tenant_slots_count_as_failed():
    per_tenant = {"a": {"completed": 5, "shed": 1, "rejected_total": 2},
                  "b": {"completed": 3, "shed": 0, "rejected_total": 0}}
    assert stats.tenancy_counts(per_tenant, failed=1) == {"released": 10, "rejected": 2}
    assert stats.release_check(10, 10).failed == 0
    leaked = stats.count_outcomes(["ok"] * 11).add(stats.release_check(11, 10))
    assert leaked.attempted == 11 and leaked.unreleased == 1 and leaked.failed == 1
    assert stats.release_check(9, 10).failed == 1  # a release nobody was admitted for


def test_http_snapshot_replays_the_servers_own_batches():
    wl_http = pytest.importorskip("perfbench.wl_http")
    spans, records = [], []
    # Two batches a second apart: sizes 1 and 3, members from three tenants.
    for batch, (end, members) in enumerate([(10.0, ["t0"]), (11.0, ["t1", "t2", "t3"])]):
        for k, trace_id in enumerate(members):
            spans.append({"name": "queue-wait", "trace_id": trace_id, "start_s": end - 0.002,
                          "end_s": end - 0.001, "attrs": {"priority": "standard"}})
            records.append({"trace_id": trace_id, "tenant": k})
        spans.append({"name": "batch-execute", "trace_id": members[0], "start_s": end - 0.001,
                      "end_s": end, "attrs": {"level": "L0", "model": "tiny_cnn",
                                              "member_trace_ids": members}})
    snapshot = wl_http.replay_batches(spans, records).snapshot()
    assert snapshot.batches == 2
    assert snapshot.batch_size_histogram == {1: 1, 3: 1}
    assert snapshot.p50_latency_ms == pytest.approx(2.0)
    completed = {name: t["completed"] for name, t in snapshot.per_tenant.items()}
    assert completed == {"interactive-app": 2, "standard-app": 1, "batch-app": 1}


# --------------------------------------------------------------------------- rate search
def _step(rate, latencies, lag=0.5, outcomes=None, aborted=False):
    return stats.RateStep(
        rate=rate, latencies_ms=list(latencies), lag_ms=[lag] * len(latencies),
        outcomes=outcomes or stats.count_outcomes(["ok"] * len(latencies)), aborted=aborted,
    )


STEADY = [10.0] * 990 + [30.0] * 10  # p99 = 10, ten samples beyond


def test_max_rate_takes_the_highest_passing_step():
    steps = [_step(100, STEADY), _step(150, STEADY), _step(200, [10.0] * 980 + [90.0] * 20)]
    assert steps[2].verdict(75.0, 10.0) == "fail: tail over limit"
    assert stats.highest_passing(steps, 75.0, 10.0).rate == 150


def test_max_rate_stops_at_the_first_failure():
    # A lucky higher step above a failed one does not count.
    steps = [_step(100, STEADY), _step(150, [80.0] * 1000), _step(200, STEADY)]
    assert stats.highest_passing(steps, 75.0, 10.0).rate == 100


def test_growing_backlog_fails_a_step_whose_tail_meets_the_limit():
    # Latency climbs steadily through the step: p99 (70 ms) is under the
    # 75 ms limit, but the last quarter waits far longer than the first.
    climbing = [5.0 + 65.0 * i / 999 for i in range(1000)]
    assert stats.percentile(climbing, 0.99) < 75.0
    assert stats.backlog_growing(climbing, 75.0)
    step = _step(200, climbing)
    assert step.verdict(75.0, 10.0) == "fail: growing backlog"
    assert stats.highest_passing([_step(100, STEADY), step], 75.0, 10.0).rate == 100
    assert not stats.backlog_growing(STEADY, 75.0)


def test_step_misses_on_any_failed_request_or_thin_sample():
    failed = stats.count_outcomes(["ok"] * 999 + ["refused"])
    assert _step(100, STEADY[:999], outcomes=failed).verdict(75.0, 10.0) == "fail: requests missed"
    assert _step(100, STEADY[:999]).verdict(75.0, 10.0) == (
        "fail: too few answers for the percentile")
    assert _step(100, STEADY, aborted=True).verdict(75.0, 10.0).startswith("fail: backlog")


def test_late_generator_discards_the_step():
    step = _step(100, STEADY, lag=12.0)
    assert step.verdict(75.0, 10.0) == "discarded: generator lag"
    assert stats.highest_passing([step], 75.0, 10.0) is None


# --------------------------------------------------------------------------- reconciliation
def test_unattributed_is_total_minus_parts():
    assert stats.unattributed(10.0, [2.0, 3.0, 4.5]) == pytest.approx(0.5)
    assert stats.reconciles(10.0, [2.0, 3.0, 4.5], tolerance=0.05)
    assert not stats.reconciles(10.0, [2.0, 3.0], tolerance=0.05)


def test_self_time_merges_overlapping_children():
    parent = {"start": 0.0, "end": 0.010}
    children = [
        {"start": 0.001, "end": 0.004},
        {"start": 0.003, "end": 0.006},  # overlaps the first
        {"start": 0.008, "end": 0.020},  # runs past the parent's end
    ]
    assert stats.self_time_ms(parent, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert stats.self_time_ms(parent, []) == pytest.approx(10.0)


def test_recorder_self_times_and_disabled_recorder():
    recorder = SpanRecorder(enabled=True)
    root = recorder.record("client.request", 0.0, 0.010, "r1")
    recorder.record("server.parse", 0.001, 0.003, "r1", parent=root)
    recorder.record("scheduler.execute", 0.004, 0.008, "r1", parent=root)
    totals = recorder.self_times_ms()
    assert totals["client.request"] == pytest.approx(4.0)
    assert totals["server.parse"] == pytest.approx(2.0)
    off = SpanRecorder(enabled=False)
    assert off.record("x", 0.0, 1.0, "r") is None
    with off.span("y", "r") as handle:
        assert handle["id"] is None
    assert off.spans == []


# --------------------------------------------------------------------------- contract
def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
