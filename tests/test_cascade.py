"""Confidence cascading: calibration sweep, cascade policy, escalation path.

Covers the offline half (threshold sweep + cached `CascadeCalibration`
artifact, budget edge cases), the policy (gate resolution, registry), the
scheduler's per-request escalation (re-enqueue under one trace id, no
double-counted queue wait, shed-vs-escalate near deadlines) and the cascade
telemetry block.
"""

import time

import numpy as np
import pytest

from repro.registry import POLICIES
from repro.serving import (
    CascadePolicy,
    Deployment,
    LatencySLOPolicy,
    MetricsSnapshot,
    Request,
    RequestError,
    RequestQueue,
    Scheduler,
)
from repro.workflow import (
    ArtifactStore,
    CascadeCalibration,
    CascadeLevelPoint,
    CascadeStage,
    Experiment,
    ServeStage,
    calibrate_cascade,
    softmax_margins,
)


@pytest.fixture(scope="module")
def deployment(tiny_qmodel, tiny_pipeline_result):
    """A three-level deployment spanning the exact-to-aggressive range."""
    points = [
        {"label": "exact", "taus": {}, "accuracy": 0.9},
        {"label": "mid", "taus": {"conv1": 0.05, "conv2": 0.05}, "accuracy": 0.85},
        {"label": "aggressive", "taus": {"conv1": 0.2, "conv2": 0.2}, "accuracy": 0.7},
    ]
    return Deployment.from_points(
        tiny_qmodel,
        points,
        tiny_pipeline_result.significance,
        unpacked=tiny_pipeline_result.unpacked,
    )


@pytest.fixture(scope="module")
def holdout(small_split):
    """Held-out images/labels for the calibration sweep."""
    return small_split.test.images[:96], small_split.test.labels[:96]


@pytest.fixture(scope="module")
def calibration(deployment, holdout):
    images, labels = holdout
    return calibrate_cascade(deployment, images, labels, accuracy_budget=0.05)


def _manual_calibration(deployment, threshold, chosen=None, budget=0.05):
    """A hand-built calibration pinning the cheapest level at `threshold`."""
    exact = deployment.levels[0]
    cheap = deployment.levels[-1]
    chosen = cheap.name if chosen is None else chosen
    point = CascadeLevelPoint(
        level=cheap.name,
        threshold=threshold,
        escalation_rate=0.2,
        blended_accuracy=0.88,
        accept_accuracy=0.9,
        expected_cycles_per_sample=cheap.cycles_per_sample + 0.2 * exact.cycles_per_sample,
        cycles_saved_frac=0.4,
        within_budget=True,
    )
    return CascadeCalibration(
        model_name="tiny_cnn",
        exact_level=exact.name,
        exact_accuracy=0.9,
        exact_cycles_per_sample=exact.cycles_per_sample,
        accuracy_budget=budget,
        n_samples=96,
        points=[point],
        chosen=chosen,
    )


# --------------------------------------------------------------------------- margins
class TestSoftmaxMargins:
    def test_range_and_shape(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(32, 10))
        margins = softmax_margins(logits)
        assert margins.shape == (32,)
        assert np.all(margins >= 0.0) and np.all(margins <= 1.0)

    def test_confident_row_beats_ambiguous_row(self):
        confident = np.array([10.0, 0.0, 0.0])
        ambiguous = np.array([1.0, 1.0, 0.0])
        m = softmax_margins(np.stack([confident, ambiguous]))
        assert m[0] > 0.9
        assert m[1] < 0.1


# --------------------------------------------------------------------------- calibration
class TestCalibration:
    def test_sweep_structure(self, calibration, deployment):
        assert calibration.exact_level == deployment.levels[0].name
        assert len(calibration.points) == len(deployment.levels) - 1
        for point in calibration.points:
            assert 0.0 <= point.escalation_rate <= 1.0
            if point.within_budget:
                assert point.blended_accuracy >= calibration.exact_accuracy - 0.05 - 1e-9

    def test_chosen_point_beats_exact_cycles(self, calibration):
        # The tiny CNN is well-calibrated enough that some cheap level wins.
        assert calibration.chosen is not None
        point = calibration.chosen_point
        assert point.expected_cycles_per_sample < calibration.exact_cycles_per_sample
        assert point.cycles_saved_frac > 0.0

    def test_budget_zero_is_always_exact(self, deployment, holdout):
        images, labels = holdout
        calibration = calibrate_cascade(deployment, images, labels, accuracy_budget=0.0)
        assert calibration.chosen is None
        assert calibration.chosen_point is None
        policy = CascadePolicy(calibration=calibration)
        assert policy.select(deployment.levels, MetricsSnapshot()) == 0
        assert policy.cascade_gate(deployment.levels) is None

    def test_budget_inf_never_escalates(self, deployment, holdout):
        images, labels = holdout
        calibration = calibrate_cascade(
            deployment, images, labels, accuracy_budget=float("inf")
        )
        assert calibration.chosen is not None
        point = calibration.chosen_point
        assert point.threshold == 0.0
        assert point.escalation_rate == 0.0

    def test_no_calibration_degrades_to_exact(self, deployment):
        policy = CascadePolicy(calibration=None)
        assert policy.select(deployment.levels, MetricsSnapshot()) == 0
        assert policy.cascade_gate(deployment.levels) is None

    def test_mismatched_level_names_raise(self, deployment):
        calibration = _manual_calibration(deployment, 0.5, chosen="no-such-level")
        policy = CascadePolicy(calibration=calibration)
        with pytest.raises(ValueError, match="not found in deployment levels"):
            policy.select(deployment.levels, MetricsSnapshot())


# --------------------------------------------------------------------------- stage caching
class TestCascadeStageCaching:
    def _experiment(self, tiny_qmodel, tiny_pipeline_result, holdout, store, budget=0.05):
        images, labels = holdout
        points = [
            {"label": "exact", "taus": {}, "accuracy": 0.9},
            {"label": "mid", "taus": {"conv1": 0.05, "conv2": 0.05}, "accuracy": 0.85},
        ]
        return Experiment(
            stages=[
                ServeStage(points=points),
                CascadeStage(accuracy_budget=budget, n_samples=64),
            ],
            inputs={
                "qmodel": tiny_qmodel,
                "significance": tiny_pipeline_result.significance,
                "unpacked": tiny_pipeline_result.unpacked,
                "eval_images": images,
                "eval_labels": labels,
            },
            store=store,
        )

    def test_same_inputs_hit_the_cache(self, tiny_qmodel, tiny_pipeline_result, holdout, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = self._experiment(tiny_qmodel, tiny_pipeline_result, holdout, store).run()
        assert "cascade" in first.executed_stages
        second = self._experiment(tiny_qmodel, tiny_pipeline_result, holdout, store).run()
        assert "cascade" in second.cached_stages
        assert second["cascade"].as_dict() == first["cascade"].as_dict()

    def test_budget_change_invalidates_the_cache(
        self, tiny_qmodel, tiny_pipeline_result, holdout, tmp_path
    ):
        store = ArtifactStore(tmp_path / "store")
        self._experiment(tiny_qmodel, tiny_pipeline_result, holdout, store).run()
        rerun = self._experiment(
            tiny_qmodel, tiny_pipeline_result, holdout, store, budget=0.01
        ).run()
        assert "cascade" in rerun.executed_stages


# --------------------------------------------------------------------------- policy + registry
class TestCascadePolicy:
    def test_registered(self):
        assert POLICIES.resolve("cascade") is CascadePolicy

    def test_gate_matches_chosen_point(self, deployment, calibration):
        policy = CascadePolicy(calibration=calibration, escalation_headroom_ms=10.0)
        gate = policy.cascade_gate(deployment.levels)
        point = calibration.chosen_point
        assert gate.cheap_level == calibration.chosen
        assert gate.exact_index == 0
        assert gate.threshold == point.threshold
        assert gate.escalation_headroom_ms == 10.0
        assert policy.select(deployment.levels, MetricsSnapshot()) == gate.cheap_index


# --------------------------------------------------------------------------- requeue semantics
class TestRequeueSemantics:
    def test_requeue_preserves_deadline_and_submitted_at(self, small_split):
        request = Request(small_split.test.images[0], timeout_ms=1000.0)
        queue = RequestQueue()
        queue.put(request)
        deadline, submitted = request.deadline, request.submitted_at
        time.sleep(0.01)
        queue.put(request, requeue=True)
        assert request.deadline == deadline  # no fresh timeout budget
        assert request.submitted_at == submitted  # end-to-end clock keeps running
        assert request.enqueued_at > submitted  # second wait measured from here

    def test_fresh_put_still_rearms(self, small_split):
        request = Request(small_split.test.images[0], timeout_ms=1000.0)
        first = request.deadline
        time.sleep(0.01)
        RequestQueue().put(request)
        assert request.deadline > first


# --------------------------------------------------------------------------- escalation path
class TestEscalation:
    def _scheduler(self, deployment, threshold, headroom_ms=10.0):
        policy = CascadePolicy(
            calibration=_manual_calibration(deployment, threshold),
            escalation_headroom_ms=headroom_ms,
        )
        return Scheduler(deployment, policy=policy, max_batch_size=8, max_wait_ms=1.0)

    def test_high_margin_requests_accept_cheap(self, deployment, small_split):
        scheduler = self._scheduler(deployment, threshold=0.0)
        cheap = deployment.levels[-1].name
        with scheduler:
            requests = scheduler.submit_many(small_split.test.images[:8])
            for request in requests:
                request.result(timeout=30.0)
        assert all(r.level_name == cheap for r in requests)
        assert all(not r.escalated and r.attempts == 1 for r in requests)
        snapshot = scheduler.metrics.snapshot()
        assert snapshot.cascade["escalations"] == 0
        assert snapshot.cascade["escalation_rate"] == 0.0
        assert snapshot.cascade["attempts_per_level"] == {cheap: 8}
        assert snapshot.cascade["cycles_saved"] > 0

    def test_low_margin_requests_escalate_to_exact(self, deployment, small_split):
        # threshold 2.0 sits above every possible margin: everything escalates.
        scheduler = self._scheduler(deployment, threshold=2.0)
        exact = deployment.levels[0].name
        cheap = deployment.levels[-1].name
        with scheduler:
            requests = scheduler.submit_many(small_split.test.images[:6])
            predictions = [request.result(timeout=30.0) for request in requests]
        exact_preds = deployment.predict(small_split.test.images[:6], level=0)
        assert predictions == [int(p) for p in exact_preds]
        assert all(r.level_name == exact for r in requests)
        assert all(r.escalated and r.attempts == 2 for r in requests)
        assert all(r.margin is not None for r in requests)
        snapshot = scheduler.metrics.snapshot()
        assert snapshot.cascade["escalations"] == 6
        assert snapshot.cascade["escalation_rate"] == 1.0
        assert snapshot.cascade["attempts_per_level"][cheap] == 6
        assert snapshot.cascade["attempts_per_level"][exact] == 6
        # Escalating everything costs cheap + exact cycles: a net loss.
        assert snapshot.cascade["cycles_saved"] < 0

    def test_a_failing_pass_keeps_the_escalations_it_requeued(self, deployment, small_split):
        # Everything escalates; the second escalation's bookkeeping raises
        # after the first request went back in the queue.
        scheduler = self._scheduler(deployment, threshold=2.0)
        record = scheduler.metrics.record_cascade_escalation
        calls = []

        def second_call_raises(priority):
            calls.append(priority)
            if len(calls) == 2:
                raise RuntimeError("metrics bug")
            record(priority)

        scheduler.metrics.record_cascade_escalation = second_call_raises
        first, second = (Request(x) for x in small_split.test.images[:2])
        for request in (first, second):
            scheduler.queue.put(request)  # both ride the first popped batch
        with scheduler:
            with pytest.raises(RequestError, match="metrics bug"):
                second.result(timeout=30.0)
            prediction = first.result(timeout=30.0)
        assert first.escalated and first.attempts == 2
        assert first.level_name == deployment.levels[0].name
        assert prediction == int(deployment.predict(small_split.test.images[:1], level=0)[0])
        assert scheduler.metrics.snapshot().requests_failed == 1

    def test_both_attempts_share_one_trace_with_an_escalate_span(
        self, deployment, small_split
    ):
        scheduler = self._scheduler(deployment, threshold=2.0)
        with scheduler:
            request = scheduler.submit(small_split.test.images[0])
            request.result(timeout=30.0)
        spans = scheduler.obs.tracer.spans(trace_id=request.trace_id)
        names = [span.name for span in spans]
        assert names.count("queue-wait") == 2  # one wait per attempt
        assert names.count("execute") == 2
        assert names.count("escalate") == 1
        escalate = next(span for span in spans if span.name == "escalate")
        assert escalate.attrs["from_level"] == deployment.levels[-1].name
        assert escalate.attrs["to_level"] == deployment.levels[0].name
        assert escalate.attrs["margin"] < escalate.attrs["threshold"]

    def test_wait_and_service_accumulate_without_double_counting(
        self, deployment, small_split
    ):
        scheduler = self._scheduler(deployment, threshold=2.0)
        with scheduler:
            request = scheduler.submit(small_split.test.images[0])
            request.result(timeout=30.0)
            finished = time.monotonic()
        total_ms = (finished - request.submitted_at) * 1e3
        # Accumulated wait + service must fit inside the end-to-end clock;
        # double-counting either attempt's wait would overshoot it.
        assert request.wait_ms + request.service_ms <= total_ms + 1.0

    def test_shed_vs_escalate_keeps_cheap_answer_near_deadline(
        self, deployment, small_split
    ):
        # Huge headroom requirement: any armed deadline suppresses escalation.
        scheduler = self._scheduler(deployment, threshold=2.0, headroom_ms=1e9)
        cheap = deployment.levels[-1].name
        request = Request(
            small_split.test.images[0], timeout_ms=10_000.0, priority="interactive"
        )
        scheduler.queue.put(request)
        # Drive the core synchronously: deterministic, no thread needed.
        scheduler._execute(scheduler.queue.get_batch(8, 0.0))
        assert request.done
        assert request.level_name == cheap  # answered cheap, not escalated
        assert not request.escalated
        assert request.deadline is not None  # deadline never re-armed
        snapshot = scheduler.metrics.snapshot()
        assert snapshot.cascade["suppressed"] == 1
        assert snapshot.cascade["escalations"] == 0
        assert snapshot.requests_shed == 0

    def test_interactive_with_headroom_still_escalates(self, deployment, small_split):
        scheduler = self._scheduler(deployment, threshold=2.0, headroom_ms=1.0)
        request = Request(
            small_split.test.images[0], timeout_ms=60_000.0, priority="interactive"
        )
        scheduler.queue.put(request)
        scheduler._execute(scheduler.queue.get_batch(8, 0.0))
        assert not request.done  # re-enqueued for the exact pass
        assert request.escalated and request.pinned_level == 0
        scheduler._execute(scheduler.queue.get_batch(8, 0.0))
        assert request.done
        assert request.level_name == deployment.levels[0].name

    def test_prometheus_exposition_carries_cascade_counters(
        self, deployment, small_split
    ):
        scheduler = self._scheduler(deployment, threshold=2.0)
        with scheduler:
            scheduler.submit(small_split.test.images[0]).result(timeout=30.0)
        text = scheduler.metrics.render_prometheus()
        assert "repro_cascade_attempts_total" in text
        assert 'repro_cascade_escalations_total{priority="standard"} 1' in text

    def test_blended_accuracy_proxy_tracks_escalation_rate(self, deployment, small_split):
        scheduler = self._scheduler(deployment, threshold=0.0)
        with scheduler:
            for request in scheduler.submit_many(small_split.test.images[:4]):
                request.result(timeout=30.0)
        cascade = scheduler.metrics.snapshot().cascade
        # Zero escalations: the proxy equals the calibrated accept accuracy.
        assert cascade["blended_accuracy_proxy"] == pytest.approx(0.9)


# --------------------------------------------------------------------------- SLO composition
class TestLatencySLOPriorityComposition:
    def _policy(self, **kwargs):
        defaults = dict(slo_ms=50.0, min_samples=4, alpha=1.0, patience=1, cooldown=0)
        defaults.update(kwargs)
        return LatencySLOPolicy(**defaults)

    def _snapshot(self, global_p95, interactive_p95=None, interactive_completed=10):
        per_priority = {}
        if interactive_p95 is not None:
            per_priority["interactive"] = {
                "completed": interactive_completed,
                "shed": 0,
                "failed": 0,
                "p50_latency_ms": interactive_p95 / 2,
                "p95_latency_ms": interactive_p95,
            }
        return MetricsSnapshot(
            requests_completed=100, p95_latency_ms=global_p95, per_priority=per_priority
        )

    def test_bulk_latency_cannot_mask_an_interactive_breach(self, deployment):
        policy = self._policy(priority_class="interactive")
        # Global p95 healthy, interactive p95 breached: must escalate.
        level = policy.select(deployment.levels, self._snapshot(10.0, interactive_p95=200.0))
        assert level == 1

    def test_bulk_breach_does_not_degrade_interactive(self, deployment):
        policy = self._policy(priority_class="interactive")
        # Global p95 blown up by batch traffic, interactive fine: hold.
        level = policy.select(deployment.levels, self._snapshot(500.0, interactive_p95=5.0))
        assert level == 0

    def test_holds_until_the_class_has_samples(self, deployment):
        policy = self._policy(priority_class="interactive")
        assert policy.select(deployment.levels, self._snapshot(500.0)) == 0
        assert (
            policy.select(
                deployment.levels,
                self._snapshot(500.0, interactive_p95=200.0, interactive_completed=1),
            )
            == 0
        )

    def test_default_global_signal_unchanged(self, deployment):
        policy = self._policy()
        assert policy.select(deployment.levels, self._snapshot(500.0)) == 1
