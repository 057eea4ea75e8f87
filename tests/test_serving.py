"""Tests of the load-adaptive serving subsystem."""

from __future__ import annotations

import http.client
import json
import pickle
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.serving.deployment as deployment_module
from repro.obs import Observability
from repro.obs.profiling import Profiler
from repro.quant.qlayers import QMaxPool2D
from repro.registry import POLICIES
from repro.serving import (
    Client,
    Deployment,
    FixedPolicy,
    HTTPClient,
    LatencySLOPolicy,
    PredictionServer,
    QueueDepthPolicy,
    Request,
    RequestError,
    RequestQueue,
    RequestTimedOut,
    Scheduler,
    SchedulerStopped,
    ServerMetrics,
    TenantConfig,
    TenantTable,
    priority_rank,
    resolve_policy,
)
from repro.serving.fleet.replica import _MP
from repro.serving.metrics import MetricsSnapshot
from repro.utils import parallel
from repro.workflow import ArtifactStore, Experiment, ServeStage, fingerprint


# --------------------------------------------------------------------------- fixtures
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


def _sample_images(split, n):
    return split.test.images[:n]


def _on_pool_thread() -> bool:
    return threading.current_thread().name.startswith("repro-shard")


def _spy_dequantize(monkeypatch, before=None):
    """Record ``(thread, images)`` of each shard's last step; ``before(thread)`` runs first."""
    real, shards = deployment_module.dequantize, []

    def dequantize(q, params):
        if before is not None:
            before(threading.current_thread())
        shards.append((threading.current_thread(), len(q)))
        return real(q, params)

    monkeypatch.setattr(deployment_module, "dequantize", dequantize)
    return shards


def _spy_max_pools(monkeypatch):
    """Record the name of each max pool layer that runs its own ``forward``."""
    real, ran = QMaxPool2D.forward, []

    def forward(layer, x, weight_mask=None, counter=None):
        ran.append(layer.name)
        return real(layer, x, weight_mask, counter)

    monkeypatch.setattr(QMaxPool2D, "forward", forward)
    return ran


# --------------------------------------------------------------------------- priority scheduling
class TestPriorityScheduling:
    def _x(self):
        return np.zeros((4, 4, 1), dtype=np.float32)

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            Request(self._x(), priority="vip")
        assert priority_rank("interactive") < priority_rank("standard") < priority_rank("batch")

    def test_batch_fills_in_priority_order(self):
        # "Coalesce within a class before spilling down": a mixed backlog pops
        # interactive first, then standard, then batch -- FIFO inside a class.
        queue = RequestQueue(starvation_ms=None)
        submitted = [
            Request(self._x(), priority=p)
            for p in ("batch", "standard", "interactive", "batch", "interactive", "standard")
        ]
        for request in submitted:
            queue.put(request)
        batch = queue.get_batch(6, max_wait_ms=0)
        assert [r.priority for r in batch] == [
            "interactive", "interactive", "standard", "standard", "batch", "batch"
        ]
        # FIFO within each class: ids increase inside every priority run.
        interactive = [r.id for r in batch if r.priority == "interactive"]
        assert interactive == sorted(interactive)

    def test_higher_class_drained_before_spilling(self):
        queue = RequestQueue(starvation_ms=None)
        for _ in range(3):
            queue.put(Request(self._x(), priority="interactive"))
        for _ in range(5):
            queue.put(Request(self._x(), priority="batch"))
        # A batch smaller than the backlog takes every interactive request
        # and only then spills into the batch class.
        popped = queue.get_batch(4, max_wait_ms=0)
        assert [r.priority for r in popped] == ["interactive"] * 3 + ["batch"]
        assert queue.depth_by_priority() == {"interactive": 0, "standard": 0, "batch": 4}

    def test_starved_batch_request_jumps_the_priority_order(self):
        queue = RequestQueue(starvation_ms=40.0)
        old = Request(self._x(), priority="batch")
        queue.put(old)
        time.sleep(0.06)  # let it cross the starvation bound
        for _ in range(4):
            queue.put(Request(self._x(), priority="interactive"))
        batch = queue.get_batch(3, max_wait_ms=0)
        assert batch[0] is old, "aged-out batch request must be served first"
        assert [r.priority for r in batch[1:]] == ["interactive", "interactive"]

    def test_strict_priority_without_aging(self):
        queue = RequestQueue(starvation_ms=None)
        old = Request(self._x(), priority="batch")
        queue.put(old)
        time.sleep(0.02)
        queue.put(Request(self._x(), priority="interactive"))
        assert queue.get_batch(1, max_wait_ms=0)[0].priority == "interactive"
        with pytest.raises(ValueError):
            RequestQueue(starvation_ms=0)

    def test_starvation_bound_under_sustained_interactive_load(self, deployment, small_split):
        # Satellite acceptance: batch-class requests still complete while
        # interactive traffic never lets the high-priority queue drain.
        xs = _sample_images(small_split, 8)
        stop_feeding = threading.Event()

        with Scheduler(
            deployment, max_batch_size=4, max_wait_ms=1, starvation_ms=100.0
        ) as scheduler:
            client = Client(scheduler, timeout_s=30.0)

            def interactive_pressure():
                while not stop_feeding.is_set():
                    client.predict(xs[0], priority="interactive")

            feeders = [threading.Thread(target=interactive_pressure, daemon=True) for _ in range(3)]
            for feeder in feeders:
                feeder.start()
            time.sleep(0.05)  # pressure established before the bulk arrives
            try:
                bulk = [client.submit(x, priority="batch") for x in xs]
                # Every bulk request completes well within a few starvation
                # periods despite the interactive firehose.
                predictions = [request.result(timeout=10.0) for request in bulk]
                assert len(predictions) == len(xs)
            finally:
                stop_feeding.set()
                for feeder in feeders:
                    feeder.join(timeout=5.0)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.per_priority["batch"]["completed"] == len(xs)
        assert snapshot.per_priority["interactive"]["completed"] > 0

    def test_interactive_overtakes_bulk_backlog(self, deployment, small_split):
        # With a deep batch-class backlog, an interactive arrival rides one of
        # the next few coalesced batches instead of waiting out the queue.
        xs = _sample_images(small_split, 8)
        with Scheduler(deployment, max_batch_size=2, max_wait_ms=1) as scheduler:
            client = Client(scheduler, timeout_s=30.0)
            bulk = [client.submit(xs[i % len(xs)], priority="batch") for i in range(24)]
            urgent = client.submit(xs[0], priority="interactive")
            urgent.result(timeout=30.0)
            for request in bulk:
                request.result(timeout=30.0)
            # The urgent request waited less than the median bulk request.
            bulk_waits = sorted(r.wait_ms for r in bulk)
            assert urgent.wait_ms < bulk_waits[len(bulk_waits) // 2]

    def test_shedding_attributed_to_priority_class(self, deployment, small_split):
        xs = _sample_images(small_split, 3)
        scheduler = Scheduler(deployment, max_batch_size=8, max_wait_ms=1)
        doomed = Request(xs[0], timeout_ms=0.001, priority="batch")
        scheduler.queue.put(doomed)
        live = [Request(x, priority="interactive") for x in xs]
        for request in live:
            scheduler.queue.put(request)
        time.sleep(0.002)
        scheduler.start()
        try:
            for request in live:
                request.result(timeout=10.0)
            with pytest.raises(RequestTimedOut):
                doomed.result(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while scheduler.metrics.snapshot().requests_shed < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            stats = scheduler.metrics.snapshot().per_priority
            assert stats["batch"]["shed"] == 1
            assert stats["batch"]["completed"] == 0
            assert stats["interactive"]["completed"] == len(xs)
            assert stats["interactive"]["shed"] == 0
        finally:
            scheduler.stop()


# --------------------------------------------------------------------------- request queue
class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        requests = [Request(np.zeros((2, 2, 1))) for _ in range(6)]
        for request in requests:
            queue.put(request)
        batch = queue.get_batch(max_batch_size=6, max_wait_ms=0.0)
        assert [r.id for r in batch] == [r.id for r in requests]

    def test_full_batch_pays_no_wait(self):
        queue = RequestQueue()
        for _ in range(8):
            queue.put(Request(np.zeros((2, 2, 1))))
        started = time.monotonic()
        batch = queue.get_batch(max_batch_size=4, max_wait_ms=500.0)
        elapsed = time.monotonic() - started
        assert len(batch) == 4
        assert elapsed < 0.25  # far below the 500 ms window
        assert queue.depth() == 4

    def test_coalescing_deadline(self):
        queue = RequestQueue()
        queue.put(Request(np.zeros((2, 2, 1))))
        started = time.monotonic()
        batch = queue.get_batch(max_batch_size=8, max_wait_ms=60.0)
        elapsed = time.monotonic() - started
        assert len(batch) == 1
        assert elapsed >= 0.05  # waited (most of) the window for co-riders

    def test_coalesces_late_arrivals(self):
        queue = RequestQueue()
        queue.put(Request(np.zeros((2, 2, 1))))

        def late_put():
            time.sleep(0.02)
            queue.put(Request(np.zeros((2, 2, 1))))

        thread = threading.Thread(target=late_put)
        thread.start()
        batch = queue.get_batch(max_batch_size=2, max_wait_ms=500.0)
        thread.join()
        assert len(batch) == 2

    def test_empty_queue_idle_poll(self):
        queue = RequestQueue()
        started = time.monotonic()
        assert queue.get_batch(max_batch_size=4, max_wait_ms=5.0, poll_timeout=0.02) == []
        assert time.monotonic() - started < 1.0

    def test_drain_fails_pending(self):
        queue = RequestQueue()
        request = Request(np.zeros((2, 2, 1)))
        queue.put(request)
        drained = queue.drain(RuntimeError("boom"))
        assert drained == [request]
        with pytest.raises(Exception, match="boom"):
            request.result(timeout=0.1)


# --------------------------------------------------------------------------- policies
def _snapshot(**kwargs) -> MetricsSnapshot:
    return MetricsSnapshot(**kwargs)


class TestPolicies:
    def test_registry_names(self):
        assert {"fixed", "queue-depth", "latency-slo"} <= set(POLICIES.names())
        assert isinstance(resolve_policy("queue-depth"), QueueDepthPolicy)
        assert isinstance(resolve_policy(FixedPolicy), FixedPolicy)
        with pytest.raises(TypeError):
            resolve_policy(42)

    def test_fixed_policy(self, deployment):
        policy = FixedPolicy(level=1)
        assert policy.select(deployment.levels, _snapshot(queue_depth=500)) == 1
        assert FixedPolicy(level=99).select(deployment.levels, _snapshot()) == len(deployment.levels) - 1

    def test_queue_depth_escalates_immediately(self, deployment):
        policy = QueueDepthPolicy(depth_per_level=4, hysteresis=1)
        assert policy.select(deployment.levels, _snapshot(queue_depth=0)) == 0
        assert policy.select(deployment.levels, _snapshot(queue_depth=9)) == 2
        # Way past the last level: clamped.
        assert policy.select(deployment.levels, _snapshot(queue_depth=400)) == 2

    def test_queue_depth_deescalates_stepwise_with_hysteresis(self, deployment):
        policy = QueueDepthPolicy(depth_per_level=4, hysteresis=1)
        policy.select(deployment.levels, _snapshot(queue_depth=9))
        assert policy.current == 2
        # Depth just below the level-2 threshold but inside hysteresis: hold.
        assert policy.select(deployment.levels, _snapshot(queue_depth=7)) == 2
        # Clearly below: one step down per batch, not a jump to the target.
        assert policy.select(deployment.levels, _snapshot(queue_depth=0)) == 1
        assert policy.select(deployment.levels, _snapshot(queue_depth=0)) == 0

    def test_queue_depth_always_relaxes_when_idle(self, deployment):
        # Regression: with depth_per_level <= hysteresis the de-escalation
        # threshold collapsed to 0 and the policy stayed pinned at a degraded
        # level forever, even on an empty queue.
        policy = QueueDepthPolicy(depth_per_level=2, hysteresis=2)
        policy.select(deployment.levels, _snapshot(queue_depth=5))
        assert policy.current == 2
        for _ in range(len(deployment.levels)):
            policy.select(deployment.levels, _snapshot(queue_depth=0))
        assert policy.current == 0

    def test_latency_slo_transitions(self, deployment):
        # alpha=1 (no smoothing) + patience=1 + no cooldown reproduces the
        # plain threshold stepping; the control-loop extras are tested below.
        policy = LatencySLOPolicy(
            slo_ms=50.0, low_watermark=0.5, min_samples=4, alpha=1.0, patience=1, cooldown=0
        )
        # Too few samples: hold at the accurate end.
        assert policy.select(deployment.levels, _snapshot(requests_completed=1, p95_latency_ms=500)) == 0
        # Above the SLO: escalate one level per batch.
        assert policy.select(deployment.levels, _snapshot(requests_completed=10, p95_latency_ms=80)) == 1
        assert policy.select(deployment.levels, _snapshot(requests_completed=20, p95_latency_ms=80)) == 2
        # Between the watermarks: hold.
        assert policy.select(deployment.levels, _snapshot(requests_completed=30, p95_latency_ms=40)) == 2
        # Below the low watermark: relax.
        assert policy.select(deployment.levels, _snapshot(requests_completed=40, p95_latency_ms=10)) == 1

    def test_latency_slo_ewma_ignores_single_spike(self, deployment):
        # One outlier batch must not move the level: the EWMA absorbs it and
        # the patience counter never reaches its threshold.
        policy = LatencySLOPolicy(
            slo_ms=50.0, low_watermark=0.5, min_samples=1, alpha=0.1, patience=2, cooldown=0
        )
        for _ in range(5):  # settle the tracker well inside the dead band
            policy.select(deployment.levels, _snapshot(requests_completed=10, p95_latency_ms=40))
        # A 3x spike moves the tracker to 0.1*120 + 0.9*40 = 48 ms -- still
        # under the SLO, so the level holds (alpha=1.0 would have escalated).
        assert policy.select(deployment.levels, _snapshot(requests_completed=20, p95_latency_ms=120)) == 0
        assert policy.select(deployment.levels, _snapshot(requests_completed=30, p95_latency_ms=40)) == 0
        assert policy.ewma_p95_ms is not None and policy.ewma_p95_ms < 50

    def test_latency_slo_sustained_breach_escalates_once_per_patience(self, deployment):
        policy = LatencySLOPolicy(
            slo_ms=50.0, low_watermark=0.5, min_samples=1, alpha=1.0, patience=2, cooldown=0
        )
        # First breach: patience not yet exhausted -> hold.
        assert policy.select(deployment.levels, _snapshot(requests_completed=10, p95_latency_ms=90)) == 0
        # Second consecutive breach: step one level.
        assert policy.select(deployment.levels, _snapshot(requests_completed=20, p95_latency_ms=90)) == 1
        # The streak reset on the switch: the next breach is #1 again.
        assert policy.select(deployment.levels, _snapshot(requests_completed=30, p95_latency_ms=90)) == 1
        assert policy.select(deployment.levels, _snapshot(requests_completed=40, p95_latency_ms=90)) == 2

    def test_latency_slo_cooldown_blocks_back_to_back_switches(self, deployment):
        policy = LatencySLOPolicy(
            slo_ms=50.0, low_watermark=0.5, min_samples=1, alpha=1.0, patience=1, cooldown=2
        )
        assert policy.select(deployment.levels, _snapshot(requests_completed=10, p95_latency_ms=90)) == 1
        # Inside the cooldown window (two full batches): breaches accumulate
        # but the level holds.
        assert policy.select(deployment.levels, _snapshot(requests_completed=20, p95_latency_ms=90)) == 1
        assert policy.select(deployment.levels, _snapshot(requests_completed=30, p95_latency_ms=90)) == 1
        # Cooldown over: the sustained breach finally steps again.
        assert policy.select(deployment.levels, _snapshot(requests_completed=40, p95_latency_ms=90)) == 2

    def test_latency_slo_cooldown_one_holds_one_batch(self, deployment):
        # Regression: cooldown=1 must hold exactly one batch, not zero.
        policy = LatencySLOPolicy(
            slo_ms=50.0, low_watermark=0.5, min_samples=1, alpha=1.0, patience=1, cooldown=1
        )
        assert policy.select(deployment.levels, _snapshot(requests_completed=10, p95_latency_ms=90)) == 1
        assert policy.select(deployment.levels, _snapshot(requests_completed=20, p95_latency_ms=90)) == 1
        assert policy.select(deployment.levels, _snapshot(requests_completed=30, p95_latency_ms=90)) == 2

    def test_latency_slo_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencySLOPolicy(alpha=0.0)
        with pytest.raises(ValueError):
            LatencySLOPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            LatencySLOPolicy(patience=0)
        with pytest.raises(ValueError):
            LatencySLOPolicy(cooldown=-1)


# --------------------------------------------------------------------------- deployment
class TestDeployment:
    def test_from_points_drops_dominated_designs(self, tiny_qmodel, tiny_pipeline_result):
        # `explore` JSON contains every explored point; a design that is less
        # accurate but no cheaper than a better one must not become a level.
        points = [
            {"label": "exact", "taus": {}, "accuracy": 0.9},
            {"label": "dup-of-exact", "taus": {"conv1": 0.0, "conv2": 0.0}, "accuracy": 0.8},
            {"label": "aggressive", "taus": {"conv1": 0.2, "conv2": 0.2}, "accuracy": 0.7},
        ]
        dep = Deployment.from_points(
            tiny_qmodel, points, tiny_pipeline_result.significance,
            unpacked=tiny_pipeline_result.unpacked,
        )
        cycles = [level.cycles_per_sample for level in dep.levels]
        assert cycles == sorted(cycles, reverse=True)
        assert len(set(cycles)) == len(cycles)  # strictly decreasing
        assert dep.levels[0].config.is_exact

    def test_unknown_accuracy_never_outranks_exact(self, tiny_qmodel, tiny_pipeline_result):
        # A point without an accuracy (allowed by from_points) must sort after
        # the known-accurate designs, not evict the exact baseline.
        points = [
            {"taus": {"conv1": 0.2, "conv2": 0.2}},
            {"label": "exact", "taus": {}, "accuracy": 0.9},
        ]
        dep = Deployment.from_points(
            tiny_qmodel, points, tiny_pipeline_result.significance,
            unpacked=tiny_pipeline_result.unpacked,
        )
        assert dep.levels[0].config.is_exact
        assert dep.baseline_cycles_per_sample == dep.levels[0].cycles_per_sample

    def test_levels_ordered_and_costed(self, deployment):
        accuracies = [level.accuracy for level in deployment.levels]
        assert accuracies == sorted(accuracies, reverse=True)
        assert deployment.levels[0].masks is None  # exact design
        cycles = [level.cycles_per_sample for level in deployment.levels]
        assert cycles[0] == deployment.baseline_cycles_per_sample
        assert cycles[-1] < cycles[0]  # aggressive level sheds simulated cycles
        assert all(level.mcu_latency_ms > 0 for level in deployment.levels)

    def test_from_dse_uses_pareto_front(self, tiny_qmodel, tiny_pipeline_result):
        dep = Deployment.from_dse(
            tiny_qmodel,
            tiny_pipeline_result.dse,
            tiny_pipeline_result.significance,
            unpacked=tiny_pipeline_result.unpacked,
            max_levels=3,
        )
        assert 1 <= len(dep.levels) <= 3
        assert dep.level_index(dep.levels[-1].name) == len(dep.levels) - 1

    def test_predict_matches_direct_forward(self, deployment, small_split):
        xs = _sample_images(small_split, 16)
        for idx, level in enumerate(deployment.levels):
            expected = deployment.qmodel.predict_classes(xs, masks=level.masks)
            np.testing.assert_array_equal(deployment.predict(xs, level=idx), expected)

    def test_fingerprint_stable_across_forward(self, tiny_qmodel, deployment, small_split):
        """Forwards and ``prepare`` leave the model's pickle, so its fingerprint, unchanged."""
        before = fingerprint(tiny_qmodel)
        attributes = {layer.name: set(vars(layer)) for layer in tiny_qmodel.layers}
        xs = _sample_images(small_split, 5)
        tiny_qmodel.predict_classes(xs)
        for level in range(len(deployment.levels)):
            deployment.forward(xs, level=level)
        for layer in tiny_qmodel.mac_layers():
            layer.prepare()
        assert fingerprint(tiny_qmodel) == before
        assert {layer.name: set(vars(layer)) for layer in tiny_qmodel.layers} == attributes


@pytest.fixture(scope="module", params=["tiny_cnn", "lenet", "alexnet"])
def zoo_deployment(request):
    """Exact + uniform conv tau levels of one zoo model (seeded random weights)."""
    from repro.core import AtamanPipeline
    from repro.data import load_synthetic_cifar10
    from repro.models import build_model
    from repro.quant import quantize_model

    images = np.asarray(load_synthetic_cifar10(96, seed=11).images, dtype=np.float32)
    model = build_model(request.param, input_shape=images.shape[1:], n_classes=10, rng=7)
    qmodel = quantize_model(model, images[:32], name=request.param)
    pipeline = AtamanPipeline(qmodel)
    significance = pipeline.significance(pipeline.calibrate(images[:32]))
    convs = [layer.name for layer in qmodel.conv_layers()]
    points = [
        {"label": "exact", "taus": {}, "accuracy": 1.0},
        {"label": "tau", "taus": {name: 0.05 for name in convs}, "accuracy": 0.5},
    ]
    deployment = Deployment.from_points(qmodel, points, significance, unpacked=pipeline.unpack())
    assert len(deployment.levels) == 2
    return deployment, images[32:]


class TestDeploymentPlans:
    """Each service level executes prepared plans, bit-identical to the kernels."""

    @pytest.mark.parametrize("batch", [1, 7, 32])
    def test_forward_matches_kernel_reference(self, zoo_deployment, batch):
        deployment, images = zoo_deployment
        xs = images[:batch]
        for index, level in enumerate(deployment.levels):
            np.testing.assert_array_equal(
                deployment.forward(xs, level=index),
                deployment.qmodel.forward(xs, masks=level.masks),
            )

    def test_unmasked_layer_shares_the_exact_plan(self, zoo_deployment):
        deployment, _ = zoo_deployment
        exact, approx = deployment.levels
        shared = 0
        for layer in deployment.qmodel.mac_layers():
            if layer.name in approx.masks:
                assert approx.plans[layer.name] is not exact.plans[layer.name]
            else:
                assert approx.plans[layer.name] is exact.plans[layer.name]
                shared += 1
        assert shared  # every zoo model has an unmasked dense classifier

    def test_each_conv_plan_carries_the_max_pool_after_it(self, zoo_deployment, monkeypatch):
        deployment, images = zoo_deployment
        layers = deployment.qmodel.layers
        pools = {layer.name: (after.kernel, after.stride)
                 for layer, after in zip(layers, layers[1:]) if isinstance(after, QMaxPool2D)}
        assert pools and all(deployment.qmodel.get_layer(name).is_conv for name in pools)
        for level in deployment.levels:
            assert {name: plan.pool for name, plan in level.plans.items()} == {
                name: pools.get(name) for name in level.plans}
        ran = _spy_max_pools(monkeypatch)
        deployment.forward(images[:7], level=1)
        assert ran == []

    def test_plans_pickled_before_pools_were_folded_run_the_pool_layers(self, zoo_deployment, force_lanes,
                                                                        monkeypatch):
        """An artifact store's deployment whose plans predate ``GemmPlan.pool`` serves unfused, identically."""
        deployment, images = zoo_deployment
        force_lanes(1)  # one shard, so each pool layer runs once a batch
        stored = pickle.loads(pickle.dumps(deployment))
        for level in stored.levels:
            for plan in level.plans.values():
                plan.__dict__.pop("pool", None)
        ran = _spy_max_pools(monkeypatch)
        pools = [layer.name for layer in deployment.qmodel.layers if isinstance(layer, QMaxPool2D)]
        for index, level in enumerate(stored.levels):
            ran.clear()
            logits = stored.forward(images[:7], level=index)
            assert ran == pools
            np.testing.assert_array_equal(logits, deployment.qmodel.forward(images[:7], masks=level.masks))
            np.testing.assert_array_equal(logits, deployment.forward(images[:7], level=index))

    def test_pickled_deployment_answers_identically(self, zoo_deployment):
        deployment, images = zoo_deployment
        clone = pickle.loads(pickle.dumps(deployment))
        for index in range(len(deployment.levels)):
            np.testing.assert_array_equal(
                clone.forward(images[:7], level=index), deployment.forward(images[:7], level=index)
            )
        dense = deployment.qmodel.mac_layers()[-1].name
        assert clone.levels[1].plans[dense] is clone.levels[0].plans[dense]


_SHARDED = pytest.mark.parametrize("zoo_deployment", ["lenet", "alexnet"], indirect=True)


class TestShardedForward:
    """Where BLAS leaves lanes idle, a batch runs as shards with the kernels' logits."""

    @pytest.mark.parametrize("zoo_deployment", ["tiny_cnn", "lenet", "alexnet"], indirect=True)
    @pytest.mark.parametrize("lanes", [2, 3])
    def test_sharded_logits_equal_the_kernel_reference(self, zoo_deployment, force_lanes,
                                                       monkeypatch, lanes):
        deployment, images = zoo_deployment
        force_lanes(lanes)
        monkeypatch.setattr(parallel, "MIN_SHARD_MACS", 1)  # the tiny CNN's batch of 35 shards too
        xs = images[:35]  # uneven over 2 and over 3 lanes
        shards = _spy_dequantize(monkeypatch)
        for index, level in enumerate(deployment.levels):
            shards.clear()
            np.testing.assert_array_equal(
                deployment.forward(xs, level=index),
                deployment.qmodel.forward(xs, masks=level.masks),
            )
            assert sorted(size for _, size in shards) == sorted(
                len(shard) for shard in np.array_split(xs, lanes))
            assert sum(thread.name.startswith("repro-shard") for thread, _ in shards) == lanes - 1

    @_SHARDED
    def test_profiled_sharded_forward_times_each_layer_once(self, zoo_deployment, force_lanes):
        """One section per executed step: a conv's includes the max pool folded into it."""
        deployment, images = zoo_deployment
        force_lanes(3)
        profiler = Profiler(sample_every=1)
        assert profiler.begin_batch()
        logits = deployment.forward(images[:33], level=1, profiler=profiler)
        np.testing.assert_array_equal(
            logits, deployment.qmodel.forward(images[:33], masks=deployment.levels[1].masks))
        names = [section for section, _, _ in profiler.batch_sections()]
        assert names == [f"layer:{layer.name}" for layer in deployment.qmodel.layers
                         if not isinstance(layer, QMaxPool2D)]

    @_SHARDED
    def test_a_raising_shard_fails_forward_after_every_lane(self, zoo_deployment, force_lanes,
                                                            monkeypatch):
        deployment, images = zoo_deployment
        force_lanes(3)
        finished = []

        def before(thread):
            if not _on_pool_thread():
                raise RuntimeError("lead shard failed")
            time.sleep(0.2)
            finished.append(thread.name)

        _spy_dequantize(monkeypatch, before)
        with pytest.raises(RuntimeError, match="lead shard failed"):
            deployment.forward(images[:33], level=1)
        assert len(finished) == 2

    @_SHARDED
    def test_a_deployment_unpickled_without_its_dense_macs_shards(self, zoo_deployment, force_lanes,
                                                                   monkeypatch):
        """An artifact store's deployment pickled before the shard cost existed still serves."""
        deployment, images = zoo_deployment
        force_lanes(2)
        stored = pickle.loads(pickle.dumps(deployment))
        stored.__dict__.pop("_dense_macs", None)
        shards = _spy_dequantize(monkeypatch)
        np.testing.assert_array_equal(
            stored.forward(images[:33], level=1),
            deployment.qmodel.forward(images[:33], masks=deployment.levels[1].masks),
        )
        assert sorted(size for _, size in shards) == [16, 17]

    @_SHARDED
    def test_a_forked_child_shards_on_its_own_pool(self, zoo_deployment, force_lanes):
        if _MP.get_start_method() != "fork":
            pytest.skip("the fleet forks only where fork exists")
        deployment, images = zoo_deployment
        force_lanes(2)
        xs = images[:16]
        expected = deployment.forward(xs, level=1)  # the parent's pool now exists
        assert parallel._pool is not None
        reader, writer = _MP.Pipe(duplex=False)

        def child():
            logits = deployment.forward(xs, level=1)
            writer.send((np.array_equal(logits, expected),
                         [thread.name for thread in threading.enumerate()]))

        process = _MP.Process(target=child, daemon=True)
        process.start()
        try:
            assert reader.poll(30), "the forked child's sharded forward hung"
            equal, threads = reader.recv()
        finally:
            process.join(10)
            if process.is_alive():
                process.kill()
        assert equal and process.exitcode == 0
        assert any(name.startswith("repro-shard") for name in threads)


# --------------------------------------------------------------------------- scheduler
class TestScheduler:
    def test_round_trip_equivalence(self, deployment, small_split):
        xs = _sample_images(small_split, 24)
        expected = deployment.qmodel.predict_classes(xs, masks=None)
        with Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=5) as scheduler:
            predictions = Client(scheduler).predict_many(xs)
        np.testing.assert_array_equal(predictions, expected)

    def test_burst_coalesces_into_batches(self, deployment, small_split):
        xs = _sample_images(small_split, 24)
        with Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=25) as scheduler:
            Client(scheduler).predict_many(xs)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.requests_completed == 24
        assert snapshot.batches < 24  # definitely coalesced
        assert snapshot.mean_batch_size > 1.0
        assert sum(size * n for size, n in snapshot.batch_size_histogram.items()) == 24

    def test_adaptive_policy_switches_under_burst(self, deployment, small_split):
        xs = _sample_images(small_split, 8)
        policy = QueueDepthPolicy(depth_per_level=8, hysteresis=2)
        with Scheduler(deployment, policy=policy, max_batch_size=4, max_wait_ms=2) as scheduler:
            client = Client(scheduler)
            for x in xs[:4]:  # trickle: queue stays shallow -> L0
                client.predict(x)
            burst = [client.submit(xs[i % len(xs)]) for i in range(48)]
            for request in burst:
                request.result(timeout=60)
            for x in xs[:4]:  # trickle again: policy relaxes
                client.predict(x)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.per_level_requests.get("L0", 0) > 0
        escalated = sum(
            count for name, count in snapshot.per_level_requests.items() if name != "L0"
        )
        assert escalated > 0
        assert snapshot.level_switches >= 2
        assert snapshot.cycles_saved > 0

    def test_submit_validates_shape(self, deployment):
        with Scheduler(deployment) as scheduler:
            with pytest.raises(ValueError, match="shape"):
                scheduler.submit(np.zeros((3, 3, 3), dtype=np.float32))

    def test_stopped_scheduler_rejects_and_fails_pending(self, deployment, small_split):
        scheduler = Scheduler(deployment).start()
        scheduler.stop()
        with pytest.raises(SchedulerStopped):
            scheduler.submit(_sample_images(small_split, 1)[0])

    def test_a_raising_batch_fails_only_that_batch(self, deployment, small_split):
        """A per-batch exception fails the popped request; the loop keeps serving."""

        class RaisesOnce(FixedPolicy):
            raised = False

            def select(self, levels, snapshot):
                if not self.raised:
                    self.raised = True
                    raise RuntimeError("policy bug")
                return super().select(levels, snapshot)

        x = _sample_images(small_split, 1)[0]
        with Scheduler(
            deployment,
            policy=RaisesOnce(),
            tenants=TenantTable([TenantConfig(name="acme", max_inflight=1)]),
            max_wait_ms=1,
            obs=Observability(),
        ) as scheduler:
            started = time.monotonic()
            with pytest.raises(RequestError, match="policy bug"):
                scheduler.submit(x, tenant="acme").result(timeout=1.0)
            assert time.monotonic() - started < 1.0
            # The failed request's tenant slot comes back through its
            # done-callback, a hair after result() unblocks.
            deadline = time.monotonic() + 1.0
            while scheduler.tenants.inflight("acme") and time.monotonic() < deadline:
                time.sleep(0.001)
            second = scheduler.submit(x, tenant="acme").result(timeout=10.0)
            assert scheduler.running
            snapshot = scheduler.metrics.snapshot()
            (event,) = scheduler.obs.events.snapshot(kind="batch-failure")
        assert second == deployment.qmodel.predict_classes(x[None])[0]
        assert snapshot.requests_failed == 1 and snapshot.requests_completed == 1
        assert event["failed"] == 1 and "policy bug" in event["error"]

    def test_a_raising_shard_fails_only_that_batch(self, deployment, small_split, force_lanes,
                                                    monkeypatch):
        """A shard that raises fails its batch's requests; the next request is answered."""
        force_lanes(2)
        monkeypatch.setattr(parallel, "MIN_SHARD_MACS", 1)
        raised = []

        def before(thread):
            if _on_pool_thread() and not raised:
                raised.append(thread.name)
                raise RuntimeError("shard bug")

        _spy_dequantize(monkeypatch, before)
        xs = _sample_images(small_split, 4)
        expected = deployment.qmodel.predict_classes(xs)
        with Scheduler(deployment, policy="fixed", max_batch_size=4, max_wait_ms=200,
                       obs=Observability()) as scheduler:
            failed, answered = 0, []
            for index, request in enumerate(scheduler.submit_many(xs)):
                try:
                    answered.append((request.result(timeout=10.0), expected[index]))
                except RequestError as error:
                    assert "shard bug" in str(error)
                    failed += 1
            after = scheduler.submit(xs[0]).result(timeout=10.0)
            assert scheduler.running
            snapshot = scheduler.metrics.snapshot()
            (event,) = scheduler.obs.events.snapshot(kind="batch-failure")
        assert raised and failed >= 2 and event["failed"] == failed == snapshot.requests_failed
        assert all(got == want for got, want in answered) and after == expected[0]
        assert snapshot.requests_completed == len(answered) + 1

    def test_a_batch_below_the_shard_size_runs_on_the_calling_thread(self, deployment, small_split,
                                                                     force_lanes, monkeypatch):
        force_lanes(2)
        xs = _sample_images(small_split, 32)
        assert 32 * deployment.qmodel.total_macs() < 2 * parallel.MIN_SHARD_MACS
        threads_before = set(threading.enumerate())
        shards = _spy_dequantize(monkeypatch)
        np.testing.assert_array_equal(deployment.forward(xs), deployment.qmodel.forward(xs))
        assert shards == [(threading.current_thread(), 32)]
        assert parallel._pool is None and set(threading.enumerate()) <= threads_before

    def test_idle_scheduler_does_not_spin_or_crash(self, deployment):
        with Scheduler(deployment, max_wait_ms=1) as scheduler:
            time.sleep(0.15)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.requests_completed == 0
        assert snapshot.batches == 0


# --------------------------------------------------------------------------- timeout shedding
class TestTimeoutShedding:
    def test_timeout_ms_must_be_positive(self, small_split):
        with pytest.raises(ValueError):
            Request(_sample_images(small_split, 1)[0], timeout_ms=0)
        with pytest.raises(ValueError):
            Request(_sample_images(small_split, 1)[0], timeout_ms=-5)

    def test_no_deadline_never_expires(self, small_split):
        request = Request(_sample_images(small_split, 1)[0])
        assert request.deadline is None and not request.expired

    def test_deadline_rearms_on_enqueue(self, small_split):
        request = Request(_sample_images(small_split, 1)[0], timeout_ms=1000.0)
        first = request.deadline
        time.sleep(0.01)
        RequestQueue().put(request)
        assert request.deadline > first  # counts from enqueue, not construction

    def test_expired_request_is_shed_with_distinct_error(self, deployment, small_split):
        scheduler = Scheduler(deployment, max_wait_ms=1)
        # Arm an already-expired deadline before the core starts, so the shed
        # path is deterministic regardless of scheduling jitter.
        request = Request(_sample_images(small_split, 1)[0], timeout_ms=0.001)
        scheduler.queue.put(request)
        time.sleep(0.002)
        scheduler.start()
        try:
            with pytest.raises(RequestTimedOut, match="deadline"):
                request.result(timeout=5.0)
            deadline = time.monotonic() + 5.0
            while scheduler.metrics.snapshot().requests_shed < 1:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            snapshot = scheduler.metrics.snapshot()
            assert snapshot.requests_shed == 1
            assert snapshot.requests_completed == 0
        finally:
            scheduler.stop()

    def test_live_coriders_still_served(self, deployment, small_split):
        xs = _sample_images(small_split, 4)
        scheduler = Scheduler(deployment, max_batch_size=8, max_wait_ms=1)
        expired = Request(xs[0], timeout_ms=0.001)
        scheduler.queue.put(expired)
        live = [Request(x) for x in xs]
        for request in live:
            scheduler.queue.put(request)
        time.sleep(0.002)
        scheduler.start()
        try:
            predictions = [request.result(timeout=10.0) for request in live]
            assert len(predictions) == len(xs)
            with pytest.raises(RequestTimedOut):
                expired.result(timeout=5.0)
            snapshot = scheduler.metrics.snapshot()
            assert snapshot.requests_shed == 1
            assert snapshot.requests_completed == len(xs)
        finally:
            scheduler.stop()

    def test_generous_timeout_not_shed(self, deployment, small_split):
        with Scheduler(deployment, max_wait_ms=1) as scheduler:
            prediction = Client(scheduler).predict(
                _sample_images(small_split, 1)[0], timeout_ms=30_000.0
            )
            assert isinstance(prediction, int)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.requests_shed == 0
        assert snapshot.requests_completed == 1

    def test_shed_counter_in_snapshot_dict(self):
        metrics = ServerMetrics()
        metrics.record_shed(3)
        snapshot = metrics.snapshot()
        assert snapshot.requests_shed == 3
        assert snapshot.as_dict()["requests_shed"] == 3
        # Shed is its own counter, not conflated with failures.
        assert snapshot.requests_failed == 0

    def test_shed_is_request_error_subclass(self):
        assert issubclass(RequestTimedOut, RequestError)


# --------------------------------------------------------------------------- metrics
class TestPercentile:
    """Pin the nearest-rank semantics of the metrics percentile helper."""

    def test_empty_window(self):
        from repro.serving.metrics import _percentile

        assert _percentile([], 0.95) == 0.0

    def test_single_sample(self):
        from repro.serving.metrics import _percentile

        assert _percentile([42.0], 0.5) == 42.0
        assert _percentile([42.0], 0.95) == 42.0

    def test_nearest_rank_is_ceil(self):
        """p-th percentile = element ceil(q*n)-1 of the sorted window."""
        from repro.serving.metrics import _percentile

        ordered = [float(i) for i in range(1, 21)]  # 1..20
        assert _percentile(ordered, 0.95) == 19.0  # ceil(19) - 1 -> index 18
        assert _percentile(ordered, 0.50) == 10.0  # ceil(10) - 1 -> index 9
        assert _percentile(ordered, 1.00) == 20.0

    def test_small_window_does_not_underreport_tail(self):
        """The rounded-interpolation index picked rank 12 of 13 for p95;
        true nearest-rank must pick the 13th (the maximum)."""
        from repro.serving.metrics import _percentile

        ordered = [float(i) for i in range(1, 14)]  # 1..13
        assert _percentile(ordered, 0.95) == 13.0  # ceil(12.35) - 1 -> index 12

    def test_p50_of_four_is_second_element(self):
        from repro.serving.metrics import _percentile

        # Nearest rank: ceil(2) - 1 -> index 1 (the rounded index said 2).
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class TestServerMetrics:
    def test_counts_and_percentiles(self):
        metrics = ServerMetrics(baseline_cycles_per_sample=1000.0, cycles_to_ms=0.001)
        metrics.record_batch("L0", 4, [10.0, 12.0, 14.0, 16.0], cycles_per_sample=1000.0)
        metrics.record_batch("L1", 2, [20.0, 30.0], cycles_per_sample=600.0)
        metrics.record_failure(3)
        snapshot = metrics.snapshot(queue_depth=5)
        assert snapshot.requests_completed == 6
        assert snapshot.requests_failed == 3
        assert snapshot.queue_depth == 5
        assert snapshot.batches == 2
        assert snapshot.per_level_requests == {"L0": 4, "L1": 2}
        assert snapshot.level_switches == 1
        assert snapshot.current_level == "L1"
        assert snapshot.p50_latency_ms == pytest.approx(14.0)
        assert snapshot.p95_latency_ms == pytest.approx(30.0)
        # Only the L1 batch saved cycles: (1000 - 600) * 2 samples.
        assert snapshot.cycles_saved == pytest.approx(800.0)
        assert snapshot.mcu_ms_saved == pytest.approx(0.8)
        assert snapshot.as_dict()["per_level_requests"] == {"L0": 4, "L1": 2}

    def test_per_priority_stats(self):
        metrics = ServerMetrics()
        metrics.record_batch(
            "L0", 3, [10.0, 20.0, 30.0], priorities=["interactive", "batch", "batch"]
        )
        metrics.record_shed(2, priority="batch")
        snapshot = metrics.snapshot()
        stats = snapshot.per_priority
        assert stats["interactive"]["completed"] == 1
        assert stats["interactive"]["p95_latency_ms"] == pytest.approx(10.0)
        assert stats["batch"]["completed"] == 2
        assert stats["batch"]["shed"] == 2
        assert stats["batch"]["p50_latency_ms"] == pytest.approx(20.0)
        # Classes with no traffic stay out of the snapshot entirely.
        assert "standard" not in stats
        assert snapshot.as_dict()["per_priority"]["batch"]["shed"] == 2

    def test_record_batch_without_priorities_counts_standard(self):
        metrics = ServerMetrics()
        metrics.record_batch("L0", 2, [5.0, 7.0])
        stats = metrics.snapshot().per_priority
        assert stats["standard"]["completed"] == 2


# --------------------------------------------------------------------------- HTTP front
class TestHTTPServer:
    def test_http_round_trip_and_introspection(self, deployment, small_split):
        xs = _sample_images(small_split, 6)
        expected = deployment.qmodel.predict_classes(xs, masks=None)
        with Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=5) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                client = HTTPClient(server.url)
                assert client.health() == "ok"
                np.testing.assert_array_equal(client.predict_classes(xs), expected)
                # A single un-batched sample is accepted too, priority tag included.
                single = client.predict(xs[0], priority="interactive")
                assert single["classes"] == [int(expected[0])]
                assert single["priority"] == "interactive"
                metrics = client.metrics()
                assert metrics["requests_completed"] >= 7
                assert metrics["per_priority"]["interactive"]["completed"] == 1
                levels = client.levels()
                assert [entry["name"] for entry in levels] == [
                    level.name for level in deployment.levels
                ]

    def test_http_rejects_bad_inputs(self, deployment):
        with Scheduler(deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                def post(body: bytes, path: str = "/predict"):
                    request = urllib.request.Request(
                        server.url + path, data=body,
                        headers={"Content-Type": "application/json"}, method="POST",
                    )
                    try:
                        with urllib.request.urlopen(request, timeout=10) as response:
                            return response.status, json.loads(response.read())
                    except urllib.error.HTTPError as error:
                        return error.code, json.loads(error.read())

                assert post(b"not json")[0] == 400
                assert post(b"[1, 2]")[0] == 400
                assert post(b"{}")[0] == 400
                status, payload = post(json.dumps({"inputs": [[1, 2], [3, 4]]}).encode())
                assert status == 400 and "shape" in payload["error"]
                sample = np.zeros(deployment.qmodel.input_shape, np.float32).tolist()
                status, payload = post(json.dumps({"inputs": sample, "priority": "vip"}).encode())
                assert status == 400 and "priority" in payload["error"]
                assert post(json.dumps({"inputs": sample, "timeout_ms": -1}).encode())[0] == 400
                assert post(b'{"inputs": []}', path="/nope")[0] == 404

    def test_keep_alive_serves_requests_without_stall(self, deployment, keep_alive_probe):
        # Regression: the handler writes headers and body separately; with
        # Nagle on, every response on a reused connection waited out the
        # client's delayed ACK (~40 ms).  The socket option is the check; the
        # stall count tolerates a loaded host but not a stall on every request.
        with Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=1.0) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                nodelay, stalls = keep_alive_probe(server.host, server.port)
        assert nodelay, "the front accepted a connection with Nagle's algorithm on"
        assert stalls <= 10, f"{stalls} of 20 keep-alive requests stalled"

    def test_unread_error_body_does_not_desync_keepalive(self, deployment, small_split):
        # Regression: a POST with a body to an unknown path must not leave the
        # body bytes in the stream -- the next request on the same keep-alive
        # connection would be parsed out of the middle of it.
        body = json.dumps({"inputs": small_split.test.images[0].tolist()}).encode()
        headers = {"Content-Type": "application/json"}
        with Scheduler(deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
                try:
                    connection.request("POST", "/predictt", body=body, headers=headers)
                    response = connection.getresponse()
                    assert response.status == 404
                    response.read()
                    # Same socket: the follow-up valid request must succeed.
                    connection.request("POST", "/predict", body=body, headers=headers)
                    response = connection.getresponse()
                    assert response.status == 200
                    assert len(json.loads(response.read())["classes"]) == 1
                finally:
                    connection.close()


# --------------------------------------------------------------------------- workflow integration
class TestServeStage:
    def test_serve_stage_from_points_is_cached(self, tiny_qmodel, small_split):
        from repro.workflow import CalibrateStage, SignificanceStage, UnpackStage

        points = [
            {"label": "exact", "taus": {}, "accuracy": 0.9},
            {"label": "skip", "taus": {"conv1": 0.1, "conv2": 0.1}, "accuracy": 0.8},
        ]
        stages = [
            UnpackStage(),
            CalibrateStage(),
            SignificanceStage(),
            ServeStage(points=points, max_levels=4),
        ]
        inputs = {"qmodel": tiny_qmodel, "calibration_images": small_split.calibration.images}
        store = ArtifactStore()
        first = Experiment(stages, inputs=inputs, store=store).run()
        assert "serve" in first.executed_stages
        deployment = first["serving"]
        assert isinstance(deployment, Deployment)
        assert len(deployment.levels) == 2
        second = Experiment(stages, inputs=inputs, store=store).run()
        assert "serve" in second.cached_stages
        # The cached deployment still serves.
        with Scheduler(second["serving"]) as scheduler:
            assert isinstance(
                Client(scheduler).predict(small_split.test.images[0]), int
            )

    def test_serve_stage_requires_dse_only_without_points(self):
        assert "dse" in ServeStage().requires
        assert "dse" not in ServeStage(points=[{"taus": {}}]).requires


# --------------------------------------------------------------------------- artifact store concurrency
class TestArtifactStoreConcurrency:
    def test_concurrent_readers_and_writers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        errors = []

        def writer(worker: int):
            try:
                for i in range(25):
                    store.save(f"{worker:02d}{i:038x}"[:40].ljust(40, "a"), {"worker": worker, "i": i})
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        def reader():
            try:
                for _ in range(50):
                    for key in store.keys()[:5]:
                        store.get(key)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(store.keys()) == 100

    def test_two_stores_share_one_root(self, tmp_path):
        a = ArtifactStore(tmp_path / "shared")
        b = ArtifactStore(tmp_path / "shared")
        a.save("k" * 40, {"x": 1})
        assert b.load("k" * 40) == {"x": 1}

    def test_partial_write_degrades_to_cache_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "ab" + "c" * 38
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x04garbage-truncated")
        with pytest.raises(KeyError, match="unreadable"):
            store.load(key)
        # A later complete write repairs the entry.
        store2 = ArtifactStore(tmp_path / "store")
        store2.save(key, 42)
        assert store2.load(key) == 42

    def test_no_stale_tmp_files_after_save(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for i in range(5):
            store.save(f"{i:040d}", i)
        assert not list((tmp_path / "store").rglob("*.tmp"))
