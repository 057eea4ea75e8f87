"""Tests of multi-model, multi-tenant serving and the workload engine.

Covers the deployment table (one scheduler, many models, batches never
mixing), the tenant layer (token-bucket quotas, structured 429/403/404 on
the HTTP front, weighted fair draining), the multi-deployment
:class:`~repro.workflow.ServeStage` cache keys, the federation rollup of
the new per-model/per-tenant blocks, and the seeded workload engine that
drives the multi-tenant benchmarks.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.models import build_model
from repro.quant import quantize_model
from repro.serving import (
    Client,
    Deployment,
    FixedPolicy,
    PredictionServer,
    Request,
    RequestQueue,
    Scheduler,
    SchedulerStopped,
    TenantConfig,
    TenantQuotaExceeded,
    TenantTable,
    TokenBucket,
    UnknownModel,
    UnknownTenant,
)
from repro.serving.fleet import rollup_snapshots
from repro.workflow import ArtifactStore, Experiment, ServeStage

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workload import (  # noqa: E402 - path set up above
    ArrivalTrace,
    SCENARIOS,
    WorkloadItem,
    build_scenario,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    run_closed_loop,
    run_open_loop,
)


# --------------------------------------------------------------------------- fixtures
@pytest.fixture(scope="module")
def deployment(tiny_qmodel, tiny_pipeline_result):
    """A two-level deployment of the trained tiny CNN."""
    points = [
        {"label": "exact", "taus": {}, "accuracy": 0.9},
        {"label": "mid", "taus": {"conv1": 0.05, "conv2": 0.05}, "accuracy": 0.85},
    ]
    return Deployment.from_points(
        tiny_qmodel,
        points,
        tiny_pipeline_result.significance,
        unpacked=tiny_pipeline_result.unpacked,
    )


@pytest.fixture(scope="module")
def micro_parts():
    """Pipeline artifacts of an (untrained) micro CNN second model.

    Its input shape differs from the tiny CNN's on purpose: a batch that
    mixed the two models would crash ``np.stack`` long before producing a
    wrong answer, so every completed mixed-load run proves batch isolation.
    """
    from repro.core.calibration import ActivationCalibrator
    from repro.core.significance import compute_significance
    from repro.core.unpacking import unpack_model

    model = build_model("micro_cnn", input_shape=(8, 8, 1), n_classes=10, rng=3)
    images = np.random.default_rng(0).normal(size=(64, 8, 8, 1)).astype(np.float32)
    qmodel = quantize_model(model, images)
    significance = compute_significance(
        qmodel, ActivationCalibrator(qmodel).calibrate(images)
    )
    return {
        "qmodel": qmodel,
        "significance": significance,
        "unpacked": unpack_model(qmodel),
    }


@pytest.fixture(scope="module")
def micro_deployment(micro_parts):
    """An exact-only deployment of the micro CNN."""
    points = [{"label": "exact", "taus": {}, "accuracy": 1.0}]
    return Deployment.from_points(
        micro_parts["qmodel"], points, micro_parts["significance"],
        unpacked=micro_parts["unpacked"],
    )


def _post(url: str, payload: dict):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + "/predict", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


# --------------------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_burst_then_rate(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: clock["t"])
        assert [bucket.try_take() for _ in range(3)] == [None, None, None]
        wait = bucket.try_take()
        assert wait is not None and wait == pytest.approx(0.5)
        clock["t"] += 0.5  # one token refilled at 2 tokens/s
        assert bucket.try_take() is None
        assert bucket.try_take() is not None

    def test_refill_caps_at_burst(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: clock["t"])
        clock["t"] += 100.0
        assert bucket.try_take() is None
        assert bucket.try_take() is None
        assert bucket.try_take() is not None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# --------------------------------------------------------------------------- tenant table
class TestTenantTable:
    def test_default_tenant_always_exists_and_is_unlimited(self):
        table = TenantTable()
        assert "default" in table
        for _ in range(100):
            table.admit("default")

    def test_unknown_tenant_names_the_registered_ones(self):
        table = TenantTable([TenantConfig(name="acme")])
        with pytest.raises(UnknownTenant) as excinfo:
            table.get("stranger")
        assert excinfo.value.choices == ["acme", "default"]

    def test_rate_quota_rejects_with_retry_hint(self):
        config = TenantConfig(name="free", rate_limit_rps=1.0, burst=2)
        table = TenantTable([config])
        table.admit("free")
        table.admit("free")
        with pytest.raises(TenantQuotaExceeded) as excinfo:
            table.admit("free")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after_s > 0

    def test_inflight_quota_frees_on_release(self):
        table = TenantTable([TenantConfig(name="acme", max_inflight=2)])
        table.admit("acme")
        table.admit("acme")
        with pytest.raises(TenantQuotaExceeded) as excinfo:
            table.admit("acme")
        assert excinfo.value.reason == "inflight"
        table.release("acme")
        table.admit("acme")

    def test_json_roundtrip(self, tmp_path):
        table = TenantTable([
            TenantConfig(name="acme", model="tiny_cnn", priority="interactive",
                         slo_ms=100.0, rate_limit_rps=5.0, weight=3.0),
        ])
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"tenants": table.as_dicts()}))
        loaded = TenantTable.load(path)
        assert loaded.as_dicts() == table.as_dicts()
        assert loaded.get("acme").priority == "interactive"

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text('{"tenants": 5}')
        with pytest.raises(ValueError, match="list"):
            TenantTable.load(path)


# --------------------------------------------------------------------------- fair queueing
class TestWeightedFairQueue:
    def _flood(self, queue, tenants, per_tenant=24):
        x = np.zeros(4, dtype=np.float32)
        for _ in range(per_tenant):
            for tenant in tenants:
                queue.put(Request(x, tenant=tenant))

    def test_two_tenant_flood_drains_by_weight(self):
        queue = RequestQueue(starvation_ms=None,
                             tenant_weights={"heavy": 3.0, "light": 1.0})
        self._flood(queue, ("heavy", "light"))
        drained = {"heavy": 0, "light": 0}
        for _ in range(16):
            drained[queue.get_batch(1, 0.0, poll_timeout=0.0)[0].tenant] += 1
        queue.drain(SchedulerStopped("test over"))
        # Smooth WRR at 3:1 serves heavy 12 of every 16 pops, interleaved.
        assert drained == {"heavy": 12, "light": 4}

    def test_unweighted_tenants_share_equally(self):
        queue = RequestQueue(starvation_ms=None)
        self._flood(queue, ("a", "b"), per_tenant=8)
        drained = {"a": 0, "b": 0}
        for _ in range(8):
            drained[queue.get_batch(1, 0.0, poll_timeout=0.0)[0].tenant] += 1
        queue.drain(SchedulerStopped("test over"))
        assert drained == {"a": 4, "b": 4}

    def test_fairness_is_per_priority_class(self):
        # An interactive arrival from the light tenant still overtakes the
        # heavy tenant's standard backlog: WRR shares within a class,
        # priority between classes.
        queue = RequestQueue(starvation_ms=None,
                             tenant_weights={"heavy": 8.0, "light": 1.0})
        x = np.zeros(4, dtype=np.float32)
        for _ in range(4):
            queue.put(Request(x, priority="standard", tenant="heavy"))
        queue.put(Request(x, priority="interactive", tenant="light"))
        first = queue.get_batch(1, 0.0, poll_timeout=0.0)[0]
        queue.drain(SchedulerStopped("test over"))
        assert (first.tenant, first.priority) == ("light", "interactive")


# --------------------------------------------------------------------------- multi-model scheduler
class TestDeploymentTable:
    def test_batches_never_mix_models(self, deployment, micro_deployment, small_split):
        # Different input shapes per model: one mixed forward pass would
        # crash np.stack, so a fully-answered interleaved load is proof.
        micro_name = micro_deployment.qmodel.name
        micro_images = np.random.default_rng(1).normal(size=(16, 8, 8, 1)).astype(np.float32)
        tiny_images = small_split.test.images[:16]
        with Scheduler([deployment, micro_deployment], max_batch_size=8,
                       max_wait_ms=5.0) as scheduler:
            client = Client(scheduler, timeout_s=60.0)
            requests = []
            for i in range(32):
                if i % 2:
                    requests.append(client.submit(micro_images[i // 2], model=micro_name))
                else:
                    requests.append(client.submit(tiny_images[i // 2]))
            for request in requests:
                request.result(timeout=60.0)
            snapshot = scheduler.metrics.snapshot()
        assert snapshot.per_model["tiny_cnn"]["requests"] == 16
        assert snapshot.per_model[micro_name]["requests"] == 16
        assert snapshot.requests_completed == 32

    def test_first_deployment_is_the_default_model(self, deployment, micro_deployment):
        with Scheduler([deployment, micro_deployment]) as scheduler:
            assert scheduler.default_model == "tiny_cnn"
            assert scheduler.models() == ["tiny_cnn", micro_deployment.qmodel.name]
            assert scheduler.resolve_model(None) == "tiny_cnn"

    def test_unknown_model_names_the_available_ones(self, deployment, micro_deployment):
        with Scheduler([deployment, micro_deployment]) as scheduler:
            with pytest.raises(UnknownModel) as excinfo:
                scheduler.submit(np.zeros((4, 4, 1), dtype=np.float32), model="resnet")
            assert "resnet" in str(excinfo.value)
            assert excinfo.value.choices == sorted(scheduler.models())

    def test_tenant_pin_routes_to_its_model(self, deployment, micro_deployment):
        micro_name = micro_deployment.qmodel.name
        tenants = TenantTable([TenantConfig(name="pinned", model=micro_name)])
        with Scheduler([deployment, micro_deployment], tenants=tenants) as scheduler:
            assert scheduler.resolve_model(None, tenant="pinned") == micro_name
            # An explicit model in the request still wins over the pin.
            assert scheduler.resolve_model("tiny_cnn", tenant="pinned") == "tiny_cnn"

    def test_duplicate_deployment_names_rejected(self, deployment):
        with pytest.raises(ValueError, match="duplicate"):
            Scheduler([deployment, deployment])

    def test_policy_instance_cannot_be_shared_across_models(
        self, deployment, micro_deployment
    ):
        with pytest.raises(ValueError, match="policy"):
            Scheduler([deployment, micro_deployment], policy=FixedPolicy())

    def test_per_model_policy_mapping(self, deployment, micro_deployment):
        micro_name = micro_deployment.qmodel.name
        scheduler = Scheduler(
            [deployment, micro_deployment],
            policy={"tiny_cnn": "queue-depth", micro_name: FixedPolicy()},
        )
        try:
            policies = scheduler.policies()
            assert type(policies["tiny_cnn"]).__name__ == "QueueDepthPolicy"
            assert isinstance(policies[micro_name], FixedPolicy)
        finally:
            scheduler.stop()


# --------------------------------------------------------------------------- scheduler quotas
class TestSchedulerQuotas:
    def test_rate_quota_rejected_and_counted(self, deployment, small_split):
        tenants = TenantTable([TenantConfig(name="free", rate_limit_rps=0.001, burst=1)])
        x = small_split.test.images[0]
        with Scheduler(deployment, tenants=tenants) as scheduler:
            scheduler.submit(x, tenant="free").result(timeout=60.0)
            with pytest.raises(TenantQuotaExceeded) as excinfo:
                scheduler.submit(x, tenant="free")
            assert excinfo.value.reason == "rate"
            text = scheduler.metrics.render_prometheus()
        assert 'repro_tenant_rejected_total{tenant="free",reason="rate"} 1' in text
        assert 'repro_tenant_requests_total{tenant="free"} 1' in text

    def test_inflight_quota_releases_when_requests_finish(self, deployment, small_split):
        tenants = TenantTable([TenantConfig(name="acme", max_inflight=2)])
        x = small_split.test.images[0]
        with Scheduler(deployment, tenants=tenants) as scheduler:
            # Occupy both slots out-of-band, exactly as two queued requests
            # would (deterministic: no race against the worker draining).
            scheduler.tenants.admit("acme")
            scheduler.tenants.admit("acme")
            with pytest.raises(TenantQuotaExceeded) as excinfo:
                scheduler.submit(x, tenant="acme")
            assert excinfo.value.reason == "inflight"
            text = scheduler.metrics.render_prometheus()
            assert 'repro_tenant_rejected_total{tenant="acme",reason="inflight"} 1' in text
            scheduler.tenants.release("acme")
            scheduler.tenants.release("acme")
            scheduler.submit(x, tenant="acme").result(timeout=60.0)
            # The done-callback returns the slot; it may fire a hair after
            # result() unblocks, so poll with a bounded deadline.
            deadline = time.monotonic() + 10.0
            while scheduler.tenants.inflight("acme") and time.monotonic() < deadline:
                time.sleep(0.001)
        assert scheduler.tenants.inflight("acme") == 0

    def test_unknown_tenant_rejected_before_any_quota(self, deployment):
        with Scheduler(deployment) as scheduler:
            with pytest.raises(UnknownTenant):
                scheduler.submit(np.zeros((4, 4, 1), dtype=np.float32), tenant="ghost")

    def test_tenant_default_priority_applies(self, deployment, small_split):
        tenants = TenantTable([TenantConfig(name="bulk", priority="batch")])
        with Scheduler(deployment, tenants=tenants) as scheduler:
            request = scheduler.submit(small_split.test.images[0], tenant="bulk")
            assert request.priority == "batch"
            request.result(timeout=60.0)


# --------------------------------------------------------------------------- HTTP front
class TestStructuredHTTPErrors:
    def _scheduler(self, deployment, micro_deployment):
        tenants = TenantTable([
            TenantConfig(name="free", rate_limit_rps=0.001, burst=1),
        ])
        return Scheduler([deployment, micro_deployment], tenants=tenants)

    def test_unknown_model_is_a_structured_404(self, deployment, micro_deployment, small_split):
        x = small_split.test.images[0]
        with self._scheduler(deployment, micro_deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                status, body, _ = _post(server.url, {
                    "inputs": x.tolist(), "model": "resnet",
                })
        assert status == 404
        assert body["model"] == "resnet"
        assert body["available_models"] == sorted(["tiny_cnn", micro_deployment.qmodel.name])

    def test_unknown_tenant_is_a_structured_403(self, deployment, micro_deployment, small_split):
        x = small_split.test.images[0]
        with self._scheduler(deployment, micro_deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                status, body, _ = _post(server.url, {
                    "inputs": x.tolist(), "tenant": "ghost",
                })
        assert status == 403
        assert body["tenant"] == "ghost"
        assert body["registered_tenants"] == ["default", "free"]

    def test_quota_429_carries_reason_and_retry_after(self, deployment, micro_deployment, small_split):
        x = small_split.test.images[0]
        with self._scheduler(deployment, micro_deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                status, body, _ = _post(server.url, {"inputs": x.tolist(), "tenant": "free"})
                assert status == 200
                status, body, headers = _post(
                    server.url, {"inputs": x.tolist(), "tenant": "free"}
                )
        assert status == 429
        assert body["tenant"] == "free" and body["reason"] == "rate"
        assert body["retry_after_s"] > 0
        assert float(headers["Retry-After"]) >= 1

    def test_predict_echoes_model_and_tenant(self, deployment, micro_deployment, small_split):
        x = small_split.test.images[0]
        with self._scheduler(deployment, micro_deployment) as scheduler:
            with PredictionServer(scheduler, port=0) as server:
                status, body, _ = _post(server.url, {"inputs": x.tolist()})
        assert status == 200
        assert body["model"] == "tiny_cnn"
        assert body["tenant"] == "default"


# --------------------------------------------------------------------------- ServeStage
class TestMultiDeploymentServeStage:
    _POINTS = [{"label": "exact", "taus": {}, "accuracy": 1.0}]

    def test_two_serve_stages_in_one_graph(
        self, tiny_qmodel, tiny_pipeline_result, micro_parts, tmp_path
    ):
        stages = [
            ServeStage(points=self._POINTS),
            ServeStage(points=self._POINTS, artifact="serving_micro",
                       inputs={"qmodel": "qmodel_micro",
                               "significance": "significance_micro",
                               "unpacked": "unpacked_micro"}),
        ]
        inputs = {
            "qmodel": tiny_qmodel,
            "significance": tiny_pipeline_result.significance,
            "unpacked": tiny_pipeline_result.unpacked,
            "qmodel_micro": micro_parts["qmodel"],
            "significance_micro": micro_parts["significance"],
            "unpacked_micro": micro_parts["unpacked"],
        }
        store = ArtifactStore(tmp_path / "store")
        result = Experiment(stages, inputs=inputs, store=store).run()
        assert result["serving"].qmodel.name == "tiny_cnn"
        assert result["serving_micro"].qmodel.name == micro_parts["qmodel"].name
        assert not result.cached_stages
        # Same config, same inputs: both serve stages replay from the store.
        rerun = Experiment(stages, inputs=inputs, store=store).run()
        assert set(rerun.cached_stages) >= {"serve", "serve:serving_micro"}

    def test_artifact_name_is_part_of_the_cache_key(self):
        base = ServeStage(points=self._POINTS)
        renamed = ServeStage(points=self._POINTS, artifact="serving_b")
        assert base.config() != renamed.config()
        assert renamed.provides == ("serving_b",)
        assert renamed.name == "serve:serving_b"

    def test_inputs_remap_is_part_of_the_cache_key(self):
        base = ServeStage(points=self._POINTS)
        remapped = ServeStage(points=self._POINTS, inputs={"qmodel": "qmodel_b"})
        assert base.config() != remapped.config()
        assert "qmodel_b" in remapped.requires and "qmodel" not in remapped.requires

    def test_unknown_input_remap_rejected(self):
        with pytest.raises(ValueError, match="remap"):
            ServeStage(points=self._POINTS, inputs={"dse": "other"})


# --------------------------------------------------------------------------- federation rollup
class TestFederationRollup:
    def test_per_model_and_per_tenant_blocks_sum(self):
        snapshots = {
            "0": {
                "requests_completed": 10, "batches": 4,
                "per_model": {"a": {"requests": 6, "batches": 2, "current_level": "L0",
                                    "per_level_requests": {"L0": 6}}},
                "per_tenant": {"acme": {"completed": 6, "rejected_total": 1,
                                        "rejected": {"rate": 1}, "shed": 0,
                                        "slo_ms": 100.0, "weight": 2.0}},
            },
            "1": {
                "requests_completed": 5, "batches": 2,
                "per_model": {"a": {"requests": 5, "batches": 2, "current_level": "L1",
                                    "per_level_requests": {"L1": 5}}},
                "per_tenant": {"acme": {"completed": 5, "rejected_total": 2,
                                        "rejected": {"rate": 1, "inflight": 1},
                                        "shed": 1}},
            },
        }
        fleet = rollup_snapshots(snapshots)
        model = fleet["per_model"]["a"]
        assert model["requests"] == 11 and model["batches"] == 4
        assert model["per_level_requests"] == {"L0": 6, "L1": 5}
        assert model["current_levels"] == {"0": "L0", "1": "L1"}
        tenant = fleet["per_tenant"]["acme"]
        assert tenant["completed"] == 11
        assert tenant["rejected_total"] == 3
        assert tenant["rejected"] == {"rate": 2, "inflight": 1}
        assert tenant["shed"] == 1
        assert tenant["slo_ms"] == 100.0 and tenant["weight"] == 2.0


# --------------------------------------------------------------------------- workload engine
class TestWorkloadEngine:
    def test_same_seed_same_trace(self):
        a = poisson_trace(200.0, 1.0, seed=42, tenants={"x": 1.0, "y": 2.0})
        b = poisson_trace(200.0, 1.0, seed=42, tenants={"x": 1.0, "y": 2.0})
        assert a.items == b.items
        c = poisson_trace(200.0, 1.0, seed=43, tenants={"x": 1.0, "y": 2.0})
        assert a.items != c.items

    def test_replay_file_roundtrip(self, tmp_path):
        trace = bursty_trace(50.0, 400.0, 1.0, seed=7,
                             tenants={"a": 1.0}, priorities={"interactive": 1.0})
        path = trace.save(tmp_path / "trace.json")
        loaded = ArrivalTrace.load(path)
        assert loaded.name == trace.name and loaded.seed == trace.seed
        assert len(loaded) == len(trace)
        assert [i.at_s for i in loaded.items] == pytest.approx(
            [round(i.at_s, 6) for i in trace.items]
        )
        assert [i.tenant for i in loaded.items] == [i.tenant for i in trace.items]
        assert [i.priority for i in loaded.items] == [i.priority for i in trace.items]

    def test_bursty_trace_concentrates_in_burst_windows(self):
        trace = bursty_trace(base_rps=20.0, burst_rps=800.0, duration_s=2.0,
                             period_s=1.0, duty=0.25, seed=0)
        in_burst = sum(1 for item in trace.items if (item.at_s % 1.0) < 0.25)
        assert in_burst > 0.7 * len(trace)

    def test_diurnal_trace_peaks_mid_period(self):
        trace = diurnal_trace(mean_rps=300.0, duration_s=2.0, period_s=2.0,
                              amplitude=0.9, seed=0)
        first_half = sum(1 for item in trace.items if item.at_s < 1.0)
        assert first_half > 0.6 * len(trace)  # sin peaks in the first half

    def test_open_loop_fires_at_trace_offsets(self):
        trace = ArrivalTrace("t", 0, [WorkloadItem(0.0), WorkloadItem(0.5),
                                      WorkloadItem(1.0)])
        clock = {"t": 0.0}
        slept = []

        def sleep(s):
            slept.append(s)
            clock["t"] += s

        fired = run_open_loop(trace, lambda item: clock["t"],
                              clock=lambda: clock["t"], sleep=sleep)
        assert fired == [0.0, 0.5, 1.0]
        assert slept == pytest.approx([0.5, 0.5])

    def test_closed_loop_serves_every_item(self):
        trace = poisson_trace(100.0, 0.5, seed=1)
        served = run_closed_loop(trace, lambda item: item.tenant, concurrency=3)
        assert len(served) == len(trace)

    def test_scenarios_are_deterministic_and_named(self):
        for name in SCENARIOS:
            assert build_scenario(name).items == build_scenario(name).items
        with pytest.raises(ValueError, match="steady_mixed"):
            build_scenario("nope")

    def test_scaled_compresses_time(self):
        trace = poisson_trace(100.0, 1.0, seed=0)
        fast = trace.scaled(0.5)
        assert fast.duration_s == pytest.approx(trace.duration_s * 0.5)
        assert len(fast) == len(trace)
