"""The serving fleet: routing, trace propagation, federated observability.

A module-scoped fleet (router + 2 replica processes over the session's tiny
deployment) backs the non-destructive tests; health/failover/drain tests
spawn their own short-lived fleets because they kill replicas.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs.exposition import parse_prometheus, sum_samples
from repro.serving import Deployment, HTTPClient
from repro.serving.fleet import Fleet, ReplicaConfig
from repro.serving.server import sanitize_trace_id
from repro.utils import parallel


@pytest.fixture(scope="module")
def deployment(tiny_qmodel, tiny_pipeline_result):
    """A two-level deployment shared by every fleet in this module."""
    points = [
        {"label": "exact", "taus": {}, "accuracy": 0.9},
        {"label": "aggressive", "taus": {"conv1": 0.2, "conv2": 0.2}, "accuracy": 0.7},
    ]
    return Deployment.from_points(
        tiny_qmodel,
        points,
        tiny_pipeline_result.significance,
        unpacked=tiny_pipeline_result.unpacked,
    )


@pytest.fixture(scope="module")
def fleet(deployment):
    """Router + two replica processes, fixed policy, fast health probes."""
    config = ReplicaConfig(policy="fixed", max_batch_size=16, max_wait_ms=2.0)
    with Fleet(deployment, n_replicas=2, config=config, health_interval_s=0.2) as fleet:
        yield fleet


@pytest.fixture(scope="module")
def images(small_split):
    return small_split.test.images[:16]


def _wait_for(predicate, timeout_s=10.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


# --------------------------------------------------------------------------- cores
class TestReplicaLanes:
    """Sibling replicas take the other cores, so a replica shards no batch, pinned BLAS or not."""

    def test_a_replica_runs_its_batches_on_one_lane(self, deployment, images, force_lanes,
                                                     monkeypatch):
        force_lanes(2)
        monkeypatch.setattr(parallel, "MIN_SHARD_MACS", 1)

        def no_pool():
            raise RuntimeError("the batch was sharded")

        monkeypatch.setattr(parallel, "_shard_pool", no_pool)
        xs = images[:8]
        with pytest.raises(RuntimeError, match="sharded"):
            deployment.forward(xs)  # this process would shard the batch
        config = ReplicaConfig(policy="fixed", max_batch_size=8, max_wait_ms=20.0)
        with Fleet(deployment, n_replicas=1, config=config) as fleet:
            classes = HTTPClient(fleet.url, timeout_s=60.0).predict_classes(xs)
        np.testing.assert_array_equal(classes, deployment.qmodel.predict_classes(xs))


# --------------------------------------------------------------------------- routing
class TestRouting:
    def test_round_trip_through_router(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        body, headers = client.predict_with_headers(images[:4])
        assert len(body["classes"]) == 4
        assert all(isinstance(c, int) for c in body["classes"])
        assert headers.get("X-Routed-To") in ("0", "1")
        assert body["trace_id"] == headers["X-Trace-Id"]

    def test_trace_covers_router_and_replica_stages(self, fleet, images):
        # Acceptance criterion: one X-Trace-Id whose merged /trace shows the
        # router's route span and the replica's queue-wait/execute spans.
        client = HTTPClient(fleet.url, timeout_s=60.0)
        _, headers = client.predict_with_headers(images[0])
        trace_id = headers["X-Trace-Id"]
        spans = client.trace(trace_id)
        by_name = {span["name"]: span for span in spans}
        assert {"route", "parse", "queue-wait", "execute", "respond"} <= set(by_name)
        assert by_name["route"]["replica"] == "router"
        replica = by_name["route"]["attrs"]["target"]
        assert by_name["queue-wait"]["replica"] == replica
        assert by_name["execute"]["replica"] == replica
        # Wall-clock merge order: the route span starts before (or with) the
        # replica-side spans it encloses.
        assert spans[0]["name"] in ("route", "parse")

    def test_client_supplied_trace_id_propagates(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        payload = json.dumps({"inputs": images[0].tolist()}).encode("utf-8")
        request = urllib.request.Request(
            fleet.url + "/predict",
            data=payload,
            headers={"Content-Type": "application/json", "X-Trace-Id": "caller-supplied.01"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60.0) as response:
            body = json.loads(response.read().decode("utf-8"))
            assert response.headers["X-Trace-Id"] == "caller-supplied.01"
        assert body["trace_id"] == "caller-supplied.01"
        names = {span["name"] for span in client.trace("caller-supplied.01")}
        assert {"route", "queue-wait", "execute"} <= names

    def test_keep_alive_through_router_does_not_stall(self, fleet, keep_alive_probe):
        # Both hops reuse connections (client -> router, router -> replica);
        # with Nagle on, each waited out a delayed ACK per response.  The
        # router runs in this process, so the probe sees its accepted socket;
        # a stall on most requests would also catch the replica hop.
        nodelay, stalls = keep_alive_probe(fleet.router.host, fleet.router.port)
        assert nodelay, "the router accepted a connection with Nagle's algorithm on"
        assert stalls <= 10, f"{stalls} of 20 keep-alive requests stalled"

    def test_burst_spreads_over_both_replicas(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)

        def call(i):
            return client.predict(images[i % len(images)])

        with ThreadPoolExecutor(max_workers=16) as pool:
            bodies = list(pool.map(call, range(48)))
        assert all(len(body["classes"]) == 1 for body in bodies)
        rollup = client.metrics()
        per_replica = {
            name: snapshot["requests_completed"]
            for name, snapshot in rollup["replicas"].items()
        }
        assert set(per_replica) == {"0", "1"}
        assert all(count > 0 for count in per_replica.values()), per_replica
        assert rollup["fleet"]["requests_completed"] == sum(per_replica.values())


# --------------------------------------------------------------------------- federation
class TestFederatedObservability:
    def test_fleet_prometheus_equals_per_replica_sum(self, fleet, images):
        # Acceptance criterion: fleet series equal the sum of the
        # per-replica series, verified through the exposition parser.
        client = HTTPClient(fleet.url, timeout_s=60.0)
        client.predict(images[:8])  # guarantee traffic on the scrape
        fed = parse_prometheus(client.metrics(format="prometheus"))
        sources = [
            parse_prometheus(HTTPClient(r.url, timeout_s=30.0).metrics(format="prometheus"))
            for r in fleet.replicas
        ]
        for family in (
            "repro_requests_completed_total",
            "repro_batches_total",
            "repro_request_latency_ms",  # histogram: observation counts sum
        ):
            fleet_total = sum_samples(fed, family)
            replica_total = sum(sum_samples(source, family) for source in sources)
            assert fleet_total == replica_total, family
        assert sum_samples(fed, "repro_requests_completed_total") > 0

    def test_gauges_stay_attributed_counters_do_not(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        client.predict(images[0])
        text = client.metrics(format="prometheus")
        for line in text.splitlines():
            if line.startswith("repro_queue_depth{"):
                assert 'replica="' in line
            if line.startswith("repro_requests_completed_total{"):
                assert 'replica="' not in line
        # Per-replica identity survives federation: one build_info per
        # replica plus the router's own.
        replicas = {
            line.split('replica="')[1].split('"')[0]
            for line in text.splitlines()
            if line.startswith("repro_build_info{")
        }
        assert replicas == {"0", "1", "router"}

    def test_router_metrics_present_in_federation(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        client.predict(images[0])
        fed = parse_prometheus(client.metrics(format="prometheus"))
        assert sum_samples(fed, "repro_router_requests_total") > 0
        up = next(f for f in fed if f.name == "repro_replica_up")
        assert {s.label("target") for s in up.samples} == {"0", "1"}

    def test_events_merge_with_replica_attribution(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        # A microscopic deadline forces a shed on whichever replica gets it.
        with pytest.raises(urllib.error.HTTPError) as failure:
            client.predict(images[0], timeout_ms=0.001)
        assert failure.value.code == 504
        events = client.events()
        assert events and all("replica" in event for event in events)
        sheds = [event for event in events if event["kind"] == "shed"]
        assert sheds and sheds[-1]["replica"] in ("0", "1")
        # replica-start events prove both replicas contributed to the merge.
        starters = {e["replica"] for e in events if e["kind"] == "replica-start"}
        assert starters == {"0", "1"}

    def test_trace_merge_orders_on_wall_clock(self, fleet, images):
        client = HTTPClient(fleet.url, timeout_s=60.0)
        client.predict(images[0])
        spans = client.trace()  # unfiltered, default limit
        stamps = [span["ts"] for span in spans]
        assert stamps == sorted(stamps)
        assert {span["replica"] for span in spans} & {"0", "1"}


# --------------------------------------------------------------------------- health / drain
class TestHealthAndDrain:
    @pytest.fixture()
    def small_fleet(self, deployment):
        config = ReplicaConfig(policy="fixed", max_batch_size=8, max_wait_ms=1.0)
        fleet = Fleet(deployment, n_replicas=2, config=config, health_interval_s=0.1)
        fleet.start()
        yield fleet
        fleet.stop()

    def test_degraded_then_down_with_failover(self, small_fleet, images):
        client = HTTPClient(small_fleet.url, timeout_s=60.0)
        assert client.health() == "ok"
        small_fleet.replicas[0].kill()
        # Failover is immediate (connection error -> next replica), even
        # before the probe marks the replica down.
        body = client.predict(images[0])
        assert len(body["classes"]) == 1
        assert _wait_for(lambda: client.health() == "degraded", timeout_s=10.0)
        detail = client.health_detail()
        assert detail["replicas"]["0"]["status"] == "down"
        assert detail["replicas"]["1"]["status"] == "ok"
        assert detail["replicas_up"] == 1
        # The federated scrape keeps working from the survivor.
        fed = parse_prometheus(client.metrics(format="prometheus"))
        assert sum_samples(fed, "repro_requests_completed_total") > 0
        small_fleet.replicas[1].kill()
        assert _wait_for(lambda: client.health() == "down", timeout_s=10.0)
        with pytest.raises(urllib.error.HTTPError) as failure:
            client.predict(images[0])
        assert failure.value.code == 503
        events = {event["kind"] for event in client.events()}
        assert "replica-down" in events

    def test_drain_rejects_new_predictions(self, small_fleet, images):
        client = HTTPClient(small_fleet.url, timeout_s=60.0)
        client.predict(images[0])
        small_fleet.router.begin_drain()
        assert client.health() == "draining"
        with pytest.raises(urllib.error.HTTPError) as failure:
            client.predict(images[0])
        assert failure.value.code == 503
        assert "draining" in failure.value.read().decode("utf-8")

    def test_stop_terminates_replica_processes(self, deployment, images):
        config = ReplicaConfig(policy="fixed", max_batch_size=8, max_wait_ms=1.0)
        fleet = Fleet(deployment, n_replicas=2, config=config, health_interval_s=0.2)
        fleet.start()
        HTTPClient(fleet.url, timeout_s=60.0).predict(images[0])
        pids = [replica.pid for replica in fleet.replicas]
        fleet.stop()
        assert all(pid is not None for pid in pids)
        assert not any(replica.alive for replica in fleet.replicas)
        assert fleet.router is None


# --------------------------------------------------------------------------- trace-id plumbing
class TestTraceIdPlumbing:
    def test_sanitize_trace_id(self):
        assert sanitize_trace_id("abc-123.DEF_x") == "abc-123.DEF_x"
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("has spaces") is None
        assert sanitize_trace_id("x" * 129) is None
        assert sanitize_trace_id('quo"te') is None

    def test_server_accepts_incoming_trace_id(self, deployment, images):
        from repro.serving import Scheduler
        from repro.serving.server import PredictionServer

        scheduler = Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=1.0)
        scheduler.start()
        try:
            with PredictionServer(scheduler, port=0) as server:
                payload = json.dumps({"inputs": images[0].tolist()}).encode("utf-8")
                request = urllib.request.Request(
                    server.url + "/predict",
                    data=payload,
                    headers={"Content-Type": "application/json", "X-Trace-Id": "upstream-7"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30.0) as response:
                    assert response.headers["X-Trace-Id"] == "upstream-7"
                    body = json.loads(response.read().decode("utf-8"))
            assert body["trace_id"] == "upstream-7"
            names = {span.name for span in scheduler.obs.tracer.spans(trace_id="upstream-7")}
            assert {"parse", "queue-wait", "execute"} <= names
        finally:
            scheduler.stop()

    def test_garbage_trace_header_gets_fresh_id(self, deployment, images):
        from repro.serving import Scheduler
        from repro.serving.server import PredictionServer

        scheduler = Scheduler(deployment, policy="fixed", max_batch_size=8, max_wait_ms=1.0)
        scheduler.start()
        try:
            with PredictionServer(scheduler, port=0) as server:
                payload = json.dumps({"inputs": images[0].tolist()}).encode("utf-8")
                request = urllib.request.Request(
                    server.url + "/predict",
                    data=payload,
                    headers={"Content-Type": "application/json", "X-Trace-Id": "bad id !!"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30.0) as response:
                    issued = response.headers["X-Trace-Id"]
            assert issued and issued != "bad id !!"
        finally:
            scheduler.stop()


# --------------------------------------------------------------------------- trace CLI errors
class TestTraceCliErrors:
    def test_missing_export_is_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["trace", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "does not exist" in err
        assert "--trace-export" in err  # points at the fix

    def test_empty_export_is_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["trace", "--input", str(empty)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "is empty" in err

    def test_directory_input_is_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["trace", "--input", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_valid_export_still_renders(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.tracing import Tracer

        tracer = Tracer()
        tracer.record_span("parse", "t-1", 0.0, 0.002)
        tracer.record_span("execute", "t-1", 0.002, 0.010)
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(path)
        assert main(["trace", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t-1" in out
        assert "per-stage latency breakdown" in out


# --------------------------------------------------------------------------- construction guards
class TestConstruction:
    def test_fleet_needs_replicas(self, deployment):
        with pytest.raises(ValueError, match="at least one replica"):
            Fleet(deployment, n_replicas=0)

    def test_router_needs_replicas(self):
        from repro.serving.fleet import FleetRouter

        with pytest.raises(ValueError, match="at least one replica"):
            FleetRouter([])

    def test_url_requires_start(self, deployment):
        fleet = Fleet(deployment, n_replicas=1)
        with pytest.raises(RuntimeError, match="not started"):
            fleet.url

    def test_replica_config_policy_options_round_trip(self):
        config = ReplicaConfig(policy="queue-depth", policy_options={"depth_per_level": 2})
        from repro.serving.fleet.replica import _resolve_policy

        policy = _resolve_policy(config)
        assert policy.depth_per_level == 2

    def test_rollup_snapshots_sums(self):
        from repro.serving.fleet import rollup_snapshots

        rollup = rollup_snapshots({
            "0": {"requests_completed": 3, "batches": 2,
                  "per_level_requests": {"L0": 3},
                  "per_priority": {"standard": {"completed": 3, "shed": 0, "failed": 0}}},
            "1": {"requests_completed": 5, "batches": 1,
                  "per_level_requests": {"L0": 4, "L1": 1},
                  "per_priority": {"standard": {"completed": 5, "shed": 1, "failed": 0}}},
        })
        assert rollup["requests_completed"] == 8
        assert rollup["batches"] == 3
        assert rollup["per_level_requests"] == {"L0": 7, "L1": 1}
        assert rollup["per_priority"]["standard"] == {"completed": 8, "shed": 1, "failed": 0}
        assert rollup["mean_batch_size"] == pytest.approx(8 / 3)
        assert rollup["replicas"] == 2
