"""Serving benchmarks: batching, router hop, priorities, throughput, ramp.

Five questions:

* how much throughput does the scheduler's dynamic micro-batching buy over
  serving every request as its own forward pass (batch size 1)?
* what does the stack sustain end-to-end (queue -> policy -> batched int8
  forward -> completion) under a steady concurrent load?
* what does the fleet router's hop cost against the same HTTP front served
  directly, at 32 concurrent connections?
* does interactive-class traffic hold a lower p95 than batch-class traffic
  under a mixed-priority burst (the priority-scheduling claim)?
* does the adaptive policy actually move along the Pareto front under a load
  ramp, and what does that save in simulated MCU cycles?

Headline numbers land in ``benchmarks/results/serving.json`` for the CI
perf-regression gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.serving import (
    Client,
    Deployment,
    Fleet,
    HTTPClient,
    Observability,
    PredictionServer,
    QueueDepthPolicy,
    ReplicaConfig,
    Scheduler,
)

from bench_utils import record_json, record_result
from repro.evaluation.reports import format_table


@pytest.fixture(scope="module")
def lenet_serving(context):
    """LeNet artefacts plus a three-level deployment for the serving benches."""
    artifacts = context.build_model("lenet")
    result = artifacts.result
    conv_names = [layer.name for layer in artifacts.qmodel.conv_layers()]
    points = [
        {"label": "exact", "taus": {}, "accuracy": 1.0},
        {"label": "mid", "taus": {name: 0.02 for name in conv_names}, "accuracy": 0.9},
        {"label": "aggressive", "taus": {name: 0.08 for name in conv_names}, "accuracy": 0.8},
    ]
    deployment = Deployment.from_points(
        artifacts.qmodel, points, result.significance, unpacked=result.unpacked
    )
    images = context.eval_set(256)[0]
    return {"deployment": deployment, "images": images, "qmodel": artifacts.qmodel}


def _fire_and_drain(scheduler, images: np.ndarray, n_requests: int, warmup: int = 48) -> float:
    """Submit ``n_requests`` concurrently; return the wall seconds to drain."""
    client = Client(scheduler, timeout_s=600.0)
    for request in client.submit_many(images[:warmup]):
        request.result(timeout=600.0)
    xs = images[np.arange(n_requests) % len(images)]
    started = time.perf_counter()
    requests = client.submit_many(xs)
    for request in requests:
        request.result(timeout=600.0)
    return time.perf_counter() - started


def _sequential_rps(scheduler, images: np.ndarray, n_requests: int, warmup: int = 16) -> float:
    """Closed-loop concurrency-1 client: one request in flight at a time."""
    client = Client(scheduler, timeout_s=600.0)
    for i in range(warmup):
        client.predict(images[i % len(images)])
    started = time.perf_counter()
    for i in range(n_requests):
        client.predict(images[i % len(images)])
    return n_requests / (time.perf_counter() - started)


def _speedup_rows(deployment, images, n_requests: int, repeats: int = 3):
    """Measure sequential / concurrent-batch-1 / coalesced throughput.

    The three modes are re-measured ``repeats`` times interleaved and the
    best run of each is kept -- the shared CI containers have noisy
    neighbours, and best-of-interleaved is robust against a slow minute
    biasing whichever mode happened to run during it.
    """
    rps_seq = rps_b1 = rps_coalesced = 0.0
    mean_batch = 0.0
    for _ in range(repeats):
        with Scheduler(deployment, policy="fixed", max_batch_size=1, max_wait_ms=0.0) as scheduler:
            rps_seq = max(rps_seq, _sequential_rps(scheduler, images, max(64, n_requests // 3)))
        with Scheduler(deployment, policy="fixed", max_batch_size=1, max_wait_ms=0.0) as scheduler:
            rps_b1 = max(rps_b1, n_requests / _fire_and_drain(scheduler, images, n_requests))
        with Scheduler(deployment, policy="fixed", max_batch_size=64, max_wait_ms=10.0) as scheduler:
            rps = n_requests / _fire_and_drain(scheduler, images, n_requests)
            if rps > rps_coalesced:
                rps_coalesced = rps
                mean_batch = scheduler.metrics.snapshot().mean_batch_size
    return rps_seq, rps_b1, rps_coalesced, mean_batch


def test_bench_batching_speedup(lenet_serving, tiny_artifacts):
    """Scheduler-coalesced batches vs batch-size-1 serving.

    Three baselines, worst to best: a closed-loop client (one request in
    flight -- the classic no-batching request/response server), concurrent
    batch-size-1 (requests pipeline through the queue but every forward pass
    serves one sample), and the coalescing scheduler.  The speedup is bounded
    by how much per-invocation overhead batching can amortise, so the
    multiple grows as the per-sample compute shrinks relative to the
    per-call overhead -- the tiny-CNN rows demonstrate the headroom the
    scheduler has on smaller models.  Every forward runs in the scheduler's
    process: a batched GEMM spreads over the BLAS threads (one per core by
    default), while per-request dispatch stays on one core.
    """
    deployment = lenet_serving["deployment"]
    images = lenet_serving["images"]
    n_requests = 192

    rps_seq, rps_b1, rps_coalesced, mean_batch = _speedup_rows(deployment, images, n_requests)

    tiny = tiny_artifacts
    tiny_points = [{"label": "exact", "taus": {}, "accuracy": 1.0}]
    tiny_deployment = Deployment.from_points(
        tiny["qmodel"], tiny_points, tiny["result"].significance, unpacked=tiny["result"].unpacked
    )
    tiny_images = tiny["split"].test.images
    t_seq, t_b1, t_coalesced, t_mean = _speedup_rows(tiny_deployment, tiny_images, 256)

    rows = [
        {"model": "lenet", "mode": "sequential (1 in flight)", "req/s": rps_seq, "vs sequential": 1.0},
        {"model": "lenet", "mode": "concurrent, batch=1", "req/s": rps_b1, "vs sequential": rps_b1 / rps_seq},
        {
            "model": "lenet",
            "mode": f"coalesced (<=64, mean {mean_batch:.1f})",
            "req/s": rps_coalesced,
            "vs sequential": rps_coalesced / rps_seq,
        },
        {"model": "tiny_cnn", "mode": "sequential (1 in flight)", "req/s": t_seq, "vs sequential": 1.0},
        {"model": "tiny_cnn", "mode": "concurrent, batch=1", "req/s": t_b1, "vs sequential": t_b1 / t_seq},
        {
            "model": "tiny_cnn",
            "mode": f"coalesced (<=64, mean {t_mean:.1f})",
            "req/s": t_coalesced,
            "vs sequential": t_coalesced / t_seq,
        },
    ]
    record_result("serving_batching_speedup", format_table(rows, title="serving: batching speedup"))
    record_json(
        "serving",
        {
            "lenet_coalesced_rps": rps_coalesced,
            "lenet_coalesce_speedup": rps_coalesced / rps_b1,
            "tiny_coalesced_rps": t_coalesced,
            "tiny_coalesce_speedup": t_coalesced / t_b1,
        },
    )
    assert rps_coalesced / rps_b1 >= 1.5, "coalescing bought almost nothing on LeNet"
    assert t_coalesced / t_b1 >= 2.5, "coalescing bought almost nothing on the tiny CNN"


def test_bench_sustained_throughput(lenet_serving):
    """Steady concurrent load through the full stack, three waves deep."""
    deployment = lenet_serving["deployment"]
    images = lenet_serving["images"]
    wave = 128

    with Scheduler(deployment, policy="fixed", max_batch_size=32, max_wait_ms=5.0) as scheduler:
        total_seconds = sum(_fire_and_drain(scheduler, images, wave) for _ in range(3))
        snapshot = scheduler.metrics.snapshot()

    # Warm-up waves also pass through the metrics sink; everything answered.
    assert snapshot.requests_completed >= 3 * wave
    assert snapshot.requests_failed == 0
    rows = [
        {
            "requests": 3 * wave,
            "req/s": 3 * wave / total_seconds,
            "mean batch": snapshot.mean_batch_size,
            "p50 ms": snapshot.p50_latency_ms,
            "p95 ms": snapshot.p95_latency_ms,
        }
    ]
    record_result(
        "serving_sustained_throughput",
        format_table(rows, title="serving: sustained throughput (LeNet)"),
    )
    record_json("serving", {"lenet_sustained_rps": 3 * wave / total_seconds})


def test_bench_obs_overhead(lenet_serving):
    """Observability tax on the serving hot path: default bundle vs all-off.

    The default :class:`~repro.obs.Observability` records spans per request
    and events per control-plane decision (profiling stays off);
    ``Observability.disabled()`` turns every pillar into attribute checks.
    Interleaved best-of-3 sustained throughput per configuration -- the
    ratio is gated at 5% in CI (``obs_overhead_ratio`` in
    ``benchmarks/baselines/serving.json``): tracing must stay cheap enough
    to leave on by default.
    """
    deployment = lenet_serving["deployment"]
    images = lenet_serving["images"]
    n_requests = 256

    best = {"on": 0.0, "off": 0.0}
    for _ in range(3):
        for key, obs in (("on", Observability()), ("off", Observability.disabled())):
            with Scheduler(
                deployment, policy="fixed", max_batch_size=32, max_wait_ms=5.0, obs=obs
            ) as scheduler:
                rps = n_requests / _fire_and_drain(scheduler, images, n_requests)
                best[key] = max(best[key], rps)

    ratio = best["on"] / best["off"]
    rows = [
        {"observability": "default (tracing + events)", "req/s": best["on"], "vs off": ratio},
        {"observability": "disabled (all pillars off)", "req/s": best["off"], "vs off": 1.0},
    ]
    record_result(
        "serving_obs_overhead",
        format_table(rows, title="observability overhead (LeNet, sustained load)"),
    )
    record_json(
        "serving",
        {
            "obs_on_rps": best["on"],
            "obs_off_rps": best["off"],
            "obs_overhead_ratio": ratio,
        },
    )
    assert ratio >= 0.90, f"observability cost {1 - ratio:.1%} of throughput"


def test_bench_adaptive_load_ramp(lenet_serving):
    """Trickle -> burst -> trickle: the queue-depth policy must walk the front."""
    deployment = lenet_serving["deployment"]
    images = lenet_serving["images"]

    policy = QueueDepthPolicy(depth_per_level=12, hysteresis=2)
    with Scheduler(deployment, policy=policy, max_batch_size=16, max_wait_ms=2.0) as scheduler:
        client = Client(scheduler, timeout_s=600.0)
        for i in range(8):  # trickle: shallow queue, accurate level
            client.predict(images[i])
        burst = [client.submit(images[i % len(images)]) for i in range(96)]
        for request in burst:
            request.result(timeout=600.0)
        for i in range(8):  # trickle: policy relaxes again
            client.predict(images[i])
        snapshot = scheduler.metrics.snapshot()

    assert snapshot.requests_completed == 112
    escalated = sum(n for name, n in snapshot.per_level_requests.items() if name != "L0")
    assert escalated > 0, "burst never escalated off the exact design"
    assert snapshot.level_switches >= 2
    rows = [
        {
            "level": level.name,
            "label": level.config.label,
            "mcu ms/sample": level.mcu_latency_ms,
            "requests": snapshot.per_level_requests.get(level.name, 0),
        }
        for level in deployment.levels
    ]
    rows.append(
        {
            "level": "switches",
            "label": snapshot.level_switches,
            "mcu ms/sample": "",
            "requests": "",
        }
    )
    rows.append(
        {
            "level": "cycles saved",
            "label": f"{snapshot.cycles_saved:,.0f}",
            "mcu ms/sample": f"{snapshot.mcu_ms_saved:,.1f} ms",
            "requests": "",
        }
    )
    record_result(
        "serving_load_ramp",
        format_table(rows, title="serving: adaptive load ramp (queue-depth policy, LeNet)"),
    )


def _http_burst_rps(server_url: str, images: np.ndarray, n_requests: int,
                    concurrency: int, warmup: int = 16) -> float:
    """Requests/second of an HTTP server under ``concurrency`` open-loop clients.

    Every request is its own connection (urllib does not keep-alive), so the
    measurement includes the per-connection cost: accept + a handler thread.
    """
    client = HTTPClient(server_url, timeout_s=600.0)

    def call(i: int) -> None:
        client.predict_classes(images[i % len(images)])

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        for _ in pool.map(call, range(warmup)):
            pass
        started = time.perf_counter()
        for _ in pool.map(call, range(n_requests)):
            pass
        return n_requests / (time.perf_counter() - started)


def test_bench_router_overhead(tiny_artifacts):
    """The fleet router's tax: fleet-of-1 vs the same front served directly.

    A :class:`Fleet` with one replica runs the identical serving stack (same
    threaded front, same scheduler settings) plus exactly one extra hop: the
    router accepts the connection, picks the replica, forwards over a
    keep-alive link and relays the reply.  The throughput ratio against a
    direct :class:`PredictionServer` is therefore the pure cost of the
    routing tier -- what a deployment pays for failover, federated metrics
    and merged traces before a second replica buys anything back.
    Interleaved best-of-3, like every serving benchmark.
    """
    tiny = tiny_artifacts
    points = [{"label": "exact", "taus": {}, "accuracy": 1.0}]
    deployment = Deployment.from_points(
        tiny["qmodel"], points, tiny["result"].significance, unpacked=tiny["result"].unpacked
    )
    images = tiny["split"].test.images
    n_requests, concurrency = 128, 32

    config = ReplicaConfig(policy="fixed", max_batch_size=64, max_wait_ms=5.0)
    best = {"direct": 0.0, "fleet1": 0.0}
    for _ in range(3):
        with Scheduler(deployment, policy="fixed", max_batch_size=64, max_wait_ms=5.0) as sched:
            with PredictionServer(sched) as server:
                rps = _http_burst_rps(server.url, images, n_requests, concurrency)
                best["direct"] = max(best["direct"], rps)
        with Fleet(deployment, n_replicas=1, config=config, health_interval_s=1.0) as fleet:
            rps = _http_burst_rps(fleet.url, images, n_requests, concurrency)
            best["fleet1"] = max(best["fleet1"], rps)

    ratio = best["fleet1"] / best["direct"]
    rows = [
        {"topology": "direct (thread front)", "req/s": best["direct"], "vs direct": 1.0},
        {"topology": "fleet of 1 (router hop)", "req/s": best["fleet1"], "vs direct": ratio},
    ]
    record_result(
        "serving_router_overhead",
        format_table(rows, title=f"fleet router overhead at {concurrency} connections (tiny CNN)"),
    )
    record_json(
        "serving",
        {
            "direct_rps": best["direct"],
            "fleet1_rps": best["fleet1"],
            "router_overhead_ratio": ratio,
        },
    )
    # The router may cost a chunk of throughput on a single-core container
    # (its forwarding threads contend with the replica process), but an
    # order-of-magnitude collapse means the hop is broken, not just taxed.
    assert ratio >= 0.3, f"router hop cost {1 - ratio:.0%} of direct throughput"


def test_bench_mixed_priority_burst(lenet_serving):
    """Interactive p95 must hold below batch p95 under a bulk-traffic burst.

    A pile of batch-class requests floods the queue, then interactive
    requests trickle in while the backlog drains.  Priority scheduling puts
    every interactive arrival at the head of the next coalesced batch, so
    its end-to-end latency is one service interval -- while the bulk
    traffic absorbs the whole queueing delay.
    """
    deployment = lenet_serving["deployment"]
    images = lenet_serving["images"]
    n_bulk, n_interactive = 160, 24

    with Scheduler(deployment, policy="fixed", max_batch_size=16, max_wait_ms=2.0) as scheduler:
        client = Client(scheduler, timeout_s=600.0)
        client.predict_many(images[:32])  # warm-up
        bulk = [
            client.submit(images[i % len(images)], priority="batch") for i in range(n_bulk)
        ]
        # Interactive requests arrive while the bulk backlog is deep.
        interactive = []
        for i in range(n_interactive):
            interactive.append(client.submit(images[i % len(images)], priority="interactive"))
            time.sleep(0.002)
        for request in bulk + interactive:
            request.result(timeout=600.0)
        snapshot = scheduler.metrics.snapshot()

    stats = snapshot.per_priority
    interactive_p95 = stats["interactive"]["p95_latency_ms"]
    batch_p95 = stats["batch"]["p95_latency_ms"]
    rows = [
        {
            "class": name,
            "completed": stats[name]["completed"],
            "p50 ms": stats[name]["p50_latency_ms"],
            "p95 ms": stats[name]["p95_latency_ms"],
        }
        for name in ("interactive", "batch")
        if name in stats
    ]
    record_result(
        "serving_mixed_priority",
        format_table(rows, title="mixed-priority burst (LeNet, 160 bulk + 24 interactive)"),
    )
    record_json(
        "serving",
        {
            "interactive_p95_ms": interactive_p95,
            "batch_p95_ms": batch_p95,
            "interactive_vs_batch_p95": interactive_p95 / batch_p95,
        },
    )
    assert stats["interactive"]["completed"] == n_interactive
    assert interactive_p95 < batch_p95, (
        f"interactive p95 {interactive_p95:.1f} ms not below batch p95 {batch_p95:.1f} ms"
    )


def test_bench_traced_deployment_build(context):
    """Build-time regression gate: a traced deployment lowers the model ONCE.

    ``cycle_source="traced"`` used to re-run ``lower_model`` plus a probe
    forward per Pareto level -- an O(levels x model) build.  The rebuilt path
    lowers the whole graph once, re-masks only the conv programs per level
    and costs each level from static trace geometry.  The hard gate is the
    call count; the timing assertion keeps the build under the old path's
    floor (``levels`` full lowerings), with the measured ratio recorded for
    the CI perf gate.
    """
    artifacts = context.build_model("lenet")
    qmodel, result = artifacts.qmodel, artifacts.result
    conv_names = [layer.name for layer in qmodel.conv_layers()]
    taus = [0.01, 0.02, 0.04, 0.08, 0.16]
    points = [{"label": "exact", "taus": {}, "accuracy": 1.0}] + [
        {
            "label": f"tau={tau}",
            "taus": {name: tau for name in conv_names},
            "accuracy": 1.0 - 0.02 * i,
        }
        for i, tau in enumerate(taus, start=1)
    ]

    from repro.vm import lower as vm_lower

    calls = {"lower_model": 0}
    original = vm_lower.lower_model

    def counting_lower_model(*args, **kwargs):
        calls["lower_model"] += 1
        return original(*args, **kwargs)

    vm_lower.lower_model = counting_lower_model
    try:
        started = time.perf_counter()
        traced = Deployment.from_points(
            qmodel, points, result.significance, unpacked=result.unpacked,
            cycle_source="traced",
        )
        traced_build_s = time.perf_counter() - started
    finally:
        vm_lower.lower_model = original

    n_levels = len(traced.levels)
    assert n_levels == len(points)
    assert calls["lower_model"] == 1, (
        f"traced deployment build lowered the model {calls['lower_model']} times"
    )

    # The old build's floor: one full-graph lowering per level (it also ran a
    # probe forward per level on top of that).
    single_lower_s = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        original(qmodel, unpacked=result.unpacked)
        single_lower_s = min(single_lower_s, time.perf_counter() - started)
    per_level_floor_s = n_levels * single_lower_s
    assert traced_build_s < per_level_floor_s, (
        f"traced build took {traced_build_s:.2f}s, not better than "
        f"{n_levels} x full lowering ({per_level_floor_s:.2f}s)"
    )
    record_result(
        "traced_deploy_build",
        format_table(
            [
                {"path": "lower-once + re-mask (current)", "wall (s)": f"{traced_build_s:.3f}"},
                {"path": f"{n_levels} x full lowering (old floor)",
                 "wall (s)": f"{per_level_floor_s:.3f}"},
            ],
            title=f"traced deployment build (LeNet, {n_levels} levels)",
        ),
    )
    record_json(
        "serving",
        {
            "traced_deploy_build_s": traced_build_s,
            "traced_build_vs_per_level_lowering": traced_build_s / per_level_floor_s,
        },
    )
