"""``batch_alexnet_approx``: closed-loop batched serving at the most aggressive level.

One thread keeps ``OUTSTANDING`` requests (two full batches) in flight
against an in-process :class:`~repro.serving.Scheduler` and refills each
slot as its request completes.  The deployment has two levels -- exact and
a uniform conv tau -- and a fixed policy pins the aggressive one, so every
batch is a full masked int8 forward.  No wire, no front.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench import common
from perfbench.stats import (
    Outcomes, count_outcomes, release_check, tail, tenancy_counts, windowed,
)

MODEL = "alexnet"
TAU = 0.05
MAX_BATCH = 32
OUTSTANDING = 2 * MAX_BATCH
POOL = 256
SETUP_REPEATS = 7
WARMUP_S = 1.0
#: Metrics are medians over windows of this many consecutive answers
#: (enough for a supported p99 in each).
WINDOW = 32 * MAX_BATCH
RESULT_TIMEOUT_S = 30.0


def _build(seed: int) -> Dict[str, Any]:
    """Data, model, quantization, significance and the two-level deployment."""
    from repro.serving import Deployment

    images, _ = common.synthetic_images(common.CALIBRATION_IMAGES + POOL, seed)
    calibration, pool = images[: common.CALIBRATION_IMAGES], images[common.CALIBRATION_IMAGES:]
    quantize_s, qmodel = common.timed(lambda: common.build_quantized(MODEL, seed, calibration))

    def deploy():
        unpacked, significance = common.analyse(qmodel, calibration)
        convs = [layer.name for layer in qmodel.conv_layers()]
        points = [
            {"label": "exact", "taus": {}, "accuracy": 1.0},
            {"label": f"tau={TAU:g}", "taus": {name: TAU for name in convs}, "accuracy": 0.0},
        ]
        return Deployment.from_points(qmodel, points, significance, unpacked), unpacked

    deployment_s, (deployment, unpacked) = common.timed(deploy)
    if len(deployment.levels) != 2:
        raise RuntimeError(f"expected exact + tau levels, got {len(deployment.levels)}")
    return {"qmodel": qmodel, "pool": pool, "deployment": deployment, "unpacked": unpacked,
            "quantize_s": quantize_s, "deployment_s": deployment_s}


def _scheduler(deployment, profile: bool):
    from repro.obs import Observability
    from repro.serving import FixedPolicy, Scheduler

    scheduler = Scheduler(
        deployment,
        policy=FixedPolicy(level=len(deployment.levels) - 1),
        max_batch_size=MAX_BATCH,
        obs=Observability(profile_every=1 if profile else 0),
    )
    return scheduler.start()


def _closed_loop(scheduler, pool: np.ndarray, references: Dict[str, np.ndarray],
                 seconds: float, rng: np.random.Generator, recorder=None) -> Dict[str, Any]:
    """Keep ``OUTSTANDING`` requests in flight for ``seconds``; check every answer."""
    from repro.serving import RequestError, RequestTimedOut

    pending: deque = deque()
    latencies: List[float] = []
    stamps: List[float] = []
    kinds: List[str] = []
    waits: List[float] = []
    services: List[float] = []

    def submit() -> None:
        idx = int(rng.integers(len(pool)))
        stamp: Dict[str, float] = {}
        submitted = time.perf_counter()
        request = scheduler.submit(pool[idx])
        # The done-callback stamps completion on the scheduler thread, so a
        # request is not charged for the loop getting round to it.
        request.add_done_callback(lambda _r: stamp.setdefault("done", time.perf_counter()))
        pending.append((request, idx, submitted, stamp))

    for _ in range(OUTSTANDING):
        submit()
    started = time.perf_counter()
    deadline = started + seconds
    completed = 0
    while pending:
        request, idx, submitted, stamp = pending.popleft()
        try:
            prediction = request.result(timeout=RESULT_TIMEOUT_S)
        except (RequestTimedOut, TimeoutError):
            kinds.append("timed_out")
        except RequestError:
            kinds.append("refused")
        else:
            done = stamp.get("done", time.perf_counter())
            latencies.append((done - submitted) * 1e3)
            stamps.append(done)
            waits.append(request.wait_ms)
            services.append(request.service_ms)
            expected = references.get(request.level_name)
            kinds.append("ok" if expected is not None and prediction == expected[idx] else "wrong")
            if recorder is not None:
                recorder.record("client.request", submitted, done, f"r{request.id}",
                                level=request.level_name)
            completed += 1
        if time.perf_counter() < deadline:
            submit()
    elapsed = time.perf_counter() - started
    return {"latencies": latencies, "stamps": stamps, "outcomes": count_outcomes(kinds),
            "started": started, "elapsed": elapsed, "completed": completed, "waits": waits,
            "services": services}


def run(seed: int, seconds: float, trace: bool, recorder) -> Dict[str, Any]:
    """Measure the workload; returns metrics, per-layer figures and outcome counts."""
    def one_setup(last: bool):
        built = _build(seed)
        scheduler = _scheduler(built["deployment"], profile=False)
        if not last:
            scheduler.stop()
        return built, scheduler

    setup_s, (built, scheduler), setup_samples = common.median_setup(one_setup, SETUP_REPEATS)
    deployment, pool = built["deployment"], built["pool"]
    references = {
        level.name: built["qmodel"].forward(pool, masks=level.masks).argmax(axis=-1)
        for level in deployment.levels
    }
    rng = np.random.default_rng(seed)
    try:
        _closed_loop(scheduler, pool, references, WARMUP_S, rng)
        measure_s = seconds / 2 if trace else seconds
        loop = _closed_loop(scheduler, pool, references, measure_s, rng)
    finally:
        scheduler.stop()
    outcomes: Outcomes = loop["outcomes"]
    window = windowed(loop["stamps"], loop["latencies"], WINDOW)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": window["p50"],
        "latency_p99_ms": window["tail"],
        "throughput_per_s": window["throughput_per_s"],
        "peak_rss_mb": common.peak_rss_mb(),
    }
    details: Dict[str, Any] = {
        "unit_of_work": "one image request, submit -> result",
        "outstanding": OUTSTANDING, "max_batch_size": MAX_BATCH,
        "level": deployment.levels[-1].name, "tau": TAU,
        "conv_mac_reduction": deployment.levels[-1].conv_mac_reduction,
        "statistic": f"median over {window['windows']} windows of {WINDOW} answers",
        "answers": loop["completed"], "whole_run": tail(loop["latencies"]),
        "whole_run_throughput_per_s": loop["completed"] / loop["elapsed"],
        "setup_samples_s": setup_samples,
    }
    per_layer: Dict[str, float] = {
        "setup.quantize_s": built["quantize_s"],
        "setup.deployment_s": built["deployment_s"],
        "error_rate": outcomes.error_rate,
    }
    if trace:
        traced, details["layers"], traced_outcomes = _traced(
            built, references, seconds / 2, rng, recorder, metrics)
        per_layer.update(traced)
        outcomes = outcomes.add(traced_outcomes)
        per_layer["error_rate"] = outcomes.error_rate
    return {"metrics": metrics, "per_layer": per_layer, "outcomes": outcomes, "details": details}


def _traced(built, references, seconds: float, rng, recorder,
            untraced: Dict[str, float]) -> Tuple[Dict[str, float], Dict[str, Any], Outcomes]:
    """Per-layer figures: a profiled scheduler run plus out-of-band layer timing.

    Also returns the traced loop's outcomes, charged with any admitted
    request the scheduler's tenant table did not release.
    """
    deployment, pool = built["deployment"], built["pool"]
    level = len(deployment.levels) - 1
    scheduler = _scheduler(deployment, profile=True)
    try:
        loop = _closed_loop(scheduler, pool, references, seconds, rng, recorder=recorder)
        snapshot = scheduler.metrics.snapshot()
        snapshot_s = [common.timed(scheduler.metrics.snapshot)[0] for _ in range(50)]
        profile = scheduler.obs.profiler.snapshot()
    finally:
        scheduler.stop()
    batch = pool[:MAX_BATCH]
    masks = deployment.levels[level].masks
    forward = lambda: deployment.forward(batch, level=level)  # noqa: E731
    layers = common.layer_profile(deployment.qmodel, masks, batch, forward, repeats=30,
                                  recorder=recorder)
    vm = common.vm_turbo_profile(deployment.qmodel, built["unpacked"], masks, batch, forward,
                                 repeats=15)
    traced_p50 = windowed(loop["stamps"], loop["latencies"], WINDOW)["p50"]
    admitted = loop["outcomes"].attempted - loop["outcomes"].refused
    tenancy = tenancy_counts(snapshot.per_tenant, snapshot.requests_failed)
    out = {
        "client.e2e_ms": statistics.median(loop["latencies"]),
        "scheduler.queue_wait_ms": statistics.median(loop["waits"]),
        "scheduler.execute_ms": statistics.median(loop["services"]),
        "scheduler.policy_ms": profile.get("policy", {}).get("mean_ms", 0.0),
        "scheduler.batch_size_mean": snapshot.mean_batch_size,
        "scheduler.batches": float(snapshot.batches),
        "metrics.snapshot_ms": statistics.median(snapshot_s) * 1e3,
        "tenancy.admitted": float(admitted),
        "tenancy.released": float(tenancy["released"]),
        "tenancy.rejected": float(tenancy["rejected"]),
        "deployment.forward_ms": layers["forward_ms"],
        "deployment.level_bytes": float(common.level_bytes(deployment.levels[level],
                                                           deployment.qmodel)),
        "vm.turbo_forward_ms": vm["turbo_forward_ms"],
        "vm.turbo_vs_kernel": vm["turbo_vs_kernel"],
        "trace.overhead_share": traced_p50 / untraced["latency_p50_ms"] - 1.0,
    }
    out.update(common.layer_metrics(layers))
    outcomes = loop["outcomes"].add(release_check(admitted, tenancy["released"]))
    return out, common.layer_details(layers), outcomes
