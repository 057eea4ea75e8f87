"""``dse_lenet``: the paper's offline flow on LeNet, end to end.

Each repetition is one explore through the public facade,
``AtamanPipeline(qmodel).run(...)``: unpack, calibrate, significance and an
exhaustive per-layer tau sweep over 256 evaluation images, at the
repository's default worker count, with no artifact store (nothing is
reused between repetitions).  Every repetition re-evaluates the exact
design and a seeded sample of designs serially and requires exact equality
of accuracy and MAC reduction.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench import common
from perfbench.stats import Outcomes, tail

MODEL = "lenet"
EVAL_IMAGES = 256
TAU_STEP = 0.025
TAU_MAX = 0.1
CHECKED_PER_SWEEP = 2
SETUP_REPEATS = 15


def _dse_config():
    from repro.core import DSEConfig

    return DSEConfig(tau_step=TAU_STEP, tau_max=TAU_MAX, layer_subsets="per_layer",
                     max_eval_samples=EVAL_IMAGES)


def _build(seed: int) -> Dict[str, Any]:
    """The pipeline inputs: calibration and evaluation images, quantized LeNet."""
    images, labels = common.synthetic_images(common.CALIBRATION_IMAGES + EVAL_IMAGES, seed)
    calibration = images[: common.CALIBRATION_IMAGES]
    quantize_s, qmodel = common.timed(lambda: common.build_quantized(MODEL, seed, calibration))
    return {"qmodel": qmodel, "calibration": calibration,
            "images": images[common.CALIBRATION_IMAGES:],
            "labels": labels[common.CALIBRATION_IMAGES:], "quantize_s": quantize_s}


def _check(built, result, rng: np.random.Generator) -> List[str]:
    """Re-evaluate the exact design and a seeded sample serially; one outcome each."""
    from repro.core.skipping import conv_mac_reduction

    qmodel = built["qmodel"]
    points = result.dse.points
    chosen = [0] + sorted(rng.choice(np.arange(1, len(points)), CHECKED_PER_SWEEP,
                                     replace=False).tolist())
    kinds = []
    for index in chosen:
        point = points[index]
        masks = (None if point.config.is_exact
                 else point.config.build_masks(result.significance, unpacked=result.unpacked))
        accuracy = qmodel.evaluate_accuracy(built["images"], built["labels"], masks=masks)
        reduction = conv_mac_reduction(qmodel, masks) if masks else 0.0
        same = accuracy == point.accuracy and reduction == point.conv_mac_reduction
        kinds.append("ok" if same else "wrong")
    return kinds


def _explore(built):
    from repro.core import AtamanPipeline

    return AtamanPipeline(built["qmodel"]).run(
        built["calibration"], built["images"], built["labels"], dse_config=_dse_config()
    )


def run(seed: int, seconds: float, trace: bool, recorder) -> Dict[str, Any]:
    """Measure the workload; returns metrics, per-layer figures and outcome counts."""
    from repro.utils.parallel import default_workers

    setup_s, built, setup_samples = common.median_setup(lambda _last: _build(seed), SETUP_REPEATS)
    rng = np.random.default_rng(seed)
    # The first explore in a process runs ~15% slower and would be the
    # slowest one, the workload's tail, on most runs; it is not measured.
    _explore(built)
    sweeps_s: List[float] = []
    rates: List[float] = []
    designs = wrong = 0
    round_s = 0.0
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    # Start another sweep only if one more (with its check) fits the budget.
    while not sweeps_s or time.perf_counter() - started + round_s <= budget:
        round_started = time.perf_counter()
        elapsed, result = common.timed(lambda: _explore(built))
        sweeps_s.append(elapsed)
        rates.append(len(result.dse.points) / elapsed)
        designs += len(result.dse.points)
        wrong += _check(built, result, rng).count("wrong")
        round_s = time.perf_counter() - round_started
    outcomes = Outcomes(attempted=designs, ok=designs - wrong, wrong=wrong)
    latency = tail([s * 1e3 for s in sweeps_s])
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": latency["p50"],
        "latency_p99_ms": latency["tail"],
        "throughput_per_s": statistics.median(rates),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    details = {
        "unit_of_work": "latency: one whole explore (sweep); throughput: designs per second",
        "statistic": "medians over sweeps; the tail is the slowest sweep (too few for a p99)",
        "designs_per_sweep": len(result.dse.points), "eval_images": EVAL_IMAGES,
        "tau_step": TAU_STEP, "tau_max": TAU_MAX, "layer_subsets": "per_layer",
        "dse_workers": default_workers(), "sweeps": len(sweeps_s),
        "latency_basis": latency["basis"], "latency_samples": latency["n"],
        "setup_samples_s": setup_samples,
    }
    per_layer: Dict[str, float] = {
        "setup.quantize_s": built["quantize_s"],
        "error_rate": outcomes.error_rate,
    }
    if trace:
        traced, details["layers"] = _traced(built, recorder)
        per_layer.update(traced)
    return {"metrics": metrics, "per_layer": per_layer, "outcomes": outcomes, "details": details}


def _serial_designs(dse, built, significance, unpacked, recorder) -> Dict[str, Any]:
    """Every design of a sweep built and evaluated one at a time, with spans per stage."""
    qmodel, images, labels = built["qmodel"], built["images"], built["labels"]
    build_s: List[float] = []
    evaluate_s: List[float] = []
    retained: List[float] = []
    full_macs = qmodel.total_macs()
    started = time.perf_counter()
    for i, point in enumerate(dse.points):
        request_id = f"design-{i}"
        with recorder.span("dse.design", request_id) as parent:
            with recorder.span("dse.build_masks", request_id, parent=parent["id"]):
                start = time.perf_counter()
                masks = (None if point.config.is_exact
                         else point.config.build_masks(significance, unpacked=unpacked))
                build_s.append(time.perf_counter() - start)
            with recorder.span("dse.evaluate", request_id, parent=parent["id"]):
                start = time.perf_counter()
                qmodel.evaluate_accuracy(images, labels, masks=masks)
                evaluate_s.append(time.perf_counter() - start)
        retained.append(qmodel.total_macs(masks=masks) / full_macs)
    return {"wall_s": time.perf_counter() - started, "build_s": build_s,
            "evaluate_s": evaluate_s, "retained": retained}


def _traced(built, recorder) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer figures: the sweep's stages called one at a time from outside.

    The serial per-design loop runs twice, with the benchmark's spans off
    and then on; ``trace.overhead_share`` compares the two, and
    ``parallel.speedup`` sets the untraced serial loop against ``run_dse``.
    """
    from repro.core import AtamanPipeline, run_dse
    from repro.utils.parallel import default_workers

    from perfbench.tracing import SpanRecorder

    qmodel, images, labels = built["qmodel"], built["images"], built["labels"]
    pipeline = AtamanPipeline(qmodel)
    unpacked = pipeline.unpack()
    significance_s, significance = common.timed(
        lambda: pipeline.significance(pipeline.calibrate(built["calibration"]))
    )
    sweep_s, dse = common.timed(
        lambda: run_dse(qmodel, significance, images, labels, dse_config=_dse_config(),
                        unpacked=unpacked)
    )
    untraced = _serial_designs(dse, built, significance, unpacked, SpanRecorder(enabled=False))
    traced = _serial_designs(dse, built, significance, unpacked, recorder)
    pareto_s, front = common.timed(dse.pareto_points)
    aggressive = max(dse.points, key=lambda p: p.conv_mac_reduction).config
    masks = aggressive.build_masks(significance, unpacked=unpacked)
    batch = images
    forward = lambda: qmodel.forward(batch, masks=masks)  # noqa: E731
    layers = common.layer_profile(qmodel, masks, batch, forward, repeats=41, recorder=recorder)
    vm = common.vm_turbo_profile(qmodel, unpacked, masks, batch, forward, repeats=5)
    out = {
        "significance.ms": significance_s * 1e3,
        "dse.build_masks_ms": statistics.median(traced["build_s"]) * 1e3,
        "dse.evaluate_ms": statistics.median(traced["evaluate_s"]) * 1e3,
        "pareto.ms": pareto_s * 1e3,
        "dse.designs": float(len(dse.points)),
        "dse.retained_mac_fraction": statistics.fmean(traced["retained"]),
        "dse.useful_ratio": len(front) / len(dse.points),
        "parallel.speedup": untraced["wall_s"] / sweep_s,
        "parallel.workers": float(default_workers()),
        "deployment.forward_ms": layers["forward_ms"],
        "vm.turbo_forward_ms": vm["turbo_forward_ms"],
        "vm.turbo_vs_kernel": vm["turbo_vs_kernel"],
        "trace.overhead_share": traced["wall_s"] / untraced["wall_s"] - 1.0,
    }
    out.update(common.layer_metrics(layers))
    return out, common.layer_details(layers)
