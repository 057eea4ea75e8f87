"""The repository's benchmark: one command, three workloads, every answer checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload http_b1_tiny --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's spans
off; ``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance (git sha, source digest, nproc, BLAS and its thread
count, DSE worker count, Python and NumPy versions, seed) and the
workload's details.  The full record and the span list are also written
under ``.perfbench_out/``.  The exit code is non-zero when any answer is
wrong or a request failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Workload name -> module under ``perfbench``.
WORKLOADS = {
    "http_b1_tiny": "wl_http",
    "batch_alexnet_approx": "wl_batch",
    "dse_lenet": "wl_dse",
}

#: OpenBLAS threads per workload, set before NumPy loads (the HTTP server
#: process inherits it).  The serving workloads run on one: with two on a
#: two-core host, each GEMM waits for whichever core the client or another
#: process holds, and idle BLAS threads spin on the cores the client and the
#: server's Python threads need; throughput and tail latency then swung by
#: a quarter between runs minutes apart.  The DSE keeps the default.
BLAS_THREADS = {"http_b1_tiny": 1, "batch_alexnet_approx": 1}

#: End-to-end metrics printed by ``--trace 0`` (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics printed by ``--trace 1`` (name -> unit).  A layer a
#: workload does not exercise reads 0 there.
PER_LAYER = {
    "client.e2e_ms": "ms",
    "client.unattributed_ms": "ms",
    "client.encode_ms": "ms",
    "server.parse_ms": "ms",
    "server.respond_ms": "ms",
    "scheduler.queue_wait_ms": "ms",
    "scheduler.execute_ms": "ms",
    "scheduler.policy_ms": "ms",
    "scheduler.batch_size_mean": "count",
    "scheduler.batches": "count",
    "metrics.snapshot_ms": "ms",
    "tenancy.admitted": "count",
    "tenancy.released": "count",
    "tenancy.rejected": "count",
    "deployment.forward_ms": "ms",
    "deployment.level_bytes": "B",
    **{
        f"layer.{kind}.{key}": unit
        for kind in ("conv", "fc", "pool", "other")
        for key, unit in (("ms", "ms"), ("macs", "count"), ("gmacs", "GMAC/s"), ("bytes", "B"))
    },
    "layer.sum_ms": "ms",
    "layer.unattributed_ms": "ms",
    "layer.unattributed_share": "fraction",
    "vm.turbo_forward_ms": "ms",
    "vm.turbo_vs_kernel": "ratio",
    "significance.ms": "ms",
    "dse.build_masks_ms": "ms",
    "dse.evaluate_ms": "ms",
    "pareto.ms": "ms",
    "dse.designs": "count",
    "dse.retained_mac_fraction": "fraction",
    "dse.useful_ratio": "fraction",
    "parallel.speedup": "ratio",
    "parallel.workers": "count",
    "setup.quantize_s": "s",
    "setup.deployment_s": "s",
    "setup.server_ready_s": "s",
    "loadgen.lag_p99_ms": "ms",
    "error_rate": "fraction",
    "trace.overhead_share": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of the run (set-up excluded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # A terminated run still unwinds, so the server process it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload in BLAS_THREADS:
        os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS[args.workload])
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import common
    from perfbench.tracing import SpanRecorder

    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    recorder = SpanRecorder(enabled=bool(args.trace))
    result = workload.run(args.seed, args.seconds, bool(args.trace), recorder)
    outcomes = result["outcomes"]
    layers = result["details"].get("layers")
    if layers is not None and not layers["reconciles_within_5pct"]:
        print(f"warning: the per-layer times sum to {layers['sum_ms']:.4f} ms against a "
              f"{layers['forward_ms']:.4f} ms forward: more than 5% apart", file=sys.stderr)
    if args.trace:
        values = {name: float(result["per_layer"].get(name, 0.0)) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {name: float(result["metrics"][name]) for name in END_TO_END}
        units = END_TO_END
    record = {
        "provenance": common.provenance(args.workload, args.seed, bool(args.trace)),
        "details": result["details"],
        "outcomes": vars(outcomes) | {"failed": outcomes.failed,
                                      "error_rate": outcomes.error_rate},
        "not_exercised": sorted(set(PER_LAYER) - set(result["per_layer"])) if args.trace else [],
        "end_to_end": result["metrics"],
        "per_layer": result["per_layer"],
        "self_time_ms_by_span": recorder.self_times_ms(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.OUT_DIR.mkdir(parents=True, exist_ok=True)
    (common.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    if args.trace:
        recorder.write_jsonl(common.OUT_DIR / f"{stem}.spans.jsonl")
    print(json.dumps({k: record[k] for k in ("provenance", "details", "outcomes")}, default=str))
    correct = outcomes.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcomes.attempted),
        "failed": int(outcomes.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
