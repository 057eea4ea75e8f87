"""``http_b1_tiny``: open-loop batch-1 HTTP serving of the tiny CNN.

The server runs in its own process, started the way a user starts it:
``python -m repro.cli serve ... --port 0`` in serve-forever mode, with a
fixed policy at the exact level and three quota-free tenants of mixed
priority.  One load-generator process sends single 32x32x3 images as JSON
``POST /predict`` bodies on Poisson arrivals over at most ``nproc``
concurrent connections.  Each request is timed from its *scheduled* send
time.  The rate ladder runs upwards and stops at the first rate that misses
the latency limit.  A closed-loop phase then measures the capacity: every
connection sends back to back.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import common
from perfbench.stats import (
    Outcomes, RateStep, count_outcomes, due_latencies_ms, highest_passing, lag_ms, percentile,
    release_check, self_time_ms, tail, tenancy_counts, windowed,
)

MODEL = "tiny_cnn"
POOL = 128
#: Fixed rates of the open-loop ladder (requests/second), ascending.  The
#: first is the reference rate the latency metrics are reported at; it gets
#: whatever of ``--seconds`` the higher step and the capacity phase leave.
RATES = (60.0, 150.0)
#: Requests per rate step at least: enough for a supported p99 (ten beyond it).
STEP_REQUESTS = 1000
#: A step passes only if its p99, timed from the due time, is within this.
LATENCY_LIMIT_MS = 100.0
#: A step whose generator ran later than this at its p99 is discarded.
LAG_BOUND_MS = 10.0
#: A client-side backlog beyond this many due-but-unsent requests aborts the step.
MAX_BACKLOG = 100
TENANTS = (
    {"name": "interactive-app", "priority": "interactive"},
    {"name": "standard-app", "priority": "standard"},
    {"name": "batch-app", "priority": "batch"},
)
SETUP_REPEATS = 5
REQUEST_TIMEOUT_S = 10.0
SERVER_START_TIMEOUT_S = 60.0
WARMUP_REQUESTS = 100
#: Closed-loop capacity phase: every connection sends back to back for this
#: long; throughput is the median over windows of this many answers.
CAPACITY_S = 5.0
CAPACITY_WINDOW = 100
#: The reference step's median is the median over windows of this many requests.
P50_WINDOW = 100


# --------------------------------------------------------------------------- server
class ServerProcess:
    """The CLI server in serve-forever mode; stopped with SIGINT like a user would."""

    def __init__(self, workdir, qmodel_stem, seed: int, profile: bool):
        self.log_path = workdir / ("server-profiled.log" if profile else "server.log")
        args = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--qmodel", str(qmodel_stem), "--config", str(workdir / "points.json"),
            "--policy", "fixed", "--tenants", str(workdir / "tenants.json"),
            "--front", "thread", "--host", "127.0.0.1", "--port", "0",
            "--samples", "400", "--seed", str(seed),
        ]
        if profile:
            args += ["--profile-every", "1"]
        env = dict(os.environ, PYTHONPATH=str(common.SRC))
        self._log = self.log_path.open("w")
        self.proc = subprocess.Popen(args, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        self.host, self.port = self._await_url()
        self._await_health()

    def _await_url(self) -> Tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        pattern = re.compile(r"at http://([\d.]+):(\d+) ")
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = pattern.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(f"server did not report its address; see {self.log_path}")

    def _await_health(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as response:
                    if json.loads(response.read()).get("status") == "ok":
                        return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server never became healthy; see {self.log_path}")

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def get(self, path: str) -> Any:
        with urllib.request.urlopen(f"{self.url}{path}", timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        """SIGINT, then wait; kill only if the server ignores it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self._log.close()


class SpanPoller:
    """Collects every span the server records while the body runs.

    The server keeps its spans in a bounded ring (4096 by default), which a
    traced step outgrows; polling ``GET /trace`` twice a second for the last
    ``limit`` spans, several times what arrives in that time, keeps them all.
    """

    def __init__(self, server: ServerProcess, interval_s: float = 0.5, limit: int = 2048):
        self.server, self.interval_s, self.limit = server, interval_s, limit
        self._by_id: Dict[str, Dict[str, Any]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _poll(self) -> None:
        for span in self.server.get(f"/trace?limit={self.limit}")["spans"]:
            self._by_id.setdefault(span["span_id"], span)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._poll()

    def spans(self) -> List[Dict[str, Any]]:
        """Every span collected, oldest first."""
        return sorted(self._by_id.values(), key=lambda span: span["start_s"])

    def __enter__(self) -> "SpanPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._poll()


def _write_inputs(workdir, qmodel) -> None:
    from repro.quant.serialization import save_quantized_model

    workdir.mkdir(parents=True, exist_ok=True)
    save_quantized_model(qmodel, workdir / "tiny_q")
    (workdir / "points.json").write_text(json.dumps(
        {"points": [{"label": "exact", "taus": {}, "accuracy": 1.0}]}))
    (workdir / "tenants.json").write_text(json.dumps(list(TENANTS)))


# --------------------------------------------------------------------------- load generator
def encode_bodies(pool: np.ndarray) -> List[bytes]:
    """Per image, the JSON ``"inputs"`` member; a tenant field is prefixed per request."""
    return [json.dumps(image.tolist()).encode() for image in pool]


def _body(inputs: bytes, tenant: str) -> bytes:
    return b'{"tenant": "' + tenant.encode() + b'", "inputs": ' + inputs + b"}"


def poisson_gaps(rate: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified exponential inter-arrival gaps in a seeded order.

    Every step draws its ``n`` gaps from the exponential distribution's
    quantiles at ``(i + 0.5) / n`` and shuffles them with the seed: the gap
    distribution is exactly that of a Poisson process at ``rate`` on every
    seed, and only their order -- which requests crowd together -- varies.
    This removes the sampling noise of the gap distribution itself from the
    tail latency without fixing the schedule.
    """
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
    return rng.permutation(gaps)


def run_step(host: str, port: int, rate: float, n: int, bodies: List[bytes],
             references: np.ndarray, rng: np.random.Generator, connections: int,
             keep: Optional[List[Dict[str, Any]]] = None) -> RateStep:
    """Send ``n`` Poisson arrivals at ``rate``; time each from its due time.

    The calling thread hands each request out when due (its lateness is
    the generator lag); ``connections`` workers each send whatever is due
    next, one connection per request.  A request that waits for a
    free connection keeps accruing latency, which is the point of timing
    from the schedule.  ``keep`` collects per-request records for the traced
    run.
    """
    offsets = np.cumsum(poisson_gaps(rate, n, rng))
    images = rng.integers(len(bodies), size=n)
    tenants = rng.integers(len(TENANTS), size=n)
    due = [0.0] * n
    dispatched = [0.0] * n
    done: List[Optional[float]] = [None] * n
    kinds: List[Optional[str]] = [None] * n
    work: "queue.Queue[Optional[int]]" = queue.Queue()
    abort = threading.Event()

    def worker() -> None:
        while True:
            k = work.get()
            if k is None:
                return
            if abort.is_set():
                continue  # never sent: not attempted
            kinds[k], sent, done[k], trace_id = _send(
                host, port, bodies[images[k]], int(tenants[k]), references[images[k]])
            if keep is not None and done[k] is not None:
                keep.append({"due": due[k], "sent": sent, "done": done[k], "trace_id": trace_id,
                             "kind": kinds[k], "tenant": int(tenants[k])})

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    start = time.monotonic() + 0.02
    aborted = False
    for k in range(n):
        due[k] = start + float(offsets[k])
        pause = due[k] - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        dispatched[k] = time.monotonic()
        work.put(k)
        if work.qsize() > MAX_BACKLOG:
            aborted = True
            abort.set()
            break
    for _ in threads:
        work.put(None)
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S * 2)
        if thread.is_alive():
            raise RuntimeError("load-generator worker did not finish")
    sent = [k for k in range(n) if kinds[k] is not None]
    handed_out = [k for k in range(n) if dispatched[k]]
    return RateStep(
        rate=rate,
        latencies_ms=due_latencies_ms([due[k] for k in sent], [done[k] for k in sent]),
        lag_ms=lag_ms([due[k] for k in handed_out], [dispatched[k] for k in handed_out]),
        outcomes=count_outcomes(kinds[k] for k in sent),
        aborted=aborted,
    )


def _send(host: str, port: int, inputs: bytes, tenant: int,
          expected: int) -> Tuple[str, float, Optional[float], Optional[str]]:
    """One ``POST /predict`` on a fresh connection, as the repository's HTTPClient does.

    Returns ``(outcome, sent, answered, trace_id)``; ``answered`` is ``None``
    when no response arrived.
    """
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    sent = time.monotonic()
    try:
        conn.request("POST", "/predict", _body(inputs, TENANTS[tenant]["name"]),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = response.read()
        answered = time.monotonic()
    except socket.timeout:
        return "timed_out", sent, None, None
    except (OSError, http.client.HTTPException):
        return "unanswered", sent, None, None
    finally:
        conn.close()
    return (_classify(response.status, payload, expected), sent, answered,
            response.getheader("X-Trace-Id"))


def run_capacity(host: str, port: int, seconds: float, bodies: List[bytes],
                 references: np.ndarray, rng: np.random.Generator,
                 connections: int) -> Dict[str, Any]:
    """Closed loop: each of ``connections`` workers sends back to back for ``seconds``.

    With at most ``connections`` requests in flight, this is the most any
    open loop from this generator can get answered per second.
    """
    plan = [(int(i), int(t)) for i, t in zip(rng.integers(len(bodies), size=100_000),
                                             rng.integers(len(TENANTS), size=100_000))]
    cursor = iter(range(len(plan)))
    lock = threading.Lock()
    deadline = time.monotonic() + seconds
    kinds: List[str] = []
    stamps: List[float] = []
    latencies: List[float] = []

    def worker() -> None:
        while time.monotonic() < deadline:
            with lock:
                image, tenant = plan[next(cursor)]
            kind, sent, answered, _ = _send(host, port, bodies[image], tenant, references[image])
            with lock:
                kinds.append(kind)
                if answered is not None:
                    stamps.append(answered)
                    latencies.append((answered - sent) * 1e3)

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + REQUEST_TIMEOUT_S * 2)
        if thread.is_alive():
            raise RuntimeError("capacity worker did not finish")
    return {"outcomes": count_outcomes(kinds),
            **windowed(stamps, latencies, CAPACITY_WINDOW, q=0.5)}


def _classify(status: int, payload: bytes, expected: int) -> str:
    if status == 200:
        body = json.loads(payload)
        # The exact level is the only level served: its reference is the
        # kernel path without masks.
        right = body.get("levels") == ["L0"] and body.get("classes") == [int(expected)]
        return "ok" if right else "wrong"
    if status == 504:
        return "timed_out"
    return "refused"


# --------------------------------------------------------------------------- workload
def run(seed: int, seconds: float, trace: bool, recorder) -> Dict[str, Any]:
    """Measure the workload; returns metrics, per-layer figures and outcome counts."""
    workdir = common.OUT_DIR / "http_b1_tiny"
    images, _ = common.synthetic_images(common.CALIBRATION_IMAGES + POOL, seed)
    calibration, pool = images[: common.CALIBRATION_IMAGES], images[common.CALIBRATION_IMAGES:]
    parts: Dict[str, List[float]] = {"quantize_s": [], "server_ready_s": []}

    def one_setup(last: bool):
        quantize_s, qmodel = common.timed(
            lambda: common.build_quantized(MODEL, seed, calibration))
        _write_inputs(workdir, qmodel)
        ready_s, server = common.timed(
            lambda: ServerProcess(workdir, workdir / "tiny_q", seed, profile=False))
        parts["quantize_s"].append(quantize_s)
        parts["server_ready_s"].append(ready_s)
        if not last:
            server.stop()
        return qmodel, server

    setup_s, (qmodel, server), setup_samples = common.median_setup(one_setup, SETUP_REPEATS)
    higher_steps_s = sum(STEP_REQUESTS / rate for rate in RATES[1:]) + CAPACITY_S
    reference_requests = max(STEP_REQUESTS, int(RATES[0] * (seconds - higher_steps_s)))
    if trace:
        # The traced run measures the reference rate twice, untraced and
        # traced, within the same time; its figures are medians, not tails.
        reference_requests //= 2
    connections = len(os.sched_getaffinity(0))
    try:
        references = qmodel.forward(pool).argmax(axis=-1)
        bodies = encode_bodies(pool)
        rng = np.random.default_rng(seed)
        run_step(server.host, server.port, RATES[0], WARMUP_REQUESTS, bodies, references, rng,
                 connections)
        steps: List[RateStep] = []
        for rate in RATES:
            n = reference_requests if rate == RATES[0] else STEP_REQUESTS
            step = run_step(server.host, server.port, rate, n, bodies, references, rng,
                            connections)
            steps.append(step)
            if step.verdict(LATENCY_LIMIT_MS, LAG_BOUND_MS) != "pass" or trace:
                break
        capacity = run_capacity(server.host, server.port, CAPACITY_S, bodies, references, rng,
                                connections)
        peak_rss = common.peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    if trace:
        traced, layer_details, traced_outcomes = _traced(
            qmodel, calibration, pool, bodies, references, rng, connections, workdir, seed,
            recorder, reference_requests, statistics.median(steps[0].latencies_ms))
    reference = steps[0]
    best = highest_passing(steps, LATENCY_LIMIT_MS, LAG_BOUND_MS)
    latency = tail(reference.latencies_ms)
    # The median over windows of consecutive requests resists a burst of
    # interference on a shared host; the p99 needs the whole step.
    windowed_p50 = statistics.median(
        statistics.median(reference.latencies_ms[i:i + P50_WINDOW])
        for i in range(0, len(reference.latencies_ms) - P50_WINDOW + 1, P50_WINDOW))
    outcomes = capacity["outcomes"]
    for step in steps:
        outcomes = outcomes.add(step.outcomes)
    if trace:
        outcomes = outcomes.add(traced_outcomes)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": windowed_p50,
        "latency_p99_ms": latency["tail"],
        "throughput_per_s": capacity["throughput_per_s"],
        "peak_rss_mb": peak_rss,
    }
    details = {
        "unit_of_work": "one batch-1 request, timed from its scheduled send time",
        "throughput": f"closed loop, {connections} connections back to back for "
                      f"{CAPACITY_S:g} s: median answers/s over windows of {CAPACITY_WINDOW}",
        "capacity_windows": capacity["windows"],
        "highest_passing_rate": best.rate if best is not None else None,
        "latency_at_rate": RATES[0], "latency_limit_ms": LATENCY_LIMIT_MS,
        "latency_statistic": f"p50: median over windows of {P50_WINDOW} requests in "
                             "schedule order; p99: the whole reference step",
        "lag_bound_ms": LAG_BOUND_MS, "connections": connections,
        "latency_basis": latency["basis"], "latency_samples": latency["n"],
        "steps": [
            {"rate": s.rate, "verdict": s.verdict(LATENCY_LIMIT_MS, LAG_BOUND_MS),
             "answered": len(s.latencies_ms), "attempted": s.outcomes.attempted,
             "p50_ms": statistics.median(s.latencies_ms) if s.latencies_ms else None,
             "p99_ms": percentile(s.latencies_ms, 0.99) if s.latencies_ms else None,
             "lag_p99_ms": percentile(s.lag_ms, 0.99) if s.lag_ms else None}
            for s in steps
        ],
        "setup_samples_s": setup_samples,
    }
    per_layer: Dict[str, float] = {
        "setup.quantize_s": statistics.median(parts["quantize_s"]),
        "setup.server_ready_s": statistics.median(parts["server_ready_s"]),
        "loadgen.lag_p99_ms": percentile(reference.lag_ms, 0.99),
        "error_rate": outcomes.error_rate,
    }
    if trace:
        per_layer.update(traced)
        details["layers"] = layer_details
    return {"metrics": metrics, "per_layer": per_layer, "outcomes": outcomes, "details": details}


def _traced(qmodel, calibration, pool, bodies, references, rng, connections, workdir, seed,
            recorder, n_requests: int,
            untraced_p50_ms: float) -> Tuple[Dict[str, float], Dict[str, Any], Outcomes]:
    """Per-layer figures: a profiled server, its spans and the client's own spans.

    The reference step runs again against a server started with
    ``--profile-every 1``; every server span is collected from ``GET /trace``
    while it runs, and each answered request's spans are hung under the
    client's span for that request by its ``X-Trace-Id``.  Client and server
    share the system's monotonic clock, so what the server spans do not
    cover is the client's self time: connection set-up, the wire both ways,
    and the server's HTTP handling and JSON decode before its ``parse`` span
    starts.  The step's outcomes come back too, charged with any admitted
    request the server's tenant table did not release.
    """
    from repro.serving import Deployment

    server = ServerProcess(workdir, workdir / "tiny_q", seed, profile=True)
    keep: List[Dict[str, Any]] = []
    try:
        with SpanPoller(server) as poller:
            step = run_step(server.host, server.port, RATES[0], n_requests, bodies, references,
                            rng, connections, keep=keep)
        spans = poller.spans()
        snapshot = server.get("/metrics")
    finally:
        server.stop()
    collected = sum(span["name"] == "batch-execute" for span in spans)
    if collected != snapshot["batches"]:
        raise RuntimeError(f"collected {collected} of the server's {snapshot['batches']} "
                           "batches: spans were evicted between polls")
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    server_names = {"parse": "server.parse", "queue-wait": "scheduler.queue_wait",
                    "execute": "scheduler.execute", "respond": "server.respond"}
    durations: Dict[str, List[float]] = {name: [] for name in server_names.values()}
    e2e: List[float] = []
    unattributed: List[float] = []
    for record in keep:
        children = [s for s in by_trace.get(record["trace_id"], []) if s["name"] in server_names]
        if len(children) != len(server_names):
            continue  # not answered
        parent = recorder.record("client.request", record["sent"], record["done"],
                                 record["trace_id"], due=record["due"])
        for span in children:
            name = server_names[span["name"]]
            recorder.record(name, span["start_s"], span["end_s"], record["trace_id"],
                            parent=parent)
            durations[name].append(span["duration_ms"])
        e2e.append((record["done"] - record["sent"]) * 1e3)
        unattributed.append(self_time_ms(
            {"start": record["sent"], "end": record["done"]},
            [{"start": s["start_s"], "end": s["end_s"]} for s in children]))
    if not e2e:
        raise RuntimeError("no request could be matched to its server spans")

    admitted = step.outcomes.attempted - step.outcomes.refused
    tenancy = tenancy_counts(snapshot.get("per_tenant", {}), snapshot.get("requests_failed", 0))

    encode_s = [common.timed(lambda image=image: json.dumps(image.tolist()).encode())[0]
                for image in pool[:64]]
    _, significance = common.analyse(qmodel, calibration)
    deployment = Deployment.from_points(
        qmodel, [{"label": "exact", "taus": {}, "accuracy": 1.0}], significance)
    batch = pool[:1]
    forward = lambda: deployment.forward(batch, level=0)  # noqa: E731
    layers = common.layer_profile(qmodel, None, batch, forward, repeats=300, recorder=recorder)
    vm = common.vm_turbo_profile(qmodel, None, None, batch, forward, repeats=300)
    traced_p50 = statistics.median(step.latencies_ms)
    out = {
        "client.e2e_ms": statistics.median(e2e),
        "client.unattributed_ms": statistics.median(unattributed),
        "client.encode_ms": statistics.median(encode_s) * 1e3,
        **{f"{name}_ms": statistics.median(values) for name, values in durations.items()},
        "scheduler.policy_ms": snapshot.get("profile", {}).get("policy", {}).get("mean_ms", 0.0),
        "scheduler.batch_size_mean": float(snapshot["mean_batch_size"]),
        "scheduler.batches": float(snapshot["batches"]),
        "metrics.snapshot_ms": _snapshot_ms(spans, keep),
        "tenancy.admitted": float(admitted),
        "tenancy.released": float(tenancy["released"]),
        "tenancy.rejected": float(tenancy["rejected"]),
        "deployment.forward_ms": layers["forward_ms"],
        "deployment.level_bytes": float(common.level_bytes(deployment.levels[0], qmodel)),
        "vm.turbo_forward_ms": vm["turbo_forward_ms"],
        "vm.turbo_vs_kernel": vm["turbo_vs_kernel"],
        "trace.overhead_share": traced_p50 / untraced_p50_ms - 1.0,
    }
    out.update(common.layer_metrics(layers))
    outcomes = step.outcomes.add(release_check(admitted, tenancy["released"]))
    return out, common.layer_details(layers), outcomes


def replay_batches(spans: List[Dict[str, Any]], records: List[Dict[str, Any]]):
    """A fresh ``ServerMetrics`` holding the server's batches, as the server recorded them.

    The server is another process, so its batches are replayed into a sink
    configured with the same tenants: one ``record_batch`` per
    ``batch-execute`` span, on a clock that reads that batch's end, with its
    members' priorities (from their ``queue-wait`` spans), tenants (from the
    client's records) and latencies from enqueue to batch end.  The clock is
    left at the last batch's end.
    """
    from repro.serving import ServerMetrics

    tenant_of = {r["trace_id"]: TENANTS[r["tenant"]]["name"] for r in records}
    waits = {s["trace_id"]: s for s in spans if s["name"] == "queue-wait"}
    batches = sorted((s for s in spans if s["name"] == "batch-execute"), key=lambda s: s["end_s"])
    now = [min(s["start_s"] for s in spans)]
    metrics = ServerMetrics(time_fn=lambda: now[0])
    metrics.configure_tenants({t["name"]: {"slo_ms": None, "weight": 1.0} for t in TENANTS})
    for batch in batches:
        now[0] = batch["end_s"]
        members = batch["attrs"]["member_trace_ids"]
        metrics.record_batch(
            batch["attrs"]["level"], len(members),
            [(batch["end_s"] - waits[m]["start_s"]) * 1e3 for m in members],
            priorities=[waits[m]["attrs"]["priority"] for m in members],
            tenants=[tenant_of[m] for m in members],
            model=batch["attrs"]["model"],
        )
    return metrics


def _snapshot_ms(spans: List[Dict[str, Any]], records: List[Dict[str, Any]]) -> float:
    """Median ``ServerMetrics.snapshot()`` time over the windows the traced step filled."""
    metrics = replay_batches(spans, records)
    samples = [common.timed(metrics.snapshot)[0] for _ in range(200)]
    return statistics.median(samples) * 1e3
