"""Command-line interface to the reproduction toolkit.

Usage (also installed as the ``repro-tinyml`` console script)::

    python -m repro.cli train     --model lenet --out runs/lenet --samples 3000 --epochs 5
    python -m repro.cli quantize  --model-path runs/lenet --out runs/lenet_q
    python -m repro.cli explore   --qmodel runs/lenet_q --out runs/lenet_dse.json --loss 0.05 \
                                  --strategy exhaustive --resume runs/cache
    python -m repro.cli codegen   --qmodel runs/lenet_q --config runs/lenet_dse.config.json --out runs/lenet.c
    python -m repro.cli verify-codegen --qmodel runs/lenet_q --taus 0.0,0.01,0.05
    python -m repro.cli deploy    --qmodel runs/lenet_q --config runs/lenet_dse.config.json --engine ataman
    python -m repro.cli serve     --qmodel runs/lenet_q --config runs/lenet_dse.json --policy queue-depth
    python -m repro.cli reproduce --table1 --table2 --figure2 --claims

The ``--strategy``, ``--engine``, ``--board`` and ``--policy`` choices are
populated from the plugin registries (:mod:`repro.registry`), so registered
extensions show up automatically.  ``--resume DIR`` points the
explore/codegen/deploy/serve commands at a persistent artifact store: stages
whose configuration and inputs are unchanged are served from the cache
instead of recomputed.

Every command works entirely offline: the dataset is the deterministic
synthetic CIFAR-10 surrogate, regenerated from its seed on demand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.core import ApproxConfig, DSEConfig
from repro.data import load_synthetic_cifar10, train_val_test_split
from repro.evaluation.reports import format_table
from repro.isa import get_board
from repro.mcu import deploy as mcu_deploy
from repro.models import build_model, list_models
from repro.nn import Adam, Trainer, load_model, save_model
from repro.quant import load_quantized_model, quantize_model, save_quantized_model
from repro.registry import BOARDS, ENGINES, POLICIES, SEARCH_STRATEGIES
from repro.utils.logging import configure_cli_verbosity
from repro.utils.serialization import load_json, save_json
from repro.workflow import (
    ArtifactStore,
    CalibrateStage,
    CascadeStage,
    CodegenStage,
    DSEStage,
    Experiment,
    ServeStage,
    SignificanceStage,
    UnpackStage,
    VerifyStage,
)


def _dataset_split(samples: int, seed: int, calibration: int = 128):
    dataset = load_synthetic_cifar10(samples, seed=seed)
    return train_val_test_split(dataset, val_fraction=0.0, test_fraction=0.2,
                                calibration_size=calibration, rng=seed)


def _store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    """The persistent artifact store behind ``--resume`` (None when unset)."""
    resume = getattr(args, "resume", None)
    return ArtifactStore(resume) if resume else None


def _report_cache(result) -> None:
    if result.cached_stages:
        print(f"served from artifact store: {', '.join(result.cached_stages)}")


# --------------------------------------------------------------------------- commands
def cmd_train(args: argparse.Namespace) -> int:
    """Train a model on the synthetic dataset and save it."""
    split = _dataset_split(args.samples, args.seed)
    model = build_model(args.model, input_shape=split.train.image_shape,
                        n_classes=split.n_classes, rng=args.seed)
    trainer = Trainer(model, Adam(model.parameters(), lr=args.lr), rng=args.seed + 1)
    history = trainer.fit(split.train.images, split.train.labels, epochs=args.epochs,
                          batch_size=args.batch_size,
                          x_val=split.test.images[:256], y_val=split.test.labels[:256])
    path = save_model(model, args.out)
    final_acc = history.val_accuracy[-1] if history.val_accuracy else float("nan")
    print(f"trained {args.model}: val accuracy {final_acc:.3f}; saved to {path}")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    """Quantize a saved float model with a calibration subset."""
    model = load_model(args.model_path)
    split = _dataset_split(args.samples, args.seed, calibration=args.calibration)
    qmodel = quantize_model(model, split.calibration.images)
    accuracy = qmodel.evaluate_accuracy(split.test.images[:256], split.test.labels[:256])
    path = save_quantized_model(qmodel, args.out)
    print(f"quantized model accuracy {accuracy:.3f}; saved to {path}")
    print(qmodel.summary())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Run the ATAMAN experiment (unpack/calibrate/significance/DSE) on a quantized model."""
    qmodel = load_quantized_model(args.qmodel)
    split = _dataset_split(args.samples, args.seed)
    board = get_board(args.board)
    taus = [float(t) for t in args.taus.split(",")] if args.taus else None
    strategy_options = {}
    if args.strategy == "greedy":
        strategy_options["max_accuracy_loss"] = args.loss
    dse_config = DSEConfig(
        tau_values=taus,
        tau_step=args.tau_step,
        tau_max=args.tau_max,
        max_eval_samples=args.eval_samples,
        strategy=args.strategy,
        strategy_options=strategy_options,
    )
    experiment = Experiment.from_quantized(
        qmodel,
        split.calibration.images,
        split.test.images,
        split.test.labels,
        board=board,
        dse_config=dse_config,
        store=_store(args),
    )
    result = experiment.run()
    _report_cache(result)

    rows = [p.as_dict() for p in result.dse.pareto_points()]
    print(format_table(rows, columns=["label", "accuracy", "conv_mac_reduction", "total_macs"],
                       title="Pareto-optimal designs"))
    out = Path(args.out)
    save_json(out, {"baseline_accuracy": result.baseline_accuracy, "points": result.dse.as_table()})
    design = result.select(args.loss)
    if design is None:
        print(f"no design satisfies an accuracy-loss budget of {args.loss}")
        return 1
    config_path = out.with_suffix(".config.json")
    design.config.save(config_path)
    print(f"selected design within {args.loss:.0%} loss: {design.config.taus()}")
    print(f"DSE table written to {out}; selected config written to {config_path}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    """Emit the unpacked (approximate) kernel code for a saved configuration."""
    qmodel = load_quantized_model(args.qmodel)
    split = _dataset_split(args.samples, args.seed)
    approx_config = ApproxConfig.load(args.config) if args.config else None
    experiment = Experiment(
        [
            UnpackStage(),
            CalibrateStage(),
            SignificanceStage(),
            CodegenStage(approx_config=approx_config),
        ],
        inputs={"qmodel": qmodel, "calibration_images": split.calibration.images},
        store=_store(args),
    )
    result = experiment.run()
    _report_cache(result)
    code = result["code"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(code, encoding="utf-8")
    print(f"wrote {len(code.splitlines())} lines of generated kernel code to {args.out}")
    return 0


def _print_lowered_coverage(design) -> None:
    """One-line whole-graph lowering coverage summary of a verified design."""
    if design.fully_lowered:
        print(
            f"lowered coverage: 100% ({design.lowered_layers}/{design.total_layers} "
            "layers, no analytic fallback)"
        )
    else:
        unlowered = design.calibration.unlowered_layers
        print(
            f"lowered coverage: {design.lowered_layers}/{design.total_layers} layers "
            f"(library-kernel fallback: {', '.join(unlowered) or 'unknown'})"
        )


def _calibrate_cost_model(qmodel, unpacked, base, masks=None) -> bool:
    """Apply trace-derived ``UNPACKED`` overrides; print the before/after table.

    ``base`` is the pre-override :class:`~repro.vm.verify.CalibrationReport`
    whose traced/analytic ratios drive the overrides (``masks`` is the design
    it was computed on).  The overrides stay active in this process (the
    point of ``--calibrate-cost-model``: every analytic estimate printed
    afterwards uses the calibrated parameters).  Returns whether the
    post-override ratio landed within the +-5% band.
    """
    from repro.isa.cost_model import ExecutionStyle, apply_cost_calibration
    from repro.vm import calibrate_cycle_model, lower_model

    overrides = base.suggested_cost_overrides()
    apply_cost_calibration(base, ExecutionStyle.UNPACKED)
    program = lower_model(qmodel, unpacked=unpacked, masks=masks)
    after = calibrate_cycle_model(qmodel, program, masks=masks, label=base.label)
    after_by_layer = {layer.name: layer for layer in after.layers}
    rows = []
    for layer in base.layers:
        recalibrated = after_by_layer.get(layer.name)
        rows.append(
            {
                "layer": layer.name,
                "class": layer.op_class,
                "traced_kcycles": f"{layer.traced_cycles / 1e3:.1f}",
                "ratio before": f"{layer.ratio:.3f}",
                "ratio after": f"{recalibrated.ratio:.3f}" if recalibrated else "-",
            }
        )
    print(format_table(rows, title="cost-model calibration (traced/analytic per layer)"))
    print(
        "applied UNPACKED overrides: "
        + ", ".join(f"{name}={value:.3f}" for name, value in sorted(overrides.items()))
    )
    within = abs(after.ratio - 1.0) <= 0.05
    print(
        f"overall traced/analytic ratio: {base.ratio:.3f} -> {after.ratio:.3f} "
        f"({'within' if within else 'OUTSIDE'} +-5%)"
    )
    return within


def cmd_verify_codegen(args: argparse.Namespace) -> int:
    """Differentially verify the generated code through the ISA virtual machine."""
    qmodel = load_quantized_model(args.qmodel)
    split = _dataset_split(args.samples, args.seed)
    taus = [float(t) for t in args.taus.split(",")] if args.taus else [0.01, 0.05]
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    if not modes:
        print("error: --modes must name at least one VM execution mode", file=sys.stderr)
        return 2
    experiment = Experiment(
        [
            UnpackStage(),
            CalibrateStage(),
            SignificanceStage(),
            VerifyStage(taus=taus, n_samples=args.n_verify, modes=modes),
        ],
        inputs={
            "qmodel": qmodel,
            "calibration_images": split.calibration.images,
            "eval_images": split.test.images,
        },
        store=_store(args),
    )
    result = experiment.run()
    _report_cache(result)
    report = result["verification"]
    print(format_table(
        report.summary_rows(),
        title=f"differential verification of {qmodel.name} "
              f"({len(report.designs)} designs x {len(modes)} VM modes)",
    ))
    exact = next((d for d in report.designs if not d.taus), report.designs[0])
    _print_lowered_coverage(exact)
    if args.calibrate_cost_model:
        _calibrate_cost_model(qmodel, result["unpacked"], exact.calibration)
    if report.all_match:
        print(f"all designs bit-identical to the kernel path on {args.n_verify} samples")
        return 0
    print("MISMATCH: the generated code diverges from the kernel path")
    return 1


def cmd_deploy(args: argparse.Namespace) -> int:
    """Deploy a quantized model with a chosen engine on a board model."""
    qmodel = load_quantized_model(args.qmodel)
    split = _dataset_split(args.samples, args.seed)
    board = get_board(args.board)
    engine_cls = ENGINES.resolve(args.engine)

    if getattr(engine_cls, "supports_approx", False):
        experiment = Experiment(
            [UnpackStage(), CalibrateStage(), SignificanceStage()],
            inputs={"qmodel": qmodel, "calibration_images": split.calibration.images},
            store=_store(args),
        )
        result = experiment.run()
        _report_cache(result)
        config = ApproxConfig.load(args.config) if args.config else ApproxConfig.exact(qmodel.name)
        if args.calibrate_cost_model:
            # Calibrate the analytic UNPACKED model against the VM trace of
            # the deployed design before the engine estimates anything: the
            # overrides stay active, so the deployment table below reports
            # trace-calibrated cycles/latency.
            from repro.vm import calibrate_cycle_model, lower_model

            masks = (
                None
                if config.is_exact
                else config.build_masks(result["significance"], unpacked=result["unpacked"])
            )
            program = lower_model(qmodel, unpacked=result["unpacked"], masks=masks)
            base = calibrate_cycle_model(
                qmodel, program, masks=masks, label=config.label or "deploy"
            )
            _calibrate_cost_model(qmodel, result["unpacked"], base, masks=masks)
        engine = engine_cls(qmodel, config=config, significance=result["significance"],
                            unpacked=result["unpacked"])
    else:
        if args.calibrate_cost_model:
            print(
                f"error: --calibrate-cost-model needs an unpacked-style engine "
                f"(got {args.engine!r}, which has no VM-lowerable design)",
                file=sys.stderr,
            )
            return 2
        engine = engine_cls(qmodel)

    report = mcu_deploy(engine, board, split.test.images[:args.eval_samples],
                        split.test.labels[:args.eval_samples], model_name=qmodel.name)
    print(format_table([report.as_dict()],
                       columns=["engine", "model", "top1_accuracy", "latency_ms", "flash_kb",
                                "ram_kb", "mac_ops", "energy_mj", "fits"],
                       title=f"deployment on {board.name}"))
    return 0 if report.fits else 1


def _smoke_load_ramp(server_url: str, images: np.ndarray, n_requests: int,
                     priority: str = "standard"):
    """Drive a trickle -> burst -> trickle load ramp through an HTTP front.

    The trickle phases keep the queue near-empty (the policy should serve the
    accurate end of the Pareto front); the concurrent burst spikes the queue
    depth so an adaptive policy escalates to an aggressive skip configuration
    -- the switches show up in the metrics summary.  ``priority`` tags every
    request with one class, or cycles through all three with ``"mixed"``.

    Returns ``{priority: (answered, issued)}`` over the classes exercised.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serving import PRIORITIES, HTTPClient

    import threading

    client = HTTPClient(server_url, timeout_s=120.0)
    cycle = list(PRIORITIES) if priority == "mixed" else [priority]
    counts = {name: [0, 0] for name in cycle}  # answered, issued
    counts_lock = threading.Lock()  # burst workers update concurrently

    def call(i: int) -> None:
        name = cycle[i % len(cycle)]
        with counts_lock:
            counts[name][1] += 1
        body = client.predict(images[i % len(images)], priority=name)
        with counts_lock:
            counts[name][0] += len(body["classes"])

    # Two trickle phases bracket the burst; small -N runs shrink the phases
    # so exactly n_requests are issued.
    trickle = min(max(4, n_requests // 10), n_requests // 3)
    burst = n_requests - 2 * trickle
    index = 0
    for _ in range(trickle):
        call(index)
        index += 1
    # The burst runs through a client thread pool: tens of simultaneous
    # HTTP connections, enough to spike the queue so an adaptive policy
    # can escalate.
    with ThreadPoolExecutor(max_workers=max(burst, 1)) as pool:
        for _ in pool.map(call, range(index, index + burst)):
            pass
    index += burst
    for _ in range(trickle):
        call(index)
        index += 1
    return {name: tuple(pair) for name, pair in counts.items()}


def _fleet_smoke(args: argparse.Namespace, fleet, split) -> int:
    """Drive the load ramp through the router and audit the federation.

    Prints the greppable fleet summary: per-replica completion counts, one
    exposition sample per ``replica=`` label, the federated sum check (the
    fleet series must equal the sum of the per-replica series, verified
    through the exposition parser), the traced router->replica hop and the
    health verdict.
    """
    from repro.obs.exposition import parse_prometheus, sum_samples
    from repro.serving import HTTPClient

    counts = _smoke_load_ramp(fleet.url, split.test.images, args.smoke, priority=args.priority)
    client = HTTPClient(fleet.url, timeout_s=120.0)
    # One extra traced round trip: its X-Trace-Id must surface the router's
    # route span AND the replica's pipeline stages in the merged /trace.
    _, response_headers = client.predict_with_headers(split.test.images[0])
    trace_id = response_headers.get("X-Trace-Id", "")
    spans = client.trace(trace_id)
    span_names = sorted({span["name"] for span in spans})
    span_sources = sorted({span["replica"] for span in spans})
    fed_text = client.metrics(format="prometheus")
    rollup = client.metrics()
    health = client.health_detail() or {}

    fleet_completed = sum_samples(parse_prometheus(fed_text), "repro_requests_completed_total")
    replica_completed = 0.0
    for replica in fleet.replicas:
        text = HTTPClient(replica.url, timeout_s=30.0).metrics(format="prometheus")
        replica_completed += sum_samples(
            parse_prometheus(text), "repro_requests_completed_total"
        )
        sample_line = next(
            (line for line in text.splitlines()
             if line.startswith("repro_requests_completed_total{")),
            "(no completions)",
        )
        print(f'exposition replica="{replica.name}": {sample_line}')

    answered = sum(done for done, _ in counts.values())
    fleet_stats = rollup.get("fleet", {})
    for name, (done, issued) in counts.items():
        stats = fleet_stats.get("per_priority", {}).get(name, {})
        print(f"priority {name}: answered {done}/{issued}   shed {stats.get('shed', 0)}")
    print(f"answered: {answered}/{args.smoke}")
    for name, snapshot in sorted(rollup.get("replicas", {}).items()):
        print(f"replica {name}: completed {snapshot.get('requests_completed', 0)}   "
              f"batches {snapshot.get('batches', 0)}")
    sums_ok = fleet_completed == replica_completed and fleet_completed > 0
    verdict = "ok" if sums_ok else "MISMATCH"
    print(f"federated sum check: {verdict} "
          f"(fleet {fleet_completed:g} == replicas {replica_completed:g})")
    print(f"X-Trace-Id: {trace_id}")
    print(f"fleet trace: {len(spans)} spans   stages {','.join(span_names)}   "
          f"sources {','.join(span_sources)}")
    print(f"healthz: {health.get('status', 'unreachable')} "
          f"({health.get('replicas_up', 0)}/{health.get('replicas_total', 0)} replicas up)")
    trace_ok = {"route", "queue-wait", "execute"} <= set(span_names)
    return 0 if (answered == args.smoke and sums_ok and trace_ok) else 1


def _serve_fleet(args: argparse.Namespace, deployment, split, qmodel,
                 cascade_calibration=None, tenant_table=None) -> int:
    """Serve through a router + N independent replica server processes."""
    import json as _json
    import time as _time

    from repro.serving.fleet import Fleet, ReplicaConfig

    policy_options = {}
    if args.depth_per_level is not None:
        if args.policy != "queue-depth":
            raise SystemExit(
                f"--depth-per-level only applies to --policy queue-depth (got {args.policy!r})"
            )
        if args.extra_models:
            raise SystemExit(
                "serve: --depth-per-level builds one shared policy instance per replica "
                "and cannot be combined with --model in fleet mode"
            )
        policy_options["depth_per_level"] = args.depth_per_level
    if args.policy == "cascade":
        # The calibration artifact is plain dataclasses: it pickles into
        # each replica process along with the rest of the config.
        policy_options["calibration"] = cascade_calibration
    config = ReplicaConfig(
        policy=args.policy,
        policy_options=policy_options,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        profile_every=args.profile_every,
        host=args.host,
        tenants=tenant_table.as_dicts() if tenant_table is not None else None,
    )
    fleet = Fleet(
        deployment,
        n_replicas=args.replicas,
        config=config,
        host=args.host,
        port=0 if args.smoke is not None else args.port,
        health_interval_s=0.5,
    )
    fleet.start()
    print(f"fleet: router + {args.replicas} replicas at {fleet.url}")
    try:
        if args.smoke is not None:
            return _fleet_smoke(args, fleet, split)
        print(
            f"serving {qmodel.name} across the fleet "
            "(POST /predict, GET /metrics, /trace, /events, /healthz, /replicas); "
            "Ctrl-C to stop"
        )
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            print("\nshutting down (draining)")
        return 0
    finally:
        if args.trace_export and fleet.router is not None:
            spans = fleet.router.merged_trace(limit=0)
            with open(args.trace_export, "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(_json.dumps(span) + "\n")
            print(f"trace export: {len(spans)} merged spans -> {args.trace_export}")
        fleet.stop()


def _print_cascade_smoke(snapshot, calibration) -> bool:
    """Print the cascade smoke summary; True when the operating point held.

    The greppable verdict line checks the three cascade claims at once: the
    live escalation rate stayed under 50%, the cycles saved against an
    exact-only deployment exceed 25%, and the calibrated operating point
    kept the held-out blended accuracy within the configured budget.
    """
    if calibration is None or calibration.chosen is None:
        print("cascade check: DEGRADED (no cheap level within the accuracy budget)")
        return False
    cascade = snapshot.cascade
    if cascade is None or not cascade["completed"]:
        print("cascade check: DEGRADED (no cascade traffic recorded)")
        return False
    point = calibration.chosen_point
    escalation_pct = 100 * cascade["escalation_rate"]
    saved_pct = 100 * cascade["cycles_saved_frac"]
    print(f"cascade: {cascade['cheap_level']} first, escalate to "
          f"{cascade['exact_level']} below margin {cascade['threshold']:.3f}")
    print(f"escalation rate: {escalation_pct:.1f}% "
          f"({cascade['escalations']}/{cascade['completed']} requests; "
          f"{cascade['suppressed']} kept cheap near their deadline)")
    print(f"cascade cycles saved vs exact-only: {saved_pct:.1f}% "
          f"({cascade['cycles_saved']:,.0f} cycles)")
    proxy = cascade.get("blended_accuracy_proxy")
    if proxy is not None:
        print(f"blended accuracy proxy: {proxy:.3f} "
              f"(held-out blended {point.blended_accuracy:.3f}, "
              f"exact {calibration.exact_accuracy:.3f}, "
              f"budget {calibration.accuracy_budget:g})")
    within_budget = point.within_budget
    ok = cascade["escalation_rate"] < 0.5 and cascade["cycles_saved_frac"] > 0.25 and within_budget
    print(f"cascade check: {'ok' if ok else 'DEGRADED'} "
          f"(escalation {escalation_pct:.1f}% < 50%, cycles saved {saved_pct:.1f}% > 25%, "
          f"held-out blended accuracy within budget: {'yes' if within_budget else 'NO'})")
    return ok


def _extra_deployments(args: argparse.Namespace, split, board) -> list:
    """Build one extra servable deployment per ``--model`` registry name.

    Each extra model is built untrained from the run's seed, quantized on
    the calibration split, swept with a reduced inline DSE and turned into
    service levels -- the same stage graph (and artifact cache behind
    ``--resume``) the primary deployment uses, so repeated smokes hit the
    store.  Any registry name works (``alexnet`` included); unknown names
    fail fast with the available list.
    """
    if not args.extra_models:
        return []
    deployments = []
    seen = set()
    for name in args.extra_models:
        if name not in list_models():
            raise SystemExit(
                f"serve: unknown --model {name!r}; available models: {', '.join(list_models())}"
            )
        if name in seen:
            raise SystemExit(f"serve: --model {name!r} given twice")
        seen.add(name)
        try:
            model = build_model(name, input_shape=split.train.image_shape,
                                n_classes=split.n_classes, rng=args.seed)
        except TypeError as exc:
            # Registry entries that do not take image inputs (e.g. the MLP
            # used by optimizer unit tests) cannot serve this dataset.
            raise SystemExit(
                f"serve: --model {name!r} cannot be built for "
                f"{split.train.image_shape} images ({exc}); image models: "
                + ", ".join(m for m in list_models() if m != name)
            )
        extra_q = quantize_model(model, split.calibration.images)
        dse_config = DSEConfig(
            tau_values=[0.0, 0.01, 0.05],
            max_eval_samples=min(128, args.eval_samples),
        )
        stages = [UnpackStage(), CalibrateStage(), SignificanceStage(),
                  DSEStage(dse_config=dse_config, board=board),
                  ServeStage(max_levels=args.max_levels, board=board,
                             cycle_source=args.cycle_source)]
        experiment = Experiment(stages, inputs={
            "qmodel": extra_q,
            "calibration_images": split.calibration.images,
            "eval_images": split.test.images,
            "eval_labels": split.test.labels,
        }, store=_store(args))
        deployments.append(experiment.run()["serving"])
    return deployments


def _load_tenants(args: argparse.Namespace, model_names) -> Optional["object"]:
    """Load and validate the ``--tenants`` table (None when unset)."""
    if not args.tenants:
        return None
    from repro.serving import TenantTable

    try:
        table = TenantTable.load(args.tenants)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"serve: cannot load --tenants {args.tenants}: {exc}")
    for entry in table.as_dicts():
        pinned = entry.get("model")
        if pinned is not None and pinned not in model_names:
            raise SystemExit(
                f"serve: tenant {entry['name']!r} pins unknown model {pinned!r}; "
                f"served models: {', '.join(sorted(model_names))}"
            )
    return table


def _fairness_probe(weights: dict) -> tuple:
    """Deterministic queue-level fairness check over the tenant weights.

    Loads one synthetic :class:`~repro.serving.RequestQueue` with an equal
    backlog per weighted tenant and drains a fixed slice: smooth weighted
    round-robin is deterministic, so the drained shares must match the
    weight shares to within one round of rotation -- a yes/no check, not a
    statistical one (and therefore safe to gate CI on).

    Returns ``(ok, detail_line)``.
    """
    from repro.serving import Request, RequestQueue, SchedulerStopped

    names = sorted(weights)
    backlog = 24
    queue = RequestQueue(starvation_ms=None, tenant_weights=weights)
    sample = np.zeros(4, dtype=np.float32)
    for i in range(backlog):
        for name in names:
            queue.put(Request(sample, tenant=name))
    drained = {name: 0 for name in names}
    for _ in range(backlog):
        batch = queue.get_batch(1, 0.0, poll_timeout=0.0)
        if not batch:
            break
        drained[batch[0].tenant] += 1
    queue.drain(SchedulerStopped("fairness probe done"))
    total_weight = sum(weights[name] for name in names)
    pulled = sum(drained.values())
    ok = pulled == backlog
    for name in names:
        expected = pulled * weights[name] / total_weight
        # One full WRR rotation of slack: the drain interleaves, it does
        # not run the heavy tenant dry first.
        if abs(drained[name] - expected) > len(names):
            ok = False
    detail = "  ".join(
        f"{name}: {drained[name]}/{pulled} (weight {weights[name]:g})" for name in names
    )
    return ok, detail


def _multitenant_smoke(server_url: str, scheduler, images: np.ndarray,
                       tenant_table) -> tuple:
    """Drive the multi-model / multi-tenant surfaces through a live front.

    Sends a short per-model round so every deployment's ``model=`` series
    exists, a few requests per configured tenant, then deliberately runs a
    rate-limited tenant's token bucket dry to demonstrate the structured
    429.  Returns ``(ok, lines)`` -- greppable verdict lines the caller
    prints with the rest of the smoke summary.
    """
    import json as _json
    import urllib.error

    from repro.serving import DEFAULT_TENANT, HTTPClient

    client = HTTPClient(server_url, timeout_s=120.0)
    ok = True
    lines = []
    models = scheduler.models()
    for name in models[1:]:
        answered = 0
        for i in range(8):
            body = client.predict(images[i % len(images)], model=name)
            answered += len(body["classes"])
        lines.append(f"model {name}: answered {answered}/8")
        ok = ok and answered == 8

    quota_tenant = None
    if tenant_table is not None:
        for entry in tenant_table.as_dicts():
            name = entry["name"]
            if name == DEFAULT_TENANT:
                continue
            if entry.get("rate_limit_rps"):
                # Exercised by the quota check below; normal traffic here
                # would eat the tokens the 429 demonstration needs.
                if quota_tenant is None:
                    quota_tenant = entry
                continue
            for i in range(3):
                client.predict(images[i % len(images)], tenant=name)
    if quota_tenant is not None:
        name = quota_tenant["name"]
        budget = int(quota_tenant.get("burst") or quota_tenant["rate_limit_rps"]) + 10
        rejection = None
        sent = 0
        for i in range(budget):
            sent += 1
            try:
                client.predict(images[i % len(images)], tenant=name)
            except urllib.error.HTTPError as err:
                if err.code != 429:
                    raise
                rejection = _json.loads(err.read().decode("utf-8"))
                rejection["retry_after_header"] = err.headers.get("Retry-After", "")
                break
        if rejection is None:
            lines.append(f"quota check: DEGRADED (tenant {name!r} never hit 429 "
                         f"in {sent} requests)")
            ok = False
        else:
            lines.append(
                f"quota check: ok (tenant {name!r} -> 429 reason={rejection.get('reason')} "
                f"after {sent} requests, Retry-After {rejection['retry_after_header']}s)"
            )
    elif tenant_table is not None:
        lines.append("quota check: skipped (no rate-limited tenant in the table)")

    if tenant_table is not None and len(tenant_table) > 1:
        fair_ok, detail = _fairness_probe(scheduler.tenants.weights())
        lines.append(f"fairness check: {'ok' if fair_ok else 'DEGRADED'} "
                     f"(weighted drain {detail})")
        ok = ok and fair_ok

    text = client.metrics(format="prometheus")
    for name in models:
        sample_line = next(
            (line for line in text.splitlines()
             if line.startswith(f'repro_requests_completed_total{{model="{name}"')),
            "",
        )
        lines.append(f'exposition model="{name}": {sample_line or "(no completions)"}')
        ok = ok and bool(sample_line)
    if quota_tenant is not None:
        rejected_line = next(
            (line for line in text.splitlines()
             if line.startswith("repro_tenant_rejected_total{")),
            "",
        )
        lines.append(f"exposition rejections: {rejected_line or '(none recorded)'}")
        ok = ok and bool(rejected_line)

    if tenant_table is not None:
        snapshot = scheduler.metrics.snapshot()
        for name, stats in sorted(snapshot.per_tenant.items()):
            slo = ""
            if stats.get("slo_ms") is not None:
                slo = (f"   slo {stats['slo_ms']:g}ms "
                       f"{'ok' if stats.get('slo_ok') else 'MISSED'}")
            lines.append(
                f"tenant {name}: completed {stats.get('completed', 0)}   "
                f"rejected {stats.get('rejected_total', 0)}   "
                f"p95 {stats.get('p95_latency_ms', 0.0):.1f} ms{slo}"
            )
    return ok, lines


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve predictions from a deployed model over its DSE Pareto front."""
    from repro.obs import Observability
    from repro.serving import HTTPClient, PredictionServer, Scheduler

    qmodel = load_quantized_model(args.qmodel)
    split = _dataset_split(args.samples, args.seed)
    board = get_board(args.board)

    stages = [UnpackStage(), CalibrateStage(), SignificanceStage()]
    inputs = {"qmodel": qmodel, "calibration_images": split.calibration.images}
    if args.config:
        points = load_json(args.config)["points"]
        stages.append(ServeStage(points=points, max_levels=args.max_levels, board=board,
                                 cycle_source=args.cycle_source))
    else:
        # No DSE table supplied: run a small sweep in-graph (cached by --resume).
        dse_config = DSEConfig(
            tau_values=[0.0, 0.005, 0.01, 0.02, 0.05, 0.1],
            max_eval_samples=args.eval_samples,
        )
        stages.append(DSEStage(dse_config=dse_config, board=board))
        stages.append(ServeStage(max_levels=args.max_levels, board=board,
                                 cycle_source=args.cycle_source))
        inputs["eval_images"] = split.test.images
        inputs["eval_labels"] = split.test.labels
    cascade_requested = args.policy == "cascade"
    if args.accuracy_budget is not None and not cascade_requested:
        raise SystemExit(
            f"--accuracy-budget only applies to --policy cascade (got {args.policy!r})"
        )
    if args.extra_models and cascade_requested:
        raise SystemExit(
            "serve: --policy cascade serves a single deployment (its calibration is "
            "per-model); drop --model or pick another policy"
        )
    if cascade_requested:
        # The calibration sweep rides the same stage graph (and cache) as
        # the deployment build; the holdout comes from the eval split.
        inputs.setdefault("eval_images", split.test.images)
        inputs.setdefault("eval_labels", split.test.labels)
        budget = args.accuracy_budget if args.accuracy_budget is not None else 0.02
        stages.append(CascadeStage(accuracy_budget=budget, n_samples=args.eval_samples))
    experiment = Experiment(stages, inputs=inputs, store=_store(args))
    result = experiment.run()
    _report_cache(result)
    deployment = result["serving"]
    print(format_table(
        deployment.describe(),
        columns=["name", "label", "accuracy", "conv_mac_reduction", "mcu_latency_ms"],
        title=f"service levels of {qmodel.name} ({args.policy} policy)",
    ))
    cascade_calibration = result.get("cascade") if cascade_requested else None
    if cascade_calibration is not None:
        print(format_table(
            [point.as_dict() for point in cascade_calibration.points],
            columns=["level", "threshold", "escalation_rate", "blended_accuracy",
                     "cycles_saved_frac", "within_budget"],
            title=(f"cascade calibration on {cascade_calibration.n_samples} held-out samples "
                   f"(exact acc {cascade_calibration.exact_accuracy:.3f}, "
                   f"budget {cascade_calibration.accuracy_budget:g})"),
        ))
        if cascade_calibration.chosen is None:
            print("cascade: no cheap level within the accuracy budget -- serving exact-only")
        else:
            point = cascade_calibration.chosen_point
            print(f"cascade: {point.level} first (margin >= {point.threshold:.3f}), "
                  f"escalate to {cascade_calibration.exact_level}; expected escalation "
                  f"{100 * point.escalation_rate:.1f}%, expected cycles saved "
                  f"{100 * point.cycles_saved_frac:.1f}%")

    extras = _extra_deployments(args, split, board)
    deployments = [deployment, *extras]
    for extra in extras:
        print(format_table(
            extra.describe(),
            columns=["name", "label", "accuracy", "conv_mac_reduction", "mcu_latency_ms"],
            title=f"service levels of {extra.qmodel.name} (--model deployment)",
        ))
    model_names = [d.qmodel.name for d in deployments]
    if len(set(model_names)) != len(model_names):
        raise SystemExit(f"serve: duplicate deployment names {model_names}")
    tenant_table = _load_tenants(args, set(model_names))

    if args.replicas > 1:
        # Fleet mode: a router process federates N independent replica
        # server processes (each its own scheduler + observability bundle).
        return _serve_fleet(args, deployments if extras else deployment, split, qmodel,
                            cascade_calibration=cascade_calibration,
                            tenant_table=tenant_table)

    policy = args.policy
    if args.depth_per_level is not None:
        if args.policy != "queue-depth":
            raise SystemExit(
                f"--depth-per-level only applies to --policy queue-depth (got {args.policy!r})"
            )
        from repro.serving import QueueDepthPolicy

        if extras:
            # Stateful policy instances are per-deployment; a mapping gives
            # every model its own tuned instance.
            policy = {name: QueueDepthPolicy(depth_per_level=args.depth_per_level)
                      for name in model_names}
        else:
            policy = QueueDepthPolicy(depth_per_level=args.depth_per_level)
    if cascade_requested:
        from repro.serving import CascadePolicy

        policy = CascadePolicy(calibration=cascade_calibration)
    obs = Observability(profile_every=args.profile_every)
    scheduler = Scheduler(
        deployments if extras else deployment,
        policy=policy,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        obs=obs,
        tenants=tenant_table,
    )
    scheduler.start()
    try:
        if args.smoke is not None:
            # The smoke ramp drives real HTTP traffic through the front on an
            # ephemeral port -- the same code path a deployment exercises.
            with PredictionServer(scheduler, host=args.host, port=0) as server:
                counts = _smoke_load_ramp(
                    server.url, split.test.images, args.smoke, priority=args.priority
                )
                mt_ok, mt_lines = True, []
                if extras or tenant_table is not None:
                    mt_ok, mt_lines = _multitenant_smoke(
                        server.url, scheduler, split.test.images, tenant_table
                    )
                # One extra traced round trip exercises the observability
                # surface end to end: response header, Prometheus scrape,
                # event ring -- all through the same front.
                obs_client = HTTPClient(server.url, timeout_s=120.0)
                _, response_headers = obs_client.predict_with_headers(split.test.images[0])
                prometheus_text = obs_client.metrics(format="prometheus")
                events = obs_client.events()
            snapshot = scheduler.metrics.snapshot()
            rows = [
                {
                    "level": name,
                    "requests": snapshot.per_level_requests.get(name, 0),
                    "batches": snapshot.per_level_batches.get(name, 0),
                }
                for name in (level.name for level in deployment.levels)
            ]
            print(format_table(rows, title="per-level traffic"))
            answered = sum(done for done, _ in counts.values())
            for name, (done, issued) in counts.items():
                stats = snapshot.per_priority.get(name, {})
                print(
                    f"priority {name}: answered {done}/{issued}   "
                    f"p50/p95 {stats.get('p50_latency_ms', 0.0):.1f}/"
                    f"{stats.get('p95_latency_ms', 0.0):.1f} ms   "
                    f"shed {stats.get('shed', 0)}"
                )
            print(f"answered: {answered}/{args.smoke}")
            print(f"level switches: {snapshot.level_switches}")
            print(
                f"throughput: {snapshot.throughput_rps:.1f} req/s lifetime / "
                f"{snapshot.windowed_throughput_rps:.1f} req/s windowed   "
                f"mean batch: {snapshot.mean_batch_size:.1f}   "
                f"p50/p95 latency: {snapshot.p50_latency_ms:.1f}/{snapshot.p95_latency_ms:.1f} ms"
            )
            print(
                f"simulated MCU cycles saved: {snapshot.cycles_saved:,.0f} "
                f"({snapshot.mcu_ms_saved:,.1f} ms on {board.name})"
            )
            cascade_ok = True
            if cascade_requested:
                cascade_ok = _print_cascade_smoke(snapshot, cascade_calibration)
            for line in mt_lines:
                print(line)
            prometheus_series = sum(
                1 for line in prometheus_text.splitlines() if line and not line.startswith("#")
            )
            sample_line = next(
                (
                    line
                    for line in prometheus_text.splitlines()
                    if line.startswith("repro_requests_completed_total{")
                ),
                "",
            )
            print(f"X-Trace-Id: {response_headers.get('X-Trace-Id', '')}")
            print(f"prometheus exposition: {prometheus_series} series   e.g. {sample_line}")
            if cascade_requested:
                cascade_line = next(
                    (
                        line
                        for line in prometheus_text.splitlines()
                        if line.startswith("repro_cascade_")
                    ),
                    "",
                )
                print(f"cascade exposition: e.g. {cascade_line}")
            last_event = f"   last: {events[-1]['kind']}" if events else ""
            print(f"events: {len(events)} recorded{last_event}")
            if obs.profiler.enabled:
                profile_rows = [
                    {"section": name, **stats} for name, stats in obs.profiler.snapshot().items()
                ]
                print(format_table(
                    profile_rows,
                    title=f"profile (sampled every {obs.profiler.sample_every} batches)",
                ))
            return 0 if (answered == args.smoke and cascade_ok and mt_ok) else 1
        server = PredictionServer(scheduler, host=args.host, port=args.port)
        print(
            f"serving {', '.join(model_names)} at {server.url} "
            "(POST /predict, GET /metrics, /levels, /events, /trace, /healthz); "
            "Ctrl-C to stop"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        return 0
    finally:
        if args.trace_export:
            n_spans = obs.tracer.export_jsonl(args.trace_export)
            print(f"trace export: {n_spans} spans -> {args.trace_export}")
        scheduler.stop()


def cmd_trace(args: argparse.Namespace) -> int:
    """Pretty-print per-stage latency breakdowns from a span export."""
    from repro.obs.tracing import STAGES, load_jsonl, trace_breakdown

    try:
        spans = load_jsonl(args.input)
    except FileNotFoundError:
        print(f"error: span export {args.input!r} does not exist "
              "(write one with `repro-tinyml serve --trace-export PATH`)", file=sys.stderr)
        return 2
    except IsADirectoryError:
        print(f"error: {args.input!r} is a directory, not a span JSONL file", file=sys.stderr)
        return 2
    if not spans:
        print(f"error: span export {args.input!r} is empty -- the server recorded no spans "
              "(was tracing disabled, or no traffic served?)", file=sys.stderr)
        return 2
    if args.trace_id:
        spans = [span for span in spans if span.trace_id == args.trace_id]
    if not spans:
        target = f"trace {args.trace_id!r}" if args.trace_id else "any trace"
        print(f"no spans for {target} in {args.input}")
        return 1
    rows = trace_breakdown(spans)
    if args.slowest:
        rows.sort(key=lambda row: row["total_ms"], reverse=True)
    shown = rows[: args.limit] if args.limit else rows
    columns = ["trace_id", *STAGES, "layers_ms", "total_ms", "spans"]
    print(format_table(
        shown,
        columns=columns,
        title=f"per-stage latency breakdown ({len(rows)} traces, ms)",
    ))
    if len(rows) > len(shown):
        print(f"... {len(rows) - len(shown)} more traces (raise --limit)")
    means = {
        stage: sum(row[stage] for row in rows) / len(rows) for stage in (*STAGES, "layers_ms")
    }
    print(
        "stage means (ms): "
        + "   ".join(f"{stage} {value:.3f}" for stage, value in means.items() if value > 0)
    )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables/figures through the shared experiment context."""
    from repro.evaluation import (
        ExperimentContext,
        build_claims,
        build_figure2,
        build_table1,
        build_table2,
        format_claims,
        format_figure2,
        format_table1,
        format_table2,
    )

    context = ExperimentContext(scale=args.scale, seed=args.seed)
    wanted_all = args.all or not (args.table1 or args.table2 or args.figure2 or args.claims)
    if args.table1 or wanted_all:
        print(format_table1(build_table1(context)), end="\n\n")
    if args.figure2 or wanted_all:
        print(format_figure2(build_figure2(context)), end="\n\n")
    if args.table2 or wanted_all:
        print(format_table2(build_table2(context)), end="\n\n")
    if args.claims or wanted_all:
        print(format_claims(build_claims(context)))
    return 0


# --------------------------------------------------------------------------- parser
def engine_choices() -> List[str]:
    """Engine names registered in :data:`repro.registry.ENGINES`."""
    return ENGINES.names()


def strategy_choices() -> List[str]:
    """Search-strategy names registered in :data:`repro.registry.SEARCH_STRATEGIES`."""
    return SEARCH_STRATEGIES.names()


def board_choices() -> List[str]:
    """Board names registered in :data:`repro.registry.BOARDS`."""
    return BOARDS.names()


def policy_choices() -> List[str]:
    """Serving-policy names registered in :data:`repro.registry.POLICIES`."""
    return POLICIES.names()


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (choices come from the registries)."""
    parser = argparse.ArgumentParser(prog="repro-tinyml", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="enable INFO logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="errors only (overrides --verbose)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, samples=2000):
        p.add_argument("--samples", type=int, default=samples, help="synthetic dataset size")
        p.add_argument("--seed", type=int, default=7, help="dataset/model seed")

    def add_resume(p):
        p.add_argument("--resume", default=None, metavar="DIR",
                       help="artifact-store directory; unchanged stages are read from it")

    p_train = sub.add_parser("train", help="train a model on the synthetic dataset")
    p_train.add_argument("--model", choices=list_models(), default="lenet")
    p_train.add_argument("--out", required=True, help="output path stem for the saved model")
    p_train.add_argument("--epochs", type=int, default=5)
    p_train.add_argument("--batch-size", type=int, default=48)
    p_train.add_argument("--lr", type=float, default=1.5e-3)
    add_common(p_train, samples=3000)
    p_train.set_defaults(func=cmd_train)

    p_quant = sub.add_parser("quantize", help="post-training-quantize a saved model")
    p_quant.add_argument("--model-path", required=True)
    p_quant.add_argument("--out", required=True)
    p_quant.add_argument("--calibration", type=int, default=128)
    add_common(p_quant)
    p_quant.set_defaults(func=cmd_quantize)

    p_explore = sub.add_parser("explore", help="run the approximation DSE on a quantized model")
    p_explore.add_argument("--qmodel", required=True)
    p_explore.add_argument("--out", required=True, help="output JSON for the DSE table")
    p_explore.add_argument("--loss", type=float, default=0.0, help="accuracy-loss budget")
    p_explore.add_argument("--strategy", choices=strategy_choices(), default="exhaustive",
                           help="DSE search strategy (from the strategy registry)")
    p_explore.add_argument("--taus", default=None, help="comma-separated explicit tau values")
    p_explore.add_argument("--tau-step", type=float, default=0.005)
    p_explore.add_argument("--tau-max", type=float, default=0.1)
    p_explore.add_argument("--eval-samples", type=int, default=256)
    p_explore.add_argument("--board", choices=board_choices(), default="stm32u575")
    add_resume(p_explore)
    add_common(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_code = sub.add_parser("codegen", help="emit unpacked/approximate kernel code")
    p_code.add_argument("--qmodel", required=True)
    p_code.add_argument("--config", default=None, help="ApproxConfig JSON (omit for exact code)")
    p_code.add_argument("--out", required=True)
    add_resume(p_code)
    # Same dataset defaults as explore/deploy, so a shared --resume store hits.
    add_common(p_code)
    p_code.set_defaults(func=cmd_codegen)

    p_verify = sub.add_parser(
        "verify-codegen",
        help="run generated code through the ISA VM and verify it against the kernels",
    )
    p_verify.add_argument("--qmodel", required=True)
    p_verify.add_argument("--taus", default="0.0,0.01,0.05",
                          help="comma-separated uniform tau designs to verify "
                               "(the exact design is always included)")
    p_verify.add_argument("--modes", default="interp,turbo",
                          help="comma-separated VM execution modes to check")
    p_verify.add_argument("--n-verify", type=int, default=32,
                          help="input samples driven through both execution paths")
    p_verify.add_argument("--calibrate-cost-model", action="store_true",
                          help="derive UNPACKED cost overrides from the VM trace, apply "
                               "them via the override hooks and print the before/after "
                               "traced/analytic table")
    add_resume(p_verify)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify_codegen)

    p_deploy = sub.add_parser("deploy", help="deploy a quantized model on a board model")
    p_deploy.add_argument("--qmodel", required=True)
    p_deploy.add_argument("--engine", choices=engine_choices(), default="cmsis-nn")
    p_deploy.add_argument("--config", default=None, help="ApproxConfig JSON for the ataman engine")
    p_deploy.add_argument("--board", choices=board_choices(), default="stm32u575")
    p_deploy.add_argument("--eval-samples", type=int, default=256)
    p_deploy.add_argument("--calibrate-cost-model", action="store_true",
                          help="calibrate the analytic UNPACKED model against the VM trace "
                               "of the deployed design before estimating cycles/latency "
                               "(unpacked-style engines only)")
    add_resume(p_deploy)
    add_common(p_deploy)
    p_deploy.set_defaults(func=cmd_deploy)

    p_serve = sub.add_parser("serve", help="serve predictions with load-adaptive batching")
    p_serve.add_argument("--qmodel", required=True)
    p_serve.add_argument("--config", default=None,
                         help="DSE table JSON from `explore` (omit to run a small DSE in-line)")
    p_serve.add_argument("--model", action="append", default=None, dest="extra_models",
                         metavar="NAME",
                         help="serve an extra registry model alongside --qmodel (repeatable; "
                              "built untrained from the seed, quantized on the calibration "
                              "split and swept with a reduced inline DSE -- any name from "
                              "the model registry, e.g. alexnet)")
    p_serve.add_argument("--tenants", default=None, metavar="FILE",
                         help="JSON tenant table: a list of {name, model, priority, slo_ms, "
                              "rate_limit_rps, burst, max_inflight, weight} objects "
                              "(token-bucket quotas enforced at enqueue with HTTP 429)")
    # One HTTP front is left.  --front thread stays accepted, and hidden,
    # because existing command lines (perfbench's server among them) pass it.
    p_serve.add_argument("--front", choices=("thread",), default="thread", help=argparse.SUPPRESS)
    p_serve.add_argument("--priority",
                         choices=("interactive", "standard", "batch", "mixed"),
                         default="standard",
                         help="priority class of --smoke traffic ('mixed' cycles all three)")
    p_serve.add_argument("--policy", choices=policy_choices(), default="queue-depth",
                         help="adaptive serving policy (from the policy registry)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument("--max-batch-size", type=int, default=32)
    p_serve.add_argument("--depth-per-level", type=int, default=None,
                         help="queue-depth policy: queued requests per escalation step "
                              "(smaller = more eager; default: the policy's own default)")
    p_serve.add_argument("--accuracy-budget", type=float, default=None, metavar="FRAC",
                         help="cascade policy: allowed blended-accuracy drop versus the "
                              "exact level on the held-out calibration split "
                              "(default 0.02; 0 disables cascading)")
    p_serve.add_argument("--max-wait-ms", type=float, default=5.0,
                         help="batch coalescing window in milliseconds")
    p_serve.add_argument("--max-levels", type=int, default=6,
                         help="cap on the number of Pareto service levels")
    p_serve.add_argument("--replicas", type=int, default=1,
                         help="replica server processes behind a fleet router "
                              "(1 = a single in-process server, no router)")
    p_serve.add_argument("--board", choices=board_choices(), default="stm32u575",
                         help="board model for the simulated MCU latency/savings")
    p_serve.add_argument("--cycle-source", choices=("analytic", "traced"), default="analytic",
                         help="cost service levels with the analytic model or the "
                              "VM's per-instruction trace")
    p_serve.add_argument("--eval-samples", type=int, default=256,
                         help="evaluation images for the in-line DSE (no --config only)")
    p_serve.add_argument("--smoke", type=int, default=None, metavar="N",
                         help="answer N self-generated requests through a load ramp, "
                              "print the metrics summary and exit")
    p_serve.add_argument("--profile-every", type=int, default=0, metavar="N",
                         help="profile every Nth batch: scheduler loop phases and "
                              "per-layer forwards (0 = off, the default)")
    p_serve.add_argument("--trace-export", default=None, metavar="PATH",
                         help="on shutdown, dump the buffered request spans as JSONL "
                              "(inspect with `repro-tinyml trace --input PATH`)")
    # Same dest as the global flags: `repro-tinyml serve -v` works without
    # having to remember the flag goes before the subcommand.  argparse only
    # applies a subparser default when the attribute is still unset, so the
    # pre-subcommand spelling is not clobbered.
    p_serve.add_argument("-v", "--verbose", action="store_true",
                         help="enable INFO logging (level switches, lifecycle events)")
    p_serve.add_argument("-q", "--quiet", action="store_true",
                         help="errors only (overrides --verbose)")
    add_resume(p_serve)
    add_common(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="pretty-print per-stage latency breakdowns from a span export"
    )
    p_trace.add_argument("--input", required=True, metavar="PATH",
                         help="JSONL span export written by `serve --trace-export`")
    p_trace.add_argument("--trace-id", default=None,
                         help="show only the spans of one trace (X-Trace-Id header value)")
    p_trace.add_argument("--limit", type=int, default=20, metavar="N",
                         help="show at most N traces (0 = all; default 20)")
    p_trace.add_argument("--slowest", action="store_true",
                         help="sort by total latency, slowest first")
    p_trace.set_defaults(func=cmd_trace)

    p_rep = sub.add_parser("reproduce", help="regenerate the paper's tables and figures")
    p_rep.add_argument("--table1", action="store_true")
    p_rep.add_argument("--table2", action="store_true")
    p_rep.add_argument("--figure2", action="store_true")
    p_rep.add_argument("--claims", action="store_true")
    p_rep.add_argument("--all", action="store_true")
    p_rep.add_argument("--scale", choices=("ci", "fast", "full"), default=None)
    p_rep.add_argument("--seed", type=int, default=7, help="master experiment seed")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_verbosity(
        verbose=getattr(args, "verbose", False), quiet=getattr(args, "quiet", False)
    )
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
