"""The dynamic micro-batching scheduler: the synchronous serving core.

One background thread drains the :class:`~repro.serving.request.RequestQueue`
continuously: pop a coalesced batch (up to ``max_batch_size`` requests or
``max_wait_ms`` of coalescing, whichever first), partition it per model --
the scheduler owns a *deployment table*, and a batch never mixes models --
then for each model group ask that deployment's
:class:`~repro.serving.policy.ServingPolicy` which Pareto service level
should run it, execute the batched forward pass, complete every request and
record the batch in the shared
:class:`~repro.serving.metrics.ServerMetrics` sink.  As soon as one batch
finishes the next is picked up -- vLLM-style continuous batching with the
"model step" replaced by a batched NumPy int8 forward pass.

Policies and cascade gates are *per-deployment state*: each model on the
table gets its own policy instance (policies are stateful -- EWMA trackers,
cooldowns, current-level markers) and its own cascade gate, so one model's
overload cannot push another model off its operating point.

The forward runs in the scheduler's process, on BLAS threads and, where BLAS
is pinned, on shard lanes (:mod:`repro.utils.parallel`); more processes come
only from the fleet (:mod:`repro.serving.fleet`), one scheduler per replica.

Tenancy sits in front of the queue: :meth:`Scheduler.submit` resolves the
request's tenant against the :class:`~repro.serving.tenancy.TenantTable`
(unknown tenants are refused), charges its token-bucket rate quota and
in-flight cap (over-quota requests are rejected *before* they cost a queue
slot, surfacing as structured HTTP 429s), and applies the tenant's default
model/priority.  Admitted requests then compete under the queue's weighted
cross-tenant fair draining.

Front ends never touch the model: the HTTP server and the in-process client
only :meth:`Scheduler.submit` requests and block on their events.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.obs import Observability
from repro.serving.deployment import Deployment
from repro.serving.metrics import ServerMetrics
from repro.serving.policy import CascadeGate, ServingPolicy, resolve_policy
from repro.serving.request import (
    DEFAULT_PRIORITY,
    DEFAULT_TENANT,
    Request,
    RequestError,
    RequestQueue,
    RequestTimedOut,
)
from repro.serving.tenancy import TenantQuotaExceeded, TenantTable
from repro.utils.logging import get_logger
from repro.workflow.cascade import softmax_margins

logger = get_logger("serving.scheduler")


class SchedulerStopped(RuntimeError):
    """Raised for requests submitted to (or pending in) a stopped scheduler."""


class UnknownModel(RequestError):
    """The request named a model the scheduler's deployment table lacks."""

    def __init__(self, model: str, choices: Iterable[str]):
        self.model = str(model)
        self.choices = sorted(choices)
        super().__init__(
            f"unknown model {self.model!r}; served models: {self.choices}"
        )


class _DeploymentState:
    """Everything the scheduler keeps *per deployment* on its table."""

    __slots__ = ("name", "deployment", "policy", "gate", "last_level_name")

    def __init__(self, name: str, deployment: Deployment, policy: ServingPolicy):
        self.name = name
        self.deployment = deployment
        self.policy = policy
        self.gate: Optional[CascadeGate] = policy.cascade_gate(deployment.levels)
        self.last_level_name: Optional[str] = None


def _normalize_deployments(
    deployment: Union[Deployment, Mapping[str, Deployment], Sequence[Deployment]],
) -> Dict[str, Deployment]:
    """Coerce the constructor's deployment argument to an ordered table.

    Accepts a single :class:`Deployment` (the classic one-model server), a
    mapping of name -> deployment, or a sequence of deployments keyed by
    their quantized model's name.  The first entry is the default model.
    """
    if isinstance(deployment, Deployment):
        return {deployment.qmodel.name: deployment}
    if isinstance(deployment, Mapping):
        table = {str(name): dep for name, dep in deployment.items()}
    else:
        table = {}
        for dep in deployment:
            name = dep.qmodel.name
            if name in table:
                raise ValueError(
                    f"duplicate deployment name {name!r}; pass a mapping to disambiguate"
                )
            table[name] = dep
    if not table:
        raise ValueError("the scheduler needs at least one deployment")
    for name, dep in table.items():
        if not isinstance(dep, Deployment):
            raise TypeError(f"deployment table entry {name!r} is not a Deployment")
    return table


class Scheduler:
    """Continuous micro-batching over a table of deployments.

    Parameters
    ----------
    deployment:
        The servable model(s): a single :class:`Deployment`, a mapping of
        model name -> deployment, or a sequence of deployments (keyed by
        their quantized model names).  The first entry is the *default
        model* -- requests that name no model are served by it.
    policy:
        Per-deployment level-selection policy: a registry name (``"fixed"``,
        ``"queue-depth"``, ``"latency-slo"``), a policy class (each
        deployment gets a fresh instance -- policies are stateful), a
        :class:`ServingPolicy` instance (single-deployment tables only), or
        a mapping of model name -> any of the above (missing models fall
        back to ``"fixed"``).
    max_batch_size:
        Largest coalesced batch (before per-model partitioning).
    max_wait_ms:
        Longest a batch leader waits for co-riders before executing.
    metrics:
        Shared telemetry sink; a fresh one is created when omitted (backed
        by the observability bundle's registry, so the Prometheus endpoint
        sees every counter).
    starvation_ms:
        Aging bound of the priority queue: a queued request older than this
        is served ahead of the priority order (``None``: strict priority).
    obs:
        Observability bundle (tracer, profiler, event log, registry); the
        default enables tracing and events with profiling off.  Pass
        :meth:`Observability.disabled() <repro.obs.Observability.disabled>`
        for the minimal-overhead configuration.
    tenants:
        :class:`~repro.serving.tenancy.TenantTable` (or an iterable of
        :class:`~repro.serving.tenancy.TenantConfig`) for quota enforcement
        and weighted fair queueing; omitted, only the unlimited default
        tenant exists.
    default_model:
        Override which table entry serves model-less requests (defaults to
        the first deployment).
    """

    def __init__(
        self,
        deployment: Union[Deployment, Mapping[str, Deployment], Sequence[Deployment]],
        policy: Union[str, ServingPolicy, type, Mapping[str, object]] = "fixed",
        max_batch_size: int = 32,
        max_wait_ms: float = 5.0,
        metrics: Optional[ServerMetrics] = None,
        starvation_ms: Optional[float] = 2000.0,
        obs: Optional[Observability] = None,
        tenants: Optional[Union[TenantTable, Iterable]] = None,
        default_model: Optional[str] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        table = _normalize_deployments(deployment)
        if default_model is None:
            default_model = next(iter(table))
        elif default_model not in table:
            raise UnknownModel(default_model, table)
        self.default_model = default_model
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        if tenants is None:
            self.tenants = TenantTable()
        elif isinstance(tenants, TenantTable):
            self.tenants = tenants
        else:
            self.tenants = TenantTable(tenants)
        self.queue = RequestQueue(
            starvation_ms=starvation_ms, tenant_weights=self.tenants.weights()
        )
        board = table[default_model].board
        if obs is None:
            # Share the sink's registry so /metrics?format=prometheus and a
            # future fleet aggregator read the same counters the sink writes.
            obs = Observability(registry=metrics.registry if metrics is not None else None)
        self.obs = obs
        self.metrics = metrics or ServerMetrics(
            baseline_cycles_per_sample=table[default_model].baseline_cycles_per_sample,
            cycles_to_ms=board.cycles_to_seconds(1.0) * 1e3,
            registry=obs.registry,
        )
        self.metrics.configure_tenants(
            {
                name: {
                    "slo_ms": config.slo_ms,
                    "weight": config.weight,
                }
                for name, config in (
                    (name, self.tenants.get(name)) for name in self.tenants.names()
                )
            }
        )
        self.queue.events = obs.events if obs.events.enabled else None
        # Per-deployment state: each model gets its own policy instance and
        # cascade gate.  Cascade telemetry metadata is installed for the
        # first gated deployment (the snapshot has one cascade block;
        # per-model cascade counters stay separable via the attempts' level
        # labels).
        self._states: Dict[str, _DeploymentState] = {}
        for name, dep in table.items():
            self._states[name] = _DeploymentState(
                name, dep, self._resolve_policy_for(policy, name, len(table))
            )
        for state in self._states.values():
            if state.gate is not None:
                gate = state.gate
                self.metrics.configure_cascade(
                    cheap_level=gate.cheap_level,
                    exact_level=gate.exact_level,
                    threshold=gate.threshold,
                    accept_accuracy=gate.accept_accuracy,
                    exact_accuracy=gate.exact_accuracy,
                    accuracy_budget=gate.accuracy_budget,
                )
                break
        self._sections_emitted = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @staticmethod
    def _resolve_policy_for(policy, model: str, n_models: int) -> ServingPolicy:
        """Instantiate the policy spec for one deployment-table entry."""
        if isinstance(policy, Mapping):
            # A mapping assigns each model its own entry, so instances are
            # fine here -- they are not shared across deployments.
            return resolve_policy(policy.get(model, "fixed"))
        if isinstance(policy, ServingPolicy) and n_models > 1:
            raise ValueError(
                "a ServingPolicy instance cannot be shared across a multi-model "
                "deployment table (policies are stateful); pass a name, a class "
                "or a {model: policy} mapping instead"
            )
        return resolve_policy(policy)

    # ------------------------------------------------------------------ table views
    @property
    def deployments(self) -> Dict[str, Deployment]:
        """The deployment table (model name -> deployment), default first."""
        return {name: state.deployment for name, state in self._states.items()}

    @property
    def deployment(self) -> Deployment:
        """The default deployment (single-model back-compat view)."""
        return self._states[self.default_model].deployment

    @property
    def policy(self) -> ServingPolicy:
        """The default deployment's policy (single-model back-compat view)."""
        return self._states[self.default_model].policy

    def models(self) -> List[str]:
        """Served model names, default model first."""
        return list(self._states)

    def policies(self) -> Dict[str, ServingPolicy]:
        """Per-model policy instances."""
        return {name: state.policy for name, state in self._states.items()}

    # ------------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        """Whether the scheduler core thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "Scheduler":
        """Start (or restart) the scheduler core thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._run_loop, name="serving-scheduler", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the core and fail pending requests."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None
        self._record_failures(self.queue.drain(SchedulerStopped("scheduler stopped")))

    def _record_failures(self, failed: List[Request]) -> None:
        """Attribute failed requests (drained at shutdown or of a failed batch) per priority."""
        if not failed:
            return
        per_priority: Dict[str, int] = {}
        for request in failed:
            per_priority[request.priority] = per_priority.get(request.priority, 0) + 1
        for priority, count in per_priority.items():
            self.metrics.record_failure(count, priority=priority)

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ submission
    def resolve_model(self, model: Optional[str], tenant: Optional[str] = None) -> str:
        """Resolve a request's model name against the deployment table.

        Explicit names win; otherwise the tenant's pinned model, then the
        server default.  Raises :class:`UnknownModel` for names not on the
        table (the HTTP front's structured 404).
        """
        if model is None and tenant is not None:
            config = self.tenants.get(tenant)
            model = config.model
        name = model if model is not None else self.default_model
        if name not in self._states:
            raise UnknownModel(name, self._states)
        return name

    def _release_tenant(self, request: Request) -> None:
        """Done-callback: return the request's tenant in-flight slot."""
        self.tenants.release(request.tenant)

    def submit(
        self,
        x: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        trace_id: Optional[str] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> Request:
        """Enqueue one input sample; returns the in-flight request.

        ``timeout_ms`` arms a per-request deadline: a request still queued
        when it expires is shed with
        :class:`~repro.serving.request.RequestTimedOut` instead of executed.
        ``priority`` picks the request's class (``interactive`` jumps the
        queue, ``batch`` yields to everything younger than the starvation
        bound); ``None`` defers to the tenant's default class.  ``model``
        routes the request to a deployment-table entry (``None``: the
        tenant's pinned model, then the server default).  ``tenant`` selects
        the quota/fairness identity -- unknown tenants raise
        :class:`~repro.serving.tenancy.UnknownTenant`, over-quota tenants
        :class:`~repro.serving.tenancy.TenantQuotaExceeded` (the front's
        structured 403/429).  ``trace_id`` links the request's observability
        spans; the HTTP front passes one per POST body.
        """
        if not self.running:
            raise SchedulerStopped("cannot submit to a stopped scheduler")
        tenant_name = tenant if tenant is not None else DEFAULT_TENANT
        config = self.tenants.get(tenant_name)  # raises UnknownTenant
        model_name = self.resolve_model(model, tenant=tenant_name)
        if priority is None:
            priority = config.priority or DEFAULT_PRIORITY
        state = self._states[model_name]
        x = np.asarray(x, dtype=np.float32)
        if x.shape != state.deployment.qmodel.input_shape:
            raise ValueError(
                f"model {model_name!r} expects a sample of shape "
                f"{state.deployment.qmodel.input_shape}, got {x.shape}"
            )
        # Charge quotas only after validation: a malformed request must not
        # burn a rate token.  Every successful admit is paired with a
        # release through the request's done-callback (completion, shed,
        # failure and drain all fire it).
        try:
            self.tenants.admit(tenant_name)
        except TenantQuotaExceeded as error:
            self.metrics.record_tenant_rejection(tenant_name, error.reason)
            if self.obs.events.enabled:
                self.obs.events.emit(
                    "tenant-rejected",
                    f"tenant {tenant_name!r} over {error.reason} quota",
                    level="warning",
                    tenant=tenant_name,
                    reason=error.reason,
                )
            raise
        request = Request(
            x,
            timeout_ms=timeout_ms,
            priority=priority,
            trace_id=trace_id,
            model=model_name,
            tenant=tenant_name,
        )
        request.add_done_callback(self._release_tenant)
        self.queue.put(request)
        if self._stop.is_set():
            # A stop() raced this submit past the running check; its drain may
            # have missed the request, so fail whatever is still queued rather
            # than leaving a waiter hanging until its timeout.
            self._record_failures(self.queue.drain(SchedulerStopped("scheduler stopped")))
        return request

    def submit_many(
        self,
        xs: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: Optional[str] = None,
        trace_id: Optional[str] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> List[Request]:
        """Enqueue a batch of samples as individual requests (FIFO order)."""
        return [
            self.submit(
                x,
                timeout_ms=timeout_ms,
                priority=priority,
                trace_id=trace_id,
                model=model,
                tenant=tenant,
            )
            for x in np.asarray(xs, dtype=np.float32)
        ]

    # ------------------------------------------------------------------ core loop
    def _run_loop(self) -> None:
        while not self._stop.is_set():
            poll_started = time.monotonic()
            batch = self.queue.get_batch(self.max_batch_size, self.max_wait_ms)
            if not batch:
                continue  # idle poll: no busy spin, just a shutdown-flag check
            popped_at = time.monotonic()
            try:
                self._execute(batch, poll_started=poll_started)
            except Exception as error:
                self._fail_batch(batch, popped_at, error)
        logger.info("scheduler core stopped")

    def _fail_batch(self, batch: List[Request], popped_at: float, error: Exception) -> None:
        """Fail what is left of a batch whose processing raised; the loop keeps serving.

        Requests that already reached a terminal state keep it, and a cascade
        escalation re-queued during this pass (enqueued after the pop) stays
        queued for its exact-level attempt.
        """
        logger.exception("batch of %d failed", len(batch))
        failed = [
            request
            for request in batch
            if not request.done and request.enqueued_at < popped_at
        ]
        for request in failed:
            request.fail(error)
        self._record_failures(failed)
        if self.obs.events.enabled:
            self.obs.events.emit(
                "batch-failure",
                f"batch of {len(batch)} failed: {error}",
                level="error",
                batch_size=len(batch),
                failed=len(failed),
                error=str(error),
            )

    def _execute(self, batch: List[Request], poll_started: Optional[float] = None) -> None:
        obs = self.obs
        profiler = obs.profiler
        sampled = profiler.begin_batch()
        if sampled and poll_started is not None:
            # The poll phase (blocking pop + coalescing window) ended when
            # get_batch returned -- approximate that instant with "now".
            profiler.add("poll", poll_started, time.monotonic())
        # Timeout-based shedding: requests whose deadline passed while they
        # waited are failed here, before any model work -- their co-riders
        # still execute, and an all-expired batch costs nothing but the pop.
        expired = [request for request in batch if request.expired]
        if expired:
            for request in expired:
                request.fail(
                    RequestTimedOut(
                        f"request {request.id} shed: exceeded its {request.timeout_ms:g} ms "
                        "deadline while queued"
                    )
                )
                self.metrics.record_shed(priority=request.priority, tenant=request.tenant)
                if obs.events.enabled:
                    obs.events.emit(
                        "shed",
                        f"request {request.id} shed after {request.timeout_ms:g} ms deadline",
                        level="warning",
                        request_id=request.id,
                        trace_id=request.trace_id,
                        priority=request.priority,
                        tenant=request.tenant,
                        timeout_ms=request.timeout_ms,
                    )
            batch = [request for request in batch if not request.done]
            if not batch:
                return
        self._sections_emitted = 0
        # Per-model partitioning: a coalesced batch may interleave models,
        # but a *forward pass* never mixes them -- each model group executes
        # against its own deployment under its own policy.
        if len(self._states) == 1:
            self._execute_model(self._states[self.default_model], batch, sampled)
            return
        groups: Dict[str, List[Request]] = {}
        for request in batch:
            groups.setdefault(request.model, []).append(request)
        for model_name, group in groups.items():
            self._execute_model(self._states[model_name], group, sampled)

    def _execute_model(
        self, state: _DeploymentState, batch: List[Request], sampled: bool
    ) -> None:
        """Run one model's share of a popped batch under its own policy."""
        obs = self.obs
        profiler = obs.profiler
        # The load signal is the *backlog* left after popping this batch: a
        # single full-batch request on an idle server is not overload and must
        # not push the policy off the accurate end of the front.  Multi-model
        # tables feed each policy its own model's backlog.
        with profiler.timer("policy"):
            depth = (
                self.queue.depth()
                if len(self._states) == 1
                else self.queue.depth(model=state.name)
            )
            snapshot = self.metrics.snapshot(queue_depth=depth)
            level_idx = state.policy.select(state.deployment.levels, snapshot)
        level = state.deployment.levels[level_idx]
        if obs.events.enabled and state.last_level_name not in (None, level.name):
            obs.events.emit(
                "level-switch",
                f"service level {state.last_level_name} -> {level.name}",
                model=state.name,
                from_level=state.last_level_name,
                to_level=level.name,
                policy=type(state.policy).__name__,
                queue_depth=snapshot.queue_depth,
                # The SLO policy's smoothed latency reading at decision time
                # -- the "why" of the switch; None for load-blind policies.
                ewma_p95_ms=getattr(state.policy, "ewma_p95_ms", None),
            )
        state.last_level_name = level.name
        gate = state.gate
        if gate is None:
            self._execute_group(state, batch, level_idx, None, sampled)
            return
        # Cascade path: a popped batch can mix fresh requests (served at the
        # policy's cheap level) with escalated ones pinned to the exact
        # level; each level's group executes as its own forward pass.
        groups: Dict[int, List[Request]] = {}
        for request in batch:
            target = request.pinned_level if request.pinned_level is not None else level_idx
            groups.setdefault(target, []).append(request)
        for target, group in groups.items():
            self._execute_group(
                state, group, target, gate, sampled, track_level=target == level_idx
            )

    def _execute_group(
        self,
        state: _DeploymentState,
        group: List[Request],
        level_idx: int,
        gate: Optional[CascadeGate],
        sampled: bool,
        track_level: bool = True,
    ) -> None:
        """Run one same-model, same-level group: forward pass, telemetry, completion.

        With a cascade ``gate`` and ``level_idx`` at its cheap level,
        requests whose softmax margin clears the gate's threshold complete
        with the cheap prediction, the rest are re-enqueued pinned to the
        exact level -- unless their deadline headroom is below the gate's
        ``escalation_headroom_ms``, in which case the cheap answer wins over
        an escalation that would blow the deadline.
        """
        obs = self.obs
        profiler = obs.profiler
        level = state.deployment.levels[level_idx]
        gated = gate is not None and level_idx == gate.cheap_index
        xs = np.stack([request.x for request in group])
        started = time.monotonic()
        with profiler.timer("execute"):
            logits = state.deployment.forward(
                xs, level=level_idx, profiler=profiler if sampled else None
            )
            predictions = logits.argmax(axis=-1)
            margins = softmax_margins(logits) if gated else None
        finished = time.monotonic()
        service_ms = (finished - started) * 1e3
        for request in group:
            request.attempts += 1
            request.service_ms += service_ms
            # Queue wait accumulates across attempts: wait1 + service1 +
            # wait2 + service2 is the end-to-end latency, nothing counted
            # twice -- the second wait starts at the re-enqueue.
            request.wait_ms += (started - request.enqueued_at) * 1e3
        if gate is not None:
            self.metrics.record_cascade_attempt(level.name, len(group), level.cycles_per_sample)
        accepted: List[tuple] = []
        escalate: List[Request] = []
        if gated:
            stopping = self._stop.is_set()
            for request, prediction, margin in zip(group, predictions, margins):
                request.margin = float(margin)
                if margin >= gate.threshold:
                    accepted.append((request, prediction))
                    continue
                if request.deadline is not None:
                    remaining_ms = (request.deadline - finished) * 1e3
                    if remaining_ms <= gate.escalation_headroom_ms:
                        # Never escalate a request past its own deadline: a
                        # cheap answer in time beats an exact answer shed.
                        accepted.append((request, prediction))
                        self.metrics.record_cascade_suppressed(request.priority)
                        if obs.events.enabled:
                            obs.events.emit(
                                "escalation-suppressed",
                                f"request {request.id} kept cheap: {remaining_ms:.1f} ms left "
                                f"< {gate.escalation_headroom_ms:g} ms escalation headroom",
                                request_id=request.id,
                                trace_id=request.trace_id,
                                priority=request.priority,
                                margin=request.margin,
                                remaining_ms=round(remaining_ms, 3),
                            )
                        continue
                if stopping:
                    # The exact pass will never run on a stopping scheduler;
                    # answer cheap instead of failing at drain.
                    accepted.append((request, prediction))
                    continue
                escalate.append(request)
        else:
            accepted = list(zip(group, predictions))
        batch_parent: Optional[str] = None
        if obs.tracer.enabled:
            # One span for the coalesced batch (anchored to the leader's
            # trace), linking every member trace id; per-request queue-wait
            # and execute spans hang off it below.
            batch_span = obs.tracer.record_span(
                "batch-execute",
                trace_id=group[0].trace_id,
                start_s=started,
                end_s=finished,
                model=state.name,
                level=level.name,
                batch_size=len(group),
                member_trace_ids=[request.trace_id for request in group],
                **({"escalations": len(escalate)} if gated else {}),
            )
            batch_parent = batch_span.span_id if batch_span is not None else None
            if sampled:
                # Per-layer sections timed by the profiled forward become
                # children of the batch span -- the "per-layer forward" leg.
                # Groups share one profiler batch, so emit only the sections
                # this group's forward appended.
                sections = profiler.batch_sections()
                for section, start_s, end_s in sections[self._sections_emitted :]:
                    if ":" in section:
                        obs.tracer.record_span(
                            section,
                            trace_id=group[0].trace_id,
                            start_s=start_s,
                            end_s=end_s,
                            parent_id=batch_parent,
                        )
                self._sections_emitted = len(sections)
        with profiler.timer("callback"):
            # Record telemetry and spans *before* completing any request:
            # complete() wakes the front-end waiter, and a client that
            # immediately scrapes /metrics or /trace must see this batch.
            latencies = [(finished - request.submitted_at) * 1e3 for request, _ in accepted]
            self.metrics.record_batch(
                level.name,
                len(group),
                latencies,
                cycles_per_sample=level.cycles_per_sample,
                priorities=[request.priority for request, _ in accepted],
                track_level=track_level,
                model=state.name,
                tenants=[request.tenant for request, _ in accepted],
                baseline_cycles_per_sample=state.deployment.baseline_cycles_per_sample,
            )
            if obs.tracer.enabled:
                for request in group:
                    obs.tracer.record_span(
                        "queue-wait",
                        trace_id=request.trace_id,
                        start_s=request.enqueued_at,
                        end_s=started,
                        priority=request.priority,
                        **({"attempt": request.attempts} if request.attempts > 1 else {}),
                    )
                    obs.tracer.record_span(
                        "execute",
                        trace_id=request.trace_id,
                        start_s=started,
                        end_s=finished,
                        parent_id=batch_parent,
                        level=level.name,
                    )
            for request in escalate:
                request.escalated = True
                request.pinned_level = gate.exact_index
                self.metrics.record_cascade_escalation(request.priority)
                requeued_at = time.monotonic()
                if obs.tracer.enabled:
                    # The escalation hop itself, under the same trace id as
                    # both attempts' queue-wait/execute spans.
                    obs.tracer.record_span(
                        "escalate",
                        trace_id=request.trace_id,
                        start_s=finished,
                        end_s=requeued_at,
                        parent_id=batch_parent,
                        from_level=level.name,
                        to_level=gate.exact_level,
                        margin=request.margin,
                        threshold=gate.threshold,
                    )
                if obs.events.enabled:
                    obs.events.emit(
                        "escalate",
                        f"request {request.id} margin {request.margin:.3f} < "
                        f"{gate.threshold:.3f}: escalating {level.name} -> {gate.exact_level}",
                        request_id=request.id,
                        trace_id=request.trace_id,
                        priority=request.priority,
                        margin=request.margin,
                        threshold=gate.threshold,
                    )
                self.queue.put(request, requeue=True)
            if gate is not None and accepted:
                exact_cycles = state.deployment.levels[gate.exact_index].cycles_per_sample
                self.metrics.record_cascade_completions(len(accepted), exact_cycles)
            for request, prediction in accepted:
                request.complete(int(prediction), level.name, request.service_ms)
