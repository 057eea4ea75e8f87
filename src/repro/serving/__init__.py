"""Load-adaptive inference serving over the DSE Pareto front.

This package turns a design-space-exploration result into a servable
endpoint: the Pareto-optimal designs become runtime *service levels* (skip
masks prebuilt per configuration), a dynamic micro-batching scheduler
coalesces concurrent requests into batched int8 forward passes, and an
adaptive policy picks which service level runs each batch from the live
telemetry -- under light load the exact design, under heavy load a more
aggressive skip configuration, trading accuracy for throughput exactly as
the paper trades accuracy for MCU cycles.

Quick tour::

    from repro.serving import Client, Deployment, Scheduler

    deployment = Deployment.from_dse(qmodel, dse_result, significance, unpacked)
    with Scheduler(deployment, policy="queue-depth", max_batch_size=32) as scheduler:
        client = Client(scheduler)
        classes = client.predict_many(images)        # coalesced into batches
        print(scheduler.metrics.snapshot().as_dict())

Add an HTTP front with :class:`PredictionServer` (thread-per-connection), or
let serving participate in the cached workflow graph through
:class:`repro.workflow.ServeStage`.  Requests carry a priority class
(``interactive``/``standard``/``batch``; the queue serves urgent traffic
first, with an aging bound against starvation) and per-class latency/shed
telemetry flows through :class:`ServerMetrics`.  Policies are pluggable via
:data:`repro.registry.POLICIES`.

One scheduler can serve a whole *deployment table*: pass a mapping (or
sequence) of :class:`Deployment` objects and every request routes to a
model by name, with batches never mixing models and per-deployment policy
state.  A :class:`TenantTable` layers multi-tenancy on top -- each
:class:`TenantConfig` pins a tenant to a model, a default priority class,
an SLO target and token-bucket request quotas, enforced at enqueue with
structured 429s; the queue drains fairly across tenants via smooth
weighted round-robin.

Observability (:mod:`repro.obs`) is wired through the stack: the scheduler
owns an :class:`~repro.obs.Observability` bundle (metrics registry, request
tracer, sampled profiler, event log) and the HTTP front exposes it --
``GET /metrics?format=prometheus``, ``GET /events``, ``GET /trace`` and an
``X-Trace-Id`` header on every prediction.

Beyond one process, :mod:`repro.serving.fleet` runs N replica server
processes behind a :class:`~repro.serving.fleet.FleetRouter` that routes by
least load and *federates* the per-replica observability into one summed
Prometheus exposition, merged traces/events and a fleet ``/healthz``.
"""

from repro.obs import Observability
from repro.serving.client import Client, HTTPClient
from repro.serving.deployment import Deployment, ServiceLevel
from repro.serving.metrics import MetricsSnapshot, ServerMetrics
from repro.serving.policy import (
    CascadeGate,
    CascadePolicy,
    FixedPolicy,
    LatencySLOPolicy,
    QueueDepthPolicy,
    ServingPolicy,
    resolve_policy,
)
from repro.serving.request import (
    DEFAULT_PRIORITY,
    DEFAULT_TENANT,
    PRIORITIES,
    Request,
    RequestError,
    RequestQueue,
    RequestTimedOut,
    priority_rank,
)
from repro.serving.scheduler import Scheduler, SchedulerStopped, UnknownModel
from repro.serving.server import PredictionServer
from repro.serving.tenancy import (
    TenantConfig,
    TenantQuotaExceeded,
    TenantTable,
    TokenBucket,
    UnknownTenant,
)
from repro.serving.workers import ReplicatedRunner

# Fleet last: its modules import the serving submodules above.
from repro.serving.fleet import Fleet, FleetRouter, ReplicaConfig, ReplicaProcess  # noqa: E402

__all__ = [
    "Fleet",
    "FleetRouter",
    "ReplicaConfig",
    "ReplicaProcess",
    "Observability",
    "Client",
    "HTTPClient",
    "Deployment",
    "ServiceLevel",
    "MetricsSnapshot",
    "ServerMetrics",
    "ServingPolicy",
    "CascadeGate",
    "CascadePolicy",
    "FixedPolicy",
    "QueueDepthPolicy",
    "LatencySLOPolicy",
    "resolve_policy",
    "DEFAULT_PRIORITY",
    "DEFAULT_TENANT",
    "PRIORITIES",
    "priority_rank",
    "Request",
    "RequestError",
    "RequestTimedOut",
    "RequestQueue",
    "Scheduler",
    "SchedulerStopped",
    "UnknownModel",
    "UnknownTenant",
    "TenantConfig",
    "TenantQuotaExceeded",
    "TenantTable",
    "TokenBucket",
    "PredictionServer",
    "ReplicatedRunner",
]
