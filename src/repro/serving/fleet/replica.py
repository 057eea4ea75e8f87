"""Replica server processes: one scheduler + deployment + obs bundle each.

A replica is a full single-node serving stack running in its own OS process:
its own :class:`~repro.serving.scheduler.Scheduler`, its own HTTP front on
an ephemeral port, and -- the part federation depends on -- its own
:class:`~repro.obs.Observability` bundle whose
:class:`~repro.obs.metrics.MetricsRegistry` carries a ``replica="i"`` const
label, so every Prometheus series it renders is attributable and summable
by the router.

The parent communicates over a :class:`multiprocessing.Pipe`: the child
sends ``("ready", port)`` once its front is listening, the parent sends
``"stop"`` (or just dies -- replicas are daemonic and also honour SIGTERM)
to trigger a graceful scheduler shutdown.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.utils.logging import get_logger

logger = get_logger("serving.fleet.replica")

#: Replicas fork on POSIX (no pickling of the deployment, instant start);
#: platforms without fork fall back to the default (spawn) context, for
#: which :class:`~repro.serving.deployment.Deployment` is picklable anyway.
try:
    _MP = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX fallback
    _MP = multiprocessing.get_context()


@dataclass
class ReplicaConfig:
    """Scheduler/server configuration applied to every replica uniformly."""

    policy: Any = "queue-depth"
    max_batch_size: int = 32
    max_wait_ms: float = 5.0
    starvation_ms: Optional[float] = 2000.0
    n_workers: int = 1
    profile_every: int = 0
    trace_capacity: int = 4096
    event_capacity: int = 512
    request_timeout_s: float = 30.0
    host: str = "127.0.0.1"
    #: Extra policy keyword arguments (e.g. ``depth_per_level``); kept as a
    #: dict so the config stays picklable for spawn-based platforms.
    policy_options: Dict[str, Any] = field(default_factory=dict)
    #: Tenant configurations as plain dicts (``TenantConfig.as_dict()``
    #: shape) so the config stays picklable; each replica rebuilds its own
    #: :class:`~repro.serving.tenancy.TenantTable` (token buckets are
    #: per-process state and must not be shared across forks).
    tenants: Optional[list] = None


def _resolve_policy(config: ReplicaConfig):
    """Build the per-replica policy instance from the config."""
    if not isinstance(config.policy, str) or not config.policy_options:
        return config.policy
    from repro.registry import POLICIES

    return POLICIES.resolve(config.policy)(**config.policy_options)


def _replica_main(index: int, deployment: Any, config: ReplicaConfig, conn) -> None:
    """Child-process entry point: serve until told (or signalled) to stop."""
    from repro.obs import MetricsRegistry, Observability
    from repro.serving.scheduler import Scheduler
    from repro.serving.server import PredictionServer
    from repro.serving.tenancy import TenantTable

    registry = MetricsRegistry(const_labels={"replica": str(index)})
    obs = Observability(
        registry=registry,
        trace_capacity=config.trace_capacity,
        profile_every=config.profile_every,
        event_capacity=config.event_capacity,
    )
    tenants = TenantTable.from_dicts(config.tenants) if config.tenants else None
    scheduler = Scheduler(
        deployment,
        policy=_resolve_policy(config),
        max_batch_size=config.max_batch_size,
        max_wait_ms=config.max_wait_ms,
        n_workers=config.n_workers,
        starvation_ms=config.starvation_ms,
        obs=obs,
        tenants=tenants,
    )
    scheduler.start()
    front = PredictionServer(
        scheduler, host=config.host, port=0, request_timeout_s=config.request_timeout_s
    )
    front.start()
    obs.events.emit("replica-start", f"replica {index} serving", port=front.port)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # Ctrl-C in a terminal hits the WHOLE foreground process group -- the
    # replicas must not die from the raw KeyboardInterrupt, or the router
    # loses their span rings before it can export the merged trace.  The
    # parent coordinates shutdown over the pipe (or SIGTERM) instead.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(("ready", front.port))
    try:
        while not stop.is_set():
            # Poll the control pipe with a bounded wait so SIGTERM (which
            # only sets the event) is noticed promptly too.
            if conn.poll(0.2):
                try:
                    message = conn.recv()
                except EOFError:  # parent died without a goodbye
                    break
                if message == "stop":
                    break
    finally:
        front.stop()
        scheduler.stop()
        try:
            conn.send(("stopped", index))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
        conn.close()


class ReplicaProcess:
    """Parent-side handle of one replica server process.

    Parameters
    ----------
    index:
        Replica number; becomes the ``replica="index"`` const label on the
        child's metrics registry.
    deployment:
        The servable model + levels every replica serves -- a single
        :class:`~repro.serving.deployment.Deployment` or a mapping/sequence
        of them for a multi-model replica (picklable either way, so the
        same object fans out to N processes).
    config:
        Shared :class:`ReplicaConfig`; defaults match ``repro-tinyml serve``.
    """

    def __init__(
        self,
        index: int,
        deployment: Any,
        config: Optional[ReplicaConfig] = None,
    ):
        self.index = int(index)
        self.name = str(index)
        self.config = config if config is not None else ReplicaConfig()
        self.port: Optional[int] = None
        self._conn, child_conn = _MP.Pipe()
        self._process = _MP.Process(
            target=_replica_main,
            args=(self.index, deployment, self.config, child_conn),
            name=f"repro-replica-{self.index}",
            daemon=True,
        )
        self._child_conn = child_conn

    # ------------------------------------------------------------------ lifecycle
    def start(self) -> "ReplicaProcess":
        """Spawn the child process (non-blocking; see :meth:`wait_ready`)."""
        if not self._process.is_alive() and self._process.exitcode is None:
            self._process.start()
            self._child_conn.close()
        return self

    def wait_ready(self, timeout_s: float = 60.0) -> "ReplicaProcess":
        """Block until the child reports its bound port."""
        if self.port is not None:
            return self
        if not self._conn.poll(timeout_s):
            self.stop()
            raise RuntimeError(f"replica {self.index} did not come up within {timeout_s:.0f}s")
        kind, payload = self._conn.recv()
        if kind != "ready":  # pragma: no cover - protocol violation
            self.stop()
            raise RuntimeError(f"replica {self.index} sent {kind!r} instead of 'ready'")
        self.port = int(payload)
        logger.info("replica %d ready on port %d (pid %d)", self.index, self.port,
                    self._process.pid)
        return self

    @property
    def url(self) -> str:
        """Base URL of the replica's HTTP front (after :meth:`wait_ready`)."""
        if self.port is None:
            raise RuntimeError(f"replica {self.index} is not ready yet")
        return f"http://{self.config.host}:{self.port}"

    @property
    def alive(self) -> bool:
        """Whether the child process is running."""
        return self._process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """Child process id (``None`` before :meth:`start`)."""
        return self._process.pid

    def kill(self) -> None:
        """Hard-kill the child (used by tests to simulate a crashed replica)."""
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: ask over the pipe, escalate to SIGTERM, then kill."""
        if self._process.pid is None:
            return
        if self._process.is_alive():
            try:
                self._conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=timeout_s)
        if self._process.is_alive():  # pragma: no cover - stuck child
            self._process.terminate()
            self._process.join(timeout=2.0)
        if self._process.is_alive():  # pragma: no cover - very stuck child
            self._process.kill()
            self._process.join(timeout=2.0)
        self._conn.close()
