"""Requests, priority classes and the priority-aware request queue.

A :class:`Request` carries one input sample through the serving stack: the
HTTP front (or the in-process :class:`~repro.serving.client.Client`) enqueues
it, the :class:`~repro.serving.scheduler.Scheduler` coalesces pending
requests into a batch, runs them through the model and completes each request
with its predicted class.  Completion is signalled through a
``threading.Event`` (front-end threads block on :meth:`Request.result`) and
through :meth:`Request.add_done_callback` (the scheduler returns the
request's tenant quota slot from it).

Every request belongs to one of three *priority classes* -- in the spirit of
packet classification on network switches, where latency-critical flows are
queued ahead of bulk transfers:

``interactive``
    Latency-critical traffic.  Served first; under load these requests ride
    whatever service level the policy picked while bulk traffic absorbs the
    queueing delay.
``standard``
    The default class.
``batch``
    Bulk/offline traffic.  Served only when no higher class is waiting,
    subject to the starvation bound below.

:meth:`RequestQueue.get_batch` implements the dynamic micro-batching window:
it blocks until at least one request is pending, then keeps coalescing
arrivals until either ``max_batch_size`` requests are collected or
``max_wait_ms`` has elapsed since the batch leader was picked.  The batch is
filled in priority order -- a class is drained before the pop spills down to
the next class -- with one exception: a request that has waited longer than
``starvation_ms`` is served ahead of everything, whatever its class, so
sustained interactive load cannot starve the batch class forever.

Within a priority class, requests are no longer a single FIFO: each tenant
gets its own FIFO lane and the pop rotates across tenants with *smooth
weighted round-robin* (the nginx variant: every non-empty tenant earns its
weight in credit per pop, the richest tenant is served and pays the total
weight back).  A tenant flooding the queue therefore cannot monopolise its
priority class -- other tenants keep draining in proportion to their
configured weights -- while single-tenant deployments degrade to the old
strict-FIFO behaviour.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.tracing import new_trace_id

_request_ids = itertools.count()

#: Priority classes, most urgent first.  The index is the priority rank.
PRIORITIES: Tuple[str, ...] = ("interactive", "standard", "batch")

#: The class assigned when a request does not specify one.
DEFAULT_PRIORITY = "standard"

#: The tenant assigned when a request does not specify one.  The default
#: tenant always exists (unlimited quota, weight 1.0) so single-tenant
#: deployments need no tenant table at all.
DEFAULT_TENANT = "default"


def priority_rank(priority: str) -> int:
    """Rank of a priority class (0 = most urgent); raises on unknown names."""
    try:
        return PRIORITIES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of {list(PRIORITIES)}"
        ) from None


class RequestError(RuntimeError):
    """Raised by :meth:`Request.result` when serving a request failed."""


class RequestTimedOut(RequestError):
    """The request's per-request deadline expired before it was served.

    Raised by :meth:`Request.result` for requests the scheduler shed; a shed
    request never reaches the model, so the cycles it would have cost are
    saved for requests that can still meet their deadline.
    """


class Request:
    """One in-flight prediction request.

    Parameters
    ----------
    x:
        A single float input sample (per-sample shape, e.g. ``(H, W, C)``).
    timeout_ms:
        Optional per-request deadline: if the request is still queued when
        ``timeout_ms`` milliseconds have passed since it was enqueued, the
        scheduler sheds it with :class:`RequestTimedOut` instead of serving
        a prediction nobody is waiting for anymore.
    priority:
        Priority class (one of :data:`PRIORITIES`); defaults to
        ``"standard"``.
    trace_id:
        Observability trace id linking this request's spans; generated when
        omitted so in-process submissions are traceable too.
    model:
        Deployment name this request targets.  ``None`` means "the server's
        default model"; the scheduler resolves and validates the name at
        submit time, so a request inside the queue always carries a concrete
        model name and batches can be partitioned without lookups.
    tenant:
        Tenant name for quota accounting and weighted fair queueing;
        defaults to :data:`DEFAULT_TENANT`.
    """

    __slots__ = (
        "id",
        "trace_id",
        "x",
        "model",
        "tenant",
        "enqueued_at",
        "submitted_at",
        "timeout_ms",
        "deadline",
        "priority",
        "level_name",
        "prediction",
        "wait_ms",
        "service_ms",
        "attempts",
        "pinned_level",
        "escalated",
        "margin",
        "error",
        "_done",
        "_callbacks",
        "_callback_lock",
    )

    def __init__(
        self,
        x: np.ndarray,
        timeout_ms: Optional[float] = None,
        priority: str = DEFAULT_PRIORITY,
        trace_id: Optional[str] = None,
        model: Optional[str] = None,
        tenant: str = DEFAULT_TENANT,
    ):
        if timeout_ms is not None and float(timeout_ms) <= 0:
            raise ValueError("timeout_ms must be positive (or None for no deadline)")
        priority_rank(priority)  # validate eagerly, before the queue sees it
        if not isinstance(tenant, str) or not tenant:
            raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
        self.id = next(_request_ids)
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.x = np.asarray(x, dtype=np.float32)
        self.model: Optional[str] = None if model is None else str(model)
        self.tenant = tenant
        self.enqueued_at = time.monotonic()
        #: First-enqueue time; unlike ``enqueued_at`` it survives a cascade
        #: re-enqueue, so end-to-end latency spans both attempts.
        self.submitted_at = self.enqueued_at
        self.timeout_ms: Optional[float] = None if timeout_ms is None else float(timeout_ms)
        self.deadline: Optional[float] = None
        self._arm_deadline()
        self.priority = priority
        self.level_name: Optional[str] = None
        self.prediction: Optional[int] = None
        self.wait_ms: float = 0.0
        self.service_ms: float = 0.0
        #: Forward passes this request has been part of (2 after escalation).
        self.attempts: int = 0
        #: Level index the scheduler must serve this request at (cascade
        #: escalations pin the exact level); ``None`` follows the policy.
        self.pinned_level: Optional[int] = None
        #: Whether the cascade escalated this request to the exact level.
        self.escalated: bool = False
        #: Softmax margin observed at the cheap level (cascade only).
        self.margin: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()
        self._callbacks: List = []
        self._callback_lock = threading.Lock()

    def _arm_deadline(self) -> None:
        """(Re)compute the absolute deadline from ``enqueued_at``."""
        if self.timeout_ms is not None:
            self.deadline = self.enqueued_at + self.timeout_ms / 1000.0

    @property
    def expired(self) -> bool:
        """Whether the per-request deadline has passed (False without one)."""
        return self.deadline is not None and time.monotonic() > self.deadline

    @property
    def done(self) -> bool:
        """Whether the request has been completed (or failed)."""
        return self._done.is_set()

    def add_done_callback(self, callback) -> None:
        """Call ``callback(request)`` once the request completes or fails.

        The callback runs on whichever thread completes the request (the
        scheduler core) -- or immediately on the calling thread if the
        request is already done.  The scheduler releases the request's
        tenant in-flight slot this way, whichever terminal state it reaches.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _finish(self) -> None:
        """Set the done event and fire the registered callbacks exactly once."""
        with self._callback_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def complete(self, prediction: int, level_name: str, service_ms: float) -> None:
        """Fill in the result and wake any thread waiting on :meth:`result`."""
        self.prediction = int(prediction)
        self.level_name = level_name
        self.service_ms = float(service_ms)
        self._finish()

    def fail(self, error: BaseException) -> None:
        """Record a serving failure and wake waiters."""
        self.error = error
        self._finish()

    def result(self, timeout: Optional[float] = None) -> int:
        """Block until the request completes; return the predicted class.

        Raises
        ------
        TimeoutError
            If the request is not completed within ``timeout`` seconds.
        RequestError
            If the scheduler failed the request.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.id} not completed within {timeout}s")
        if self.error is not None:
            if isinstance(self.error, RequestError):
                raise self.error  # preserve the distinct error type (e.g. shed)
            raise RequestError(f"request {self.id} failed: {self.error}") from self.error
        assert self.prediction is not None
        return self.prediction


class RequestQueue:
    """Thread-safe priority queue with tenant-fair, batch-coalescing pops.

    Producers (front-end threads) call :meth:`put`; the single scheduler
    consumer calls :meth:`get_batch`.  Internally the queue holds one FIFO
    deque per ``(priority class, tenant)`` pair: pops drain the most urgent
    non-empty class first, and *within* a class rotate across tenants with
    smooth weighted round-robin, except that a request older than
    ``starvation_ms`` is always served next (the starvation bound: however
    relentless the interactive load, a batch-class request waits at most
    ``starvation_ms`` plus one batch's service time).

    Parameters
    ----------
    starvation_ms:
        Age at which a queued request of *any* class jumps ahead of the
        priority order.  ``None`` disables aging (strict priority).
    tenant_weights:
        Draining weight per tenant name (default 1.0).  The mapping may be
        shared/mutated by the owner (the scheduler points it at its tenant
        table's weights), so weight changes apply to queued traffic.
    """

    def __init__(
        self,
        starvation_ms: Optional[float] = 2000.0,
        tenant_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if starvation_ms is not None and float(starvation_ms) <= 0:
            raise ValueError("starvation_ms must be positive (or None for strict priority)")
        self.starvation_ms = None if starvation_ms is None else float(starvation_ms)
        #: Optional :class:`~repro.obs.events.EventLog`; when set (the
        #: scheduler wires its own), starvation promotions are recorded.
        self.events = None
        self.tenant_weights: Dict[str, float] = (
            tenant_weights if tenant_weights is not None else {}
        )
        #: priority class -> tenant -> FIFO deque (empty deques are pruned).
        self._classes: Dict[str, Dict[str, Deque[Request]]] = {
            name: {} for name in PRIORITIES
        }
        #: priority class -> tenant -> smooth-WRR credit.
        self._credits: Dict[str, Dict[str, float]] = {name: {} for name in PRIORITIES}
        self._size = 0
        self._model_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def put(self, request: Request, requeue: bool = False) -> None:
        """Enqueue a request (FIFO within its tenant lane); deadline starts here.

        ``requeue=True`` is the cascade-escalation path: the request goes
        back in the queue for a second (exact-level) attempt, so only
        ``enqueued_at`` is refreshed -- the second queue wait is measured
        from the re-enqueue -- while ``submitted_at`` and the absolute
        deadline are preserved.  Re-arming the deadline here would quietly
        grant every escalated request a fresh timeout budget.
        """
        priority_rank(request.priority)  # defensive: reject unknown classes
        with self._not_empty:
            request.enqueued_at = time.monotonic()
            if not requeue:
                request.submitted_at = request.enqueued_at
                request._arm_deadline()
            lanes = self._classes[request.priority]
            lane = lanes.get(request.tenant)
            if lane is None:
                lane = lanes[request.tenant] = deque()
            lane.append(request)
            self._size += 1
            if request.model is not None:
                self._model_counts[request.model] = (
                    self._model_counts.get(request.model, 0) + 1
                )
            self._not_empty.notify()

    def depth(self, model: Optional[str] = None) -> int:
        """Requests currently waiting -- all of them, or for one model."""
        with self._lock:
            if model is None:
                return self._size
            return self._model_counts.get(model, 0)

    def depth_by_priority(self) -> Dict[str, int]:
        """Waiting requests per priority class."""
        with self._lock:
            return {
                name: sum(len(lane) for lane in lanes.values())
                for name, lanes in self._classes.items()
            }

    def depth_by_tenant(self) -> Dict[str, int]:
        """Waiting requests per tenant (across all priority classes)."""
        with self._lock:
            depths: Dict[str, int] = {}
            for lanes in self._classes.values():
                for tenant, lane in lanes.items():
                    depths[tenant] = depths.get(tenant, 0) + len(lane)
            return depths

    def _note_pop(self, request: Request) -> None:
        """Bookkeeping shared by every pop path (lock held)."""
        self._size -= 1
        if request.model is not None:
            left = self._model_counts.get(request.model, 0) - 1
            if left > 0:
                self._model_counts[request.model] = left
            else:
                self._model_counts.pop(request.model, None)

    def _prune_lane(self, name: str, tenant: str) -> None:
        """Drop an emptied tenant lane and its WRR credit (lock held)."""
        lanes = self._classes[name]
        if not lanes[tenant]:
            del lanes[tenant]
            self._credits[name].pop(tenant, None)

    def _pop_from_class(self, name: str) -> Request:
        """Smooth-WRR pop across the non-empty tenant lanes of one class.

        Each round every waiting tenant earns its weight in credit; the
        richest tenant (ties broken by name for determinism) is served and
        pays back the sum of all weights.  Over N pops with tenants A:B at
        weights 2:1 this converges to a 2:1 service share while keeping the
        schedule smooth (A A B, not A A ... B).
        """
        lanes = self._classes[name]
        if len(lanes) == 1:
            tenant = next(iter(lanes))
        else:
            credits = self._credits[name]
            total = 0.0
            for t in lanes:
                weight = max(float(self.tenant_weights.get(t, 1.0)), 1e-9)
                credits[t] = credits.get(t, 0.0) + weight
                total += weight
            tenant = max(sorted(lanes), key=lambda t: credits[t])
            credits[tenant] -= total
        request = lanes[tenant].popleft()
        self._note_pop(request)
        self._prune_lane(name, tenant)
        return request

    def _pop_next(self, now: float) -> Request:
        """Pop the next request under priority-with-aging order (lock held)."""
        if self.starvation_ms is not None:
            bound = self.starvation_ms / 1000.0
            starved: Optional[Tuple[str, str]] = None
            oldest = now
            for name, lanes in self._classes.items():
                for tenant, lane in lanes.items():
                    head = lane[0]
                    if now - head.enqueued_at > bound and head.enqueued_at < oldest:
                        starved, oldest = (name, tenant), head.enqueued_at
            if starved is not None:
                name, tenant = starved
                request = self._classes[name][tenant].popleft()
                self._note_pop(request)
                self._prune_lane(name, tenant)
                if self.events is not None:
                    # Only a promotion when a more urgent class was waiting;
                    # a starved head of the most urgent non-empty class would
                    # have been popped anyway.
                    jumped = any(
                        self._classes[other]
                        for other in PRIORITIES[: priority_rank(request.priority)]
                    )
                    if jumped:
                        self.events.emit(
                            "starvation-promotion",
                            f"request {request.id} promoted past the priority order",
                            request_id=request.id,
                            priority=request.priority,
                            tenant=request.tenant,
                            waited_ms=round((now - request.enqueued_at) * 1e3, 3),
                        )
                return request
        for name in PRIORITIES:
            if self._classes[name]:
                return self._pop_from_class(name)
        raise IndexError("pop from an empty RequestQueue")  # pragma: no cover - guarded

    def get_batch(
        self,
        max_batch_size: int,
        max_wait_ms: float,
        poll_timeout: float = 0.05,
    ) -> List[Request]:
        """Pop up to ``max_batch_size`` requests, coalescing briefly.

        Blocks up to ``poll_timeout`` seconds for the first request; returns
        an empty list if none arrives (so the scheduler loop can check its
        shutdown flag instead of blocking forever).  Once a batch leader is
        present, arrivals are coalesced until the batch is full or
        ``max_wait_ms`` has elapsed -- a queue already holding a full batch
        pays no wait at all.  The batch is assembled in priority order
        (aging aside), so an interactive arrival during the coalescing
        window still rides the very next batch.
        """
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        with self._not_empty:
            if not self._size and not self._not_empty.wait(timeout=poll_timeout):
                return []
            deadline = time.monotonic() + max_wait_ms / 1000.0
            while self._size < max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._not_empty.wait(timeout=remaining):
                    break
            now = time.monotonic()
            batch = [self._pop_next(now) for _ in range(min(max_batch_size, self._size))]
        return batch

    def drain(self, error: BaseException) -> List[Request]:
        """Fail every pending request (shutdown path); returns them.

        Returning the requests (not just a count) lets the caller attribute
        the failures per priority class in its metrics.
        """
        with self._lock:
            pending = [
                request
                for lanes in self._classes.values()
                for lane in lanes.values()
                for request in lane
            ]
            for name in PRIORITIES:
                self._classes[name] = {}
                self._credits[name] = {}
            self._size = 0
            self._model_counts = {}
        for request in pending:
            request.fail(error)
        return pending
