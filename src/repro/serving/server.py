"""Stdlib-only threaded HTTP front end over the batching scheduler.

A ``ThreadingHTTPServer`` accepts concurrent connections; every handler
thread only enqueues requests and blocks on their completion events, so
concurrent HTTP clients are exactly what feeds the scheduler's coalescing
window -- more simultaneous callers means bigger batches, not more model
invocations.  No dependencies beyond ``http.server`` and ``json``.

The stdlib handler in this module is the package's only one: the fleet
router (:class:`~repro.serving.fleet.router.FleetRouter`) runs on it too.
Both servers subclass :class:`HTTPFront`, which owns the listener and the
HTTP framing, and answer ``handle_predict(raw_body, trace_id)`` and
``handle_get(path)``.

Endpoints::

    POST /predict   {"inputs": [[...]] or [[[...]]],
                     "timeout_ms": 50.0 (optional),
                     "priority": "interactive" (optional),
                     "model": "tiny_cnn" (optional; the deployment to run),
                     "tenant": "team-a" (optional; quota/fairness identity)}
                                                      -> predicted classes
    GET  /metrics                                     -> ServerMetrics snapshot
                                                         (per-model and
                                                         per-tenant blocks)
    GET  /metrics?format=prometheus                   -> text exposition format
    GET  /levels                                      -> service-level tables,
                                                         grouped per model
    GET  /events                                      -> structured event ring
    GET  /trace?trace_id=...                          -> buffered request spans
    GET  /healthz                                     -> liveness probe

Every ``POST /predict`` response carries an ``X-Trace-Id`` header naming the
trace its spans were recorded under.  Unknown models are refused with a
structured 404 naming the served models, unknown tenants with a 403 naming
the registered tenants, and over-quota tenants with a 429 (plus a
``Retry-After`` header when the rate bucket predicts the next token).
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs.tracing import Tracer, new_trace_id
from repro.serving.request import PRIORITIES, RequestTimedOut
from repro.serving.scheduler import Scheduler, UnknownModel
from repro.serving.tenancy import TenantQuotaExceeded, UnknownTenant
from repro.utils.logging import get_logger

logger = get_logger("serving.server")

#: Refuse request bodies beyond this size (64 MiB of JSON is already absurd).
MAX_BODY_BYTES = 64 * 1024 * 1024

_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: What a handler answers: a ``dict`` is served as JSON, a ``str`` as
#: ``text/plain`` and ``bytes`` verbatim under the ``Content-Type`` header
#: that comes with them.
Payload = Union[Dict[str, Any], str, bytes]


def sanitize_trace_id(value: Optional[str]) -> Optional[str]:
    """An incoming ``X-Trace-Id`` header value, or ``None`` if unusable.

    The fleet router propagates its trace id to the replica it picks so one
    id covers the whole hop; anything that doesn't look like a trace id
    (huge, spaces, exotic characters) is ignored rather than recorded into
    the span ring.
    """
    if value and _TRACE_ID_RE.match(value):
        return value
    return None


def query_int(query: Dict[str, List[str]], name: str) -> Optional[int]:
    """First integer value of a query parameter, or ``None``."""
    values = query.get(name)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


# --------------------------------------------------------------------------- the one handler
class _Handler(BaseHTTPRequestHandler):
    """HTTP/1.1 framing for the :class:`HTTPFront` at ``self.server.front``."""

    protocol_version = "HTTP/1.1"
    # Headers and body leave as two writes.  With Nagle on, the body waits
    # for the ACK of the headers, which a keep-alive client delays (~40 ms
    # on Linux) -- a stall on every response of a reused connection.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s -- %s", self.address_string(), format % args)

    def _respond(
        self, status: int, payload: Payload, headers: Optional[Dict[str, str]] = None
    ) -> None:
        headers = dict(headers or {})
        if isinstance(payload, bytes):
            body = payload
            content_type = headers.pop("Content-Type", "application/json")
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        status, payload = self.server.front.handle_get(self.path)
        self._respond(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self.close_connection = True
            self._respond(400, {"error": "malformed Content-Length header"})
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            self._respond(400, {"error": "missing or oversized request body"})
            return
        # Read the body before any routing: leaving it unread would
        # desync the next request on a keep-alive connection.
        raw = self.rfile.read(length)
        if self.path != "/predict":
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        front = self.server.front
        status, payload, headers = front.handle_predict(
            raw, sanitize_trace_id(self.headers.get("X-Trace-Id"))
        )
        # The respond span times serialisation + the socket write -- the
        # last leg of the request's journey, on the handler thread.
        tracer = front.respond_tracer
        trace_id = headers.get("X-Trace-Id")
        write_started = time.monotonic()
        self._respond(status, payload, headers)
        if tracer is not None and tracer.enabled and trace_id is not None:
            tracer.record_span("respond", trace_id, write_started, time.monotonic())

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.front._on_connection_end()


class _ThreadingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with a listen backlog sized for burst traffic.

    The stdlib default backlog of 5 resets connections the moment a few
    dozen clients connect at once -- precisely the burst the serving smoke
    and benchmarks throw at the front.
    """

    request_queue_size = 128


class HTTPFront:
    """A TCP listener on the shared stdlib handler, served from a thread.

    This class owns the socket, the serving thread and the HTTP framing
    (body limits, keep-alive, response encoding); subclasses supply the
    answers through :meth:`handle_predict` and :meth:`handle_get`.
    """

    #: Records each ``POST /predict``'s ``respond`` span; ``None`` records none.
    respond_tracer: Optional[Tracer] = None

    def __init__(self, host: str, port: int):
        self._httpd = _ThreadingHTTPServer((host, port), _Handler)
        self._httpd.front = self
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (resolved when constructed with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPFront":
        """Serve in a background thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name=type(self).__name__, daemon=True
            )
            self._thread.start()
            self._on_start()
        return self

    def _on_start(self) -> None:
        """Runs each time :meth:`start` launches the serving thread."""

    def _on_connection_end(self) -> None:
        """Runs on a handler thread when its client connection ends, before the thread exits."""

    def stop(self) -> None:
        """Stop accepting connections and join the serving thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HTTPFront":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def handle_predict(
        self, raw_body: bytes, trace_id: Optional[str]
    ) -> Tuple[int, Payload, Dict[str, str]]:
        """Answer one ``POST /predict`` body: ``(status, payload, headers)``."""
        raise NotImplementedError

    def handle_get(self, path: str) -> Tuple[int, Payload]:
        """Answer one GET of ``path`` (query string included): ``(status, payload)``."""
        raise NotImplementedError


# --------------------------------------------------------------------------- the prediction server
def _failure_response(error: BaseException) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """Map a serving-side failure to its status, body and extra headers."""
    if isinstance(error, TenantQuotaExceeded):
        body: Dict[str, Any] = {"error": str(error), "tenant": error.tenant, "reason": error.reason}
        if error.retry_after_s is None:
            return 429, body, {}
        body["retry_after_s"] = round(error.retry_after_s, 3)
        # Whole seconds, never 0: a rate-limited client must back off.
        return 429, body, {"Retry-After": str(max(1, int(math.ceil(body["retry_after_s"]))))}
    if isinstance(error, UnknownTenant):
        return 403, {
            "error": str(error),
            "tenant": error.tenant,
            "registered_tenants": error.choices,
        }, {}
    if isinstance(error, UnknownModel):
        return 404, {
            "error": str(error),
            "model": error.model,
            "available_models": error.choices,
        }, {}
    if isinstance(error, RequestTimedOut):
        return 504, {"error": f"request shed: {error}"}, {}
    if isinstance(error, TimeoutError):
        return 503, {"error": "prediction timed out"}, {}
    return 503, {"error": str(error)}, {}


class PredictionServer(HTTPFront):
    """HTTP front end: serve a running :class:`Scheduler` on a TCP port.

    Parameters
    ----------
    scheduler:
        The (started) batching scheduler to feed.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    request_timeout_s:
        How long a handler waits for the scheduler before answering 503.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 30.0,
    ):
        super().__init__(host, port)
        self.scheduler = scheduler
        self.request_timeout_s = float(request_timeout_s)
        self.respond_tracer = scheduler.obs.tracer

    # ------------------------------------------------------------------ lifecycle
    def _on_start(self) -> None:
        logger.info("serving %s on %s", ", ".join(self.scheduler.models()), self.url)

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()

    # ------------------------------------------------------------------ request handling
    def handle_predict(
        self, raw_body: bytes, trace_id: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Validate, enqueue and await one ``POST /predict`` body.

        Returns ``(status, response, headers)``.  Shape and type problems get
        generic 400s, unknown tenants a structured 403 naming the registered
        tenants and unknown models a structured 404 naming the served
        models.  Once the body's requests are submitted, the headers carry
        their ``X-Trace-Id``; ``trace_id`` joins an upstream trace (the fleet
        router's ``route`` span) instead of minting a fresh id.
        """
        try:
            payload = json.loads(raw_body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "request body is not valid JSON"}, {}
        # The parse span starts after the JSON decode: it covers validation
        # + enqueue, up to the requests entering the queue.
        parse_started = time.monotonic()
        scheduler = self.scheduler
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        model = payload.get("model")
        if model is not None and not isinstance(model, str):
            return 400, {"error": "'model' is not a string"}, {}
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            return 400, {"error": "'tenant' is not a string"}, {}
        if tenant is not None and tenant not in scheduler.tenants:
            return 403, {
                "error": f"unknown tenant {tenant!r}",
                "tenant": tenant,
                "registered_tenants": scheduler.tenants.names(),
            }, {}
        try:
            model = scheduler.resolve_model(model, tenant=tenant)
        except UnknownModel as failure:
            return _failure_response(failure)
        inputs = payload.get("inputs")
        if inputs is None:
            return 400, {"error": "missing 'inputs' field"}, {}
        try:
            xs = np.asarray(inputs, dtype=np.float32)
        except (TypeError, ValueError):
            return 400, {"error": "'inputs' is not a numeric array"}, {}
        sample_shape = scheduler.deployments[model].qmodel.input_shape
        if xs.shape == sample_shape:
            xs = xs[None, ...]
        if xs.ndim != len(sample_shape) + 1 or xs.shape[1:] != sample_shape:
            return 400, {
                "error": f"model {model!r} expects inputs of per-sample shape "
                f"{list(sample_shape)}, got array of shape {list(xs.shape)}"
            }, {}
        timeout_ms = payload.get("timeout_ms")
        if timeout_ms is not None:
            if isinstance(timeout_ms, bool):  # bool passes float() -- reject explicitly
                return 400, {"error": "'timeout_ms' is not a number"}, {}
            try:
                timeout_ms = float(timeout_ms)
            except (TypeError, ValueError):
                return 400, {"error": "'timeout_ms' is not a number"}, {}
            if timeout_ms <= 0:
                return 400, {"error": "'timeout_ms' must be positive"}, {}
        priority = payload.get("priority")
        if priority is not None and (not isinstance(priority, str) or priority not in PRIORITIES):
            return 400, {
                "error": f"unknown priority {priority!r}; expected one of {list(PRIORITIES)}"
            }, {}

        if trace_id is None:
            trace_id = new_trace_id()
        headers = {"X-Trace-Id": trace_id}
        try:
            requests = scheduler.submit_many(
                xs,
                timeout_ms=timeout_ms,
                priority=priority,
                trace_id=trace_id,
                model=model,
                tenant=tenant,
            )
            tracer = scheduler.obs.tracer
            if tracer.enabled:
                tracer.record_span(
                    "parse", trace_id, parse_started, time.monotonic(), n_samples=len(requests)
                )
            # One deadline for the whole body, not per request -- a stalled
            # scheduler must 503 after request_timeout_s, however many
            # samples the POST carried.
            deadline = time.monotonic() + self.request_timeout_s
            for request in requests:
                request.result(timeout=max(deadline - time.monotonic(), 0.001))
        except Exception as failure:
            status, body, extra_headers = _failure_response(failure)
            headers.update(extra_headers)
            return status, body, headers
        return 200, {
            "classes": [request.prediction for request in requests],
            "levels": [request.level_name for request in requests],
            "priority": requests[0].priority,
            "model": requests[0].model,
            "tenant": requests[0].tenant,
            "wait_ms": [round(request.wait_ms, 3) for request in requests],
            "service_ms": [round(request.service_ms, 3) for request in requests],
            "trace_id": requests[0].trace_id,
        }, headers

    def handle_get(self, path: str) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Execute one introspection GET; returns ``(status, payload)``.

        A ``dict`` payload is served as JSON, a ``str`` payload as
        ``text/plain`` (the Prometheus exposition).
        """
        scheduler = self.scheduler
        parts = urlsplit(path)
        query = parse_qs(parts.query)
        route = parts.path
        if route == "/healthz":
            return 200, {"status": "ok" if scheduler.running else "stopped"}
        if route == "/metrics":
            if query.get("format", [""])[0] == "prometheus":
                return 200, scheduler.metrics.render_prometheus(queue_depth=scheduler.queue.depth())
            snapshot = scheduler.metrics.snapshot(queue_depth=scheduler.queue.depth())
            payload = snapshot.as_dict()
            profile = scheduler.obs.profiler.snapshot()
            if profile:
                payload["profile"] = profile
            return 200, payload
        if route == "/levels":
            # Grouped per model; the flat "levels" key keeps describing the
            # default model so single-model clients see the PR-2 shape.
            return 200, {
                "levels": scheduler.deployment.describe(),
                "default_model": scheduler.default_model,
                "models": {
                    name: deployment.describe()
                    for name, deployment in scheduler.deployments.items()
                },
            }
        if route == "/events":
            limit = query_int(query, "limit")
            kind = query.get("kind", [None])[0]
            return 200, {"events": scheduler.obs.events.snapshot(limit=limit, kind=kind)}
        if route == "/trace":
            trace_id = query.get("trace_id", [None])[0]
            spans = scheduler.obs.tracer.spans(trace_id=trace_id)
            limit = query_int(query, "limit")
            if limit is None and trace_id is None:
                limit = 256  # bounded by default: the whole ring can be 4096 spans
            if limit is not None and limit >= 0:
                spans = spans[-limit:]
            return 200, {"spans": [span.as_dict() for span in spans]}
        return 404, {"error": f"unknown path {path!r}"}
