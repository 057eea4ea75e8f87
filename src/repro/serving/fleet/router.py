"""The fleet router: least-load request routing + federated observability.

One :class:`FleetRouter` fronts N replica server processes:

* ``POST /predict`` is forwarded -- body bytes untouched -- to the healthy
  replica with the fewest in-flight router requests (round-robin among
  ties), with automatic failover to the next replica when a connection
  dies mid-forward.  Priority classes ride inside the JSON body, so
  priority pass-through is free.  The router propagates one ``X-Trace-Id``
  (the client's, or a fresh one) to the replica and stamps its own
  ``route`` span under that id: the merged trace shows the full hop.
* ``GET /metrics?format=prometheus`` scrapes every replica's exposition,
  parses it back into series (:mod:`repro.obs.exposition`), sums counters
  and histograms across the ``replica=`` labels, keeps gauges per-replica,
  and re-renders one fleet-wide exposition (router's own series included).
* ``GET /metrics`` returns a JSON rollup plus the per-replica snapshots.
* ``GET /trace`` / ``GET /events`` merge the per-replica span rings and
  event logs with replica attribution, sorted on the wall clock.
* ``GET /healthz`` reports ``ok`` / ``degraded`` / ``down`` from a
  background probe loop; a replica that stops answering is routed around
  until its probe succeeds again.

Shutdown drains: new predictions get 503 while in-flight forwards finish
(bounded by ``drain_timeout_s``), then the listener closes.  The router
serves on the same stdlib handler as the replicas it fronts: both are
:class:`~repro.serving.server.HTTPFront` subclasses.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.obs import MetricsRegistry, Observability, new_trace_id
from repro.obs.exposition import federate_families, parse_prometheus, render_families
from repro.obs.metrics import LATENCY_BUCKETS_MS
from repro.serving.fleet.federation import merge_events, merge_spans, rollup_snapshots
from repro.serving.server import HTTPFront, query_int
from repro.utils.logging import get_logger

logger = get_logger("serving.fleet.router")

#: Timeout for health probes and observability scrapes (not the data path).
PROBE_TIMEOUT_S = 5.0


class _ReplicaState:
    """Router-side view of one replica: health + in-flight accounting."""

    __slots__ = ("name", "url", "up", "inflight")

    def __init__(self, name: str, url: str):
        self.name = name
        self.url = url
        self.up = True
        self.inflight = 0


class FleetRouter(HTTPFront):
    """HTTP front tier routing to replica servers and federating their obs.

    Parameters
    ----------
    replicas:
        Objects with ``name`` and ``url`` attributes (usually
        :class:`~repro.serving.fleet.replica.ReplicaProcess` handles, but
        anything HTTP-addressable works -- the router only speaks HTTP).
    host, port:
        Bind address; ``port=0`` picks a free port.
    request_timeout_s:
        Per-forward socket timeout on the data path.
    health_interval_s:
        Cadence of the background ``/healthz`` probe over every replica.
    drain_timeout_s:
        How long :meth:`stop` waits for in-flight forwards before closing.
    """

    def __init__(
        self,
        replicas: Sequence[Any],
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout_s: float = 60.0,
        health_interval_s: float = 1.0,
        drain_timeout_s: float = 10.0,
    ):
        if not replicas:
            raise ValueError("a fleet router needs at least one replica")
        self.request_timeout_s = float(request_timeout_s)
        self.health_interval_s = float(health_interval_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self._states = [_ReplicaState(str(r.name), str(r.url)) for r in replicas]
        self._by_name = {state.name: state for state in self._states}
        self._lock = threading.Lock()
        self._rr = 0  # round-robin tiebreak cursor
        self._draining = False

        self.obs = Observability(registry=MetricsRegistry(const_labels={"replica": "router"}))
        self.obs.registry.enable_target_metadata()
        reg = self.obs.registry
        self._c_routed = reg.counter(
            "repro_router_requests_total", "Requests forwarded, by target replica.", ("target",)
        )
        self._c_errors = reg.counter(
            "repro_router_errors_total",
            "Forward failures (connection errors), by target replica.",
            ("target",),
        )
        self._c_unrouted = reg.counter(
            "repro_router_unrouted_total", "Requests no healthy replica could take."
        )
        self._h_route = reg.histogram(
            "repro_router_route_ms",
            "Router forward latency (send + replica answer), by target replica.",
            ("target",),
            buckets=LATENCY_BUCKETS_MS,
        )
        self._g_up = reg.gauge(
            "repro_replica_up", "1 when the router's probe sees the replica healthy.", ("target",)
        )
        for state in self._states:
            self._g_up.set(1, target=state.name)

        self._local = threading.local()  # per-handler-thread keep-alive links
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        super().__init__(host, port)

    # ------------------------------------------------------------------ lifecycle
    def _on_start(self) -> None:
        self._health_stop.clear()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="fleet-health", daemon=True
        )
        self._health_thread.start()
        logger.info("fleet router on %s over %d replicas", self.url, len(self._states))

    def begin_drain(self) -> None:
        """Refuse new predictions; in-flight forwards keep running."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
        self.obs.events.emit("drain-start", "router draining: new predictions get 503")

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally), stop probing, close the listener."""
        if drain:
            self.begin_drain()
            deadline = time.monotonic() + self.drain_timeout_s
            while time.monotonic() < deadline:
                with self._lock:
                    pending = sum(state.inflight for state in self._states)
                if pending == 0:
                    break
                time.sleep(0.02)
            self.obs.events.emit(
                "drain-complete", "router drained",
                pending=sum(state.inflight for state in self._states),
            )
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        super().stop()

    # ------------------------------------------------------------------ routing
    def _pick(self, exclude: frozenset) -> Optional[_ReplicaState]:
        """Least-load healthy replica not yet attempted (round-robin ties)."""
        with self._lock:
            candidates = [
                state for state in self._states if state.up and state.name not in exclude
            ]
            if not candidates:
                return None
            n = len(self._states)
            self._rr = (self._rr + 1) % n
            rr = self._rr
            chosen = min(
                candidates,
                key=lambda state: (state.inflight, (self._states.index(state) - rr) % n),
            )
            chosen.inflight += 1
            return chosen

    def _release(self, state: _ReplicaState) -> None:
        with self._lock:
            state.inflight -= 1

    def _mark(self, state: _ReplicaState, up: bool, reason: str = "") -> None:
        """Record a health transition (idempotent per state)."""
        with self._lock:
            changed = state.up != up
            state.up = up
        if not changed:
            return
        self._g_up.set(1 if up else 0, target=state.name)
        if up:
            self.obs.events.emit("replica-up", f"replica {state.name} back in rotation")
        else:
            self.obs.events.emit(
                "replica-down", f"replica {state.name} out of rotation",
                level="warning", reason=reason,
            )

    def _link(self, state: _ReplicaState) -> http.client.HTTPConnection:
        """This handler thread's keep-alive connection to one replica."""
        links = getattr(self._local, "links", None)
        if links is None:
            links = self._local.links = {}
        link = links.get(state.name)
        if link is None:
            parts = urlsplit(state.url)
            link = http.client.HTTPConnection(
                parts.hostname, parts.port, timeout=self.request_timeout_s
            )
            links[state.name] = link
        return link

    def _on_connection_end(self) -> None:
        """Close the ending handler thread's links: nothing else would before the collector."""
        for link in (getattr(self._local, "links", None) or {}).values():
            link.close()
        self._local.links = None

    def _forward(
        self, state: _ReplicaState, body: bytes, trace_id: str
    ) -> Tuple[int, bytes, str]:
        """One forward over the thread's keep-alive link (retry once if stale)."""
        headers = {"Content-Type": "application/json", "X-Trace-Id": trace_id}
        link = self._link(state)
        for attempt in (0, 1):
            try:
                link.request("POST", "/predict", body=body, headers=headers)
                response = link.getresponse()
                data = response.read()
                content_type = response.getheader("Content-Type", "application/json")
                return response.status, data, content_type
            except (http.client.HTTPException, OSError):
                # A parked keep-alive link goes stale when the replica closes
                # it between bursts: reconnect once before declaring failure.
                link.close()
                if attempt:
                    raise
        raise RuntimeError("unreachable")  # pragma: no cover

    def handle_predict(
        self, raw_body: bytes, trace_id: Optional[str]
    ) -> Tuple[int, Union[bytes, Dict[str, Any]], Dict[str, str]]:
        """Route one ``POST /predict`` body; returns (status, payload, headers).

        The replica's answer is relayed verbatim (its ``Content-Type`` rides
        in the headers); ``trace_id`` is the client's ``X-Trace-Id``, or
        ``None`` for a fresh one.
        """
        trace_id = trace_id or new_trace_id()
        response_headers = {"X-Trace-Id": trace_id}
        with self._lock:
            draining = self._draining
        if draining:
            return 503, {"error": "router is draining"}, response_headers
        attempted: set = set()
        for _ in range(len(self._states)):
            state = self._pick(frozenset(attempted))
            if state is None:
                break
            attempted.add(state.name)
            started = time.monotonic()
            try:
                status, data, content_type = self._forward(state, raw_body, trace_id)
            except (http.client.HTTPException, OSError) as failure:
                self._release(state)
                self._c_errors.inc(target=state.name)
                self._mark(state, up=False, reason=str(failure))
                continue  # failover: try the next-least-loaded replica
            ended = time.monotonic()
            self._release(state)
            self._c_routed.inc(target=state.name)
            self._h_route.observe((ended - started) * 1e3, target=state.name)
            if self.obs.tracer.enabled:
                self.obs.tracer.record_span(
                    "route", trace_id, started, ended, target=state.name, status=status
                )
            response_headers["Content-Type"] = content_type
            response_headers["X-Routed-To"] = state.name
            return status, data, response_headers
        self._c_unrouted.inc()
        return 503, {"error": "no healthy replica available"}, response_headers

    # ------------------------------------------------------------------ health
    def _probe(self, state: _ReplicaState) -> None:
        try:
            payload = self._scrape_json(state, "/healthz", timeout=PROBE_TIMEOUT_S)
            healthy = payload.get("status") == "ok"
        except (OSError, ValueError, http.client.HTTPException):
            healthy = False
        self._mark(state, up=healthy, reason="health probe failed")

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.health_interval_s):
            for state in self._states:
                self._probe(state)

    def health(self) -> Dict[str, Any]:
        """The fleet health view served on ``GET /healthz``."""
        with self._lock:
            states = [(state.name, state.url, state.up, state.inflight)
                      for state in self._states]
            draining = self._draining
        up = sum(1 for _, _, ok, _ in states if ok)
        if draining:
            status = "draining"
        elif up == len(states):
            status = "ok"
        elif up > 0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "replicas_up": up,
            "replicas_total": len(states),
            "replicas": {
                name: {"url": url, "status": "ok" if ok else "down", "inflight": inflight}
                for name, url, ok, inflight in states
            },
        }

    # ------------------------------------------------------------------ federation
    def _scrape_text(self, state: _ReplicaState, path: str, timeout: float) -> str:
        import urllib.request

        with urllib.request.urlopen(state.url + path, timeout=timeout) as response:
            return response.read().decode("utf-8")

    def _scrape_json(self, state: _ReplicaState, path: str, timeout: float) -> Dict[str, Any]:
        return json.loads(self._scrape_text(state, path, timeout))

    def _up_states(self) -> List[_ReplicaState]:
        with self._lock:
            return [state for state in self._states if state.up]

    def federated_prometheus(self) -> str:
        """Scrape every healthy replica and render the fleet exposition."""
        sources = [parse_prometheus(self.obs.registry.render_prometheus())]
        for state in self._up_states():
            try:
                text = self._scrape_text(
                    state, "/metrics?format=prometheus", timeout=PROBE_TIMEOUT_S
                )
            except (OSError, http.client.HTTPException) as failure:
                self._mark(state, up=False, reason=str(failure))
                continue
            sources.append(parse_prometheus(text))
        return render_families(federate_families(sources))

    def metrics_rollup(self) -> Dict[str, Any]:
        """The JSON ``/metrics`` view: fleet rollup + per-replica snapshots."""
        snapshots: Dict[str, Dict[str, Any]] = {}
        for state in self._up_states():
            try:
                snapshots[state.name] = self._scrape_json(
                    state, "/metrics", timeout=PROBE_TIMEOUT_S
                )
            except (OSError, ValueError, http.client.HTTPException) as failure:
                self._mark(state, up=False, reason=str(failure))
        routed = self._c_routed.collect()
        errors = self._c_errors.collect()
        return {
            "fleet": rollup_snapshots(snapshots),
            "replicas": snapshots,
            "router": {
                "routed": {name: int(count) for (name,), count in sorted(routed.items())},
                "errors": {name: int(count) for (name,), count in sorted(errors.items())},
                "unrouted": int(self._c_unrouted.total()),
            },
        }

    def merged_trace(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Merge router + replica spans (replica-attributed, wall-clock order)."""
        query = f"?trace_id={trace_id}" if trace_id else "?limit=0"
        groups: Dict[str, List[Dict[str, Any]]] = {
            "router": [span.as_dict() for span in self.obs.tracer.spans(trace_id=trace_id)]
        }
        for state in self._up_states():
            try:
                groups[state.name] = self._scrape_json(
                    state, f"/trace{query}", timeout=PROBE_TIMEOUT_S
                ).get("spans", [])
            except (OSError, ValueError, http.client.HTTPException) as failure:
                self._mark(state, up=False, reason=str(failure))
        spans = merge_spans(groups)
        if limit is None and trace_id is None:
            limit = 256  # bounded by default, like the single-server endpoint
        if limit is not None and limit > 0:
            spans = spans[-limit:]
        return spans

    def merged_events(
        self, limit: Optional[int] = None, kind: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Merge router + replica events (replica-attributed, wall-clock order)."""
        query = "" if kind is None else f"?kind={kind}"
        groups: Dict[str, List[Dict[str, Any]]] = {
            "router": self.obs.events.snapshot(kind=kind)
        }
        for state in self._up_states():
            try:
                groups[state.name] = self._scrape_json(
                    state, f"/events{query}", timeout=PROBE_TIMEOUT_S
                ).get("events", [])
            except (OSError, ValueError, http.client.HTTPException) as failure:
                self._mark(state, up=False, reason=str(failure))
        events = merge_events(groups)
        if limit is not None and limit >= 0:
            events = events[-limit:] if limit else []
        return events

    # ------------------------------------------------------------------ GET dispatch
    def handle_get(self, path: str) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Execute one introspection GET against the fleet."""
        parts = urlsplit(path)
        query = parse_qs(parts.query)
        route = parts.path
        if route == "/healthz":
            return 200, self.health()
        if route == "/metrics":
            if query.get("format", [""])[0] == "prometheus":
                return 200, self.federated_prometheus()
            return 200, self.metrics_rollup()
        if route == "/trace":
            trace_id = query.get("trace_id", [None])[0]
            limit = query_int(query, "limit")
            return 200, {"spans": self.merged_trace(trace_id=trace_id, limit=limit)}
        if route == "/events":
            limit = query_int(query, "limit")
            kind = query.get("kind", [None])[0]
            return 200, {"events": self.merged_events(limit=limit, kind=kind)}
        if route == "/levels":
            for state in self._up_states():
                try:
                    return 200, self._scrape_json(state, "/levels", timeout=PROBE_TIMEOUT_S)
                except (OSError, ValueError, http.client.HTTPException) as failure:
                    self._mark(state, up=False, reason=str(failure))
            return 503, {"error": "no healthy replica available"}
        if route == "/replicas":
            return 200, self.health()["replicas"]
        return 404, {"error": f"unknown path {path!r}"}
