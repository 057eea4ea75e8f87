"""Tenant configuration, admission control and token-bucket quotas.

Multi-tenant serving layers three concerns on top of the priority classes
from PR 4:

* **Identity + defaults** -- a :class:`TenantConfig` names a tenant and
  optionally pins it to a model, a default priority class and a latency SLO
  target, so clients only send ``tenant=`` and the server fills in the rest.
* **Quotas** -- a per-tenant request-rate quota (token bucket: sustained
  ``rate_limit_rps`` with ``burst`` headroom) and an in-flight cap
  (``max_inflight``), both enforced *at enqueue* so an over-quota tenant is
  rejected with a structured 429 before it costs a queue slot or a forward
  pass.
* **Fairness weight** -- the ``weight`` feeds the request queue's smooth
  weighted round-robin drain (see
  :class:`~repro.serving.request.RequestQueue`), so admission and scheduling
  share one tenant table.

The :data:`~repro.serving.request.DEFAULT_TENANT` tenant always exists and
is unlimited, so single-tenant deployments need no table at all.  Quota
rejections raise :class:`TenantQuotaExceeded` (mapped to HTTP 429 by the
front) and unknown tenants raise :class:`UnknownTenant` (HTTP 403, naming
the registered tenants).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.serving.request import DEFAULT_TENANT, RequestError, priority_rank


class UnknownTenant(RequestError):
    """The request named a tenant the server has no configuration for."""

    def __init__(self, tenant: str, choices: Iterable[str]):
        self.tenant = str(tenant)
        self.choices = sorted(choices)
        super().__init__(
            f"unknown tenant {self.tenant!r}; registered tenants: {self.choices}"
        )


class TenantQuotaExceeded(RequestError):
    """A tenant hit its request-rate or in-flight quota (HTTP 429).

    ``reason`` is ``"rate"`` (token bucket empty) or ``"inflight"`` (too
    many requests already queued/executing); ``retry_after_s`` estimates
    when the rate bucket will hold a token again (``None`` for in-flight
    rejections, which clear when the tenant's own requests finish).
    """

    def __init__(self, tenant: str, reason: str, retry_after_s: Optional[float] = None):
        self.tenant = str(tenant)
        self.reason = str(reason)
        self.retry_after_s = None if retry_after_s is None else float(retry_after_s)
        detail = f" (retry after ~{self.retry_after_s:.2f}s)" if retry_after_s else ""
        super().__init__(
            f"tenant {self.tenant!r} over {self.reason} quota{detail}"
        )


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/s, up to ``burst`` stored.

    ``clock`` is injectable (monotonic seconds) so tests can drive refills
    deterministically.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, self.rate)
        if self.burst < 1.0:
            raise ValueError("token bucket burst must allow at least one request")
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = self._clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now

    def try_take(self) -> Optional[float]:
        """Take one token; return ``None`` on success, else seconds-to-token."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


@dataclass
class TenantConfig:
    """One tenant's identity, defaults, quotas and fairness weight.

    Parameters
    ----------
    name:
        Tenant name as sent in the request's ``tenant`` field.
    model:
        Deployment this tenant's requests default to (requests may still
        name a model explicitly); ``None`` follows the server default.
    priority:
        Default priority class for the tenant's requests; ``None`` keeps
        the server default (``"standard"``).
    slo_ms:
        Latency SLO target in milliseconds, surfaced in the per-tenant
        metrics block so operators can read p95-vs-SLO at a glance.
    rate_limit_rps:
        Sustained request-rate quota (token bucket); ``None`` is unlimited.
    burst:
        Token-bucket capacity; defaults to ``max(1, rate_limit_rps)``.
    max_inflight:
        Cap on the tenant's queued + executing requests; ``None`` unlimited.
    weight:
        Smooth-WRR draining weight relative to other tenants (default 1.0).
    """

    name: str
    model: Optional[str] = None
    priority: Optional[str] = None
    slo_ms: Optional[float] = None
    rate_limit_rps: Optional[float] = None
    burst: Optional[float] = None
    max_inflight: Optional[int] = None
    weight: float = 1.0
    _bucket: Optional[TokenBucket] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"tenant name must be a non-empty string, got {self.name!r}")
        if self.priority is not None:
            priority_rank(self.priority)
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.max_inflight is not None and int(self.max_inflight) < 1:
            raise ValueError(f"tenant {self.name!r}: max_inflight must be >= 1")
        if self.rate_limit_rps is not None and self._bucket is None:
            self._bucket = TokenBucket(self.rate_limit_rps, self.burst)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON/pickle friendly, for fleet replica configs)."""
        return {
            "name": self.name,
            "model": self.model,
            "priority": self.priority,
            "slo_ms": self.slo_ms,
            "rate_limit_rps": self.rate_limit_rps,
            "burst": self.burst,
            "max_inflight": self.max_inflight,
            "weight": self.weight,
        }


class TenantTable:
    """The scheduler's tenant registry + admission gate.

    Admission (:meth:`admit`) resolves the tenant name, charges its token
    bucket and checks the in-flight cap; the scheduler calls
    :meth:`release` from the request's done-callback so in-flight counts
    stay accurate across completions, sheds and failures.
    """

    def __init__(self, tenants: Iterable[TenantConfig] = ()):
        self._tenants: Dict[str, TenantConfig] = {}
        self._inflight: Dict[str, int] = {}
        self._lock = threading.Lock()
        for config in tenants:
            self.add(config)
        if DEFAULT_TENANT not in self._tenants:
            self.add(TenantConfig(name=DEFAULT_TENANT))

    @classmethod
    def from_dicts(
        cls, entries: Iterable[Mapping[str, Any]]
    ) -> "TenantTable":
        """Build a table from plain dicts (inverse of ``as_dict``)."""
        return cls(TenantConfig(**dict(entry)) for entry in entries)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TenantTable":
        """Load a table from a JSON file: a list of tenant objects.

        The file holds either ``[{"name": ..., ...}, ...]`` or
        ``{"tenants": [...]}``.
        """
        raw = json.loads(Path(path).read_text())
        if isinstance(raw, Mapping):
            raw = raw.get("tenants", [])
        if not isinstance(raw, list):
            raise ValueError(f"tenant file {path}: expected a list of tenant objects")
        return cls.from_dicts(raw)

    def add(self, config: TenantConfig) -> None:
        """Register (or replace) a tenant."""
        with self._lock:
            self._tenants[config.name] = config
            self._inflight.setdefault(config.name, 0)

    def names(self) -> List[str]:
        """Registered tenant names, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Every tenant as a plain dict (inverse of :meth:`from_dicts`)."""
        with self._lock:
            return [self._tenants[name].as_dict() for name in sorted(self._tenants)]

    def get(self, name: str) -> TenantConfig:
        """Look up a tenant; raises :class:`UnknownTenant` for strangers."""
        with self._lock:
            config = self._tenants.get(name)
        if config is None:
            raise UnknownTenant(name, self.names())
        return config

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def weights(self) -> Dict[str, float]:
        """Tenant name -> WRR weight (feeds the request queue)."""
        with self._lock:
            return {name: config.weight for name, config in self._tenants.items()}

    def inflight(self, name: str) -> int:
        """Current queued + executing requests for a tenant."""
        with self._lock:
            return self._inflight.get(name, 0)

    def admit(self, name: str) -> TenantConfig:
        """Charge quotas for one request; raises on over-quota tenants.

        On success the tenant's in-flight count is incremented -- callers
        **must** pair every successful ``admit`` with one :meth:`release`.
        """
        config = self.get(name)
        if config.max_inflight is not None:
            with self._lock:
                if self._inflight.get(name, 0) >= int(config.max_inflight):
                    raise TenantQuotaExceeded(name, "inflight")
        if config._bucket is not None:
            retry_after = config._bucket.try_take()
            if retry_after is not None:
                raise TenantQuotaExceeded(name, "rate", retry_after_s=retry_after)
        with self._lock:
            self._inflight[name] = self._inflight.get(name, 0) + 1
        return config

    def release(self, name: str) -> None:
        """Return one in-flight slot (request completed, shed or failed)."""
        with self._lock:
            self._inflight[name] = max(0, self._inflight.get(name, 0) - 1)
