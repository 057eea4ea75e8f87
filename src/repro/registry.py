"""Plugin registries: the extension points of the public API.

Every place the toolkit used to hard-code a dispatch table -- significance
metrics, skipping granularities, DSE search strategies, inference engines and
board profiles -- is now a :class:`Registry`.  Components register themselves
with a decorator::

    from repro.registry import SEARCH_STRATEGIES

    @SEARCH_STRATEGIES.register("annealing")
    class AnnealingSearch(SearchStrategy):
        def search(self, evaluator, dse_config, layer_names, board=None):
            ...  # choose configurations; evaluator.evaluate(configs) scores them

and are resolved by name anywhere a string is accepted (``DSEConfig.strategy``,
``compute_significance(metric=...)``, the CLI's ``--strategy/--engine/--board``
choices, ...).  Registries load their built-in entries lazily on first access,
so importing :mod:`repro.registry` never drags in the heavier subsystems.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class RegistryError(KeyError):
    """Raised when a name cannot be resolved against a registry."""


class Registry(Generic[T]):
    """A named collection of pluggable components.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered (used in error
        messages, e.g. ``"search strategy"``).
    builtin_modules:
        Modules imported lazily before the first lookup; the built-in
        components register themselves as an import side effect.
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str] = ()):
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._entries: Dict[str, T] = {}
        self._loaded = False

    # ------------------------------------------------------------------ loading
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True  # set first: the imports themselves call register()
        for module in self._builtin_modules:
            importlib.import_module(module)

    # ------------------------------------------------------------------ registration
    def register(
        self,
        name: str,
        obj: Optional[T] = None,
        *,
        aliases: Sequence[str] = (),
        override: bool = False,
    ):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        ``register(name, obj)`` registers immediately; ``@register(name)``
        decorates a class or function.  Duplicate names raise unless
        ``override=True``.
        """
        names = [name, *aliases]

        def _store(target: T) -> T:
            for key in names:
                key = key.lower()
                if not override and key in self._entries:
                    raise RegistryError(
                        f"{self.kind} {key!r} is already registered; pass override=True to replace it"
                    )
                self._entries[key] = target
            return target

        if obj is not None:
            return _store(obj)
        return _store

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests of custom plugins)."""
        self._entries.pop(name.lower(), None)

    # ------------------------------------------------------------------ lookup
    def resolve(self, name: str) -> T:
        """Look a component up by name.

        Raises
        ------
        RegistryError
            If the name is unknown; the message lists the registered names.
        """
        self._ensure_loaded()
        try:
            return self._entries[str(name).lower()]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def get(self, name: str, default: Optional[T] = None) -> Optional[T]:
        """Like :meth:`resolve` but returning ``default`` for unknown names."""
        self._ensure_loaded()
        return self._entries.get(str(name).lower(), default)

    def names(self) -> List[str]:
        """Sorted names of every registered component."""
        self._ensure_loaded()
        return sorted(self._entries)

    def items(self):
        """``(name, component)`` pairs."""
        self._ensure_loaded()
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return str(name).lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Registry({self.kind!r}, {self.names()!r})"


# --------------------------------------------------------------------------- built-ins
#: Significance rankings (paper Eq. 2 plus the ablation metrics).
SIGNIFICANCE_METRICS: Registry[Callable[..., Any]] = Registry(
    "significance metric", builtin_modules=("repro.core.significance",)
)

#: Skipping granularities (operand-level plus the coarse ablation modes).
GRANULARITIES: Registry[Any] = Registry(
    "skipping granularity", builtin_modules=("repro.core.skipping",)
)

#: DSE search strategies (exhaustive sweep, greedy per-layer, latency-aware).
SEARCH_STRATEGIES: Registry[type] = Registry(
    "search strategy", builtin_modules=("repro.core.strategies",)
)

#: Inference engines (the ATAMAN engine, the exact baselines and the VM engines).
ENGINES: Registry[type] = Registry(
    "inference engine", builtin_modules=("repro.frameworks", "repro.vm.engine")
)

#: Target board profiles.
BOARDS: Registry[Any] = Registry(
    "board profile", builtin_modules=("repro.isa.profiles",)
)

#: Serving policies (which Pareto design serves the next batch).
POLICIES: Registry[type] = Registry(
    "serving policy", builtin_modules=("repro.serving.policy",)
)

__all__ = [
    "Registry",
    "RegistryError",
    "SIGNIFICANCE_METRICS",
    "GRANULARITIES",
    "SEARCH_STRATEGIES",
    "ENGINES",
    "BOARDS",
    "POLICIES",
]
