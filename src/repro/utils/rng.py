"""Deterministic random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed or a
:class:`numpy.random.Generator`.  Centralising the coercion here keeps runs
reproducible and makes it easy to spawn independent child generators, one
per component (the recommended NumPy pattern, see the SeedSequence docs).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> list:
    """Spawn ``n`` statistically independent generators from a single seed.

    Uses ``SeedSequence.spawn`` so children are independent regardless of the
    order in which they are consumed (the zoo models draw one per layer).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's bit stream.
        ss = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    elif isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


class RngMixin:
    """Mixin providing a lazily-created ``self.rng`` generator.

    Classes using the mixin should set ``self._seed`` (possibly ``None``)
    in their ``__init__``.
    """

    _seed: SeedLike = None
    _rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The instance's random generator (created on first access)."""
        if self._rng is None:
            self._rng = as_rng(self._seed)
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Reset the generator with a new seed."""
        self._seed = seed
        self._rng = as_rng(seed)


def permutation_batches(
    n_items: int, batch_size: int, rng: SeedLike = None, drop_last: bool = False
) -> Iterable[np.ndarray]:
    """Yield shuffled index batches covering ``range(n_items)``.

    Parameters
    ----------
    n_items:
        Total number of indices.
    batch_size:
        Number of indices per batch (the final batch may be smaller unless
        ``drop_last``).
    rng:
        Seed or generator used for the shuffle.
    drop_last:
        Drop the trailing partial batch.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    gen = as_rng(rng)
    order = gen.permutation(n_items)
    for start in range(0, n_items, batch_size):
        batch = order[start : start + batch_size]
        if drop_last and batch.shape[0] < batch_size:
            return
        yield batch


def deterministic_hash(values: Sequence) -> int:
    """Return a small deterministic hash of a sequence of hashables.

    Unlike built-in ``hash`` this is stable across interpreter runs, which
    keeps derived seeds reproducible.
    """
    acc = 0x811C9DC5
    for value in values:
        for byte in repr(value).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x01000193) % (2**32)
    return acc
