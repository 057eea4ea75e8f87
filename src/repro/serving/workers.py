"""Multi-worker inference: per-process model replicas behind the scheduler.

The scheduler core is a single thread, but the NumPy forward pass of a large
batch is CPU-bound, so a :class:`ReplicatedRunner` can shard one coalesced
batch across worker *processes*: every worker holds its own replica of the
:class:`~repro.serving.deployment.Deployment` (installed once by the pool
initializer, so the model is shipped per worker, not per batch) and predicts
one shard; the scheduler concatenates the shards and records the batch in
the shared metrics sink.  Telemetry stays centralised -- workers return raw
logits only.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import numpy as np

from repro.serving.deployment import Deployment
from repro.utils.parallel import WorkerPool

#: Per-worker replica installed by :func:`_init_replica`.
_REPLICA: dict = {}


def _init_replica(deployment: Deployment) -> None:
    """Process-pool initializer: install this worker's model replica."""
    _REPLICA["deployment"] = deployment


def _forward_shard(level: int, shard: np.ndarray) -> np.ndarray:
    """Worker body: dequantized logits of one shard."""
    deployment: Deployment = _REPLICA["deployment"]
    return deployment.forward(shard, level=level)


class ReplicatedRunner:
    """Run batch predictions serially or sharded over worker replicas.

    Parameters
    ----------
    deployment:
        The servable deployment (must be picklable for ``n_workers > 1``).
    n_workers:
        ``<= 1`` runs in-process; otherwise a persistent pool of replicas.
    min_shard:
        Smallest per-worker shard worth the IPC round trip; batches smaller
        than ``2 * min_shard`` run in-process even when a pool exists.
    """

    def __init__(self, deployment: Deployment, n_workers: int = 1, min_shard: int = 8):
        self.deployment = deployment
        self.n_workers = max(1, int(n_workers))
        self.min_shard = int(min_shard)
        self._pool: Optional[WorkerPool] = None
        if self.n_workers > 1:
            self._pool = WorkerPool(
                self.n_workers, initializer=_init_replica, initargs=(deployment,)
            )

    def predict(self, xs: np.ndarray, level: int = 0, profiler=None) -> np.ndarray:
        """Predicted classes of a float NHWC batch under one service level."""
        return self.forward(xs, level=level, profiler=profiler).argmax(axis=-1)

    def forward(self, xs: np.ndarray, level: int = 0, profiler=None) -> np.ndarray:
        """Dequantized logits of a batch (the cascade's confidence input).

        ``profiler`` (a sampled :class:`~repro.obs.profiling.Profiler`)
        enables per-layer timing on the in-process path; sharded execution
        ignores it -- worker processes return raw logits only and telemetry
        stays centralised.
        """
        if self._pool is None or xs.shape[0] < 2 * self.min_shard:
            return self.deployment.forward(xs, level=level, profiler=profiler)
        n_shards = min(self.n_workers, max(1, xs.shape[0] // self.min_shard))
        shards: List[np.ndarray] = np.array_split(xs, n_shards)
        results = self._pool.map(functools.partial(_forward_shard, level), shards)
        return np.concatenate(results)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ReplicatedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
