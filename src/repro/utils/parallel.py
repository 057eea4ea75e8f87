"""Who owns the cores: BLAS threads, the shard lanes beside them, the fleet.

At default settings BLAS spreads every forward's GEMMs over all cores, and
process pools on top (over DSE designs or a batch's shards) paid only with
each worker pinned to one BLAS thread; they were deleted.  Where BLAS is
pinned (``OPENBLAS_NUM_THREADS=1`` in the serving benchmarks),
``Deployment.forward`` fills cores // BLAS threads lanes (:func:`process_lanes`)
with shards of whole images (:func:`map_shards`).  Unpinned it runs one lane:
BLAS plus 2 lanes oversubscribed (AlexNet 0.84x).  Only a loaded OpenBLAS
reports its threads, so under any other BLAS a process runs one lane; cores
are the affinity mask's, and a CPU quota below it goes unseen.  The fleet
(``serve --replicas N``) is the only multi-process path, and each replica
runs one lane (:func:`run_one_lane`): 2 replicas sharding on 2 cores served
0.76-0.91x the images of 2 that did not.  2-core host, interleaved medians:

=================================================  ============  =============
workload                                           default BLAS  1 BLAS thread
=================================================  ============  =============
LeNet DSE sweep (18 designs x 256 images), serial  2121 ms       2317 ms
same sweep over 2 worker processes                 15280 ms      1299 ms
AlexNet batch of 32 at tau 0.05, in-process        24-26 ms      24-27 ms
same batch sharded over 2 worker processes         87 ms         20.5 ms
=================================================  ============  =============

Forward ms, 1 BLAS thread, tau 0.05, median of 31, 1 / 2 lanes, same host:

================  ===========  ===========  ===========  ===========
dense MACs/image  batch 4      batch 8      batch 16     batch 32
================  ===========  ===========  ===========  ===========
tiny CNN, 0.47 M  1.39 / 2.65  2.24 / 3.54  4.54 / 5.81  8.28 / 9.93
LeNet, 4.52 M     3.30 / 3.79  6.38 / 5.96  12.2 / 9.62  22.0 / 16.3
AlexNet, 15.9 M   7.42 / 7.13  13.0 / 10.0  23.2 / 14.8  45.1 / 28.0
================  ===========  ===========  ===========  ===========
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Callable

import numpy as np

#: Dense MACs per shard: above, 2 lanes lost up to 16 M, broke even at 18-32 M, won 1.27-1.61x from 36 M.
MIN_SHARD_MACS = 32_000_000
#: How numpy's wheels (64-bit ints) and plain OpenBLAS builds name the thread count.
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")

_lanes = 0  # this process's shard lanes, once counted
_pool = None  # this process's ThreadPoolExecutor of lanes - 1 threads; a forked child drops its parent's
_pool_lock = threading.Lock()


def default_workers() -> int:
    """Worker processes an in-process computation uses: always 1 (see the module docstring)."""
    return 1


def process_lanes() -> int:
    """``cores // BLAS threads`` where the BLAS is an OpenBLAS, otherwise 1; counted once."""
    global _lanes
    if not _lanes:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        threads = _openblas_threads()
        _lanes = max(1, cores // threads) if threads > 0 else 1
    return _lanes


def _openblas_threads() -> int:
    """Threads of the OpenBLAS mapped into this process (Linux), or 0 if none answers."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line})
        getters = [getattr(ctypes.CDLL(path), name, None) for path in paths for name in _THREAD_GETTERS]
    except OSError:
        return 0
    for get in filter(None, getters):
        get.argtypes, get.restype = [], ctypes.c_int  # int openblas_get_num_threads(void)
        return get()
    return 0


def run_one_lane() -> None:
    """Shard nothing in this process from now on (a fleet replica; see the module docstring)."""
    global _lanes
    _lanes = 1


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _shard_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # loaded only by a process that shards
            _pool = ThreadPoolExecutor(process_lanes() - 1, thread_name_prefix="repro-shard")
        return _pool


def map_shards(fn: Callable[[np.ndarray, bool], np.ndarray], x: np.ndarray, macs_per_item: int) -> np.ndarray:
    """``fn(shard, lead)`` over near-equal contiguous shards of ``x``, concatenated.

    One shard per lane, as many as the process has, ``len(x)`` allows and
    ``MIN_SHARD_MACS`` fills.  The lead shard runs inline, the rest on the
    process's pool; the call returns, or raises the first error, once every lane is done.
    """
    lanes = min(process_lanes(), len(x), len(x) * macs_per_item // MIN_SHARD_MACS)
    if lanes <= 1:
        return fn(x, True)
    lead, *rest = np.array_split(x, lanes)
    pool = _shard_pool()
    futures = [pool.submit(fn, shard, False) for shard in rest]
    try:
        outputs = [fn(lead, True)]
    finally:
        for future in futures:
            future.exception()  # waits for the lane, also when the lead raised
    return np.concatenate(outputs + [future.result() for future in futures])
