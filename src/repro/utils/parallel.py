"""Who owns the cores: BLAS threads inside a process, the fleet across processes.

The paper ran its offline design-space exploration on 6 CPU threads.  Here
every forward pass is a batched NumPy GEMM, and BLAS already spreads each one
over all cores.  A process pool on top of that (over DSE designs, or over the
shards of one serving batch) only pays when every worker is pinned to one
BLAS thread.  Measured on a 2-core host (medians of interleaved runs):

=====================================================  =============  ==============
workload                                               default BLAS   1 BLAS thread
=====================================================  =============  ==============
LeNet DSE sweep (18 designs x 256 images), serial      2121 ms        2317 ms
same sweep over 2 worker processes                     15280 ms       1299 ms
AlexNet batch of 32 at tau 0.05, in-process            24-26 ms       24-27 ms
same batch sharded over 2 worker processes             87 ms          20.5 ms
=====================================================  =============  ==============

Nothing in the library pins BLAS, so both pools lost wherever they ran at
default settings, and they were deleted.  The DSE evaluates its designs in a
plain loop, the serving scheduler runs each batch in its own process, and the
fleet (``serve --replicas N``) is the only path that runs more than one
process.  A pool can come back only as new code that pins BLAS to one thread
per worker and beats the serial path on the benchmark.
"""

from __future__ import annotations


def default_workers() -> int:
    """Worker processes an in-process computation uses: always 1 (see the module docstring)."""
    return 1
