"""Shared set-up, provenance and per-layer measurement for the workloads.

The benchmark drives only public entry points of ``repro``: model builders,
``quantize_model``, ``AtamanPipeline``, ``Deployment``, the quantized
layers' ``forward`` and the VM.  Models use seeded random weights,
quantized on synthetic CIFAR calibration images, so speed is representative
but accuracy is not.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.stats import reconciles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Input geometry of every workload (the synthetic CIFAR set).
INPUT_SHAPE = (32, 32, 3)
N_CLASSES = 10
CALIBRATION_IMAGES = 64


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_setup(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any, List[float]]:
    """Run a set-up ``repeats`` times; ``(median seconds, last result, all seconds)``.

    ``fn`` receives whether this is the last repetition, so a set-up that
    holds resources (a server process) can release the earlier ones.
    """
    seconds: List[float] = []
    result = None
    for i in range(repeats):
        elapsed, result = timed(lambda: fn(i == repeats - 1))
        seconds.append(elapsed)
    return statistics.median(seconds), result, seconds


# --------------------------------------------------------------------------- models
def synthetic_images(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` seeded synthetic CIFAR images (NHWC float32) and labels."""
    from repro.data import load_synthetic_cifar10

    dataset = load_synthetic_cifar10(n, seed=seed)
    return np.asarray(dataset.images, dtype=np.float32), np.asarray(dataset.labels)


def build_quantized(name: str, seed: int, calibration: np.ndarray):
    """A registry model with seeded random weights, int8-quantized on ``calibration``."""
    from repro.models import build_model
    from repro.quant import quantize_model

    model = build_model(name, input_shape=INPUT_SHAPE, n_classes=N_CLASSES, rng=seed)
    return quantize_model(model, calibration, name=name)


def analyse(qmodel, calibration: np.ndarray):
    """Unpack, calibrate and score significance; ``(unpacked, significance)``."""
    from repro.core import AtamanPipeline

    pipeline = AtamanPipeline(qmodel)
    unpacked = pipeline.unpack()
    significance = pipeline.significance(pipeline.calibrate(calibration))
    return unpacked, significance


def nbytes_of(obj: Any, _seen: Optional[set] = None) -> int:
    """Bytes held in NumPy arrays reachable from ``obj`` (each array once)."""
    seen = _seen if _seen is not None else set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(nbytes_of(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple, set)):
        return sum(nbytes_of(v, seen) for v in obj)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return sum(nbytes_of(v, seen) for v in vars(obj).values())
    return 0


def level_bytes(level, qmodel) -> int:
    """Bytes a service level holds beyond the shared model: masks plus prepared data."""
    shared: set = set()
    nbytes_of(qmodel, shared)  # arrays the level shares with the model count once, there
    return nbytes_of(level, shared)


# --------------------------------------------------------------------------- per layer
def _layer_kind(layer) -> str:
    """``conv``/``fc``/``pool``, or ``other`` (activations, flatten, (de)quantization)."""
    from repro.quant.qlayers import QAvgPool2D, QConv2D, QDense, QMaxPool2D

    if isinstance(layer, QConv2D):
        return "conv"
    if isinstance(layer, QDense):
        return "fc"
    if isinstance(layer, (QMaxPool2D, QAvgPool2D)):
        return "pool"
    return "other"


def layer_profile(qmodel, masks: Optional[Dict[str, np.ndarray]], x: np.ndarray,
                  forward: Callable[[], np.ndarray], repeats: int,
                  recorder) -> Dict[str, Any]:
    """Per-layer time, MACs and computed bytes of one batch under one set of masks.

    Each repetition times the whole forward (``forward()``, e.g. a bound
    ``Deployment.forward``) and then the same forward as its parts: input
    quantization, each quantized layer's ``forward`` and the output
    dequantization, so the two figures come from interleaved samples.
    ``unattributed_ms`` is the median whole forward minus the median
    per-repetition sum of parts.  MACs count the operands retained under the
    masks; bytes are computed from tensor sizes (int8 input + int8 output +
    weights), not measured.
    """
    from repro.quant.schemes import dequantize

    masks = masks or {}
    layers = qmodel.layers
    last_params = layers[-1].output_params
    steps: List[Tuple[str, Callable[[Any], Any]]] = [("quantize_input", qmodel.quantize_input)]
    steps += [(layer.name, lambda q, layer=layer: layer.forward(
        q, weight_mask=masks.get(layer.name))) for layer in layers]
    steps.append(("dequantize", lambda q: dequantize(q, last_params)))
    forward_s: List[float] = []
    sums_s: List[float] = []
    part_s: Dict[str, List[float]] = {name: [] for name, _ in steps}
    forward()  # warm-up
    for rep in range(repeats):
        request_id = f"forward-{rep}"
        if rep % 2:  # alternate which of the pair runs first
            reference_s, reference = timed(forward)
        value: Any = x
        # Contiguous stamps: each part runs from the end of the one before,
        # so the parts tile the loop with no gaps left out.  Only the stamp
        # is taken inside the loop; the bookkeeping waits until it is done,
        # so no part is charged for recording the one before it.
        stamps = [time.perf_counter()]
        for _, step in steps:
            value = step(value)
            stamps.append(time.perf_counter())
        parent = recorder.record("deployment.forward", stamps[0], stamps[-1], request_id)
        for (name, _), start, end in zip(steps, stamps, stamps[1:]):
            recorder.record(f"layer.{name}", start, end, request_id, parent=parent)
            part_s[name].append(end - start)
        sums_s.append(stamps[-1] - stamps[0])
        if not rep % 2:
            reference_s, reference = timed(forward)
        forward_s.append(reference_s)
        if not np.array_equal(value, reference):
            raise AssertionError("the per-layer loop disagrees with the whole forward")
    batch = int(x.shape[0])
    shapes = qmodel.layer_input_shapes()
    per_layer: Dict[str, Dict[str, float]] = {}
    kinds: Dict[str, Dict[str, float]] = {}
    for name, _ in steps:
        layer = qmodel.get_layer(name) if name in shapes else None
        ms = statistics.median(part_s[name]) * 1e3
        macs = nbytes = 0
        if layer is not None:
            in_shape = shapes[name]
            if layer.is_mac_layer:
                mask = masks.get(name)
                kept = float(np.asarray(mask, dtype=bool).mean()) if mask is not None else 1.0
                macs = int(round(layer.macs(in_shape) * kept)) * batch
            out_size = int(np.prod(layer.output_shape(in_shape)))
            nbytes = batch * (int(np.prod(in_shape)) + out_size) + layer.weight_nbytes()
        per_layer[name] = {"ms": ms, "macs": macs, "bytes": nbytes,
                           "gmacs": macs / (ms * 1e6) if ms > 0 else 0.0}
        kind = kinds.setdefault(_layer_kind(layer), {"ms": 0.0, "macs": 0, "bytes": 0})
        for key in ("ms", "macs", "bytes"):
            kind[key] += per_layer[name][key]
    for kind in kinds.values():
        kind["gmacs"] = kind["macs"] / (kind["ms"] * 1e6) if kind["ms"] > 0 else 0.0
    forward_ms = statistics.median(forward_s) * 1e3
    sum_ms = statistics.median(sums_s) * 1e3
    return {
        "batch": batch,
        "forward_ms": forward_ms,
        "sum_ms": sum_ms,
        "unattributed_ms": forward_ms - sum_ms,
        "reconciles_within_5pct": reconciles(forward_ms, [sum_ms], 0.05),
        "per_layer": per_layer,
        "kinds": kinds,
    }


LAYER_KINDS = ("conv", "fc", "pool", "other")


def layer_details(profile: Dict[str, Any]) -> Dict[str, Any]:
    """The per-named-layer table and the reconciliation verdict, for the result file."""
    return {key: profile[key] for key in
            ("batch", "forward_ms", "sum_ms", "reconciles_within_5pct", "per_layer")}


def layer_metrics(profile: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a :func:`layer_profile` into per-kind ``layer.*`` metrics."""
    out: Dict[str, float] = {}
    for kind in LAYER_KINDS:
        row = profile["kinds"].get(kind, {"ms": 0.0, "macs": 0, "gmacs": 0.0, "bytes": 0})
        for key in ("ms", "macs", "gmacs", "bytes"):
            out[f"layer.{kind}.{key}"] = float(row[key])
    out["layer.sum_ms"] = profile["sum_ms"]
    out["layer.unattributed_ms"] = profile["unattributed_ms"]
    out["layer.unattributed_share"] = abs(profile["unattributed_ms"]) / profile["forward_ms"]
    return out


def vm_turbo_profile(qmodel, unpacked, masks: Optional[Dict[str, np.ndarray]], x: np.ndarray,
                     forward: Callable[[], np.ndarray], repeats: int) -> Dict[str, float]:
    """VM turbo forward time against the kernel path ``forward()``, same batch and masks."""
    from repro.vm import VirtualMachine, lower_model

    machine = VirtualMachine(
        qmodel, program=lower_model(qmodel, unpacked=unpacked, masks=masks),
        masks=masks, mode="turbo",
    )
    if not np.array_equal(machine.forward(x), forward()):
        raise AssertionError("VM turbo output differs from the kernel path")
    turbo_s, kernel_s = [], []
    for _ in range(repeats):
        turbo_s.append(timed(lambda: machine.forward(x))[0])
        kernel_s.append(timed(forward)[0])
    turbo_ms = statistics.median(turbo_s) * 1e3
    kernel_ms = statistics.median(kernel_s) * 1e3
    return {"turbo_forward_ms": turbo_ms, "turbo_vs_kernel": kernel_ms / turbo_ms}


# --------------------------------------------------------------------------- provenance
def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of a live process (``VmHWM``), or of this process and its children."""
    if pid is not None:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return str(func())
    return "unknown"


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 prefix over ``src/**/*.py`` -- identifies the measured code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool, **extra: Any) -> Dict[str, Any]:
    """Environment and provenance recorded with every result."""
    from repro.utils.parallel import default_workers

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas_library(),
        "blas_threads": _blas_threads(),
        "dse_default_workers": default_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        **extra,
    }
