"""int8 pooling kernels (analogues of ``arm_max_pool_s8`` / ``arm_avgpool_s8``)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.cycle_counters import CycleCounter, KernelStats
from repro.nn import functional as F


def max_pool_nhwc(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int]) -> np.ndarray:
    """Max pooling of an NHWC array of any dtype: a ``np.maximum`` chain over strided views."""
    (_, in_h, in_w, _), (kh, kw), (sh, sw) = x.shape, kernel, stride
    out_h, out_w = F.conv_output_shape(in_h, in_w, kernel, stride, (0, 0))
    h_span, w_span = sh * (out_h - 1) + 1, sw * (out_w - 1) + 1
    out = x[:, :h_span:sh, :w_span:sw].copy()
    for i, j in np.ndindex(kh, kw):
        if i or j:
            np.maximum(out, x[:, i : i + h_span : sh, j : j + w_span : sw], out=out)
    return out


def max_pool_s8(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    counter: Optional[CycleCounter] = None,
    section: str = "max_pool",
) -> np.ndarray:
    """int8 max pooling over NHWC input (:func:`max_pool_nhwc`)."""
    x = np.asarray(x)
    if x.dtype != np.int8:
        raise TypeError("max_pool_s8 expects int8 input")
    n, in_h, in_w, c = x.shape
    kh, kw = kernel
    out = max_pool_nhwc(x, kernel, stride)
    out_h, out_w = out.shape[1:3]

    if counter is not None:
        counter.record(
            section,
            KernelStats(
                comparisons=n * out_h * out_w * c * (kh * kw - 1),
                output_elements=n * out_h * out_w * c,
                input_elements=n * in_h * in_w * c,
            ),
        )
    return out


def avg_pool_s8(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    counter: Optional[CycleCounter] = None,
    section: str = "avg_pool",
) -> np.ndarray:
    """int8 average pooling (accumulate in int32, round to nearest)."""
    x = np.asarray(x)
    if x.dtype != np.int8:
        raise TypeError("avg_pool_s8 expects int8 input")
    n, in_h, in_w, c = x.shape
    kh, kw = kernel
    out_h, out_w = F.conv_output_shape(in_h, in_w, kernel, stride, (0, 0))
    cols = F.im2col(x.astype(np.int32), kernel, stride, (0, 0), pad_value=0)
    cols = cols.reshape(n, out_h, out_w, kh * kw, c)
    summed = cols.sum(axis=3, dtype=np.int64)
    out = np.clip(np.rint(summed / float(kh * kw)), -128, 127).astype(np.int8)

    if counter is not None:
        counter.record(
            section,
            KernelStats(
                comparisons=0,
                output_elements=n * out_h * out_w * c,
                input_elements=n * in_h * in_w * c,
                macs=n * out_h * out_w * c,  # the divide/scale per output
            ),
        )
    return out
