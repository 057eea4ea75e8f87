"""The prepared int8 GEMM: one plan type and one executor for every MAC layer.

A :class:`GemmPlan` bakes a layer's retained operands in once, as the
paper's generated kernels do: masked weights cast to the cheapest float
dtype that accumulates them exactly
(:func:`~repro.kernels.accumulate.exact_matmul_dtype`) and the input-offset
correction folded into one init vector.  :func:`execute_gemm` runs a
convolution over cache-sized blocks of whole images (im2col, one BLAS
product, the epilogue straight into the block's int8 output) and a dense
layer as one product.  Values stay exact integers until the float64
multiply, so results are bit-identical to the int64 reference dataflow.
:func:`stack_plans` lets plans that read one input share one product.

A convolution's plan may also carry the max pool that follows it
(``pool``): each block's accumulators are pooled before the epilogue, so
only the pooled outputs are requantized.  That equals pooling the int8
output, bit for bit.  With every multiplier ``m`` positive, each step of
the epilogue ``clip(rint((A + init) * m) + zp)`` is non-decreasing in the
integer accumulator ``A``: a correctly rounded float64 sum or product never
reverses an order, and neither do ``rint`` and ``clip``.  So the largest
``A`` of a window gives its largest int8 value.  Blocks hold whole images,
so no window straddles two blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.accumulate import exact_matmul_dtype
from repro.kernels.im2col import im2col_s8
from repro.kernels.pooling_s8 import max_pool_nhwc
from repro.nn.functional import conv_output_shape, pad_nhwc

#: Output positions (images x out_h x out_w) one convolution block covers;
#: a block holds whole images, at least one.
BLOCK_POSITIONS = 1024


@dataclass
class GemmPlan:
    """The constant execution data of one MAC layer under one retention mask.

    ``weights`` is the C-contiguous ``(K, Cout)`` retained weight matrix in
    ``exact_matmul_dtype(K)``; ``init`` (float64) is each channel's
    ``bias - zp_in * sum(retained w)``.  ``kernel_size`` is ``None`` for a
    dense layer; a convolution pads with ``input_zero_point``, which the
    folded init cancels.  ``pool`` is the ``(kernel, stride)`` of a max pool
    the convolution's output goes through before it is returned.
    """

    weights: np.ndarray
    init: np.ndarray
    multipliers: np.ndarray
    output_zero_point: int
    activation_min: int
    activation_max: int
    kernel_size: Optional[Tuple[int, int]] = None
    stride: Tuple[int, int] = (1, 1)
    padding: Tuple[int, int] = (0, 0)
    input_zero_point: int = 0
    pool: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None

    def __post_init__(self) -> None:
        if self.pool is not None and (self.kernel_size is None or not (self.multipliers > 0).all()):
            raise ValueError("only a convolution with positive multipliers can fold a max pool")


def mask_and_fold(
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    weight_mask: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Masked int64 ``(Cout, K)`` weights and the folded init ``bias - zp_in * sum(w)``."""
    w_mat = weights.astype(np.int64)
    if weight_mask is not None:
        weight_mask = np.asarray(weight_mask, dtype=bool)
        if weight_mask.shape != w_mat.shape:
            raise ValueError(f"weight_mask shape {weight_mask.shape} must be {w_mat.shape}")
        w_mat *= weight_mask
    init = -int(input_zero_point) * w_mat.sum(axis=1)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.int64)
        if bias.shape != init.shape:
            raise ValueError(f"bias must have shape {init.shape}, got {bias.shape}")
        init += bias
    return w_mat, init


def prepare_gemm(
    w_mat: np.ndarray,
    init_acc: np.ndarray,
    multipliers: np.ndarray,
    output_zero_point: int,
    activation_min: int,
    activation_max: int,
    kernel_size: Optional[Tuple[int, int]] = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    input_zero_point: int = 0,
) -> GemmPlan:
    """Build a plan from masked integer ``(Cout, K)`` weights and the folded int64 init."""
    out_c, k = w_mat.shape
    return GemmPlan(
        weights=np.ascontiguousarray(w_mat.T, dtype=exact_matmul_dtype(k)),
        init=np.asarray(init_acc, dtype=np.float64),
        multipliers=np.broadcast_to(np.asarray(multipliers, dtype=np.float64), (out_c,)).copy(),
        output_zero_point=int(output_zero_point),
        activation_min=int(activation_min),
        activation_max=int(activation_max),
        kernel_size=kernel_size,
        stride=stride,
        padding=padding,
        input_zero_point=int(input_zero_point),
    )


def stack_plans(plans: Sequence[GemmPlan]) -> GemmPlan:
    """One plan whose output channels are ``plans``' channels, side by side, in order.

    The plans must share K, geometry, zero points, clamp and pool.  Every
    channel's partial sums are exact integers in ``exact_matmul_dtype(K)``,
    so each channel slice of the stacked output equals that plan's own output.
    """
    def shared(plan: GemmPlan) -> tuple:
        return (plan.weights.shape[0], plan.kernel_size, plan.stride, plan.padding, plan.input_zero_point,
                plan.output_zero_point, plan.activation_min, plan.activation_max, plan.pool)

    if any(shared(plan) != shared(plans[0]) for plan in plans):
        raise ValueError("stacked plans must share K, geometry, zero points, clamp and pool")
    if len(plans) == 1:
        return plans[0]
    return replace(plans[0], weights=np.concatenate([plan.weights for plan in plans], axis=1),
                   init=np.concatenate([plan.init for plan in plans]),
                   multipliers=np.concatenate([plan.multipliers for plan in plans]))


def _requantize_into(plan: GemmPlan, acc: np.ndarray, out: np.ndarray) -> None:
    """``out = clip(rint((acc + init) * m) + zp)`` for one block's ``(rows, Cout)`` accumulators."""
    acc = acc.astype(np.float64, copy=False)
    acc += plan.init
    acc *= plan.multipliers
    np.rint(acc, out=acc)
    acc += float(plan.output_zero_point)
    np.clip(acc, plan.activation_min, plan.activation_max, out=out, casting="unsafe")


def execute_gemm(plan: GemmPlan, x: np.ndarray) -> np.ndarray:
    """Run a plan on an int8 input: NHWC for a convolution, ``(N, K)`` for dense."""
    x = np.asarray(x)
    if x.dtype != np.int8:
        raise TypeError(f"execute_gemm expects int8 input, got {x.dtype}")
    k, out_c = plan.weights.shape
    if plan.kernel_size is None:
        if x.ndim != 2 or x.shape[1] != k:
            raise ValueError(f"dense plan expects input (N, {k}), got shape {x.shape}")
        out = np.empty((x.shape[0], out_c), dtype=np.int8)
        _requantize_into(plan, x.astype(plan.weights.dtype) @ plan.weights, out)
        return out

    kh, kw = plan.kernel_size
    if x.ndim != 4 or x.shape[3] * kh * kw != k:
        raise ValueError(f"conv plan expects NHWC input with {k // (kh * kw)} channels, got {x.shape}")
    n, in_h, in_w, _ = x.shape
    out_h, out_w = conv_output_shape(in_h, in_w, plan.kernel_size, plan.stride, plan.padding)
    kept_h, kept_w = out_h, out_w
    if plan.pool is not None:
        kept_h, kept_w = conv_output_shape(out_h, out_w, *plan.pool, (0, 0))
    out = np.empty((n, kept_h, kept_w, out_c), dtype=np.int8)
    flat = out.reshape(-1, out_c)
    xp = pad_nhwc(x, plan.padding, value=plan.input_zero_point)  # pad once, window per block
    kept = kept_h * kept_w
    step = max(1, BLOCK_POSITIONS // (out_h * out_w))
    for start in range(0, n, step):
        stop = min(start + step, n)
        cols = im2col_s8(xp[start:stop], plan.kernel_size, plan.stride, (0, 0),
                         plan.input_zero_point, dtype=plan.weights.dtype)
        acc = cols.reshape(-1, k) @ plan.weights
        if plan.pool is not None:  # pool the exact sums; only the kept ones are requantized
            acc = max_pool_nhwc(acc.reshape(-1, out_h, out_w, out_c), *plan.pool).reshape(-1, out_c)
        _requantize_into(plan, acc, flat[start * kept : stop * kept])
    return out
