"""int8 fully-connected kernel (analogue of ``arm_fully_connected_s8``); prepares and runs a ``GemmPlan``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.cycle_counters import CycleCounter, KernelStats
from repro.kernels.gemm import GemmPlan, execute_gemm, mask_and_fold, prepare_gemm


def prepare_fully_connected_s8(
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
) -> GemmPlan:
    """The :class:`GemmPlan` :func:`fully_connected_s8` runs for these arguments."""
    w_mat, init = mask_and_fold(weights.T, bias, input_zero_point, weight_mask)
    return prepare_gemm(
        w_mat, init, output_multipliers, output_zero_point, activation_min, activation_max
    )


def fully_connected_s8(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
    counter: Optional[CycleCounter] = None,
    section: str = "fc",
) -> np.ndarray:
    """Quantized fully-connected layer.

    Parameters
    ----------
    x:
        int8 input ``(N, in_features)``.
    weights:
        int8 weights ``(in_features, out_features)`` (symmetric per-channel
        along the output axis).
    bias:
        Optional int32 bias ``(out_features,)``.
    output_multipliers:
        Real per-output-channel requantization multipliers.
    weight_mask:
        Optional boolean ``(out_features, in_features)`` retention mask (same
        orientation as the conv kernel's mask: one row per output).
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.dtype != np.int8 or weights.dtype != np.int8:
        raise TypeError("fully_connected_s8 expects int8 activations and weights")
    plan = prepare_fully_connected_s8(
        weights, bias, input_zero_point, output_zero_point, output_multipliers,
        activation_min, activation_max, weight_mask,
    )
    out = execute_gemm(plan, x)

    if counter is not None:
        (n, in_features), out_features = x.shape, out.shape[1]
        slots = in_features * out_features
        retained = int(np.count_nonzero(weight_mask)) if weight_mask is not None else slots
        counter.record(
            section,
            KernelStats(
                macs=n * retained,
                macs_skipped=n * (slots - retained),
                output_elements=n * out_features,
                input_elements=n * in_features,
                bias_loads=n * out_features,
            ),
        )
    return out
