"""int8 convolution kernel (the NumPy analogue of ``arm_convolve_s8``).

The kernel follows the CMSIS-NN dataflow: im2col patch extraction, a matrix
multiplication between int8 patches and int8 filter weights with int32
accumulation, bias addition, per-channel requantization, activation clamping
and saturation to int8.  It prepares a :class:`~repro.kernels.gemm.GemmPlan`
per call and runs it with :func:`~repro.kernels.gemm.execute_gemm`: the
counted reference the DSE, the cost model and VM verification run against.

Two features go beyond the stock kernel and exist for the paper's framework:

* ``weight_mask`` -- a boolean ``(out_channels, K)`` matrix selecting which
  operands (products ``a_i * w_i``) are *retained*.  Masked-out operands are
  skipped exactly as the paper's significance-aware computation skipping
  omits them from the generated unpacked code; the bias and the input-offset
  correction are recomputed from the retained weights only, so the kernel is
  bit-identical to running generated code without those MAC instructions.
* ``counter`` -- optional :class:`CycleCounter` recording operation counts.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.cycle_counters import CycleCounter, KernelStats
from repro.kernels.gemm import GemmPlan, execute_gemm, mask_and_fold, prepare_gemm


def prepare_conv_s8(
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
) -> GemmPlan:
    """The :class:`GemmPlan` :func:`convolve_s8` runs for these arguments."""
    out_c, kh, kw, _ = weights.shape
    w_mat, init = mask_and_fold(weights.reshape(out_c, -1), bias, input_zero_point, weight_mask)
    return prepare_gemm(
        w_mat, init, output_multipliers, output_zero_point, activation_min, activation_max,
        kernel_size=(kh, kw), stride=stride, padding=padding, input_zero_point=input_zero_point,
    )


def convolve_s8(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray],
    input_zero_point: int,
    output_zero_point: int,
    output_multipliers: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
    activation_min: int = -128,
    activation_max: int = 127,
    weight_mask: Optional[np.ndarray] = None,
    counter: Optional[CycleCounter] = None,
    section: str = "conv",
) -> np.ndarray:
    """Quantized 2-D convolution.

    Parameters
    ----------
    x:
        int8 NHWC input ``(N, H, W, Cin)``.
    weights:
        int8 OHWI weights ``(Cout, kh, kw, Cin)`` (symmetric, zero-point 0).
    bias:
        int32 per-output-channel bias (scale ``input_scale * weight_scale``),
        or ``None``.
    input_zero_point, output_zero_point:
        Activation zero points.
    output_multipliers:
        Real per-channel requantization multipliers
        ``input_scale * weight_scale[c] / output_scale``.
    stride, padding:
        Convolution geometry.
    activation_min, activation_max:
        Output clamp range (fused ReLU sets ``activation_min`` to the output
        zero point).
    weight_mask:
        Optional boolean ``(Cout, kh*kw*Cin)`` retention mask.
    counter, section:
        Optional operation counter and section name.

    Returns
    -------
    ndarray
        int8 output of shape ``(N, out_h, out_w, Cout)``.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.dtype != np.int8 or weights.dtype != np.int8:
        raise TypeError("convolve_s8 expects int8 activations and weights")
    plan = prepare_conv_s8(
        weights, bias, input_zero_point, output_zero_point, output_multipliers,
        stride, padding, activation_min, activation_max, weight_mask,
    )
    out = execute_gemm(plan, x)

    if counter is not None:
        k, out_c = plan.weights.shape
        retained = int(np.count_nonzero(weight_mask)) if weight_mask is not None else out_c * k
        patches = out.size // out_c
        counter.record(
            section,
            KernelStats(
                macs=patches * retained,
                macs_skipped=patches * (out_c * k - retained),
                output_elements=out.size,
                patch_elements=patches * k,
                input_elements=x.size,
                bias_loads=out.size,
            ),
        )
    return out
