"""int8 im2col with zero-point padding (the q7 analogue of ``arm_nn_mat_mult`` setup).

The GEMM executor (:func:`~repro.kernels.gemm.execute_gemm`) calls it once per
cache-sized block of images, never for a whole batch.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import conv_output_shape, pad_nhwc


def im2col_s8(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    input_zero_point: int,
    dtype: np.dtype = np.int32,
) -> np.ndarray:
    """Extract int8 convolution patches, padding with the input zero point.

    CMSIS-NN pads with ``-input_offset`` (the quantized representation of the
    real value 0) so that padded positions contribute exactly zero after the
    input offset is subtracted.

    Returns an array of shape ``(N, out_h, out_w, kh*kw*C)`` holding the int8
    patch values widened to ``dtype`` (int32 by default, so downstream
    accumulation never overflows int8 arithmetic; the GEMM executor requests
    the float dtype its exact BLAS accumulation uses).  The widening happens
    while gathering the patches -- the input is padded in int8 and each
    strided window is copied once, directly into the destination -- so no
    intermediate widened copy of the whole feature map is ever materialised.
    """
    x = np.asarray(x)
    if x.dtype != np.int8:
        raise TypeError(f"im2col_s8 expects int8 input, got {x.dtype}")
    if not -128 <= input_zero_point <= 127:
        raise ValueError("input_zero_point must be representable in int8")
    if x.ndim != 4:
        raise ValueError(f"im2col_s8 expects NHWC input, got shape {x.shape}")
    n, in_h, in_w, in_c = x.shape
    kh, kw = kernel
    sh, sw = stride
    out_h, out_w = conv_output_shape(in_h, in_w, kernel, stride, padding)
    # Unpadded convolutions (LeNet-style) window the input directly.
    xp = x if padding == (0, 0) else pad_nhwc(x, padding, value=int(input_zero_point))

    # Strided sliding-window view: (N, out_h, out_w, kh, kw, C) without copy.
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, out_h, out_w, kh, kw, in_c),
        strides=(s[0], s[1] * sh, s[2] * sw, s[1], s[2], s[3]),
        writeable=False,
    )
    cols = np.empty((n, out_h, out_w, kh * kw * in_c), dtype=dtype)
    # One gather+widen pass: int8 windows -> widened patch matrix.
    np.copyto(cols.reshape(n, out_h, out_w, kh, kw, in_c), windows, casting="unsafe")
    return cols
