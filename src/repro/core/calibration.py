"""Input-distribution capture (stage 2 of the paper's framework).

The significance of an operand depends on ``E[a_i]`` -- the long-run expected
value of the input that gets multiplied with weight ``w_i`` (paper Eq. 2).
This module runs a small calibration subset through the quantized model and
records, for every convolution layer, the mean (and standard deviation) of
each of the ``K = kh*kw*Cin`` receptive-field inputs, averaged over samples
and spatial positions.  Values are accumulated in the *real* domain
(dequantized), matching the paper's formulation on real activations.  A conv
operand's sums come from the padded input's strided window at its kernel offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.nn import functional as F
from repro.quant.qlayers import QConv2D, QDense
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import dequantize


@dataclass
class LayerCalibration:
    """Per-layer activation statistics.

    Attributes
    ----------
    mean_inputs:
        ``(K,)`` mean real-valued input per operand position.
    std_inputs:
        ``(K,)`` standard deviation per operand position.
    samples:
        Number of (sample, spatial position) observations aggregated.
    """

    mean_inputs: np.ndarray
    std_inputs: np.ndarray
    samples: int


@dataclass
class CalibrationResult:
    """Activation statistics for every analysed layer."""

    layers: Dict[str, LayerCalibration] = field(default_factory=dict)
    n_images: int = 0

    def mean_inputs(self, layer_name: str) -> np.ndarray:
        """``E[a_i]`` vector of one layer."""
        return self.layers[layer_name].mean_inputs

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self.layers

    def layer_names(self) -> list:
        """Names of the calibrated layers."""
        return list(self.layers)


class ActivationCalibrator:
    """Capture per-operand input statistics of the convolution layers.

    Parameters
    ----------
    qmodel:
        The quantized model to analyse.
    include_dense:
        Also capture statistics for fully-connected layers (extension).
    batch_size:
        Calibration batch size.
    """

    def __init__(self, qmodel: QuantizedModel, include_dense: bool = False, batch_size: int = 32):
        self.qmodel = qmodel
        self.include_dense = include_dense
        self.batch_size = int(batch_size)

    def _target_layers(self):
        for layer in self.qmodel.layers:
            if isinstance(layer, QConv2D) or (self.include_dense and isinstance(layer, QDense)):
                yield layer

    def calibrate(self, images: np.ndarray) -> CalibrationResult:
        """Run ``images`` (float NHWC) through the model and collect statistics."""
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError("calibration images must be NHWC")
        if images.shape[0] == 0:
            raise ValueError("calibration set is empty")

        observed: Dict[str, list] = {layer.name: [] for layer in self._target_layers()}
        for start in range(0, images.shape[0], self.batch_size):
            x_q = self.qmodel.quantize_input(images[start : start + self.batch_size])
            for layer in self.qmodel.layers:
                if layer.name in observed:
                    observed[layer.name].append(self._operand_sums(layer, x_q))
                x_q = layer.forward(x_q)

        result = CalibrationResult(n_images=int(images.shape[0]))
        for name, batches in observed.items():
            total, sq_total, n = (sum(column) for column in zip(*batches))
            mean = total / n
            var = np.maximum(sq_total / n - mean**2, 0.0)
            result.layers[name] = LayerCalibration(
                mean_inputs=mean.astype(np.float64),
                std_inputs=np.sqrt(var).astype(np.float64),
                samples=n,
            )
        return result

    def _operand_sums(self, layer, x_q: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """Per-operand sums of the real input and of its square, and the observation count.

        Every dequantized value is a float32 multiple of the ulp of
        ``f32(scale)``, so the first sums are exact in float64, in any order,
        while images x output positions stay below 2**21: the means equal an
        im2col's bit for bit.  Sums of squares are not exact in any order.
        """
        x_real = dequantize(x_q, layer.input_params).astype(np.float64)
        if isinstance(layer, QDense):
            x_real = x_real.reshape(x_real.shape[0], -1)
            return x_real.sum(axis=0), (x_real**2).sum(axis=0), x_real.shape[0]
        if not isinstance(layer, QConv2D):
            raise TypeError(f"unsupported layer type {type(layer).__name__}")
        n, in_h, in_w, _ = x_real.shape
        (kh, kw), (sh, sw) = layer.kernel_size, layer.stride
        out_h, out_w = F.conv_output_shape(in_h, in_w, layer.kernel_size, layer.stride, layer.padding)
        h_span, w_span = sh * (out_h - 1) + 1, sw * (out_w - 1) + 1
        xp = F.pad_nhwc(x_real, layer.padding)
        total, sq_total = (
            np.concatenate([batch_sum[dy : dy + h_span : sh, dx : dx + w_span : sw].sum(axis=(0, 1))
                            for dy, dx in np.ndindex(kh, kw)])
            for batch_sum in (xp.sum(axis=0), (xp**2).sum(axis=0))
        )
        return total, sq_total, n * out_h * out_w
