"""Quantized layer executors built on the CMSIS-NN-style kernels.

A MAC layer's ``prepare(mask)`` returns the :class:`~repro.kernels.gemm.GemmPlan`
its counted ``forward`` prepares per call; layers cache nothing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.activations_s8 import relu_s8
from repro.kernels.conv_s8 import convolve_s8, prepare_conv_s8
from repro.kernels.cycle_counters import CycleCounter
from repro.kernels.fully_connected_s8 import fully_connected_s8, prepare_fully_connected_s8
from repro.kernels.gemm import GemmPlan
from repro.kernels.pooling_s8 import avg_pool_s8, max_pool_s8
from repro.nn.functional import conv_output_shape
from repro.quant.schemes import QuantizationParams


def _requant_args(layer) -> dict:
    """A MAC layer's bias, zero points, multipliers and clamp, as kernel arguments."""
    return dict(
        bias=layer.bias,
        input_zero_point=layer.input_params.scalar_zero_point(),
        output_zero_point=layer.output_params.scalar_zero_point(),
        output_multipliers=layer.output_multipliers,
        activation_min=layer.activation_min,
        activation_max=layer.activation_max,
    )


class QLayer:
    """Base class of quantized layers.

    A quantized layer knows its input and output quantization parameters and
    executes on int8 tensors.  Layers that perform MACs (conv, dense) accept a
    ``weight_mask`` implementing the paper's operand skipping.
    """

    def __init__(self, name: str, input_params: QuantizationParams, output_params: QuantizationParams):
        self.name = name
        self.input_params = input_params
        self.output_params = output_params

    #: Whether the layer performs multiply-accumulate work.
    is_mac_layer: bool = False
    #: Whether the layer is a convolution (the target of the paper's skipping).
    is_conv: bool = False

    def forward(
        self,
        x: np.ndarray,
        weight_mask: Optional[np.ndarray] = None,
        counter: Optional[CycleCounter] = None,
    ) -> np.ndarray:
        """Execute the layer on an int8 input."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given the per-sample input shape."""
        raise NotImplementedError

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        """MAC count for one sample (0 for non-MAC layers)."""
        return 0

    def weight_nbytes(self) -> int:
        """Bytes of parameter data (weights + biases) the layer stores."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.__class__.__name__}(name={self.name!r})"


class QConv2D(QLayer):
    """Quantized convolution with optional fused ReLU.

    Parameters
    ----------
    weights:
        int8 OHWI weights ``(Cout, kh, kw, Cin)``.
    bias:
        int32 per-channel bias.
    weight_params:
        Per-output-channel symmetric weight quantization parameters.
    stride, padding:
        Geometry.
    fused_relu:
        Clamp outputs at the output zero point (the deployed form of
        conv+ReLU).
    """

    is_mac_layer = True
    is_conv = True

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: Optional[np.ndarray],
        input_params: QuantizationParams,
        weight_params: QuantizationParams,
        output_params: QuantizationParams,
        stride: Tuple[int, int],
        padding: Tuple[int, int],
        fused_relu: bool = False,
    ):
        super().__init__(name, input_params, output_params)
        self.weights = np.asarray(weights, dtype=np.int8)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.int64)
        self.weight_params = weight_params
        self.stride = tuple(stride)
        self.padding = tuple(padding)
        self.fused_relu = bool(fused_relu)

        in_scale = input_params.scalar_scale()
        out_scale = output_params.scalar_scale()
        self.output_multipliers = (in_scale * self.weight_params.scale / out_scale).astype(np.float64)
        self.activation_min = output_params.scalar_zero_point() if fused_relu else -128
        self.activation_max = 127

    @property
    def out_channels(self) -> int:
        """Number of output channels."""
        return int(self.weights.shape[0])

    @property
    def kernel_size(self) -> Tuple[int, int]:
        """Spatial kernel size."""
        return int(self.weights.shape[1]), int(self.weights.shape[2])

    @property
    def in_channels(self) -> int:
        """Number of input channels."""
        return int(self.weights.shape[3])

    @property
    def operands_per_channel(self) -> int:
        """K = kh*kw*Cin, the number of operands of each output-channel accumulation."""
        return int(np.prod(self.weights.shape[1:]))

    def prepare(self, weight_mask: Optional[np.ndarray] = None) -> GemmPlan:
        """The layer's execution plan under one retention mask."""
        return prepare_conv_s8(
            self.weights, stride=self.stride, padding=self.padding, weight_mask=weight_mask,
            **_requant_args(self),
        )

    def forward(self, x, weight_mask=None, counter=None):
        return convolve_s8(
            x, self.weights, stride=self.stride, padding=self.padding, weight_mask=weight_mask,
            counter=counter, section=self.name, **_requant_args(self),
        )

    def output_shape(self, input_shape):
        in_h, in_w, in_c = input_shape
        if in_c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {in_c}")
        out_h, out_w = conv_output_shape(in_h, in_w, self.kernel_size, self.stride, self.padding)
        return (out_h, out_w, self.out_channels)

    def macs(self, input_shape):
        out_h, out_w, out_c = self.output_shape(input_shape)
        return out_h * out_w * out_c * self.operands_per_channel

    def weight_nbytes(self):
        bias_bytes = 0 if self.bias is None else self.bias.size * 4
        return int(self.weights.nbytes + bias_bytes)


class QDense(QLayer):
    """Quantized fully-connected layer with optional fused ReLU."""

    is_mac_layer = True

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: Optional[np.ndarray],
        input_params: QuantizationParams,
        weight_params: QuantizationParams,
        output_params: QuantizationParams,
        fused_relu: bool = False,
    ):
        super().__init__(name, input_params, output_params)
        self.weights = np.asarray(weights, dtype=np.int8)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.int64)
        self.weight_params = weight_params
        self.fused_relu = bool(fused_relu)

        in_scale = input_params.scalar_scale()
        out_scale = output_params.scalar_scale()
        self.output_multipliers = (in_scale * self.weight_params.scale / out_scale).astype(np.float64)
        self.activation_min = output_params.scalar_zero_point() if fused_relu else -128
        self.activation_max = 127

    @property
    def in_features(self) -> int:
        """Input feature count."""
        return int(self.weights.shape[0])

    @property
    def out_features(self) -> int:
        """Output feature count."""
        return int(self.weights.shape[1])

    def prepare(self, weight_mask: Optional[np.ndarray] = None) -> GemmPlan:
        """The layer's execution plan under one retention mask."""
        return prepare_fully_connected_s8(self.weights, weight_mask=weight_mask, **_requant_args(self))

    def forward(self, x, weight_mask=None, counter=None):
        return fully_connected_s8(
            x, self.weights, weight_mask=weight_mask, counter=counter, section=self.name,
            **_requant_args(self),
        )

    def output_shape(self, input_shape):
        (in_features,) = input_shape
        if in_features != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} features, got {in_features}")
        return (self.out_features,)

    def macs(self, input_shape):
        return self.in_features * self.out_features

    def weight_nbytes(self):
        bias_bytes = 0 if self.bias is None else self.bias.size * 4
        return int(self.weights.nbytes + bias_bytes)


class QMaxPool2D(QLayer):
    """Quantized max pooling (quantization parameters pass through unchanged)."""

    def __init__(self, name: str, params: QuantizationParams, kernel: Tuple[int, int], stride: Tuple[int, int]):
        super().__init__(name, params, params)
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)

    def forward(self, x, weight_mask=None, counter=None):
        return max_pool_s8(x, self.kernel, self.stride, counter=counter, section=self.name)

    def output_shape(self, input_shape):
        in_h, in_w, c = input_shape
        out_h, out_w = conv_output_shape(in_h, in_w, self.kernel, self.stride, (0, 0))
        return (out_h, out_w, c)


class QAvgPool2D(QLayer):
    """Quantized average pooling."""

    def __init__(self, name: str, params: QuantizationParams, kernel: Tuple[int, int], stride: Tuple[int, int]):
        super().__init__(name, params, params)
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)

    def forward(self, x, weight_mask=None, counter=None):
        return avg_pool_s8(x, self.kernel, self.stride, counter=counter, section=self.name)

    def output_shape(self, input_shape):
        in_h, in_w, c = input_shape
        out_h, out_w = conv_output_shape(in_h, in_w, self.kernel, self.stride, (0, 0))
        return (out_h, out_w, c)


class QReLU(QLayer):
    """Standalone quantized ReLU (only used when fusion is not possible)."""

    def __init__(self, name: str, params: QuantizationParams):
        super().__init__(name, params, params)

    def forward(self, x, weight_mask=None, counter=None):
        return relu_s8(x, self.input_params.scalar_zero_point(), counter=counter, section=self.name)

    def output_shape(self, input_shape):
        return tuple(input_shape)


class QFlatten(QLayer):
    """Flatten bridging conv and dense stages (pure reshape)."""

    def __init__(self, name: str, params: QuantizationParams):
        super().__init__(name, params, params)

    def forward(self, x, weight_mask=None, counter=None):
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape):
        flat = 1
        for dim in input_shape:
            flat *= int(dim)
        return (flat,)
