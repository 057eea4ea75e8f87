"""Quantized model container."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.cycle_counters import CycleCounter
from repro.kernels.gemm import GemmPlan
from repro.quant.qlayers import QConv2D, QLayer, QMaxPool2D
from repro.quant.schemes import QuantizationParams, dequantize, quantize


class QuantizedModel:
    """An int8 model: input quantization parameters plus a chain of q-layers.

    This is the deployable artefact every inference engine
    (:mod:`repro.frameworks`) consumes, and the object the paper's
    approximation framework (:mod:`repro.core`) analyses and rewrites.
    """

    def __init__(
        self,
        layers: Sequence[QLayer],
        input_params: QuantizationParams,
        input_shape: Tuple[int, int, int],
        n_classes: int,
        name: str = "qmodel",
    ):
        self.layers: List[QLayer] = list(layers)
        self.input_params = input_params
        self.input_shape = tuple(input_shape)
        self.n_classes = int(n_classes)
        self.name = name

    # ------------------------------------------------------------------ structure
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def get_layer(self, name: str) -> QLayer:
        """Look a layer up by name."""
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in model {self.name}")

    def conv_layers(self) -> List[QConv2D]:
        """The convolution layers (the paper's approximation targets)."""
        return [layer for layer in self.layers if isinstance(layer, QConv2D)]

    def mac_layers(self) -> List[QLayer]:
        """Layers that perform MAC work (conv + dense)."""
        return [layer for layer in self.layers if layer.is_mac_layer]

    def layer_shapes(self) -> List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]]:
        """Per-layer ``(name, input_shape, output_shape)`` for one sample."""
        shapes = []
        shape: Tuple[int, ...] = self.input_shape
        for layer in self.layers:
            out_shape = layer.output_shape(shape)
            shapes.append((layer.name, tuple(shape), tuple(out_shape)))
            shape = out_shape
        return shapes

    def layer_input_shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Mapping layer name -> per-sample input shape."""
        return {name: in_shape for name, in_shape, _ in self.layer_shapes()}

    def total_macs(self, masks: Optional[Dict[str, np.ndarray]] = None) -> int:
        """Total MACs per sample, honouring optional skip masks."""
        total = 0
        input_shapes = self.layer_input_shapes()
        for layer in self.layers:
            if not layer.is_mac_layer:
                continue
            full = layer.macs(input_shapes[layer.name])
            if masks and layer.name in masks:
                mask = np.asarray(masks[layer.name], dtype=bool)
                retained_fraction = float(mask.mean()) if mask.size else 1.0
                total += int(round(full * retained_fraction))
            else:
                total += full
        return total

    def conv_macs(self, masks: Optional[Dict[str, np.ndarray]] = None) -> int:
        """Convolution-layer MACs per sample, honouring optional skip masks."""
        total = 0
        input_shapes = self.layer_input_shapes()
        for layer in self.conv_layers():
            full = layer.macs(input_shapes[layer.name])
            if masks and layer.name in masks:
                mask = np.asarray(masks[layer.name], dtype=bool)
                retained_fraction = float(mask.mean()) if mask.size else 1.0
                total += int(round(full * retained_fraction))
            else:
                total += full
        return total

    def weight_nbytes(self) -> int:
        """Total parameter bytes (int8 weights + int32 biases)."""
        return sum(layer.weight_nbytes() for layer in self.layers)

    def activation_nbytes(self) -> int:
        """Peak activation buffer requirement (ping-pong double buffering)."""
        sizes = [int(np.prod(self.input_shape))]
        for _, _, out_shape in self.layer_shapes():
            sizes.append(int(np.prod(out_shape)))
        # Two live buffers at any time (input + output of the current layer).
        pairwise = [sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1)]
        return max(pairwise) if pairwise else 0

    # ------------------------------------------------------------------ execution
    def prepare(self, index: int, weight_mask: Optional[np.ndarray] = None) -> GemmPlan:
        """The plan of MAC layer ``layers[index]`` under ``weight_mask``, with its max pool folded in.

        A convolution that feeds a :class:`QMaxPool2D` directly gets that pool
        (:attr:`GemmPlan.pool`), and whoever runs the plan skips the pool layer.
        :meth:`forward` stays unfused: it is the reference every plan is checked against.
        """
        layer = self.layers[index]
        after = self.layers[index + 1] if index + 1 < len(self.layers) else None
        plan = layer.prepare(weight_mask)
        if layer.is_conv and isinstance(after, QMaxPool2D):
            plan = replace(plan, pool=(after.kernel, after.stride))
        return plan

    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Quantize float NHWC inputs with the model's input parameters."""
        return quantize(x, self.input_params)

    def forward_quantized(
        self,
        q_input: np.ndarray,
        masks: Optional[Dict[str, np.ndarray]] = None,
        counter: Optional[CycleCounter] = None,
    ) -> np.ndarray:
        """Run the int8 network on an already-quantized input."""
        x = q_input
        for layer in self.layers:
            mask = masks.get(layer.name) if masks else None
            x = layer.forward(x, weight_mask=mask, counter=counter)
        return x

    def forward(
        self,
        x: np.ndarray,
        masks: Optional[Dict[str, np.ndarray]] = None,
        counter: Optional[CycleCounter] = None,
    ) -> np.ndarray:
        """Quantize float inputs, run the network, and return *dequantized* outputs."""
        q_out = self.forward_quantized(self.quantize_input(x), masks=masks, counter=counter)
        return dequantize(q_out, self.layers[-1].output_params)

    def predict_classes(
        self,
        x: np.ndarray,
        masks: Optional[Dict[str, np.ndarray]] = None,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Predicted class indices for float inputs.

        The input is processed in fixed-size chunks; predictions land in one
        preallocated output array instead of a list-and-concatenate round
        trip.
        """
        n = int(x.shape[0])
        predictions = np.empty((n,), dtype=np.int64)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            logits = self.forward(x[start:stop], masks=masks)
            predictions[start:stop] = logits.argmax(axis=-1)
        return predictions

    def evaluate_accuracy(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        masks: Optional[Dict[str, np.ndarray]] = None,
        batch_size: int = 256,
    ) -> float:
        """Top-1 accuracy on float inputs/integer labels."""
        predictions = self.predict_classes(x, masks=masks, batch_size=batch_size)
        if predictions.size == 0:
            return 0.0
        return float((predictions == np.asarray(labels)).mean())

    # ------------------------------------------------------------------ reporting
    def summary(self) -> str:
        """Human-readable per-layer summary."""
        lines = [f"QuantizedModel: {self.name}"]
        lines.append(f"{'layer':<22}{'type':<14}{'output shape':<18}{'MACs':>12}{'weights (B)':>14}")
        lines.append("-" * 80)
        input_shapes = self.layer_input_shapes()
        for layer_name, _, out_shape in self.layer_shapes():
            layer = self.get_layer(layer_name)
            macs = layer.macs(input_shapes[layer_name]) if layer.is_mac_layer else 0
            lines.append(
                f"{layer_name:<22}{layer.__class__.__name__:<14}{str(out_shape):<18}"
                f"{macs:>12}{layer.weight_nbytes():>14}"
            )
        lines.append("-" * 80)
        lines.append(
            f"total MACs: {self.total_macs():,}   weights: {self.weight_nbytes():,} B   "
            f"peak activations: {self.activation_nbytes():,} B"
        )
        return "\n".join(lines)
