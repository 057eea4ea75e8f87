"""Tests for unpacking, calibration and significance calculation (pipeline stages 1-3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CODE_SIZE_MODEL,
    ActivationCalibrator,
    compute_layer_significance,
    compute_significance,
    unpack_layer,
    unpack_model,
)
from repro.core.unpacking import total_unpacked_code_bytes
from repro.kernels import pack_weight_pair
from repro.nn import functional as F
from repro.quant.qlayers import QConv2D, QDense, QFlatten
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import QuantizationParams, dequantize, symmetric_params_from_absmax


def _im2col_means(qmodel, images):
    """Each conv's (and dense layer's) mean input operand from a float64 im2col of its whole input."""
    means = {}
    x_q = qmodel.quantize_input(images)
    for layer in qmodel.layers:
        if layer.is_mac_layer:
            x_real = dequantize(x_q, layer.input_params).astype(np.float64)
            if isinstance(layer, QDense):
                cols = x_real.reshape(x_real.shape[0], -1)
            else:
                cols = F.im2col(x_real, layer.kernel_size, layer.stride, layer.padding, pad_value=0.0)
            means[layer.name] = cols.reshape(-1, cols.shape[-1]).mean(axis=0)
        x_q = layer.forward(x_q)
    return means


def _stride_two_model(rng):
    """A hand-built int8 model: a 3x3 stride-2 padded conv, then flatten and a dense layer."""
    images = QuantizationParams(np.array([1 / 255]), np.array([-128]))
    hidden = QuantizationParams(np.array([0.03]), np.array([-128]))
    conv = QConv2D("conv_s2", rng.integers(-127, 128, size=(4, 3, 3, 3), dtype=np.int8), None, images,
                   symmetric_params_from_absmax(np.full(4, 0.5)), hidden, stride=(2, 2), padding=(1, 1),
                   fused_relu=True)
    logits = QuantizationParams(np.array([0.1]), np.array([0]))
    dense = QDense("fc", rng.integers(-127, 128, size=(100, 10), dtype=np.int8), None, hidden,
                   symmetric_params_from_absmax(np.full(10, 0.5)), logits)
    return QuantizedModel([conv, QFlatten("flatten", hidden), dense], images, (9, 9, 3), 10, name="stride2")


class TestUnpacking:
    def test_unpack_model_covers_conv_layers(self, tiny_qmodel, tiny_unpacked):
        conv_names = {layer.name for layer in tiny_qmodel.conv_layers()}
        assert set(tiny_unpacked) == conv_names

    def test_unpacked_weight_matrix_matches_layer(self, tiny_qmodel, tiny_unpacked):
        for conv in tiny_qmodel.conv_layers():
            unpacked = tiny_unpacked[conv.name]
            assert unpacked.weights.shape == (conv.out_channels, conv.operands_per_channel)
            np.testing.assert_array_equal(
                unpacked.weights, conv.weights.reshape(conv.out_channels, -1)
            )

    def test_operand_coords_are_im2col_ordered(self, tiny_qmodel, tiny_unpacked):
        conv = tiny_qmodel.conv_layers()[0]
        unpacked = tiny_unpacked[conv.name]
        kh, kw = conv.kernel_size
        coords = unpacked.operand_coords
        assert coords.shape == (conv.operands_per_channel, 3)
        # The last axis of im2col is ordered (kh, kw, channel): the channel
        # index varies fastest.
        assert coords[0].tolist() == [0, 0, 0]
        assert coords[1].tolist() == [0, 0, 1]
        assert coords[conv.in_channels].tolist() == [0, 1, 0]

    def test_include_dense(self, tiny_qmodel):
        unpacked = unpack_model(tiny_qmodel, include_dense=True)
        dense_names = {l.name for l in tiny_qmodel.layers if isinstance(l, QDense)}
        assert dense_names <= set(unpacked)
        for name in dense_names:
            assert not unpacked[name].is_conv

    def test_unpack_rejects_other_layers(self, tiny_qmodel):
        pool = [l for l in tiny_qmodel.layers if l.__class__.__name__ == "QMaxPool2D"][0]
        with pytest.raises(TypeError):
            unpack_layer(pool)

    def test_packed_weights_respect_mask(self, tiny_unpacked):
        layer = next(iter(tiny_unpacked.values()))
        mask = np.zeros_like(layer.weights, dtype=bool)
        mask[:, :4] = True
        packed = layer.packed_weights(mask)
        assert all(words.shape == (2,) for words in packed.values())
        expected_first = pack_weight_pair(int(layer.weights[0, 0]), int(layer.weights[0, 1]))
        assert int(packed[0][0]) == expected_first

    def test_code_bytes_monotonic_in_mask(self, tiny_unpacked):
        layer = next(iter(tiny_unpacked.values()))
        full = layer.code_bytes()
        half_mask = np.zeros_like(layer.weights, dtype=bool)
        half_mask[:, ::2] = True
        assert layer.code_bytes(half_mask) < full
        empty_mask = np.zeros_like(layer.weights, dtype=bool)
        assert layer.code_bytes(empty_mask) < layer.code_bytes(half_mask)

    def test_code_bytes_formula(self, tiny_unpacked):
        layer = next(iter(tiny_unpacked.values()))
        expected = CODE_SIZE_MODEL.layer_bytes(layer.total_operands, layer.out_channels)
        assert layer.code_bytes() == expected

    def test_retained_operands_validation(self, tiny_unpacked):
        layer = next(iter(tiny_unpacked.values()))
        with pytest.raises(ValueError):
            layer.retained_operands(np.ones((1, 1), dtype=bool))

    def test_total_code_bytes(self, tiny_unpacked):
        total = total_unpacked_code_bytes(tiny_unpacked)
        assert total == sum(layer.code_bytes() for layer in tiny_unpacked.values())


class TestCalibration:
    def test_layers_and_lengths(self, tiny_qmodel, tiny_calibration):
        for conv in tiny_qmodel.conv_layers():
            assert conv.name in tiny_calibration
            stats = tiny_calibration.layers[conv.name]
            assert stats.mean_inputs.shape == (conv.operands_per_channel,)
            assert stats.std_inputs.shape == (conv.operands_per_channel,)
            assert stats.samples > 0

    def test_first_layer_means_match_direct_computation(self, tiny_qmodel, small_split):
        """E[a_i] of the first conv, and of every later one, is its input patches' mean, bit for bit."""
        calib_images = small_split.calibration.images[:32]
        result = ActivationCalibrator(tiny_qmodel, batch_size=8).calibrate(calib_images)
        expected = _im2col_means(tiny_qmodel, calib_images)
        for conv in tiny_qmodel.conv_layers():
            np.testing.assert_array_equal(result.mean_inputs(conv.name), expected[conv.name])

    def test_stride_two_conv_and_dense_means_match_direct_computation(self, rng):
        qmodel = _stride_two_model(rng)
        images = rng.random((40, 9, 9, 3), dtype=np.float32)
        result = ActivationCalibrator(qmodel, include_dense=True, batch_size=16).calibrate(images)
        expected = _im2col_means(qmodel, images)
        assert list(expected) == result.layer_names() == ["conv_s2", "fc"]
        for name, means in expected.items():
            np.testing.assert_array_equal(result.mean_inputs(name), means)
        assert result.layers["conv_s2"].samples == 40 * 5 * 5

    def test_first_layer_means_nonnegative(self, tiny_calibration, tiny_qmodel):
        """Inputs are normalised to [0,1]; ReLU outputs are >= 0 after dequantization."""
        first = tiny_qmodel.conv_layers()[0].name
        assert tiny_calibration.mean_inputs(first).min() >= -1e-6

    def test_empty_calibration_rejected(self, tiny_qmodel):
        with pytest.raises(ValueError):
            ActivationCalibrator(tiny_qmodel).calibrate(np.zeros((0, 16, 16, 3), np.float32))

    def test_non_nhwc_rejected(self, tiny_qmodel):
        with pytest.raises(ValueError):
            ActivationCalibrator(tiny_qmodel).calibrate(np.zeros((4, 16, 16), np.float32))

    def test_include_dense(self, tiny_qmodel, small_split):
        calibrator = ActivationCalibrator(tiny_qmodel, include_dense=True)
        result = calibrator.calibrate(small_split.calibration.images[:16])
        dense_names = {l.name for l in tiny_qmodel.layers if isinstance(l, QDense)}
        assert dense_names <= set(result.layer_names())


class TestSignificance:
    def test_rows_sum_to_at_least_one(self, tiny_qmodel, tiny_significance):
        """|sum of signed contributions| = 1, so the sum of magnitudes is >= 1."""
        for name in tiny_significance.layer_names():
            sig = tiny_significance[name]
            finite_rows = np.isfinite(sig).all(axis=1)
            sums = sig[finite_rows].sum(axis=1)
            assert (sums >= 1.0 - 1e-6).all()

    def test_shape_matches_layer(self, tiny_qmodel, tiny_significance):
        for conv in tiny_qmodel.conv_layers():
            assert tiny_significance[conv.name].shape == (
                conv.out_channels,
                conv.operands_per_channel,
            )

    def test_nonnegative(self, tiny_significance):
        for name in tiny_significance.layer_names():
            assert (tiny_significance[name] >= 0).all()

    def test_zero_weight_operand_has_zero_significance(self, tiny_qmodel, tiny_calibration):
        conv = tiny_qmodel.conv_layers()[0]
        mean_inputs = tiny_calibration.mean_inputs(conv.name)
        sig = compute_layer_significance(conv, mean_inputs)
        zero_weights = conv.weights.reshape(conv.out_channels, -1) == 0
        finite = np.isfinite(sig)
        assert (sig[zero_weights & finite] == 0).all()

    def test_zero_sum_channel_marked_infinite(self):
        """A channel whose expected accumulation is zero retains every operand."""

        class FakeLayer:
            pass

        # Build a minimal QConv2D-like object through the real class.
        from repro.quant.qlayers import QConv2D
        from repro.quant.schemes import QuantizationParams, symmetric_params_from_absmax

        weights = np.zeros((1, 1, 1, 2), dtype=np.int8)
        weights[0, 0, 0, 0] = 50
        weights[0, 0, 0, 1] = -50
        layer = QConv2D(
            name="c",
            weights=weights,
            bias=None,
            input_params=QuantizationParams(np.array([0.02]), np.array([0])),
            weight_params=symmetric_params_from_absmax(np.array([1.0])),
            output_params=QuantizationParams(np.array([0.05]), np.array([0])),
            stride=(1, 1),
            padding=(0, 0),
        )
        # Equal mean inputs -> contributions cancel exactly -> zero-sum channel.
        sig = compute_layer_significance(layer, np.array([0.5, 0.5]))
        assert np.isinf(sig).all()

    @pytest.mark.parametrize("metric", ["product_magnitude", "weight_magnitude", "random"])
    def test_alternative_metrics_normalised(self, tiny_qmodel, tiny_calibration, metric):
        result = compute_significance(tiny_qmodel, tiny_calibration, metric=metric, rng=3)
        for name in result.layer_names():
            sums = result[name].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=1e-6)

    def test_unknown_metric(self, tiny_qmodel, tiny_calibration):
        conv = tiny_qmodel.conv_layers()[0]
        with pytest.raises(ValueError):
            compute_layer_significance(conv, tiny_calibration.mean_inputs(conv.name), metric="nope")

    def test_length_mismatch(self, tiny_qmodel):
        conv = tiny_qmodel.conv_layers()[0]
        with pytest.raises(ValueError):
            compute_layer_significance(conv, np.ones(3))

    def test_metric_recorded(self, tiny_significance):
        assert tiny_significance.metric == "expected_contribution"
