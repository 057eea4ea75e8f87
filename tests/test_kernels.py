"""Tests for the CMSIS-NN-style int8 kernels."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    CycleCounter,
    KernelStats,
    avg_pool_s8,
    convolve_s8,
    fully_connected_s8,
    im2col_s8,
    max_pool_s8,
    pack_weight_pair,
    pack_weight_vector,
    relu_s8,
    smlad,
    softmax_s8,
    unpack_weight_pair,
)
from repro.kernels.accumulate import exact_matmul_dtype, integer_matmul
from repro.kernels.conv_s8 import prepare_conv_s8
from repro.kernels.fully_connected_s8 import prepare_fully_connected_s8
from repro.kernels.gemm import BLOCK_POSITIONS, execute_gemm, stack_plans
from repro.kernels.smlad import smlad_dot


def naive_convolve_s8(x, weights, bias, in_zp, out_zp, multipliers, stride, padding, act_min, act_max, mask=None):
    """Loop-based reference of the s8 convolution (slow, unquestionably correct)."""
    n, in_h, in_w, in_c = x.shape
    out_c, kh, kw, _ = weights.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.full((n, in_h + 2 * ph, in_w + 2 * pw, in_c), in_zp, dtype=np.int64)
    xp[:, ph : ph + in_h, pw : pw + in_w, :] = x
    out_h = (in_h + 2 * ph - kh) // sh + 1
    out_w = (in_w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, out_h, out_w, out_c), dtype=np.int64)
    w_mat = weights.reshape(out_c, -1).astype(np.int64)
    if mask is not None:
        w_mat = w_mat * mask
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[b, i * sh : i * sh + kh, j * sw : j * sw + kw, :].reshape(-1)
                for c in range(out_c):
                    acc = int(((patch - in_zp) * w_mat[c]).sum())
                    if bias is not None:
                        acc += int(bias[c])
                    value = int(np.rint(acc * multipliers[c])) + out_zp
                    out[b, i, j, c] = np.clip(value, act_min, act_max)
    return out.astype(np.int8)


def naive_max_pool_s8(x, kernel, stride):
    """Loop-based reference of int8 max pooling."""
    n, in_h, in_w, c = x.shape
    (kh, kw), (sh, sw) = kernel, stride
    out_h, out_w = (in_h - kh) // sh + 1, (in_w - kw) // sw + 1
    out = np.empty((n, out_h, out_w, c), dtype=np.int8)
    for i in range(out_h):
        for j in range(out_w):
            out[:, i, j, :] = x[:, i * sh : i * sh + kh, j * sw : j * sw + kw, :].max(axis=(1, 2))
    return out


class TestSmlad:
    def test_paper_example(self):
        """Section II-B: w1=64, w2=20 packs to 4194324."""
        assert pack_weight_pair(64, 20) == 64 * 2**16 + 20 == 4194324

    @pytest.mark.parametrize("hi,lo", [(0, 0), (127, -128), (-1, 1), (-128, -128), (5, -7)])
    def test_pack_unpack_roundtrip(self, hi, lo):
        assert unpack_weight_pair(pack_weight_pair(hi, lo)) == (hi, lo)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_weight_pair(200, 0)

    def test_smlad_accumulates_both_lanes(self):
        packed_w = pack_weight_pair(3, -2)
        packed_x = pack_weight_pair(10, 5)
        assert smlad(packed_w, packed_x, acc=7) == 7 + 3 * 10 + (-2) * 5

    def test_smlad_dot_matches_plain_dot(self, rng):
        w = rng.integers(-127, 128, size=11).astype(np.int8)
        x = rng.integers(-128, 128, size=11).astype(np.int8)
        assert smlad_dot(w, x) == int(w.astype(np.int64) @ x.astype(np.int64))

    def test_pack_weight_vector_pads_odd_lengths(self):
        packed = pack_weight_vector(np.array([1, 2, 3], dtype=np.int8))
        assert packed.shape == (2,)
        assert unpack_weight_pair(int(packed[1])) == (3, 0)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_property(self, hi, lo):
        assert unpack_weight_pair(pack_weight_pair(hi, lo)) == (hi, lo)


class TestAccumulate:
    def test_dtype_selection(self):
        assert exact_matmul_dtype(10) == np.float32
        assert exact_matmul_dtype(5000) == np.float64

    def test_integer_matmul_exact_large_k(self, rng):
        a = rng.integers(-128, 128, size=(4, 3000)).astype(np.int64)
        b = rng.integers(-127, 128, size=(3000, 5)).astype(np.int64)
        np.testing.assert_array_equal(integer_matmul(a, b), a @ b)

    def test_integer_matmul_exact_small_k(self, rng):
        a = rng.integers(-128, 128, size=(7, 64)).astype(np.int64)
        b = rng.integers(-127, 128, size=(64, 3)).astype(np.int64)
        np.testing.assert_array_equal(integer_matmul(a, b), a @ b)


class TestIm2colS8:
    def test_pads_with_zero_point(self):
        x = np.full((1, 2, 2, 1), 5, dtype=np.int8)
        cols = im2col_s8(x, (3, 3), (1, 1), (1, 1), input_zero_point=-9)
        assert (cols[0, 0, 0] == -9).sum() == 5

    def test_requires_int8(self):
        with pytest.raises(TypeError):
            im2col_s8(np.zeros((1, 2, 2, 1), np.int32), (2, 2), (1, 1), (0, 0), 0)

    def test_zero_point_range(self):
        with pytest.raises(ValueError):
            im2col_s8(np.zeros((1, 2, 2, 1), np.int8), (2, 2), (1, 1), (0, 0), 300)


class TestConvolveS8:
    def _setup(self, rng, n=2, h=5, w=5, cin=3, cout=4, k=3, stride=(1, 1), padding=(1, 1)):
        x = rng.integers(-128, 128, size=(n, h, w, cin), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(cout, k, k, cin), dtype=np.int8)
        bias = rng.integers(-500, 500, size=cout).astype(np.int64)
        multipliers = rng.uniform(1e-4, 5e-3, size=cout)
        return x, weights, bias, multipliers, stride, padding

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((1, 1), (0, 0)), ((2, 2), (1, 1))])
    def test_matches_naive_reference(self, rng, stride, padding):
        x, weights, bias, multipliers, *_ = self._setup(rng)
        out = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127)
        expected = naive_convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127)
        np.testing.assert_array_equal(out, expected)

    def test_masked_matches_naive_masked(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        mask = rng.random((4, 27)) > 0.5
        out = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127, weight_mask=mask)
        expected = naive_convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127, mask=mask)
        np.testing.assert_array_equal(out, expected)

    def test_all_true_mask_equals_no_mask(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        full_mask = np.ones((4, 27), dtype=bool)
        a = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding)
        b = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, weight_mask=full_mask)
        np.testing.assert_array_equal(a, b)

    def test_fused_relu_clamps_at_zero_point(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        out_zp = -4
        out = convolve_s8(x, weights, bias, -3, out_zp, multipliers, stride, padding,
                          activation_min=out_zp, activation_max=127)
        assert out.min() >= out_zp

    def test_counter_records_mac_split(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng, n=1)
        mask = np.zeros((4, 27), dtype=bool)
        mask[:, :10] = True
        counter = CycleCounter()
        convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, weight_mask=mask,
                    counter=counter, section="conv_test")
        stats = counter.get("conv_test")
        patches = 1 * 5 * 5
        assert stats.macs == patches * 4 * 10
        assert stats.macs_skipped == patches * 4 * 17
        assert stats.total_mac_slots == patches * 4 * 27
        assert stats.output_elements == patches * 4

    def test_input_validation(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        with pytest.raises(TypeError):
            convolve_s8(x.astype(np.int32), weights, bias, 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights[:, :, :, :2], bias, 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights, bias[:2], 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights, bias, 0, 0, multipliers, weight_mask=np.ones((2, 2), bool))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize(
        "size,stride,padding",
        [(12, (1, 1), (1, 1)), (13, (2, 2), (2, 2)), (33, (1, 1), (1, 1)), (11, (1, 2), (0, 1))],
    )
    def test_blocked_batch_matches_naive(self, rng, size, stride, padding, masked):
        """Two full blocks of whole images plus a ragged last block."""
        out_h = (size + 2 * padding[0] - 3) // stride[0] + 1
        out_w = (size + 2 * padding[1] - 3) // stride[1] + 1
        per_block = max(1, BLOCK_POSITIONS // (out_h * out_w))
        n = 2 * per_block + max(1, per_block // 2)
        x, weights, bias, multipliers, *_ = self._setup(rng, n=n, h=size, w=size, cout=3)
        mask = rng.random((3, 27)) > 0.4 if masked else None
        out = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, weight_mask=mask)
        expected = naive_convolve_s8(
            x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127, mask=mask
        )
        np.testing.assert_array_equal(out, expected)

    def test_saturation_behaviour(self):
        x = np.full((1, 3, 3, 1), 127, dtype=np.int8)
        weights = np.full((1, 3, 3, 1), 127, dtype=np.int8)
        out = convolve_s8(x, weights, None, 0, 0, np.array([1.0]), (1, 1), (0, 0))
        assert out[0, 0, 0, 0] == 127  # saturated, not wrapped


class TestFullyConnectedS8:
    def test_matches_manual_computation(self, rng):
        x = rng.integers(-128, 128, size=(3, 6), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(6, 4), dtype=np.int8)
        bias = rng.integers(-100, 100, size=4).astype(np.int64)
        multipliers = np.full(4, 2e-3)
        out = fully_connected_s8(x, weights, bias, -2, 1, multipliers)
        acc = (x.astype(np.int64) - (-2)) @ weights.astype(np.int64) + bias
        expected = np.clip(np.rint(acc * multipliers) + 1, -128, 127).astype(np.int8)
        np.testing.assert_array_equal(out, expected)

    def test_mask_equivalent_to_zeroed_weights(self, rng):
        x = rng.integers(-128, 128, size=(2, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        multipliers = np.full(3, 1e-3)
        mask = rng.random((3, 8)) > 0.4
        masked = fully_connected_s8(x, weights, None, 0, 0, multipliers, weight_mask=mask)
        zeroed = (weights.astype(np.int64) * mask.T).astype(np.int8)
        reference = fully_connected_s8(x, zeroed, None, 0, 0, multipliers)
        np.testing.assert_array_equal(masked, reference)

    def test_counter(self, rng):
        x = rng.integers(-128, 128, size=(5, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        counter = CycleCounter()
        fully_connected_s8(x, weights, None, 0, 0, np.full(3, 1e-3), counter=counter, section="fc")
        stats = counter.get("fc")
        assert stats.macs == 5 * 24
        assert stats.output_elements == 15

    @pytest.mark.parametrize("masked", [False, True])
    def test_float64_path_matches_int64_product(self, rng, masked):
        """K > 1023 overflows float32's exact range: the plan runs in float64."""
        k = 3000
        x = rng.integers(-128, 128, size=(5, k), dtype=np.int8)
        x[0] = rng.integers(-128, -100, size=k)
        weights = rng.integers(-128, -100, size=(k, 4), dtype=np.int8)
        mask = rng.random((4, k)) > 0.3 if masked else np.ones((4, k), dtype=bool)
        acc = (x.astype(np.int64) + 5) @ (weights.astype(np.int64) * mask.T)
        assert np.abs(acc[0]).min() > 2**24
        # Cancel row 0's accumulators in the bias so its outputs read their
        # low bits: rounding anywhere in the sums changes them.
        bias = -acc[0] + rng.integers(-100, 100, size=4)
        multipliers = np.ones(4)
        plan = prepare_fully_connected_s8(weights, bias, -5, 2, multipliers, weight_mask=mask)
        assert plan.weights.dtype == np.float64
        out = fully_connected_s8(x, weights, bias, -5, 2, multipliers, weight_mask=mask)
        expected = np.clip(acc + bias + 2, -128, 127).astype(np.int8)
        np.testing.assert_array_equal(out, expected)

    def test_validation(self, rng):
        x = rng.integers(-128, 128, size=(2, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        with pytest.raises(TypeError):
            fully_connected_s8(x.astype(np.float32), weights, None, 0, 0, np.ones(3))
        with pytest.raises(ValueError):
            fully_connected_s8(x[:, :4], weights, None, 0, 0, np.ones(3))
        with pytest.raises(ValueError):
            fully_connected_s8(x[0], weights, None, 0, 0, np.ones(3))


class TestStackPlans:
    def _conv_plan(self, weights, mask=None, stride=(1, 1), padding=(1, 1), output_zero_point=4):
        cout = weights.shape[0]
        bias = np.arange(cout, dtype=np.int64) * 37 - 60
        return prepare_conv_s8(weights, bias, -3, output_zero_point, np.linspace(1e-3, 4e-3, cout),
                               stride, padding, weight_mask=mask)

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 2))])
    def test_conv_channel_slices_equal_each_plans_own_output(self, rng, stride, padding):
        """Three masks over enough 9x9 images for several blocks: each slice is bit-identical."""
        x = rng.integers(-128, 128, size=(40, 9, 9, 3), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(4, 3, 3, 3), dtype=np.int8)
        masks = [None, rng.random((4, 27)) > 0.3, rng.random((4, 27)) > 0.8]
        plans = [self._conv_plan(weights, mask, stride, padding) for mask in masks]
        stacked = execute_gemm(stack_plans(plans), x)
        assert stacked.shape[-1] == 12
        for i, plan in enumerate(plans):
            np.testing.assert_array_equal(stacked[..., 4 * i : 4 * i + 4], execute_gemm(plan, x))

    @pytest.mark.parametrize("k", [40, 3000])  # float32 and float64 accumulation
    def test_dense_channel_slices_equal_each_plans_own_output(self, rng, k):
        x = rng.integers(-128, 128, size=(7, k), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(k, 5), dtype=np.int8)
        masks = [rng.random((5, k)) > 0.5, None, rng.random((5, k)) > 0.1]
        plans = [prepare_fully_connected_s8(weights, None, -5, 2, np.full(5, 2e-4), weight_mask=mask)
                 for mask in masks]
        stacked = execute_gemm(stack_plans(plans), x)
        for i, plan in enumerate(plans):
            np.testing.assert_array_equal(stacked[:, 5 * i : 5 * i + 5], execute_gemm(plan, x))

    def test_rejects_plans_that_differ_in_k_geometry_or_zero_point(self, rng):
        weights = rng.integers(-127, 128, size=(4, 3, 3, 3), dtype=np.int8)
        plan = self._conv_plan(weights)
        dense = prepare_fully_connected_s8(rng.integers(-127, 128, size=(27, 4), dtype=np.int8), None,
                                           -3, 4, np.full(4, 1e-3))
        for other in (self._conv_plan(weights[..., :2]), self._conv_plan(weights, stride=(2, 2)),
                      self._conv_plan(weights, padding=(0, 0)), self._conv_plan(weights, output_zero_point=0),
                      dense):
            with pytest.raises(ValueError):
                stack_plans([plan, other])
        assert stack_plans([plan]) is plan


def _pooled_case(seed, n, size, cout, pool, relu, ties, masked, padding=(1, 1)):
    """A random 3x3 conv plan, the same plan carrying ``pool``, and an int8 batch."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-128, 128, size=(n, size, size, 3), dtype=np.int8)
    weights = rng.integers(-127, 128, size=(cout, 3, 3, 3), dtype=np.int8)
    bias = rng.integers(-2000, 2000, size=cout).astype(np.int64)
    # Powers of two put (A + init) * m on exact .5 ties for many A; rint then rounds half to even.
    multipliers = 2.0 ** -rng.integers(1, 4, size=cout) if ties else rng.uniform(1e-4, 5e-3, size=cout)
    mask = rng.random((cout, 27)) > 0.4 if masked else None
    zp = int(rng.integers(-20, 20))
    plan = prepare_conv_s8(weights, bias, int(rng.integers(-10, 10)), zp, multipliers, (1, 1), padding,
                           activation_min=zp if relu else -128, weight_mask=mask)
    return plan, replace(plan, pool=pool), x


POOLS = [((2, 2), (2, 2)), ((3, 3), (2, 2)), ((2, 2), (1, 1)), ((3, 2), (1, 3))]


class TestFoldedPool:
    """``execute_gemm`` of a plan carrying a max pool equals pooling its int8 output, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        size=st.integers(4, 11),
        cout=st.integers(1, 6),
        pool=st.sampled_from(POOLS),
        relu=st.booleans(),
        ties=st.booleans(),
        masked=st.booleans(),
    )
    def test_equals_pooling_the_requantized_output(self, seed, n, size, cout, pool, relu, ties, masked):
        plan, pooled, x = _pooled_case(seed, n, size, cout, pool, relu, ties, masked)
        np.testing.assert_array_equal(execute_gemm(pooled, x), max_pool_s8(execute_gemm(plan, x), *pool))

    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("relu", [False, True])
    def test_odd_sizes_over_several_blocks_with_ties(self, pool, relu):
        """9x9 outputs: odd, so 2x2/2 drops a row and column; 12 images a block, the last one short."""
        per_block = BLOCK_POSITIONS // 81
        n = 2 * per_block + 5
        plan, pooled, x = _pooled_case(7, n, 9, 4, pool, relu, ties=True, masked=True)
        reference = execute_gemm(plan, x)
        out = execute_gemm(pooled, x)
        np.testing.assert_array_equal(out, max_pool_s8(reference, *pool))
        np.testing.assert_array_equal(out, naive_max_pool_s8(reference, *pool))
        assert out.shape == (n,) + naive_max_pool_s8(reference[:1], *pool).shape[1:]
        cols = im2col_s8(np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)), constant_values=plan.input_zero_point),
                         (3, 3), (1, 1), (0, 0), plan.input_zero_point, dtype=np.int64)
        scaled = (cols.reshape(-1, 27) @ plan.weights.astype(np.int64) + plan.init) * plan.multipliers
        assert np.count_nonzero(np.abs(scaled % 1 - 0.5) == 0) > 100  # the case reaches exact ties

    @pytest.mark.parametrize("pool", POOLS[:2])
    def test_stacked_pooled_plans_slice_into_each_plans_output(self, pool):
        _, first, x = _pooled_case(3, 29, 9, 4, pool, relu=True, ties=True, masked=True)
        others = [_pooled_case(seed, 1, 9, 4, pool, relu=True, ties=True, masked=True)[1] for seed in (4, 5)]
        plans = [first] + [replace(first, weights=o.weights, init=o.init, multipliers=o.multipliers)
                           for o in others]
        stacked = execute_gemm(stack_plans(plans), x)
        for i, plan in enumerate(plans):
            unpooled = execute_gemm(replace(plan, pool=None), x)
            np.testing.assert_array_equal(stacked[..., 4 * i : 4 * i + 4], max_pool_s8(unpooled, *pool))

    def test_plans_with_different_pools_refuse_to_stack(self):
        plan, pooled, _ = _pooled_case(1, 1, 9, 4, POOLS[0], relu=False, ties=False, masked=False)
        for pair in ([plan, pooled], [pooled, replace(pooled, pool=POOLS[1])]):
            with pytest.raises(ValueError, match="pool"):
                stack_plans(pair)

    def test_only_a_convolution_with_positive_multipliers_folds_a_pool(self, rng):
        dense = prepare_fully_connected_s8(rng.integers(-127, 128, size=(8, 3), dtype=np.int8), None,
                                           0, 0, np.full(3, 1e-3))
        plan, _, _ = _pooled_case(1, 1, 9, 4, POOLS[0], relu=False, ties=False, masked=False)
        for bad in (dense, replace(plan, multipliers=-plan.multipliers)):
            with pytest.raises(ValueError, match="positive multipliers"):
                replace(bad, pool=POOLS[0])


class TestPoolingS8:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.int8).reshape(1, 4, 4, 1)
        out = max_pool_s8(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    @pytest.mark.parametrize(
        "kernel,stride", [((3, 3), (2, 2)), ((3, 3), (1, 1)), ((2, 2), (1, 1)), ((2, 2), (2, 2))]
    )
    def test_max_pool_matches_loop_reference(self, rng, kernel, stride):
        x = rng.integers(-128, 128, size=(3, 9, 11, 5), dtype=np.int8)
        x[..., 0] = -128
        x[0, ::2, ::3, 1] = 127
        x[1, ..., 2] = 127
        out = max_pool_s8(x, kernel, stride)
        np.testing.assert_array_equal(out, naive_max_pool_s8(x, kernel, stride))
        assert out.dtype == np.int8 and out.flags["C_CONTIGUOUS"]

    def test_avg_pool_rounds(self):
        x = np.array([[1, 2], [3, 5]], dtype=np.int8).reshape(1, 2, 2, 1)
        out = avg_pool_s8(x, (2, 2), (2, 2))
        assert out[0, 0, 0, 0] == 3  # round(11/4) = 3

    @pytest.mark.parametrize("func", [max_pool_s8, avg_pool_s8])
    def test_requires_int8(self, func):
        with pytest.raises(TypeError):
            func(np.zeros((1, 4, 4, 1), np.float32), (2, 2), (2, 2))

    @pytest.mark.parametrize("func", [max_pool_s8, avg_pool_s8])
    def test_counter_populated(self, func, rng):
        x = rng.integers(-128, 128, size=(2, 8, 8, 3), dtype=np.int8)
        counter = CycleCounter()
        func(x, (2, 2), (2, 2), counter=counter, section="pool")
        assert counter.get("pool").output_elements == 2 * 4 * 4 * 3


class TestActivationKernels:
    def test_relu_clamps_to_zero_point(self, rng):
        x = rng.integers(-128, 128, size=(4, 4), dtype=np.int8)
        out = relu_s8(x, zero_point=-5)
        assert out.min() >= -5
        np.testing.assert_array_equal(out[x >= -5], x[x >= -5])

    def test_relu_validation(self):
        with pytest.raises(TypeError):
            relu_s8(np.zeros((2, 2), np.float32), 0)
        with pytest.raises(ValueError):
            relu_s8(np.zeros((2, 2), np.int8), 500)

    def test_softmax_argmax_preserved(self, rng):
        x = rng.integers(-128, 128, size=(6, 10), dtype=np.int8)
        out = softmax_s8(x, input_scale=0.1)
        np.testing.assert_array_equal(out.argmax(axis=-1), x.argmax(axis=-1))

    def test_softmax_validation(self):
        with pytest.raises(ValueError):
            softmax_s8(np.zeros((2, 3), np.int8), input_scale=0)
        with pytest.raises(TypeError):
            softmax_s8(np.zeros((2, 3), np.float32), input_scale=0.1)


class TestCycleCounter:
    def test_merge_and_total(self):
        counter = CycleCounter()
        counter.record("a", KernelStats(macs=10, output_elements=2))
        counter.record("a", KernelStats(macs=5, macs_skipped=3))
        counter.record("b", KernelStats(comparisons=7))
        assert counter.get("a").macs == 15
        assert counter.get("a").macs_skipped == 3
        assert counter.total().macs == 15
        assert counter.total().comparisons == 7
        assert len(counter) == 2
        assert "a" in counter and "c" not in counter

    def test_sections_preserve_order(self):
        counter = CycleCounter()
        for name in ("conv1", "pool1", "conv2"):
            counter.record(name, KernelStats(macs=1))
        assert [name for name, _ in counter.sections()] == ["conv1", "pool1", "conv2"]

    def test_reset(self):
        counter = CycleCounter()
        counter.record("a", KernelStats(macs=1))
        counter.reset()
        assert len(counter) == 0
        assert counter.get("a") is None

    def test_stats_as_dict(self):
        stats = KernelStats(macs=3, macs_skipped=1)
        payload = stats.as_dict()
        assert payload["macs"] == 3 and payload["macs_skipped"] == 1
        assert stats.total_mac_slots == 4
