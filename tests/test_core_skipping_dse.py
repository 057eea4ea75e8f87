"""Tests for computation skipping, approximate configs, DSE and Pareto analysis (stages 4-5)."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApproxConfig,
    DSEConfig,
    Granularity,
    LayerApproxSpec,
    build_model_masks,
    build_skip_mask,
    pareto_front,
    retained_fraction,
    run_dse,
    select_by_accuracy_loss,
)
from repro.core.dse import _generate_layer_subsets
from repro.core.pareto import is_pareto_optimal
from repro.core.skipping import conv_mac_reduction


class TestBuildSkipMask:
    def _significance(self, rng, out_c=4, k=12):
        sig = rng.random((out_c, k))
        return sig / sig.sum(axis=1, keepdims=True)

    def test_negative_tau_keeps_everything(self, rng):
        sig = self._significance(rng)
        assert build_skip_mask(sig, -1.0).all()

    def test_mask_is_monotonic_in_tau(self, rng):
        sig = self._significance(rng)
        previous = build_skip_mask(sig, 0.0)
        for tau in (0.01, 0.05, 0.1, 0.5):
            current = build_skip_mask(sig, tau)
            # Everything retained at a larger tau was retained at a smaller tau.
            assert (previous | ~current).all()
            previous = current

    def test_threshold_semantics(self):
        sig = np.array([[0.1, 0.2, 0.7]])
        mask = build_skip_mask(sig, 0.1)
        np.testing.assert_array_equal(mask, [[False, True, True]])  # S <= tau skipped

    def test_infinite_significance_always_retained(self):
        sig = np.array([[np.inf, np.inf], [0.5, 0.5]])
        mask = build_skip_mask(sig, 0.9)
        assert mask[0].all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_skip_mask(np.ones(4), 0.1)

    def test_channel_granularity_skips_whole_groups(self, rng):
        sig = self._significance(rng, out_c=2, k=12)
        coords = np.stack(
            [np.zeros(12, int), np.zeros(12, int), np.repeat(np.arange(4), 3)], axis=1
        )
        mask = build_skip_mask(sig, 0.08, granularity=Granularity.INPUT_CHANNEL, operand_coords=coords)
        # Within each (output channel, input channel) group the decision is uniform.
        for out_channel in range(2):
            for group in range(4):
                member = coords[:, 2] == group
                values = np.unique(mask[out_channel, member])
                assert values.size == 1

    def test_coarse_granularity_requires_coords(self, rng):
        sig = self._significance(rng)
        with pytest.raises(ValueError):
            build_skip_mask(sig, 0.1, granularity=Granularity.INPUT_CHANNEL)

    def test_kernel_position_granularity(self, rng):
        sig = self._significance(rng, out_c=1, k=8)
        coords = np.stack(
            [np.repeat([0, 1], 4), np.tile([0, 0, 1, 1], 2), np.tile([0, 1], 4)], axis=1
        )
        mask = build_skip_mask(sig, 0.12, granularity=Granularity.KERNEL_POSITION, operand_coords=coords)
        assert mask.shape == sig.shape

    def test_build_model_masks_only_listed_layers(self, tiny_significance):
        names = tiny_significance.layer_names()
        masks = build_model_masks(tiny_significance, {names[0]: 0.05})
        assert set(masks) == {names[0]}
        with pytest.raises(KeyError):
            build_model_masks(tiny_significance, {"missing": 0.1})

    def test_retained_fraction(self):
        masks = {"a": np.array([[True, False], [True, True]])}
        assert retained_fraction(masks) == pytest.approx(0.75)
        assert retained_fraction({}) == 1.0

    def test_conv_mac_reduction_bounds(self, tiny_qmodel, tiny_significance):
        masks = build_model_masks(tiny_significance, {n: 0.05 for n in tiny_significance.layer_names()})
        reduction = conv_mac_reduction(tiny_qmodel, masks)
        assert 0.0 <= reduction <= 1.0


class TestApproxConfig:
    def test_uniform_and_exact(self):
        config = ApproxConfig.uniform("m", ["conv1", "conv2"], tau=0.01)
        assert not config.is_exact
        assert config.taus() == {"conv1": 0.01, "conv2": 0.01}
        assert ApproxConfig.exact("m").is_exact

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LayerApproxSpec(tau=-0.1)
        with pytest.raises(ValueError):
            LayerApproxSpec(tau=0.1, granularity="nope")

    def test_json_roundtrip(self, tmp_path):
        config = ApproxConfig.uniform("tiny", ["conv1"], tau=0.02, label="test")
        path = tmp_path / "config.json"
        config.save(path)
        loaded = ApproxConfig.load(path)
        assert loaded.model_name == "tiny"
        assert loaded.label == "test"
        assert loaded.taus() == {"conv1": 0.02}
        assert loaded.layer_specs["conv1"].granularity == Granularity.OPERAND.value

    def test_build_masks_matches_direct_construction(self, tiny_qmodel, tiny_significance):
        names = tiny_significance.layer_names()
        config = ApproxConfig.uniform(tiny_qmodel.name, names, tau=0.03)
        masks = config.build_masks(tiny_significance)
        direct = build_model_masks(tiny_significance, {n: 0.03 for n in names})
        for name in names:
            np.testing.assert_array_equal(masks[name], direct[name])


class TestPareto:
    def _points(self):
        return [
            {"x": 0.0, "y": 0.9},
            {"x": 0.2, "y": 0.9},   # dominates the first
            {"x": 0.4, "y": 0.85},
            {"x": 0.3, "y": 0.8},   # dominated by the previous two? (x smaller, y smaller than 0.85@0.4) -> dominated
            {"x": 0.6, "y": 0.5},
        ]

    def test_front_extraction(self):
        points = self._points()
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        xs = [p["x"] for p in front]
        assert 0.0 not in xs  # dominated by x=0.2, same accuracy
        assert 0.3 not in xs
        assert {0.2, 0.4, 0.6} <= set(xs)

    def test_front_of_empty(self):
        assert pareto_front([], lambda p: p, lambda p: p) == []

    def test_is_pareto_optimal(self):
        points = self._points()
        assert is_pareto_optimal(points[1], points, lambda p: p["x"], lambda p: p["y"])
        assert not is_pareto_optimal(points[0], points, lambda p: p["x"], lambda p: p["y"])

    def test_duplicate_points_deduplicated(self):
        points = [{"x": 0.1, "y": 0.5}, {"x": 0.1, "y": 0.5}]
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        assert len(front) == 1

    def test_select_by_accuracy_loss(self):
        points = self._points()
        best = select_by_accuracy_loss(points, baseline_accuracy=0.9, max_accuracy_loss=0.05,
                                       accuracy=lambda p: p["y"], gain=lambda p: p["x"])
        assert best["x"] == 0.4
        strict = select_by_accuracy_loss(points, 0.9, 0.0, lambda p: p["y"], lambda p: p["x"])
        assert strict["x"] == 0.2
        none = select_by_accuracy_loss(points, 2.0, 0.0, lambda p: p["y"], lambda p: p["x"])
        assert none is None
        with pytest.raises(ValueError):
            select_by_accuracy_loss(points, 0.9, -0.1, lambda p: p["y"], lambda p: p["x"])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_members_are_not_dominated_property(self, pairs):
        points = [{"x": x, "y": y} for x, y in pairs]
        front = pareto_front(points, lambda p: p["x"], lambda p: p["y"])
        assert front, "front of a non-empty set is non-empty"
        for member in front:
            for other in points:
                strictly_better = (
                    other["x"] >= member["x"]
                    and other["y"] >= member["y"]
                    and (other["x"] > member["x"] or other["y"] > member["y"])
                )
                assert not strictly_better


class TestDSE:
    def test_layer_subset_generation(self):
        names = ["c1", "c2", "c3"]
        assert _generate_layer_subsets(names, "all") == [("c1", "c2", "c3")]
        per_layer = _generate_layer_subsets(names, "per_layer")
        assert ("c1",) in per_layer and ("c1", "c2", "c3") in per_layer
        exhaustive = _generate_layer_subsets(names, "exhaustive")
        assert len(exhaustive) == 7
        with pytest.raises(ValueError):
            _generate_layer_subsets(names, "nope")
        with pytest.raises(ValueError):
            _generate_layer_subsets([], "all")

    def test_dse_config_tau_resolution(self):
        config = DSEConfig(tau_step=0.01, tau_max=0.05)
        assert config.resolved_taus() == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
        explicit = DSEConfig(tau_values=[0.3, 0.1, 0.1])
        assert explicit.resolved_taus() == [0.1, 0.3]
        with pytest.raises(ValueError):
            DSEConfig(tau_values=[-0.1]).resolved_taus()

    def test_dse_result_structure(self, tiny_pipeline_result, tiny_qmodel):
        dse = tiny_pipeline_result.dse
        assert dse.baseline_conv_macs == tiny_qmodel.conv_macs()
        assert dse.points[0].config.is_exact  # exact reference point included
        assert dse.points[0].conv_mac_reduction == 0.0
        assert len(dse.points) >= len(DSEConfig(tau_values=[0.0, 0.01, 0.05, 0.1]).resolved_taus())
        for point in dse.points:
            assert 0.0 <= point.accuracy <= 1.0
            assert 0.0 <= point.conv_mac_reduction <= 1.0
            assert point.total_macs <= dse.baseline_total_macs

    def test_mac_reduction_monotonic_in_tau(self, tiny_pipeline_result):
        """Within the same layer subset, a larger tau never reduces fewer MACs."""
        dse = tiny_pipeline_result.dse
        swept = [(max(p.config.taus().values()), p.conv_mac_reduction)
                 for p in dse.points if not p.config.is_exact]
        swept.sort()
        reductions = [r for _, r in swept]
        assert all(b >= a - 1e-9 for a, b in zip(reductions, reductions[1:]))

    def test_best_within_loss_budgets_nested(self, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        best_0 = dse.best_within_loss(0.0)
        best_10 = dse.best_within_loss(0.10)
        assert best_0 is not None and best_10 is not None
        assert best_10.conv_mac_reduction >= best_0.conv_mac_reduction

    def test_pareto_points_subset_of_points(self, tiny_pipeline_result):
        dse = tiny_pipeline_result.dse
        pareto = dse.pareto_points()
        assert 1 <= len(pareto) <= len(dse.points)
        for point in pareto:
            assert point in dse.points

    def test_as_table(self, tiny_pipeline_result):
        table = tiny_pipeline_result.dse.as_table()
        assert len(table) == len(tiny_pipeline_result.dse.points)
        assert {"accuracy", "conv_mac_reduction", "taus"} <= set(table[0])

    def test_run_dse_with_max_configs(self, tiny_qmodel, tiny_significance, small_split):
        dse = run_dse(
            tiny_qmodel,
            tiny_significance,
            small_split.test.images[:64],
            small_split.test.labels[:64],
            dse_config=DSEConfig(tau_values=[0.0, 0.01, 0.02, 0.05, 0.1], max_configs=3),
        )
        # 3 approximate configs + the exact reference point.
        assert len(dse.points) == 4

    def test_run_dse_alignment_check(self, tiny_qmodel, tiny_significance, small_split):
        with pytest.raises(ValueError):
            run_dse(
                tiny_qmodel,
                tiny_significance,
                small_split.test.images[:10],
                small_split.test.labels[:5],
            )

    def test_run_dse_keeps_no_reference_to_its_inputs(self, tiny_qmodel, tiny_significance, small_split):
        """Once run_dse returns, the caller's evaluation arrays are free to go."""
        images = small_split.test.images[:16].astype(np.float32, copy=True)
        labels = small_split.test.labels[:16]
        assert np.asarray(images, dtype=np.float32) is images
        alive = weakref.ref(images)
        result = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=[0.0, 0.05]),
        )
        del images
        gc.collect()
        assert alive() is None
        assert len(result.points) == 3
