"""Tests for the DSE search strategies and the one design evaluator they share."""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest

from repro.core import ApproxConfig, DesignEvaluator, DSEConfig, run_dse
from repro.core.dse import CHUNK_IMAGES
from repro.isa import STM32U575
from repro.kernels import gemm

TAUS = [0.0, 0.01, 0.05, 0.1]


def _greedy(qmodel, significance, images, labels, layer_names=None, **options):
    """A greedy ``run_dse``; its last point is the search's answer."""
    return run_dse(
        qmodel, significance, images, labels,
        dse_config=DSEConfig(strategy="greedy", strategy_options=options),
        layer_names=layer_names,
    )


@pytest.fixture(scope="module")
def latency_dse(tiny_qmodel, tiny_pipeline_result, small_split):
    """The latency-aware sweep over the same designs and images as ``tiny_pipeline_result``."""
    return run_dse(
        tiny_qmodel,
        tiny_pipeline_result.significance,
        small_split.test.images[:96],
        small_split.test.labels[:96],
        dse_config=DSEConfig(tau_values=TAUS, strategy="latency-aware"),
        unpacked=tiny_pipeline_result.unpacked,
        board=STM32U575,
    )


class TestGreedySearch:
    def test_respects_accuracy_budget(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = _greedy(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.05,
            tau_candidates=[0.001, 0.005, 0.02, 0.08],
            max_steps=8,
        )
        for point in result.points:
            assert point.accuracy >= result.baseline_accuracy - 0.05 - 1e-9
            assert 0.0 <= point.conv_mac_reduction <= 1.0

    def test_zero_budget_still_returns_valid_config(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:64], small_split.test.labels[:64]
        result = _greedy(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.0,
            tau_candidates=[0.001, 0.01],
            max_steps=4,
        )
        # Whatever was accepted kept accuracy at (or above) the baseline.
        answer = result.points[-1]
        assert answer.accuracy >= result.baseline_accuracy - 1e-9
        assert answer.config.model_name == tiny_qmodel.name

    def test_steps_are_recorded_and_monotonic_in_reduction(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = _greedy(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.10,
            tau_candidates=[0.002, 0.01, 0.05],
            max_steps=6,
        )
        assert result.points[0].config.is_exact
        steps = result.points[1:]
        assert [p.config.label for p in steps] == [
            f"{tiny_qmodel.name}:greedy:step{i}" for i in range(1, len(steps) + 1)
        ]
        reductions = [p.conv_mac_reduction for p in result.points]
        assert all(b > a for a, b in zip(reductions, reductions[1:]))
        for point in steps:
            assert set(point.config.taus()) <= set(tiny_significance.layer_names())

    def test_heterogeneous_thresholds_possible(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        result = _greedy(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=0.15,
            tau_candidates=[0.005, 0.02, 0.08],
            max_steps=10,
        )
        taus = result.points[-1].config.taus()
        # With a generous budget the search approximates at least one layer.
        assert len(taus) >= 1

    def test_at_least_as_good_as_best_uniform_candidate(self, tiny_qmodel, tiny_significance, small_split):
        """Greedy search (which can express uniform configs) should not lose to the
        best *uniform* configuration drawn from the same tau ladder and budget."""
        images, labels = small_split.test.images[:96], small_split.test.labels[:96]
        ladder = [0.002, 0.01, 0.05]
        budget = 0.10
        uniform = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=ladder),
        ).best_within_loss(budget)

        greedy = _greedy(
            tiny_qmodel, tiny_significance, images, labels,
            max_accuracy_loss=budget, tau_candidates=ladder, max_steps=12,
        )
        # Greedy explores per-layer moves, so it can in principle stop short of a
        # feasible uniform configuration; allow a small slack.
        assert greedy.points[-1].conv_mac_reduction >= uniform.conv_mac_reduction - 0.03

    def test_validation(self, tiny_qmodel, tiny_significance, small_split):
        images, labels = small_split.test.images[:32], small_split.test.labels[:32]
        with pytest.raises(ValueError):
            _greedy(tiny_qmodel, tiny_significance, images, labels, max_accuracy_loss=-0.1)
        with pytest.raises(ValueError):
            _greedy(tiny_qmodel, tiny_significance, images, labels, tau_candidates=[0.0, 0.1])
        with pytest.raises(ValueError):
            _greedy(tiny_qmodel, tiny_significance, images, labels, layer_names=[])

    @pytest.mark.parametrize("n_labels", [1, 8])
    def test_rejects_misaligned_labels_like_the_sweep(
        self, tiny_qmodel, tiny_significance, small_split, n_labels
    ):
        images, labels = small_split.test.images[:64], small_split.test.labels[:n_labels]
        for strategy in ("exhaustive", "greedy"):
            with pytest.raises(ValueError, match="aligned"):
                run_dse(
                    tiny_qmodel, tiny_significance, images, labels,
                    dse_config=DSEConfig(tau_values=TAUS, strategy=strategy),
                )


class TestLatencyAwareSelection:
    def test_selection_is_feasible_and_no_slower_than_mac_pick(self, latency_dse, tiny_pipeline_result):
        budget = 0.10
        chosen = latency_dse.best_within_loss(budget)
        assert chosen is not None
        assert chosen.accuracy >= latency_dse.baseline_accuracy - budget

        mac_pick = tiny_pipeline_result.dse.best_within_loss(budget)
        latency_of = {p.config.label: p.latency_ms for p in latency_dse.points}
        assert chosen.latency_ms <= latency_of[mac_pick.config.label] + 1e-9

    def test_infeasible_budget_returns_none(self, latency_dse):
        unreachable = dataclasses.replace(latency_dse, baseline_accuracy=2.0)
        assert unreachable.best_within_loss(0.0) is None

    def test_estimate_design_latency_positive(self, latency_dse):
        exact = latency_dse.points[0]
        assert exact.config.is_exact
        assert exact.latency_ms > 0

    def test_negative_budget_is_rejected_like_the_mac_selection(self, latency_dse, tiny_pipeline_result):
        for result in (latency_dse, tiny_pipeline_result.dse):
            with pytest.raises(ValueError, match="non-negative"):
                result.best_within_loss(-0.1)

    @pytest.mark.parametrize("granularity", ["input_channel", "kernel_position"])
    def test_coarse_granularities_carry_latency(
        self, tiny_qmodel, tiny_significance, tiny_unpacked, small_split, granularity
    ):
        result = run_dse(
            tiny_qmodel, tiny_significance,
            small_split.test.images[:32], small_split.test.labels[:32],
            dse_config=DSEConfig(
                tau_values=TAUS, strategy="latency-aware", granularity=granularity
            ),
            unpacked=tiny_unpacked,
            board=STM32U575,
        )
        assert len(result.points) == len(TAUS) + 1
        assert all(p.latency_ms is not None and p.latency_ms > 0 for p in result.points)


class TestDesignEvaluator:
    def test_caps_the_set_and_scores_the_exact_design_at_the_baseline(
        self, tiny_qmodel, tiny_significance, small_split
    ):
        images, labels = small_split.test.images[:48], small_split.test.labels[:48]
        evaluator = DesignEvaluator(
            tiny_qmodel, tiny_significance, images, labels, DSEConfig(max_eval_samples=32)
        )
        assert evaluator.eval_images.dtype == np.float32
        assert evaluator.eval_images.shape[0] == evaluator.eval_labels.shape[0] == 32
        assert evaluator.baseline_accuracy == tiny_qmodel.evaluate_accuracy(images[:32], labels[:32])
        (exact,) = evaluator.evaluate([ApproxConfig.exact(tiny_qmodel.name)])
        assert exact.accuracy == evaluator.baseline_accuracy
        assert exact.conv_mac_reduction == 0.0 and exact.latency_ms is None

    def test_builds_each_configs_masks_once(
        self, tiny_qmodel, tiny_significance, tiny_unpacked, small_split, monkeypatch
    ):
        builds = []
        original = ApproxConfig.build_masks

        def counting(self, significance, unpacked=None):
            builds.append(self.label)
            return original(self, significance, unpacked=unpacked)

        monkeypatch.setattr(ApproxConfig, "build_masks", counting)
        images, labels = small_split.test.images[:16], small_split.test.labels[:16]
        result = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=TAUS, strategy="latency-aware"),
            unpacked=tiny_unpacked,
            board=STM32U575,
        )
        assert sorted(builds) == sorted(p.config.label for p in result.points)

    @pytest.mark.parametrize(
        "dse_config",
        [
            DSEConfig(tau_values=TAUS, layer_subsets="per_layer"),
            DSEConfig(tau_values=TAUS, layer_subsets="exhaustive"),
            DSEConfig(tau_values=TAUS, layer_subsets="per_layer", granularity="input_channel"),
            DSEConfig(tau_values=TAUS, strategy="greedy",
                      strategy_options={"max_accuracy_loss": 0.1, "max_steps": 4}),
            DSEConfig(tau_values=TAUS, layer_subsets="per_layer", strategy="latency-aware"),
        ],
        ids=["per-layer", "every-subset", "input-channel", "greedy", "latency-aware"],
    )
    def test_the_walk_equals_a_per_design_loop(
        self, tiny_qmodel, tiny_significance, tiny_unpacked, small_split, dse_config
    ):
        images, labels = small_split.train.images[:300], small_split.train.labels[:300]
        assert images.shape[0] % CHUNK_IMAGES, "the last chunk should be short"
        result = run_dse(tiny_qmodel, tiny_significance, images, labels, dse_config=dse_config,
                         unpacked=tiny_unpacked, board=STM32U575)
        assert result.baseline_accuracy == tiny_qmodel.evaluate_accuracy(images, labels)
        assert len({p.accuracy for p in result.points}) > 1
        for point in result.points:
            masks = point.config.build_masks(tiny_significance, unpacked=tiny_unpacked)
            expected = tiny_qmodel.evaluate_accuracy(images, labels, masks=masks)
            assert point.accuracy == expected, point.config.label

    def test_an_empty_evaluation_set_scores_every_design_zero(
        self, tiny_qmodel, tiny_significance, small_split
    ):
        result = run_dse(
            tiny_qmodel, tiny_significance, small_split.test.images[:0], small_split.test.labels[:0],
            dse_config=DSEConfig(tau_values=TAUS, layer_subsets="per_layer"),
        )
        assert len(result.points) > 1 and result.baseline_accuracy == 0.0
        assert all(p.accuracy == 0.0 for p in result.points)

    def test_prepares_each_distinct_plan_once_and_runs_identical_designs_once(
        self, tiny_qmodel, tiny_significance, small_split, monkeypatch
    ):
        images, labels = small_split.test.images[:40], small_split.test.labels[:40]
        evaluator = DesignEvaluator(tiny_qmodel, tiny_significance, images, labels)
        names = tiny_significance.layer_names()
        approx = ApproxConfig.uniform(tiny_qmodel.name, names, 0.05)
        masks = approx.build_masks(tiny_significance)
        assert len(names) > 1 and not any(m.all() for m in masks.values())
        first_only = ApproxConfig.uniform(tiny_qmodel.name, names[:1], 0.05)  # shares approx's first mask
        prepared, outputs = [], []
        for name in ("conv_s8", "fully_connected_s8"):  # the package re-exports a function of the second name
            module = importlib.import_module(f"repro.kernels.{name}")
            prepare = module.prepare_gemm  # what the counted forward and QLayer.prepare both reach
            monkeypatch.setattr(module, "prepare_gemm",
                                lambda *a, _prepare=prepare, **k: prepared.append(1) or _prepare(*a, **k))
        requantize = gemm._requantize_into  # every executed plan's epilogue, block by block
        monkeypatch.setattr(gemm, "_requantize_into",
                            lambda plan, acc, out: outputs.append(out.size) or requantize(plan, acc, out))

        evaluator.evaluate([ApproxConfig.exact(tiny_qmodel.name), approx, first_only])
        assert len(prepared) == len(tiny_qmodel.mac_layers()) + len(masks)
        once = (len(prepared), sum(outputs))
        prepared.clear()
        outputs.clear()
        points = evaluator.evaluate([ApproxConfig.exact(tiny_qmodel.name), approx, approx, first_only])
        assert (len(prepared), sum(outputs)) == once
        assert points[1].accuracy == points[2].accuracy

    def test_baseline_comes_from_the_exact_design_however_it_is_first_read(
        self, tiny_qmodel, tiny_significance, small_split
    ):
        images, labels = small_split.test.images[:64], small_split.test.labels[:64]
        expected = tiny_qmodel.evaluate_accuracy(images, labels)
        approx = ApproxConfig.uniform(tiny_qmodel.name, tiny_significance.layer_names(), 0.1)
        for configs in ([], [approx], [approx, ApproxConfig.exact(tiny_qmodel.name)]):
            evaluator = DesignEvaluator(tiny_qmodel, tiny_significance, images, labels)
            evaluator.evaluate(configs)
            assert evaluator.baseline_accuracy == expected
