"""Ablation A3: uniform-threshold DSE vs the greedy per-layer search.

The paper sweeps a single threshold tau over a chosen layer subset.  The
greedy strategy (``DSEConfig(strategy="greedy")``) assigns each layer its own
threshold under the same accuracy-loss budget; this ablation quantifies how
much extra MAC reduction the heterogeneous thresholds buy on the tiny CNN.
"""

from __future__ import annotations

import pytest

from repro.core import DSEConfig, run_dse
from repro.evaluation.reports import format_table

from bench_utils import record_result

BUDGETS = (0.0, 0.05)
TAU_LADDER = [0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05]


@pytest.mark.benchmark(group="ablation-greedy")
def test_ablation_greedy_vs_uniform(benchmark, context, paper_models):
    """Compare the best uniform-tau design against the greedy per-layer design (paper LeNet)."""
    artifacts = paper_models["lenet"]
    qmodel = artifacts.qmodel
    result = artifacts.result
    # Score greedy on the images the uniform sweep was scored on, so both
    # columns share one baseline.
    n_eval = context.scale.models["lenet"].dse_eval_samples
    images, labels = context.eval_set(n_eval)

    def run_all():
        rows = []
        for budget in BUDGETS:
            uniform = result.dse.best_within_loss(budget)
            search = run_dse(
                qmodel,
                result.significance,
                images,
                labels,
                dse_config=DSEConfig(
                    max_eval_samples=n_eval,
                    strategy="greedy",
                    strategy_options={
                        "max_accuracy_loss": budget,
                        "tau_candidates": TAU_LADDER,
                        "max_steps": 24,
                    },
                ),
            )
            assert search.baseline_accuracy == result.dse.baseline_accuracy
            greedy = search.points[-1]  # the last accepted step is the search's answer
            rows.append(
                {
                    "loss budget": f"{budget:.0%}",
                    "uniform MAC red.": uniform.conv_mac_reduction if uniform else 0.0,
                    "uniform accuracy": uniform.accuracy if uniform else float("nan"),
                    "greedy MAC red.": greedy.conv_mac_reduction,
                    "greedy accuracy": greedy.accuracy,
                    "greedy per-layer taus": str(greedy.config.taus()),
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for budget, row in zip(BUDGETS, rows):
        floor = result.dse.baseline_accuracy - budget
        assert row["greedy accuracy"] >= floor and row["uniform accuracy"] >= floor
        assert row["greedy MAC red."] >= 0.0
    record_result(
        "ablation_greedy",
        format_table(rows, title="A3 -- uniform-threshold DSE vs greedy per-layer search (paper LeNet)"),
    )
