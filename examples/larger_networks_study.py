#!/usr/bin/env python
"""Contribution-3 study: run a larger approximate CNN instead of a smaller exact one.

The paper's third contribution argues that approximate computing lets MCUs run
*larger* networks at the latency of smaller exact ones.  This example

1. deploys the exact CMSIS-NN LeNet and AlexNet baselines,
2. deploys approximate AlexNet designs at 0%/5% accuracy-loss budgets, and
3. additionally runs the greedy per-layer threshold search (the ``greedy``
   strategy of :func:`repro.core.run_dse`) to show how heterogeneous
   per-layer thresholds compare with the paper's uniform-threshold DSE.

Run:  python examples/larger_networks_study.py [--scale ci|fast|full]
"""

from __future__ import annotations

import argparse

from repro.core import DSEConfig, run_dse
from repro.evaluation import (
    ExperimentContext,
    build_larger_network_comparison,
    format_larger_network_comparison,
)
from repro.evaluation.reports import format_table
from repro.frameworks import AtamanEngine
from repro.mcu import deploy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("ci", "fast", "full"), default=None)
    parser.add_argument("--loss", type=float, default=0.05, help="budget for the greedy search")
    args = parser.parse_args()

    context = ExperimentContext(scale=args.scale)

    # Part 1: exact small model vs approximate large model (E8).
    rows = build_larger_network_comparison(context)
    print(format_larger_network_comparison(rows))
    print()

    # Part 2: greedy per-layer thresholds on the large model.
    artifacts = context.build_model("alexnet")
    eval_images, eval_labels = context.eval_set()
    greedy = run_dse(
        artifacts.qmodel,
        artifacts.result.significance,
        eval_images[:192],
        eval_labels[:192],
        dse_config=DSEConfig(
            strategy="greedy",
            strategy_options={"max_accuracy_loss": args.loss, "max_steps": 24},
        ),
        unpacked=artifacts.result.unpacked,
    ).points[-1]  # the last accepted step is the search's answer
    uniform = artifacts.result.dse.best_within_loss(args.loss)
    comparison = [
        {
            "strategy": "uniform tau (paper DSE)",
            "conv-MAC reduction": uniform.conv_mac_reduction if uniform else 0.0,
            "accuracy": uniform.accuracy if uniform else float("nan"),
            "taus": str(uniform.config.taus()) if uniform else "-",
        },
        {
            "strategy": "greedy per-layer tau",
            "conv-MAC reduction": greedy.conv_mac_reduction,
            "accuracy": greedy.accuracy,
            "taus": str(greedy.config.taus()),
        },
    ]
    print(format_table(comparison, title=f"AlexNet skipping strategies at {args.loss:.0%} loss budget"))

    engine = AtamanEngine(
        artifacts.qmodel,
        config=greedy.config,
        significance=artifacts.result.significance,
        unpacked=artifacts.result.unpacked,
    )
    report = deploy(engine, context.board, eval_images, eval_labels, model_name="alexnet-greedy")
    print(
        f"\ngreedy design deployed: {report.latency_ms:.1f} ms, "
        f"{report.mac_ops / 1e6:.1f} M MACs, {report.flash_kb:.0f} KB flash, "
        f"accuracy {report.top1_accuracy:.1%}"
    )


if __name__ == "__main__":
    main()
