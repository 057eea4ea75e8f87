"""DSE search strategies: each one chooses which configurations to score.

:func:`~repro.core.dse.run_dse` hands the strategy one
:class:`~repro.core.dse.DesignEvaluator` and wraps the points it returns in
the :class:`~repro.core.dse.DSEResult`.  Registered: ``exhaustive`` (the
paper's sweep of a single tau over layer subsets), ``greedy`` (per-layer taus
raised one layer at a time under an accuracy-loss budget, at a cost linear in
the number of steps rather than exponential in the number of layers) and
``latency-aware`` (the sweep scored with a latency estimate on the target
board, so selection minimises latency rather than MACs: what ultimately
matters for the Table-II deployments).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import ApproxConfig, LayerApproxSpec
from repro.core.dse import DesignEvaluator, DesignPoint, DSEConfig, _generate_layer_subsets
from repro.isa.profiles import BoardProfile
from repro.registry import SEARCH_STRATEGIES
from repro.utils.logging import get_logger

logger = get_logger("core.strategies")


class SearchStrategy:
    """A pluggable DSE search algorithm.

    Strategies are registered in :data:`repro.registry.SEARCH_STRATEGIES` and
    selected by name through ``DSEConfig.strategy``; ``DSEConfig.strategy_options``
    is forwarded to the constructor.  A strategy scores the configurations it
    explores through ``evaluator.evaluate`` and returns the points it keeps;
    :func:`~repro.core.dse.run_dse` turns them into a
    :class:`~repro.core.dse.DSEResult`, so every downstream consumer (Pareto
    analysis, selection, reports, the CLI) works with any strategy.
    """

    name: str = "base"

    def search(
        self,
        evaluator: DesignEvaluator,
        dse_config: DSEConfig,
        layer_names: Sequence[str],
        board: Optional[BoardProfile] = None,
    ) -> List[DesignPoint]:
        """Score the designs this strategy explores over ``layer_names`` (non-empty)."""
        raise NotImplementedError


def _sweep_configs(
    model_name: str, dse_config: DSEConfig, layer_names: Sequence[str]
) -> List[ApproxConfig]:
    """The paper's (tau x layer-subset) sweep, led by the exact design when asked for."""
    taus = dse_config.resolved_taus()
    configs: List[ApproxConfig] = []
    for subset in _generate_layer_subsets(layer_names, dse_config.layer_subsets):
        for tau in taus:
            if tau == 0.0 and len(subset) != len(layer_names):
                # tau=0 skips only exactly-zero-significance operands; exploring it
                # once (on the full subset) is enough.
                continue
            configs.append(
                ApproxConfig.uniform(
                    model_name,
                    subset,
                    tau,
                    granularity=dse_config.granularity,
                    metric=dse_config.metric,
                    label=f"{model_name}:tau={tau:g}:layers={'+'.join(subset)}",
                )
            )
    if dse_config.max_configs is not None and len(configs) > dse_config.max_configs:
        stride = max(1, len(configs) // dse_config.max_configs)
        configs = configs[::stride][: dse_config.max_configs]
    if dse_config.include_exact:
        configs.insert(0, ApproxConfig.exact(model_name))
    return configs


@SEARCH_STRATEGIES.register("exhaustive")
class ExhaustiveSearch(SearchStrategy):
    """The paper's exhaustive (tau x layer-subset) sweep."""

    name = "exhaustive"

    def search(self, evaluator, dse_config, layer_names, board=None) -> List[DesignPoint]:
        """Score every design of the sweep."""
        return evaluator.evaluate(_sweep_configs(evaluator.qmodel.name, dse_config, layer_names))


@SEARCH_STRATEGIES.register("greedy")
class GreedyPerLayerSearch(SearchStrategy):
    """Greedy heterogeneous-threshold search under an accuracy-loss budget.

    Starting from the exact design (tau = 0 everywhere), each round tries
    raising every layer's threshold to its next rung on the ladder, scores
    those single-layer moves in one ``evaluator.evaluate`` call, and accepts
    the move with the best (MAC reduction gained) / (accuracy lost) ratio
    that still satisfies the loss budget.  The search stops when no
    admissible move remains.  Every accepted design is a point of the result
    (after the exact one when ``DSEConfig.include_exact``), so Pareto and
    selection consumers see the whole trajectory; the last point is the
    search's answer.

    Parameters
    ----------
    max_accuracy_loss:
        Accuracy-loss budget the greedy climb must respect (absolute, e.g.
        ``0.05``).
    tau_candidates:
        Ordered ladder of thresholds each layer may climb.  Without it, an
        explicit ``DSEConfig.tau_values`` sweep (its strictly positive values)
        is the ladder, and otherwise :attr:`DEFAULT_LADDER`.
    max_steps:
        Safety cap on accepted moves.
    """

    name = "greedy"
    #: The geometric ladder from 1e-4 to 0.2.
    DEFAULT_LADDER = (0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)

    def __init__(
        self,
        max_accuracy_loss: float = 0.05,
        tau_candidates: Optional[Sequence[float]] = None,
        max_steps: int = 64,
    ):
        if max_accuracy_loss < 0:
            raise ValueError("max_accuracy_loss must be non-negative")
        if tau_candidates is not None and any(float(t) <= 0 for t in tau_candidates):
            raise ValueError("tau_candidates must be strictly positive")
        self.max_accuracy_loss = float(max_accuracy_loss)
        self.tau_candidates = tau_candidates
        self.max_steps = int(max_steps)

    def search(self, evaluator, dse_config, layer_names, board=None) -> List[DesignPoint]:
        """Climb the ladder one accepted layer move at a time."""
        candidates = self.tau_candidates
        if candidates is None and dse_config.tau_values is not None:
            candidates = [t for t in dse_config.resolved_taus() if t > 0] or None
        ladder = sorted(set(float(t) for t in (self.DEFAULT_LADDER if candidates is None else candidates)))
        model_name = evaluator.qmodel.name
        points = (
            evaluator.evaluate([ApproxConfig.exact(model_name)]) if dse_config.include_exact else []
        )
        floor = evaluator.baseline_accuracy - self.max_accuracy_loss
        accuracy, reduction = evaluator.baseline_accuracy, 0.0
        levels: Dict[str, int] = {}  # layer -> ladder index, in acceptance order

        for _ in range(self.max_steps):
            moves = [
                {**levels, name: levels.get(name, -1) + 1}
                for name in layer_names
                if levels.get(name, -1) + 1 < len(ladder)
            ]
            label = f"{model_name}:greedy:step{len(points)}"
            configs = [
                ApproxConfig(model_name, label=label, layer_specs={
                    name: LayerApproxSpec(ladder[level], dse_config.granularity, dse_config.metric)
                    for name, level in move.items()
                })
                for move in moves
            ]
            best = None
            for move, point in zip(moves, evaluator.evaluate(configs)):
                gain = point.conv_mac_reduction - reduction
                if point.accuracy < floor or gain <= 0:
                    continue
                score = gain / (max(accuracy - point.accuracy, 0.0) + 1e-6)
                if best is None or score > best[0]:
                    best = (score, move, point)
            if best is None:
                break
            _, levels, point = best
            accuracy, reduction = point.accuracy, point.conv_mac_reduction
            points.append(point)
            logger.info("greedy step: %s (accuracy %.3f, reduction %.3f)",
                        point.config.taus(), accuracy, reduction)
        return points


@SEARCH_STRATEGIES.register("latency-aware")
class LatencyAwareSearch(SearchStrategy):
    """The paper's sweep, every design scored with its latency on the target board.

    The result's :meth:`~repro.core.dse.DSEResult.best_within_loss` then picks
    the *lowest-latency* design inside the accuracy budget, which is what
    ultimately matters for Table II.  MAC count is only a proxy: two designs
    with equal retained MACs can differ in latency, because per-output and
    data-movement overheads do not shrink with skipping.
    """

    name = "latency-aware"

    def search(self, evaluator, dse_config, layer_names, board=None) -> List[DesignPoint]:
        """Score every design of the sweep, latency included."""
        if board is None:
            raise ValueError("the latency-aware strategy needs a target board profile")
        configs = _sweep_configs(evaluator.qmodel.name, dse_config, layer_names)
        return evaluator.evaluate(configs, board)
