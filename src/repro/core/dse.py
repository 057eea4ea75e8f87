"""Design-space exploration over skip thresholds and layer subsets (stage 5).

The paper performs an exhaustive, offline DSE over the significance threshold
tau (step 0.001 for LeNet, 0.01 for AlexNet, range [0, 0.1]) and over the set
of approximated layers, simulating the classification accuracy of every
configuration and recording the normalised MAC reduction.

:func:`run_dse` splits the job in two.  A search strategy from
:mod:`repro.core.strategies` chooses which configurations to score, and one
:class:`DesignEvaluator` scores them all: it is the only code that turns a
configuration into a :class:`DesignPoint`.  The paper ran the exploration on
6 CPU threads.  Here the evaluator scores all the designs of one call in a
single walk over the tree of their per-layer masks: designs that agree on
their first layers share those layers' activations, and sibling masks over
one shared input run as one stacked GEMM
(:func:`~repro.kernels.gemm.stack_plans`).  A conv's plan also runs the max
pool after it, before requantizing (:meth:`QuantizedModel.prepare`), so only
the pooled outputs are requantized.  The cores belong to the BLAS threads
inside each product (:mod:`repro.utils.parallel` records why).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ApproxConfig
from repro.core.significance import SignificanceResult
from repro.core.skipping import Granularity, conv_mac_reduction
from repro.core.unpacking import UnpackedLayer
from repro.isa.cost_model import ExecutionStyle, KernelCostModel
from repro.isa.profiles import BoardProfile
from repro.kernels.cycle_counters import CycleCounter
from repro.kernels.gemm import GemmPlan, execute_gemm, stack_plans
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import dequantize
from repro.registry import SEARCH_STRATEGIES
from repro.utils.logging import get_logger

logger = get_logger("core.dse")

#: Evaluation images per walk chunk.  Peak memory grows with chunk x stack: AlexNet's 512-image
#: per-layer sweep peaked at 108 MB at 128 x 4 (the per-design loop: 137 MB), 135 MB at 256 x 4.
CHUNK_IMAGES = 128
#: Sibling plans run as one GEMM, sharing its im2col and block dispatch.  LeNet's 256-image
#: per-layer sweep took 1.37 s with 1 and 0.89 s with 4 (2-core host); 8 raised AlexNet's peak to 126 MB.
STACK_PLANS = 4


@dataclass
class DSEConfig:
    """Configuration of the design-space exploration.

    Attributes
    ----------
    tau_values:
        The significance thresholds to sweep.  ``None`` selects the paper's
        sweep for the given ``tau_step``: ``arange(0, tau_max + step, step)``.
    tau_step, tau_max:
        Used when ``tau_values`` is ``None`` (paper: step 0.001 for LeNet,
        0.01 for AlexNet, max 0.1).
    layer_subsets:
        Which sets of conv layers to approximate.  ``"all"`` approximates
        every conv layer jointly (one subset); ``"per_layer"`` additionally
        explores each layer alone; ``"exhaustive"`` explores every non-empty
        subset of conv layers.
    granularity:
        Skipping granularity (operand-level reproduces the paper).
    metric:
        Significance metric to use (``expected_contribution`` = paper Eq. 2).
    max_eval_samples:
        Cap on the number of evaluation images used to simulate accuracy.
    max_configs:
        Optional hard cap on the number of explored configurations.
    include_exact:
        Always include the exact design as a reference point.
    strategy:
        Name of a search strategy registered in
        :data:`repro.registry.SEARCH_STRATEGIES` (``"exhaustive"`` reproduces
        the paper's sweep; ``"greedy"`` and ``"latency-aware"`` are the
        refinements from :mod:`repro.core.strategies`).
    strategy_options:
        Keyword arguments forwarded to the strategy's constructor (e.g.
        ``{"max_accuracy_loss": 0.05}`` for the greedy search).
    """

    tau_values: Optional[Sequence[float]] = None
    tau_step: float = 0.01
    tau_max: float = 0.1
    layer_subsets: str = "all"
    granularity: str = Granularity.OPERAND.value
    metric: str = "expected_contribution"
    max_eval_samples: int = 512
    max_configs: Optional[int] = None
    include_exact: bool = True
    strategy: str = "exhaustive"
    strategy_options: Dict[str, object] = field(default_factory=dict)

    def resolved_taus(self) -> List[float]:
        """The tau sweep actually used."""
        if self.tau_values is not None:
            taus = [float(t) for t in self.tau_values]
        else:
            n_steps = int(round(self.tau_max / self.tau_step))
            taus = [round(i * self.tau_step, 10) for i in range(n_steps + 1)]
        if any(t < 0 for t in taus):
            raise ValueError("tau values must be non-negative")
        return sorted(set(taus))


@dataclass
class DesignPoint:
    """One evaluated approximate design."""

    config: ApproxConfig
    accuracy: float
    conv_mac_reduction: float
    total_macs: int
    conv_macs: int
    retained_operand_fraction: float
    #: Board-level latency estimate; set when the design is evaluated for a
    #: board (the latency-aware strategy).
    latency_ms: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view."""
        payload = {
            "label": self.config.label,
            "taus": self.config.taus(),
            "accuracy": self.accuracy,
            "conv_mac_reduction": self.conv_mac_reduction,
            "total_macs": self.total_macs,
            "conv_macs": self.conv_macs,
            "retained_operand_fraction": self.retained_operand_fraction,
        }
        if self.config.layer_specs:
            # Carried so a saved DSE table (``explore``'s JSON) reproduces the
            # exact masks downstream (e.g. serving's Deployment.from_points)
            # even under non-default granularity/metric settings.
            spec = next(iter(self.config.layer_specs.values()))
            payload["granularity"] = spec.granularity
            payload["metric"] = spec.metric
        if self.latency_ms is not None:
            payload["latency_ms"] = self.latency_ms
        return payload


@dataclass
class DSEResult:
    """The outcome of a design-space exploration."""

    points: List[DesignPoint]
    baseline_accuracy: float
    baseline_total_macs: int
    baseline_conv_macs: int
    config: DSEConfig

    def pareto_points(self) -> List[DesignPoint]:
        """Pareto-optimal designs (maximise accuracy and conv-MAC reduction)."""
        from repro.core.pareto import pareto_front

        return pareto_front(
            self.points,
            objective_a=lambda p: p.conv_mac_reduction,
            objective_b=lambda p: p.accuracy,
        )

    def best_within_loss(self, max_accuracy_loss: float) -> Optional[DesignPoint]:
        """The best design whose accuracy loss stays within the budget.

        Lowest latency when every point carries a latency estimate (the
        latency-aware strategy), otherwise the largest conv-MAC reduction.
        """
        from repro.core.pareto import select_by_accuracy_loss

        by_latency = all(p.latency_ms is not None for p in self.points)
        return select_by_accuracy_loss(
            self.points,
            baseline_accuracy=self.baseline_accuracy,
            max_accuracy_loss=max_accuracy_loss,
            accuracy=lambda p: p.accuracy,
            gain=(lambda p: -p.latency_ms) if by_latency else (lambda p: p.conv_mac_reduction),
        )

    def as_table(self) -> List[Dict[str, object]]:
        """All design points as plain dicts (for reports/JSON)."""
        return [p.as_dict() for p in self.points]


def _generate_layer_subsets(layer_names: Sequence[str], mode: str) -> List[Tuple[str, ...]]:
    """Enumerate the layer subsets to explore."""
    layer_names = list(layer_names)
    if not layer_names:
        raise ValueError("the model has no approximable layers")
    if mode == "all":
        return [tuple(layer_names)]
    if mode == "per_layer":
        subsets = [tuple(layer_names)] + [(name,) for name in layer_names]
        return subsets
    if mode == "exhaustive":
        subsets = []
        for r in range(1, len(layer_names) + 1):
            subsets.extend(itertools.combinations(layer_names, r))
        return subsets
    raise ValueError(f"unknown layer_subsets mode {mode!r}")


def design_point(
    qmodel: QuantizedModel,
    config: ApproxConfig,
    masks: Dict[str, np.ndarray],
    accuracy: float,
) -> DesignPoint:
    """The :class:`DesignPoint` of a configuration whose accuracy is known.

    ``masks`` are the configuration's retention masks (empty for the exact
    design); the MAC counts, the conv-MAC reduction and the retained-operand
    fraction all follow from them.
    """
    retained = (
        float(np.mean([np.asarray(m, dtype=bool).mean() for m in masks.values()]))
        if masks
        else 1.0
    )
    return DesignPoint(
        config=config,
        accuracy=accuracy,
        conv_mac_reduction=conv_mac_reduction(qmodel, masks),
        total_macs=qmodel.total_macs(masks=masks),
        conv_macs=qmodel.conv_macs(masks=masks),
        retained_operand_fraction=retained,
    )


def _mask_key(mask: Optional[np.ndarray]) -> bytes:
    """``b""`` for an unmasked layer (no mask or an all-True one run the same plan), else its bits."""
    if mask is None:
        return b""
    mask = np.asarray(mask, dtype=bool)
    return b"" if mask.all() else np.packbits(mask).tobytes() + repr(mask.shape).encode()


class DesignEvaluator:
    """Scores configurations: the only code that turns one into a :class:`DesignPoint`.

    Construction checks that the evaluation images and labels align and caps
    them at ``dse_config.max_eval_samples``.  Every search strategy hands its
    configurations to :meth:`evaluate`, so all of them score designs on the
    same images, from masks built the same way.  The exact design's accuracy,
    :attr:`baseline_accuracy`, is recorded by the first walk that scores it.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        significance: SignificanceResult,
        eval_images: np.ndarray,
        eval_labels: np.ndarray,
        dse_config: Optional[DSEConfig] = None,
        unpacked: Optional[Dict[str, UnpackedLayer]] = None,
    ):
        eval_images = np.asarray(eval_images, dtype=np.float32)
        eval_labels = np.asarray(eval_labels)
        if eval_images.shape[0] != eval_labels.shape[0]:
            raise ValueError("eval_images and eval_labels must be aligned")
        cap = (dse_config or DSEConfig()).max_eval_samples
        self.qmodel = qmodel
        self.significance = significance
        self.unpacked = unpacked
        self.eval_images = eval_images[:cap]
        self.eval_labels = eval_labels[:cap]
        self._baseline: Optional[float] = None

    @property
    def baseline_accuracy(self) -> float:
        """The exact design's accuracy; walks the exact design alone if no walk has scored it yet."""
        if self._baseline is None:
            self._accuracies([{}])
        return self._baseline

    def evaluate(
        self, configs: Sequence[ApproxConfig], board: Optional[BoardProfile] = None
    ) -> List[DesignPoint]:
        """One :class:`DesignPoint` per configuration, in order.

        Each configuration's masks are built once.  They give its simulated
        accuracy (one walk scores every configuration), its MAC counts and,
        when a ``board`` is given, the latency estimate of its unpacked code
        on that board.
        """
        logger.info("evaluating %d designs of %s on %d samples",
                    len(configs), self.qmodel.name, self.eval_images.shape[0])
        all_masks = [config.build_masks(self.significance, unpacked=self.unpacked) for config in configs]
        points: List[DesignPoint] = []
        for config, masks, accuracy in zip(configs, all_masks, self._accuracies(all_masks)):
            point = design_point(self.qmodel, config, masks, accuracy)
            if board is not None:
                counter = CycleCounter()
                sample = np.zeros((1,) + self.qmodel.input_shape, dtype=np.float32)
                self.qmodel.forward(sample, masks=masks, counter=counter)
                point.latency_ms = KernelCostModel(ExecutionStyle.UNPACKED).latency_ms(counter, board)
            points.append(point)
        return points

    def _accuracies(self, designs: Sequence[Dict[str, np.ndarray]]) -> List[float]:
        """Top-1 accuracy of each mask set, from one walk over the tree of their per-layer masks.

        A design is its tuple of per-layer keys (:func:`_mask_key`), so
        identical designs are scored once, and each distinct (layer, key)
        plan is prepared once.  The walk runs over chunks of at most
        :data:`CHUNK_IMAGES` images and counts correct predictions, so each
        accuracy is an exact count divided once by the number of images.
        """
        if not designs:
            return []
        layers = self.qmodel.layers
        keys = [tuple(_mask_key(masks.get(layer.name)) for layer in layers) for masks in designs]
        unique = dict(zip(keys, designs))
        plans: Dict[Tuple[int, bytes], GemmPlan] = {}
        for design, masks in unique.items():
            for depth, (layer, key) in enumerate(zip(layers, design)):
                if layer.is_mac_layer and (depth, key) not in plans:
                    plans[depth, key] = self.qmodel.prepare(depth, masks.get(layer.name) if key else None)
        correct = dict.fromkeys(unique, 0)
        n = self.eval_images.shape[0]
        for start in range(0, n, CHUNK_IMAGES):
            x = self.qmodel.quantize_input(self.eval_images[start : start + CHUNK_IMAGES])
            self._walk(0, x, list(unique), self.eval_labels[start : start + CHUNK_IMAGES], plans, correct)
        accuracy = {design: hits / n if n else 0.0 for design, hits in correct.items()}
        exact = (b"",) * len(layers)
        if self._baseline is None and exact in accuracy:
            self._baseline = accuracy[exact]
        return [accuracy[design] for design in keys]

    def _walk(self, depth: int, x: np.ndarray, group: List[tuple], labels: np.ndarray,
              plans: Dict[Tuple[int, bytes], GemmPlan], correct: Dict[tuple, int]) -> None:
        """Run ``layers[depth:]`` on ``x``, the activation ``group``'s designs share, and count their hits.

        A non-MAC layer runs once for the group.  At a MAC layer the group
        splits by key, and up to :data:`STACK_PLANS` sibling plans run as one
        GEMM; each child continues on its own channel slice, past the max
        pool its plan folded in.
        """
        layers = self.qmodel.layers
        while depth < len(layers) and not layers[depth].is_mac_layer:
            x = layers[depth].forward(x)
            depth += 1
        if depth == len(layers):
            predictions = dequantize(x, layers[-1].output_params).argmax(axis=-1)
            hits = int(np.count_nonzero(predictions == labels))
            for design in group:
                correct[design] += hits
            return
        children: Dict[bytes, list] = {}
        for design in group:
            children.setdefault(design[depth], []).append(design)
        siblings = list(children.items())
        for start in range(0, len(siblings), STACK_PLANS):
            stack = siblings[start : start + STACK_PLANS]
            stacked = [plans[depth, key] for key, _ in stack]
            y = execute_gemm(stack_plans(stacked), x)
            offset = 0
            for (_, members), plan in zip(stack, stacked):
                width = plan.weights.shape[1]
                self._walk(depth + 1 + (plan.pool is not None), y[..., offset : offset + width],
                           members, labels, plans, correct)
                offset += width


def run_dse(
    qmodel: QuantizedModel,
    significance: SignificanceResult,
    eval_images: np.ndarray,
    eval_labels: np.ndarray,
    dse_config: Optional[DSEConfig] = None,
    unpacked: Optional[Dict[str, UnpackedLayer]] = None,
    layer_names: Optional[Sequence[str]] = None,
    board: Optional[BoardProfile] = None,
) -> DSEResult:
    """Explore the design space with the strategy named by ``dse_config.strategy``.

    The strategy chooses which configurations to score; one
    :class:`DesignEvaluator` scores them, and its exact-design accuracy is
    the result's baseline.

    Parameters
    ----------
    qmodel:
        The quantized model under approximation.
    significance:
        Per-layer significance matrices (stage 3 output).
    eval_images, eval_labels:
        Held-out data used to simulate classification accuracy.
    dse_config:
        Exploration options (defaults to :class:`DSEConfig`); the
        ``strategy`` field picks the search algorithm from
        :data:`repro.registry.SEARCH_STRATEGIES`.
    unpacked:
        Unpacked layers (needed for coarse-granularity masks; optional).
    layer_names:
        Restrict the exploration to these layers (defaults to every layer
        with significance data, i.e. every conv layer).
    board:
        Target board; required by latency-objective strategies only.
    """
    dse_config = dse_config or DSEConfig()
    strategy = SEARCH_STRATEGIES.resolve(dse_config.strategy)(**dse_config.strategy_options)
    names = list(layer_names) if layer_names is not None else significance.layer_names()
    if not names:
        raise ValueError("the model has no approximable layers")
    evaluator = DesignEvaluator(qmodel, significance, eval_images, eval_labels, dse_config, unpacked)
    return DSEResult(
        points=strategy.search(evaluator, dse_config, names, board),
        baseline_accuracy=evaluator.baseline_accuracy,
        baseline_total_macs=qmodel.total_macs(),
        baseline_conv_macs=qmodel.conv_macs(),
        config=dse_config,
    )
