"""A servable deployment: one quantized model, many Pareto service levels.

The DSE's central artifact is a Pareto front of accuracy/MAC-reduction
design points.  A :class:`Deployment` turns that front into *service levels*:
each level prebuilds the operand-retention masks of one
:class:`~repro.core.config.ApproxConfig`, each MAC layer's prepared
:class:`~repro.kernels.gemm.GemmPlan` under them and its simulated MCU cycle
cost, so the scheduler can switch the executed design per batch with zero
rebuild cost -- under light load serve the exact design, under heavy load
shed cycles by routing batches to a more aggressive skip configuration.

Levels are ordered from most accurate (index 0, usually the exact design) to
most aggressive; escalating means moving to a higher index.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import ApproxConfig, LayerApproxSpec
from repro.core.significance import SignificanceResult
from repro.core.skipping import Granularity
from repro.core.unpacking import UnpackedLayer
from repro.isa.cost_model import ExecutionStyle, KernelCostModel, cycles_to_latency_ms
from repro.isa.profiles import BoardProfile, STM32U575
from repro.kernels.cycle_counters import CycleCounter
from repro.kernels.gemm import GemmPlan, execute_gemm
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import dequantize
from repro.utils import parallel


@dataclass
class ServiceLevel:
    """One runtime service level: a design point with prebuilt masks."""

    name: str
    config: ApproxConfig
    #: Prebuilt retention masks (``None`` for the exact design).
    masks: Optional[Dict[str, np.ndarray]]
    #: Accuracy the DSE simulated for this design (``None`` if unknown).
    accuracy: Optional[float]
    #: Fraction of conv MACs removed relative to the exact design.
    conv_mac_reduction: float = 0.0
    #: Simulated MCU cycles per sample (unpacked execution style).
    cycles_per_sample: float = 0.0
    #: Simulated per-sample MCU latency on the deployment board.
    mcu_latency_ms: float = 0.0
    #: Each MAC layer's prepared plan under ``masks`` (set by the deployment).
    plans: Dict[str, GemmPlan] = field(default_factory=dict, repr=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (masks elided)."""
        return {
            "name": self.name,
            "label": self.config.label,
            "taus": self.config.taus(),
            "accuracy": self.accuracy,
            "conv_mac_reduction": self.conv_mac_reduction,
            "cycles_per_sample": self.cycles_per_sample,
            "mcu_latency_ms": self.mcu_latency_ms,
        }


@dataclass
class Deployment:
    """A quantized model bound to an ordered set of service levels."""

    qmodel: QuantizedModel
    levels: List[ServiceLevel]
    board: BoardProfile = field(default_factory=lambda: STM32U575)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a deployment needs at least one service level")
        # Prepare every level's plans once; a layer a level leaves unmasked
        # shares one plan object with every other level that does.  A conv's
        # plan carries the max pool after it (QuantizedModel.prepare).
        exact: Dict[str, GemmPlan] = {}
        for level in self.levels:
            level.plans = {}
            for index, layer in enumerate(self.qmodel.layers):
                if not layer.is_mac_layer:
                    continue
                mask = level.masks.get(layer.name) if level.masks else None
                if mask is None and layer.name not in exact:
                    exact[layer.name] = self.qmodel.prepare(index)
                plan = exact[layer.name] if mask is None else self.qmodel.prepare(index, mask)
                level.plans[layer.name] = plan

    @functools.cached_property
    def _dense_macs(self) -> int:
        # Sizes the shards per image: the executor runs dense GEMMs whatever a mask keeps.
        return self.qmodel.total_macs()

    # ------------------------------------------------------------------ views
    @property
    def baseline_cycles_per_sample(self) -> float:
        """Simulated cycles of the most accurate level (the savings baseline)."""
        return self.levels[0].cycles_per_sample

    def level_index(self, name: str) -> int:
        """Index of the level called ``name``."""
        for i, level in enumerate(self.levels):
            if level.name == name:
                return i
        raise KeyError(f"no service level named {name!r}")

    def describe(self) -> List[Dict[str, Any]]:
        """Level table as plain dicts (for ``GET /levels`` and reports)."""
        return [level.as_dict() for level in self.levels]

    # ------------------------------------------------------------------ execution
    def forward(self, x: np.ndarray, level: int = 0, profiler=None) -> np.ndarray:
        """Dequantized logits of a float NHWC batch under one service level.

        One loop over the model's layers: MAC layers execute the level's
        prepared plans, the others their library kernels.  A conv plan that
        carries the max pool after it (:meth:`QuantizedModel.prepare`) runs
        that pool too, and the loop skips the pool layer; plans pickled
        without a pool leave it to the layer.  A batch with enough work runs
        as concurrent shards of whole images on the cores BLAS leaves idle
        (:func:`repro.utils.parallel.map_shards`), with the same logits.  An
        active ``profiler`` (a sampled :class:`~repro.obs.profiling.Profiler`)
        times each step of the lead shard as a ``layer:NAME`` section, a
        conv's section including its folded pool.
        """
        plans = self.levels[level].plans
        timed = profiler is not None and getattr(profiler, "active", False)
        layers = self.qmodel.layers

        def run(shard: np.ndarray, lead: bool) -> np.ndarray:
            q = self.qmodel.quantize_input(shard)
            depth = 0
            while depth < len(layers):
                layer, plan = layers[depth], plans.get(layers[depth].name)
                with profiler.timer(f"layer:{layer.name}") if timed and lead else nullcontext():
                    q = layer.forward(q) if plan is None else execute_gemm(plan, q)
                depth += 1 if plan is None or plan.pool is None else 2
            return dequantize(q, layers[-1].output_params)

        return parallel.map_shards(run, x, self._dense_macs)

    def predict(self, x: np.ndarray, level: int = 0, profiler=None) -> np.ndarray:
        """Predicted class indices of a float NHWC batch under one level."""
        return self.forward(x, level=level, profiler=profiler).argmax(axis=-1)

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_dse(
        cls,
        qmodel: QuantizedModel,
        dse,
        significance: SignificanceResult,
        unpacked: Optional[Dict[str, UnpackedLayer]] = None,
        board: BoardProfile = STM32U575,
        max_levels: int = 8,
        cycle_source: str = "analytic",
    ) -> "Deployment":
        """Build a deployment from a :class:`~repro.core.dse.DSEResult`.

        The Pareto-optimal designs become the service levels, ordered from
        most accurate to most aggressive and thinned to ``max_levels`` while
        always keeping both endpoints.  ``cycle_source="traced"`` costs each
        level from the VM's per-instruction trace of the lowered program
        (:func:`repro.vm.verify.hybrid_cycles_per_sample`) instead of the
        analytic cost model.
        """
        points = sorted(dse.pareto_points(), key=lambda p: (-p.accuracy, p.conv_mac_reduction))
        entries = [
            {
                "label": p.config.label or f"tau={p.config.taus()}",
                "config": p.config,
                "accuracy": p.accuracy,
                "conv_mac_reduction": p.conv_mac_reduction,
            }
            for p in points
        ]
        return cls._build(qmodel, entries, significance, unpacked, board, max_levels, cycle_source)

    @classmethod
    def from_points(
        cls,
        qmodel: QuantizedModel,
        points: Sequence[Mapping[str, Any]],
        significance: SignificanceResult,
        unpacked: Optional[Dict[str, UnpackedLayer]] = None,
        board: BoardProfile = STM32U575,
        max_levels: int = 8,
        cycle_source: str = "analytic",
    ) -> "Deployment":
        """Build a deployment from a DSE point table (``explore``'s JSON output).

        Each point is a mapping with at least ``taus`` (layer name -> tau);
        ``label``, ``accuracy``, ``granularity`` and ``metric`` are honoured
        when present.  The table may contain dominated designs (``explore``
        writes *every* explored point, not only the Pareto front): the build
        recomputes each candidate's true cost from its masks and keeps only
        levels whose simulated cycles strictly improve on every more-accurate
        level, so escalation always sheds cycles.
        """
        entries = []
        for point in points:
            taus = dict(point.get("taus") or {})
            granularity = str(point.get("granularity", Granularity.OPERAND.value))
            metric = str(point.get("metric", "expected_contribution"))
            specs = {
                name: LayerApproxSpec(tau=float(tau), granularity=granularity, metric=metric)
                for name, tau in taus.items()
            }
            config = ApproxConfig(
                model_name=qmodel.name,
                layer_specs=specs,
                label=str(point.get("label", "")),
            )
            accuracy = point.get("accuracy")
            entries.append(
                {
                    "label": config.label or f"tau={config.taus()}",
                    "config": config,
                    "accuracy": None if accuracy is None else float(accuracy),
                    "conv_mac_reduction": float(point.get("conv_mac_reduction", 0.0)),
                }
            )
        # Unknown accuracy sorts last (treated as most aggressive): a point
        # without an accuracy must never outrank -- and via the domination
        # filter evict -- the known-accurate designs, least of all the exact
        # baseline.
        entries.sort(
            key=lambda e: (
                -(e["accuracy"] if e["accuracy"] is not None else float("-inf")),
                e["conv_mac_reduction"],
            )
        )
        return cls._build(qmodel, entries, significance, unpacked, board, max_levels, cycle_source)

    @classmethod
    def _build(
        cls,
        qmodel: QuantizedModel,
        entries: List[Dict[str, Any]],
        significance: SignificanceResult,
        unpacked: Optional[Dict[str, UnpackedLayer]],
        board: BoardProfile,
        max_levels: int,
        cycle_source: str = "analytic",
    ) -> "Deployment":
        if cycle_source not in ("analytic", "traced"):
            raise ValueError(
                f"unknown cycle_source {cycle_source!r}; expected 'analytic' or 'traced'"
            )
        if not entries:
            raise ValueError("no design points to build service levels from")
        # Drop duplicate designs (same tau assignment) keeping the first.
        seen = set()
        unique: List[Dict[str, Any]] = []
        for entry in entries:
            key = tuple(sorted(entry["config"].taus().items()))
            if key in seen:
                continue
            seen.add(key)
            unique.append(entry)
        if max_levels >= 1 and len(unique) > max_levels:
            # Even spread over the accuracy ordering, endpoints included.
            idx = np.linspace(0, len(unique) - 1, max_levels).round().astype(int)
            unique = [unique[i] for i in sorted(set(idx.tolist()))]

        from repro.core.skipping import conv_mac_reduction

        if cycle_source == "traced":
            # One whole-graph lowering up front; every level then re-lowers
            # only its masked (conv) layers and costs itself from the static
            # per-instruction trace -- no per-level full lowering, no
            # per-level probe forward (the O(levels x model) build this
            # replaces).
            from repro.core.unpacking import unpack_model
            from repro.vm import lower as vm_lower
            from repro.vm.verify import traced_cycles_per_sample

            traced_unpacked = unpacked if unpacked is not None else unpack_model(qmodel)
            base_program = vm_lower.lower_model(qmodel, unpacked=traced_unpacked)

        cost_model = KernelCostModel(ExecutionStyle.UNPACKED)
        probe = np.zeros((1, *qmodel.input_shape), dtype=np.float32)
        levels: List[ServiceLevel] = []
        for entry in unique:
            config: ApproxConfig = entry["config"]
            masks = (
                None
                if config.is_exact
                else config.build_masks(significance, unpacked=unpacked)
            )
            if cycle_source == "traced":
                program = vm_lower.remask_program(base_program, qmodel, traced_unpacked, masks)
                cycles = traced_cycles_per_sample(qmodel, program, masks=masks)
            else:
                counter = CycleCounter()
                qmodel.forward(probe, masks=masks, counter=counter)
                cycles = cost_model.estimate_cycles(counter)
            # A level after the first (most accurate) earns its place only by
            # being cheaper than every level above it -- dominated designs
            # (less accurate, not faster) would make 'escalation' pointless.
            if levels and cycles >= levels[-1].cycles_per_sample:
                continue
            levels.append(
                ServiceLevel(
                    name=f"L{len(levels)}",
                    config=config,
                    masks=masks,
                    accuracy=entry["accuracy"],
                    # The reduction is recomputed from the actual masks rather
                    # than trusted from the (possibly absent) point table.
                    conv_mac_reduction=conv_mac_reduction(qmodel, masks) if masks else 0.0,
                    cycles_per_sample=cycles,
                    mcu_latency_ms=cycles_to_latency_ms(cycles, board),
                )
            )
        return cls(qmodel=qmodel, levels=levels, board=board)
