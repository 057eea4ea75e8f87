"""The paper's contribution: the cooperative approximation framework (ATAMAN).

The five numbered stages of the paper's Fig. 1 map onto this package:

1. *Layer-based code unpacking*        -> :mod:`repro.core.unpacking` / :mod:`repro.core.codegen`
2. *Input distribution capture*        -> :mod:`repro.core.calibration`
3. *Significance S[] calculation*      -> :mod:`repro.core.significance`
4. *Approximate CNN code generation*   -> :mod:`repro.core.skipping` / :mod:`repro.core.codegen`
5. *DSE + configuration extraction*    -> :mod:`repro.core.dse` / :mod:`repro.core.strategies` /
                                         :mod:`repro.core.pareto`

:class:`repro.core.pipeline.AtamanPipeline` chains all of the above.
"""

from repro.core.unpacking import UnpackedLayer, unpack_layer, unpack_model, CODE_SIZE_MODEL
from repro.core.calibration import ActivationCalibrator, CalibrationResult
from repro.core.significance import (
    SignificanceResult,
    compute_layer_significance,
    compute_significance,
)
from repro.core.skipping import (
    Granularity,
    build_skip_mask,
    build_model_masks,
    retained_fraction,
)
from repro.core.config import ApproxConfig, LayerApproxSpec
from repro.core.dse import DSEConfig, DSEResult, DesignEvaluator, DesignPoint, run_dse
from repro.core.pareto import pareto_front, select_by_accuracy_loss
from repro.core.codegen import (
    ChannelPlan,
    LayerPlan,
    estimate_code_bytes,
    generate_layer_code,
    generate_model_code,
    plan_layer,
)
from repro.core.pipeline import AtamanPipeline, PipelineResult
from repro.core.strategies import (
    ExhaustiveSearch,
    GreedyPerLayerSearch,
    LatencyAwareSearch,
    SearchStrategy,
)

__all__ = [
    "UnpackedLayer",
    "unpack_layer",
    "unpack_model",
    "CODE_SIZE_MODEL",
    "ActivationCalibrator",
    "CalibrationResult",
    "SignificanceResult",
    "compute_layer_significance",
    "compute_significance",
    "Granularity",
    "build_skip_mask",
    "build_model_masks",
    "retained_fraction",
    "ApproxConfig",
    "LayerApproxSpec",
    "DSEConfig",
    "DSEResult",
    "DesignEvaluator",
    "DesignPoint",
    "run_dse",
    "pareto_front",
    "select_by_accuracy_loss",
    "ChannelPlan",
    "LayerPlan",
    "plan_layer",
    "generate_layer_code",
    "generate_model_code",
    "estimate_code_bytes",
    "AtamanPipeline",
    "PipelineResult",
    "SearchStrategy",
    "ExhaustiveSearch",
    "GreedyPerLayerSearch",
    "LatencyAwareSearch",
]
