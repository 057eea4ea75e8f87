"""Concrete stages of the cooperative approximation framework.

These map the paper's Fig. 1 flow onto the :class:`~repro.workflow.stage.Stage`
protocol::

    QuantizeStage      float_model + calibration_images -> qmodel
    UnpackStage        qmodel                           -> unpacked       (stage 1)
    CalibrateStage     qmodel + calibration_images      -> calibration    (stage 2)
    SignificanceStage  qmodel + calibration             -> significance   (stage 3)
    DSEStage           qmodel + significance + ...      -> dse            (stage 5)
    CodegenStage       unpacked + significance + dse    -> code           (stage 4)
    VerifyStage        qmodel + significance + ...      -> verification
    DeployStage        qmodel + significance + dse      -> deployment

Each stage declares exactly what it consumes and produces, so the
:class:`~repro.workflow.experiment.Experiment` runner can order them, cache
their outputs content-addressed and re-run only what a config change touches.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.calibration import ActivationCalibrator
from repro.core.codegen import generate_model_code
from repro.core.config import ApproxConfig
from repro.core.dse import DSEConfig, run_dse
from repro.core.significance import compute_significance
from repro.core.unpacking import unpack_model
from repro.isa.profiles import BoardProfile, STM32U575
from repro.quant.quantizer import PTQConfig, quantize_model
from repro.registry import ENGINES, SEARCH_STRATEGIES
from repro.utils.rng import SeedLike
from repro.workflow.stage import Stage, StageContext


def _class_identity(cls: type) -> str:
    """Qualified class name used to tie cache keys to the resolved implementation."""
    return f"{cls.__module__}.{cls.__qualname__}"


class QuantizeStage(Stage):
    """Post-training-quantize a float model into the deployable int8 artefact."""

    name = "quantize"
    requires = ("float_model", "calibration_images")
    provides = ("qmodel",)

    def __init__(self, ptq_config: Optional[PTQConfig] = None, model_name: Optional[str] = None):
        self.ptq_config = ptq_config
        self.model_name = model_name

    def config(self) -> Dict[str, Any]:
        """PTQ configuration + model name (the cache key)."""
        return {"ptq_config": self.ptq_config, "model_name": self.model_name}

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Quantize the float model against the calibration images."""
        kwargs = {"name": self.model_name} if self.model_name else {}
        qmodel = quantize_model(
            ctx["float_model"], ctx["calibration_images"], config=self.ptq_config, **kwargs
        )
        return {"qmodel": qmodel}


class UnpackStage(Stage):
    """Stage 1: layer-based code unpacking."""

    name = "unpack"
    requires = ("qmodel",)
    provides = ("unpacked",)

    def __init__(self, include_dense: bool = False):
        self.include_dense = bool(include_dense)

    def config(self) -> Dict[str, Any]:
        """Unpacking options hashed into the cache key."""
        return {"include_dense": self.include_dense}

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Unpack every conv (optionally dense) layer of the quantized model."""
        return {"unpacked": unpack_model(ctx["qmodel"], include_dense=self.include_dense)}


class CalibrateStage(Stage):
    """Stage 2: capture the input distribution E[a_i] on a calibration subset."""

    name = "calibrate"
    requires = ("qmodel", "calibration_images")
    provides = ("calibration",)

    def __init__(self, include_dense: bool = False, batch_size: int = 32):
        self.include_dense = bool(include_dense)
        self.batch_size = int(batch_size)

    def config(self) -> Dict[str, Any]:
        """Calibration options hashed into the cache key."""
        return {"include_dense": self.include_dense, "batch_size": self.batch_size}

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Capture per-operand mean activations on the calibration subset."""
        calibrator = ActivationCalibrator(
            ctx["qmodel"], include_dense=self.include_dense, batch_size=self.batch_size
        )
        return {"calibration": calibrator.calibrate(ctx["calibration_images"])}


class SignificanceStage(Stage):
    """Stage 3: per-operand significance (paper Eq. 2, or any registered metric)."""

    name = "significance"
    requires = ("qmodel", "calibration")
    provides = ("significance",)

    def __init__(
        self,
        metric: str = "expected_contribution",
        include_dense: bool = False,
        rng: SeedLike = 0,
    ):
        self.metric = metric
        self.include_dense = bool(include_dense)
        self.rng = rng

    def config(self) -> Dict[str, Any]:
        """Metric choice + options hashed into the cache key."""
        return {"metric": self.metric, "include_dense": self.include_dense, "rng": self.rng}

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Score every operand with the registered significance metric."""
        significance = compute_significance(
            ctx["qmodel"],
            ctx["calibration"],
            metric=self.metric,
            include_dense=self.include_dense,
            rng=self.rng,
        )
        return {"significance": significance}


class DSEStage(Stage):
    """Stage 5: design-space exploration with the configured search strategy."""

    name = "dse"
    # 2: strategies score through one DesignEvaluator, and the latency-aware
    # result class is gone, so a stored version-1 result must not be loaded.
    version = "2"
    requires = ("qmodel", "significance", "unpacked", "eval_images", "eval_labels")
    provides = ("dse",)

    def __init__(self, dse_config: Optional[DSEConfig] = None, board: Optional[BoardProfile] = None):
        self.dse_config = dse_config or DSEConfig()
        self.board = board

    def config(self) -> Dict[str, Any]:
        """DSE configuration + resolved strategy class (the cache key)."""
        # The resolved strategy class is hashed alongside its registry name,
        # so re-registering a different implementation under the same name
        # invalidates the cache.
        return {
            "dse_config": self.dse_config,
            "board": self.board,
            "strategy_class": _class_identity(SEARCH_STRATEGIES.resolve(self.dse_config.strategy)),
        }

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Sweep the design space and return the Pareto-annotated result."""
        dse = run_dse(
            ctx["qmodel"],
            ctx["significance"],
            ctx["eval_images"],
            ctx["eval_labels"],
            dse_config=self.dse_config,
            unpacked=ctx["unpacked"],
            board=self.board,
        )
        return {"dse": dse}


class CodegenStage(Stage):
    """Stage 4: emit the (approximate) unpacked C-like kernel code.

    The emitted design is either an explicit :class:`ApproxConfig` or, when a
    ``max_accuracy_loss`` budget is given, the best design the DSE found
    within that budget (falling back to exact code when nothing qualifies and
    no budget/config is set).
    """

    name = "codegen"
    requires = ("qmodel", "unpacked", "significance", "dse")
    provides = ("code",)

    def __init__(
        self,
        approx_config: Optional[ApproxConfig] = None,
        max_accuracy_loss: Optional[float] = None,
    ):
        if approx_config is not None and max_accuracy_loss is not None:
            raise ValueError("pass either an explicit config or a loss budget, not both")
        self.approx_config = approx_config
        self.max_accuracy_loss = max_accuracy_loss
        # The DSE result is only consumed when selecting by loss budget, so an
        # explicit-config codegen composes without a DSE stage in the graph.
        if max_accuracy_loss is None:
            self.requires = ("qmodel", "unpacked", "significance")

    def config(self) -> Dict[str, Any]:
        """Design selection (explicit config or loss budget) hashed into the key."""
        return {"approx_config": self.approx_config, "max_accuracy_loss": self.max_accuracy_loss}

    def _selected_config(self, ctx: StageContext) -> Optional[ApproxConfig]:
        if self.approx_config is not None:
            return self.approx_config
        if self.max_accuracy_loss is None:
            return None
        design = ctx["dse"].best_within_loss(self.max_accuracy_loss)
        if design is None:
            raise ValueError(
                f"no design satisfies an accuracy-loss budget of {self.max_accuracy_loss:.3f}"
            )
        return design.config

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Emit the C-like kernel code for the selected design."""
        config = self._selected_config(ctx)
        masks = (
            config.build_masks(ctx["significance"], unpacked=ctx["unpacked"])
            if config is not None and not config.is_exact
            else None
        )
        code = generate_model_code(
            ctx["unpacked"], masks=masks, model_name=ctx["qmodel"].name
        )
        return {"code": code}


class VerifyStage(Stage):
    """Differentially verify the generated code through the ISA virtual machine.

    Every selected design is lowered to the instruction IR and executed on
    real inputs in the requested VM modes; the stage asserts bit-identical
    int8 outputs against the :class:`~repro.quant.qmodel.QuantizedModel`
    kernel path and attaches a traced-vs-analytic cycle calibration report
    per design (see :mod:`repro.vm.verify`).

    Designs come either from the in-graph ``dse`` artifact (the Pareto front,
    thinned to ``max_designs``) or, when ``taus`` is given, from explicit
    uniform-tau configurations (exact always included) -- the latter composes
    without a DSE stage in the graph.

    With ``calibrate_cost_model=True`` the stage additionally provides a
    ``cost_calibration`` artifact: the exact design's traced-vs-analytic
    :class:`~repro.vm.verify.CalibrationReport` together with the
    trace-derived ``UNPACKED`` parameter overrides
    (:meth:`~repro.vm.verify.CalibrationReport.suggested_cost_overrides`),
    ready to apply through the PR-4 override hooks
    (:func:`repro.isa.cost_model.set_cost_param_overrides`).
    """

    name = "verify"
    requires = ("qmodel", "unpacked", "significance", "dse", "eval_images")
    provides = ("verification",)

    def __init__(
        self,
        taus: Optional[list] = None,
        max_designs: int = 4,
        n_samples: int = 32,
        modes: tuple = ("interp", "turbo"),
        strict: bool = False,
        calibrate_cost_model: bool = False,
    ):
        self.taus = None if taus is None else [float(t) for t in taus]
        self.max_designs = int(max_designs)
        self.n_samples = int(n_samples)
        self.modes = tuple(modes)
        if not self.modes:
            raise ValueError("VerifyStage needs at least one VM execution mode")
        self.strict = bool(strict)
        self.calibrate_cost_model = bool(calibrate_cost_model)
        if self.taus is not None:
            self.requires = ("qmodel", "unpacked", "significance", "eval_images")
        if self.calibrate_cost_model:
            self.provides = ("verification", "cost_calibration")

    def config(self) -> Dict[str, Any]:
        """Verification scope (designs, modes, sample count) hashed into the key."""
        return {
            "taus": self.taus,
            "max_designs": self.max_designs,
            "n_samples": self.n_samples,
            "modes": self.modes,
            "strict": self.strict,
            "calibrate_cost_model": self.calibrate_cost_model,
        }

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Run every selected design through the VM; assert bit-identical outputs."""
        from repro.vm.verify import uniform_tau_configs, verify_designs, verify_dse

        qmodel = ctx["qmodel"]
        images = ctx["eval_images"][: self.n_samples]
        common = {
            "significance": ctx["significance"],
            "unpacked": ctx["unpacked"],
            "modes": self.modes,
            "strict": self.strict,
        }
        if self.taus is not None:
            configs = uniform_tau_configs(qmodel, ctx["unpacked"], self.taus)
            report = verify_designs(qmodel, configs, images, **common)
        else:
            report = verify_dse(
                qmodel, ctx["dse"], images, max_designs=self.max_designs, **common
            )
        outputs: Dict[str, Any] = {"verification": report}
        if self.calibrate_cost_model:
            # Derive the overrides from the least-masked design: the exact
            # design when present, otherwise the first (most accurate) one.
            design = next((d for d in report.designs if not d.taus), report.designs[0])
            outputs["cost_calibration"] = {
                "report": design.calibration,
                "overrides": design.calibration.suggested_cost_overrides(),
            }
        return outputs


class ServeStage(Stage):
    """Turn DSE output into a servable :class:`~repro.serving.deployment.Deployment`.

    The stage prebuilds every service level's skip masks, prepared GEMM
    plans and per-sample simulated MCU cycle cost, so the resulting artifact
    is ready for the batching scheduler with zero warm-up -- and, like any other stage output,
    it is cached content-addressed: unchanged model/significance/DSE inputs
    serve the deployment straight from the artifact store.

    Service levels come either from the in-graph ``dse`` artifact (the
    default) or from an explicit ``points`` table (the JSON written by
    ``repro-tinyml explore``), in which case no DSE stage is needed.

    A graph can hold *several* serve stages -- one per model of a
    multi-deployment scheduler -- by giving each a distinct ``artifact``
    name (which also namespaces the stage name, keeping the graph's
    uniqueness invariants) and remapping its inputs via ``inputs`` (e.g.
    ``{"qmodel": "qmodel_alexnet"}``) to model-specific upstream artifacts.
    Both knobs are part of the content-addressed cache key, so two serve
    stages over different inputs never collide in the artifact store.
    """

    name = "serve"
    version = "2"
    requires = ("qmodel", "significance", "unpacked", "dse")
    provides = ("serving",)

    def __init__(
        self,
        points: Optional[list] = None,
        max_levels: int = 8,
        board: BoardProfile = STM32U575,
        cycle_source: str = "analytic",
        artifact: str = "serving",
        inputs: Optional[Dict[str, str]] = None,
    ):
        self.points = None if points is None else [dict(p) for p in points]
        self.max_levels = int(max_levels)
        self.board = board
        self.cycle_source = str(cycle_source)
        self.artifact = str(artifact)
        if not self.artifact:
            raise ValueError("ServeStage artifact name must be non-empty")
        self.inputs = dict(inputs) if inputs else {}
        self.provides = (self.artifact,)
        if self.artifact != "serving":
            self.name = f"serve:{self.artifact}"
        # An explicit point table replaces the DSE artifact, so serving
        # composes without a DSE stage in the graph.
        base = ("qmodel", "significance", "unpacked")
        if self.points is None:
            base = base + ("dse",)
        unknown = set(self.inputs) - set(base)
        if unknown:
            raise ValueError(
                f"ServeStage inputs remap unknown artifacts {sorted(unknown)}; "
                f"remappable inputs are {sorted(base)}"
            )
        self.requires = tuple(self.inputs.get(name, name) for name in base)

    def _input(self, ctx: StageContext, name: str) -> Any:
        """Fetch a logical input through the per-stage artifact remap."""
        return ctx[self.inputs.get(name, name)]

    def config(self) -> Dict[str, Any]:
        """Level sources + build options hashed into the cache key."""
        return {
            "points": self.points,
            "max_levels": self.max_levels,
            "board": self.board,
            "cycle_source": self.cycle_source,
            "artifact": self.artifact,
            "inputs": dict(sorted(self.inputs.items())),
        }

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Build the deployment (service levels with prebuilt masks + costs)."""
        from repro.serving.deployment import Deployment

        common = {
            "significance": self._input(ctx, "significance"),
            "unpacked": self._input(ctx, "unpacked"),
            "board": self.board,
            "max_levels": self.max_levels,
            "cycle_source": self.cycle_source,
        }
        qmodel = self._input(ctx, "qmodel")
        if self.points is not None:
            deployment = Deployment.from_points(qmodel, self.points, **common)
        else:
            deployment = Deployment.from_dse(qmodel, self._input(ctx, "dse"), **common)
        return {self.artifact: deployment}


class DeployStage(Stage):
    """Select a design within a loss budget and deploy it on the board model."""

    name = "deploy"
    requires = ("qmodel", "significance", "unpacked", "dse", "eval_images", "eval_labels")
    provides = ("deployment",)

    def __init__(
        self,
        max_accuracy_loss: float = 0.0,
        board: BoardProfile = STM32U575,
        engine: str = "ataman",
        eval_samples: Optional[int] = None,
        strict: bool = False,
    ):
        self.max_accuracy_loss = float(max_accuracy_loss)
        self.board = board
        self.engine = engine
        self.eval_samples = eval_samples
        self.strict = bool(strict)

    def config(self) -> Dict[str, Any]:
        """Deployment target + resolved engine class (the cache key)."""
        return {
            "max_accuracy_loss": self.max_accuracy_loss,
            "board": self.board,
            "engine": self.engine,
            "engine_class": _class_identity(ENGINES.resolve(self.engine)),
            "eval_samples": self.eval_samples,
            "strict": self.strict,
        }

    def run(self, ctx: StageContext) -> Dict[str, Any]:
        """Deploy the best in-budget design through the selected engine."""
        from repro.mcu.deploy import deploy as mcu_deploy

        qmodel = ctx["qmodel"]
        engine_cls = ENGINES.resolve(self.engine)
        if getattr(engine_cls, "supports_approx", False):
            design = ctx["dse"].best_within_loss(self.max_accuracy_loss)
            if design is None:
                raise ValueError(
                    f"no design satisfies an accuracy-loss budget of {self.max_accuracy_loss:.3f}"
                )
            engine = engine_cls(
                qmodel,
                config=design.config,
                significance=ctx["significance"],
                unpacked=ctx["unpacked"],
            )
        else:
            engine = engine_cls(qmodel)
        images = ctx["eval_images"]
        labels = ctx["eval_labels"]
        if self.eval_samples is not None:
            images = images[: self.eval_samples]
            labels = labels[: self.eval_samples]
        report = mcu_deploy(
            engine,
            self.board,
            eval_images=images,
            eval_labels=labels,
            model_name=qmodel.name,
            strict=self.strict,
        )
        return {"deployment": report}
