"""Shared experiment context: datasets, trained models, pipelines, DSE results.

Every table/figure of the paper is derived from the same underlying
artefacts: the synthetic CIFAR-10 splits, trained LeNet/AlexNet models, their
int8 quantized counterparts and the ATAMAN pipeline outputs (calibration,
significance, DSE).  Building those artefacts is by far the most expensive
part of the evaluation, so :class:`ExperimentContext` builds them once, keeps
them in memory and (optionally) caches them on disk so that all benchmarks
and examples share one set of artefacts.

The experiment *scale* controls dataset size, training budget and DSE width:

* ``ci``   -- thin models and tiny sweeps; minutes of CPU, used for smoke runs.
* ``fast`` -- full-size models with reduced training/DSE budgets (default).
* ``full`` -- paper-scale tau sweeps and larger training budgets.

Select it with the ``REPRO_SCALE`` environment variable or explicitly in code.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.dse import DSEConfig
from repro.core.pipeline import AtamanPipeline, PipelineResult
from repro.data.dataset import DataSplit
from repro.data.synthetic_cifar import SyntheticCifarConfig, SyntheticCifar10
from repro.data.dataset import train_val_test_split
from repro.isa.profiles import STM32U575, BoardProfile
from repro.models import build_alexnet, build_lenet
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.quant.qmodel import QuantizedModel
from repro.quant.quantizer import quantize_model
from repro.utils.logging import get_logger

logger = get_logger("evaluation.context")

#: Bump when the artefact format changes so stale caches are ignored.
_CACHE_VERSION = 3


@dataclass
class ModelScale:
    """Per-model training / DSE budget."""

    width_multiplier: float
    train_samples: int
    epochs: int
    batch_size: int
    learning_rate: float
    tau_values: Sequence[float]
    dse_eval_samples: int
    layer_subsets: str = "all"


@dataclass
class ScaleConfig:
    """Complete experiment-scale description."""

    name: str
    n_samples: int
    test_fraction: float
    calibration_size: int
    table_eval_samples: int
    models: Dict[str, ModelScale] = field(default_factory=dict)


def _lenet_taus(step: float, maximum: float) -> List[float]:
    n = int(round(maximum / step))
    return [round(i * step, 10) for i in range(n + 1)]


_SCALES: Dict[str, ScaleConfig] = {
    "ci": ScaleConfig(
        name="ci",
        n_samples=900,
        test_fraction=0.25,
        calibration_size=64,
        table_eval_samples=120,
        models={
            "lenet": ModelScale(0.5, 600, 3, 32, 2e-3, [0.0, 0.001, 0.003, 0.01, 0.03], 120),
            "alexnet": ModelScale(0.4, 500, 3, 32, 2e-3, [0.0, 0.002, 0.01, 0.03], 120),
        },
    ),
    "fast": ScaleConfig(
        name="fast",
        n_samples=3200,
        test_fraction=0.2,
        calibration_size=128,
        table_eval_samples=320,
        models={
            "lenet": ModelScale(
                1.0,
                2400,
                5,
                48,
                1.5e-3,
                [0.0, 0.0002, 0.0005, 0.001, 0.0015, 0.002, 0.003, 0.005, 0.007, 0.01, 0.015, 0.02, 0.03, 0.05],
                256,
            ),
            "alexnet": ModelScale(
                1.0,
                1700,
                4,
                48,
                1.5e-3,
                [0.0, 0.0002, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.008, 0.012, 0.02, 0.03],
                192,
            ),
        },
    ),
    "full": ScaleConfig(
        name="full",
        n_samples=8000,
        test_fraction=0.2,
        calibration_size=256,
        table_eval_samples=1000,
        models={
            "lenet": ModelScale(1.0, 6000, 8, 64, 1.5e-3, _lenet_taus(0.001, 0.1), 600),
            "alexnet": ModelScale(1.0, 4000, 6, 64, 1.5e-3, _lenet_taus(0.01, 0.1), 400),
        },
    ),
}


def get_scale(name: Optional[str] = None) -> ScaleConfig:
    """Resolve a scale by name (or the ``REPRO_SCALE`` environment variable)."""
    name = name or os.environ.get("REPRO_SCALE", "fast")
    try:
        return _SCALES[name]
    except KeyError as exc:
        raise ValueError(f"unknown scale {name!r}; choices: {sorted(_SCALES)}") from exc


def default_cache_dir() -> Path:
    """Directory used for on-disk artefact caching."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


@dataclass
class ModelArtifacts:
    """Everything the experiments need for one model."""

    name: str
    float_model: Sequential
    qmodel: QuantizedModel
    pipeline: AtamanPipeline
    result: PipelineResult
    float_accuracy: float
    quant_accuracy: float


class ExperimentContext:
    """Builds and caches the artefacts shared by every experiment driver.

    Parameters
    ----------
    scale:
        Scale name or :class:`ScaleConfig` (default from ``REPRO_SCALE``).
    board:
        Target board (the paper's STM32U575 by default).
    cache_dir:
        Directory for the pickle cache; ``None`` disables on-disk caching.
    seed:
        Master seed controlling data generation and training.
    """

    def __init__(
        self,
        scale: Optional[str | ScaleConfig] = None,
        board: BoardProfile = STM32U575,
        cache_dir: Optional[Path | str] = default_cache_dir(),
        seed: int = 7,
    ):
        self.scale = scale if isinstance(scale, ScaleConfig) else get_scale(scale)
        self.board = board
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.seed = int(seed)
        self._split: Optional[DataSplit] = None
        self._models: Dict[str, ModelArtifacts] = {}

    # ------------------------------------------------------------------ data
    @property
    def split(self) -> DataSplit:
        """The dataset split (built lazily)."""
        if self._split is None:
            logger.warning("generating synthetic CIFAR-10 (%d samples)", self.scale.n_samples)
            dataset = SyntheticCifar10(SyntheticCifarConfig(seed=self.seed)).generate(
                self.scale.n_samples, seed=self.seed
            )
            self._split = train_val_test_split(
                dataset,
                val_fraction=0.0,
                test_fraction=self.scale.test_fraction,
                calibration_size=self.scale.calibration_size,
                rng=self.seed,
            )
        return self._split

    def eval_set(self, n: Optional[int] = None):
        """The held-out evaluation images/labels (optionally truncated)."""
        test = self.split.test
        n = n or self.scale.table_eval_samples
        n = min(n, len(test))
        return test.images[:n], test.labels[:n]

    # ------------------------------------------------------------------ cache
    def _cache_path(self, model_name: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{model_name}_{self.scale.name}_seed{self.seed}_v{_CACHE_VERSION}.pkl"

    def _load_cached(self, model_name: str) -> Optional[ModelArtifacts]:
        path = self._cache_path(model_name)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                artifacts = pickle.load(fh)
            logger.warning("loaded cached artefacts for %s from %s", model_name, path)
            return artifacts
        except Exception:  # pragma: no cover - corrupted cache falls back to rebuild
            logger.warning("cache at %s unreadable; rebuilding", path)
            return None

    def _store_cached(self, model_name: str, artifacts: ModelArtifacts) -> None:
        path = self._cache_path(model_name)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            pickle.dump(artifacts, fh)

    # ------------------------------------------------------------------ model building
    def _build_float_model(self, model_name: str, model_scale: ModelScale) -> Sequential:
        from repro.utils.rng import deterministic_hash

        builders = {"lenet": build_lenet, "alexnet": build_alexnet}
        builder = builders[model_name]
        model_seed = self.seed + deterministic_hash([model_name]) % 1000
        return builder(width_multiplier=model_scale.width_multiplier, rng=model_seed)

    def _train(self, model: Sequential, model_scale: ModelScale) -> Trainer:
        split = self.split
        n = min(model_scale.train_samples, len(split.train))
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=model_scale.learning_rate),
            rng=self.seed + 11,
        )
        trainer.fit(
            split.train.images[:n],
            split.train.labels[:n],
            epochs=model_scale.epochs,
            batch_size=model_scale.batch_size,
        )
        return trainer

    def build_model(self, model_name: str, force_rebuild: bool = False) -> ModelArtifacts:
        """Build (or load from cache) every artefact for ``model_name``."""
        if model_name in self._models and not force_rebuild:
            return self._models[model_name]
        if not force_rebuild:
            cached = self._load_cached(model_name)
            if cached is not None:
                self._models[model_name] = cached
                return cached

        if model_name not in self.scale.models:
            raise ValueError(f"scale {self.scale.name!r} defines no budget for model {model_name!r}")
        model_scale = self.scale.models[model_name]
        split = self.split

        logger.warning("training %s (%s scale)", model_name, self.scale.name)
        float_model = self._build_float_model(model_name, model_scale)
        self._train(float_model, model_scale)

        eval_images, eval_labels = self.eval_set()
        float_logits = float_model.predict(eval_images)
        float_accuracy = float((float_logits.argmax(axis=-1) == eval_labels).mean())

        logger.warning("quantizing %s", model_name)
        qmodel = quantize_model(float_model, split.calibration.images, name=model_name)
        quant_accuracy = qmodel.evaluate_accuracy(eval_images, eval_labels)

        logger.warning("running ATAMAN pipeline for %s", model_name)
        pipeline = AtamanPipeline(qmodel, board=self.board)
        dse_config = DSEConfig(
            tau_values=list(model_scale.tau_values),
            layer_subsets=model_scale.layer_subsets,
            max_eval_samples=model_scale.dse_eval_samples,
        )
        dse_images, dse_labels = self.eval_set(model_scale.dse_eval_samples)
        result = pipeline.run(split.calibration.images, dse_images, dse_labels, dse_config=dse_config)

        artifacts = ModelArtifacts(
            name=model_name,
            float_model=float_model,
            qmodel=qmodel,
            pipeline=pipeline,
            result=result,
            float_accuracy=float_accuracy,
            quant_accuracy=quant_accuracy,
        )
        self._models[model_name] = artifacts
        self._store_cached(model_name, artifacts)
        return artifacts

    def models(self, names: Sequence[str] = ("lenet", "alexnet")) -> Dict[str, ModelArtifacts]:
        """Build/load artefacts for several models."""
        return {name: self.build_model(name) for name in names}
