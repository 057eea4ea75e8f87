"""Tests for the composable experiment API (repro.workflow)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DSEConfig, PipelineResult
from repro.workflow import (
    ArtifactStore,
    CalibrateStage,
    CodegenStage,
    DSEStage,
    Experiment,
    ExperimentError,
    SignificanceStage,
    Stage,
    StageContext,
    UnpackStage,
    fingerprint,
)


# --------------------------------------------------------------------------- fingerprints
class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert fingerprint({"a": 1, "b": [1.5, "x"]}) == fingerprint({"b": [1.5, "x"], "a": 1})

    def test_value_change_changes_fingerprint(self):
        assert fingerprint({"tau": 0.01}) != fingerprint({"tau": 0.02})

    def test_ndarray_content_sensitive(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        b = a.copy()
        assert fingerprint(a) == fingerprint(b)
        b[0, 0] += 1
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(a.astype(np.float64))

    def test_dataclass_fingerprint(self):
        assert fingerprint(DSEConfig(tau_values=[0.0, 0.1])) == fingerprint(
            DSEConfig(tau_values=[0.0, 0.1])
        )
        assert fingerprint(DSEConfig(tau_values=[0.0, 0.1])) != fingerprint(
            DSEConfig(tau_values=[0.0, 0.2])
        )

    def test_stable_across_calls(self, tiny_qmodel):
        assert fingerprint(tiny_qmodel) == fingerprint(tiny_qmodel)


# --------------------------------------------------------------------------- artifact store
class TestArtifactStore:
    def test_memory_round_trip(self):
        store = ArtifactStore()
        assert not store.persistent
        assert not store.has("k")
        store.save("k", {"x": np.arange(4)})
        assert store.has("k")
        np.testing.assert_array_equal(store.load("k")["x"], np.arange(4))

    def test_disk_round_trip_across_instances(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        store.save("deadbeef", ("value", np.ones(3)))
        reopened = ArtifactStore(tmp_path / "cache")
        assert reopened.persistent
        assert reopened.has("deadbeef")
        value, arr = reopened.load("deadbeef")
        assert value == "value"
        np.testing.assert_array_equal(arr, np.ones(3))

    def test_missing_key_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(KeyError):
            store.load("missing")
        assert store.get("missing", "fallback") == "fallback"

    def test_root_must_be_a_directory(self, tmp_path):
        file_path = tmp_path / "not-a-dir"
        file_path.write_text("x")
        with pytest.raises(ValueError, match="not a directory"):
            ArtifactStore(file_path)

    def test_stale_format_is_a_cache_miss(self, tmp_path):
        import pickle

        store = ArtifactStore(tmp_path)
        store.save("cafe", 123)
        # Rewrite the artifact as if produced by an older store format.
        path = next(tmp_path.glob("*/cafe.pkl"))
        path.write_bytes(pickle.dumps({"format": 0, "value": 123}))
        reopened = ArtifactStore(tmp_path)
        assert reopened.get("cafe", "miss") == "miss"

    def test_keys_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("aa11", 1)
        store.save("bb22", 2)
        assert store.keys() == ["aa11", "bb22"]
        assert len(store) == 2
        store.clear()
        assert len(ArtifactStore(tmp_path)) == 0


# --------------------------------------------------------------------------- toy stage graph
class CountingStage(Stage):
    """A stage that counts how many times its body actually runs."""

    def __init__(self, name, requires, provides, fn, counters, knob=0):
        self.name = name
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self.fn = fn
        self.counters = counters
        self.knob = knob

    def config(self):
        return {"knob": self.knob}

    def run(self, ctx: StageContext):
        self.counters[self.name] = self.counters.get(self.name, 0) + 1
        return self.fn(ctx)


def _toy_stages(counters, square_knob=0, add_knob=0):
    return [
        CountingStage("square", ("x",), ("sq",), lambda c: {"sq": c["x"] ** 2}, counters,
                      knob=square_knob),
        CountingStage("add", ("sq",), ("out",), lambda c: {"out": c["sq"] + add_knob},
                      counters, knob=add_knob),
    ]


class TestExperimentGraph:
    def test_runs_in_dependency_order_regardless_of_listing_order(self):
        counters = {}
        stages = list(reversed(_toy_stages(counters)))
        result = Experiment(stages, inputs={"x": 3}).run()
        assert result["out"] == 9
        assert result.executed_stages == ["square", "add"]

    def test_missing_input_is_reported(self):
        counters = {}
        with pytest.raises(ExperimentError, match="requires artifact 'x'"):
            Experiment(_toy_stages(counters), inputs={}).run()

    def test_duplicate_provides_rejected(self):
        counters = {}
        a = CountingStage("a", (), ("y",), lambda c: {"y": 1}, counters)
        b = CountingStage("b", (), ("y",), lambda c: {"y": 2}, counters)
        with pytest.raises(ExperimentError, match="provided by both"):
            Experiment([a, b])

    def test_cycle_detected(self):
        counters = {}
        a = CountingStage("a", ("u",), ("v",), lambda c: {"v": 1}, counters)
        b = CountingStage("b", ("v",), ("u",), lambda c: {"u": 1}, counters)
        with pytest.raises(ExperimentError, match="cycle"):
            Experiment([a, b]).run()

    def test_wrong_provides_rejected(self):
        bad = CountingStage("bad", (), ("y",), lambda c: {"z": 1}, {})
        with pytest.raises(ExperimentError, match="declared provides"):
            Experiment([bad]).run()


class TestExperimentCaching:
    def test_rerun_with_unchanged_config_executes_zero_stage_bodies(self):
        counters = {}
        store = ArtifactStore()
        experiment = Experiment(_toy_stages(counters), inputs={"x": 4}, store=store)
        first = experiment.run()
        assert first["out"] == 16
        assert counters == {"square": 1, "add": 1}

        second = experiment.run()
        assert second["out"] == 16
        assert counters == {"square": 1, "add": 1}  # zero bodies executed
        assert second.executed_stages == []
        assert second.cached_stages == ["square", "add"]

    def test_changing_downstream_config_reruns_only_that_stage(self):
        counters = {}
        store = ArtifactStore()
        Experiment(_toy_stages(counters), inputs={"x": 4}, store=store).run()

        changed = Experiment(_toy_stages(counters, add_knob=10), inputs={"x": 4}, store=store)
        result = changed.run()
        assert result["out"] == 26
        assert counters == {"square": 1, "add": 2}
        assert result.executed_stages == ["add"]
        assert result.cached_stages == ["square"]

    def test_changing_input_reruns_everything(self):
        counters = {}
        store = ArtifactStore()
        Experiment(_toy_stages(counters), inputs={"x": 4}, store=store).run()
        Experiment(_toy_stages(counters), inputs={"x": 5}, store=store).run()
        assert counters == {"square": 2, "add": 2}

    def test_disk_store_survives_processes_like_reconstruction(self, tmp_path):
        counters = {}
        Experiment(
            _toy_stages(counters), inputs={"x": 4}, store=ArtifactStore(tmp_path / "s")
        ).run()
        # Fresh store object over the same directory: still a full cache hit.
        result = Experiment(
            _toy_stages(counters), inputs={"x": 4}, store=ArtifactStore(tmp_path / "s")
        ).run()
        assert counters == {"square": 1, "add": 1}
        assert result.executed_stages == []


# --------------------------------------------------------------------------- real stages
@pytest.fixture(scope="module")
def eval_data(small_split):
    return small_split.test.images[:48], small_split.test.labels[:48]


class TestAtamanExperiment:
    def test_standard_flow_produces_pipeline_artifacts(self, tiny_qmodel, small_split, eval_data):
        images, labels = eval_data
        experiment = Experiment.from_quantized(
            tiny_qmodel, small_split.calibration.images, images, labels,
            dse_config=DSEConfig(tau_values=[0.0, 0.05]),
        )
        result = experiment.run()
        assert result.executed_stages == ["unpack", "calibrate", "significance", "dse"]
        assert set(result.dse.points[0].as_dict()) >= {"accuracy", "conv_mac_reduction"}
        assert result.baseline_accuracy == result.dse.baseline_accuracy
        assert "conv" in " ".join(result["unpacked"])

    def test_unchanged_rerun_is_pure_cache_and_dse_change_is_incremental(
        self, tiny_qmodel, small_split, eval_data, tmp_path
    ):
        images, labels = eval_data
        store = ArtifactStore(tmp_path / "cache")

        def build(dse_config):
            return Experiment.from_quantized(
                tiny_qmodel, small_split.calibration.images, images, labels,
                dse_config=dse_config, store=store,
            )

        first = build(DSEConfig(tau_values=[0.0, 0.05])).run()
        assert first.executed_stages == ["unpack", "calibrate", "significance", "dse"]

        rerun = build(DSEConfig(tau_values=[0.0, 0.05])).run()
        assert rerun.executed_stages == []
        assert rerun.cached_stages == ["unpack", "calibrate", "significance", "dse"]
        assert rerun.dse.baseline_accuracy == first.dse.baseline_accuracy

        # Changing only the tau sweep re-runs only the DSE stage.
        changed = build(DSEConfig(tau_values=[0.0, 0.02, 0.05])).run()
        assert changed.executed_stages == ["dse"]
        assert changed.cached_stages == ["unpack", "calibrate", "significance"]
        assert len(changed.dse.points) > len(first.dse.points)

    def test_codegen_stage_composes_without_dse(self, tiny_qmodel, small_split):
        experiment = Experiment(
            [UnpackStage(), CalibrateStage(), SignificanceStage(), CodegenStage()],
            inputs={
                "qmodel": tiny_qmodel,
                "calibration_images": small_split.calibration.images,
            },
        )
        result = experiment.run()
        assert "__SMLAD" in result["code"]

    def test_facade_matches_experiment(self, tiny_qmodel, small_split, eval_data):
        """AtamanPipeline.run is a facade over Experiment: same artifact types/values."""
        from repro.core import AtamanPipeline

        images, labels = eval_data
        pipeline = AtamanPipeline(tiny_qmodel)
        result = pipeline.run(
            small_split.calibration.images, images, labels,
            dse_config=DSEConfig(tau_values=[0.0, 0.05]),
        )
        assert isinstance(result, PipelineResult)
        experiment = Experiment.from_quantized(
            tiny_qmodel, small_split.calibration.images, images, labels,
            dse_config=DSEConfig(tau_values=[0.0, 0.05]),
        ).run()
        assert result.baseline_accuracy == experiment.baseline_accuracy
        assert [p.accuracy for p in result.dse.points] == [
            p.accuracy for p in experiment.dse.points
        ]

    def test_pipeline_with_store_caches_runs(self, tiny_qmodel, small_split, eval_data, tmp_path):
        from repro.core import AtamanPipeline

        images, labels = eval_data
        store = ArtifactStore(tmp_path / "pipe")
        pipeline = AtamanPipeline(tiny_qmodel, store=store)
        config = DSEConfig(tau_values=[0.0, 0.05])
        first = pipeline.run(small_split.calibration.images, images, labels, dse_config=config)
        assert len(store) == 4
        again = pipeline.run(small_split.calibration.images, images, labels, dse_config=config)
        assert len(store) == 4  # nothing new was computed or written
        assert again.baseline_accuracy == first.baseline_accuracy


class TestStrategiesViaDSEConfig:
    def test_greedy_strategy_through_run_dse(self, tiny_qmodel, tiny_significance, eval_data):
        from repro.core import run_dse

        images, labels = eval_data
        result = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(
                strategy="greedy",
                strategy_options={"max_accuracy_loss": 0.3, "max_steps": 3},
            ),
        )
        assert result.points[0].config.is_exact
        assert all(p.conv_mac_reduction >= 0.0 for p in result.points)

    def test_greedy_respects_granularity_and_metric(
        self, tiny_qmodel, tiny_significance, tiny_unpacked, eval_data
    ):
        from repro.core import run_dse

        images, labels = eval_data
        result = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(
                strategy="greedy",
                granularity="input_channel",
                tau_values=[0.0, 0.05],
                strategy_options={"max_accuracy_loss": 1.0, "max_steps": 2},
            ),
            unpacked=tiny_unpacked,
        )
        for point in result.points[1:]:
            for spec in point.config.layer_specs.values():
                assert spec.granularity == "input_channel"

    def test_latency_aware_strategy_annotates_latency(
        self, tiny_qmodel, tiny_significance, eval_data
    ):
        from repro.core import run_dse
        from repro.isa import STM32U575

        images, labels = eval_data
        result = run_dse(
            tiny_qmodel, tiny_significance, images, labels,
            dse_config=DSEConfig(tau_values=[0.0, 0.05], strategy="latency-aware"),
            board=STM32U575,
        )
        assert all(p.latency_ms is not None for p in result.points)
        best = result.best_within_loss(1.0)
        assert best.latency_ms == min(p.latency_ms for p in result.points)

    def test_latency_aware_requires_board(self, tiny_qmodel, tiny_significance, eval_data):
        from repro.core import run_dse

        images, labels = eval_data
        with pytest.raises(ValueError, match="board"):
            run_dse(
                tiny_qmodel, tiny_significance, images, labels,
                dse_config=DSEConfig(tau_values=[0.0], strategy="latency-aware"),
            )

    def test_greedy_honours_eval_cap_and_tau_sweep(self, tiny_qmodel, tiny_significance, small_split):
        from repro.core import run_dse

        result = run_dse(
            tiny_qmodel, tiny_significance,
            small_split.test.images[:96], small_split.test.labels[:96],
            dse_config=DSEConfig(
                tau_values=[0.0, 0.05, 0.1],
                max_eval_samples=32,
                strategy="greedy",
                strategy_options={"max_accuracy_loss": 1.0, "max_steps": 2},
            ),
        )
        # Baseline computed on the capped evaluation subset, like the exhaustive sweep.
        capped = tiny_qmodel.evaluate_accuracy(
            small_split.test.images[:32], small_split.test.labels[:32]
        )
        assert result.baseline_accuracy == pytest.approx(capped)
        # The ladder comes from the explicit tau sweep (positive values only).
        for point in result.points[1:]:
            assert set(point.config.taus().values()) <= {0.05, 0.1}

    def test_dse_stage_passes_board_to_strategy(self, tiny_qmodel, small_split, eval_data):
        from repro.isa import STM32U575
        from repro.workflow import DSEStage

        images, labels = eval_data
        experiment = Experiment(
            [
                UnpackStage(),
                CalibrateStage(),
                SignificanceStage(),
                DSEStage(
                    dse_config=DSEConfig(tau_values=[0.0, 0.05], strategy="latency-aware"),
                    board=STM32U575,
                ),
            ],
            inputs={
                "qmodel": tiny_qmodel,
                "calibration_images": small_split.calibration.images,
                "eval_images": images,
                "eval_labels": labels,
            },
        )
        result = experiment.run()
        assert all(p.latency_ms is not None for p in result.dse.points)


class TestCLIIntegration:
    def test_workers_flag_on_every_subcommand(self):
        """The removed worker-count flags are usage errors, not silently ignored."""
        from repro.cli import build_parser

        parser = build_parser()
        required = {
            "train": ["--out", "x"],
            "quantize": ["--model-path", "m", "--out", "x"],
            "explore": ["--qmodel", "q", "--out", "x"],
            "codegen": ["--qmodel", "q", "--out", "x"],
            "verify-codegen": ["--qmodel", "q"],
            "deploy": ["--qmodel", "q"],
            "serve": ["--qmodel", "q"],
            "reproduce": [],
        }
        removed = [(command, "--workers") for command in required] + [("serve", "--shard-workers")]
        for command, flag in removed:
            parser.parse_args([command] + required[command])
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([command, flag, "2"] + required[command])
            assert excinfo.value.code == 2, (command, flag)

    def test_explore_strategy_and_resume_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["explore", "--qmodel", "q", "--out", "x", "--strategy", "greedy",
             "--resume", "cache-dir"]
        )
        assert args.strategy == "greedy"
        assert args.resume == "cache-dir"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explore", "--qmodel", "q", "--out", "x", "--strategy", "bogus"]
            )
