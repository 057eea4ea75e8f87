"""Tests for the command-line interface and the TFLite-Micro stand-in engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.frameworks import CMSISNNEngine, TFLiteMicroEngine
from repro.isa import STM32U575, ExecutionStyle


class TestTFLiteMicroEngine:
    def test_much_slower_than_cmsis(self, tiny_qmodel):
        """The paper's intro cites ~an-order-of-magnitude gap between TFLM reference
        kernels and CMSIS-NN; the stand-in should sit clearly above CMSIS."""
        cmsis = CMSISNNEngine(tiny_qmodel).latency_ms(STM32U575)
        tflm = TFLiteMicroEngine(tiny_qmodel).latency_ms(STM32U575)
        assert tflm / cmsis > 3.0

    def test_same_predictions_as_cmsis(self, tiny_qmodel, small_split):
        images = small_split.test.images[:16]
        np.testing.assert_array_equal(
            TFLiteMicroEngine(tiny_qmodel).predict_classes(images),
            CMSISNNEngine(tiny_qmodel).predict_classes(images),
        )

    def test_rejects_masks_and_style(self, tiny_qmodel):
        assert TFLiteMicroEngine.style == ExecutionStyle.TFLITE_MICRO
        with pytest.raises(ValueError):
            TFLiteMicroEngine(tiny_qmodel, masks={"conv1": np.ones((1, 1), bool)})

    def test_larger_runtime_footprint(self, tiny_qmodel):
        tflm_layout = TFLiteMicroEngine(tiny_qmodel).memory_layout(STM32U575)
        cmsis_layout = CMSISNNEngine(tiny_qmodel).memory_layout(STM32U575)
        assert tflm_layout.flash.runtime > cmsis_layout.flash.runtime
        assert tflm_layout.ram.runtime > cmsis_layout.ram.runtime


class TestCLIParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--out", "x"])
        assert args.model == "lenet"
        assert args.func.__name__ == "cmd_train"

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "resnet", "--out", "x"])

    def test_deploy_engine_choices(self):
        args = build_parser().parse_args(["deploy", "--qmodel", "q", "--engine", "tflite-micro"])
        assert args.engine == "tflite-micro"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy", "--qmodel", "q", "--engine", "onnxruntime"])

    def test_reproduce_flags(self):
        args = build_parser().parse_args(["reproduce", "--table1", "--scale", "ci"])
        assert args.table1 and args.scale == "ci"

    def test_serve_front_accepts_only_thread_and_is_hidden(self, capsys):
        # perfbench starts its server with `serve ... --front thread`.
        args = build_parser().parse_args(["serve", "--qmodel", "q", "--front", "thread"])
        assert args.func.__name__ == "cmd_serve"
        with pytest.raises(SystemExit) as failure:
            build_parser().parse_args(["serve", "--qmodel", "q", "--front", "asyncio"])
        assert failure.value.code == 2
        assert "invalid choice: 'asyncio'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "--front" not in capsys.readouterr().out


@pytest.mark.slow
class TestCLIWorkflow:
    """Drive the full train -> quantize -> explore -> codegen -> deploy chain on a tiny model."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli")

    @pytest.fixture(scope="class")
    def trained_stem(self, workdir):
        stem = workdir / "tiny"
        code = main([
            "train", "--model", "tiny_cnn", "--out", str(stem),
            "--samples", "500", "--epochs", "2", "--batch-size", "32", "--seed", "3",
        ])
        assert code == 0
        return stem

    @pytest.fixture(scope="class")
    def quantized_stem(self, workdir, trained_stem):
        stem = workdir / "tiny_q"
        code = main([
            "quantize", "--model-path", str(trained_stem), "--out", str(stem),
            "--samples", "500", "--seed", "3", "--calibration", "64",
        ])
        assert code == 0
        return stem

    def test_train_artifacts_exist(self, trained_stem):
        assert trained_stem.with_suffix(".json").exists()
        assert trained_stem.with_suffix(".npz").exists()

    def test_quantize_artifacts_exist(self, quantized_stem):
        assert quantized_stem.with_suffix(".json").exists()
        assert quantized_stem.with_suffix(".npz").exists()

    def test_explore_and_codegen_and_deploy(self, workdir, quantized_stem):
        dse_out = workdir / "dse.json"
        code = main([
            "explore", "--qmodel", str(quantized_stem), "--out", str(dse_out),
            "--samples", "500", "--seed", "3", "--loss", "0.2",
            "--taus", "0.0,0.01,0.05", "--eval-samples", "96",
        ])
        assert code == 0
        config_path = dse_out.with_suffix(".config.json")
        assert dse_out.exists() and config_path.exists()

        code_out = workdir / "kernels.c"
        assert main([
            "codegen", "--qmodel", str(quantized_stem), "--config", str(config_path),
            "--out", str(code_out), "--samples", "400", "--seed", "3",
        ]) == 0
        assert "__SMLAD" in code_out.read_text()

        assert main([
            "deploy", "--qmodel", str(quantized_stem), "--engine", "ataman",
            "--config", str(config_path), "--samples", "400", "--seed", "3",
            "--eval-samples", "64",
        ]) == 0
        assert main([
            "deploy", "--qmodel", str(quantized_stem), "--engine", "cmsis-nn",
            "--samples", "400", "--seed", "3", "--eval-samples", "64",
        ]) == 0
