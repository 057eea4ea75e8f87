"""Tests for the ISA virtual machine: IR, lowering, execution, verification.

The load-bearing property is differential correctness: the VM executes the
*generated* instruction stream and must be bit-identical to the simulation
kernels under every mask -- on the tiny CNN and on the paper's LeNet, across
exact, moderate and aggressive skip configurations, in both execution modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ActivationCalibrator,
    ApproxConfig,
    build_skip_mask,
    compute_significance,
    plan_layer,
    unpack_model,
)
from repro.isa.trace import trace_unpacked_conv
from repro.models import build_lenet
from repro.quant import quantize_model
from repro.registry import ENGINES
from repro.vm import (
    Opcode,
    OpKind,
    VirtualMachine,
    VMEngine,
    VMInterpEngine,
    calibrate_cycle_model,
    execute_op_interp,
    execute_op_turbo,
    hybrid_cycles_per_sample,
    lower_layer,
    lower_model,
    lower_op_layer,
    remask_program,
    traced_cycles_per_sample,
    uniform_tau_configs,
    verify_designs,
    verify_dse,
)
from repro.workflow import CalibrateStage, Experiment, SignificanceStage, UnpackStage, VerifyStage

#: The acceptance sweep: exact plus moderate and aggressive uniform designs.
SWEEP_TAUS = [0.01, 0.05, 0.2]


@pytest.fixture(scope="module")
def lenet_setup(small_split):
    """An (untrained) quantized LeNet + pipeline artifacts on 32x32 inputs.

    Training is irrelevant for bit-identity; random weights exercise the
    same instruction streams at a fraction of the fixture cost.
    """
    rng = np.random.default_rng(11)
    images = rng.random((48, 32, 32, 3)).astype(np.float32)
    model = build_lenet(input_shape=(32, 32, 3), n_classes=10, rng=5)
    model.eval()
    qmodel = quantize_model(model, images[:32], name="lenet")
    unpacked = unpack_model(qmodel)
    calibration = ActivationCalibrator(qmodel).calibrate(images[:32])
    significance = compute_significance(qmodel, calibration)
    return qmodel, unpacked, significance, images


class TestLowering:
    def test_ir_matches_plan(self, tiny_qmodel, tiny_unpacked):
        name, layer = next(iter(tiny_unpacked.items()))
        program = lower_layer(tiny_qmodel.get_layer(name), layer)
        plan = plan_layer(layer)
        smlads = [i for i in program.instructions if i.op is Opcode.SMLAD]
        mlas = [i for i in program.instructions if i.op is Opcode.MLA]
        assert len(smlads) == sum(len(ch.pairs) for ch in plan.channels)
        assert len(mlas) == sum(1 for ch in plan.channels if ch.odd is not None)
        # Every channel carries the INIT/REQUANT/CLAMP/STORE epilogue.
        for op in (Opcode.INIT, Opcode.REQUANT, Opcode.CLAMP, Opcode.STORE):
            assert sum(1 for i in program.instructions if i.op is op) == layer.out_channels

    def test_ir_operands_mirror_c_text(self, tiny_unpacked):
        """The SMLAD operand pairs of the IR are the pairs the C text emits."""
        layer = next(iter(tiny_unpacked.values()))
        plan = plan_layer(layer)
        first = plan.channels[0]
        assert first.pairs[0][0] == 0 and first.pairs[0][1] == 1  # exact: adjacent operands

    def test_masked_lowering_skips_operands(self, tiny_qmodel, tiny_unpacked, tiny_significance):
        name, layer = next(iter(tiny_unpacked.items()))
        mask = build_skip_mask(tiny_significance[name], 0.05)
        exact = lower_layer(tiny_qmodel.get_layer(name), layer)
        masked = lower_layer(tiny_qmodel.get_layer(name), layer, mask)
        assert masked.retained_operands == int(mask.sum())
        assert masked.instructions_per_position < exact.instructions_per_position
        # Skipped operands are zero in turbo's prepared (K, Cout) weights.
        assert np.all(masked.gemm.weights.T[~np.asarray(mask, dtype=bool)] == 0)

    def test_trace_counts_match_isa_trace_model(self, tiny_qmodel, tiny_unpacked):
        """The lowered opcode counts equal trace_unpacked_conv's first-principles model."""
        program = lower_model(tiny_qmodel, tiny_unpacked)
        for name, layer in tiny_unpacked.items():
            reference = trace_unpacked_conv(layer.weights, 1, name=name)
            assert +program[name].opcode_counts() == +reference.opcode_counts
            assert program[name].code_bytes() == reference.code_bytes

    def test_init_acc_folds_input_offset(self, tiny_qmodel, tiny_unpacked):
        name, layer = next(iter(tiny_unpacked.items()))
        qlayer = tiny_qmodel.get_layer(name)
        program = lower_layer(qlayer, layer)
        zp = qlayer.input_params.scalar_zero_point()
        expected = qlayer.bias - zp * layer.weights.astype(np.int64).sum(axis=1)
        np.testing.assert_array_equal(program.init_acc, expected)


class TestOpLowering:
    """Lowering of the library-style ops: pooling, ReLU, flatten."""

    def test_max_pool_instruction_structure(self, tiny_qmodel):
        from repro.quant.qlayers import QMaxPool2D

        pool = next(l for l in tiny_qmodel.layers if isinstance(l, QMaxPool2D))
        shape = tiny_qmodel.layer_input_shapes()[pool.name]
        program = lower_op_layer(pool, shape)
        channels, window = shape[-1], pool.kernel[0] * pool.kernel[1]
        assert program.kind is OpKind.MAX_POOL
        # Per channel: first-element load, window-1 compare/selects, store.
        ops = [i.op for i in program.instructions]
        assert ops.count(Opcode.PLOAD) == channels
        assert ops.count(Opcode.PMAX) == channels * (window - 1)
        assert ops.count(Opcode.STORE) == channels
        assert program.instructions_per_position == channels * (window + 1)
        # The comparison count mirrors the analytic kernel stats model
        # (the spatial loop adds its own bookkeeping CMP on top).
        counts = program.opcode_counts(include_loop_overhead=False)
        assert counts["CMP"] == channels * (window - 1)
        assert program.code_bytes() > 0

    def test_flatten_is_free(self, tiny_qmodel):
        from repro.quant.qlayers import QFlatten

        flatten = next(l for l in tiny_qmodel.layers if isinstance(l, QFlatten))
        shape = tiny_qmodel.layer_input_shapes()[flatten.name]
        program = lower_op_layer(flatten, shape)
        assert program.kind is OpKind.FLATTEN
        assert program.instructions == ()
        assert program.code_bytes() == 0
        assert program.cycles_per_sample(shape) == 0.0

    def test_relu_program_matches_kernel(self, tiny_qmodel, rng):
        """A standalone QReLU lowers and executes bit-identically to relu_s8."""
        from repro.kernels.activations_s8 import relu_s8
        from repro.quant.qlayers import QReLU

        params = tiny_qmodel.layers[0].input_params
        relu = QReLU("relu_standalone", params)
        x = rng.integers(-128, 128, size=(5, 6, 6, 7), dtype=np.int8)
        program = lower_op_layer(relu, (6, 6, 7))
        reference = relu_s8(x, params.scalar_zero_point())
        np.testing.assert_array_equal(execute_op_interp(program, x), reference)
        np.testing.assert_array_equal(execute_op_turbo(program, x), reference)
        assert program.instructions_per_position == 2 * 7  # RELU + STORE per channel

    def test_avg_pool_program_matches_kernel(self, tiny_qmodel, rng):
        from repro.kernels.pooling_s8 import avg_pool_s8
        from repro.quant.qlayers import QAvgPool2D

        params = tiny_qmodel.layers[0].input_params
        pool = QAvgPool2D("avg_standalone", params, kernel=(2, 2), stride=(2, 2))
        x = rng.integers(-128, 128, size=(4, 8, 8, 5), dtype=np.int8)
        program = lower_op_layer(pool, (8, 8, 5))
        assert program.kind is OpKind.AVG_POOL
        reference = avg_pool_s8(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(execute_op_interp(program, x), reference)
        np.testing.assert_array_equal(execute_op_turbo(program, x), reference)

    def test_max_pool_program_matches_kernel(self, tiny_qmodel, rng):
        from repro.kernels.pooling_s8 import max_pool_s8
        from repro.quant.qlayers import QMaxPool2D

        pool = next(l for l in tiny_qmodel.layers if isinstance(l, QMaxPool2D))
        shape = tiny_qmodel.layer_input_shapes()[pool.name]
        program = lower_op_layer(pool, shape)
        x = rng.integers(-128, 128, size=(6, *shape), dtype=np.int8)
        reference = max_pool_s8(x, pool.kernel, pool.stride)
        np.testing.assert_array_equal(execute_op_interp(program, x), reference)
        np.testing.assert_array_equal(execute_op_turbo(program, x), reference)

    def test_whole_graph_coverage(self, tiny_qmodel, tiny_unpacked):
        program = lower_model(tiny_qmodel, tiny_unpacked)
        assert program.is_total
        assert program.coverage == 1.0
        assert program.unlowered_layers() == ()
        assert len(program) == len(tiny_qmodel.layers)
        # The dense classifier lowers even though `unpacked` excludes it.
        assert "fc1" in program and "fc1" not in tiny_unpacked

    def test_partial_lowering_keeps_fallback(self, tiny_qmodel, tiny_unpacked, small_split):
        """Layers excluded from lowering run through the library kernels."""
        subset = sorted(tiny_unpacked)[:1]
        program = lower_model(tiny_qmodel, tiny_unpacked, layers=subset)
        assert not program.is_total
        assert set(program.programs) == set(subset)
        images = small_split.test.images[:8]
        q_in = tiny_qmodel.quantize_input(images)
        reference = tiny_qmodel.forward_quantized(q_in)
        for mode in ("interp", "turbo"):
            machine = VirtualMachine(tiny_qmodel, program=program, mode=mode)
            np.testing.assert_array_equal(machine.forward_quantized(q_in), reference)

    def test_remask_shares_unmasked_programs(self, tiny_qmodel, tiny_unpacked,
                                             tiny_significance):
        config = ApproxConfig.uniform(tiny_qmodel.name, sorted(tiny_unpacked), 0.05)
        masks = config.build_masks(tiny_significance, unpacked=tiny_unpacked)
        base = lower_model(tiny_qmodel, tiny_unpacked)
        remasked = remask_program(base, tiny_qmodel, tiny_unpacked, masks)
        direct = lower_model(tiny_qmodel, tiny_unpacked, masks=masks)
        # Masked conv layers are re-lowered; everything else is shared.
        for name in masks:
            assert remasked[name] is not base[name]
            assert remasked[name].retained_operands == direct[name].retained_operands
        for layer in tiny_qmodel.layers:
            if layer.name not in masks:
                assert remasked[layer.name] is base[layer.name]
        # And the re-masked program is the program a direct lowering builds.
        assert remasked.code_bytes() == direct.code_bytes()
        # No-mask remask is the identity.
        assert remask_program(base, tiny_qmodel, tiny_unpacked, None) is base


class TestExecution:
    @pytest.mark.parametrize("mode", ["interp", "turbo"])
    def test_exact_bit_identical_tiny(self, tiny_qmodel, small_split, mode):
        images = small_split.test.images[:16]
        q_in = tiny_qmodel.quantize_input(images)
        machine = VirtualMachine(tiny_qmodel, mode=mode)
        np.testing.assert_array_equal(
            machine.forward_quantized(q_in), tiny_qmodel.forward_quantized(q_in)
        )

    @pytest.mark.parametrize("tau", SWEEP_TAUS)
    def test_masked_bit_identical_tiny(self, tiny_qmodel, tiny_unpacked, tiny_significance,
                                       small_split, tau):
        config = ApproxConfig.uniform(tiny_qmodel.name, sorted(tiny_unpacked), tau)
        masks = config.build_masks(tiny_significance, unpacked=tiny_unpacked)
        images = small_split.test.images[:16]
        q_in = tiny_qmodel.quantize_input(images)
        reference = tiny_qmodel.forward_quantized(q_in, masks=masks)
        for mode in ("interp", "turbo"):
            machine = VirtualMachine(tiny_qmodel, masks=masks, mode=mode)
            np.testing.assert_array_equal(machine.forward_quantized(q_in), reference)

    def test_lenet_sweep_bit_identical(self, lenet_setup):
        """Acceptance: LeNet through exact + moderate + aggressive designs."""
        qmodel, unpacked, significance, images = lenet_setup
        configs = uniform_tau_configs(qmodel, unpacked, SWEEP_TAUS)
        assert len(configs) == 4  # exact + 3 skip configurations
        report = verify_designs(
            qmodel, configs, images[:8], significance=significance, unpacked=unpacked
        )
        assert report.all_match
        # The sweep covers genuinely different aggressiveness levels.
        retained = [d.retained_fraction for d in report.designs]
        assert retained[0] == 1.0 and retained[-1] < 0.7

    def test_all_skipped_layer_executes(self, tiny_qmodel, tiny_unpacked, small_split):
        """A fully skipped conv degenerates to requantized bias -- still bit-identical."""
        name, layer = next(iter(tiny_unpacked.items()))
        masks = {name: np.zeros_like(layer.weights, dtype=bool)}
        images = small_split.test.images[:8]
        q_in = tiny_qmodel.quantize_input(images)
        reference = tiny_qmodel.forward_quantized(q_in, masks=masks)
        for mode in ("interp", "turbo"):
            machine = VirtualMachine(tiny_qmodel, masks=masks, mode=mode)
            np.testing.assert_array_equal(machine.forward_quantized(q_in), reference)

    def test_predict_classes_matches_kernel_path(self, tiny_qmodel, small_split):
        images = small_split.test.images[:32]
        machine = VirtualMachine(tiny_qmodel, mode="turbo")
        np.testing.assert_array_equal(
            machine.predict_classes(images), tiny_qmodel.predict_classes(images)
        )

    def test_trace_records_every_model_layer(self, tiny_qmodel, tiny_unpacked):
        """Whole-model lowering: the trace covers the entire graph, not just convs."""
        machine = VirtualMachine(tiny_qmodel, mode="interp")
        trace = machine.trace()
        assert set(trace.layers) == {layer.name for layer in tiny_qmodel.layers}
        assert set(tiny_unpacked) < set(trace.layers)
        assert trace.total_cycles > 0
        for name in trace.layers:
            record = trace.layers[name]
            assert record.instructions_executed == (
                machine.program[name].instructions_per_position * record.spatial_positions
            )
        by_class = trace.cycles_by_op_class()
        assert by_class["conv"] > by_class["max_pool"] > 0
        assert by_class["flatten"] == 0.0
        assert by_class["dense"] > 0

    def test_unknown_mode_rejected(self, tiny_qmodel):
        with pytest.raises(ValueError):
            VirtualMachine(tiny_qmodel, mode="warp")


class TestCalibration:
    def test_report_covers_every_lowered_layer(self, tiny_qmodel, tiny_unpacked):
        program = lower_model(tiny_qmodel, tiny_unpacked)
        report = calibrate_cycle_model(tiny_qmodel, program)
        assert {layer.name for layer in report.layers} == {
            layer.name for layer in tiny_qmodel.layers
        }
        assert report.traced_cycles > 0 and report.analytic_lowered_cycles > 0
        # Whole-graph lowering: nothing falls back to the analytic model.
        assert report.is_fully_traced and report.unlowered_layers == ()
        assert report.coverage == pytest.approx(1.0)
        # hybrid = analytic total with the lowered layers' share swapped for traced.
        expected = (
            report.analytic_total_cycles
            - report.analytic_lowered_cycles
            + report.traced_cycles
        )
        assert report.hybrid_total_cycles == pytest.approx(expected)

    def test_per_op_class_breakdown(self, tiny_qmodel, tiny_unpacked):
        program = lower_model(tiny_qmodel, tiny_unpacked)
        report = calibrate_cycle_model(tiny_qmodel, program)
        classes = report.by_op_class()
        assert {"conv", "dense", "max_pool", "flatten"} <= set(classes)
        assert classes["conv"]["traced_cycles"] > classes["max_pool"]["traced_cycles"] > 0
        # Flatten is free on both sides and must not distort any ratio.
        assert classes["flatten"]["traced_cycles"] == 0.0
        assert classes["flatten"]["ratio"] == 1.0
        for entry in classes.values():
            assert entry["layers"] >= 1

    def test_missing_analytic_layer_raises(self, tiny_qmodel, tiny_unpacked, monkeypatch):
        """A lowered layer with traced cycles but no analytic section is an
        error naming the layer, not a silent analytic_cycles=0.0 that
        corrupts the ratio and every override derived from it."""
        import repro.vm.verify as vm_verify

        program = lower_model(tiny_qmodel, tiny_unpacked)
        original = vm_verify.traced_layer_cycles

        def with_ghost(qmodel, prog, *args, **kwargs):
            cycles = original(qmodel, prog, *args, **kwargs)
            cycles["ghost"] = 123.0
            return cycles

        monkeypatch.setattr(vm_verify, "traced_layer_cycles", with_ghost)
        with pytest.raises(ValueError, match="ghost"):
            calibrate_cycle_model(tiny_qmodel, program)

    def test_zero_cost_layer_missing_from_analytic_is_fine(self, tiny_qmodel, tiny_unpacked):
        """Flatten has no analytic section and zero traced cycles: recorded,
        excluded from the ratio, no error."""
        program = lower_model(tiny_qmodel, tiny_unpacked)
        report = calibrate_cycle_model(tiny_qmodel, program)
        flatten = next(layer for layer in report.layers if layer.op_class == "flatten")
        assert flatten.traced_cycles == 0.0 and flatten.analytic_cycles == 0.0
        assert flatten.ratio == 1.0
        assert np.isfinite(report.ratio)

    def test_traced_and_analytic_same_order_of_magnitude(self, tiny_qmodel, tiny_unpacked):
        """The two models must agree to well within 2x (they are calibrated together)."""
        program = lower_model(tiny_qmodel, tiny_unpacked)
        report = calibrate_cycle_model(tiny_qmodel, program)
        assert 0.5 < report.ratio < 2.0

    def test_masks_shrink_traced_cycles(self, tiny_qmodel, tiny_unpacked, tiny_significance):
        config = ApproxConfig.uniform(tiny_qmodel.name, sorted(tiny_unpacked), 0.1)
        masks = config.build_masks(tiny_significance, unpacked=tiny_unpacked)
        exact = hybrid_cycles_per_sample(tiny_qmodel, tiny_unpacked, None)
        approx = hybrid_cycles_per_sample(tiny_qmodel, tiny_unpacked, masks)
        assert approx < exact


class TestWholeModelTrace:
    """Whole-model traced costing and the calibration round trip."""

    def test_hybrid_equals_trace_when_all_lowered(self, tiny_qmodel, tiny_unpacked):
        """With total coverage the hybrid figure IS the execution trace."""
        program = lower_model(tiny_qmodel, tiny_unpacked)
        assert program.is_total
        machine = VirtualMachine(tiny_qmodel, program=program, mode="turbo")
        trace = machine.trace()
        hybrid = hybrid_cycles_per_sample(tiny_qmodel, tiny_unpacked, None)
        assert hybrid == pytest.approx(trace.cycles_per_sample())

    def test_partial_program_falls_back_to_hybrid(self, tiny_qmodel, tiny_unpacked):
        subset = sorted(tiny_unpacked)[:1]
        partial = lower_model(tiny_qmodel, tiny_unpacked, layers=subset)
        full = lower_model(tiny_qmodel, tiny_unpacked)
        hybrid = traced_cycles_per_sample(tiny_qmodel, partial)
        pure = traced_cycles_per_sample(tiny_qmodel, full)
        # The hybrid figure carries the analytic remainder (and the fixed
        # per-inference overhead); the pure trace does not.
        assert hybrid != pure
        report = calibrate_cycle_model(tiny_qmodel, partial)
        assert hybrid == pytest.approx(report.hybrid_total_cycles)
        assert not report.is_fully_traced
        assert set(report.unlowered_layers) == {
            layer.name
            for layer in tiny_qmodel.layers
            if layer.name not in subset and layer.name != "flatten"
        }

    @pytest.mark.parametrize("model_fixture", ["tiny", "lenet"])
    def test_calibration_round_trip_within_5pct(self, model_fixture, tiny_qmodel,
                                                tiny_unpacked, lenet_setup):
        """suggested_cost_overrides must bring analytic/traced within +-5%."""
        from repro.isa.cost_model import (
            ExecutionStyle,
            apply_cost_calibration,
            clear_cost_param_overrides,
        )

        if model_fixture == "tiny":
            qmodel, unpacked = tiny_qmodel, tiny_unpacked
        else:
            qmodel, unpacked = lenet_setup[0], lenet_setup[1]
        program = lower_model(qmodel, unpacked)
        base = calibrate_cycle_model(qmodel, program)
        assert abs(base.ratio - 1.0) > 0.05  # the miscalibration being fixed
        try:
            apply_cost_calibration(base, ExecutionStyle.UNPACKED)
            after = calibrate_cycle_model(qmodel, program)
            assert abs(after.ratio - 1.0) <= 0.05
        finally:
            clear_cost_param_overrides(ExecutionStyle.UNPACKED)

    def test_traced_deployment_lowers_once(self, tiny_qmodel, tiny_unpacked,
                                           tiny_significance, monkeypatch):
        """Building a traced deployment must lower the full model exactly once,
        however many service levels it builds."""
        from repro.serving import Deployment
        from repro.vm import lower as vm_lower

        calls = {"lower_model": 0}
        original = vm_lower.lower_model

        def counting_lower_model(*args, **kwargs):
            calls["lower_model"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(vm_lower, "lower_model", counting_lower_model)
        conv_names = sorted(tiny_unpacked)
        points = [
            {"label": "exact", "taus": {}, "accuracy": 1.0},
            {"label": "mid", "taus": {n: 0.05 for n in conv_names}, "accuracy": 0.9},
            {"label": "aggressive", "taus": {n: 0.2 for n in conv_names}, "accuracy": 0.8},
        ]
        deployment = Deployment.from_points(
            tiny_qmodel, points, tiny_significance, unpacked=tiny_unpacked,
            cycle_source="traced",
        )
        assert len(deployment.levels) == 3
        assert calls["lower_model"] == 1
        # Escalation still sheds cycles under the pure traced costing.
        cycles = [level.cycles_per_sample for level in deployment.levels]
        assert cycles == sorted(cycles, reverse=True)

    def test_verify_stage_calibration_artifact(self, tiny_qmodel, small_split):
        stages = [
            UnpackStage(),
            CalibrateStage(),
            SignificanceStage(),
            VerifyStage(taus=[0.02], n_samples=8, calibrate_cost_model=True),
        ]
        inputs = {
            "qmodel": tiny_qmodel,
            "calibration_images": small_split.calibration.images,
            "eval_images": small_split.test.images,
        }
        result = Experiment(stages, inputs=inputs).run()
        calibration = result["cost_calibration"]
        assert calibration["report"].is_fully_traced
        overrides = calibration["overrides"]
        assert set(overrides) >= {"cycles_per_mac", "cycles_per_output"}
        assert all(value > 0 for value in overrides.values())


class TestVerifyHarness:
    def test_verify_dse_covers_pareto(self, tiny_qmodel, tiny_unpacked, tiny_significance,
                                      tiny_pipeline_result, small_split):
        report = verify_dse(
            tiny_qmodel,
            tiny_pipeline_result.dse,
            small_split.test.images[:8],
            significance=tiny_significance,
            unpacked=tiny_unpacked,
            max_designs=3,
        )
        assert report.all_match
        assert any(not d.taus for d in report.designs)  # exact design included
        assert report.as_dict()["all_match"] is True

    def test_partial_config_counts_exact_layers_as_retained(
        self, tiny_qmodel, tiny_unpacked, tiny_significance, small_split
    ):
        """A design masking only one conv (greedy-DSE shape) must not report
        the untouched layers' operands as skipped."""
        from repro.vm.verify import verify_design

        name = sorted(tiny_unpacked)[0]
        config = ApproxConfig.uniform(tiny_qmodel.name, [name], 0.5)
        verification = verify_design(
            tiny_qmodel, config, small_split.test.images[:4],
            significance=tiny_significance, unpacked=tiny_unpacked,
        )
        assert verification.match
        other_operands = sum(
            layer.total_operands for n, layer in tiny_unpacked.items() if n != name
        )
        total = sum(layer.total_operands for layer in tiny_unpacked.values())
        assert verification.retained_fraction >= other_operands / total

    def test_detects_divergence(self, tiny_qmodel, tiny_unpacked, small_split):
        """Corrupting one hard-wired weight must flip the design to a mismatch."""
        from repro.vm.verify import verify_design

        config = ApproxConfig.exact(tiny_qmodel.name)
        program = lower_model(tiny_qmodel, tiny_unpacked)
        name = next(iter(tiny_unpacked))
        program[name].gemm.weights[0, 0] += 64  # corrupt what turbo executes
        images = small_split.test.images[:4]
        q_in = tiny_qmodel.quantize_input(images)
        machine = VirtualMachine(tiny_qmodel, program=program, mode="turbo")
        assert not np.array_equal(
            machine.forward_quantized(q_in), tiny_qmodel.forward_quantized(q_in)
        )

    def test_verify_stage_in_graph_and_cached(self, tiny_qmodel, small_split):
        from repro.workflow.artifacts import ArtifactStore

        store = ArtifactStore()
        stages = [
            UnpackStage(),
            CalibrateStage(),
            SignificanceStage(),
            VerifyStage(taus=[0.02], n_samples=8),
        ]
        inputs = {
            "qmodel": tiny_qmodel,
            "calibration_images": small_split.calibration.images,
            "eval_images": small_split.test.images,
        }
        result = Experiment(stages, inputs=inputs, store=store).run()
        report = result["verification"]
        assert report.all_match
        assert "verify" in result.executed_stages
        rerun = Experiment(stages, inputs=inputs, store=store).run()
        assert "verify" in rerun.cached_stages

    def test_verify_stage_config_invalidates_cache(self, tiny_qmodel, small_split):
        a = VerifyStage(taus=[0.02], n_samples=8)
        b = VerifyStage(taus=[0.05], n_samples=8)
        digests = {name: "x" for name in a.requires}
        assert a.signature(digests) != b.signature(digests)


class TestEngines:
    def test_registered(self):
        assert "vm" in ENGINES and "vm-interp" in ENGINES
        assert ENGINES.resolve("vm") is VMEngine
        assert ENGINES.resolve("vm-interp") is VMInterpEngine

    def test_same_predictions_as_ataman(self, tiny_qmodel, tiny_unpacked, tiny_significance,
                                        small_split):
        from repro.frameworks import AtamanEngine

        config = ApproxConfig.uniform(tiny_qmodel.name, sorted(tiny_unpacked), 0.05)
        kwargs = dict(config=config, significance=tiny_significance, unpacked=tiny_unpacked)
        images = small_split.test.images[:16]
        np.testing.assert_array_equal(
            VMEngine(tiny_qmodel, **kwargs).predict_classes(images),
            AtamanEngine(tiny_qmodel, **kwargs).predict_classes(images),
        )

    def test_traced_latency_positive_and_near_analytic(self, tiny_qmodel):
        from repro.frameworks import AtamanEngine
        from repro.isa import STM32U575

        vm_latency = VMEngine(tiny_qmodel).latency_ms(STM32U575)
        analytic = AtamanEngine(tiny_qmodel).latency_ms(STM32U575)
        assert vm_latency > 0
        assert 0.5 < vm_latency / analytic < 2.0

    def test_supports_approx_flags(self):
        from repro.frameworks import AtamanEngine, CMSISNNEngine

        assert AtamanEngine.supports_approx and VMEngine.supports_approx
        assert not CMSISNNEngine.supports_approx


class TestServingIntegration:
    def test_traced_cycle_source_levels(self, tiny_qmodel, tiny_unpacked, tiny_significance,
                                        tiny_pipeline_result):
        from repro.serving import Deployment

        analytic = Deployment.from_dse(
            tiny_qmodel, tiny_pipeline_result.dse, tiny_significance, tiny_unpacked
        )
        traced = Deployment.from_dse(
            tiny_qmodel, tiny_pipeline_result.dse, tiny_significance, tiny_unpacked,
            cycle_source="traced",
        )
        assert all(level.cycles_per_sample > 0 for level in traced.levels)
        # Escalation still sheds cycles under the traced costing.
        cycles = [level.cycles_per_sample for level in traced.levels]
        assert cycles == sorted(cycles, reverse=True)
        # Traced and analytic agree within the calibration band.
        ratio = traced.levels[0].cycles_per_sample / analytic.levels[0].cycles_per_sample
        assert 0.5 < ratio < 2.0

    def test_invalid_cycle_source_rejected(self, tiny_qmodel, tiny_unpacked, tiny_significance,
                                           tiny_pipeline_result):
        from repro.serving import Deployment

        with pytest.raises(ValueError):
            Deployment.from_dse(
                tiny_qmodel, tiny_pipeline_result.dse, tiny_significance, tiny_unpacked,
                cycle_source="measured",
            )


class TestCLI:
    def test_verify_codegen_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["verify-codegen", "--qmodel", "q"])
        assert args.func.__name__ == "cmd_verify_codegen"
        assert args.taus == "0.0,0.01,0.05"
        assert args.modes == "interp,turbo"

    def test_deploy_accepts_vm_engine(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["deploy", "--qmodel", "q", "--engine", "vm"])
        assert args.engine == "vm"

    def test_serve_cycle_source_choice(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--qmodel", "q", "--cycle-source", "traced"])
        assert args.cycle_source == "traced"
