"""The ISA virtual machine: execute lowered IR programs on real int8 tensors.

Two execution modes share the same semantics:

* ``"interp"`` -- instruction-granular interpretation: every IR instruction
  executes in program order, vectorised over the batch's spatial positions
  (the honest rendering of the straight-line code: the accumulator state
  between any two instructions is observable).
* ``"turbo"``  -- every channel's SMLAD/MLA run fused into one matrix
  product: the program's :class:`~repro.kernels.gemm.GemmPlan`, built at
  lowering from the instruction stream's weights and ``init_acc``, runs on
  the kernels' own executor, so turbo checks lowering, not a second GEMM.

The interpreter accumulates in int64 (the generated code's int32
accumulators never overflow int64) and requantizes exactly as the
simulation kernels do (``rint(acc * multiplier) + zero_point`` in float64,
clamp, cast), so VM outputs in both modes are bit-identical to the
:class:`~repro.quant.qmodel.QuantizedModel` kernel path under the same masks
-- the property the differential harness in :mod:`repro.vm.verify` asserts.

Pooling, standalone ReLU and flatten lower to library-op programs
(:class:`~repro.vm.ir.OpProgram`) with the same two modes, so whole
LeNet-class graphs execute as IR end to end; any layer left without a
program (a partial lowering, or an op kind the lowerer does not know)
executes through the library kernels -- the hybrid fallback.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.isa.trace import FLASH_WAIT_PER_WORD, InstructionTrace
from repro.kernels.gemm import execute_gemm
from repro.kernels.im2col import im2col_s8
from repro.nn.functional import conv_output_shape
from repro.quant.qmodel import QuantizedModel
from repro.quant.schemes import dequantize
from repro.vm.ir import LayerProgram, ModelProgram, Opcode, OpKind, OpProgram, Program
from repro.vm.lower import lower_model

#: Supported execution modes.
EXECUTION_MODES = ("interp", "turbo")


class VMError(RuntimeError):
    """Raised when an IR program cannot be executed."""


@dataclass
class LayerExecution:
    """Trace record of one layer program's execution over a batch."""

    name: str
    spatial_positions: int
    instructions_executed: int
    trace: InstructionTrace
    op_class: str = "conv"

    @property
    def cycles(self) -> float:
        """Traced cycles of the execution (per-opcode table + flash waits)."""
        return self.trace.total_cycles()

    @property
    def cycles_per_position(self) -> float:
        """Traced cycles of one body execution."""
        return self.trace.cycles_per_position()


@dataclass
class ExecutionTrace:
    """Per-layer instruction/cycle trace of one VM run.

    ``spatial_positions`` aggregates over the whole batch; divide by the
    batch size for per-sample figures (or run a single-sample probe).
    """

    model_name: str
    batch_size: int
    layers: Dict[str, LayerExecution] = field(default_factory=dict)

    def record(self, execution: LayerExecution) -> None:
        """Add (or merge) one layer's execution record."""
        previous = self.layers.get(execution.name)
        if previous is not None:
            merged = InstructionTrace(
                name=execution.name,
                opcode_counts=previous.trace.opcode_counts,
                spatial_positions=previous.trace.spatial_positions
                + execution.trace.spatial_positions,
                code_bytes=previous.trace.code_bytes,
            )
            self.layers[execution.name] = LayerExecution(
                name=execution.name,
                spatial_positions=previous.spatial_positions + execution.spatial_positions,
                instructions_executed=previous.instructions_executed
                + execution.instructions_executed,
                trace=merged,
                op_class=previous.op_class,
            )
        else:
            self.layers[execution.name] = execution

    @property
    def total_cycles(self) -> float:
        """Traced cycles summed over every lowered layer (whole batch)."""
        return float(sum(layer.cycles for layer in self.layers.values()))

    @property
    def total_instructions(self) -> int:
        """Instructions executed across the batch."""
        return int(sum(layer.instructions_executed for layer in self.layers.values()))

    def cycles_per_sample(self) -> float:
        """Traced cycles of the lowered layers per sample."""
        return self.total_cycles / max(self.batch_size, 1)

    def cycles_by_op_class(self) -> Dict[str, float]:
        """Traced cycles aggregated per op class (conv/dense/pooling/...)."""
        cycles: Dict[str, float] = {}
        for layer in self.layers.values():
            cycles[layer.op_class] = cycles.get(layer.op_class, 0.0) + layer.cycles
        return cycles

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable view."""
        return {
            "model_name": self.model_name,
            "batch_size": self.batch_size,
            "total_cycles": self.total_cycles,
            "total_instructions": self.total_instructions,
            "cycles_by_op_class": self.cycles_by_op_class(),
            "layers": {
                name: {
                    "spatial_positions": layer.spatial_positions,
                    "instructions_executed": layer.instructions_executed,
                    "cycles": layer.cycles,
                    "op_class": layer.op_class,
                }
                for name, layer in self.layers.items()
            },
        }


def _gather_patches(
    program: LayerProgram, x: np.ndarray
) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
    """Flattened int64 operand matrix ``(positions, K)`` plus output geometry."""
    if program.is_conv:
        if x.ndim != 4:
            raise VMError(f"{program.name}: conv program expects NHWC input, got shape {x.shape}")
        n, in_h, in_w, in_c = x.shape
        if in_c != program.in_channels:
            raise VMError(
                f"{program.name}: expected {program.in_channels} input channels, got {in_c}"
            )
        out_h, out_w = conv_output_shape(
            in_h, in_w, program.kernel_size, program.stride, program.padding
        )
        cols = im2col_s8(
            x,
            program.kernel_size,
            program.stride,
            program.padding,
            program.input_zero_point,
            dtype=np.int64,
        )
        positions = n * out_h * out_w
        return cols.reshape(positions, program.operands_per_channel), positions, (
            n,
            out_h,
            out_w,
            program.out_channels,
        )
    if x.ndim != 2:
        raise VMError(f"{program.name}: dense program expects 2-D input, got shape {x.shape}")
    if x.shape[1] != program.operands_per_channel:
        raise VMError(
            f"{program.name}: expected {program.operands_per_channel} features, got {x.shape[1]}"
        )
    return x.astype(np.int64), int(x.shape[0]), (int(x.shape[0]), program.out_channels)


def execute_layer_interp(program: LayerProgram, x: np.ndarray) -> np.ndarray:
    """Instruction-granular execution of one layer program."""
    patches, positions, out_shape = _gather_patches(program, x)
    out_flat = np.empty((positions, program.out_channels), dtype=np.int8)
    acc = np.zeros(positions, dtype=np.int64)
    pending: Optional[np.ndarray] = None  # requantized float accumulator
    for instruction in program.instructions:
        op = instruction.op
        if op is Opcode.INIT:
            acc[:] = program.init_acc[instruction.channel]
        elif op is Opcode.SMLAD:
            acc += instruction.w_hi * patches[:, instruction.a]
            acc += instruction.w_lo * patches[:, instruction.b]
        elif op is Opcode.MLA:
            acc += instruction.w_hi * patches[:, instruction.a]
        elif op is Opcode.REQUANT:
            pending = acc.astype(np.float64)
            pending *= program.multipliers[instruction.channel]
            np.rint(pending, out=pending)
            pending += float(program.output_zero_point)
        elif op is Opcode.CLAMP:
            if pending is None:
                raise VMError(f"{program.name}: CLAMP before REQUANT")
            np.clip(pending, program.activation_min, program.activation_max, out=pending)
        elif op is Opcode.STORE:
            if pending is None:
                raise VMError(f"{program.name}: STORE before REQUANT")
            out_flat[:, instruction.channel] = pending.astype(np.int8)
            pending = None
        else:  # pragma: no cover - exhaustive over the enum
            raise VMError(f"{program.name}: unknown opcode {op!r}")
    return out_flat.reshape(out_shape)


def execute_layer_turbo(program: LayerProgram, x: np.ndarray) -> np.ndarray:
    """Fused execution: the program's prepared GEMM plan through the shared executor.

    The plan's weight matrix is the one reconstructed *from the instruction
    stream* at lowering time (skipped operands zero), so the result is
    bit-identical to the instruction-granular interpreter (and to the
    simulation kernels) exactly when lowering is.
    """
    return execute_gemm(program.gemm, x)


def _gather_op_patches(
    program: OpProgram, x: np.ndarray
) -> Tuple[np.ndarray, int, Tuple[int, ...]]:
    """Flattened operand matrix per body execution plus output geometry.

    Pooling kinds gather the spatial window in im2col order (window index
    major, channel minor -- patch index ``w * C + c``); ReLU presents the
    channels of each spatial position.
    """
    if program.kind in (OpKind.MAX_POOL, OpKind.AVG_POOL):
        if x.ndim != 4:
            raise VMError(f"{program.name}: pooling program expects NHWC input, got {x.shape}")
        n, in_h, in_w, c = x.shape
        if c != program.channels:
            raise VMError(f"{program.name}: expected {program.channels} channels, got {c}")
        out_h, out_w = conv_output_shape(
            in_h, in_w, program.kernel_size, program.stride, (0, 0)
        )
        cols = im2col_s8(
            x, program.kernel_size, program.stride, (0, 0), program.zero_point, dtype=np.int64
        )
        positions = n * out_h * out_w
        return cols.reshape(positions, program.window * c), positions, (n, out_h, out_w, c)
    if program.kind is OpKind.RELU:
        if x.ndim == 4:
            n, h, w, c = x.shape
            if c != program.channels:
                raise VMError(f"{program.name}: expected {program.channels} channels, got {c}")
            return (
                x.reshape(n * h * w, c).astype(np.int64),
                n * h * w,
                (n, h, w, c),
            )
        if x.ndim == 2:
            if x.shape[1] != program.channels:
                raise VMError(
                    f"{program.name}: expected {program.channels} features, got {x.shape[1]}"
                )
            return x.astype(np.int64), int(x.shape[0]), (int(x.shape[0]), program.channels)
        raise VMError(f"{program.name}: relu program expects NHWC or 2-D input, got {x.shape}")
    raise VMError(f"{program.name}: no operand gather for op kind {program.kind!r}")


def execute_op_interp(program: OpProgram, x: np.ndarray) -> np.ndarray:
    """Instruction-granular execution of one library-op program."""
    if program.kind is OpKind.FLATTEN:
        return x.reshape(x.shape[0], -1)
    patches, positions, out_shape = _gather_op_patches(program, x)
    out_flat = np.empty((positions, program.channels), dtype=np.int8)
    acc = np.zeros(positions, dtype=np.int64)
    pending: Optional[np.ndarray] = None  # scaled float accumulator (avg pool)
    for instruction in program.instructions:
        op = instruction.op
        if op is Opcode.MOVI:
            acc[:] = 0
        elif op is Opcode.PLOAD:
            acc[:] = patches[:, instruction.a]
        elif op is Opcode.PMAX:
            np.maximum(acc, patches[:, instruction.a], out=acc)
        elif op is Opcode.PACC:
            acc += patches[:, instruction.a]
        elif op is Opcode.PSCALE:
            pending = np.rint(acc / float(program.window))
        elif op is Opcode.CLAMP:
            if pending is None:
                raise VMError(f"{program.name}: CLAMP before PSCALE")
            np.clip(pending, -128, 127, out=pending)
        elif op is Opcode.RELU:
            acc[:] = np.maximum(patches[:, instruction.a], program.zero_point)
        elif op is Opcode.STORE:
            values = acc if pending is None else pending
            out_flat[:, instruction.channel] = values.astype(np.int8)
            pending = None
        else:
            raise VMError(f"{program.name}: unexpected opcode {op!r} in op program")
    return out_flat.reshape(out_shape)


def execute_op_turbo(program: OpProgram, x: np.ndarray) -> np.ndarray:
    """Fused execution of one library-op program (vectorised over channels).

    The pooling math is intentionally NOT delegated to
    :mod:`repro.kernels.pooling_s8`: the VM is the *other side* of the
    differential verification against those kernels, so it must compute from
    the program's own fields (a delegated implementation would compare the
    kernels with themselves and verify nothing).  The rounding sequence here
    must therefore mirror the kernels op for op -- rint of the int64 window
    sum over ``window``, clip, int8 cast.
    """
    if program.kind is OpKind.FLATTEN:
        return x.reshape(x.shape[0], -1)
    if program.kind is OpKind.RELU:
        if x.ndim not in (2, 4):
            raise VMError(f"{program.name}: relu program expects NHWC or 2-D input, got {x.shape}")
        return np.maximum(x, np.int8(program.zero_point))
    patches, positions, out_shape = _gather_op_patches(program, x)
    windows = patches.reshape(positions, program.window, program.channels)
    if program.kind is OpKind.MAX_POOL:
        out_flat = windows.max(axis=1).astype(np.int8)
    else:  # AVG_POOL
        summed = windows.sum(axis=1, dtype=np.int64)
        out_flat = np.clip(np.rint(summed / float(program.window)), -128, 127).astype(np.int8)
    return out_flat.reshape(out_shape)


def _dispatch_interp(program: Program, x: np.ndarray) -> np.ndarray:
    if isinstance(program, OpProgram):
        return execute_op_interp(program, x)
    return execute_layer_interp(program, x)


def _dispatch_turbo(program: Program, x: np.ndarray) -> np.ndarray:
    if isinstance(program, OpProgram):
        return execute_op_turbo(program, x)
    return execute_layer_turbo(program, x)


_EXECUTORS = {"interp": _dispatch_interp, "turbo": _dispatch_turbo}


class VirtualMachine:
    """Execute a quantized model with its unpacked layers run as IR programs.

    Parameters
    ----------
    qmodel:
        The quantized model (supplies the library kernels for non-lowered
        layers and the input quantization).
    program:
        The lowered :class:`ModelProgram`; built from ``masks`` (exact when
        ``None``) if omitted.
    masks:
        Retention masks used both to lower the program (when ``program`` is
        omitted) and to keep non-lowered MAC layers consistent with the
        kernel reference path.
    mode:
        ``"turbo"`` (default) or ``"interp"``.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        program: Optional[ModelProgram] = None,
        masks: Optional[Dict[str, np.ndarray]] = None,
        mode: str = "turbo",
    ):
        if mode not in _EXECUTORS:
            raise ValueError(f"unknown VM mode {mode!r}; expected one of {EXECUTION_MODES}")
        self.qmodel = qmodel
        self.masks = dict(masks) if masks else None
        self.program = program if program is not None else lower_model(qmodel, masks=masks)
        self.mode = mode
        self._execute = _EXECUTORS[mode]

    # ------------------------------------------------------------------ execution
    def forward_quantized(
        self, q_input: np.ndarray, trace: Optional[ExecutionTrace] = None, profiler=None
    ) -> np.ndarray:
        """Run the int8 network; lowered layers execute as IR programs.

        ``trace`` collects instruction counts (the cycle model's input);
        ``profiler`` (a sampled :class:`~repro.obs.profiling.Profiler`)
        collects wall-clock per-layer sections -- ``vm:NAME`` for lowered
        programs, ``kernel:NAME`` for library fallbacks.
        """
        timed = profiler is not None and getattr(profiler, "active", False)
        x = q_input
        for layer in self.qmodel.layers:
            program = self.program.programs.get(layer.name)
            section = f"kernel:{layer.name}" if program is None else f"vm:{layer.name}"
            with profiler.timer(section) if timed else nullcontext():
                if program is None:
                    mask = self.masks.get(layer.name) if self.masks else None
                    out = layer.forward(x, weight_mask=mask)
                else:
                    out = self._execute(program, x)
            if program is not None and trace is not None:
                positions = program.spatial_positions(x.shape[1:]) * int(x.shape[0])
                trace.record(
                    LayerExecution(
                        name=program.name,
                        spatial_positions=positions,
                        instructions_executed=program.instructions_per_position * positions,
                        trace=program.instruction_trace(positions),
                        op_class=program.op_class,
                    )
                )
            x = out
        return x

    def forward(
        self, x: np.ndarray, trace: Optional[ExecutionTrace] = None, profiler=None
    ) -> np.ndarray:
        """Quantize float inputs, execute, return dequantized logits."""
        q_out = self.forward_quantized(
            self.qmodel.quantize_input(x), trace=trace, profiler=profiler
        )
        return dequantize(q_out, self.qmodel.layers[-1].output_params)

    def predict_classes(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Predicted class indices for float inputs."""
        n = int(x.shape[0])
        predictions = np.empty((n,), dtype=np.int64)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            logits = self.forward(x[start:stop])
            predictions[start:stop] = logits.argmax(axis=-1)
        return predictions

    # ------------------------------------------------------------------ tracing
    def trace(self, x: Optional[np.ndarray] = None) -> ExecutionTrace:
        """Execute (a probe by default) and return the instruction trace.

        ``x`` defaults to a single zero sample: instruction counts depend
        only on shapes, so any input of the right shape traces identically.
        """
        if x is None:
            x = np.zeros((1, *self.qmodel.input_shape), dtype=np.float32)
        trace = ExecutionTrace(model_name=self.qmodel.name, batch_size=int(x.shape[0]))
        self.forward_quantized(self.qmodel.quantize_input(np.asarray(x, dtype=np.float32)), trace)
        return trace


def traced_layer_cycles(
    qmodel: QuantizedModel,
    program: ModelProgram,
    flash_wait_per_word: float = FLASH_WAIT_PER_WORD,
) -> Dict[str, float]:
    """Per-sample traced cycles of every lowered layer, from static geometry.

    No execution happens: the body's opcode counts and the per-sample
    spatial-position count fully determine the trace, so this is cheap
    enough for serving's per-level cost annotation.
    """
    input_shapes = qmodel.layer_input_shapes()
    cycles: Dict[str, float] = {}
    for layer_program in program:
        positions = layer_program.spatial_positions(input_shapes[layer_program.name])
        cycles[layer_program.name] = layer_program.instruction_trace(positions).total_cycles(
            flash_wait_per_word
        )
    return cycles
