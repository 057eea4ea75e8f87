"""Typed instruction IR of the unpacked kernel code.

A :class:`LayerProgram` is the executable form of one layer's generated code:
a flat sequence of :class:`Instruction` records (SMLAD/MLA accumulations plus
the INIT/REQUANT/CLAMP/STORE epilogue of every output channel) together with
the layer's geometry and quantization metadata.  The instruction stream is
lowered from the same :class:`~repro.core.codegen.LayerPlan` the C emitter
renders, so text and IR describe the identical design.

Each IR instruction expands to a fixed bundle of Thumb-2 opcodes
(:data:`OPCODE_EXPANSION`, matching :mod:`repro.isa.trace`'s modelling of the
unpacked code) -- that mapping gives every executed instruction a cycle cost
and every program a flash footprint, which is what the VM's trace recorder
feeds back to calibrate the analytic cost model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple, Union

import numpy as np

from repro.isa.trace import FLASH_WAIT_PER_WORD, OPCODE_BYTES, InstructionTrace
from repro.kernels.gemm import GemmPlan


class Opcode(str, Enum):
    """Semantic operations of the unpacked kernel IR."""

    #: ``acc = init_acc[channel]`` (bias with the input-offset correction folded in).
    INIT = "init"
    #: ``acc += w_hi * patch[a] + w_lo * patch[b]`` (dual MAC, hard-wired constants).
    SMLAD = "smlad"
    #: ``acc += w_hi * patch[a]`` (odd trailing operand).
    MLA = "mla"
    #: ``acc = rint(acc * multiplier[channel]) + output_zero_point``.
    REQUANT = "requant"
    #: ``acc = clip(acc, activation_min, activation_max)``.
    CLAMP = "clamp"
    #: ``out[channel] = (int8) acc``.
    STORE = "store"
    #: ``acc = init_acc[channel]`` materialised as an immediate (pooling init).
    MOVI = "movi"
    #: ``acc = patch[a]`` (first pooling window element: plain byte load).
    PLOAD = "pload"
    #: ``acc = max(acc, patch[a])`` (max-pool compare/select).
    PMAX = "pmax"
    #: ``acc += patch[a]`` (avg-pool accumulate).
    PACC = "pacc"
    #: ``acc = rint(acc / window)`` (avg-pool reciprocal scale + round).
    PSCALE = "pscale"
    #: ``acc = max(patch[a], zero_point)`` (standalone ReLU clamp).
    RELU = "relu"


class OpKind(str, Enum):
    """Layer classes the VM lowers to executable IR.

    ``MAC`` programs (conv/dense) are :class:`LayerProgram`; the library-style
    ops (pooling, standalone ReLU, flatten) are :class:`OpProgram`.
    """

    MAC = "mac"
    MAX_POOL = "max_pool"
    AVG_POOL = "avg_pool"
    RELU = "relu"
    FLATTEN = "flatten"


#: Thumb-2 opcode bundle each IR instruction expands to (cycle/flash costing).
#: The bundles mirror :func:`repro.isa.trace.trace_unpacked_conv`: an SMLAD
#: pair materialises its packed constant (MOVW/MOVT), loads the two packed
#: activations (LDR) and issues the dual MAC; the odd tail is a byte load plus
#: a single MLA; the per-channel epilogue is bias load, requantize high
#: multiply/shift/round+zero-point adds, saturate, byte store.
OPCODE_EXPANSION: Dict[Opcode, Tuple[str, ...]] = {
    Opcode.INIT: ("LDR",),
    Opcode.SMLAD: ("MOVW", "MOVT", "LDR", "SMLAD"),
    Opcode.MLA: ("LDRB", "MLA"),
    Opcode.REQUANT: ("SMMUL", "ASR", "ADD", "ADD"),
    Opcode.CLAMP: ("SSAT",),
    Opcode.STORE: ("STRB",),
    # Library-op bundles, mirroring the CMSIS-NN loops (arm_max_pool_s8 /
    # arm_avgpool_s8 / arm_relu_q7): byte loads, compare + IT-predicated
    # select for max/ReLU, add-accumulate plus a reciprocal multiply-shift-
    # round epilogue for the average.
    Opcode.MOVI: ("MOV",),
    Opcode.PLOAD: ("LDRB",),
    Opcode.PMAX: ("LDRB", "CMP", "IT"),
    Opcode.PACC: ("LDRB", "ADD"),
    Opcode.PSCALE: ("SMMUL", "ASR", "ADD"),
    Opcode.RELU: ("LDRB", "CMP", "IT"),
}

#: Spatial-loop bookkeeping opcodes executed once per position (pointer
#: increments, compare, branch) -- present in the generated code's loop, not
#: in any per-channel instruction.
LOOP_OVERHEAD_OPCODES: Tuple[str, ...] = ("ADD", "ADD", "CMP", "B")


@dataclass(frozen=True)
class Instruction:
    """One IR instruction with its operand metadata.

    ``a``/``b`` index the flattened receptive field (im2col operand order,
    the same order :class:`~repro.core.unpacking.UnpackedLayer` uses);
    ``w_hi``/``w_lo`` are the hard-wired int8 weights.  ``channel`` is the
    output channel the instruction accumulates into (every instruction
    belongs to exactly one channel's straight-line run).
    """

    op: Opcode
    channel: int
    a: int = -1
    b: int = -1
    w_hi: int = 0
    w_lo: int = 0

    def expanded_opcodes(self) -> Tuple[str, ...]:
        """Thumb-2 opcodes this instruction stands for."""
        return OPCODE_EXPANSION[self.op]


class ProgramAccounting:
    """Shared cycle/flash accounting of an executable IR body.

    Subclasses provide ``name``, ``instructions`` (the straight-line body
    executed once per spatial position) and :meth:`spatial_positions`.
    """

    name: str
    instructions: Tuple[Instruction, ...]

    @property
    def instructions_per_position(self) -> int:
        """IR instructions executed per spatial position."""
        return len(self.instructions)

    def opcode_counts(self, include_loop_overhead: bool = True) -> Counter:
        """Thumb-2 opcode counts of one execution of the body.

        A body with no instructions (flatten: a pure buffer reinterpretation)
        has no loop either, so it carries no loop-overhead opcodes.
        """
        counts: Counter = Counter()
        for instruction in self.instructions:
            counts.update(instruction.expanded_opcodes())
        if include_loop_overhead and self.instructions:
            counts.update(LOOP_OVERHEAD_OPCODES)
        return counts

    def code_bytes(self) -> int:
        """Flash footprint of the lowered body (stored once, executed per position)."""
        return int(
            sum(OPCODE_BYTES[op] * count for op, count in self.opcode_counts().items())
        )

    def instruction_trace(self, spatial_positions: int) -> InstructionTrace:
        """An :class:`~repro.isa.trace.InstructionTrace` of this program.

        ``spatial_positions`` is how many times the body runs per batch; the
        trace carries the per-opcode cycle costing and flash-wait model of
        :mod:`repro.isa.trace`.
        """
        return InstructionTrace(
            name=self.name,
            opcode_counts=self.opcode_counts(),
            spatial_positions=int(spatial_positions),
            code_bytes=self.code_bytes(),
        )

    def spatial_positions(self, input_shape: Tuple[int, ...]) -> int:
        """Body executions per sample for a per-sample ``input_shape``."""
        raise NotImplementedError

    def cycles_per_sample(
        self, input_shape: Tuple[int, ...], flash_wait_per_word: float = FLASH_WAIT_PER_WORD
    ) -> float:
        """Traced cycles of one sample through this layer."""
        trace = self.instruction_trace(self.spatial_positions(input_shape))
        return trace.total_cycles(flash_wait_per_word)


@dataclass
class LayerProgram(ProgramAccounting):
    """The executable IR program of one unpacked layer.

    Attributes
    ----------
    name:
        Layer name (matches the quantized layer's name).
    instructions:
        The straight-line body executed once per spatial position.
    is_conv:
        Whether the source layer is a convolution (dense layers run the body
        once per sample).
    kernel_size, stride, padding, in_channels:
        Convolution geometry (ignored for dense layers).
    out_channels, operands_per_channel:
        Accumulation shape; ``operands_per_channel`` is K, the patch length.
    input_zero_point, output_zero_point:
        Activation zero points.
    init_acc:
        Per-channel accumulator initialisation: ``bias[c] - zp_in * sum_i
        w_{c,i}`` over the *retained* operands -- the input-offset correction
        is folded into the hard-wired constant exactly as a compiler folds it
        into the generated code's bias table.
    multipliers:
        Per-channel real requantization multipliers.
    activation_min, activation_max:
        Output clamp range.
    gemm:
        Turbo mode's prepared GEMM plan of the weight matrix reconstructed
        from the instruction stream (skipped operands zero) and ``init_acc``.
    retained_operands:
        Total retained MACs (for reporting).
    """

    name: str
    instructions: Tuple[Instruction, ...]
    is_conv: bool
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    padding: Tuple[int, int]
    in_channels: int
    out_channels: int
    operands_per_channel: int
    input_zero_point: int
    output_zero_point: int
    init_acc: np.ndarray
    multipliers: np.ndarray
    activation_min: int
    activation_max: int
    gemm: GemmPlan
    retained_operands: int = 0

    # ------------------------------------------------------------------ accounting
    @property
    def kind(self) -> OpKind:
        """MAC programs render conv and dense layers alike."""
        return OpKind.MAC

    @property
    def op_class(self) -> str:
        """Calibration op-class label (``"conv"``/``"dense"``)."""
        return "conv" if self.is_conv else "dense"

    def spatial_positions(self, input_shape: Tuple[int, ...]) -> int:
        """Body executions per sample for a per-sample ``input_shape``."""
        if not self.is_conv:
            return 1
        from repro.nn.functional import conv_output_shape

        in_h, in_w = int(input_shape[0]), int(input_shape[1])
        out_h, out_w = conv_output_shape(in_h, in_w, self.kernel_size, self.stride, self.padding)
        return out_h * out_w


@dataclass
class OpProgram(ProgramAccounting):
    """The executable IR program of a library-style op (pooling/ReLU/flatten).

    The body executes once per output spatial position; per channel it holds
    the CMSIS-NN-shaped instruction run -- first-element load plus
    compare/select for max pooling, accumulate plus reciprocal-scale
    round/clamp for average pooling, a compare/select against the zero point
    for standalone ReLU.  Flatten lowers to an *empty* body: on contiguous
    NHWC buffers it is a pure reinterpretation with no executed code, zero
    cycles and zero flash.

    ``zero_point`` is the ReLU clamp floor (unused for the other kinds);
    ``window`` is ``kh * kw`` for pooling kinds.  The flash footprint models
    the per-channel run unrolled, consistent with :class:`LayerProgram`.
    """

    name: str
    kind: OpKind
    instructions: Tuple[Instruction, ...]
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    channels: int
    zero_point: int = 0

    @property
    def window(self) -> int:
        """Pooling window size (``kh * kw``)."""
        return int(self.kernel_size[0] * self.kernel_size[1])

    @property
    def is_conv(self) -> bool:
        """Op programs never perform MAC work."""
        return False

    @property
    def op_class(self) -> str:
        """Calibration op-class label (the op kind)."""
        return self.kind.value

    def spatial_positions(self, input_shape: Tuple[int, ...]) -> int:
        """Body executions per sample for a per-sample ``input_shape``."""
        if self.kind is OpKind.FLATTEN:
            return 1
        if self.kind is OpKind.RELU:
            # Elementwise over the feature map: one body per spatial position
            # of a NHWC input, a single run for already-flat features.
            if len(input_shape) >= 3:
                return int(input_shape[0]) * int(input_shape[1])
            return 1
        from repro.nn.functional import conv_output_shape

        in_h, in_w = int(input_shape[0]), int(input_shape[1])
        out_h, out_w = conv_output_shape(in_h, in_w, self.kernel_size, self.stride, (0, 0))
        return out_h * out_w


#: Any executable per-layer program of the VM.
Program = Union[LayerProgram, OpProgram]


@dataclass
class ModelProgram:
    """An ordered set of per-layer programs covering a model's graph.

    ``model_layers`` names *every* layer of the source model in execution
    order; layers without a program (an op kind the lowerer does not know,
    or layers excluded on request) execute through the library kernels --
    the hybrid fallback.  When every layer is lowered the VM executes the
    whole graph as IR and whole-model traces are exact.
    """

    model_name: str
    input_shape: Tuple[int, ...]
    programs: Dict[str, Program]
    model_layers: Tuple[str, ...] = ()

    def __contains__(self, name: object) -> bool:
        return name in self.programs

    def __getitem__(self, name: str) -> Program:
        return self.programs[name]

    def __iter__(self):
        return iter(self.programs.values())

    def __len__(self) -> int:
        return len(self.programs)

    # ------------------------------------------------------------------ coverage
    def unlowered_layers(self) -> Tuple[str, ...]:
        """Model layers with no executable program (library-kernel fallback)."""
        return tuple(name for name in self.model_layers if name not in self.programs)

    @property
    def is_total(self) -> bool:
        """Whether every model layer executes as IR (no analytic fallback)."""
        return bool(self.model_layers) and not self.unlowered_layers()

    @property
    def coverage(self) -> float:
        """Fraction of model layers lowered (1.0 when unknown: legacy programs)."""
        if not self.model_layers:
            return 1.0
        return 1.0 - len(self.unlowered_layers()) / len(self.model_layers)

    @property
    def total_instructions(self) -> int:
        """IR instructions per position summed over every lowered layer."""
        return sum(p.instructions_per_position for p in self.programs.values())

    def code_bytes(self) -> int:
        """Flash footprint of every lowered body."""
        return sum(p.code_bytes() for p in self.programs.values())

    def summary(self) -> str:
        """Human-readable per-layer program summary."""
        lines = [f"ModelProgram: {self.model_name}"]
        lines.append(
            f"{'layer':<22}{'kind':<10}{'instrs/pos':>12}{'retained':>10}{'code (B)':>10}"
        )
        lines.append("-" * 64)
        for program in self:
            retained = getattr(program, "retained_operands", 0)
            lines.append(
                f"{program.name:<22}{program.kind.value:<10}"
                f"{program.instructions_per_position:>12}{retained:>10}{program.code_bytes():>10}"
            )
        if self.unlowered_layers():
            lines.append(f"library fallback: {', '.join(self.unlowered_layers())}")
        return "\n".join(lines)
