"""Lowering: structured codegen plans -> executable IR programs.

The C emitter and this lowerer consume the *same*
:class:`~repro.core.codegen.LayerPlan` (built by
:func:`~repro.core.codegen.plan_layer`), so the instruction stream the VM
executes is the instruction stream the generated text describes: one SMLAD
per retained operand pair with the packed weights hard-wired, one MLA for an
odd tail, and an INIT/REQUANT/CLAMP/STORE epilogue per output channel.

The only lowering-time transformation beyond the plan is constant folding:
the input-offset correction ``-zp_in * sum(retained weights)`` is folded into
each channel's accumulator initialisation (``init_acc``), exactly as a
compiler folds it into the generated code's bias table -- the emitted
``acc = bias[c]`` reads that corrected constant.  The same folded constants
and the weight matrix reconstructed from the instruction stream become the
program's :class:`~repro.kernels.gemm.GemmPlan`, built once here for the
turbo execution mode.

Beyond the MAC layers, :func:`lower_op_layer` lowers the library-style ops
(max/avg pooling, standalone ReLU, flatten) to :class:`~repro.vm.ir.OpProgram`
bodies mirroring the CMSIS-NN loops, so :func:`lower_model` covers entire
LeNet-class graphs and whole-model traces need no analytic fallback;
:func:`remask_program` swaps only the masked conv programs of an existing
lowering -- the per-Pareto-level rebuild the serving deployment uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codegen import LayerPlan, plan_layer
from repro.core.unpacking import UnpackedLayer, unpack_layer, unpack_model
from repro.kernels.gemm import prepare_gemm
from repro.quant.qlayers import (
    QAvgPool2D,
    QConv2D,
    QDense,
    QFlatten,
    QMaxPool2D,
    QReLU,
)
from repro.quant.qmodel import QuantizedModel
from repro.vm.ir import (
    Instruction,
    LayerProgram,
    ModelProgram,
    Opcode,
    OpKind,
    OpProgram,
    Program,
)


def _lower_plan(plan: LayerPlan, qlayer: QConv2D | QDense) -> LayerProgram:
    """Turn one layer plan plus its quantized layer's metadata into a program."""
    instructions: List[Instruction] = []
    # The (masked) weight matrix reconstructed from the instruction stream:
    # skipped operands stay zero, as they contribute nothing in the
    # straight-line code.
    weights = np.zeros((plan.out_channels, plan.operands_per_channel), dtype=np.int64)
    for ch in plan.channels:
        c = ch.channel
        instructions.append(Instruction(op=Opcode.INIT, channel=c))
        idx: List[int] = []
        wts: List[int] = []
        for i, j, w_hi, w_lo in ch.pairs:
            instructions.append(
                Instruction(op=Opcode.SMLAD, channel=c, a=i, b=j, w_hi=w_hi, w_lo=w_lo)
            )
            idx.extend((i, j))
            wts.extend((w_hi, w_lo))
        if ch.odd is not None:
            i, w = ch.odd
            instructions.append(Instruction(op=Opcode.MLA, channel=c, a=i, w_hi=w))
            idx.append(i)
            wts.append(w)
        instructions.append(Instruction(op=Opcode.REQUANT, channel=c))
        instructions.append(Instruction(op=Opcode.CLAMP, channel=c))
        instructions.append(Instruction(op=Opcode.STORE, channel=c))
        weights[c, idx] = wts

    is_conv = isinstance(qlayer, QConv2D)
    if is_conv:
        kernel_size, stride, padding = qlayer.kernel_size, qlayer.stride, qlayer.padding
        in_channels = qlayer.in_channels
    else:
        kernel_size, stride, padding = (1, 1), (1, 1), (0, 0)
        in_channels = qlayer.in_features

    # Fold the input-offset correction into the per-channel init constant:
    # init_acc[c] = bias[c] - zp_in * sum of the channel's retained weights.
    zp_in = int(qlayer.input_params.scalar_zero_point())
    init_acc = -zp_in * weights.sum(axis=1)
    if qlayer.bias is not None:
        init_acc = init_acc + np.asarray(qlayer.bias, dtype=np.int64)
    multipliers = np.broadcast_to(
        np.asarray(qlayer.output_multipliers, dtype=np.float64), (plan.out_channels,)
    ).copy()
    output_zero_point = int(qlayer.output_params.scalar_zero_point())
    activation_min, activation_max = int(qlayer.activation_min), int(qlayer.activation_max)

    return LayerProgram(
        name=plan.name,
        instructions=tuple(instructions),
        is_conv=is_conv,
        kernel_size=kernel_size,
        stride=stride,
        padding=padding,
        in_channels=in_channels,
        out_channels=plan.out_channels,
        operands_per_channel=plan.operands_per_channel,
        input_zero_point=zp_in,
        output_zero_point=output_zero_point,
        init_acc=init_acc,
        multipliers=multipliers,
        activation_min=activation_min,
        activation_max=activation_max,
        # Turbo's plan, prepared once from the reconstructed weights.
        gemm=prepare_gemm(
            weights, init_acc, multipliers, output_zero_point, activation_min, activation_max,
            kernel_size=kernel_size if is_conv else None, stride=stride, padding=padding,
            input_zero_point=zp_in,
        ),
        retained_operands=plan.retained,
    )


def lower_layer(
    qlayer: QConv2D | QDense,
    unpacked: UnpackedLayer,
    mask: Optional[np.ndarray] = None,
) -> LayerProgram:
    """Lower one unpacked layer (under an optional retention mask) to IR."""
    if not isinstance(qlayer, (QConv2D, QDense)):
        raise TypeError(f"cannot lower layer of type {type(qlayer).__name__}")
    plan = plan_layer(unpacked, mask)
    return _lower_plan(plan, qlayer)


def lower_op_layer(
    qlayer: QMaxPool2D | QAvgPool2D | QReLU | QFlatten,
    input_shape: Tuple[int, ...],
) -> OpProgram:
    """Lower one library-style op (pooling/ReLU/flatten) to an :class:`OpProgram`.

    ``input_shape`` is the per-sample input shape of the layer (the op's
    channel count comes from it, not from any weights).  The emitted body
    mirrors the CMSIS-NN loops: per output channel, max pooling loads the
    first window element then compare/selects the rest, average pooling
    accumulates the window and scales by the reciprocal, ReLU compare/selects
    against the zero point, and flatten emits no instructions at all (a
    contiguous NHWC buffer needs no code to reinterpret).
    """
    instructions: List[Instruction] = []
    if isinstance(qlayer, QMaxPool2D):
        kind = OpKind.MAX_POOL
        kernel, stride = qlayer.kernel, qlayer.stride
        channels = int(input_shape[-1])
        window = kernel[0] * kernel[1]
        for c in range(channels):
            instructions.append(Instruction(op=Opcode.PLOAD, channel=c, a=c))
            for w in range(1, window):
                instructions.append(Instruction(op=Opcode.PMAX, channel=c, a=w * channels + c))
            instructions.append(Instruction(op=Opcode.STORE, channel=c))
        zero_point = int(qlayer.input_params.scalar_zero_point())
    elif isinstance(qlayer, QAvgPool2D):
        kind = OpKind.AVG_POOL
        kernel, stride = qlayer.kernel, qlayer.stride
        channels = int(input_shape[-1])
        window = kernel[0] * kernel[1]
        for c in range(channels):
            instructions.append(Instruction(op=Opcode.MOVI, channel=c))
            for w in range(window):
                instructions.append(Instruction(op=Opcode.PACC, channel=c, a=w * channels + c))
            instructions.append(Instruction(op=Opcode.PSCALE, channel=c))
            instructions.append(Instruction(op=Opcode.CLAMP, channel=c))
            instructions.append(Instruction(op=Opcode.STORE, channel=c))
        zero_point = int(qlayer.input_params.scalar_zero_point())
    elif isinstance(qlayer, QReLU):
        kind = OpKind.RELU
        kernel, stride = (1, 1), (1, 1)
        channels = int(input_shape[-1])
        zero_point = int(qlayer.input_params.scalar_zero_point())
        for c in range(channels):
            instructions.append(Instruction(op=Opcode.RELU, channel=c, a=c))
            instructions.append(Instruction(op=Opcode.STORE, channel=c))
    elif isinstance(qlayer, QFlatten):
        kind = OpKind.FLATTEN
        kernel, stride = (1, 1), (1, 1)
        channels = int(np.prod(input_shape))
        zero_point = int(qlayer.input_params.scalar_zero_point())
    else:
        raise TypeError(f"cannot lower op layer of type {type(qlayer).__name__}")
    return OpProgram(
        name=qlayer.name,
        kind=kind,
        instructions=tuple(instructions),
        kernel_size=tuple(kernel),
        stride=tuple(stride),
        channels=channels,
        zero_point=zero_point,
    )


#: Op layer types :func:`lower_op_layer` knows how to lower.
LOWERABLE_OP_TYPES = (QMaxPool2D, QAvgPool2D, QReLU, QFlatten)


def lower_model(
    qmodel: QuantizedModel,
    unpacked: Optional[Dict[str, UnpackedLayer]] = None,
    masks: Optional[Dict[str, np.ndarray]] = None,
    layers: Optional[Sequence[str]] = None,
) -> ModelProgram:
    """Lower a quantized model's graph into a :class:`ModelProgram`.

    Every layer the lowerer understands becomes an executable program:
    conv/dense layers lower through the shared codegen plan (the dense
    classifier is unpacked on the fly when the experiment's ``unpacked``
    artifact excludes it), and pooling/ReLU/flatten lower to library-op
    programs -- on the paper's models the resulting program covers the whole
    graph, so VM traces need no analytic fallback.

    Parameters
    ----------
    qmodel:
        The quantized model.
    unpacked:
        Unpacked layer representations (recomputed from the model when
        omitted; pass the experiment's artifact to avoid the rework).
    masks:
        Optional retention masks (layer name -> boolean matrix) describing
        the approximate design to lower; absent layers are lowered exact.
    layers:
        Optional subset of layer names to lower (every understood layer when
        omitted); the rest fall back to the library kernels -- the knob the
        partial-coverage/hybrid tests and callers use.
    """
    if unpacked is None:
        unpacked = unpack_model(qmodel)
    only = None if layers is None else set(layers)
    input_shapes = qmodel.layer_input_shapes()
    programs: Dict[str, Program] = {}
    for layer in qmodel.layers:
        if only is not None and layer.name not in only:
            continue
        if isinstance(layer, (QConv2D, QDense)):
            source = unpacked.get(layer.name)
            if source is None:
                source = unpack_layer(layer)
            mask = masks.get(layer.name) if masks else None
            programs[layer.name] = lower_layer(layer, source, mask)
        elif isinstance(layer, LOWERABLE_OP_TYPES):
            programs[layer.name] = lower_op_layer(layer, input_shapes[layer.name])
        # Unknown layer types stay on the library kernels (hybrid fallback).
    return ModelProgram(
        model_name=qmodel.name,
        input_shape=tuple(qmodel.input_shape),
        programs=programs,
        model_layers=tuple(layer.name for layer in qmodel.layers),
    )


def remask_program(
    base: ModelProgram,
    qmodel: QuantizedModel,
    unpacked: Dict[str, UnpackedLayer],
    masks: Optional[Dict[str, np.ndarray]],
) -> ModelProgram:
    """Re-lower only the masked layers of ``base``; share everything else.

    Masks touch the MAC layers only, so a deployment costing many Pareto
    levels lowers the model once and swaps the masked conv programs per
    level instead of rebuilding dense/op programs ``levels`` times (the
    O(levels x model) build this replaces).
    """
    if not masks:
        return base
    programs: Dict[str, Program] = dict(base.programs)
    for name, mask in masks.items():
        qlayer = qmodel.get_layer(name)
        source = unpacked.get(name)
        if source is None:
            source = unpack_layer(qlayer)
        programs[name] = lower_layer(qlayer, source, mask)
    return ModelProgram(
        model_name=base.model_name,
        input_shape=base.input_shape,
        programs=programs,
        model_layers=base.model_layers,
    )
