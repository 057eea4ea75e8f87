"""CMSIS-NN-style software kernels operating on int8 tensors.

Each kernel mirrors the structure of its ARM CMSIS-NN counterpart
(``arm_convolve_s8``, ``arm_fully_connected_s8``, ``arm_max_pool_s8``...) in
NumPy: int8 operands, int32 accumulation, per-channel requantization and
saturation.  Kernels also report *operation counts* through
:class:`repro.kernels.cycle_counters.KernelStats`, which the instruction cost
model in :mod:`repro.isa` converts into cycle estimates for a given execution
style (packed CMSIS code vs the paper's unpacked fixed-weight code).
Every conv and dense forward runs a prepared :class:`GemmPlan` through
:func:`execute_gemm` (:mod:`repro.kernels.gemm`).
"""

from repro.kernels.cycle_counters import CycleCounter, KernelStats
from repro.kernels.smlad import (
    pack_weight_pair,
    unpack_weight_pair,
    smlad,
    pack_weight_vector,
)
from repro.kernels.im2col import im2col_s8
from repro.kernels.gemm import GemmPlan, execute_gemm
from repro.kernels.conv_s8 import convolve_s8
from repro.kernels.fully_connected_s8 import fully_connected_s8
from repro.kernels.pooling_s8 import avg_pool_s8, max_pool_s8
from repro.kernels.activations_s8 import relu_s8, softmax_s8

__all__ = [
    "CycleCounter",
    "KernelStats",
    "pack_weight_pair",
    "unpack_weight_pair",
    "pack_weight_vector",
    "smlad",
    "im2col_s8",
    "GemmPlan",
    "execute_gemm",
    "convolve_s8",
    "fully_connected_s8",
    "max_pool_s8",
    "avg_pool_s8",
    "relu_s8",
    "softmax_s8",
]
