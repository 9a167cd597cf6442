"""Simulated integer matmul with per-channel bit-shifted weights.

Power-of-two channel factors never touch the inner loop: they are folded
into the weight codes once, up front, as left shifts. The hot path is then
a plain integer matrix product in a 64-bit accumulator followed by one
dequantization of the output. Both stages refuse configurations whose worst
case could overflow, instead of wrapping silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, HeadroomError
from .quant import apply_output_scales
from .tensor import IntTensor, Tensor, ceil_log2, code_matmul

# Shifted weight codes must stay within a 32-bit lane so the 64-bit
# accumulator keeps headroom for the reduction.
WEIGHT_LANE_BITS = 32
ACCUMULATOR_BITS = 64


# The former local name; perfbench/spans.py imports it from here.
_ceil_log2 = ceil_log2


@dataclass(frozen=True)
class ShiftedWeights:
    """Weight codes with power-of-two channel factors already applied.

    source_bits is the width the codes were quantized to before shifting;
    max_shift the largest exponent folded in. Together they bound the
    magnitude of any entry, which is what execute() reasons about.
    """

    codes: np.ndarray
    source_bits: int
    max_shift: int

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise DomainError("shifted weight codes must be integers")
        if codes.ndim != 2:
            raise DimensionError("shifted weight codes must be 2-d [C_in x C_out]")
        object.__setattr__(self, "codes", codes.astype(np.int64))


def shift_weights(w: IntTensor, delta) -> ShiftedWeights:
    """Fold per-input-channel exponents into weight codes: row k <<= delta_k.

    Left shift on the widened representation is exact multiplication by
    2^delta for negative codes too. Requires source_bits + max(delta) <= 32
    so every shifted code still fits its lane.
    """
    if not isinstance(w, IntTensor):
        raise DomainError("shift_weights expects an IntTensor")
    if w.codes.ndim != 2:
        raise DimensionError("weight codes must be 2-d [C_in x C_out]")
    delta = np.asarray(delta)
    if not np.issubdtype(delta.dtype, np.integer):
        raise DomainError("shift exponents must be integers")
    delta = delta.astype(np.int64)
    if delta.shape != (w.codes.shape[0],):
        raise DimensionError("one shift exponent per input channel required")
    if delta.size and delta.min() < 0:
        raise DomainError("shift exponents must be non-negative")
    max_shift = int(delta.max()) if delta.size else 0
    if w.nominal_bits + max_shift > WEIGHT_LANE_BITS:
        raise HeadroomError(
            f"{w.nominal_bits}-bit codes shifted by {max_shift} exceed the "
            f"{WEIGHT_LANE_BITS}-bit weight lane"
        )
    return ShiftedWeights(w.codes << delta[:, None], w.nominal_bits, max_shift)


def execute(x: IntTensor, w: ShiftedWeights) -> IntTensor:
    """Integer matmul of activation codes against pre-shifted weights.

    The accumulator is 64-bit; the call is rejected unless
    bits_x + bits_w + max_shift + ceil(log2(C_in)) <= 63, which bounds the
    worst-case partial sum strictly below 2^63. Within 24 bits the product
    runs exactly on float32 BLAS, within 53 bits on float64 BLAS, above that
    in int64 (see tensor.code_matmul).
    """
    if not isinstance(x, IntTensor):
        raise DomainError("execute expects IntTensor activations")
    if x.codes.ndim != 2:
        raise DimensionError("activation codes must be 2-d [B x C_in]")
    c_in = x.codes.shape[1]
    if c_in != w.codes.shape[0]:
        raise DimensionError(
            f"reduction mismatch: activations have C_in={c_in}, "
            f"weights {w.codes.shape[0]}"
        )
    budget = x.nominal_bits + w.source_bits + w.max_shift + ceil_log2(c_in)
    if budget > ACCUMULATOR_BITS - 1:
        raise HeadroomError(
            f"accumulator headroom exceeded: {x.nominal_bits} + {w.source_bits} "
            f"+ {w.max_shift} + log2({c_in}) = {budget} > {ACCUMULATOR_BITS - 1}"
        )
    acc = code_matmul(x.codes, w.codes, budget).astype(np.int64, copy=False)
    return IntTensor(acc, ACCUMULATOR_BITS)


def dequantize_output(acc: IntTensor, act_scale: float, weight_scales) -> Tensor:
    """Turn a raw accumulator into real outputs: (s_x * s_w_j) * acc_ij."""
    if not isinstance(acc, IntTensor):
        raise DomainError("dequantize_output expects an IntTensor accumulator")
    weight_scales = np.asarray(weight_scales, dtype=np.float64).reshape(-1)
    if acc.codes.ndim != 2 or acc.codes.shape[1] != weight_scales.shape[0]:
        raise DimensionError("one weight scale per output column required")
    out = acc.codes.astype(np.float64)
    return apply_output_scales(out, act_scale, weight_scales, out=out)
