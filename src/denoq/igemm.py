"""Simulated integer matmul with per-channel bit-shifted weights.

Power-of-two channel factors never touch the inner loop: they are folded
into the weight codes once, up front, as left shifts. The hot path is then
a plain integer matrix product, held in the dtype of its tier
(tensor.code_dtype), followed by one dequantization of the output. Both
stages refuse configurations whose worst case could overflow, instead of
wrapping silently; headroom_problem() states the same rule for callers
that refuse a model before building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, HeadroomError
from .tensor import EXACT_FLOAT_BITS, IntTensor, Tensor, ceil_log2, code_dtype, code_matmul

# Shifted weight codes must stay within a 32-bit lane, the width of the
# widest weight codes (quant.MAX_BITS).
WEIGHT_LANE_BITS = 32


# The former local name; perfbench/spans.py imports it from here.
_ceil_log2 = ceil_log2


def accumulator_budget(bits_x: int, bits_w: int, max_shift: int, c_in: int) -> int:
    """Bits that bound every partial sum of a layer's integer product."""
    return bits_x + bits_w + max_shift + ceil_log2(c_in)


def _lane_problem(bits_w: int, max_shift: int) -> str | None:
    if bits_w + max_shift > WEIGHT_LANE_BITS:
        return (
            f"{bits_w}-bit codes shifted by {max_shift} exceed the "
            f"{WEIGHT_LANE_BITS}-bit weight lane"
        )
    return None


def headroom_problem(bits_x: int, bits_w: int, max_shift: int, c_in: int) -> str | None:
    """Why the integer kernel cannot run a layer of these widths, or None.

    bits_w + max_shift must fit the weight lane, and the accumulator budget
    bits_x + bits_w + max_shift + ceil(log2(c_in)) must stay <= 53, so
    every partial sum is an integer float64 holds exactly.
    """
    lane = _lane_problem(bits_w, max_shift)
    if lane is not None:
        return lane
    budget = accumulator_budget(bits_x, bits_w, max_shift, c_in)
    if budget > EXACT_FLOAT_BITS:
        return (
            f"accumulator headroom exceeded: {bits_x} + {bits_w} + {max_shift} "
            f"+ log2({c_in}) = {budget} > {EXACT_FLOAT_BITS}"
        )
    return None


@dataclass(frozen=True)
class ShiftedWeights:
    """Weight codes with power-of-two channel factors already applied.

    source_bits is the width the codes were quantized to before shifting;
    max_shift the largest exponent folded in. Together they bound the
    magnitude of any entry, which is what execute() reasons about.

    An int64 array is taken over as it is, not copied, as IntTensor does.
    operand() hands execute() the codes for code_matmul in the dtype of its
    tier: converted on first use and kept, so no call converts the weights
    again and a layer pays memory only for the tiers it runs in.
    """

    codes: np.ndarray
    source_bits: int
    max_shift: int
    _operands: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            raise DomainError("shifted weight codes must be integers")
        if codes.ndim != 2:
            raise DimensionError("shifted weight codes must be 2-d [C_in x C_out]")
        object.__setattr__(self, "codes", codes.astype(np.int64, copy=False))
        object.__setattr__(self, "_operands", {})

    def operand(self, budget_bits: int) -> np.ndarray:
        """The codes as code_matmul takes them at budget_bits (code_dtype)."""
        dtype = code_dtype(budget_bits)
        if dtype not in self._operands:
            self._operands[dtype] = self.codes.astype(dtype, copy=False)
        return self._operands[dtype]


def shift_weights(w: IntTensor, delta) -> ShiftedWeights:
    """Fold per-input-channel exponents into weight codes: row k <<= delta_k.

    Left shift on the widened representation is exact multiplication by
    2^delta for negative codes too. Requires source_bits + max(delta) <= 32
    so every shifted code still fits its lane. With no shift at all the
    result shares w's codes.
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
    problem = _lane_problem(w.nominal_bits, max_shift)
    if problem is not None:
        raise HeadroomError(problem)
    shifted = w.codes << delta[:, None] if max_shift else w.codes
    return ShiftedWeights(shifted, w.nominal_bits, max_shift)


def execute(x: IntTensor, w: ShiftedWeights) -> IntTensor:
    """Integer matmul of activation codes against pre-shifted weights.

    The call is rejected unless the layer passes headroom_problem(), which
    bounds the worst-case partial sum strictly below 2^53. The accumulator
    is the product of tensor.code_matmul in the dtype of the layer's tier
    (code_dtype): float32 or float64 BLAS, exact since every partial sum is
    an integer below 2^24 or 2^53; its nominal width is the budget.
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
    problem = headroom_problem(x.nominal_bits, w.source_bits, w.max_shift, c_in)
    if problem is not None:
        raise HeadroomError(problem)
    budget = accumulator_budget(x.nominal_bits, w.source_bits, w.max_shift, c_in)
    acc = code_matmul(x.codes, w.operand(budget), budget)
    return IntTensor._bounded(acc, budget, True)


def apply_output_scales(
    acc, act_scale: float, weight_scales: np.ndarray, out=None
) -> Tensor:
    """Scale a raw accumulator into real outputs: (s_x * s_w_j) * acc_ij.

    The product of the two scales is formed first, so every caller that
    scales an accumulator this way agrees bit for bit. acc may hold its
    integers in any numeric dtype: each entry is widened to float64 as it
    is multiplied, exactly, in one pass. out, when given, receives the
    result (it may be acc itself, when acc is float64).
    """
    combined = float(act_scale) * np.asarray(weight_scales, dtype=np.float64)
    return np.multiply(acc, combined[None, :], out=out)


def dequantize_output(acc: IntTensor, act_scale: float, weight_scales) -> Tensor:
    """Turn a raw accumulator into real outputs: (s_x * s_w_j) * acc_ij,
    a new float64 array made in one pass over the accumulator."""
    if not isinstance(acc, IntTensor):
        raise DomainError("dequantize_output expects an IntTensor accumulator")
    weight_scales = np.asarray(weight_scales, dtype=np.float64).reshape(-1)
    if acc.codes.ndim != 2 or acc.codes.shape[1] != weight_scales.shape[0]:
        raise DimensionError("one weight scale per output column required")
    return apply_output_scales(acc.codes, act_scale, weight_scales)
