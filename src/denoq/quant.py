"""Uniform symmetric quantization primitives.

The code grid is the usual two's complement range: an integer code q in
[l, u] represents the real value scale * q. Quantization is

    q = clamp(round(x / scale), l, u)

with round-half-to-even tie breaking. There is no zero point; ranges are
symmetric and zero is always exactly representable.

Scales are either a single per-tensor scalar or a per-channel vector along
one named axis. Activations that feed a factored integer matmul must use a
per-tensor scale: a scale that varied along the reduction axis could not be
pulled outside the accumulation, so :class:`QuantizedLayer` rejects that
layout at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, IntegrityError
from .igemm import (
    ShiftedWeights,
    accumulator_budget,
    apply_output_scales,
    shift_weights,
)
from .tensor import EXACT_FLOAT32_BITS, IntTensor, Tensor, as_real, code_matmul

SCALE_FLOOR = 1e-12

# Bit-widths 2..16 are the supported storage range; widths up to 32 are
# accepted where the integer kernel's headroom allows them (24/24 on 64
# channels needs 57 of its 63 bits; 32/32 would need 70 and is refused).
MAX_BITS = 32


def code_bounds(bits: int, signed: bool) -> tuple[int, int]:
    """Lowest and highest representable code for a bit-width."""
    if signed:
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


@dataclass(frozen=True)
class QuantParams:
    """Scale, bit-width, signedness, and granularity of one quantizer.

    axis=None means one scale for the whole tensor; axis=k means one scale
    per index of dimension k (scale is then a 1-d vector).
    """

    scale: object
    bits: int
    signed: bool = True
    axis: int | None = None

    def __post_init__(self):
        if not (2 <= self.bits <= MAX_BITS):
            raise DomainError(f"bits must be in [2, {MAX_BITS}], got {self.bits}")
        if self.axis is None:
            s = float(self.scale)
            if not np.isfinite(s) or s <= 0.0:
                raise DomainError(f"per-tensor scale must be a positive real, got {s}")
            object.__setattr__(self, "scale", s)
        else:
            s = np.asarray(self.scale, dtype=np.float64)
            if s.ndim != 1:
                raise DimensionError("per-channel scale must be a 1-d vector")
            if not np.all(np.isfinite(s)) or np.any(s <= 0.0):
                raise DomainError("per-channel scales must all be positive reals")
            object.__setattr__(self, "scale", s)

    @property
    def bounds(self) -> tuple[int, int]:
        return code_bounds(self.bits, self.signed)

    def scale_for(self, shape: tuple) -> np.ndarray | float:
        """Scale broadcast against a tensor of the given shape."""
        if self.axis is None:
            return self.scale
        if not (-len(shape) <= self.axis < len(shape)):
            raise DimensionError(f"axis {self.axis} invalid for shape {shape}")
        if shape[self.axis] != self.scale.shape[0]:
            raise DimensionError(
                f"per-channel scale has {self.scale.shape[0]} entries but "
                f"dimension {self.axis} of shape {shape} is {shape[self.axis]}"
            )
        expand = [1] * len(shape)
        expand[self.axis] = self.scale.shape[0]
        return self.scale.reshape(expand)


def quantize(x: Tensor, params: QuantParams) -> IntTensor:
    """Quantize a real tensor to integer codes.

    Rounds half to even (numpy rint), then clamps to the representable
    range. Returns an IntTensor tagged with the nominal bit-width and
    signedness; the clamp bounds the codes, so they are not scanned again.
    """
    return _quantize(x, params, np.int64)


def _quantize(x: Tensor, params: QuantParams, dtype) -> IntTensor:
    """quantize, with the codes clipped straight into a new array of dtype,
    which must hold every code exactly."""
    x = as_real(x, "quantize input")
    l, u = params.bounds
    codes = np.divide(x, params.scale_for(x.shape))
    np.rint(codes, out=codes)
    codes = np.clip(codes, l, u, out=np.empty(codes.shape, dtype), casting="unsafe")
    return IntTensor._bounded(codes, params.bits, params.signed)


def dequantize(q: IntTensor, params: QuantParams) -> Tensor:
    """Map integer codes back to reals: scale * code.

    Codes outside the declared range mean the tensor was not produced by a
    matching quantizer, so that is rejected rather than silently clamped.
    """
    if not isinstance(q, IntTensor):
        raise DomainError("dequantize expects an IntTensor")
    if q.nominal_bits != params.bits:
        raise IntegrityError(
            f"codes carry nominal_bits={q.nominal_bits} but params.bits={params.bits}"
        )
    l, u = params.bounds
    if q.codes.size and (q.codes.min() < l or q.codes.max() > u):
        raise IntegrityError(f"codes fall outside [{l}, {u}]")
    s = params.scale_for(q.codes.shape)
    return q.codes.astype(np.float64) * s


def minmax_scale(
    x: Tensor, bits: int, signed: bool = True, axis: int | None = None
) -> QuantParams:
    """Standard MinMax calibration: scale = max magnitude / largest code.

    Channels with zero range get the floor 1e-12 so division stays defined.
    """
    x = as_real(x, "minmax input")
    _, u = code_bounds(bits, signed)
    if axis is None:
        # max |x| (max(x, 0) when unsigned) with no temporary the size of x
        m = 0.0
        if x.size:
            m = max(float(x.max()), -float(x.min()) if signed else 0.0)
        return QuantParams(max(m / u, SCALE_FLOOR), bits, signed, None)
    mags = np.abs(x) if signed else np.maximum(x, 0.0)
    reduce_axes = tuple(i for i in range(x.ndim) if i != axis % x.ndim)
    m = np.max(mags, axis=reduce_axes)
    scale = np.maximum(m / u, SCALE_FLOOR)
    return QuantParams(scale, bits, signed, axis)


# ---------------------------------------------------------------------------
# Quantized layers and the real-arithmetic execution oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizedLayer:
    """Everything needed to run one quantized matmul site.

    Fields:
        weight_codes: integer weight codes, [C_in x C_out].
        weight_params: weight quantizer; per-tensor or one scale per output
            column (axis=1).
        act_params: activation quantizer; must be per-tensor, because the
            factored product needs a scale that is constant along the
            reduction axis.
        fused_tau: per-input-channel activation divisors, already fused with
            the activation scale (tau_c * act scale).
        pts_exponents: per-input-channel power-of-two exponents (>= 0). Zero
            everywhere when channel rescue is off.

    Derived when the layer is built, not passed in:
        act_code_params: the per-input-channel quantizer activation_codes
            applies; its scale is the divisor 2^pts_exponents * fused_tau.
        accumulator_budget: the bits that bound every partial sum of the
            layer's code product (igemm.accumulator_budget), which pick its
            tier in tensor.code_matmul.
    Derived once, on first use:
        shifted_weights: the weight codes with pts_exponents folded in as
            left shifts, ready for igemm.execute (igemm.shift_weights,
            which refuses codes that overflow the 32-bit weight lane).

    Neither the weight lane nor the accumulator budget is checked here, so
    a layer too wide for the integer kernel can still run through
    quantized_matmul_reference; a QuantizedModel, the unit that is
    exported and imported, refuses it.
    """

    name: str
    weight_codes: IntTensor
    weight_params: QuantParams
    act_params: QuantParams
    fused_tau: np.ndarray
    pts_exponents: np.ndarray = field(default=None)
    act_code_params: QuantParams = field(init=False, repr=False, compare=False)
    accumulator_budget: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight_codes.codes.ndim != 2:
            raise DimensionError("weight codes must be 2-d [C_in x C_out]")
        c_in, c_out = self.weight_codes.codes.shape
        if self.act_params.axis is not None:
            raise DomainError(
                "activation scales must be per-tensor: a per-channel scale on "
                "the reduction axis cannot be factored out of the accumulation"
            )
        if self.weight_params.axis not in (None, 1):
            raise DomainError("weight scales must be per-tensor or per output column")
        if self.weight_params.axis == 1 and self.weight_params.scale.shape[0] != c_out:
            raise DimensionError("one weight scale per output column required")
        fused = as_real(self.fused_tau, "fused activation divisors").reshape(-1)
        if fused.shape[0] != c_in:
            raise DimensionError("fused_tau must have one entry per input channel")
        if np.any(fused <= 0.0):
            raise DomainError("fused activation divisors must be strictly positive")
        object.__setattr__(self, "fused_tau", fused)
        delta = self.pts_exponents
        if delta is None:
            delta = np.zeros(c_in, dtype=np.int64)
        delta = np.asarray(delta)
        if not np.issubdtype(delta.dtype, np.integer):
            raise DomainError("pts_exponents must be integers")
        delta = delta.astype(np.int64)
        if delta.shape != (c_in,):
            raise DimensionError("pts_exponents must have one entry per input channel")
        if delta.size and delta.min() < 0:
            raise DomainError("pts_exponents must be non-negative")
        object.__setattr__(self, "pts_exponents", delta)
        # Multiplying by an exact power of two only touches the float
        # exponent, so this divisor is 2^delta times fused_tau exactly, and
        # with delta = 0 it is the divisor the LES keep-best check divides
        # by. A divisor that overflows is not a positive real and is
        # rejected.
        with np.errstate(over="ignore"):
            divisor = np.exp2(delta.astype(np.float64)) * fused
        object.__setattr__(
            self,
            "act_code_params",
            QuantParams(divisor, self.act_params.bits, self.act_params.signed, axis=1),
        )
        object.__setattr__(
            self,
            "accumulator_budget",
            accumulator_budget(
                self.act_params.bits, self.weight_codes.nominal_bits, self.max_shift, c_in
            ),
        )

    @cached_property
    def shifted_weights(self) -> ShiftedWeights:
        return shift_weights(self.weight_codes, self.pts_exponents)

    @property
    def c_in(self) -> int:
        return self.weight_codes.codes.shape[0]

    @property
    def max_shift(self) -> int:
        return int(self.pts_exponents.max()) if self.c_in else 0

    @property
    def c_out(self) -> int:
        return self.weight_codes.codes.shape[1]

    def weight_scale_vector(self) -> np.ndarray:
        if self.weight_params.axis == 1:
            return self.weight_params.scale
        return np.full(self.c_out, self.weight_params.scale, dtype=np.float64)


def activation_codes(x: Tensor, layer: QuantizedLayer) -> IntTensor:
    """Integer activation codes for a layer's input.

    The per-channel divisor 2^delta_c * fused_tau_c and its quantizer are
    built with the layer: x is divided once, by 2^delta_c * tau_c * s.
    Dividing by tau first and then by s can round a value on the other
    side of a half-code boundary, so that two-step path is not the same
    codes in general.

    On a layer whose accumulator budget is at most 24 bits the codes are
    float32, the operand igemm.execute hands to sgemm; above that they are
    int64, as quantize makes them. The rounding and clamp are quantize's.
    """
    dtype = np.float32 if layer.accumulator_budget <= EXACT_FLOAT32_BITS else np.int64
    return _quantize(x, layer.act_code_params, dtype)


def quantized_matmul_reference(x: Tensor, layer: QuantizedLayer) -> Tensor:
    """Real-arithmetic oracle for quantized layer execution.

    Computes the factored product: integer codes are multiplied and summed
    with the scales applied outside the accumulation. Power-of-two exponents
    are folded onto the weight codes (exactly, since scaling by 2^d is
    exponent arithmetic). While codes and partial sums stay below 2^53 the
    whole accumulation is exact integer arithmetic, which is what makes the
    bit-shift integer path reproducible against this function bit for bit,
    and what lets the product run on float32 or float64 BLAS (see
    tensor.code_matmul).
    """
    x = as_real(x, "layer input")
    if x.ndim != 2 or x.shape[1] != layer.c_in:
        raise DimensionError(
            f"layer input must be [B x {layer.c_in}], got {x.shape}"
        )
    codes_x = activation_codes(x, layer)
    shifted_w = layer.weight_codes.codes.astype(np.float64) * np.exp2(
        layer.pts_exponents.astype(np.float64)
    )[:, None]
    acc = code_matmul(codes_x.codes, shifted_w, layer.accumulator_budget)
    return apply_output_scales(acc, layer.act_params.scale, layer.weight_scale_vector())
