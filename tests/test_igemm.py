import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError, HeadroomError
from denoq.igemm import (
    ShiftedWeights,
    dequantize_output,
    execute,
    headroom_problem,
    shift_weights,
)
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    minmax_scale,
    quantize,
    quantized_matmul_reference,
)
from denoq.tensor import IntTensor, Rng, ceil_log2


def test_shift_examples():
    w = IntTensor(np.array([[2], [-5]]), 4)
    sw = shift_weights(w, np.array([1, 1]))
    assert sw.codes.tolist() == [[4], [-10]]
    sw2 = shift_weights(w, np.array([2, 0]))
    assert sw2.codes.tolist() == [[8], [-5]]
    assert sw2.max_shift == 2


def test_unshifted_weights_share_their_codes():
    w = IntTensor(np.array([[2, -1], [-5, 7]]), 4)
    assert shift_weights(w, np.zeros(2, dtype=np.int64)).codes is w.codes
    shifted = shift_weights(w, np.array([0, 1]))
    assert shifted.codes is not w.codes
    assert w.codes.tolist() == [[2, -1], [-5, 7]]


def test_shift_rejects_bad_exponents():
    w = IntTensor(np.array([[1, 2]]), 4)
    with pytest.raises(DomainError):
        shift_weights(w, np.array([-1]))
    with pytest.raises(DimensionError):
        shift_weights(w, np.array([1, 2]))


def test_shift_weight_lane_headroom():
    w = IntTensor(np.array([[1]]), 16)
    shift_weights(w, np.array([16]))  # 16 + 16 = 32, at the lane limit
    with pytest.raises(HeadroomError):
        shift_weights(w, np.array([17]))


def test_execute_small_product():
    x = IntTensor(np.array([[3, -1]]), 8)
    w = shift_weights(IntTensor(np.array([[2, 0], [1, 4]]), 4), np.array([1, 0]))
    out = execute(x, w)
    # row [3, -1] against shifted cols [[4,0],[1,4]]
    assert out.codes.tolist() == [[11, -4]]
    assert out.nominal_bits == 64


def test_execute_rejects_reduction_mismatch():
    x = IntTensor(np.array([[1, 2, 3]]), 8)
    w = shift_weights(IntTensor(np.array([[1], [2]]), 4), np.zeros(2, dtype=int))
    with pytest.raises(DimensionError):
        execute(x, w)


class TestAccumulatorHeadroom:
    """16-bit codes, 16-bit shifts: the accumulator budget
    bits_x + source_bits + max_shift + ceil(log2(c_in)) must stay <= 63."""

    def _inputs(self, c_in):
        # worst-case magnitudes: x at -2^15, w at -2^15 shifted by 16
        x = IntTensor(np.full((1, c_in), -(1 << 15), dtype=np.int64), 16)
        w_codes = np.full((c_in, 1), -(1 << 15), dtype=np.int64)
        w = shift_weights(IntTensor(w_codes, 16), np.full(c_in, 16, dtype=np.int64))
        return x, w

    def test_boundary_accepted_and_exact(self):
        c_in = 1 << 15  # 16+16+16+15 = 63: the last width that fits
        x, w = self._inputs(c_in)
        out = execute(x, w)
        # independent arbitrary-precision check
        expect = sum(
            int(xv) * int(wv) for xv, wv in zip(x.codes[0], w.codes[:, 0])
        )
        assert int(out.codes[0, 0]) == expect
        assert expect == c_in * (1 << 15) * (1 << 31)  # both negatives cancel

    def test_one_step_past_boundary_rejected(self):
        x, w = self._inputs(1 << 16)  # 16+16+16+16 = 64 > 63
        with pytest.raises(HeadroomError, match="63"):
            execute(x, w)


@pytest.mark.parametrize("budget", range(54, 64))
def test_budgets_past_53_bits_stay_exact_in_int64(budget):
    """Past the exact-float budget execute() falls back to int64 and still
    equals arbitrary-precision integer arithmetic, up to the 63-bit limit."""
    c_in, shift, source_bits = 64, 3, 20
    bits_x = budget - ceil_log2(c_in) - shift - source_bits
    rng = Rng(budget)
    lo_x, hi_x = -(1 << (bits_x - 1)), (1 << (bits_x - 1)) - 1
    x_codes = np.where(rng.integers(0, 2, (6, c_in)) == 1, hi_x, lo_x)
    x_codes[0, :] = lo_x  # the worst-case row
    lo_w, hi_w = -(1 << (source_bits - 1)), (1 << (source_bits - 1)) - 1
    w_codes = np.where(rng.integers(0, 2, (c_in, 5)) == 1, hi_w, lo_w)
    w_codes[:, 0] = lo_w
    delta = rng.integers(0, shift + 1, c_in)
    delta[0] = shift
    x = IntTensor(x_codes, bits_x)
    w = shift_weights(IntTensor(w_codes, source_bits), delta)
    out = execute(x, w)
    assert out.codes.dtype == np.int64
    exact = x.codes.astype(object) @ w.codes.astype(object)
    assert [int(v) for v in out.codes.ravel()] == [int(v) for v in exact.ravel()]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    c_in=st.integers(1, 24),
    c_out=st.integers(1, 12),
    batch=st.integers(1, 8),
    dmax=st.integers(0, 3),
)
def test_integer_path_matches_python_int_oracle(seed, c_in, c_out, batch, dmax):
    rng = Rng(seed)
    x = IntTensor(rng.integers(-128, 128, (batch, c_in)), 8)
    wc = IntTensor(rng.integers(-8, 8, (c_in, c_out)), 4)
    delta = rng.integers(0, dmax + 1, c_in)
    sw = shift_weights(wc, delta)
    out = execute(x, sw)
    for i in range(batch):
        for j in range(c_out):
            expect = sum(
                int(x.codes[i, k]) * (int(wc.codes[k, j]) << int(delta[k]))
                for k in range(c_in)
            )
            assert int(out.codes[i, j]) == expect


def _random_w4a8_layer(seed, c_in=16, c_out=8, dmax=3):
    """A deployable layer plus a real input, like the pipeline builds."""
    rng = Rng(seed)
    w = rng.standard_normal((c_in, c_out))
    tau = np.exp(rng.uniform(-2, 2, c_in))
    w_scaled = w * tau[:, None]
    wp = minmax_scale(w_scaled, 4, axis=1)
    codes = quantize(w_scaled, wp)
    s_base = float(np.exp(rng.uniform(-4, -1, ())))
    ap = QuantParams(s_base, 8, True)
    delta = rng.integers(0, dmax + 1, c_in)
    layer = QuantizedLayer("l", codes, wp, ap, tau * s_base, delta)
    x = rng.standard_normal((12, c_in)) * 3.0
    return layer, x


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_bit_shift_path_bit_exact_against_reference(seed):
    """The deployable integer pipeline and the real-arithmetic reference
    produce identical float64 bits, not merely close values."""
    layer, x = _random_w4a8_layer(seed)
    ref = quantized_matmul_reference(x, layer)
    codes_x = activation_codes(x, layer)
    sw = shift_weights(layer.weight_codes, layer.pts_exponents)
    acc = execute(codes_x, sw)
    got = dequantize_output(
        acc, layer.act_params.scale, layer.weight_scale_vector()
    )
    assert np.array_equal(ref, got)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), bits_a=st.sampled_from([4, 8, 16]))
def test_unsigned_activation_codes_run_bit_exact(seed, bits_a):
    """Unsigned activation codes reach 2^bits - 1, one bit past the signed
    range; the headroom budget still bounds them and the integer path
    still equals the reference bit for bit."""
    layer, x = _random_w4a8_layer(seed)
    act = QuantParams(layer.act_params.scale, bits_a, signed=False)
    layer = QuantizedLayer(
        "u", layer.weight_codes, layer.weight_params, act, layer.fused_tau,
        layer.pts_exponents,
    )
    x[0], x[1] = 1e12, -1.0  # clip to the top and to the bottom code
    codes_x = activation_codes(x, layer)
    assert codes_x.signed is False
    assert codes_x.codes.min() == 0 and codes_x.codes.max() == (1 << bits_a) - 1
    acc = execute(codes_x, shift_weights(layer.weight_codes, layer.pts_exponents))
    got = dequantize_output(acc, layer.act_params.scale, layer.weight_scale_vector())
    assert np.array_equal(got, quantized_matmul_reference(x, layer))


# budget: (bits_a, bits_w, lowest and highest rescue exponent) on 64
# channels, so bits_a + bits_w + highest + 6 is the budget.
_TIERS = {
    24: (8, 7, 0, 3),
    25: (8, 7, 0, 4),
    53: (24, 20, 0, 3),
    54: (24, 20, 0, 4),
    63: (25, 20, 9, 12),
}


def _layer_at_budget(budget, signed, seed, c_in=64, c_out=7):
    """A layer whose accumulator budget is exactly `budget` bits.

    Rescue exponents span [lo, hi] with one channel at each end. At 63
    bits they start at 9, so every shifted weight is a multiple of 2^9 and
    the float64 accumulation of quantized_matmul_reference stays exact
    below 2^62: both paths have one exact answer to match.
    """
    bits_a, bits_w, lo, hi = _TIERS[budget]
    rng = Rng(seed)
    lo_w, hi_w = -(1 << (bits_w - 1)), (1 << (bits_w - 1)) - 1
    w_codes = rng.integers(lo_w, hi_w + 1, (c_in, c_out))
    w_codes[:, 0] = lo_w  # whole columns at l and u
    w_codes[:, 1] = hi_w
    delta = rng.integers(lo, hi + 1, c_in)
    delta[0], delta[1] = hi, lo
    w_scales = np.exp(rng.uniform(-6, -2, c_out))
    act = QuantParams(float(np.exp(rng.uniform(-5, -1, ()))), bits_a, signed)
    fused = np.exp(rng.uniform(-1, 1, c_in)) * act.scale
    layer = QuantizedLayer(
        "l", IntTensor(w_codes, bits_w), QuantParams(w_scales, bits_w, True, axis=1),
        act, fused, delta,
    )
    assert bits_a + bits_w + int(delta.max()) + ceil_log2(c_in) == budget
    # Inputs whose codes hit both ends of the range (rows 0 and 1 clip),
    # plus random rows.
    l, u = act.bounds
    divisor = layer.act_code_params.scale
    x = rng.uniform(-1.0, 1.0, (9, c_in)) * u * divisor
    x[0], x[1] = -1e30, 1e30
    x[2] = l * divisor
    x[3] = u * divisor
    return layer, x


@pytest.mark.parametrize("budget", [24, 25, 53, 54, 63])
@pytest.mark.parametrize("signed", [True, False])
def test_prepared_layer_matches_the_reference_in_every_tier(budget, signed):
    """activation_codes -> execute on the layer's prepared shifted weights
    -> dequantize_output equals quantized_matmul_reference bit for bit, on
    both sides of the float32 and float64 tier limits and at the 63-bit
    limit, and its accumulator equals arbitrary-precision integers. Codes
    and accumulator are float32 in the float32 tier and int64 above it."""
    layer, x = _layer_at_budget(budget, signed, seed=budget + 100 * signed)
    codes = activation_codes(x, layer)
    l, u = layer.act_params.bounds
    assert codes.codes.min() == l and codes.codes.max() == u
    acc = execute(codes, layer.shifted_weights)
    exact = codes.codes.astype(object) @ (
        layer.weight_codes.codes.astype(object)
        * (2 ** layer.pts_exponents.astype(object))[:, None]
    )
    tier_dtype = np.float32 if budget <= 24 else np.int64
    assert codes.codes.dtype == tier_dtype and acc.codes.dtype == tier_dtype
    assert [int(v) for v in acc.codes.ravel()] == [int(v) for v in exact.ravel()]
    got = dequantize_output(acc, layer.act_params.scale, layer.weight_scale_vector())
    assert np.array_equal(got, quantized_matmul_reference(x, layer))


def test_shifted_weights_convert_once_for_float32():
    """In the float32 tier execute hands code_matmul a float32 copy of the
    weights, made on first use and the same array on every later call; the
    other tiers take the int64 codes themselves."""
    sw = shift_weights(IntTensor(np.array([[3, -8], [7, 0]]), 4), np.array([2, 0]))
    assert sw._float32 is None
    x = IntTensor(np.array([[1, -2]]), 8)
    assert execute(x, sw).codes.tolist() == [[-2, -32]]  # 8 + 4 + 2 + 1 bits
    first = sw._float32
    assert first.dtype == np.float32 and np.array_equal(first, sw.codes)
    execute(x, sw)
    assert sw._float32 is first and sw.operand(24) is first
    assert sw.operand(25) is sw.codes and sw.operand(54) is sw.codes


def test_layer_prepares_its_shifted_weights_once():
    layer, _ = _random_w4a8_layer(5)
    sw = layer.shifted_weights
    assert sw is layer.shifted_weights
    ref = shift_weights(layer.weight_codes, layer.pts_exponents)
    assert np.array_equal(sw.codes, ref.codes)
    assert (sw.source_bits, sw.max_shift) == (ref.source_bits, ref.max_shift)


def test_a_layer_past_the_weight_lane_cannot_be_prepared():
    """4 + 29 bits overflow the weight lane: the layer still runs through
    the reference, but its shifted weights are refused."""
    layer, x = _random_w4a8_layer(6)
    wide = dataclasses.replace(layer, pts_exponents=np.full(layer.c_in, 29))
    assert np.all(np.isfinite(quantized_matmul_reference(x, wide)))
    with pytest.raises(HeadroomError, match="weight lane"):
        wide.shifted_weights


def test_headroom_problem_names_each_limit():
    assert headroom_problem(24, 24, 3, 64) is None  # 57 bits
    assert "63" in headroom_problem(32, 32, 0, 64)  # 70 bits
    assert headroom_problem(25, 20, 12, 64) is None  # exactly 63
    assert "63" in headroom_problem(26, 20, 12, 64)
    assert "weight lane" in headroom_problem(8, 30, 3, 64)
    assert headroom_problem(8, 29, 3, 64) is None


def test_execute_refuses_weights_built_past_the_lane():
    """ShiftedWeights built directly skip shift_weights' check; execute
    applies the same headroom rule and names the limit that failed."""
    x = IntTensor(np.array([[1]]), 8)
    with pytest.raises(HeadroomError, match="30-bit codes shifted by 3 .*weight lane"):
        execute(x, ShiftedWeights(np.array([[1 << 32]]), 30, 3))
