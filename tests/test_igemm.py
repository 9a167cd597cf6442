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
from denoq.tensor import IntTensor, Rng, ceil_log2, code_dtype


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
    assert out.nominal_bits == 8 + 4 + 1 + 1  # the layer's accumulator budget


def test_execute_rejects_reduction_mismatch():
    x = IntTensor(np.array([[1, 2, 3]]), 8)
    w = shift_weights(IntTensor(np.array([[1], [2]]), 4), np.zeros(2, dtype=int))
    with pytest.raises(DimensionError):
        execute(x, w)


class TestAccumulatorHeadroom:
    """16-bit codes, 6-bit shifts: the accumulator budget
    bits_x + source_bits + max_shift + ceil(log2(c_in)) must stay <= 53."""

    def _inputs(self, c_in):
        # worst-case magnitudes: x at -2^15, w at -2^15 shifted by 6
        x = IntTensor(np.full((1, c_in), -(1 << 15), dtype=np.int64), 16)
        w_codes = np.full((c_in, 1), -(1 << 15), dtype=np.int64)
        w = shift_weights(IntTensor(w_codes, 16), np.full(c_in, 6, dtype=np.int64))
        return x, w

    def test_boundary_accepted_and_exact(self):
        c_in = 1 << 15  # 16+16+6+15 = 53: the last width that fits
        x, w = self._inputs(c_in)
        out = execute(x, w)
        assert out.codes.dtype == np.float64
        # independent arbitrary-precision check
        expect = sum(
            int(xv) * int(wv) for xv, wv in zip(x.codes[0], w.codes[:, 0])
        )
        assert int(out.codes[0, 0]) == expect
        assert expect == c_in * (1 << 15) * (1 << 21) == 1 << 51  # both negatives cancel

    def test_one_step_past_boundary_rejected(self):
        x, w = self._inputs(1 << 16)  # 16+16+6+16 = 54 > 53
        with pytest.raises(HeadroomError, match="54 > 53"):
            execute(x, w)


@pytest.mark.parametrize("budget", range(54, 64))
def test_budgets_past_53_bits_are_refused(budget):
    """No float type holds every partial sum past 53 bits: execute() and
    code_dtype refuse every such budget."""
    c_in, shift, source_bits = 64, 3, 20
    bits_x = budget - ceil_log2(c_in) - shift - source_bits
    x = IntTensor(np.full((6, c_in), -(1 << (bits_x - 1))), bits_x)
    delta = np.zeros(c_in, dtype=np.int64)
    delta[0] = shift
    w = shift_weights(IntTensor(np.ones((c_in, 5), dtype=np.int64), source_bits), delta)
    with pytest.raises(HeadroomError, match=f"= {budget} > 53"):
        execute(x, w)
    with pytest.raises(HeadroomError, match=f"{budget} bits exceeds the 53"):
        code_dtype(budget)


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

    Rescue exponents span [lo, hi] with one channel at each end.
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


@pytest.mark.parametrize("budget", [24, 25, 53])
@pytest.mark.parametrize("signed", [True, False])
def test_prepared_layer_matches_the_reference_in_every_tier(budget, signed):
    """activation_codes -> execute on the layer's prepared shifted weights
    -> dequantize_output equals quantized_matmul_reference bit for bit, on
    both sides of the float32 tier limit and at the 53-bit limit, and its
    accumulator equals arbitrary-precision integers. Codes and accumulator
    are float32 within 24 bits and float64 within 53 bits."""
    layer, x = _layer_at_budget(budget, signed, seed=budget + 100 * signed)
    codes = activation_codes(x, layer)
    l, u = layer.act_params.bounds
    assert codes.codes.min() == l and codes.codes.max() == u
    acc = execute(codes, layer.shifted_weights)
    exact = codes.codes.astype(object) @ (
        layer.weight_codes.codes.astype(object)
        * (2 ** layer.pts_exponents.astype(object))[:, None]
    )
    tier_dtype = {24: np.float32, 25: np.float64, 53: np.float64}[budget]
    assert codes.codes.dtype == tier_dtype and acc.codes.dtype == tier_dtype
    assert [int(v) for v in acc.codes.ravel()] == [int(v) for v in exact.ravel()]
    got = dequantize_output(acc, layer.act_params.scale, layer.weight_scale_vector())
    assert np.array_equal(got, quantized_matmul_reference(x, layer))


@pytest.mark.parametrize("budget", [54, 63])
@pytest.mark.parametrize("signed", [True, False])
def test_a_prepared_layer_past_53_bits_is_refused(budget, signed):
    """A layer past 53 bits can be built, and its shifted weights fit the
    lane, but it has no tier: activation_codes, execute and
    quantized_matmul_reference each raise HeadroomError."""
    layer, x = _layer_at_budget(budget, signed, seed=budget + 100 * signed)
    assert layer.accumulator_budget == budget
    with pytest.raises(HeadroomError, match=f"{budget} bits exceeds the 53"):
        activation_codes(x, layer)
    codes = IntTensor(np.zeros(x.shape, dtype=np.int64), layer.act_params.bits)
    with pytest.raises(HeadroomError, match=f"= {budget} > 53"):
        execute(codes, layer.shifted_weights)
    with pytest.raises(HeadroomError, match=f"{budget} bits exceeds the 53"):
        quantized_matmul_reference(x, layer)


def test_shifted_weights_convert_once_for_float32():
    """execute hands code_matmul the weights in the dtype of the layer's
    tier: a copy made on first use and the same array on every later call,
    one per dtype; past 53 bits there is no tier to convert to."""
    sw = shift_weights(IntTensor(np.array([[3, -8], [7, 0]]), 4), np.array([2, 0]))
    assert sw._operands == {}
    x = IntTensor(np.array([[1, -2]]), 8)
    assert execute(x, sw).codes.tolist() == [[-2, -32]]  # 8 + 4 + 2 + 1 bits
    first = sw.operand(24)
    assert first.dtype == np.float32 and np.array_equal(first, sw.codes)
    execute(x, sw)
    assert sw.operand(24) is first and sw.operand(2) is first
    wide = sw.operand(25)
    assert wide.dtype == np.float64 and np.array_equal(wide, sw.codes)
    assert sw.operand(53) is wide
    with pytest.raises(HeadroomError):
        sw.operand(54)


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
    assert headroom_problem(22, 22, 3, 64) is None  # exactly 53 bits
    assert "= 54 > 53" in headroom_problem(24, 24, 0, 64)
    assert "= 57 > 53" in headroom_problem(24, 24, 3, 64)
    assert "= 70 > 53" in headroom_problem(32, 32, 0, 64)
    assert headroom_problem(8, 32, 0, 64) is None  # 46 bits: 32-bit weights fit
    assert "weight lane" in headroom_problem(8, 30, 3, 64)
    assert headroom_problem(8, 29, 3, 64) is None


def test_execute_refuses_weights_built_past_the_lane():
    """ShiftedWeights built directly skip shift_weights' check; execute
    applies the same headroom rule and names the limit that failed."""
    x = IntTensor(np.array([[1]]), 8)
    with pytest.raises(HeadroomError, match="30-bit codes shifted by 3 .*weight lane"):
        execute(x, ShiftedWeights(np.array([[1 << 32]]), 30, 3))
