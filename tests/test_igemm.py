import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError, HeadroomError
from denoq.igemm import dequantize_output, execute, shift_weights
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
