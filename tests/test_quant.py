import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError, HeadroomError, IntegrityError
from denoq.igemm import execute
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    apply_output_scales,
    code_bounds,
    dequantize,
    minmax_scale,
    quantize,
    quantized_matmul_reference,
)
from denoq.tensor import IntTensor, Rng, matmul


def test_code_bounds():
    assert code_bounds(8, True) == (-128, 127)
    assert code_bounds(8, False) == (0, 255)
    assert code_bounds(4, True) == (-8, 7)
    assert code_bounds(2, True) == (-2, 1)


def test_quantize_worked_examples():
    # 300 saturates the signed 8-bit range; 2.5 rounds half to even.
    p = QuantParams(1.0, 8, True)
    q = quantize(np.array([300.0, -300.0, 2.5, 3.5, -2.5, 0.4]), p)
    assert q.codes.tolist() == [127, -128, 2, 4, -2, 0]


def test_quantize_clips_and_the_constructor_still_checks():
    """quantize hands its clipped codes over without a rescan, so the clip
    alone keeps them in range; an IntTensor built by hand is still
    checked."""
    x = np.array([1e9, -1e9, 7.4])
    signed = quantize(x, QuantParams(1.0, 4, True))
    assert signed.codes.tolist() == [7, -8, 7]
    unsigned = quantize(x, QuantParams(1.0, 4, False))
    assert unsigned.codes.tolist() == [15, 0, 7]
    assert (unsigned.nominal_bits, unsigned.signed) == (4, False)
    with pytest.raises(DomainError, match="range"):
        IntTensor(np.array([8]), 4)
    with pytest.raises(DomainError, match="range"):
        IntTensor(np.array([-1]), 4, signed=False)


def test_minmax_worked_example():
    p = minmax_scale(np.array([0.01, -0.1]), 8, signed=True)
    assert p.scale == pytest.approx(0.1 / 127, rel=1e-12)


def test_minmax_zero_tensor_hits_floor():
    p = minmax_scale(np.zeros(5), 8)
    assert p.scale == 1e-12
    q = quantize(np.zeros(5), p)
    assert np.all(q.codes == 0)


def test_minmax_unsigned_ignores_negative_lobes():
    x = np.array([-50.0, 2.0])
    p = minmax_scale(x, 8, signed=False)
    assert p.scale == pytest.approx(2.0 / 255)


def test_minmax_per_axis():
    x = np.array([[1.0, -8.0], [2.0, 4.0]])
    p = minmax_scale(x, 8, axis=1)
    assert p.scale == pytest.approx([2.0 / 127, 8.0 / 127])
    # axis 0 reduces over columns instead
    p0 = minmax_scale(x, 8, axis=0)
    assert p0.scale == pytest.approx([8.0 / 127, 4.0 / 127])


def test_round_trip_error_bound_on_grid_scan():
    """Representable interior points reconstruct within half a step."""
    p = QuantParams(0.037, 8, True)
    lo, hi = -127 * 0.037, 127 * 0.037
    xs = np.linspace(lo, hi, 1001)
    rt = dequantize(quantize(xs, p), p)
    assert np.max(np.abs(rt - xs)) <= 0.037 / 2 + 1e-12


def test_dequantize_rejects_mismatched_bits():
    q = quantize(np.array([1.0]), QuantParams(0.5, 8))
    with pytest.raises(IntegrityError):
        dequantize(q, QuantParams(0.5, 4))


def test_dequantize_rejects_out_of_range_codes():
    q = IntTensor(np.array([-5]), 16)
    with pytest.raises(IntegrityError):
        dequantize(q, QuantParams(1.0, 16, signed=False))
    ok = IntTensor(np.array([300]), 16)
    assert dequantize(ok, QuantParams(2.0, 16))[0] == 600.0


def test_scale_validation():
    with pytest.raises(DomainError):
        QuantParams(0.0, 8)
    with pytest.raises(DomainError):
        QuantParams(-1.0, 8)
    with pytest.raises(DomainError):
        QuantParams(np.array([1.0, -1.0]), 8, axis=0)
    with pytest.raises(DomainError):
        QuantParams(1.0, 1)
    with pytest.raises(DimensionError):
        QuantParams(np.ones((2, 2)), 8, axis=0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    bits=st.sampled_from([2, 3, 4, 8]),
    scale=st.floats(1e-6, 1e3),
)
def test_quantize_idempotent_on_representable_points(seed, bits, scale):
    """Quantizing an already-quantized value reproduces the same codes."""
    rng = Rng(seed)
    p = QuantParams(scale, bits, True)
    x = rng.standard_normal(40) * scale * 20
    q1 = quantize(x, p)
    q2 = quantize(dequantize(q1, p), p)
    assert np.array_equal(q1.codes, q2.codes)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_quantize_monotone(seed):
    rng = Rng(seed)
    x = np.sort(rng.standard_normal(64) * 5)
    q = quantize(x, QuantParams(0.11, 8)).codes
    assert np.all(np.diff(q) >= 0)


class TestQuantizedLayer:
    def _layer(self, c_in=6, c_out=4, bits_w=4, bits_a=8, seed=0):
        rng = Rng(seed)
        w = rng.standard_normal((c_in, c_out))
        wp = minmax_scale(w, bits_w, axis=1)
        codes = quantize(w, wp)
        tau = np.exp(rng.uniform(-1, 1, c_in))
        ap = QuantParams(0.05, bits_a, True)
        return QuantizedLayer("l", codes, wp, ap, tau * ap.scale)

    def test_divisor_is_derived_once_not_passed(self):
        layer = self._layer(seed=3)
        assert "act_code_params" not in {
            f.name for f in dataclasses.fields(QuantizedLayer) if f.init
        }
        delta = np.array([0, 1, 0, 3, 0, 2])
        shifted = dataclasses.replace(layer, pts_exponents=delta)
        assert np.array_equal(layer.act_code_params.scale, layer.fused_tau)
        assert np.array_equal(
            shifted.act_code_params.scale,
            np.exp2(delta.astype(np.float64)) * layer.fused_tau,
        )
        assert (shifted.act_code_params.bits, shifted.act_code_params.axis) == (8, 1)

    def test_activation_codes_validate_their_input(self):
        layer = self._layer()
        with pytest.raises(DimensionError):
            activation_codes(np.zeros((3, 5)), layer)
        x = np.zeros((2, 6))
        x[1, 2] = np.inf
        with pytest.raises(DomainError):
            activation_codes(x, layer)

    def test_rejects_a_divisor_that_overflows(self):
        layer = self._layer()
        with pytest.raises(DomainError, match="positive reals"):
            dataclasses.replace(
                layer, fused_tau=np.full(6, 1e300), pts_exponents=np.full(6, 255)
            )

    def test_rejects_per_channel_activation_scale(self):
        rng = Rng(1)
        w = rng.standard_normal((3, 3))
        wp = minmax_scale(w, 4, axis=1)
        ap = QuantParams(np.array([0.1, 0.2, 0.3]), 8, axis=0)
        with pytest.raises(DomainError, match="reduction"):
            QuantizedLayer("l", quantize(w, wp), wp, ap, np.ones(3))

    def test_rejects_weight_scale_on_rows(self):
        rng = Rng(1)
        w = rng.standard_normal((3, 3))
        wp = minmax_scale(w, 4, axis=0)
        ap = QuantParams(0.1, 8)
        with pytest.raises(DomainError):
            QuantizedLayer("l", quantize(w, wp), wp, ap, np.ones(3))

    def test_rejects_nonpositive_divisors(self):
        rng = Rng(2)
        w = rng.standard_normal((3, 3))
        wp = minmax_scale(w, 4, axis=1)
        with pytest.raises(DomainError):
            QuantizedLayer(
                "l", quantize(w, wp), wp, QuantParams(0.1, 8),
                np.array([1.0, 0.0, 1.0]),
            )

    def test_rejects_negative_exponents(self):
        rng = Rng(2)
        w = rng.standard_normal((3, 3))
        wp = minmax_scale(w, 4, axis=1)
        with pytest.raises(DomainError):
            QuantizedLayer(
                "l", quantize(w, wp), wp, QuantParams(0.1, 8),
                np.ones(3), np.array([0, -1, 0]),
            )

    def test_reference_path_approximates_float_product(self):
        """Weight codes represent the row-scaled weight tau * W, so the
        integer product approximates (x / tau) @ W_deq, and the only error
        is activation rounding: half the per-tensor scale per channel."""
        rng = Rng(17)
        layer = self._layer(bits_w=8, bits_a=8, seed=9)
        x = rng.standard_normal((20, layer.c_in)) * 0.5
        tau = layer.fused_tau / layer.act_params.scale
        w_real = dequantize(layer.weight_codes, layer.weight_params)
        got = quantized_matmul_reference(x, layer)
        want = matmul(x / tau[None, :], w_real)
        bound = 0.5 * layer.act_params.scale * np.sum(np.abs(w_real), axis=0)
        assert np.all(np.abs(got - want) <= bound[None, :] + 1e-12)

    def test_32_bit_weights_fit_only_with_narrow_activations(self):
        """32-bit weights with 8-bit activations on 64 channels need 46
        bits: the float64 tier runs them exactly, as the integer path does.
        bits_a = 32 needs 70, past what float64 holds exactly, and the
        reference refuses it."""
        x = Rng(6).standard_normal((11, 64)) * 1e7
        layer = self._layer(c_in=64, c_out=5, bits_w=32, bits_a=8, seed=6)
        assert layer.accumulator_budget == 46
        got = quantized_matmul_reference(x, layer)
        acc = execute(activation_codes(x, layer), layer.shifted_weights)
        assert acc.codes.dtype == np.float64
        scales = layer.weight_scale_vector()
        assert np.array_equal(got, apply_output_scales(acc.codes, layer.act_params.scale, scales))
        wide = self._layer(c_in=64, c_out=5, bits_w=32, bits_a=32, seed=6)
        with pytest.raises(HeadroomError, match="70 bits exceeds the 53"):
            quantized_matmul_reference(x, wide)

    def test_reference_path_exact_when_input_representable(self):
        layer = self._layer(seed=4)
        codes = Rng(4).integers(-100, 100, (5, layer.c_in))
        x = codes.astype(np.float64) * layer.fused_tau[None, :]
        got = quantized_matmul_reference(x, layer)
        acc = matmul(codes.astype(np.float64), layer.weight_codes.codes.astype(np.float64))
        want = apply_output_scales(
            acc, layer.act_params.scale, layer.weight_scale_vector()
        )
        assert np.array_equal(got, want)


def test_apply_output_scales_combines_before_multiplying():
    acc = np.array([[3.0, 7.0]])
    out = apply_output_scales(acc, 0.1, np.array([0.2, 0.4]))
    combined = 0.1 * np.array([0.2, 0.4])
    assert np.array_equal(out, acc * combined[None, :])
