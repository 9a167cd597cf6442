import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError
from denoq.les import (
    LayerCalibRecord,
    _check_buffers,
    _check_loss,
    _clamp,
    _codes_into,
    _scaled_pair,
    fuse,
    les_grad,
    les_loss,
    optimize_layer,
    smoothquant_tau,
)
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    apply_output_scales,
    minmax_scale,
    quantize,
)
from denoq.tensor import Rng, matmul
from denoq.timestep_weighting import TimestepWeighter


def make_record(seed=0, n=64, c_in=8, c_out=6, outlier=None):
    rng = Rng(seed)
    x = rng.child("x").standard_normal((n, c_in))
    if outlier is not None:
        ch, gain = outlier
        x[:, ch] *= gain
    w = rng.child("w").standard_normal((c_in, c_out)) * 0.5
    ts = rng.child("t").integers(1, 5, n)
    return LayerCalibRecord("layer", x, ts, w)


def minmax_grids(x_hat, w_hat):
    """The grids les_loss fits when given none: 8-bit signed MinMax on the
    scaled activations, 4-bit per-column MinMax on the scaled weights."""
    return minmax_scale(x_hat, 8), minmax_scale(w_hat, 4, signed=True, axis=1)


def test_record_validation():
    rng = Rng(0)
    x = rng.standard_normal((4, 3))
    w = rng.standard_normal((3, 2))
    with pytest.raises(DimensionError):
        LayerCalibRecord("l", x, np.array([1, 2]), w)
    with pytest.raises(DimensionError):
        LayerCalibRecord("l", x, np.array([1, 2, 3, 4]), rng.standard_normal((4, 2)))


def test_loss_is_zero_when_everything_representable():
    """Inputs and weights sitting exactly on their quantizer grids at tau=1
    reconstruct exactly, so the loss vanishes."""
    act_p = QuantParams(0.25, 8, True)
    wgt_p = QuantParams(np.array([0.5, 0.5]), 4, True, axis=1)
    x = np.array([[0.5, -0.25], [1.0, 0.75]])
    w = np.array([[0.5, -0.5], [1.5, 1.0]])
    tau = np.ones(2)
    losses = les_loss(x, w, tau, 8, 4, act_p, wgt_p)
    assert np.allclose(losses, 0.0, atol=1e-24)
    grad = les_grad(x, w, tau, act_p, wgt_p)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_loss_returns_per_sample_values():
    rec = make_record(1)
    losses = les_loss(rec.activations, rec.weight, np.ones(8), 8, 4)
    assert losses.shape == (64,)
    assert np.all(losses >= 0)


def test_dead_channel_gets_zero_gradient():
    """A channel that is zero in x and in the weight row cannot influence
    the loss, so its gradient must vanish identically."""
    rec = make_record(2)
    x = rec.activations.copy()
    w = rec.weight.copy()
    x[:, 3] = 0.0
    w[3, :] = 0.0
    x_hat, w_hat = _scaled_pair(x, w, np.ones(8))
    act_p, wgt_p = minmax_grids(x_hat, w_hat)
    grad = les_grad(x, w, np.ones(8), act_p, wgt_p)
    assert grad[3] == 0.0


# Step size for central differences in log-tau space. The filter below only
# admits points whose scaled elements sit at least 1e-4 from a clamp edge;
# elements move by at most |ratio| * h <= 128 * 5e-7 = 6.4e-5 under the
# perturbation, so admitted points never cross a kink during differencing.
FD_STEP = 5e-7


def central_fd(fn, tau, h=FD_STEP):
    """Central finite differences of fn with respect to log tau."""
    log_tau = np.log(tau)
    out = np.zeros_like(log_tau)
    for c in range(log_tau.shape[0]):
        up, dn = log_tau.copy(), log_tau.copy()
        up[c] += h
        dn[c] -= h
        out[c] = (fn(np.exp(up)) - fn(np.exp(dn))) / (2 * h)
    return out


def boundary_distance(x, w, tau, act_p, wgt_p):
    """Smallest distance of any scaled element's code ratio to a clamp edge.

    The round-as-identity surrogate is smooth except where an element
    crosses its quantizer's clamp boundary; finite differences are only
    trusted away from those kinks."""
    x_hat, w_hat = _scaled_pair(x, w, tau)
    dists = []
    for v, p in ((x_hat, act_p), (w_hat, wgt_p)):
        lo, hi = p.bounds
        r = v / p.scale_for(v.shape)
        dists.append(np.min(np.abs(r - lo)))
        dists.append(np.min(np.abs(r - hi)))
    return min(dists)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_gradient_matches_finite_differences(seed):
    """les_grad agrees with central differences of the round-as-identity
    surrogate at points safely away from clamp boundaries.

    The surrogate (rounded=False) is what the straight-through convention
    differentiates: with real rounding the loss is piecewise constant in
    tau between code flips, so its pointwise derivative carries no signal.
    Scales are frozen at a reference tau so the quantizer grid does not
    move with the perturbation, matching the treat-scales-as-constant
    convention."""
    rng = Rng(seed)
    n, c_in, c_out = 24, 5, 4
    x = rng.child("x").standard_normal((n, c_in)) * 2.0
    w = rng.child("w").standard_normal((c_in, c_out))
    tau_ref = np.exp(rng.child("ref").uniform(-0.5, 0.5, c_in))
    x_ref, w_ref = _scaled_pair(x, w, tau_ref)
    act_p, wgt_p = minmax_grids(x_ref, w_ref)
    tau = tau_ref * np.exp(rng.child("tau").uniform(-0.05, 0.05, c_in))

    if boundary_distance(x, w, tau, act_p, wgt_p) < 1e-4:
        return  # too close to a kink for differencing to be meaningful

    def surrogate_mean_loss(t):
        return float(
            np.mean(les_loss(x, w, t, 8, 4, act_p, wgt_p, rounded=False))
        )

    got = les_grad(x, w, tau, act_p, wgt_p, rounded=False)
    want = central_fd(surrogate_mean_loss, tau)
    floor = 1e-3 * max(float(np.max(np.abs(want))), 1e-6)
    scale = np.maximum(np.abs(want), floor)
    assert np.max(np.abs(got - want) / scale) < 1e-3


def test_gradient_weighted_samples():
    """Per-sample weights scale each sample's contribution linearly."""
    rec = make_record(7, n=6, c_in=4, c_out=3)
    x, w = rec.activations, rec.weight
    x_hat, w_hat = _scaled_pair(x, w, np.ones(4))
    act_p, wgt_p = minmax_grids(x_hat, w_hat)
    lam = np.array([0.0, 1.0, 0.5, 0.0, 1.0, 0.25])
    full = les_grad(x, w, np.ones(4), act_p, wgt_p, sample_weights=lam)
    acc = np.zeros(4)
    for i in range(6):
        gi = les_grad(
            x[i : i + 1], w, np.ones(4), act_p, wgt_p,
            sample_weights=np.array([lam[i]]),
        )
        acc += gi
    assert np.allclose(full, acc / 6, rtol=1e-10)


def test_optimize_never_worse_than_identity():
    rec = make_record(3, outlier=(2, 50.0))
    weighter = TimestepWeighter([1, 2, 3, 4], alpha=1.0)
    res = optimize_layer(rec, weighter, Rng(0), iterations=40)
    assert res.final_loss <= res.initial_loss


def test_optimize_improves_outlier_layer():
    rec = make_record(4, n=128, c_in=8, outlier=(5, 100.0))
    weighter = TimestepWeighter([1, 2, 3, 4], alpha=0.0)
    res = optimize_layer(
        rec, weighter, Rng(1), iterations=300, lr=0.05, optimizer="adam"
    )
    assert res.final_loss < 0.5 * res.initial_loss
    assert res.tau.shape == (8,)
    assert np.all(res.tau > 0)


def test_optimizer_validation():
    rec = make_record(5)
    w = TimestepWeighter([1, 2, 3, 4])
    with pytest.raises(DomainError):
        optimize_layer(rec, w, Rng(0), iterations=0)
    with pytest.raises(DomainError):
        optimize_layer(rec, w, Rng(0), optimizer="sgd")
    with pytest.raises(DomainError):
        optimize_layer(rec, w, Rng(0), batch_size=0)
    with pytest.raises(DomainError):
        optimize_layer(rec, w, Rng(0), scale_refresh=0)


def test_optimize_is_deterministic():
    rec = make_record(6, outlier=(1, 30.0))
    r1 = optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(9), iterations=50)
    r2 = optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(9), iterations=50)
    assert np.array_equal(r1.tau, r2.tau)
    assert r1.final_loss == r2.final_loss


def direct_full_loss(ref, x, w, tau, bits_a, bits_w, act_signed):
    """The keep-best check written out plainly: MinMax on x / tau itself,
    activation codes against the fused divisor tau * s as the exported
    layer takes them, float64 codes, the product in int64."""
    x_hat, w_hat = x / tau[None, :], w * tau[:, None]
    act_p = minmax_scale(x_hat, bits_a, signed=act_signed)
    wgt_p = minmax_scale(w_hat, bits_w, signed=True, axis=1)
    fused, _ = fuse(tau, act_p, w)
    qx = quantize(x, QuantParams(fused, bits_a, act_signed, axis=1)).codes
    qw = quantize(w_hat, wgt_p).codes
    err = ref - apply_output_scales(qx @ qw, act_p.scale, wgt_p.scale)
    return float(np.mean(np.einsum("ij,ij->i", err, err, optimize=False))), act_p


@pytest.mark.parametrize("bits_a,bits_w", [(8, 4), (6, 4), (16, 8)])
@pytest.mark.parametrize("act_signed", [True, False])
def test_keep_best_check_matches_the_direct_loss(bits_a, bits_w, act_signed):
    """Column extremes stand in for x / tau in the MinMax, and 8 + 4 bits
    run in the float32 tier, 16 + 8 past it; the loss is the same bits."""
    rec = make_record(11, n=96, c_in=16, c_out=12, outlier=(3, 40.0))
    x, w = rec.activations, rec.weight
    ref = matmul(x, w)
    work = _check_buffers(x, ref, bits_a, bits_w)
    assert work[3].dtype == (np.float32 if bits_a + bits_w + 4 <= 24 else np.float64)
    for seed in range(5):
        tau = np.exp(Rng(seed).uniform(-2.0, 2.0, 16))
        got, s_x, _ = _check_loss(ref, x, w, tau, bits_a, bits_w, act_signed, work)
        want, want_act = direct_full_loss(ref, x, w, tau, bits_a, bits_w, act_signed)
        assert got == want
        assert s_x == want_act.scale


@pytest.mark.parametrize("act_signed", [True, False])
def test_keep_best_check_is_the_same_at_budgets_24_and_25(act_signed):
    """At a budget of 24 the check's code product runs on float32 BLAS, at
    25 on float64 BLAS. Both hold every partial sum of 8 + 4 bits on 16
    channels exactly, so loss and grid are the same bits."""
    rec = make_record(12, n=96, c_in=16, c_out=12, outlier=(5, 30.0))
    x, w = rec.activations, rec.weight
    ref = matmul(x, w)
    _, extremes, x_buf, _, acc_buf = _check_buffers(x, ref, 8, 4)
    float32_tier = (24, extremes, x_buf, np.empty(x.shape, np.float32), acc_buf)
    float64_tier = (25, extremes, x_buf, x_buf, acc_buf)
    for seed in range(5):
        tau = np.exp(Rng(seed).uniform(-2.0, 2.0, 16))
        at24, act24, wgt24 = _check_loss(ref, x, w, tau, 8, 4, act_signed, float32_tier)
        at25, act25, wgt25 = _check_loss(ref, x, w, tau, 8, 4, act_signed, float64_tier)
        assert at24 == at25
        assert act24 == act25
        assert np.array_equal(wgt24, wgt25)


def test_keep_best_check_divides_once_like_the_exported_layer():
    """x / (tau * s) and (x / tau) / s round to different codes here. The
    exported layer divides once and takes 77; the keep-best check must
    score that code, not the two-step 76."""
    x, tau, s = 11.446379747706697, 2.7567499587661204, 0.054276188008708544
    assert np.rint(x / (tau * s)) == 77 and np.rint((x / tau) / s) == 76
    taus = np.array([tau])
    w = np.ones((1, 1))
    act_p = QuantParams(s, 8, True)
    fused, w_scaled = fuse(taus, act_p, w)
    wgt_p = minmax_scale(w_scaled, 4, signed=True, axis=1)
    layer = QuantizedLayer("l", quantize(w_scaled, wgt_p), wgt_p, act_p, fused)
    assert activation_codes(np.array([[x]]), layer).codes.tolist() == [[77]]
    # The second row is the column maximum that makes MinMax pick s itself.
    xs = np.array([[x], [127 * s * tau]])
    ref = matmul(xs, w)
    got, got_act, _ = _check_loss(ref, xs, w, taus, 8, 4, True, _check_buffers(xs, ref, 8, 4))
    assert got_act == s
    assert got == direct_full_loss(ref, xs, w, taus, 8, 4, True)[0]
    qw = quantize(w_scaled, wgt_p).codes
    two_step = ref - apply_output_scales(
        np.array([[76], [127]]) @ qw, s, wgt_p.scale
    )
    assert got != float(np.mean(np.einsum("ij,ij->i", two_step, two_step)))


@pytest.mark.parametrize("bounds", [(0.0, 255.0), (-128.0, 127.0), (-8.0, 7.0)])
@pytest.mark.parametrize("out_dtype", [np.float64, np.float32])
def test_clamp_is_np_clip_bit_for_bit(bounds, out_dtype):
    """Signed zeros included: rint sends small negatives to -0.0, and
    np.clip keeps -0.0 against a lower bound of 0.0."""
    rng = np.random.default_rng(5)
    v = np.rint(rng.standard_normal((37, 29)) * 200)
    v[rng.random(v.shape) < 0.3] = -0.0
    expected = np.clip(v, *bounds).astype(out_dtype)
    out = np.empty(v.shape, out_dtype)
    got = _clamp(v.copy(), *bounds, out)
    assert got is out
    assert got.tobytes() == expected.tobytes()


CHECK_TAUS = {
    "1e-4": lambda c: np.full(c, 1e-4),
    "1e4": lambda c: np.full(c, 1e4),
    "both": lambda c: np.where(np.arange(c) % 2 == 0, 1e-4, 1e4),
}


@pytest.mark.parametrize("bits_a", [2, 8, 16, 24])
@pytest.mark.parametrize("tau_kind", sorted(CHECK_TAUS))
def test_unclamped_signed_codes_equal_clamped_codes(bits_a, tau_kind):
    """Every column holds its own maximum magnitude with both signs, so
    the widest column of x / tau lands on the codes -u and u exactly. The
    keep-best check takes its codes without a clamp; they must be the
    clamped codes, and its loss the directly computed one."""
    rng = np.random.default_rng(bits_a)
    c = 16
    x = rng.standard_normal((64, c)) * np.exp(rng.uniform(-6.0, 6.0, c))
    peak = np.abs(x).max(axis=0)
    x[0], x[1] = peak, -peak
    w = rng.standard_normal((c, 8))
    tau = CHECK_TAUS[tau_kind](c)
    ref = matmul(x, w)
    loss, s_x, s_w = _check_loss(
        ref, x, w, tau, bits_a, 4, True, _check_buffers(x, ref, bits_a, 4)
    )
    assert loss == direct_full_loss(ref, x, w, tau, bits_a, 4, True)[0]
    act_p, wgt_p = QuantParams(s_x, bits_a, True), QuantParams(s_w, 4, True, axis=1)
    for v, divisor, (l, u) in (
        (x, tau * act_p.scale, act_p.bounds),
        (w * tau[:, None], wgt_p.scale, wgt_p.bounds),
    ):
        got = _codes_into(v, divisor[None, :], True, np.empty_like(v))
        want = np.clip(np.rint(v / divisor[None, :]), l, u)
        assert got.tobytes() == want.tobytes()
        assert got.max() == u and got.min() == -u


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(2, 24),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 30.0),
)
def test_check_codes_never_need_the_clamp(bits, signed, seed, spread):
    """Columns of any magnitude, any tau in [1e-4, 1e4] per channel: the
    check's codes equal rint then clip, bit for bit (signed zeros too)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((40, 6)) * np.exp(rng.uniform(-spread, spread, 6))
    x[rng.random(x.shape) < 0.1] = -0.0
    tau = np.exp(rng.uniform(-np.log(1e4), np.log(1e4), 6))
    ext = np.stack((x.max(axis=0), x.min(axis=0))) / tau[None, :]
    act_p = minmax_scale(ext, bits, signed=signed)
    divisor = (tau * act_p.scale)[None, :]
    got = _codes_into(x, divisor, signed, np.empty_like(x))
    want = np.clip(np.rint(x / divisor), *act_p.bounds)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("act_signed", [True, False])
@pytest.mark.parametrize("where", ["act_max", "act_min", "weight"])
def test_keep_best_check_refuses_a_tau_that_overflows(act_signed, where):
    """1e305 / 1e-4 and 1e305 * 1e4 overflow. The check raises DomainError,
    as minmax_scale did on the scaled tensor; an overflowed column minimum
    fails an unsigned grid too, although it does not set the scale."""
    rec = make_record(7, c_in=8)
    x, w = rec.activations.copy(), rec.weight.copy()
    if where == "weight":
        w[2, 1] = 1e305
        tau = np.full(8, 1e4)
    else:
        x[3, 2] = 1e305 if where == "act_max" else -1e305
        tau = np.full(8, 1e-4)
    ref = matmul(x, w)
    work = _check_buffers(x, ref, 8, 4)
    with np.errstate(over="ignore"), pytest.raises(DomainError):
        _check_loss(ref, x, w, tau, 8, 4, act_signed, work)


def test_descent_whose_losses_overflow_fails_at_the_weighter():
    """An activation of 1e305 squares past the float range in the batch
    losses. The weighter's finiteness check stops the descent with the
    DomainError it raised before the batch step left tensor.matmul."""
    rec = make_record(8, c_in=4)
    x = rec.activations.copy()
    x[5, 0] = 1e305
    rec = LayerCalibRecord("layer", x, rec.timesteps, rec.weight)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        DomainError, match="losses must be finite"
    ):
        optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(0), iterations=20)


def test_les_loss_and_les_grad_refuse_a_product_that_overflows():
    """Every input is finite and so is the reference product, but the
    error of the quantized product squares past the float range: the loss
    would be inf and the gradient NaN."""
    x = np.full((4, 16), 1e306)
    w = np.ones((16, 3))
    tau = np.ones(16)
    act_p = QuantParams(1e305, 8)
    wgt_p = QuantParams(np.full(3, 1 / 7), 4, True, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="les_loss: the result is not finite"):
            les_loss(x, w, tau, act_params=act_p, weight_params=wgt_p)
        with pytest.raises(DomainError, match="les_grad: the result is not finite"):
            les_grad(x, w, tau, act_p, wgt_p)


class TestFusion:
    def test_fused_codes_equal_two_step_codes(self):
        """The exported layer's codes are quantize(x, tau*s) bit for bit.
        quantize(x/tau, s) rounds twice and gives the same codes except
        where (x/tau)/s sits at a half-code boundary, and there it is one
        code off; the last channel holds such a value in every row."""
        rng = Rng(11)
        s = 0.054276188008708544
        x = rng.standard_normal((200, 11)) * 5
        x[:, 10] = 11.446379747706697
        tau = np.exp(rng.uniform(-2, 2, 11))
        tau[10] = 2.7567499587661204
        act_p = QuantParams(s, 8, True)
        fused, w_scaled = fuse(tau, act_p, rng.standard_normal((11, 4)))
        wgt_p = minmax_scale(w_scaled, 4, signed=True, axis=1)
        layer = QuantizedLayer("l", quantize(w_scaled, wgt_p), wgt_p, act_p, fused)
        codes = activation_codes(x, layer).codes
        assert np.array_equal(codes, quantize(x, QuantParams(tau * s, 8, True, axis=1)).codes)
        two_step = quantize(x / tau[None, :], act_p).codes
        q = (x / tau[None, :]) / s
        at_half = np.abs(q - (np.floor(q) + 0.5)) <= 4 * np.spacing(np.abs(q))
        differ = two_step != codes
        assert np.all(differ[:, 10]) and not np.any(differ & ~at_half)
        assert np.max(np.abs(two_step - codes)) == 1

    def test_fused_weights_preserve_product(self):
        rng = Rng(12)
        x = rng.standard_normal((20, 6))
        w = rng.standard_normal((6, 5))
        tau = np.exp(rng.uniform(-1, 1, 6))
        fused, w_scaled = fuse(tau, QuantParams(0.1, 8), w)
        y1 = matmul(x, w)
        y2 = matmul(x / tau[None, :], w_scaled)
        assert np.allclose(y1, y2, rtol=1e-12)

    def test_fuse_rejects_a_tau_of_the_wrong_length(self):
        for tau in (np.ones(2), np.ones(4)):
            with pytest.raises(DimensionError, match="tau must have 3 entries"):
                fuse(tau, QuantParams(0.1, 8), np.ones((3, 2)))

    def test_fuse_rejects_per_channel_act_scale(self):
        with pytest.raises(DomainError):
            fuse(
                np.ones(3),
                QuantParams(np.array([0.1, 0.2, 0.3]), 8, axis=0),
                np.ones((3, 2)),
            )


class TestSmoothquant:
    def test_balances_magnitudes(self):
        rng = Rng(13)
        x = rng.standard_normal((50, 4))
        x[:, 2] *= 64.0
        w = rng.standard_normal((4, 4))
        tau = smoothquant_tau(x, w, alpha=0.5)
        x_hat = x / tau[None, :]
        spread_before = np.max(np.abs(x), axis=0).max() / np.max(np.abs(x), axis=0).min()
        spread_after = (
            np.max(np.abs(x_hat), axis=0).max() / np.max(np.abs(x_hat), axis=0).min()
        )
        assert spread_after < spread_before

    def test_alpha_extremes(self):
        rng = Rng(14)
        x = np.abs(rng.standard_normal((10, 3))) + 0.5
        w = np.abs(rng.standard_normal((3, 3))) + 0.5
        t1 = smoothquant_tau(x, w, alpha=1.0)
        assert np.allclose(t1, np.max(np.abs(x), axis=0))
        t0 = smoothquant_tau(x, w, alpha=0.0)
        assert np.allclose(t0, 1.0 / np.max(np.abs(w), axis=1))

    def test_zero_stats_fall_back_to_one(self):
        x = np.zeros((5, 2))
        w = np.ones((2, 2))
        assert np.allclose(smoothquant_tau(x, w), 1.0)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            smoothquant_tau(np.ones((2, 2)), np.ones((2, 2)), alpha=1.5)
