import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq import les, pipeline
from denoq.errors import DimensionError, DomainError, HeadroomError
from denoq.les import (
    LayerCalibRecord,
    _check_buffers,
    _check_loss,
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
    _clamp,
    activation_codes,
    apply_output_scales,
    minmax_scale,
    quantize,
)
from denoq.tensor import Rng, matmul
from denoq.timestep_weighting import TimestepWeighter
from denoq.toydiff import collect_calibration, load_checkpoint

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "call",
    [
        lambda x, w: les_loss(x, w, np.ones(4)),
        lambda x, w: les_grad(
            x, w, np.ones(4), QuantParams(1.0, 8), QuantParams(np.ones(3), 4, axis=1)
        ),
        lambda x, w: smoothquant_tau(x, w),
    ],
    ids=["les_loss", "les_grad", "smoothquant_tau"],
)
@pytest.mark.parametrize(
    "x,w",
    [
        (np.ones(4), np.ones((4, 3))),
        (np.ones((2, 4)), np.ones(4)),
        (np.ones((2, 4)), np.ones((5, 3))),
    ],
    ids=["1-d x", "1-d w", "mismatched C_in"],
)
def test_layer_functions_refuse_shapes_that_make_no_layer(call, x, w):
    with pytest.raises(DimensionError, match="incompatible layer shapes"):
        call(x, w)


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
@pytest.mark.parametrize("out_dtype", [np.float64, np.float32, np.int64])
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


def float64_ranking(monkeypatch):
    """Make every layer rank its keep-best candidates with the float64
    check, the reference the float32 ranking is held to."""
    monkeypatch.setattr(les, "_float32_copies", lambda x, w, ref: None)


def same_result(a, b) -> bool:
    return a.tau.tobytes() == b.tau.tobytes() and (a.initial_loss, a.final_loss) == (
        b.initial_loss, b.final_loss
    )


@pytest.fixture(scope="module")
def w4a8_layers():
    """configs/w4a8.cfg at seed 0: the config, its calibration records as
    run_quantize captures them, and the sampler's timestep order."""
    cfg = pipeline.parse_config(ROOT / "configs" / "w4a8.cfg")
    model, schedule = load_checkpoint(cfg.checkpoint)
    records = collect_calibration(
        model, schedule, cfg.T, cfg.n, Rng(cfg.seed).child("calib"), eta=cfg.eta
    )
    return cfg, records, pipeline._visit_order(schedule, cfg)


@pytest.mark.parametrize("bits_a", [8, 6])
def test_float32_ranking_keeps_the_float64_choice(w4a8_layers, monkeypatch, bits_a):
    """On the four bundled layers, ranked in float32 (checked: each fits)
    and ranked by the float64 check, the descent keeps the same tau bit for
    bit, so the same iteration wins, and reports the same exact losses."""
    cfg, records, tset_desc = w4a8_layers
    cfg = dataclasses.replace(cfg, bits_a=bits_a)
    assert len(records) == 4
    for rec in records.values():
        ref = matmul(rec.activations, rec.weight)
        assert les._float32_copies(rec.activations, rec.weight, ref) is not None
    learn = lambda name: pipeline._learn(  # noqa: E731
        cfg, name, records[name], Rng(cfg.seed), tset_desc
    )
    ranked32 = {name: learn(name) for name in records}
    float64_ranking(monkeypatch)
    for name in records:
        ranked64 = learn(name)
        assert ranked64.final_loss < ranked64.initial_loss  # a tau was kept
        assert same_result(ranked32[name], ranked64), name


def test_a_layer_past_float32_ranks_in_float64(monkeypatch):
    """An activation of 1e39 is finite in float64 but not in float32: the
    layer falls back to the float64 ranking (with no cast warning, which
    the suite would raise) and learns what the float64-ranked run does."""
    rec = make_record(9, c_in=8, outlier=(1, 20.0))
    x = rec.activations.copy()
    x[5, 2] = 1e39
    rec = LayerCalibRecord("layer", x, rec.timesteps, rec.weight)
    assert les._float32_copies(x, rec.weight, matmul(x, rec.weight)) is None
    run = lambda: optimize_layer(  # noqa: E731
        rec, TimestepWeighter([1, 2, 3, 4]), Rng(2), iterations=60, lr=0.05
    )
    got = run()
    float64_ranking(monkeypatch)
    assert same_result(got, run())
    assert got.final_loss <= got.initial_loss


def ranking_against_the_check(x, w, bits_a, bits_w):
    """(ranked, checked) over 20 random tau: each a list of (loss, s_x,
    s_w bytes). checked is _check_loss on the float64 record."""
    ref = matmul(x, w)
    rank = les._ranking(ref, x, w, bits_a, bits_w, True)
    work = _check_buffers(x, ref, bits_a, bits_w)
    ranked, checked = [], []
    for seed in range(20):
        tau = np.exp(Rng(seed).uniform(-2.0, 2.0, x.shape[1]))
        for out, (loss, s_x, s_w) in (
            (ranked, rank(tau)),
            (checked, _check_loss(ref, x, w, tau, bits_a, bits_w, True, work)),
        ):
            out.append((loss, s_x, s_w.tobytes()))
    return ranked, checked


@pytest.mark.parametrize("bits_a", [8, 6])
def test_float32_tier_ranking_is_the_check_in_float32(w4a8_layers, bits_a):
    """W4A8 and W4A6 on the four bundled layers rank on float32 copies:
    the same grid bit for bit, a loss within 1e-5 of the exact check's."""
    cfg, records, _ = w4a8_layers
    for rec in records.values():
        x, w = rec.activations, rec.weight
        assert _check_buffers(x, matmul(x, w), bits_a, cfg.bits_w)[3].dtype == np.float32
        assert les._float32_copies(x, w, matmul(x, w)) is not None
        ranked, checked = ranking_against_the_check(x, w, bits_a, cfg.bits_w)
        for (loss, s_x, s_w), (want, want_x, want_w) in zip(ranked, checked):
            assert (s_x, s_w) == (want_x, want_w)
            assert abs(loss - want) <= 1e-5 * want


def test_float64_tier_ranking_is_the_check():
    """16 + 8 bits on 64 channels (30 bits) rank with the exact check."""
    rec = make_record(15, n=96, c_in=64, c_out=16, outlier=(7, 40.0))
    ranked, checked = ranking_against_the_check(rec.activations, rec.weight, 16, 8)
    assert ranked == checked


def test_optimize_layer_refuses_a_budget_past_53_bits(monkeypatch):
    """24 + 24 bits on 64 channels need 54 bits, which no float tier holds
    exactly: optimize_layer raises HeadroomError before its descent
    starts, and so does the ranking."""
    monkeypatch.setattr(les, "_les_pass", lambda *a: pytest.fail("the descent ran"))
    rec = make_record(16, n=96, c_in=64, c_out=16, outlier=(9, 40.0))
    with pytest.raises(HeadroomError, match="54 bits exceeds the 53"):
        optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(0), bits_a=24, bits_w=24)
    x, w = rec.activations, rec.weight
    with pytest.raises(HeadroomError, match="54 bits"):
        les._ranking(matmul(x, w), x, w, 24, 24, True)


@pytest.mark.parametrize("act_signed", [True, False])
@pytest.mark.parametrize("where", ["act_max", "act_min", "weight"])
def test_a_layer_that_overflows_fails_through_optimize_layer(act_signed, where):
    """The layers on which the keep-best check refuses an overflowing tau
    (test_keep_best_check_refuses_a_tau_that_overflows) end in DomainError
    when the whole descent runs on them."""
    rec = make_record(7, c_in=8)
    x, w = rec.activations.copy(), rec.weight.copy()
    if where == "weight":
        w[2, 1] = 1e305
    else:
        x[3, 2] = 1e305 if where == "act_max" else -1e305
    rec = LayerCalibRecord("layer", x, rec.timesteps, w)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        optimize_layer(
            rec, TimestepWeighter([1, 2, 3, 4]), Rng(0), iterations=20, act_signed=act_signed
        )


def exact_loss(rec, tau, bits_a=8, bits_w=4):
    x, w = rec.activations, rec.weight
    ref = matmul(x, w)
    work = _check_buffers(x, ref, bits_a, bits_w)
    return _check_loss(ref, x, w, tau, bits_a, bits_w, True, work)


@pytest.mark.parametrize("optimizer", ["gd", "adam"])
@pytest.mark.parametrize(
    "seed,outlier", [(3, (2, 50.0)), (4, (5, 100.0)), (6, (1, 30.0)), (10, None)]
)
def test_reported_losses_are_the_exact_check(optimizer, seed, outlier):
    """Candidates are ranked in float32, but the losses LesResult reports
    are the exact check's, at tau = 1 and at the tau returned."""
    rec = make_record(seed, outlier=outlier)
    res = optimize_layer(
        rec, TimestepWeighter([1, 2, 3, 4]), Rng(seed), iterations=60, lr=0.05,
        optimizer=optimizer,
    )
    assert res.initial_loss == exact_loss(rec, np.ones(8))[0]
    assert res.final_loss == exact_loss(rec, res.tau)[0]
    assert res.final_loss <= res.initial_loss


def test_a_winner_the_exact_check_scores_worse_gives_way_to_tau_one(monkeypatch):
    """A ranking that prefers what the exact check scores worst picks a
    tau that is worse than tau = 1; the exact check of the winner keeps
    tau = 1 and reports its loss."""
    rec = make_record(3, outlier=(2, 50.0))
    ranked = []

    def upside_down(ref, x, w, bits_a, bits_w, act_signed):
        work = _check_buffers(x, ref, bits_a, bits_w)

        def rank(tau):
            loss, s_x, s_w = _check_loss(ref, x, w, tau, bits_a, bits_w, act_signed, work)
            ranked.append(loss)
            return -loss, s_x, s_w

        return rank

    monkeypatch.setattr(les, "_ranking", upside_down)
    res = optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(0), iterations=40)
    assert max(ranked) > ranked[0]  # a tau other than 1 won the ranking
    assert np.array_equal(res.tau, np.ones(8))
    assert res.final_loss == res.initial_loss == exact_loss(rec, np.ones(8))[0]


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


def quantparams_pass(x, w, ref, tau, act_p, wgt_p, rounded, lam=None):
    """The batch step as it was written against QuantParams, kept as the
    oracle of the resolved-grid step: a mask from two comparisons, then
    rint, then np.clip, then the scale."""

    def fake_quant(v, p):
        s = p.scale_for(v.shape)
        lo, hi = p.bounds
        ratio = v / s
        mask = (ratio >= lo) & (ratio <= hi)
        if rounded:
            np.rint(ratio, out=ratio)
        return s * np.clip(ratio, lo, hi), mask

    x_hat, w_hat = _scaled_pair(x, w, tau)
    qx, mask_x = fake_quant(x_hat, act_p)
    qw, mask_w = fake_quant(w_hat, wgt_p)
    err = ref - np.matmul(qx, qw)
    losses = np.einsum("ij,ij->i", err, err, optimize=False)
    if lam is None:
        return losses, None
    g = (-2.0 / x.shape[0]) * (lam[:, None] * err)
    act_side = np.einsum(
        "ic,ic->c", np.matmul(g, qw.T), np.where(mask_x, -x_hat, 0.0), optimize=False
    )
    wgt_side = np.einsum(
        "cj,cj->c", np.matmul(qx.T, g), np.where(mask_w, w_hat, 0.0), optimize=False
    )
    return losses, act_side + wgt_side


def grid_edge_layer(seed, act_signed):
    """A 32-row layer on power-of-two scales, so that x / s and w / s are
    exact: its code ratios include +-0.0, both code bounds, half-codes
    (rint's ties), points half a code outside each bound and small
    negatives that round to -0.0, mixed with random ratios."""
    rng = np.random.default_rng(seed)
    s_a = 2.0**-3
    s_w = 2.0 ** rng.integers(-4, 0, 6).astype(float)
    lo_a, hi_a = (-128, 127) if act_signed else (0, 255)
    edges = [0.0, -0.0, lo_a, hi_a, lo_a - 0.5, hi_a + 0.5, 2.5, -3.5, 0.5, -0.5, -0.25]
    r = rng.uniform(lo_a - 20, hi_a + 20, (32, 8))
    r.flat[rng.choice(r.size, 120, replace=False)] = rng.choice(edges, 120)
    q = rng.uniform(-10.0, 10.0, (8, 6))
    q.flat[rng.choice(q.size, 24, replace=False)] = rng.choice(
        [0.0, -0.0, -8, 7, -8.5, 7.5, 1.5, -2.5, -0.5, -0.25], 24
    )
    x, w = s_a * r, q * s_w[None, :]
    act_p = QuantParams(s_a, 8, act_signed)
    wgt_p = QuantParams(s_w, 4, True, axis=1)
    return x, w, act_p, wgt_p


@pytest.mark.parametrize("act_signed", [True, False])
@pytest.mark.parametrize("rounded", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_resolved_grid_batch_step_is_the_quantparams_pass(act_signed, rounded, seed):
    """The batch step on the grid optimize_layer resolves (the activation
    scale, the [1 x C_out] weight-scale row and both bounds) returns the
    losses and gradient of les_loss / les_grad and of the QuantParams
    pass, bit for bit, at tau = 1 (exact ratios on the edges) and at a
    random tau."""
    x, w, act_p, wgt_p = grid_edge_layer(seed, act_signed)
    ref = matmul(x, w)
    lam = np.random.default_rng(seed).uniform(0.0, 1.0, 32)
    grid = (act_p.scale, wgt_p.scale[None, :], act_p.bounds, wgt_p.bounds)
    for tau in (np.ones(8), np.exp(Rng(seed).uniform(-1.0, 1.0, 8))):
        want_losses = quantparams_pass(x, w, ref, tau, act_p, wgt_p, rounded)[0]
        want_grad = quantparams_pass(x, w, ref, tau, act_p, wgt_p, rounded, lam)[1]
        losses, grad = les._les_pass(x, w, ref, tau, grid, rounded, lam)
        assert losses.tobytes() == want_losses.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        got = les_loss(x, w, tau, act_params=act_p, weight_params=wgt_p, rounded=rounded)
        assert got.tobytes() == want_losses.tobytes()
        got = les_grad(x, w, tau, act_p, wgt_p, lam, rounded=rounded)
        assert got.tobytes() == want_grad.tobytes()


def test_the_descent_looks_its_record_up_once(monkeypatch):
    """optimize_layer searches the weighter for the record's timesteps
    once, then takes every batch's positions from that lookup."""
    rec = make_record(5, outlier=(2, 30.0))
    calls = []
    lookup = TimestepWeighter.lookup

    def counted(self, timesteps):
        calls.append(len(timesteps))
        return lookup(self, timesteps)

    monkeypatch.setattr(TimestepWeighter, "lookup", counted)
    optimize_layer(rec, TimestepWeighter([1, 2, 3, 4]), Rng(0), iterations=30)
    assert calls == [rec.timesteps.shape[0]]
