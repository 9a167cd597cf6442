"""Learned equivalent scaling of activation channels into weight rows.

A matmul is invariant under dividing activation column c by tau_c while
multiplying weight row c by the same factor. That degree of freedom is free
real estate for quantization: channels whose magnitudes dwarf the rest of
the tensor can be shrunk before the activation quantizer sees them, with the
surplus pushed into the weights where per-column scales absorb it more
gracefully. This module learns those per-channel factors by gradient
descent on the layer reconstruction error

    loss_i = || (X W)_i  -  Q(X / tau) Q(tau * W)_i ||^2

where Q is the plain MinMax quantizer, and then fuses the learned factors
into the activation quantization step so inference pays nothing extra: the
deployed layer quantizes x with the per-channel divisor tau_c * s, one
division where the loss above has two. The two agree except where x / tau
lands next to a half-code boundary, so the keep-best check, which decides
what is kept, uses the fused divisor.

The keep-best check, _check_loss, is one loss built for one layer's x and
ref: it makes its buffers once, from their dtypes, and returns the loss as
a function of tau, in those dtypes. optimize_layer checks tau = 1 exactly,
on the float64 record. It ranks every iteration's tau with a second check:
on float32 copies of x and ref where the code product runs in the float32
tier (tensor.code_dtype) and the copies stay in range (_float32_copies),
at about half the cost of the float64 loss, else on the record itself. It
then checks the winner exactly. So the losses a LesResult reports are
exact, and a winner that the exact check does not score below tau = 1
gives way to it. A layer whose budget exceeds 53 bits has no tier:
building its first check raises HeadroomError before the descent starts.
The check validates what can go wrong at a new tau: the fitted MinMax
scales, float64 in every dtype, must be positive reals, so a layer whose
scaled activations or weights overflow fails there with DomainError. It
does not clamp codes: a MinMax scale fitted at this tau bounds every code
within the range already (see _codes_into). Its two per-column passes run
on wide views of x against rows repeated _REPEAT-fold, which gives the
same bits in longer loops.

The descent's batch step (_les_pass) runs on the validated record and
the clipped tau, against the grid of the last refresh resolved once: the
activation scale, the weight-scale row and both code bounds. So its
products skip tensor.matmul's scans and its fake-quant reads no
QuantParams. The record's timesteps are looked up in the weighter once
per layer, and the weighter's check that every batch loss is finite
stops a descent whose losses overflow. The public les_loss and les_grad
refuse such a result with DomainError themselves.

Gradients use the straight-through convention: rounding passes gradients
unchanged, clamped elements pass nothing, and the quantizer scales are held
constant within a step (the optimizer refreshes them on a fixed cadence).
Factors are parameterized as log_tau, so tau stays positive and a zero
initialization means "no scaling".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .igemm import accumulator_budget
from .quant import SCALE_FLOOR, QuantParams, _clamp, code_bounds, minmax_scale
from .tensor import Rng, Tensor, as_real, code_dtype, code_matmul, matmul
from .timestep_weighting import TimestepWeighter

# Descent safeguards: gradients are norm-clipped and log factors bounded to
# tau in [1e-4, 1e4]. Outlier layers otherwise blow up the first few
# log-space steps badly enough to underflow tau to zero.
_MAX_GRAD_NORM = 10.0
_LOG_TAU_BOUND = float(np.log(1e4))

# Rows of a keep-best check taken together in its per-column passes
# (_check_loss): on 64 channels, 8 192 elements per inner loop.
_REPEAT = 128


@dataclass
class LayerCalibRecord:
    """Captured inputs of one matmul site across the calibration run.

    activations: [B_total x C_in] rows in capture order.
    timesteps: the sampler timestep each row was captured at, length B_total.
    weight: the layer's full-precision weight, [C_in x C_out].
    """

    name: str
    activations: np.ndarray
    timesteps: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.activations = as_real(self.activations, f"{self.name} activations")
        self.weight = as_real(self.weight, f"{self.name} weight")
        self.timesteps = np.asarray(self.timesteps, dtype=np.int64).reshape(-1)
        if self.activations.ndim != 2 or self.weight.ndim != 2:
            raise DimensionError("activations and weight must be 2-d")
        if self.activations.shape[0] != self.timesteps.shape[0]:
            raise DimensionError("one timestep per captured activation row required")
        if self.activations.shape[1] != self.weight.shape[0]:
            raise DimensionError(
                f"{self.name}: activations have C_in={self.activations.shape[1]} "
                f"but weight has {self.weight.shape[0]} rows"
            )


def _check_layer(x: Tensor, w: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """x and w as real arrays, refused unless they are a 2-d layer input
    [B x C_in] and a 2-d weight [C_in x C_out]."""
    x = as_real(x, "activations")
    w = as_real(w, "weight")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise DimensionError(f"incompatible layer shapes {x.shape} and {w.shape}")
    return x, w


def _check_tau(tau, c_in: int) -> np.ndarray:
    tau = as_real(tau, "tau").reshape(-1)
    if tau.shape[0] != c_in:
        raise DimensionError(f"tau must have {c_in} entries, got {tau.shape[0]}")
    if np.any(tau <= 0.0):
        raise DomainError("tau must be strictly positive")
    return tau


def _scaled_pair(x: Tensor, w: Tensor, tau: np.ndarray) -> tuple[Tensor, Tensor]:
    return x / tau[None, :], w * tau[:, None]


def _fake_quant(v: Tensor, scale, low: int, high: int, rounded: bool):
    """Fake-quantize v on a resolved grid; returns (values, straight-through
    mask).

    The mask marks the elements inside [low, high] before rounding, which
    is where the straight-through estimator passes gradients: exactly the
    ratios the clamp leaves as they are. The clamp is np.clip's, bound
    first as in _codes_into, so a -0.0 stays -0.0 as np.clip keeps it.
    Rounding after the clamp gives the values of rounding before it, since
    rint(clip(r)) == clip(rint(r)) for every finite r with integer bounds;
    only the sign of a zero code can differ (a ratio in [-1/2, 0) against a
    bound of 0), which no product or loss of the pass sees.
    """
    ratio = v / scale
    clamped = np.maximum(low, ratio)
    np.minimum(high, clamped, out=clamped)
    mask = clamped == ratio
    if rounded:
        np.rint(clamped, out=clamped)
    clamped *= scale
    return clamped, mask


def _grid(act_params: QuantParams, weight_params: QuantParams, x: Tensor, w: Tensor) -> tuple:
    """A frozen grid in the form _les_pass takes: the activation scale and
    the weight scales broadcast against x and w, then the (lowest, highest)
    code of each."""
    return (
        act_params.scale_for(x.shape), weight_params.scale_for(w.shape),
        act_params.bounds, weight_params.bounds,
    )


def _finite(result: np.ndarray, what: str) -> np.ndarray:
    """result, unless a product that overflowed made it non-finite."""
    if not np.isfinite(result).all():
        raise DomainError(f"{what}: the result is not finite (a product overflows)")
    return result


def _les_pass(
    x: np.ndarray, w: np.ndarray, ref: np.ndarray, tau: np.ndarray,
    grid: tuple, rounded: bool, sample_weights=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One forward pass of the scaled, quantized layer on validated inputs.

    ref is the full-precision product matmul(x, w). grid is the frozen
    quantization grid, resolved (_grid): the activation scale, the weight
    scales as a [1 x C_out] row, and the (lowest, highest) code of each.
    optimize_layer resolves it once per scale refresh; les_loss and
    les_grad resolve it from their QuantParams. Returns the per-sample
    losses and, when sample_weights is given, the straight-through
    gradient of their weighted mean with respect to log_tau (None
    otherwise).
    """
    x_hat, w_hat = _scaled_pair(x, w, tau)
    s_a, s_w, (l_a, u_a), (l_w, u_w) = grid
    qx, mask_x = _fake_quant(x_hat, s_a, l_a, u_a, rounded)
    qw, mask_w = _fake_quant(w_hat, s_w, l_w, u_w, rounded)
    # Every operand below is made from validated inputs and clamped codes,
    # so the products skip matmul's scans. A product that overflows shows
    # as a non-finite result, which les_loss and les_grad refuse and the
    # weighter refuses in the descent.
    err = ref - np.matmul(qx, qw)
    losses = np.einsum("ij,ij->i", err, err, optimize=False)
    if sample_weights is None:
        return losses, None
    # d(loss)/d(Qx Qw) with the -2/B and per-sample weights folded in.
    g = (-2.0 / x.shape[0]) * (sample_weights[:, None] * err)
    # Activation route: d x_hat / d log_tau_c = -x_hat[:, c].
    act_side = np.einsum(
        "ic,ic->c", np.matmul(g, qw.T), np.where(mask_x, -x_hat, 0.0), optimize=False
    )
    # Weight route: d w_hat / d log_tau_c = +w_hat[c, :].
    wgt_side = np.einsum(
        "cj,cj->c", np.matmul(qx.T, g), np.where(mask_w, w_hat, 0.0), optimize=False
    )
    return losses, act_side + wgt_side


def les_loss(
    x: Tensor,
    w: Tensor,
    tau,
    bits_a: int = 8,
    bits_w: int = 4,
    act_params: QuantParams | None = None,
    weight_params: QuantParams | None = None,
    *,
    rounded: bool = True,
    act_signed: bool = True,
) -> np.ndarray:
    """Per-sample reconstruction losses of the scaled, quantized layer.

    When act_params / weight_params are omitted they are recomputed by
    MinMax on the scaled tensors for this evaluation; passing them freezes
    the quantization grid, which is how the optimizer evaluates within a
    step. rounded=False replaces round with the identity (quantization
    becomes pure range clipping), the differentiable surrogate that the
    straight-through gradient is exact for. Losses that an overflowing
    product made non-finite are a DomainError.
    """
    x, w = _check_layer(x, w)
    tau = _check_tau(tau, x.shape[1])
    if act_params is None or weight_params is None:
        x_hat, w_hat = _scaled_pair(x, w, tau)
        act_params = minmax_scale(x_hat, bits_a, signed=act_signed)
        weight_params = minmax_scale(w_hat, bits_w, signed=True, axis=1)
    grid = _grid(act_params, weight_params, x, w)
    losses = _les_pass(x, w, matmul(x, w), tau, grid, rounded)[0]
    return _finite(losses, "les_loss")


def les_grad(
    x: Tensor,
    w: Tensor,
    tau,
    act_params: QuantParams,
    weight_params: QuantParams,
    sample_weights=None,
    *,
    rounded: bool = True,
) -> np.ndarray:
    """Gradient of the weighted mean loss with respect to log_tau.

    Straight-through semantics: round contributes identity, clamped elements
    contribute nothing, and the quantizer scales are treated as constants.
    sample_weights defaults to all ones; it must already be frozen for the
    batch (the optimizer reads the weighter before updating it). A
    gradient that an overflowing product made non-finite is a DomainError.
    """
    x, w = _check_layer(x, w)
    tau = _check_tau(tau, x.shape[1])
    b = x.shape[0]
    if sample_weights is None:
        lam = np.ones(b)
    else:
        lam = as_real(sample_weights, "sample weights").reshape(-1)
        if lam.shape[0] != b:
            raise DimensionError("one sample weight per activation row required")
    grid = _grid(act_params, weight_params, x, w)
    grad = _les_pass(x, w, matmul(x, w), tau, grid, rounded, lam)[1]
    return _finite(grad, "les_grad")


@dataclass
class LesResult:
    """Outcome of optimizing one layer: the best factors, the mean loss at
    tau = 1 and the mean loss at the best factors."""

    tau: np.ndarray
    initial_loss: float
    final_loss: float


def _codes_into(
    v: Tensor, divisor, signed: bool, buf: np.ndarray, out=None
) -> np.ndarray:
    """Codes of v against a MinMax scale fitted to v, without the clamp
    that such a scale never hits; computed in buf (which may be v itself)
    and written into out when given (its dtype must hold them exactly).

    rint(v / divisor) stays within [-u, u]. An activation column's divisor
    is one rounding of tau * s, a weight column's is s itself. s =
    max(m / u, SCALE_FLOOR) is one rounding of m / u, where m is the
    largest |x / tau| up to one rounding (for the weights, exactly the
    largest |v|). So |v / divisor| <= u (1 + 4 eps) < u + 1/2 for every u
    below 2^50, and rint cannot go past u, nor past -u on a signed grid,
    whose lowest code is -u - 1. The floor only makes the quotients
    smaller. An unsigned grid is fitted to max(v, 0) and keeps its lower
    clamp at 0, which negative inputs reach.
    """
    np.divide(v, divisor, out=buf)
    if signed:
        return np.rint(buf, out=buf if out is None else out)
    np.rint(buf, out=buf)
    # the bound goes first, so a -0.0 stays -0.0 as np.clip keeps it
    return np.maximum(0.0, buf, out=buf if out is None else out)


def _extremes(x: Tensor) -> np.ndarray:
    """The column maxima and minima of x, stacked [2 x C_in]: dividing by a
    positive tau is monotone, so the extremes of x / tau are those of
    extremes / tau, bit for bit."""
    return np.stack((x.max(axis=0), x.min(axis=0)))


def _check_loss(
    ref: Tensor, x: Tensor, w: Tensor, extremes: np.ndarray,
    bits_a: int, bits_w: int, act_signed: bool,
):
    """The keep-best check of one layer: check(tau) -> (loss, s_x, s_w),
    the deployment-faithful mean loss with fresh MinMax at this tau and
    real rounding, the activation scale and the weight scale of each
    column. extremes are the column extremes of the float64 record
    (_extremes).

    Building it raises HeadroomError when the layer's budget has no tier
    (tensor.code_dtype), and makes the buffers every call reuses, in C
    order as the wide views below need: one shaped like x in x's dtype, a
    codes buffer in the tier's dtype unless that is x's (then the codes
    go into the first), an accumulator shaped like ref in ref's dtype, and
    the two per-column rows, the fused divisor and the output scales.
    Against a row of C factors numpy's inner loop is only C elements long,
    so each row is repeated k = gcd(rows, _REPEAT) times and applied to a
    [rows/k x k*C] view: the same elementwise operations, so the same
    bits, in loops k times longer.

    The grid is minmax_scale's without its scans, in float64: the
    activation scale from extremes divided by tau, the weight scales from
    w * tau. check raises DomainError unless the scales are positive reals
    (a tau at which x / tau or w * tau overflows). The quantized product
    is the deployed one of an unrescued layer: x divided once by the fused
    divisor tau * s (what les.fuse exports), codes left unclamped
    (_codes_into), and a code product with both scales applied outside the
    accumulation. On float32 copies of x and ref (_float32_copies) the
    divisor and the scales' product are rounded to float32, and the codes,
    scaling, error and row sums are float32. The mean is float64.
    """
    budget = accumulator_budget(bits_a, bits_w, 0, x.shape[1])
    codes = code_dtype(budget)
    x_buf = np.empty(x.shape, x.dtype)
    code_buf = x_buf if x.dtype == codes else np.empty(x.shape, codes)
    acc_buf = np.empty(ref.shape, ref.dtype)
    k = math.gcd(x.shape[0], _REPEAT)
    divisor, scales = np.empty((k, x.shape[1]), x.dtype), np.empty((k, ref.shape[1]), ref.dtype)
    wide = x.shape[0] // k
    x_wide, buf_wide, code_wide = (v.reshape(wide, -1) for v in (x, x_buf, code_buf))
    acc_wide = acc_buf.reshape(wide, -1)
    _, u_a = code_bounds(bits_a, act_signed)
    _, u_w = code_bounds(bits_w, True)

    def check(tau: np.ndarray) -> tuple[float, float, np.ndarray]:
        scaled = extremes / tau[None, :]
        hi, lo = float(scaled.max()), float(scaled.min())
        s_x = max(max(hi, -lo if act_signed else 0.0) / u_a, SCALE_FLOOR)
        w_hat = w * tau[:, None]
        s_w = np.maximum(np.max(np.abs(w_hat), axis=0) / u_w, SCALE_FLOOR)
        # The floor makes every scale that is not NaN positive. lo is read
        # on an unsigned grid too: minmax_scale refuses an overflowed
        # minimum although it does not set the scale.
        if not (math.isfinite(lo) and math.isfinite(s_x) and np.isfinite(s_w).all()):
            raise DomainError(
                "keep-best check: the MinMax scales at this tau are not positive "
                "reals (the scaled activations or weights overflow)"
            )
        # each row in float64, rounded once into its buffer's dtype
        divisor[...] = tau * s_x
        _codes_into(x_wide, divisor.reshape(1, -1), act_signed, buf_wide, code_wide)
        w_codes = _codes_into(w_hat, s_w[None, :], True, w_hat)
        code_matmul(code_buf, w_codes, budget, out=acc_buf)
        scales[...] = s_x * s_w
        np.multiply(acc_wide, scales.reshape(1, -1), out=acc_wide)
        err = np.subtract(ref, acc_buf, out=acc_buf)
        rows = np.einsum("ij,ij->i", err, err, optimize=False)
        return float(np.mean(rows, dtype=np.float64)), s_x, s_w

    return check


def _float32_copies(x: Tensor, w: Tensor, ref: Tensor, bits_a: int, bits_w: int) -> tuple | None:
    """float32 copies (ref, x) for the float32 ranking, or None unless the
    code product runs in the float32 tier and the ranking stays inside the
    float32 range at every tau of the descent.

    The bound covers every intermediate of _check_loss in float32 for tau
    within [1/t, t] (t = 1e4, doubled against rounding). A fitted
    activation scale times u_a is at most t max|x|, and a weight scale
    times u_w at most t max|w|, plus less than 1 from the scale floors. A
    dequantized product entry is then at most e = C_in (t max|x| + 1)
    (t max|w| + 1), a fused divisor at most t e, and a row sum of squared
    errors at most C_out (max|ref| + e)^2, which must stay a factor of
    four inside float32's largest value.
    """
    if code_dtype(accumulator_budget(bits_a, bits_w, 0, x.shape[1])) is not np.float32:
        return None
    t = 2.0 * math.exp(_LOG_TAU_BOUND)
    big_x, big_w, big_ref = (float(np.max(np.abs(v))) for v in (x, w, ref))
    err = big_ref + x.shape[1] * (t * big_x + 1.0) * (t * big_w + 1.0)
    if not ref.shape[1] * err * err <= 0.25 * float(np.finfo(np.float32).max):
        return None
    return ref.astype(np.float32), x.astype(np.float32)


def optimize_layer(
    record: LayerCalibRecord,
    weighter: TimestepWeighter,
    rng: Rng,
    *,
    bits_a: int = 8,
    bits_w: int = 4,
    iterations: int = 200,
    lr: float = 1e-2,
    batch_size: int = 32,
    optimizer: str = "gd",
    scale_refresh: int = 10,
    act_signed: bool = True,
) -> LesResult:
    """Learn per-channel factors for one layer by straight-through descent.

    Batches are drawn from a seeded shuffle, reshuffled each epoch. The
    quantizer grid is refreshed by MinMax every scale_refresh iterations and
    frozen in between. A keep-best snapshot guards the outcome, as three
    uses of the keep-best check (_check_loss): tau = 1 is checked exactly,
    every iteration's tau is ranked by its full-set mean loss (on float32
    copies in the float32 tier, _float32_copies), and the best one is
    checked exactly. The returned tau is that one if its exact loss is
    below the exact loss at tau = 1, else tau = 1, so the result is never
    worse than the starting point. initial_loss and final_loss are
    exact-check losses.
    """
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    if optimizer not in ("gd", "adam"):
        raise DomainError(f"unknown optimizer {optimizer!r}")
    if scale_refresh < 1:
        raise DomainError("scale_refresh must be >= 1")
    x, w = record.activations, record.weight
    c_in = x.shape[1]
    n_rows = x.shape[0]
    ref = matmul(x, w)
    bounds = (code_bounds(bits_a, act_signed), code_bounds(bits_w, True))
    found = weighter.lookup(record.timesteps)
    log_tau = np.zeros(c_in)
    tau = best_tau = identity = np.ones(c_in)
    extremes = _extremes(x)
    initial = _check_loss(ref, x, w, extremes, bits_a, bits_w, act_signed)(identity)[0]
    copies = _float32_copies(x, w, ref, bits_a, bits_w) or (ref, x)
    rank = _check_loss(*copies, w, extremes, bits_a, bits_w, act_signed)
    best, s_x, s_w = rank(tau)
    m = v = np.zeros(c_in)  # Adam's moment estimates
    order = rng.permutation(n_rows)
    cursor = 0
    for iteration in range(iterations):
        if cursor >= n_rows:
            order = rng.permutation(n_rows)
            cursor = 0
        batch = order[cursor : cursor + batch_size]
        cursor += batch_size
        if iteration % scale_refresh == 0:
            # The last keep-best ranking already fitted MinMax at this tau.
            grid = (s_x, s_w[None, :]) + bounds
        steps = found[batch]
        # The record and the clipped log_tau already guarantee what
        # les_loss / les_grad would validate.
        lam = weighter.weights(steps)
        losses, grad = _les_pass(x[batch], w, ref[batch], tau, grid, True, lam)
        weighter.weighted_mean(losses, steps)
        # Outlier layers produce enormous early gradients; a norm clip keeps
        # log-space steps sane without touching the descent direction.
        gnorm = float(np.sqrt(np.sum(grad * grad)))
        if gnorm > _MAX_GRAD_NORM:
            grad = grad * (_MAX_GRAD_NORM / gnorm)
        # A large finite lr can overflow the step to +-inf, which the clamp
        # bounds like any other step.
        with np.errstate(over="ignore"):
            if optimizer == "gd":
                log_tau = log_tau - lr * grad
            else:  # adam
                b1, b2, eps = 0.9, 0.999, 1e-8
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad * grad
                k = iteration + 1
                m_hat = m / (1 - b1**k)
                v_hat = v / (1 - b2**k)
                log_tau = log_tau - lr * m_hat / (np.sqrt(v_hat) + eps)
        _clamp(log_tau, -_LOG_TAU_BOUND, _LOG_TAU_BOUND, log_tau)
        tau = np.exp(log_tau)
        candidate, s_x, s_w = rank(tau)
        if candidate < best:
            best = candidate
            best_tau = tau
    del rank, copies  # frees the ranking's buffers before the exact check makes its own
    if best_tau is not identity:
        final = _check_loss(ref, x, w, extremes, bits_a, bits_w, act_signed)(best_tau)[0]
        if final < initial:
            return LesResult(best_tau, initial, final)
    return LesResult(identity, initial, initial)


def fuse(tau, act_params: QuantParams, w: Tensor) -> tuple[np.ndarray, Tensor]:
    """Fold learned factors into deployable form.

    Returns the per-channel activation divisors (tau_c * act scale) and the
    row-scaled weight tensor, ready for fresh per-column weight MinMax.
    Quantizing X against the fused divisors is one division per element;
    it gives the codes of dividing by tau first and quantizing with the
    plain scale except where the two roundings fall on either side of a
    half-code boundary.
    """
    w = as_real(w, "weight")
    if w.ndim != 2:
        raise DimensionError("weight must be 2-d")
    tau = _check_tau(tau, w.shape[0])
    if act_params.axis is not None:
        raise DomainError("fused activation quantization requires a per-tensor scale")
    fused = tau * act_params.scale
    return fused, w * tau[:, None]


def smoothquant_tau(x: Tensor, w: Tensor, alpha: float = 0.5) -> np.ndarray:
    """Closed-form migration baseline: tau_c = max|X_c|^a / max|W_c|^(1-a).

    Channels where either statistic vanishes fall back to 1. Provided as a
    pass-through alternative to the learned factors; no tuning, no claims.
    """
    x, w = _check_layer(x, w)
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must lie in [0, 1]")
    act_max = np.max(np.abs(x), axis=0)
    wgt_max = np.max(np.abs(w), axis=1)
    tau = np.where(
        (act_max > 0) & (wgt_max > 0),
        act_max**alpha / np.where(wgt_max > 0, wgt_max, 1.0) ** (1.0 - alpha),
        1.0,
    )
    return np.maximum(tau, 1e-5)
