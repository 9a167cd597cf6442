"""Per-channel power-of-two range rescue for activation quantization.

A per-tensor activation scale leaves no slack for channels whose magnitudes
sit far above the bulk: either the scale covers them and crushes everyone
else's resolution, or it covers the bulk and clips them. The compromise here
widens the range of individual channels by exact powers of two,

    code = clamp(round(x / (2^delta_c * divisor_c)), l, u)

because a power-of-two factor costs nothing at execution time: it folds onto
the integer weight codes as a bit shift instead of a real multiply.

Exponent selection is a vote. Every calibration sample nominates, per
channel, the exponent that minimizes its own squared reconstruction error;
a channel only receives a non-zero exponent when a clear majority (strictly
above the agreement threshold kappa) backs one candidate, otherwise it falls
back to zero. Occasional stragglers therefore cannot widen a channel that is
well behaved most of the time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .quant import QuantParams, code_bounds, minmax_scale, quantize
from .tensor import IntTensor, Tensor, as_real


@dataclass(frozen=True)
class PtsFactors:
    """Voted per-channel exponents plus the agreement that backed them."""

    exponents: np.ndarray
    agreement: np.ndarray
    kappa: float

    def __post_init__(self):
        exps = np.asarray(self.exponents)
        if not np.issubdtype(exps.dtype, np.integer):
            raise DomainError("exponents must be integers")
        exps = exps.astype(np.int64)
        agree = np.asarray(self.agreement, dtype=np.float64)
        if exps.ndim != 1 or agree.shape != exps.shape:
            raise DimensionError("exponents and agreement must be matching vectors")
        if exps.size and exps.min() < 0:
            raise DomainError("exponents must be non-negative")
        if np.any((agree < 0.0) | (agree > 1.0)):
            raise DomainError("agreement fractions must lie in [0, 1]")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "agreement", agree)


def _check_ladder(base_scale: float, max_exponent: int) -> None:
    if not (base_scale > 0.0 and np.isfinite(base_scale)):
        raise DomainError(f"base scale must be a positive real, got {base_scale}")
    if max_exponent < 0:
        raise DomainError("max exponent must be >= 0")


def _candidate_error(x: np.ndarray, scale, l: int, u: int, out=None) -> np.ndarray:
    """Squared reconstruction error (x - scale * clip(rint(x / scale), l, u))^2.

    Elementwise; scale is a scalar or broadcasts against x. Written into out
    (allocated when None) one operation at a time, so no temporary is made.
    """
    out = np.divide(x, scale, out=out)
    np.rint(out, out=out)
    np.clip(out, l, u, out=out)
    np.multiply(out, scale, out=out)
    np.subtract(x, out, out=out)
    return np.square(out, out=out)


def per_sample_best(
    values, base_scale: float, max_exponent: int, *, bits: int, signed: bool = True
) -> int:
    """One sample's preferred exponent for one channel.

    values is that channel's slice of a single calibration sample. Returns
    the d in {0..max_exponent} minimizing the summed squared reconstruction
    error at scale base_scale * 2^d; ties break toward the smaller exponent.
    """
    v = as_real(values, "channel values").reshape(-1)
    _check_ladder(base_scale, max_exponent)
    l, u = code_bounds(bits, signed)
    errs = [
        _candidate_error(v, base_scale * float(2**d), l, u).sum()
        for d in range(max_exponent + 1)
    ]
    return int(np.argmin(errs))


def per_sample_matrix(
    x: Tensor, base_scale: float, max_exponent: int, *, bits: int, signed: bool = True
) -> np.ndarray:
    """Preferred exponents of every (sample, channel) pair at once.

    Each row of x is treated as one calibration sample; entry [i, c] equals
    per_sample_best(x[i, c], ...). The candidates are scored one error plane
    at a time against a running minimum, so memory stays O(N x C) whatever
    max_exponent is; a later exponent wins only on a strictly smaller error,
    which breaks ties toward the smaller exponent.
    """
    x = as_real(x, "activations")
    if x.ndim != 2:
        raise DimensionError("per_sample_matrix expects a 2-d activation tensor")
    _check_ladder(base_scale, max_exponent)
    l, u = code_bounds(bits, signed)
    best = _candidate_error(x, base_scale, l, u)
    err = np.empty_like(best)
    better = np.empty(x.shape, dtype=bool)
    winner = np.zeros(x.shape, dtype=np.min_scalar_type(max_exponent))
    step = np.empty_like(winner)
    for d in range(1, max_exponent + 1):
        _candidate_error(x, base_scale * float(2**d), l, u, out=err)
        np.less(err, best, out=better)
        # d exceeds every earlier winner, so max(winner, d * better) sets
        # exactly the improved entries to d.
        np.multiply(better, winner.dtype.type(d), out=step)
        np.maximum(winner, step, out=winner)
        np.minimum(best, err, out=best)
    del best, err, better, step  # free the planes before widening
    return winner.astype(np.int64)


def vote(per_sample: np.ndarray, kappa: float) -> PtsFactors:
    """Aggregate per-sample nominations into one exponent per channel.

    The channel's mode wins only if its agreement fraction strictly exceeds
    kappa; otherwise the channel keeps exponent 0. Modal ties break toward
    the smaller exponent.
    """
    votes = np.asarray(per_sample)
    if not np.issubdtype(votes.dtype, np.integer):
        raise DomainError("per-sample exponents must be integers")
    if votes.ndim != 2 or votes.shape[0] < 1:
        raise DimensionError("per-sample exponents must be a non-empty [N x C] matrix")
    if votes.size and votes.min() < 0:
        raise DomainError("per-sample exponents must be non-negative")
    if not (0.0 < kappa <= 1.0):
        raise DomainError(f"kappa must lie in (0, 1], got {kappa}")
    n, c = votes.shape
    top = int(votes.max()) if votes.size else 0
    counts = np.stack(
        [np.count_nonzero(votes == d, axis=0) for d in range(top + 1)]
    )
    mode = np.argmax(counts, axis=0)  # first max: smaller exponent wins ties
    agreement = counts[mode, np.arange(c)] / n
    exponents = np.where(agreement > kappa, mode, 0).astype(np.int64)
    return PtsFactors(exponents, agreement, float(kappa))


def quantize_with_pts(
    x: Tensor, tau, base_scale: float, delta, *, bits: int, signed: bool = True
) -> IntTensor:
    """Quantize activations with scaling factors and exponents folded in.

    The per-channel divisor is 2^delta_c * tau_c * base_scale. The
    dequantization contract is value = (2^delta_c * base_scale) * code: tau
    lives in the weights after fusion and never reappears. tau of all ones
    is the no-scaling case. Multiplying by 2^delta is exact in floating
    point, so these codes match the shift-free divide-then-quantize path
    bit for bit.
    """
    x = as_real(x, "activations")
    if x.ndim != 2:
        raise DimensionError("quantize_with_pts expects a 2-d activation tensor")
    c = x.shape[1]
    tau = as_real(tau, "tau").reshape(-1)
    if tau.shape[0] != c or np.any(tau <= 0.0):
        raise DomainError(f"tau must be {c} strictly positive reals")
    if not (base_scale > 0.0 and np.isfinite(base_scale)):
        raise DomainError("base scale must be a positive real")
    delta = np.asarray(delta)
    if not np.issubdtype(delta.dtype, np.integer):
        raise DomainError("exponents must be integers")
    delta = delta.astype(np.int64).reshape(-1)
    if delta.shape[0] != c or (delta.size and delta.min() < 0):
        raise DomainError(f"exponents must be {c} non-negative integers")
    divisor = np.exp2(delta.astype(np.float64)) * (tau * base_scale)
    return quantize(x, QuantParams(divisor, bits, signed, axis=1))


def calibrate_activation_scaling(
    x_hat: Tensor,
    *,
    bits: int,
    signed: bool = True,
    max_exponent: int,
    kappa: float,
) -> tuple[float, PtsFactors]:
    """Joint choice of a per-tensor base scale and per-channel exponents.

    Plain MinMax covers the largest magnitude in the whole tensor by
    construction, so nothing ever clips and every vote lands on zero; a
    bulk-oriented base scale is what gives the exponents a job. Candidates
    walk the MinMax scale down by powers of two (never further than
    2^max_exponent, beyond which the largest channel could no longer be
    rescued), run the vote at each rung, and keep the rung whose total
    post-rescue reconstruction error over the calibration tensor is
    smallest. Ties prefer the larger scale.

    x_hat must already carry any learned channel scaling.
    """
    x_hat = as_real(x_hat, "scaled activations")
    if x_hat.ndim != 2:
        raise DimensionError("expected a 2-d activation tensor")
    s0 = minmax_scale(x_hat, bits, signed=signed).scale
    l, u = code_bounds(bits, signed)
    best = None
    for g in range(max_exponent + 1):
        s_g = s0 / float(2**g)  # exact: power-of-two division
        factors = vote(
            per_sample_matrix(x_hat, s_g, max_exponent, bits=bits, signed=signed),
            kappa,
        )
        # The same divisor and codes quantize_with_pts(x_hat, ones, s_g, ...)
        # would give, dequantized without the int64 round trip.
        channel_scale = np.exp2(factors.exponents.astype(np.float64)) * s_g
        err = float(np.sum(_candidate_error(x_hat, channel_scale, l, u)))
        if best is None or err < best[0]:
            best = (err, s_g, factors)
    return best[1], best[2]
