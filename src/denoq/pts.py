"""Per-channel power-of-two range rescue for activation quantization.

A per-tensor activation scale leaves no slack for channels whose magnitudes
sit far above the bulk: either the scale covers them and crushes everyone
else's resolution, or it covers the bulk and clips them. The compromise here
widens the range of individual channels by exact powers of two,

    code = clamp(round(x / (2^delta_c * divisor_c)), l, u)

because a power-of-two factor costs nothing at execution time: it folds onto
the integer weight codes as a bit shift instead of a real multiply. This
module only chooses the exponents; quant.QuantizedLayer builds that divisor
and quant.activation_codes divides by it.

Exponent selection is a vote. Every calibration sample nominates, per
channel, the exponent that minimizes its own squared reconstruction error;
a channel only receives a non-zero exponent when a clear majority (strictly
above the agreement threshold kappa) backs one candidate, otherwise it falls
back to zero. Occasional stragglers therefore cannot widen a channel that is
well behaved most of the time.

The calibration ladder runs that vote at D+1 base scales a power of two
apart, so its (D+1)^2 candidate scales are only 2D+1 distinct ones. One
kernel walks the activations in row blocks, scores each distinct scale once
per block into cache-sized buffers (one division by the smallest scale,
then exact power-of-two multiplies), adds every rung's winners to exact
integer vote counts and sums each candidate's errors per channel. A rung's
post-rescue error is one of those sums per channel, so the ladder is scored
without another pass over the activations. The sums run over the rows in
order and the counts are exact, so the result does not depend on the block
size; the working memory beyond the activations is at most one N x C plane
for any D.

Every count and every sum belongs to one channel, so a large tensor's vote
is split into channel shares by workers.share_slices and run by
workers.run_shares: this process scores the first share and a forked child
each other one, every share reading its columns of the activations in
place, and the shares are joined along the channel axis bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import DimensionError, DomainError
from .quant import _clamp, code_bounds, minmax_scale
# Unused here; kept because the benchmark's span tracer (perfbench/spans.py)
# patches this name.
from .quant import quantize  # noqa: F401
from .tensor import Tensor, as_real


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

    @classmethod
    def _trusted(cls, exponents: np.ndarray, agreement: np.ndarray, kappa: float):
        """Take over what _grant builds, unchecked: int64 exponents >= 0 and
        float64 agreement fractions in [0, 1], as matching vectors."""
        factors = object.__new__(cls)
        factors.__dict__.update(exponents=exponents, agreement=agreement, kappa=kappa)
        return factors


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
    return _error_of_quotient(x, out, scale, l, u)


def _error_of_quotient(x: np.ndarray, q: np.ndarray, scale, l: int, u: int) -> np.ndarray:
    """_candidate_error from the quotient q = x / scale, in place in q."""
    np.rint(q, out=q)
    _clamp(q, l, u, q)
    np.multiply(q, scale, out=q)
    np.subtract(x, q, out=q)
    return np.square(q, out=q)


# Row blocks of the selection kernel hold the candidate error planes of one
# block in about this many bytes: half of a 2 MiB per-core L2 cache, which
# leaves the other half for the block's rows of x and its running minima,
# so all of them are still cached when every rung compares the planes. At
# 2 MB the planes alone filled that L2, and a 32-column share's block took
# about 3.1 MB in all: _ladder_votes on 20 480 x 32 took 30.0 ms against
# 26.9 ms at 1 MB, and on 20 480 x 64 56.3 ms against 51.8 ms (2 vCPU Xeon,
# 2 MiB L2 per core, 1 BLAS thread, median of 15 interleaved runs).
_BLOCK_BYTES = 1_000_000


def _shared_candidates(rung_scales, max_exponent: int):
    """The distinct candidate scales of a ladder, and which rung uses which.

    Returns (scales, index): scales ascending, and index[r, d] the position
    in scales of rung r's candidate for exponent d, which is rung_scales[r]
    for d = 0, else rung_scales[r] * 2^d, computed as the rung itself would.
    """
    cands = [
        [s] + [s * float(2**d) for d in range(1, max_exponent + 1)]
        for s in rung_scales
    ]
    scales = sorted({v for row in cands for v in row})
    where = {v: k for k, v in enumerate(scales)}
    return scales, np.array([[where[v] for v in row] for row in cands])


def _block_winners(
    x: np.ndarray, rung_scales, max_exponent: int, l: int, u: int, sums=None
):
    """Per-sample preferred exponents of every rung, one row block at a time.

    Rung r scores the candidate scales rung_scales[r] * 2^d, d = 0..D. Rungs
    a power of two apart share most of them ((s / 2^g) * 2^d is the scale
    s * 2^(d - g) exactly), so each distinct scale is scored once per block:
    2D+1 error planes for a ladder of D+1 rungs instead of (D+1)^2. Given
    such a ladder finest rung first, rung r's candidates are the planes
    r..r+D, and all rungs take their step d in one operation on a view.

    Working arrays are allocated once per call, sized so that the planes of
    one block fit in _BLOCK_BYTES and the planes and running minima of all
    blocks together take no more than one N x C plane (a tensor with fewer
    rows than there are buffer planes is walked in one block).

    Given sums, a zeroed float64 array [scale x C] over the scales of
    _shared_candidates(rung_scales, max_exponent), sums[k, c] receives the
    errors of channel c at scale k added up over the rows in order, one
    block after another, so the totals do not depend on the block size.

    Yields (rows, winners, scratch) for every block. winners[r, i, c] is the
    d minimizing rung r's error of x[rows][i, c], where a later d wins only
    on a strictly smaller error, so ties go to the smaller exponent. scratch
    is an intp array of the same shape, free for the caller: it is the
    running minimum's memory, which the block no longer needs. Both are
    overwritten by the next step of the generator.
    """
    n, c = x.shape
    scales, index = _shared_candidates(rung_scales, max_exponent)
    rungs = len(rung_scales)
    if np.array_equal(index, np.add.outer(np.arange(rungs), index[0])):
        steps = [slice(k, k + rungs) for k in index[0]]
    else:  # an overflowed or subnormal scale broke the pattern: gather
        steps = list(index.T)
    # scales[k] = scales[0] * 2^k with every scale a finite normal number:
    # then x / scales[k] is (x / scales[0]) * 2^-k bit for bit wherever the
    # quotient is normal. Where it is subnormal it rounds to a zero of x's
    # sign either way, and where x / scales[0] overflows both clip to u or
    # l, so every error plane is the one a division of its own would give.
    doubling = (
        scales[0] >= np.finfo(np.float64).tiny
        and np.isfinite(scales[-1])
        and all(s == scales[0] * 2.0**k for k, s in enumerate(scales))
    )
    block = max(1, _BLOCK_BYTES // (len(scales) * max(c, 1) * 8))
    row_planes = len(scales) + rungs  # N x C planes' worth of buffers per row
    if n >= row_planes:
        block = min(block, n // row_planes)
    rows_max = min(block, n)
    pool = np.empty((row_planes, rows_max, c))
    planes, low = pool[: len(scales)], pool[len(scales) :]
    winners = np.empty((rungs, rows_max, c), dtype=np.min_scalar_type(max_exponent))
    better = np.empty_like(winners)
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        xb = x[rows]
        m = xb.shape[0]
        if doubling:
            q0 = np.divide(xb, scales[0], out=planes[0, :m])
            for k in range(len(scales) - 1, 0, -1):
                q = np.multiply(q0, 2.0**-k, out=planes[k, :m])
                _error_of_quotient(xb, q, scales[k], l, u)
            _error_of_quotient(xb, q0, scales[0], l, u)
        else:
            for k, s in enumerate(scales):
                _candidate_error(xb, s, l, u, out=planes[k, :m])
        w, up = winners[:, :m], better[:, :m]
        w.fill(0)
        best = planes[steps[0], :m]  # running minimum, d = 0 first
        for d in range(1, max_exponent + 1):
            err = planes[steps[d], :m]
            # w = d where err < best: d exceeds every earlier winner, so
            # max(w, d * (err < best)) is that, without a masked copy.
            np.less(err, best, out=up)
            np.maximum(w, np.multiply(up, d, out=up), out=w)
            if d < max_exponent:
                best = np.minimum(best, err, out=low[:, :m])
        if sums is not None:  # the planes are read for the last time
            _add_rows_in_order(planes[:, :m], sums)
        yield rows, w, low[:, :m].view(np.intp)


def _add_rows_in_order(planes: np.ndarray, sums: np.ndarray) -> None:
    """sums[k] += planes[k, 0] + planes[k, 1] + ..., added left to right.

    The running sums go into the first row, then the rows are reduced; a
    reduction along a middle axis adds row after row, except over a single
    column, which numpy would sum pairwise, so that one is accumulated.
    Overwrites planes.
    """
    planes[:, 0] += sums
    if planes.shape[2] == 1:
        np.add.accumulate(planes, axis=1, out=planes)
        sums[:] = planes[:, -1]
    else:
        np.add.reduce(planes, axis=1, out=sums)


def per_sample_matrix(
    x: Tensor, base_scale: float, max_exponent: int, *, bits: int, signed: bool = True
) -> np.ndarray:
    """Preferred exponents of every (sample, channel) pair at once.

    Each row of x is treated as one calibration sample; entry [i, c] is the
    d in {0..max_exponent} minimizing the squared reconstruction error of
    x[i, c] at scale base_scale * 2^d, ties broken toward the smaller
    exponent. This is the single-rung view of the selection kernel that
    calibrate_activation_scaling runs, so the working memory beyond the
    result is a few cache-sized row blocks whatever max_exponent is.
    """
    x = as_real(x, "activations")
    if x.ndim != 2:
        raise DimensionError("per_sample_matrix expects a 2-d activation tensor")
    _check_ladder(base_scale, max_exponent)
    l, u = code_bounds(bits, signed)
    out = np.empty(x.shape, dtype=np.int64)
    for rows, winners, _ in _block_winners(x, [base_scale], max_exponent, l, u):
        out[rows] = winners[0]
    return out


def _grant(counts: np.ndarray, n: int, kappa: float) -> PtsFactors:
    """Exponents from vote counts [exponent x channel] over n samples.

    The channel's mode (the first maximum, so the smaller exponent wins
    modal ties) is granted only when its agreement count / n strictly
    exceeds kappa; otherwise the channel keeps exponent 0.
    """
    mode = np.argmax(counts, axis=0)
    agreement = counts[mode, np.arange(counts.shape[1])] / n
    exponents = np.where(agreement > kappa, mode, 0).astype(np.int64)
    return PtsFactors._trusted(exponents, agreement, float(kappa))


def _check_kappa(kappa: float) -> None:
    if not (0.0 < kappa <= 1.0):
        raise DomainError(f"kappa must lie in (0, 1], got {kappa}")


def vote(per_sample: np.ndarray, kappa: float) -> PtsFactors:
    """Aggregate per-sample nominations into one exponent per channel.

    The channel's mode wins only if its agreement fraction strictly exceeds
    kappa; otherwise the channel keeps exponent 0. Modal ties break toward
    the smaller exponent.
    """
    votes = np.asarray(per_sample)
    if votes.dtype.kind not in "iu":
        raise DomainError("per-sample exponents must be integers")
    if votes.ndim != 2 or votes.shape[0] < 1:
        raise DimensionError("per-sample exponents must be a non-empty [N x C] matrix")
    if votes.size and votes.min() < 0:
        raise DomainError("per-sample exponents must be non-negative")
    _check_kappa(kappa)
    n, c = votes.shape
    top = int(votes.max()) if votes.size else 0
    # One bincount over the bins d * C + c, as _ladder_votes tallies.
    bins = votes.astype(np.intp) * c + np.arange(c)
    counts = np.bincount(bins.reshape(-1), minlength=(top + 1) * c)
    return _grant(counts.reshape(top + 1, c), n, kappa)


def _ladder_votes(x, rung_scales, max_exponent: int, l: int, u: int):
    """Vote counts and candidate errors of every rung, in one walk over x.

    counts[g, d, c]: the samples of channel c whose rung-g nomination is d.
    Each block's nominations of all rungs are tallied in one bincount, in
    the bin (r * C + c) * (D+1) + d of rung r in the kernel's finest-first
    order, so the bins are the winners plus one fixed offset, with no
    multiply. Exact integers, so the block size cannot change them.

    errors[g, d, c]: the squared reconstruction error of channel c at rung
    g's candidate scale for exponent d, summed over the samples.
    """
    rungs, c = len(rung_scales), x.shape[1]
    finest_first = rung_scales[::-1]
    scales, index = _shared_candidates(finest_first, max_exponent)
    sums = np.zeros((len(scales), c))
    bins = rungs * c * (max_exponent + 1)
    offset = (np.arange(rungs * c) * (max_exponent + 1)).reshape(rungs, 1, c)
    counts = np.zeros(bins, dtype=np.int64)
    for _, winners, scratch in _block_winners(x, finest_first, max_exponent, l, u, sums=sums):
        np.copyto(scratch, winners)  # no cast buffer, as np.add would take
        np.add(scratch, offset, out=scratch)
        counts += np.bincount(scratch.reshape(-1), minlength=bins)
    counts = counts.reshape(rungs, c, max_exponent + 1).transpose(0, 2, 1)
    return counts[::-1], sums[index[::-1]]


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
    walk the MinMax scale s0 down by powers of two (never further than
    2^max_exponent, beyond which the largest channel could no longer be
    rescued), run the vote at each rung, and keep the rung whose total
    post-rescue reconstruction error over the calibration tensor is
    smallest. Ties prefer the larger scale.

    The D+1 rungs share their candidate scales s0 * 2^k, k = -D..D, so one
    pass over x_hat in row blocks scores each of those 2D+1 error planes
    once, adds every rung's per-sample winners to exact integer vote counts
    and sums each plane per channel while the block is in cache. With
    exponents e_c granted, a rung's post-rescue error is the sum over c of
    its candidate e_c's error sum for channel c: the elementwise errors are
    the ones its own quantization would make, so no further pass is needed.
    Beyond x_hat the call needs at most one N x C float64 plane of block
    buffers, whatever max_exponent is, and at most ~1 MB of candidate
    planes per block. A tensor large enough (workers.share_slices) is voted
    in channel shares, all but the first in forked workers, each reading
    its columns of x_hat in place (a strided view, not a copy); the counts
    and sums are joined along the channel axis, so the result is the same
    bits.

    x_hat must already carry any learned channel scaling.
    """
    x_hat = as_real(x_hat, "scaled activations")
    if x_hat.ndim != 2:
        raise DimensionError("expected a 2-d activation tensor")
    n, c = x_hat.shape
    s0 = minmax_scale(x_hat, bits, signed=signed).scale
    _check_ladder(s0, max_exponent)
    if n < 1:
        raise DimensionError("calibration needs at least one sample")
    _check_kappa(kappa)
    l, u = code_bounds(bits, signed)
    rung_scales = [s0 / float(2**g) for g in range(max_exponent + 1)]  # exact
    shares = workers.share_slices(c, n * c)

    outcomes = workers.run_shares(
        lambda cols: _ladder_votes(x_hat[:, cols], rung_scales, max_exponent, l, u),
        shares,
        lambda cols: f"PTS worker for channels {cols.start}-{cols.stop - 1}",
    )
    counts = np.concatenate([votes for votes, _ in outcomes], axis=2)
    errors = np.concatenate([errs for _, errs in outcomes], axis=2)
    channels = np.arange(c)
    best = None
    for g, s_g in enumerate(rung_scales):
        factors = _grant(counts[g], n, kappa)
        err = float(np.sum(errors[g, factors.exponents, channels]))
        if best is None or err < best[0]:
            best = (err, s_g, factors)
    return best[1], best[2]
