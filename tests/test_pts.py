import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq import pts
from denoq.errors import DimensionError, DomainError
from denoq.pts import (
    PtsFactors,
    calibrate_activation_scaling,
    per_sample_matrix,
    vote,
)
from denoq.quant import (
    QuantParams,
    QuantizedLayer,
    activation_codes,
    code_bounds,
    minmax_scale,
    quantize,
)
from denoq.tensor import IntTensor, Rng


def rescued_codes(x, tau, base_scale, delta, *, bits, signed=True):
    """activation_codes of a layer whose activation divisor is
    2^delta_c * tau_c * base_scale, the way the pipeline exports it."""
    c = x.shape[1]
    layer = QuantizedLayer(
        "l",
        IntTensor(np.zeros((c, 1), dtype=np.int64), 4),
        QuantParams(1.0, 4),
        QuantParams(base_scale, bits, signed),
        tau * base_scale,
        delta,
    )
    return activation_codes(x, layer)


def per_sample_best(values, base_scale, max_exponent, *, bits, signed=True):
    """One sample's preferred exponent for one channel: the d in
    {0..max_exponent} minimizing the summed squared reconstruction error of
    the values at scale base_scale * 2^d; ties break toward the smaller d."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    lo, hi = code_bounds(bits, signed)
    errs = []
    for d in range(max_exponent + 1):
        s = base_scale * float(2**d)
        errs.append(np.sum((v - s * np.clip(np.rint(v / s), lo, hi)) ** 2))
    return int(np.argmin(errs))


def brute_force_vote(samples_by_channel, base_scale, max_exponent, kappa, bits):
    """Independent reimplementation of the exponent choice, one channel at a
    time, using explicit loops and a literal reading of the procedure:
    every sample nominates the exponent whose scale reconstructs it best,
    the channel takes the most common nomination (ties to the smaller
    exponent), and keeps it only when the agreement fraction strictly
    exceeds kappa."""
    lo, hi = code_bounds(bits, True)
    exps, agrees = [], []
    for values in samples_by_channel:
        nominations = []
        for v in values:
            best_d, best_err = None, None
            for d in range(max_exponent + 1):
                s = base_scale * (2.0**d)
                code = min(max(round(v / s), lo), hi)
                # round() banker's-rounds like the production path
                err = (v - code * s) ** 2
                if best_err is None or err < best_err:
                    best_d, best_err = d, err
            nominations.append(best_d)
        counts = {}
        for d in nominations:
            counts[d] = counts.get(d, 0) + 1
        top = max(counts.values())
        mode = min(d for d, c in counts.items() if c == top)
        share = top / len(nominations)
        exps.append(mode if share > kappa else 0)
        agrees.append(share)
    return exps, agrees


def test_per_sample_worked_examples():
    # a value on the base grid prefers exponent 0
    assert per_sample_best(np.array([3.0]), 1.0, 3, bits=8) == 0
    # 4 * scale * u forces the coarser grid: at s=1, u=127, value 508
    assert per_sample_best(np.array([508.0]), 1.0, 3, bits=8) == 2
    # max_exponent 0 leaves no choice
    assert per_sample_best(np.array([508.0]), 1.0, 0, bits=8) == 0


def test_vote_tabulated_examples():
    # unanimous
    f = vote(np.array([[1], [1], [1], [1]]), 0.6)
    assert f.exponents.tolist() == [1]
    assert f.agreement[0] == 1.0
    # 50% split is not strictly above kappa=0.5 -> conservative 0
    f = vote(np.array([[2], [2], [1], [1]]), 0.5)
    assert f.exponents.tolist() == [0]
    # 75% above kappa=0.6 -> mode wins
    f = vote(np.array([[3], [3], [3], [0]]), 0.6)
    assert f.exponents.tolist() == [3]
    assert f.agreement[0] == 0.75


def test_vote_tie_breaks_to_smaller_exponent():
    f = vote(np.array([[1], [2], [1], [2]]), 0.3)
    assert f.exponents.tolist() == [1]


def test_vote_boundary_share_equal_kappa_falls_back():
    # share == kappa exactly must NOT pass the strictly-greater test
    f = vote(np.array([[1], [1], [1], [0]]), 0.75)
    assert f.exponents.tolist() == [0]
    f2 = vote(np.array([[1], [1], [1], [0]]), 0.74)
    assert f2.exponents.tolist() == [1]


def test_vote_validation():
    with pytest.raises(DomainError):
        vote(np.array([[1]]), 0.0)
    with pytest.raises(DomainError):
        vote(np.array([[-1]]), 0.5)
    with pytest.raises(DimensionError):
        vote(np.array([1, 2]), 0.5)


@pytest.mark.parametrize("kappa", [0.25, 0.5, 0.6, 0.75])
def test_exhaustive_against_brute_force_oracle(kappa):
    """Every nomination matrix with N <= 6 samples and D <= 2 agrees with
    the loop-based oracle, including agreement shares."""
    for n in range(1, 7):
        for nominations in itertools.product(range(3), repeat=n):
            per_sample = np.array(nominations).reshape(n, 1)
            got = vote(per_sample, kappa)
            counts = {}
            for d in nominations:
                counts[d] = counts.get(d, 0) + 1
            top = max(counts.values())
            mode = min(d for d, c in counts.items() if c == top)
            share = top / n
            want = mode if share > kappa else 0
            assert got.exponents[0] == want, (nominations, kappa)
            assert got.agreement[0] == pytest.approx(share)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 6),
    channels=st.integers(1, 3),
    kappa=st.sampled_from([0.4, 0.6]),
)
def test_end_to_end_channel_choice_matches_value_level_oracle(
    seed, n, channels, kappa
):
    """From raw values (not nominations): production per-sample + vote
    equals the explicit loop oracle."""
    rng = Rng(seed)
    x = rng.standard_normal((n, channels)) * np.exp2(
        rng.integers(0, 3, channels)
    ).astype(np.float64)[None, :]
    base = 0.03
    got_m = per_sample_matrix(x, base, 2, bits=8)
    got = vote(got_m, kappa)
    want_exps, want_agrees = brute_force_vote(
        [x[:, c] for c in range(channels)], base, 2, kappa, 8
    )
    assert got.exponents.tolist() == want_exps
    assert np.allclose(got.agreement, want_agrees)


def test_per_sample_matrix_factorizes_over_channels():
    rng = Rng(5)
    x = rng.standard_normal((10, 4)) * 7
    m = per_sample_matrix(x, 0.05, 3, bits=8)
    for c in range(4):
        for i in range(10):
            assert m[i, c] == per_sample_best(x[i : i + 1, c], 0.05, 3, bits=8)


def test_activation_codes_power_of_two_fusion_is_exact():
    """Dividing by 2^d * (tau * s) equals dividing by tau * s then by 2^d in
    float arithmetic, so codes match the two-step computation exactly."""
    rng = Rng(8)
    x = rng.standard_normal((50, 6)) * 20
    tau = np.exp(rng.uniform(-1, 1, 6))
    s = 0.037
    delta = np.array([0, 1, 2, 3, 1, 0])
    got = rescued_codes(x, tau, s, delta, bits=8)
    two_step = quantize(
        x / np.exp2(delta)[None, :],
        QuantParams(tau * s, 8, True, axis=1),
    )
    assert np.array_equal(got.codes, two_step.codes)


def test_factors_validation():
    with pytest.raises(DomainError):
        PtsFactors(np.array([-1]), np.array([1.0]), 0.5)
    with pytest.raises(DomainError):
        PtsFactors(np.array([1]), np.array([1.5]), 0.5)
    with pytest.raises(DimensionError):
        PtsFactors(np.array([1, 2]), np.array([1.0]), 0.5)


class TestLadderCalibration:
    def test_uniform_tensor_needs_no_rescue(self):
        x = np.full((40, 3), 0.5)
        base, f = calibrate_activation_scaling(
            x, bits=8, max_exponent=3, kappa=0.6
        )
        assert np.all(f.exponents == 0)

    def test_consistent_outlier_channel_is_rescued(self):
        """One channel consistently 16x the rest: the ladder drops the base
        scale and the big channel's votes agree on a compensating exponent."""
        rng = Rng(3)
        x = rng.uniform(0.5, 1.0, (200, 8)) * np.where(
            np.arange(8) == 5, 16.0, 1.0
        )[None, :]
        base, f = calibrate_activation_scaling(
            x, bits=8, max_exponent=3, kappa=0.6
        )
        assert f.exponents[5] > 0
        assert np.all(f.exponents[np.arange(8) != 5] == 0)
        # the rescue must not be worse than plain MinMax
        plain = minmax_scale(x, 8).scale
        q_plain = quantize(x, QuantParams(plain, 8))
        err_plain = np.sum((x - q_plain.codes * plain) ** 2)
        q_l = rescued_codes(x, np.ones(8), base, f.exponents, bits=8)
        recon = q_l.codes * (np.exp2(f.exponents.astype(float)) * base)[None, :]
        assert np.sum((x - recon) ** 2) < err_plain

    def test_max_exponent_zero_reduces_to_minmax(self):
        rng = Rng(4)
        x = rng.standard_normal((30, 4))
        base, f = calibrate_activation_scaling(
            x, bits=8, max_exponent=0, kappa=0.6
        )
        assert base == pytest.approx(minmax_scale(x, 8).scale, rel=0)
        assert np.all(f.exponents == 0)


# ---------------------------------------------------------------------------
# The streaming selection against its dense definition
# ---------------------------------------------------------------------------


def dense_per_sample(x, base, max_exponent, bits, signed):
    """Every candidate's error plane stacked into one array, then argmin."""
    lo, hi = code_bounds(bits, signed)
    errs = []
    for d in range(max_exponent + 1):
        s = base * float(2**d)
        errs.append((x - s * np.clip(np.rint(x / s), lo, hi)) ** 2)
    return np.argmin(np.stack(errs), axis=0)


def bincount_vote(votes, kappa):
    """One np.bincount per channel, the way the vote reads in prose."""
    n, c = votes.shape
    exps, agree = np.zeros(c, dtype=np.int64), np.zeros(c)
    for k in range(c):
        counts = np.bincount(votes[:, k])
        mode = int(np.argmax(counts))
        agree[k] = counts[mode] / n
        exps[k] = mode if agree[k] > kappa else 0
    return exps, agree


def dense_calibrate(x, bits, signed, max_exponent, kappa):
    """The rung ladder as first written: dense candidate errors, the
    per-channel vote, and each rung scored through the codes of the layer
    it would export and a float64 dequantization of them."""
    s0 = minmax_scale(x, bits, signed=signed).scale
    best = None
    for g in range(max_exponent + 1):
        s_g = s0 / float(2**g)
        exps, agree = bincount_vote(
            dense_per_sample(x, s_g, max_exponent, bits, signed), kappa
        )
        codes = rescued_codes(
            x, np.ones(x.shape[1]), s_g, exps, bits=bits, signed=signed
        )
        scale = np.exp2(exps.astype(np.float64)) * s_g
        err = float(np.sum((x - codes.codes.astype(np.float64) * scale[None, :]) ** 2))
        if best is None or err < best[0]:
            best = (err, s_g, exps, agree)
    return best[1:]


def awkward_activations(seed, n, c, kind, base):
    """Activations that stress the tie rules: plain noise with outlier
    channels, values on half-steps of the candidate grids (exact rounding
    ties, and error ties between exponents), and zero / constant columns."""
    rng = Rng(seed)
    if kind == "noise":
        return rng.standard_normal((n, c)) * np.exp2(rng.integers(0, 5, c))[None, :]
    if kind == "half_steps":
        steps = rng.integers(-600, 600, (n, c)) + 0.5 * rng.integers(0, 2, (n, c))
        return steps * base * np.exp2(rng.integers(0, 3, c))[None, :]
    x = np.zeros((n, c))
    x[:, ::2] = rng.standard_normal(c)[::2] * 40.0  # constant columns
    return x


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 30),
    c=st.integers(1, 6),
    max_exponent=st.integers(0, 5),
    bits=st.sampled_from([2, 3, 4, 8]),
    signed=st.booleans(),
    kind=st.sampled_from(["noise", "half_steps", "constant"]),
    base=st.sampled_from([0.25, 0.5, 1.0, 0.03]),
)
def test_per_sample_matrix_equals_dense_argmin(
    seed, n, c, max_exponent, bits, signed, kind, base
):
    x = awkward_activations(seed, n, c, kind, base)
    got = per_sample_matrix(x, base, max_exponent, bits=bits, signed=signed)
    assert got.dtype == np.int64
    assert np.array_equal(got, dense_per_sample(x, base, max_exponent, bits, signed))
    for k in range(c):
        assert got[0, k] == per_sample_best(
            x[:1, k], base, max_exponent, bits=bits, signed=signed
        )


def test_per_sample_matrix_error_ties_go_to_the_smaller_exponent():
    # 1.5 * base: rint(1.5) = 2 at d = 0 and rint(0.75) = 1 at d = 1 leave
    # the same error 0.25 * base^2; zero and 4 * base are exact on all grids.
    x = np.array([[1.5, 0.0, 4.0], [-1.5, 0.0, -4.0]])
    assert per_sample_matrix(x, 1.0, 2, bits=8).tolist() == [[0, 0, 0], [0, 0, 0]]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 40),
    c=st.integers(0, 6),
    top=st.integers(0, 7),
    kappa=st.sampled_from([0.2, 0.5, 0.6, 0.75, 1.0]),
)
def test_vote_equals_per_channel_bincount(seed, n, c, top, kappa):
    votes = Rng(seed).integers(0, top + 1, (n, c))
    got = vote(votes, kappa)
    exps, agree = bincount_vote(votes, kappa)
    assert np.array_equal(got.exponents, exps)
    assert got.agreement.tobytes() == agree.tobytes()
    # vote builds its factors unchecked; the checking constructor takes
    # them as they are.
    assert (got.exponents.dtype, got.agreement.dtype) == (np.int64, np.float64)
    checked = PtsFactors(got.exponents, got.agreement, kappa)
    assert checked.exponents.tobytes() == got.exponents.tobytes()
    assert checked.agreement.tobytes() == got.agreement.tobytes()
    assert checked.kappa == got.kappa and type(got.kappa) is float


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 60),
    c=st.integers(1, 8),
    max_exponent=st.integers(0, 5),
    bits=st.sampled_from([3, 4, 8]),
    signed=st.booleans(),
    kappa=st.sampled_from([0.3, 0.6]),
    kind=st.sampled_from(["noise", "half_steps", "constant"]),
)
def test_calibration_equals_the_dense_implementation(
    seed, n, c, max_exponent, bits, signed, kappa, kind
):
    x = awkward_activations(seed, n, c, kind, 0.25)
    assert_calibration_matches_dense(x, bits, signed, max_exponent, kappa)


def assert_calibration_matches_dense(x, bits, signed, max_exponent, kappa):
    base, f = calibrate_activation_scaling(
        x, bits=bits, signed=signed, max_exponent=max_exponent, kappa=kappa
    )
    want_base, want_exps, want_agree = dense_calibrate(
        x, bits, signed, max_exponent, kappa
    )
    assert base == want_base
    assert np.array_equal(f.exponents, want_exps)
    assert f.agreement.tobytes() == want_agree.tobytes()


def peak_bytes(fn):
    """The largest traced allocation total while fn runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_selection_memory_stays_linear_in_the_tensor():
    """No (D+1) x N x C candidate stack: with D = 7 a dense stack alone
    would be 8x the input. Beyond its result (1x), per-sample selection
    holds cache-sized row blocks, so it stays under 2x at any D. The ladder
    keeps no N x C plane at all: on a tall tensor its ~2 MB of block
    buffers stay well under the input at any D, and on a short one the
    blocks shrink until their buffers fit in one plane."""
    x = Rng(11).standard_normal((20480, 64)) * np.exp2(np.arange(64) % 5)[None, :]
    assert peak_bytes(lambda: per_sample_matrix(x, 0.01, 7, bits=8)) < 2 * x.nbytes
    for max_exponent in (7, 16):
        peak = peak_bytes(
            lambda: calibrate_activation_scaling(
                x, bits=8, max_exponent=max_exponent, kappa=0.6
            )
        )
        assert peak < 0.6 * x.nbytes, max_exponent
    short = x[:1280].copy()
    peak = peak_bytes(
        lambda: calibrate_activation_scaling(short, bits=8, max_exponent=3, kappa=0.6)
    )
    assert peak < 1.25 * short.nbytes


# ---------------------------------------------------------------------------
# The row-blocked ladder
# ---------------------------------------------------------------------------


def ladder_blocks(x, max_exponent):
    """Sizes of the row blocks calibrate_activation_scaling walks x in."""
    rungs = [2.0**-g for g in range(max_exponent + 1)][::-1]
    walk = pts._block_winners(x, rungs, max_exponent, -8, 7)
    return [rows.stop - rows.start for rows, _, _ in walk]


@pytest.mark.parametrize("max_exponent", [0, 1, 3, 16])
@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("kind", ["half_steps", "constant"])
@pytest.mark.parametrize("layout", ["ragged", "budget", "single"])
def test_calibration_across_row_blocks_equals_dense(
    max_exponent, signed, kind, layout, monkeypatch
):
    """Many blocks with a ragged tail, sized by the one-plane cap (3D+2
    rows' worth of buffers per block row) or by a byte budget forced down
    to 2 rows, and fewer rows than the 3D+2 buffer planes, one block:
    half-step values hit rounding ties and error ties between exponents,
    constant columns hit every-sample ties."""
    c, per_row = 6, 3 * max_exponent + 2
    n = 4 * per_row + 1 if layout != "single" else per_row - 1
    if layout == "budget":
        monkeypatch.setattr(pts, "_BLOCK_BYTES", 2 * (2 * max_exponent + 1) * c * 8)
    x = awkward_activations(max_exponent + 7 * n, n, c, kind, 0.25)
    blocks = ladder_blocks(x, max_exponent)
    if layout == "single":
        assert blocks == [n]
    else:
        size = 4 if layout == "ragged" else 2
        assert blocks[:-1] == [size] * (len(blocks) - 1) and len(blocks) >= 3
        assert 0 < blocks[-1] < size
    assert_calibration_matches_dense(x, 4, signed, max_exponent, 0.6)


@pytest.mark.parametrize("max_exponent", [1, 3])
@pytest.mark.parametrize("signed", [True, False])
def test_calibration_across_full_size_blocks_equals_dense(max_exponent, signed):
    """A tensor large enough that the module's own byte budget, not the
    plane, sets the block: several full blocks and a ragged tail."""
    c = 6
    rows = pts._BLOCK_BYTES // ((2 * max_exponent + 1) * c * 8)
    n = (3 * max_exponent + 2) * rows + rows // 3
    x = awkward_activations(n, n, c, "half_steps", 0.25)
    blocks = ladder_blocks(x, max_exponent)
    assert blocks[0] == rows and len(blocks) >= 3 and blocks[-1] == rows // 3
    assert_calibration_matches_dense(x, 4, signed, max_exponent, 0.6)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    budget=st.integers(1, 4000),
    n=st.integers(1, 40),
    c=st.integers(1, 5),
    max_exponent=st.sampled_from([0, 1, 2, 3, 4, 16]),
    signed=st.booleans(),
    kind=st.sampled_from(["noise", "half_steps", "constant"]),
)
def test_calibration_does_not_depend_on_the_block_size(
    seed, budget, n, c, max_exponent, signed, kind
):
    """Byte budgets down to one row per block give the dense answer."""
    x = awkward_activations(seed, n, c, kind, 0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pts, "_BLOCK_BYTES", budget)
        assert_calibration_matches_dense(x, 3, signed, max_exponent, 0.5)
        assert np.array_equal(
            per_sample_matrix(x, 0.25, max_exponent, bits=3, signed=signed),
            dense_per_sample(x, 0.25, max_exponent, 3, signed),
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    budget=st.integers(1, 4000),
    n=st.integers(1, 60),
    c=st.integers(1, 4),
    max_exponent=st.sampled_from([0, 1, 3]),
)
def test_candidate_error_sums_add_the_rows_in_order(
    seed, budget, n, c, max_exponent
):
    """The kernel's per-channel error sums are the rows' errors added one
    row after another, whatever the block size; a single column, which a
    numpy reduction would sum pairwise, included."""
    x = awkward_activations(seed, n, c, "noise", 0.25)
    lo, hi = code_bounds(4, True)
    rungs = [0.25 / float(2**g) for g in range(max_exponent + 1)][::-1]
    scales, _ = pts._shared_candidates(rungs, max_exponent)
    want = np.zeros((len(scales), c))
    for row in x:
        for k, s in enumerate(scales):
            want[k] += (row - s * np.clip(np.rint(row / s), lo, hi)) ** 2
    got = np.zeros_like(want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pts, "_BLOCK_BYTES", budget)
        for _ in pts._block_winners(x, rungs, max_exponent, lo, hi, sums=got):
            pass
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s0", [1e-12, 0.0123, 1.0, 3.7e5])
@pytest.mark.parametrize("max_exponent", [0, 1, 3, 16])
def test_rungs_share_their_candidate_scales(s0, max_exponent):
    """Every scale the kernel scores once is the one each rung using it
    would compute itself, a ladder of D+1 rungs has 2D+1 of them, and
    rung r of the ladder (finest first) scores planes r..r+D."""
    rungs = [s0 / float(2**g) for g in range(max_exponent + 1)][::-1]
    scales, index = pts._shared_candidates(rungs, max_exponent)
    assert len(scales) == 2 * max_exponent + 1
    for r, row in enumerate(index):
        g = max_exponent - r
        for d, k in enumerate(row):
            assert k == r + d
            assert scales[k] == (s0 / 2**g) * float(2**d)


class TestCalibrationRefusals:
    def test_no_rows(self):
        with pytest.raises(DimensionError):
            calibrate_activation_scaling(
                np.zeros((0, 4)), bits=8, max_exponent=3, kappa=0.6
            )

    @pytest.mark.parametrize("kappa", [0.0, -0.5, 1.0000001, 2.0, float("nan")])
    def test_kappa_outside_the_unit_interval(self, kappa):
        with pytest.raises(DomainError):
            calibrate_activation_scaling(
                np.ones((5, 2)), bits=8, max_exponent=3, kappa=kappa
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        x = np.ones((5, 2))
        x[3, 1] = bad
        with pytest.raises(DomainError):
            calibrate_activation_scaling(x, bits=8, max_exponent=3, kappa=0.6)

    def test_negative_max_exponent(self):
        with pytest.raises(DomainError):
            calibrate_activation_scaling(
                np.ones((5, 2)), bits=8, max_exponent=-1, kappa=0.6
            )


def awkward_values(scales, l, u):
    """Values where a quotient taken as (x / scales[0]) * 2^-k could part
    from x / scales[k]: signed zeros, subnormals and the smallest normals,
    tiny values whose quotients turn subnormal, half-code boundaries and
    range edges of every candidate scale, and values whose quotient by the
    smallest scale overflows."""
    rng = Rng(17)
    tiny = np.ldexp(rng.uniform(1.0, 2.0, 40), rng.integers(-1074, -990, 40))
    parts = [
        [0.0, -0.0, 5e-324, -5e-324, 2.5e-320, -1.1e-310],
        [2.2250738585072014e-308, -2.2250738585072014e-308, 1e-300, -3e-305],
        tiny,
        -tiny,
        [1.7e308, -1.7e308, 1e300, -1e200],
        rng.standard_normal(40) * scales[-1] * u,
    ]
    codes = np.arange(l - 2, u + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in scales:
            parts += [(codes + 0.5) * s, codes * s, (codes + 0.5) * s * (1 + 2.0**-52)]
        x = np.concatenate([np.asarray(p, dtype=np.float64) for p in parts])
    return x[np.isfinite(x)]


@pytest.mark.parametrize(
    "s0, doubling",
    [
        (1e-300, True),
        (2.0**-1000 * 3, True),
        (0.0123, True),
        (1.0, True),
        (3.7e5, True),
        (1e300, True),
        (1e-310, False),  # subnormal candidate scales
        (2.0**-1070, False),  # subnormal ones, exactly a power of two apart
        (1.7e308, False),  # candidate scales that overflow
    ],
)
@pytest.mark.parametrize("max_exponent", [1, 3])
@pytest.mark.parametrize("bits, signed", [(4, True), (4, False), (8, True), (8, False)])
def test_error_planes_equal_one_division_per_plane(
    s0, doubling, max_exponent, bits, signed, monkeypatch
):
    """The kernel divides once by the smallest candidate scale and reaches
    the other planes by power-of-two multiplies; every error plane and
    winner is the one a division per plane gives, bit for bit. A ladder
    with an overflowed or subnormal scale keeps dividing per plane."""
    l, u = code_bounds(bits, signed)
    rungs = [s0 / float(2**g) for g in range(max_exponent + 1)][::-1]
    scales, index = pts._shared_candidates(rungs, max_exponent)
    x = awkward_values(scales, l, u)[None, :]  # one row: its sums are its planes
    real = pts._candidate_error
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.stack([real(x[0], s, l, u) for s in scales])
    divisions = []
    monkeypatch.setattr(
        pts, "_candidate_error", lambda *a, **k: divisions.append(1) or real(*a, **k)
    )
    got = np.zeros((len(scales), x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        [(_, winners, _)] = list(pts._block_winners(x, rungs, max_exponent, l, u, sums=got))
    assert (divisions == []) == doubling
    assert got.tobytes() == want.tobytes()
    if doubling:  # an infinite scale's NaN planes have no argmin to compare
        for r, row in enumerate(index):
            assert np.array_equal(winners[r, 0], np.argmin(want[row], axis=0))
