import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError, HeadroomError
from denoq.tensor import (
    IntTensor,
    Rng,
    as_real,
    ceil_log2,
    code_dtype,
    code_matmul,
    matmul,
)


def naive_matmul(a, b):
    """Triple-loop reference, deliberately independent of numpy matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def test_matmul_matches_triple_loop():
    rng = Rng(11)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal((5, 9))
    got = matmul(a, b)
    want = naive_matmul(a, b)
    assert np.allclose(got, want, rtol=0, atol=1e-12)


class TestCodeMatmul:
    """Products of integer codes: BLAS within the 53-bit budget, refused
    above it."""

    def _extreme_codes(self, seed, shape, bits):
        # every entry at the lowest or the highest code of its width
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        pick = Rng(seed).integers(0, 2, shape)
        return np.where(pick == 1, hi, lo).astype(np.int64)

    def test_ceil_log2(self):
        assert [ceil_log2(n) for n in (0, 1, 2, 3, 4, 5, 64, 65)] == [
            0, 0, 1, 2, 2, 3, 6, 7,
        ]

    def test_exact_at_a_budget_of_53_bits(self):
        c_in = 64  # 24 + 23 + log2(64) = 53
        a = self._extreme_codes(1, (40, c_in), 24)
        b = self._extreme_codes(2, (c_in, 30), 23)
        a[0, :] = -(1 << 23)  # one row and column at the worst case, 2^51
        b[:, 0] = -(1 << 22)
        got = code_matmul(a.astype(np.float64), b.astype(np.float64), 53)
        assert got.dtype == np.float64
        fixed = np.einsum(
            "ik,kj->ij", a.astype(np.float64), b.astype(np.float64), optimize=False
        )
        assert np.array_equal(got, fixed)
        assert np.array_equal(got, np.einsum("ik,kj->ij", a, b, optimize=False))
        assert got[0, 0] == float(1 << 51)
        exact = a.astype(object) @ b.astype(object)
        assert all(int(v) == e for v, e in zip(got.ravel(), exact.ravel()))

    def test_int_codes_within_budget_come_back_in_their_tier_dtype(self):
        a = self._extreme_codes(3, (4, 8), 8)
        b = self._extreme_codes(4, (8, 5), 4)
        got = code_matmul(a, b, 8 + 4 + 3)
        assert got.dtype == np.float32
        assert np.array_equal(got, (a @ b).astype(np.float64))

    def test_above_the_budget_is_refused(self):
        """Two tiers: float32 up to 24 bits, float64 up to 53; a larger
        budget has none, whatever the operands' dtype."""
        assert code_dtype(24) is np.float32 and code_dtype(25) is np.float64
        assert code_dtype(53) is np.float64
        with pytest.raises(HeadroomError, match="54 bits exceeds the 53"):
            code_dtype(54)
        small = Rng(5).integers(-100, 100, (3, 4))
        for a in (small, small.astype(np.float64)):
            with pytest.raises(HeadroomError):
                code_matmul(a, a.T, 54)


def _near_max_unsigned(seed, shape, bits):
    """Unsigned codes at or one below the top of their width, with one
    row and one column all at the top, so sums land near 2^budget."""
    top = (1 << bits) - 1
    codes = top - Rng(seed).integers(0, 2, shape)
    codes[0, :] = top
    codes[:, 0] = top
    return codes.astype(np.int64)


class TestCodeMatmulTiers:
    """budget <= 24 runs in float32, <= 53 in float64; both must be exact."""

    @pytest.mark.parametrize("bits_a,bits_w", [(12, 6), (17, 1), (9, 9)])
    def test_worst_case_at_24_bits_is_exact(self, bits_a, bits_w):
        c_in = 64
        a = _near_max_unsigned(1, (50, c_in), bits_a)
        b = _near_max_unsigned(2, (c_in, 30), bits_w)
        budget = bits_a + bits_w + ceil_log2(c_in)
        assert budget == 24
        exact = np.einsum("ik,kj->ij", a, b, optimize=False)
        got = code_matmul(a, b, budget)
        assert got.dtype == np.float32
        assert np.array_equal(got, exact)
        assert got.max() < float(1 << budget)

    def test_worst_case_at_25_bits_stays_out_of_float32(self):
        """Sums past 2^24 that float32 would round come back exact."""
        a = _near_max_unsigned(3, (50, 64), 12)
        b = _near_max_unsigned(4, (64, 30), 7)  # 12 + 7 + 6 = 25
        exact = np.einsum("ik,kj->ij", a, b, optimize=False)
        assert exact.max() > 1 << 24
        rounded = np.matmul(a.astype(np.float32), b.astype(np.float32))
        assert not np.array_equal(rounded.astype(np.float64), exact)
        got = code_matmul(a, b, 25)
        assert got.dtype == np.float64
        assert np.array_equal(got, exact)

    @pytest.mark.parametrize("budget", [24, 25])
    def test_out_is_honoured(self, budget):
        a = _near_max_unsigned(5, (20, 64), 12)
        b = _near_max_unsigned(6, (64, 9), budget - 18)
        out = np.full((20, 9), np.nan)
        got = code_matmul(a, b, budget, out=out)
        assert got is out
        assert np.array_equal(out, np.einsum("ik,kj->ij", a, b, optimize=False))

    def test_signed_codes_in_float_operands(self):
        """The LES check hands float-held codes; mixed signs cancel exactly."""
        rng = Rng(7)
        a = rng.integers(-128, 128, (40, 64))
        b = rng.integers(-8, 8, (64, 16))
        got = code_matmul(a.astype(np.float32), b.astype(np.float64), 8 + 4 + 6)
        assert got.dtype == np.float32
        assert np.array_equal(got, a @ b)


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from denoq.tensor import code_matmul
rng = np.random.default_rng(11)
a = rng.integers(-128, 128, (4096, 64))
b = rng.integers(-(1 << 9), 1 << 9, (64, 64))
print(hashlib.sha256(code_matmul(a, b, 8 + 10 + 6).tobytes()).hexdigest())
"""


def test_float32_tier_bytes_do_not_depend_on_blas_threads():
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
            timeout=120, capture_output=True, text=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_matmul_is_reproducible_not_blas_order_dependent():
    rng = Rng(3)
    a = rng.standard_normal((33, 65))
    b = rng.standard_normal((65, 17))
    first = matmul(a, b)
    again = matmul(a.copy(), b.copy())
    assert np.array_equal(first, again)


_MATMUL_THREADS_SCRIPT = """
import hashlib
import numpy as np
from denoq.tensor import matmul
rng = np.random.default_rng(5)
h = hashlib.sha256()
def real(*shape):
    return rng.standard_normal(shape) * 10.0
# The products the package runs: full-set references (1280 and 1024 rows),
# the LES batch product and both gradient products, whose first operand or
# second is a transposed view, and a square one.
for a, b in [
    (real(1280, 64), real(64, 64)),
    (real(32, 64), real(64, 64)),
    (real(32, 64).T, real(32, 64)),
    (real(32, 64), real(64, 64).T),
    (real(64, 64), real(64, 64)),
    (real(1024, 64), real(64, 64)),
]:
    h.update(matmul(a, b).tobytes())
print(h.hexdigest())
"""


def test_matmul_bytes_do_not_depend_on_blas_threads():
    """Real products run on BLAS, so their bits must not move with the
    thread count on the shapes LES, the report rows and eval multiply."""
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _MATMUL_THREADS_SCRIPT], env=env, check=True,
            timeout=120, capture_output=True, text=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_matmul_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        matmul(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        matmul(np.ones(3), np.ones((3, 2)))


def test_as_real_rejects_non_finite():
    with pytest.raises(DomainError, match="stats"):
        as_real(np.array([1.0, np.nan]), "stats")
    with pytest.raises(DomainError):
        as_real(np.array([np.inf]), "x")


def test_as_real_converts_and_preserves():
    out = as_real([[1, 2], [3, 4]], "x")
    assert out.dtype == np.float64
    assert out.shape == (2, 2)


class TestChannelOps:
    def test_div_then_mul_is_identity(self):
        rng = Rng(5)
        x = rng.standard_normal((10, 6))
        w = rng.standard_normal((6, 4))
        v = np.exp(rng.standard_normal(6))
        assert np.allclose((x.T * v[:, None]).T / v, x, atol=1e-15)
        y1 = matmul(x, w)
        y2 = matmul(x / v, w * v[:, None])
        assert np.allclose(y1, y2, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    c=st.integers(1, 12),
    m=st.integers(1, 12),
)
def test_scaling_identity_property(seed, n, c, m):
    """Dividing activation columns and multiplying weight rows by the same
    positive factors never changes the product (up to float error)."""
    rng = Rng(seed)
    x = rng.standard_normal((n, c))
    w = rng.standard_normal((c, m))
    tau = np.exp(rng.uniform(-3.0, 3.0, c))
    direct = matmul(x, w)
    scaled = matmul(x / tau, w * tau[:, None])
    scale = np.max(np.abs(direct)) + 1.0
    assert np.max(np.abs(direct - scaled)) <= 1e-12 * scale


class TestIntTensor:
    def test_range_check(self):
        IntTensor(np.array([[-8, 7]]), 4)
        with pytest.raises(DomainError):
            IntTensor(np.array([[-9]]), 4)
        with pytest.raises(DomainError):
            IntTensor(np.array([[8]]), 4)
        # the whole int64 range is the 64-bit two's complement range
        IntTensor(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]), 64)

    def test_unsigned_range_check(self):
        t = IntTensor(np.array([[0, 15]]), 4, signed=False)
        assert t.signed is False
        with pytest.raises(DomainError, match="unsigned"):
            IntTensor(np.array([[-1]]), 4, signed=False)
        with pytest.raises(DomainError, match="unsigned"):
            IntTensor(np.array([[16]]), 4, signed=False)
        IntTensor(np.array([(1 << 32) - 1]), 32, signed=False)

    def test_bits_bounds(self):
        with pytest.raises(DomainError):
            IntTensor(np.array([0]), 1)
        with pytest.raises(DomainError):
            IntTensor(np.array([0]), 65)

    def test_rejects_float_codes(self):
        with pytest.raises(DomainError):
            IntTensor(np.array([1.5]), 8)
        with pytest.raises(DomainError):
            IntTensor(np.array([True]), 8)

    def test_takes_int64_arrays_over_without_a_copy(self):
        codes = np.array([[3, -4]], dtype=np.int64)
        assert IntTensor(codes, 4).codes is codes
        narrow = np.array([[3, -4]], dtype=np.int8)
        widened = IntTensor(narrow, 4).codes
        assert widened.dtype == np.int64 and not np.shares_memory(widened, narrow)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(99).standard_normal(8)
        b = Rng(99).standard_normal(8)
        assert np.array_equal(a, b)

    def test_children_are_independent_and_stable(self):
        r = Rng(1)
        c1 = r.child("calib").standard_normal(4)
        c2 = Rng(1).child("calib").standard_normal(4)
        assert np.array_equal(c1, c2)
        other = Rng(1).child("other").standard_normal(4)
        assert not np.array_equal(c1, other)

    def test_child_does_not_advance_parent(self):
        r1, r2 = Rng(7), Rng(7)
        r1.child("x")
        assert np.array_equal(r1.standard_normal(3), r2.standard_normal(3))

    def test_permutation_covers_range(self):
        p = Rng(0).permutation(50)
        assert sorted(p.tolist()) == list(range(50))

    def test_integers_bounds(self):
        draws = Rng(2).integers(1, 11, 1000)
        assert draws.min() >= 1 and draws.max() <= 10

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(DomainError, match="non-negative integer"):
            Rng(seed)
