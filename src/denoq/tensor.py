"""Dense float64 tensor substrate and seeded randomness.

Arrays are plain numpy ndarrays in row-major layout; every public helper
normalizes its inputs to float64 so downstream numerics behave identically
everywhere. Products of real values go through :func:`matmul`, which uses a
fixed accumulation order (ascending reduction index, no BLAS dispatch) so
repeated calls with identical inputs are bit-identical regardless of thread
count.

Products of integer codes go through :func:`code_matmul` instead, in one
of three tiers chosen by the worst-case budget bits_a + bits_w + max_shift +
ceil(log2 C_in):

* at most 24 bits: every partial sum is an integer that float32 holds
  exactly, so the product runs on float32 BLAS (sgemm);
* at most 53 bits: the same holds for float64, so it runs on float64 BLAS;
* past 53 bits: the fixed-order einsum, in the operands' common dtype.

In the two BLAS tiers the result is the same in any summation order and at
any thread count, because no partial sum is ever rounded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# Convention: a "Tensor" in this package is a float64 ndarray.
Tensor = np.ndarray


def as_real(x, name: str = "tensor") -> np.ndarray:
    """Convert to a float64 array, rejecting non-finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def _as_vector(v, length: int, name: str) -> np.ndarray:
    vec = as_real(v, name)
    if vec.ndim != 1 or vec.shape[0] != length:
        raise DimensionError(
            f"{name} must be a 1-d vector of length {length}, got shape {vec.shape}"
        )
    return vec


@dataclass(frozen=True)
class IntTensor:
    """Integer codes plus the nominal bit-width they were produced under.

    Codes are stored as int64 regardless of nominal_bits; the declared width
    and signedness are what range checks reason about: [-2^(b-1), 2^(b-1) - 1]
    for signed codes, [0, 2^b - 1] for unsigned ones. Either way every code
    has magnitude below 2^b, which is all the accumulator headroom math needs.

    An int64 array is taken over as it is, not copied: the tensor owns it
    from then on, and the caller must not write to it. Other integer dtypes
    are widened into a new array.
    """

    codes: np.ndarray
    nominal_bits: int
    signed: bool = True

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.dtype.kind not in "iu":
            raise DomainError("IntTensor codes must be integers")
        codes = codes.astype(np.int64, copy=False)
        object.__setattr__(self, "codes", codes)
        b = self.nominal_bits
        if not (2 <= b <= 64):
            raise DomainError(f"nominal_bits out of range: {b}")
        if self.signed:
            lo, hi, what = -(1 << (b - 1)), (1 << (b - 1)) - 1, "two's complement"
        else:
            lo, hi, what = 0, (1 << b) - 1, "unsigned"
        # int64 storage already bounds signed 64-bit codes (accumulators).
        if codes.size and not (self.signed and b == 64):
            if int(codes.min()) < lo or int(codes.max()) > hi:
                raise DomainError(f"codes exceed the {b}-bit {what} range")

    @property
    def shape(self) -> tuple:
        return self.codes.shape


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of real values with a fixed accumulation order.

    einsum (non-optimized) walks the reduction index in ascending order with
    no BLAS involvement, so the result is reproducible bit-for-bit across
    runs and thread counts. Shapes must be [M x K] . [K x N]. Products of
    integer codes use :func:`code_matmul`, which may take BLAS exactly.
    """
    a = as_real(a, "matmul lhs")
    b = as_real(b, "matmul rhs")
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("matmul expects two 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: {a.shape} . {b.shape}")
    return np.einsum("ik,kj->ij", a, b, optimize=False)


# float32 and float64 hold every integer of magnitude up to 2^24 and 2^53
# exactly.
EXACT_FLOAT32_BITS = 24
EXACT_FLOAT_BITS = 53


def ceil_log2(n: int) -> int:
    """Bits a sum of n terms can add on top of its largest term."""
    return (n - 1).bit_length() if n > 1 else 0


def code_matmul(
    a: np.ndarray, b: np.ndarray, budget_bits: int, out=None
) -> np.ndarray:
    """Product of two integer-valued code matrices, [M x K] . [K x N].

    a and b hold exact integers in any numeric dtype; integer codes go in
    as they are. budget_bits bounds every partial sum below 2^budget_bits
    (code widths of both operands, any folded shift, plus ceil(log2 K)).
    Within 24 bits each partial sum is an integer float32 holds exactly, so
    the float32 BLAS product is exact and identical in any order; within 53
    bits the same holds for float64. Either way the result is float64,
    written into out when given. Above 53 bits the fixed-order einsum runs
    in the operands' common dtype, and out must have that dtype.
    """
    if budget_bits <= EXACT_FLOAT32_BITS:
        acc = np.matmul(
            a.astype(np.float32, copy=False), b.astype(np.float32, copy=False)
        )
        if out is None:
            return acc.astype(np.float64)
        np.copyto(out, acc)
        return out
    if budget_bits <= EXACT_FLOAT_BITS:
        return np.matmul(
            a.astype(np.float64, copy=False), b.astype(np.float64, copy=False),
            out=out,
        )
    dtype = np.result_type(a, b)
    return np.einsum(
        "ik,kj->ij", a.astype(dtype, copy=False), b.astype(dtype, copy=False),
        optimize=False, out=out,
    )


def channel_div(x: Tensor, v) -> Tensor:
    """Divide activation columns by a strictly positive per-channel vector.

    x is [B x C]; column c is divided by v[c].
    """
    x = as_real(x, "activations")
    if x.ndim != 2:
        raise DimensionError("channel_div expects a 2-d activation tensor")
    vec = _as_vector(v, x.shape[1], "channel divisors")
    if np.any(vec <= 0.0):
        raise DomainError("channel divisors must be strictly positive")
    return x / vec[None, :]


def channel_mul(w: Tensor, v) -> Tensor:
    """Scale weight rows by a per-channel vector: row c is multiplied by v[c]."""
    w = as_real(w, "weights")
    if w.ndim != 2:
        raise DimensionError("channel_mul expects a 2-d weight tensor")
    vec = _as_vector(v, w.shape[0], "channel factors")
    return w * vec[:, None]


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def _label_entropy(label: str) -> int:
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic random stream (PCG64) with named substreams.

    The same seed yields the same stream on every platform. child(label)
    derives an independent stream from a stable hash of the label, so the
    draw order of one pipeline stage never perturbs another.
    """

    def __init__(self, seed: int, _extra: tuple = ()):
        if not isinstance(seed, int):
            raise DomainError("seed must be an integer")
        self.seed = seed
        self._extra = tuple(_extra)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((seed,) + self._extra))
        )

    def child(self, label: str) -> "Rng":
        return Rng(self.seed, self._extra + (_label_entropy(label),))

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
