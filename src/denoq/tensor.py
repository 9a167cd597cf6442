"""Dense float64 tensor substrate and seeded randomness.

Arrays are plain numpy ndarrays in row-major layout; every public helper
normalizes its inputs to float64 so downstream numerics behave identically
everywhere. Products of real values go through :func:`matmul`, one float64
BLAS product, the same one the toy denoiser's forward pass takes. Their
determinism rests on BLAS: on one machine and one numpy/BLAS build,
identical inputs give identical bits, and the tests check that at 1 and 2
BLAS threads. Across builds their last bits may differ.

Products of integer codes go through :func:`code_matmul` instead, in one
of two tiers chosen by the worst-case budget bits_a + bits_w + max_shift +
ceil(log2 C_in). :func:`code_dtype` is the one place that maps a budget to
its tier, and a tier holds its codes, its weight operand and its
accumulator in that dtype:

* at most 24 bits, float32: every partial sum is an integer float32 holds
  exactly, so the product runs on float32 BLAS (sgemm);
* at most 53 bits, float64: the same holds for float64, so it runs on
  float64 BLAS.

A larger budget has no tier: code_dtype refuses it with HeadroomError.
So every code product runs on BLAS, and its result is the same in any
summation order and at any thread count, because no partial sum is ever
rounded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, HeadroomError

# Convention: a "Tensor" in this package is a float64 ndarray.
Tensor = np.ndarray


def as_real(x, name: str = "tensor") -> np.ndarray:
    """Convert to a float64 array, rejecting non-finite values."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class IntTensor:
    """Integer codes plus the nominal bit-width they were produced under.

    The declared width and signedness are what range checks reason about:
    [-2^(b-1), 2^(b-1) - 1] for signed codes, [0, 2^b - 1] for unsigned
    ones. Either way every code has magnitude below 2^b, which is all the
    accumulator headroom math needs.

    The constructor only accepts integer dtypes and keeps int64 codes.
    Float codes come only through _bounded: the codes quant.activation_codes
    makes and the accumulator igemm.execute returns are in the dtype of
    their tier (code_dtype), float32 or float64 arrays of exact integers
    within 53 bits.

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
        if codes.size:
            if int(codes.min()) < lo or int(codes.max()) > hi:
                raise DomainError(f"codes exceed the {b}-bit {what} range")

    @classmethod
    def _bounded(cls, codes: np.ndarray, nominal_bits: int, signed: bool) -> "IntTensor":
        """Take over codes already known to lie in their range, unscanned.

        For quant.quantize and quant.activation_codes, whose clamp has just
        bounded the codes, and igemm.execute, whose headroom check bounds
        the accumulator: a min/max rescan would only repeat it. The codes
        are in int64 or in the dtype of their tier. Everything else goes
        through the checking constructor.
        """
        t = object.__new__(cls)
        object.__setattr__(t, "codes", codes)
        object.__setattr__(t, "nominal_bits", nominal_bits)
        object.__setattr__(t, "signed", signed)
        return t

    @property
    def shape(self) -> tuple:
        return self.codes.shape


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of real values, [M x K] . [K x N], on float64 BLAS.

    Both operands are checked for non-finite values. The product is the
    one ToyDenoiser.forward computes with @: the same inputs give the same
    bits on one machine and numpy/BLAS build, at any BLAS thread count (the
    tests pin that at 1 and 2 threads on the shapes the package runs).
    Which rows are multiplied together is part of the input: a row subset
    of a product need not equal the product of that subset bit for bit.
    Products of integer codes use :func:`code_matmul`, which is exact.
    """
    a = as_real(a, "matmul lhs")
    b = as_real(b, "matmul rhs")
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError("matmul expects two 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions differ: {a.shape} . {b.shape}")
    return np.matmul(a, b)


# float32 and float64 hold every integer of magnitude up to 2^24 and 2^53
# exactly.
EXACT_FLOAT32_BITS = 24
EXACT_FLOAT_BITS = 53


def ceil_log2(n: int) -> int:
    """Bits a sum of n terms can add on top of its largest term."""
    return (n - 1).bit_length() if n > 1 else 0


def code_dtype(budget_bits: int) -> type:
    """The dtype that holds the codes, weight operand and accumulator of a
    code product whose partial sums stay below 2^budget_bits; past 53 bits
    no float type holds them exactly, and HeadroomError is raised."""
    if budget_bits <= EXACT_FLOAT32_BITS:
        return np.float32
    if budget_bits <= EXACT_FLOAT_BITS:
        return np.float64
    raise HeadroomError(
        f"an accumulator budget of {budget_bits} bits exceeds the "
        f"{EXACT_FLOAT_BITS} bits float64 holds exactly"
    )


def code_matmul(a: np.ndarray, b: np.ndarray, budget_bits: int, out=None) -> np.ndarray:
    """Product of two integer-valued code matrices, [M x K] . [K x N].

    a and b hold exact integers in any numeric dtype; an operand already in
    the dtype of its tier (code_dtype) is not copied. budget_bits bounds
    every partial sum below 2^budget_bits (code widths of both operands,
    any folded shift, plus ceil(log2 K)), and must be at most 53. Every
    partial sum is then an integer the tier's float dtype holds exactly, so
    the BLAS product is exact, identical in any order, and comes back in
    that dtype. out, when given, receives the product (it may be any float
    dtype that holds it).
    """
    dtype = code_dtype(budget_bits)
    return np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False), out=out)


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
        if not isinstance(seed, int) or seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
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
