"""Better-than-brute-force zero counting for degree-3 polynomials.

The count splits the n variables into m fixed and t free.  For each
setting a of the free variables, the amplifier

    Qhat_l = 1 - (1 - F)^l * sum_{j<l} C(l+j-1, j) F^j

(F the integer-valued monomial sum of the restricted polynomial) is
congruent mod 2^l to the Boolean value of f, so R_l = sum_a Qhat_l
counts, mod 2^l, the satisfying settings of the free variables in each
block.  Reading each block residue and summing gives the exact total as
long as 2^l exceeds the block size 2^t.

Multilinear polynomials mod 2^l are represented densely by coefficient
arrays indexed by variable-subset mask; the subset-sum (zeta) transform
converts to value tables and its inverse (Moebius) converts back, so
the amplifier's powers of F are taken pointwise in the value domain,
where x^2 = x holds by itself.  All arithmetic lives in uint64: 2^l
divides 2^64, so wrapping multiplication and addition are exact mod 2^l
after masking.

F itself is built the same way for each block: the terms that survive
the setting a are counted by their fixed-variable mask, and the zeta
transform of those counts is F's value table.  Both transforms live in
the transform module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import check
from .poly3 import Poly3
from .transform import mobius, term_masks, zeta

_MASK64 = (1 << 64) - 1


def _check_l(l: int) -> None:
    if not 1 <= l <= 62:
        raise ValueError(f"modulus exponent l must be in [1, 62], got {l}")


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial mod 2^l over m variables, dense by mask."""

    m: int
    l: int
    coeffs: np.ndarray  # uint64, shape (2^m,), entries < 2^l

    def __post_init__(self):
        _check_l(self.l)
        if self.m < 0:
            raise ValueError("variable count must be nonnegative")
        if self.coeffs.shape != (1 << self.m,):
            raise ValueError(
                f"coefficient array must have 2^{self.m} entries, got {self.coeffs.shape}"
            )

    @property
    def mask(self) -> int:
        return (1 << self.l) - 1

    def degree(self) -> int:
        (keys,) = np.nonzero(self.coeffs)
        if len(keys) == 0:
            return 0
        return int(np.bitwise_count(keys.astype(np.uint64)).max())


def eval_all(p: MultilinearPoly) -> np.ndarray:
    """Value table over all 2^m points, entry y = p(y) mod 2^l."""
    check("EVAL_CAP", p.m, "eval_all: m")
    table = zeta(p.coeffs.copy())
    table &= np.uint64(p.mask)
    return table


def from_values(m: int, l: int, values: np.ndarray) -> MultilinearPoly:
    """Interpolate the unique multilinear polynomial with this value table."""
    _check_l(l)
    coeffs = np.array(values, dtype=np.uint64, copy=True)
    if coeffs.shape != (1 << m,):
        raise ValueError("value table must have 2^m entries")
    mobius(coeffs)
    coeffs &= np.uint64((1 << l) - 1)
    return MultilinearPoly(m=m, l=l, coeffs=coeffs)


# -- the counting pipeline ----------------------------------------------------


def _int_value_table(masks: np.ndarray, a: int, m: int) -> np.ndarray:
    """Monomial-sum values of f(y, a) over all 2^m fixed-variable points.

    masks holds the variable masks of f's terms.  A term survives the
    free-variable assignment a when all its free variables are set; the
    surviving terms' fixed-variable masks, counted per mask, are the
    integer coefficients whose zeta transform is the value table.
    """
    alive = ((masks >> m) & ~a) == 0
    counts = np.bincount(masks[alive] & ((1 << m) - 1), minlength=1 << m)
    return zeta(counts.astype(np.uint64))


def _qhat_values(table: np.ndarray, l: int) -> np.ndarray:
    """Apply the mod-2^l amplifier pointwise to a monomial-sum table."""
    one = np.uint64(1)
    base = one - table  # wraps; exact mod 2^64
    pw = np.ones_like(table)
    for _ in range(l):
        pw = pw * base
    acc = np.zeros_like(table)
    fpow = np.ones_like(table)
    for j in range(l):
        coeff = np.uint64(math.comb(l + j - 1, j) & _MASK64)
        acc = acc + coeff * fpow
        fpow = fpow * table
    return (one - pw * acc) & np.uint64((1 << l) - 1)


def r_poly(f: Poly3, t: int, l: int | None = None) -> MultilinearPoly:
    """Block-count polynomial: value at y counts free settings with f = 1.

    l must satisfy 2^l > 2^t so a full block cannot alias to zero;
    default l = t + 1 is the smallest choice that does.
    """
    if not 1 <= t <= f.n:
        raise ValueError(f"free-variable count {t} out of range for n = {f.n}")
    if l is None:
        l = t + 1
    _check_l(l)
    if l <= t:
        raise ValueError(
            f"l = {l} aliases counts for t = {t} free variables; need 2^l > 2^t"
        )
    m = f.n - t
    masks = term_masks(f.terms())
    total = np.zeros(1 << m, dtype=np.uint64)
    for a_mask in range(1 << t):
        total += _qhat_values(_int_value_table(masks, a_mask, m), l)
    return from_values(m, l, total & np.uint64((1 << l) - 1))


def _exact_sum(values: np.ndarray, l: int) -> int:
    # chunk so uint64 partial sums cannot wrap
    room = max(1, (1 << 63) // (1 << l))
    return sum(
        int(values[i : i + room].sum()) for i in range(0, len(values), room)
    )


def count_ones_lptwy(f: Poly3, t: int) -> int:
    """Exact number of inputs with f(x) = 1, via per-block residues."""
    poly = r_poly(f, t)
    blocks = eval_all(poly)
    return _exact_sum(blocks, poly.l)


# -- the monomial-count budget ------------------------------------------------


@dataclass(frozen=True)
class MonomialBound:
    m_value: int
    m_log2: float
    threshold_log2: float
    holds: bool


def monomial_bound_check(n: int, delta: float) -> MonomialBound:
    """Compare M((1-d)n, 6dn-3) = C(a+b, b) against 2^{0.15(1-d)n}.

    Arguments are floored to integers; a negative monomial degree means
    the bound is vacuous (M = 1).  The threshold is reported in log2
    because it overflows floats at the scales where the check matters.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    a = math.floor((1 - delta) * n)
    b = math.floor(6 * delta * n - 3)
    m_value = math.comb(a + b, b) if b >= 0 else 1
    m_log2 = math.log2(m_value) if m_value > 1 else 0.0
    threshold_log2 = 0.15 * (1 - delta) * n
    return MonomialBound(
        m_value=m_value,
        m_log2=m_log2,
        threshold_log2=threshold_log2,
        holds=m_log2 <= threshold_log2,
    )
