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
where x^2 = x holds by itself.  Every table lives in the narrowest
unsigned word of w >= l bits (`_word`): uint8 up to l = 8, then uint16,
uint32 and uint64.  Qhat_l is an integer polynomial in F, zeta and
Moebius are integer-linear, and reducing mod 2^w is a ring map, so
wrapping word arithmetic is exact mod 2^w, hence mod 2^l after masking.

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
from .transform import mobius, zeta

_WORDS = tuple(np.dtype(w) for w in (np.uint8, np.uint16, np.uint32, np.uint64))


def _check_l(l: int) -> None:
    if not 1 <= l <= 62:
        raise ValueError(f"modulus exponent l must be in [1, 62], got {l}")


def _word(l: int) -> np.dtype:
    """The narrowest unsigned dtype with at least l bits: every table of
    the mod-2^l pipeline is computed in it."""
    return next(w for w in _WORDS if 8 * w.itemsize >= l)


def _const(c: int, word: np.dtype):
    # the integer c reduced into the word, as a scalar of that dtype
    return word.type(c & ((1 << 8 * word.itemsize) - 1))


@dataclass(frozen=True)
class MultilinearPoly:
    """Multilinear polynomial mod 2^l over m variables, dense by mask."""

    m: int
    l: int
    # unsigned integers, shape (2^m,), read mod 2^l; from_values and
    # r_poly give them in _word(l) with entries < 2^l
    coeffs: np.ndarray

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
    word = _word(p.l)
    table = zeta(p.coeffs.astype(word))
    table &= _const(p.mask, word)
    return table


def from_values(m: int, l: int, values: np.ndarray) -> MultilinearPoly:
    """Interpolate the unique multilinear polynomial with this value table.

    values may hold any integers (a list, a signed or unsigned array);
    they are read mod 2^l.
    """
    _check_l(l)
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu"):
        # Python integers of any size, reduced exactly before the cast
        values = np.array(values, dtype=object) % (1 << l)
    if values.shape != (1 << m,):
        raise ValueError("value table must have 2^m entries")
    word = _word(l)
    coeffs = mobius(values.astype(word))  # casting wraps mod 2^w
    coeffs &= _const((1 << l) - 1, word)
    return MultilinearPoly(m=m, l=l, coeffs=coeffs)


# -- the counting pipeline ----------------------------------------------------


def _int_value_table(masks: np.ndarray, a: int, m: int, word: np.dtype) -> np.ndarray:
    """Monomial-sum values of f(y, a) over all 2^m fixed-variable points,
    mod 2^w in the unsigned dtype word.

    masks holds the variable masks of f's terms.  A term survives the
    free-variable assignment a when all its free variables are set; the
    surviving terms' fixed-variable masks, counted per mask, are the
    integer coefficients whose zeta transform is the value table.
    """
    alive = ((masks >> m) & ~a) == 0
    counts = np.bincount(masks[alive] & ((1 << m) - 1), minlength=1 << m)
    return zeta(counts.astype(word))


def _qhat_values(table: np.ndarray, l: int) -> np.ndarray:
    """Apply the mod-2^l amplifier pointwise to an integer monomial-sum
    table (any integer dtype, left unchanged); the result is in _word(l).

    Works on three tables, since every fresh 2^m-entry temporary can cost
    a page fault per 4 KiB.
    """
    word = _word(l)
    table = table.astype(word, copy=False)  # casting wraps mod 2^w
    one = _const(1, word)
    base = one - table
    # (1 - F)^l by square-and-multiply, from the top bit of l down
    pw = base.copy()
    for bit in bin(l)[3:]:
        pw *= pw
        if bit == "1":
            pw *= base
    # sum_{j<l} C(l+j-1, j) F^j by Horner's rule, in base's buffer
    acc = base
    acc.fill(_const(math.comb(2 * l - 2, l - 1), word))
    for j in range(l - 2, -1, -1):
        acc *= table
        acc += _const(math.comb(l + j - 1, j), word)
    pw *= acc
    np.subtract(one, pw, out=pw)
    pw &= _const((1 << l) - 1, word)
    return pw


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
    # refused before the 2^t blocks of 2^m-entry tables are built; the
    # blocks together do the 2^n work of brute force
    check("EVAL_CAP", m, "r_poly: m")
    check("BRUTE_CAP", f.n, "r_poly: n")
    word = _word(l)
    total = np.zeros(1 << m, dtype=word)
    for a_mask in range(1 << t):
        total += _qhat_values(_int_value_table(f.masks, a_mask, m, word), l)
    return from_values(m, l, total)


def count_ones_lptwy(f: Poly3, t: int) -> int:
    """Exact number of inputs with f(x) = 1, via per-block residues."""
    # the total is below 2^(n+1), and r_poly caps n well below 63
    return int(eval_all(r_poly(f, t)).sum(dtype=np.uint64))


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
