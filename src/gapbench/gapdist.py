"""Statistics of the gap distribution over random degree-3 polynomials.

Moments of gap/2^n (exact by exhaustive enumeration for small n, sampled
with standard errors for larger n), the matrix- and subspace-counting
identities behind the Gaussian moment limit, the degree-15 Chebyshev mass
polynomial with exactly recomputed coefficients, and empirical fractions
of the YES/NO promise classes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, getcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from . import config, transform
from .circuits import classify_from_gap
from .config import CapExceeded
from .poly3 import Poly3, all_terms, max_terms

_EXACT_N_CAP = 4
_EXACT_K_CAP = 4
_MATRIX_BITS_CAP = 24
_SUBSPACE_K_CAP = 4
_SHARD = 4096


def gaussian_moment_target(k: int) -> int:
    """(2k-1)!!, the 2k-th standardized moment of a Gaussian."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return math.prod(range(1, 2 * k, 2)) if k else 1


@dataclass(frozen=True)
class MomentReport:
    """The quantity 2^{nk} E[(gap/2^n)^{2k}] with provenance.

    kind "exact" means exhaustive enumeration (value is a Fraction and
    std_error is zero); kind "sampled" means a seeded Monte Carlo mean
    with a jackknife standard error.
    """

    n: int
    k: int
    kind: str
    value: Fraction | float
    samples: int
    std_error: float

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "sampled"):
            raise ValueError("kind must be 'exact' or 'sampled'")
        if self.kind == "exact" and self.std_error != 0.0:
            raise ValueError("exact reports carry zero standard error")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")


class GapSampler:
    """Draws gap values of uniformly random degree-3 polynomials.

    A polynomial is a uniform coefficient mask over the g1(n) admissible
    terms, which is its algebraic normal form: each selected term sets
    the bit at its variable mask.  A batch of masks goes to
    transform.gaps, which builds the packed truth tables with one batched
    GF(2) zeta transform per chunk of rows and reads each gap off its
    popcount, in memory bounded up to the sampling cap.
    """

    def __init__(self, n: int):
        cap = config.cap("DIST_CAP")
        if n < 1 or n > cap:
            raise CapExceeded(f"sampling cap: need 1 <= n <= {cap}, got n={n}")
        self.n = n
        self.term_count = max_terms(n)
        self._masks = Poly3(n, tuple(all_terms(n))).masks

    def gaps(self, samples: int, seed: int) -> np.ndarray:
        """samples iid gap draws, deterministic in seed.

        Sampling is sharded with per-shard child seeds and a fixed merge
        order, so a parallel executor would produce the identical stream.
        """
        if samples <= 0:
            raise ValueError("samples must be positive")
        config.check_sample_size(samples, "gaps: samples")
        nshards = -(-samples // _SHARD)
        children = np.random.SeedSequence(seed).spawn(nshards)
        out = np.empty(samples, dtype=np.int64)
        pos = 0
        for child in children:
            m = min(_SHARD, samples - pos)
            rng = np.random.default_rng(child)
            sel = rng.integers(0, 2, size=(m, self.term_count), dtype=np.uint8).astype(bool)
            out[pos : pos + m] = transform.gaps(sel, self._masks, self.n)
            pos += m
        return out


def _exhaustive_gaps(n: int) -> np.ndarray:
    """Gap of every one of the 2^{g1(n)} polynomials, n small: entry i
    selects term k of all_terms(n) for each bit k set in i."""
    if n > _EXACT_N_CAP:
        raise CapExceeded(f"exhaustive enumeration needs n <= {_EXACT_N_CAP}")
    masks = Poly3(n, tuple(all_terms(n))).masks
    sel = (np.arange(1 << len(masks))[:, None] >> np.arange(len(masks))) & 1 == 1
    return transform.gaps(sel, masks, n)


def exact_moment(n: int, k: int) -> MomentReport:
    """2^{nk} E[(gap/2^n)^{2k}] as an exact rational, exhaustively."""
    if not 1 <= n <= _EXACT_N_CAP:
        raise CapExceeded(f"exact moments need 1 <= n <= {_EXACT_N_CAP}, got {n}")
    if not 1 <= k <= _EXACT_K_CAP:
        raise CapExceeded(f"exact moments need 1 <= k <= {_EXACT_K_CAP}, got {k}")
    gaps = _exhaustive_gaps(n)
    vals, counts = np.unique(gaps, return_counts=True)
    total = sum(int(c) * int(v) ** (2 * k) for v, c in zip(vals, counts))
    # 2^{nk} E[ngap^{2k}] = sum gap^{2k} / (|F| 2^{nk})
    value = Fraction(total, (1 << max_terms(n)) * (1 << (n * k)))
    return MomentReport(n=n, k=k, kind="exact", value=value,
                        samples=1 << max_terms(n), std_error=0.0)


def _jackknife_se(x: np.ndarray) -> float:
    """Leave-one-out jackknife standard error of the sample mean."""
    m = x.size
    if m < 2:
        return float("nan")
    total = x.sum()
    loo = (total - x) / (m - 1)
    return float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))


def sampled_moment(n: int, k: int, samples: int, seed: int) -> MomentReport:
    """Monte Carlo estimate of 2^{nk} E[(gap/2^n)^{2k}] with jackknife SE."""
    if k < 1:
        raise ValueError("k must be positive")
    if n * k >= sys.float_info.max_exp:
        raise ValueError(f"the moment's scale 2^(n*k) = 2^{n * k} is past float range; "
                         f"n*k must stay below {sys.float_info.max_exp}")
    gaps = GapSampler(n).gaps(samples, seed).astype(np.float64)
    with np.errstate(over="ignore"):  # an infinite term is refused below
        stats = gaps ** (2 * k) / 2.0 ** (n * k)
    if not np.isfinite(stats).all():
        raise ValueError(f"a sampled term gap^(2k) / 2^(n*k) is past float range "
                         f"at n = {n}, k = {k}")
    return MomentReport(n=n, k=k, kind="sampled", value=float(stats.mean()),
                        samples=samples, std_error=_jackknife_se(stats))


def gap_histogram(n: int, samples: int, seed: int) -> list[tuple[int, int]]:
    """Sampled gap frequencies as (gap value, count), sorted by gap."""
    gaps = GapSampler(n).gaps(samples, seed)
    vals, counts = np.unique(gaps, return_counts=True)
    return [(int(v), int(c)) for v, c in zip(vals, counts)]


def count_matrix_solutions(n: int, k: int) -> int:
    """Number of 2k x n binary matrices whose columns X_a satisfy
    sum_x X_a(x) X_b(x) X_c(x) = 0 mod 2 for every ordered column triple
    (repeats included).

    Equals 2^{2nk} E[(gap/2^n)^{2k}] = 2^{nk} * exact_moment(n, k).value.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if 2 * k * n > _MATRIX_BITS_CAP:
        raise CapExceeded(f"matrix counting needs 2kn <= {_MATRIX_BITS_CAP}")
    dim = 2 * k
    vecs = np.arange(1 << dim, dtype=np.int64)
    pc = np.bitwise_count
    # triples with a repeated index collapse: <w,w,w> = |w|, <w,w,v> = <w,v>
    base = vecs[pc(vecs) % 2 == 0]

    def extend(cands: np.ndarray, depth: int, chosen: list[int]) -> int:
        if depth == n:
            return 1
        total = 0
        for w in cands.tolist():
            keep = pc(cands & w) % 2 == 0
            for v in chosen:
                keep &= pc(cands & (w & v)) % 2 == 0
            total += extend(cands[keep], depth + 1, chosen + [w])
        return total

    return extend(base, 0, [])


def _rref_bases(k: int):
    """Yield basis arrays, one per k-dimensional subspace of F2^{2k}.

    Each subspace has a unique reduced-row-echelon basis: fix pivot
    columns, then range over the free entries. Rows are ints with column
    c at bit position c. Yields (batch, k) int64 arrays grouped by pivot set.
    """
    m = 2 * k
    for pivots in combinations(range(m), k):
        free = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, m):
                if c not in pivots:
                    free.append((i, c))
        nfree = len(free)
        batch = np.zeros((1 << nfree, k), dtype=np.int64)
        for i, p in enumerate(pivots):
            batch[:, i] = 1 << p
        if nfree:
            masks = np.arange(1 << nfree, dtype=np.int64)
            for b, (i, c) in enumerate(free):
                batch[:, i] |= ((masks >> b) & 1) << c
        yield batch


def count_condition_subspaces(k: int, degree: int) -> int:
    """Count k-dimensional subspaces H of F2^{2k} that are self-annihilating
    at the given degree: degree 3 requires the span of pointwise products
    H^x to lie in the dual H^perp; degree 2 requires H itself to.

    Pointwise multiplication distributes over XOR coordinatewise, so both
    conditions reduce to parity checks on basis vectors.
    """
    if degree not in (2, 3):
        raise ValueError("degree must be 2 or 3")
    if not 1 <= k <= _SUBSPACE_K_CAP:
        raise CapExceeded(f"subspace enumeration needs 1 <= k <= {_SUBSPACE_K_CAP}")
    total = 0
    for batch in _rref_bases(k):
        ok = np.ones(batch.shape[0], dtype=bool)
        # AND is symmetric, so each product of `degree` basis vectors
        # needs checking once, in sorted order
        for cols in combinations_with_replacement(range(k), degree):
            prod = np.bitwise_and.reduce(batch[:, list(cols)], axis=1)
            ok &= np.bitwise_count(prod.astype(np.uint64)) % 2 == 0
        total += int(ok.sum())
    return total


def _chebyshev_t_coeffs(order: int) -> list[int]:
    """Integer coefficients of the Chebyshev polynomial T_order."""
    prev, cur = [1], [0, 1]
    if order == 0:
        return prev
    for _ in range(order - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


@dataclass(frozen=True)
class MassPoly:
    """p(x) = (delta^2/(1-delta^2)) (T_L(sqrt(1+A-4Ax))^2 - 1) expanded
    in powers of x, with L=15 and delta=1/2.

    x_coeffs are the exact rational coefficients of x^j; c[j] =
    (2j-1)!! * x_coeffs[j], the form the coefficients are quoted in
    (so that sum_j c_j equals E[p(x^2)] for standard Gaussian x).
    """

    a_value: Fraction
    x_coeffs: tuple[Fraction, ...]
    c_exact: tuple[Fraction, ...]
    q_coeffs: tuple[int, ...]

    @property
    def c(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.c_exact)

    def c_sum(self) -> Fraction:
        return sum(self.c_exact, Fraction(0))

    def __call__(self, x: float) -> float:
        # T_15 is odd, so T_15(sqrt(u))^2 = u Q(u)^2 with integer Q;
        # Horner on the monomial x-coefficients would cancel catastrophically
        # for x beyond a few units, this form stays at full precision
        u = 1.0 + float(self.a_value) * (1.0 - 4.0 * x)
        q = 0.0
        for coeff in reversed(self.q_coeffs):
            q = q * u + coeff
        return (u * q * q - 1.0) / 3.0

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for coeff in reversed(self.x_coeffs):
            acc = acc * x + coeff
        return acc

    def grid_max_excess(self) -> Fraction:
        """max of p(x) - indicator(x <= 1/4) over the grid x = i/1000 in [0, 20].

        Exact integer arithmetic throughout: coefficients are cleared to a
        common denominator and the grid points are rationals.
        """
        limit, step_denom = 20, 1000
        d = math.lcm(*(c.denominator for c in self.x_coeffs))
        deg = len(self.x_coeffs) - 1
        # scaled coeff of x^j: numerator * step_denom^{deg-j}, so Horner in i
        scaled = [int(c * d) * step_denom ** (deg - j) for j, c in enumerate(self.x_coeffs)]
        one = d * step_denom ** deg
        cut = step_denom // 4
        best = None
        for i in range(limit * step_denom + 1):
            acc = scaled[deg]
            for j in range(deg - 1, -1, -1):
                acc = acc * i + scaled[j]
            excess = acc - (one if i <= cut else 0)
            if best is None or excess > best:
                best = excess
        return Fraction(best, one)


@lru_cache(maxsize=1)
def mass_poly() -> MassPoly:
    """The degree-15 Chebyshev bump recomputed exactly from its construction.

    A = cosh(arccosh(1/delta)/L)^2 - 1 is evaluated in 60-digit decimal
    arithmetic and frozen to a rational; everything downstream is exact.
    T_15 is odd, T_15(y) = y Q(y^2), so T_15(sqrt(u))^2 = u Q(u)^2 is a
    polynomial in u = 1 + A - 4Ax.
    """
    getcontext().prec = 70
    # arccosh(2) = ln(2 + sqrt(3))
    theta = (Decimal(2) + Decimal(3).sqrt()).ln() / 15
    e = theta.exp()
    cosh_t = (e + 1 / e) / 2
    # floor to 60 digits: any A at or below the true value keeps
    # T_15(sqrt(1+A))^2 <= 4, hence p <= 1 on [0, 1/4]; rounding up by
    # even 1e-58 pushes p(0) above the indicator
    a = Fraction((cosh_t * cosh_t - 1).quantize(Decimal(1).scaleb(-60), rounding=ROUND_FLOOR))

    t15 = _chebyshev_t_coeffs(15)
    q = [t15[2 * i + 1] for i in range(8)]
    qq = [0] * 15
    for i, qi in enumerate(q):
        for j, qj in enumerate(q):
            qq[i + j] += qi * qj
    w = [0] + qq  # u * Q(u)^2

    u0, u1 = 1 + a, -4 * a
    px = [Fraction(0)] * 16
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        for jx in range(i + 1):
            px[jx] += wi * math.comb(i, jx) * u0 ** (i - jx) * u1 ** jx
    px[0] -= 1
    # delta^2/(1-delta^2) = 1/3 at delta = 1/2
    px = [c / 3 for c in px]
    c_exact = tuple(px[j] * gaussian_moment_target(j) for j in range(16))
    return MassPoly(a_value=a, x_coeffs=tuple(px), c_exact=c_exact, q_coeffs=tuple(q))


@dataclass(frozen=True)
class PromiseReport:
    """YES/NO/NONPROMISE fractions of the gap promise and the implied
    p0 = max(YES, NO)/(YES + NO).

    Exact kind carries rational fractions and zero standard errors;
    sampled kind carries floats with binomial standard errors (p0's SE
    conditions on the number of promise samples).
    """

    n: int
    kind: str
    yes_fraction: Fraction | float
    no_fraction: Fraction | float
    nonpromise_fraction: Fraction | float
    p0: Fraction | float
    samples: int
    yes_se: float
    no_se: float
    p0_se: float


def _classify_counts(gaps: np.ndarray, n: int) -> tuple[int, int, int]:
    """(yes, no, nonpromise) counts, classifying each distinct gap once."""
    counts = {"YES": 0, "NO": 0, "NONPROMISE": 0}
    for gap, k in zip(*np.unique(gaps, return_counts=True)):
        counts[classify_from_gap(int(gap), n)] += int(k)
    return counts["YES"], counts["NO"], counts["NONPROMISE"]


def promise_stats(n: int, samples: int | None = None, seed: int | None = None) -> PromiseReport:
    """Promise-class fractions: exhaustive for n <= 4, sampled above."""
    if n <= _EXACT_N_CAP:
        gaps = _exhaustive_gaps(n)
        yes, no, rest = _classify_counts(gaps, n)
        total = gaps.size
        p0 = Fraction(max(yes, no), yes + no) if yes + no else Fraction(0)
        return PromiseReport(
            n=n, kind="exact",
            yes_fraction=Fraction(yes, total), no_fraction=Fraction(no, total),
            nonpromise_fraction=Fraction(rest, total), p0=p0,
            samples=total, yes_se=0.0, no_se=0.0, p0_se=0.0)
    if samples is None or seed is None:
        raise ValueError(f"n > {_EXACT_N_CAP} requires samples and seed")
    gaps = GapSampler(n).gaps(samples, seed)
    yes, no, rest = _classify_counts(gaps, n)
    fy, fn = yes / samples, no / samples
    promise = yes + no
    p0 = max(yes, no) / promise if promise else 0.0

    def binom_se(p: float, m: int) -> float:
        return math.sqrt(p * (1 - p) / m) if m else float("nan")

    return PromiseReport(
        n=n, kind="sampled",
        yes_fraction=fy, no_fraction=fn, nonpromise_fraction=rest / samples,
        p0=p0, samples=samples,
        yes_se=binom_se(fy, samples), no_se=binom_se(fn, samples),
        p0_se=binom_se(p0, promise))
