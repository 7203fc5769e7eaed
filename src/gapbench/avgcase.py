"""Average-case machinery for the gap problem.

A worst-case-to-quasi-average-case recursion (an oracle answering gap
queries on random linear-part shifts of a fixed polynomial pins down the
worst-case gap in n calls), the certificate verifier for unbalanced
polynomials, and exact log-domain acceptance probabilities for the
collision-style query test with its threshold constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .circuits import classify_from_gap
from .config import check
from .poly3 import (
    Poly3,
    gap_bruteforce,
    linear_part,
    restrict_with_constant,
    truth_table,
    with_linear,
)


@dataclass
class GapOracle:
    """A gap evaluator, exact or corrupted.

    The corrupted flavor answers gap+2 on an independent rho fraction of
    calls (fresh randomness per call, not a fixed bad-instance set: the
    testable proxy for an adversary wrong on a rho fraction of each class).
    """

    kind: str
    rho: float
    _fn: Callable[[Poly3], int]
    _rng: np.random.Generator | None = None
    calls: int = 0
    corrupted_calls: int = 0

    def query(self, f: Poly3) -> int:
        self.calls += 1
        value = self._fn(f)
        if self._rng is not None and self._rng.random() < self.rho:
            self.corrupted_calls += 1
            return value + 2
        return value


def exact_oracle() -> GapOracle:
    return GapOracle(kind="exact", rho=0.0, _fn=gap_bruteforce)


def make_corrupt_oracle(rho: float, seed: int) -> GapOracle:
    if not 0 <= rho <= 1:
        raise ValueError("rho must be a probability")
    return GapOracle(kind="corrupt", rho=rho, _fn=gap_bruteforce,
                     _rng=np.random.default_rng(seed))


def randomize_linear(f: Poly3, rng: np.random.Generator) -> Poly3:
    """Uniform draw from the class of polynomials sharing f's quadratic
    and cubic parts: the linear part is replaced by a uniform mask."""
    bits = rng.integers(0, 2, size=f.n)
    mask = 0
    for i, b in enumerate(bits):
        mask |= int(b) << i
    return with_linear(f, mask)


def substitute_pivot(f: Poly3, u: int, j: int) -> Poly3:
    """Apply the bijective substitution x_j <- x_j + sum_{k != j, u_k = 1} x_k.

    This is the inverse change of variables for x_j' = sum_k u_k x_k,
    so the result represents the same function in the new coordinates:
    the gap is preserved and the degree stays at most 3 (a linear form
    substituted into a monomial cannot raise its degree).
    """
    if not 0 <= j < f.n:
        raise ValueError("pivot index out of range")
    if u >> f.n:
        raise ValueError("mask has bits beyond the variable count")
    if not (u >> j) & 1:
        raise ValueError("pivot bit must be set in the mask")
    others = [k for k in range(f.n) if k != j and (u >> k) & 1]
    out: list[tuple[int, ...]] = []
    for term in f.terms():
        if j not in term:
            out.append(term)
            continue
        rest = tuple(v for v in term if v != j)
        out.append(term)
        for k in others:
            # x_k * prod(rest): idempotent if k already occurs
            mono = rest if k in rest else tuple(sorted(rest + (k,)))
            out.append(mono)
    return Poly3.from_terms(f.n, out)


def gap_from_quasi_avg_oracle(f: Poly3, oracle: GapOracle, rng: np.random.Generator) -> int:
    """Worst-case gap from an oracle for gaps of random class members.

    Each round draws g uniformly from the class of the current
    polynomial, asks the oracle for gap(g), and uses
    gap(f) = gap(g) + 2 gap(f'|x_j = 1), where x_j' = sum u_k x_k is the
    substitution aligning f and g (u is where their linear parts differ).
    One oracle call per round, at most n rounds, exact with an exact
    oracle; each corrupted answer shifts the result by a nonzero amount.
    """
    total = 0
    scale = 1
    work = f
    while True:
        if work.n == 1:
            total += scale * gap_bruteforce(work)
            return total
        g = randomize_linear(work, rng)
        claimed = oracle.query(g)
        total += scale * claimed
        u = linear_part(work) ^ linear_part(g)
        if u == 0:
            # g = f at this level; the oracle answer already covers it
            return total
        j = u.bit_length() - 1
        fp = substitute_pivot(work, u, j)
        sub, const = restrict_with_constant(fp, j, 1)
        scale *= -2 if const else 2
        work = sub


def certificate_size(n: int) -> int:
    return (1 << (n - 1)) + 1


def certificate_verify(f_oracle: Callable[[np.ndarray], np.ndarray], n: int,
                       assignments: Sequence[int]) -> bool:
    """Accept iff the black-box function is constant on the certificate.

    The certificate must contain exactly 2^{n-1}+1 distinct assignments:
    one more than half the cube, so constancy on it rules out balance.
    The black box is queried once, with the int64 array of all of them,
    and answers with their values (or one value for every point).
    """
    points = np.asarray(assignments, dtype=np.int64).reshape(-1)
    need = certificate_size(n)
    if points.size != need:
        raise ValueError(f"certificate must contain exactly {need} assignments")
    ordered = np.sort(points)
    if ordered[0] < 0 or ordered[-1] >= 1 << n:
        raise ValueError("assignment out of range")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("assignments must be distinct")
    values = np.broadcast_to(f_oracle(points), points.shape)
    return bool(np.all(values == values[0]))


def find_certificate(f: Poly3) -> np.ndarray | None:
    """An accepting certificate for f, or None if f is balanced.

    The majority value has at least 2^{n-1}+1 preimages exactly when the
    gap is nonzero; return the lexically first such set, as an int64
    array of assignments.  The answer and the truth table behind it have
    2^n entries, so the distribution cap applies, checked before any
    table is built.
    """
    check("DIST_CAP", f.n, "find_certificate: n")
    tt = truth_table(f).reshape(-1)
    need = certificate_size(f.n)
    for value in (0, 1):
        idx = np.flatnonzero(tt == value)
        if idx.size >= need:
            return idx[:need]
    return None


@dataclass(frozen=True)
class SbThresholds:
    """Constants for the collision test at size n, kept in log domain.

    L = ceil(10 * 2^{n/2}) samples; the target acceptance threshold is
    t(n) = 2^{-L} exp(9/sqrt(2)) with separation constant c = 1.5:
    YES instances accept with log-probability >= log t(n), NO instances
    with <= log(t(n)/c). Linear-domain values underflow doubles long
    before the interesting n, so only logs are stored.
    """

    n: int
    L: int
    log_t: float
    c: ClassVar[float] = 1.5

    @property
    def log_t_over_c(self) -> float:
        return self.log_t - math.log(self.c)

    @classmethod
    def for_n(cls, n: int) -> "SbThresholds":
        if n < 1:
            raise ValueError("n must be positive")
        # L = ceil(sqrt(100 * 2^n)) in exact integer arithmetic
        target = 100 << n
        root = math.isqrt(target)
        if root * root < target:
            root += 1
        log_t = 9 / math.sqrt(2) - root * math.log(2)
        return cls(n=n, L=root, log_t=log_t)


def sb_acceptance_exact(gap: int, n: int, L: int | None = None) -> float:
    """log P[all L with-replacement samples of (-1)^f land on one side].

    P = q1^L + q0^L with q1 = 1/2 + |gap|/2^{n+1}; evaluated as
    L log q1 + log1p((q0/q1)^L) so the astronomically small values keep
    full relative precision.
    """
    if abs(gap) > 1 << n:
        raise ValueError("|gap| cannot exceed 2^n")
    if L is None:
        L = SbThresholds.for_n(n).L
    if L < 1:
        raise ValueError("L must be positive")
    q1 = 0.5 + abs(gap) / (1 << (n + 1))
    q0 = 1.0 - q1
    if q0 == 0.0:
        return 0.0
    ratio_log = L * (math.log(q0) - math.log(q1))
    return L * math.log(q1) + math.log1p(math.exp(ratio_log))


def yes_threshold_gap(n: int) -> int:
    """Smallest nonnegative even gap that classify_from_gap calls YES
    (gap^2 >= 2^{n-1}), searched upward from an even lower bound."""
    if n < 1:
        raise ValueError("n must be positive")
    g = math.isqrt(1 << (n - 1))
    g += g % 2
    while classify_from_gap(g, n) != "YES":
        g += 2
    return g


def no_threshold_gap(n: int) -> int:
    """Largest even gap that classify_from_gap calls NO (gap^2 <=
    2^{n-2}), searched downward from an even upper bound."""
    if n < 2:
        raise ValueError("n must be at least 2")
    g = math.isqrt(1 << (n - 2))
    g -= g % 2
    while classify_from_gap(g, n) != "NO":
        g -= 2
    return g
