"""Degree-3 polynomials over GF(2) and their gap statistic.

A polynomial is a set of monomials (no constant term) in n >= 0 boolean
variables, each monomial of degree at most three, held as one tuple in
canonical order: by degree, then lexicographically.  The central
quantity is the gap,

    gap(f) = sum_x (-1)^f(x)  =  #zeros(f) - #ones(f),

an even integer in [-2^n, 2^n].  There are (n^3 + 5n)/6 distinct
monomials of degree <= 3, so the family has 2^((n^3+5n)/6) members.

Two text/JSON formats are supported: a human grammar with 1-based
variables ("x1 + x2 + x1*x2") and a canonical JSON dict with 0-based
indices.  Internally indices are always 0-based.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jsoninput
from .config import check
from .transform import gaps, packed_truth_tables


class ParseError(ValueError):
    """Malformed polynomial text; `position` is the offending offset."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


def max_terms(n: int) -> int:
    """Number of distinct monomials of degree <= 3 on n variables."""
    return (n ** 3 + 5 * n) // 6


def all_terms(n: int) -> list[tuple[int, ...]]:
    """Every candidate monomial, canonically ordered: linear, pairs, triples."""
    terms: list[tuple[int, ...]] = [(i,) for i in range(n)]
    terms.extend(itertools.combinations(range(n), 2))
    terms.extend(itertools.combinations(range(n), 3))
    return terms


@dataclass(frozen=True)
class Poly3:
    """Immutable degree-3 polynomial over GF(2) with no constant term.

    Variables are indexed 0..n-1, n >= 0.  `terms` holds the monomials
    with coefficient 1 as sorted tuples of distinct indices, in canonical
    order: by degree, then lexicographically.  The empty polynomial
    (zero) is valid and has gap 2^n; on n = 0 variables it has gap 1.
    """

    n: int
    terms: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"variable count must be a nonnegative int, got {self.n!r}")
        if not isinstance(self.terms, tuple):
            raise ValueError("terms must be a tuple of index tuples")
        prev: tuple = (0, ())
        for term in self.terms:
            if not (isinstance(term, tuple) and 1 <= len(term) <= 3 and 0 <= term[0]
                    and term[-1] < self.n and all(map(operator.lt, term, term[1:]))):
                raise ValueError(f"bad term {term!r} for {self.n} variables")
            key = (len(term), term)
            if key <= prev:
                raise ValueError(f"term {term} repeated or out of canonical order")
            prev = key

    @classmethod
    def from_terms(cls, n: int, terms) -> "Poly3":
        """Build from an iterable of index tuples, normalizing mod 2.

        Repeated indices inside a monomial collapse (x*x = x); duplicate
        monomials cancel in pairs.  Degree-0 terms are rejected.
        """
        counts: dict[tuple[int, ...], int] = {}
        for raw in terms:
            mono = tuple(sorted(set(raw)))
            if len(mono) == 0:
                raise ValueError("constant (degree-0) terms are not representable")
            if len(mono) > 3:
                raise ValueError(f"term {tuple(raw)} has degree {len(mono)} > 3")
            counts[mono] = counts.get(mono, 0) ^ 1
        odd = sorted(t for t, c in counts.items() if c)
        return cls(n=n, terms=tuple(sorted(odd, key=len)))  # stable: lexicographic per degree

    @cached_property
    def masks(self) -> np.ndarray:
        """Read-only int64 variable mask of each term (bit i = x_i), built once."""
        # a term's 1 to 3 variables are its first, middle and last index
        masks = np.array([1 << t[0] | 1 << t[len(t) // 2] | 1 << t[-1] for t in self.terms],
                         dtype=np.int64)
        masks.flags.writeable = False
        return masks

    def __str__(self) -> str:
        return to_text(self)


def evaluate(f: Poly3, x) -> int:
    """Evaluate f at an assignment.

    `x` is either an int bitmask (bit i = variable i) or a sequence of n
    bits.  Returns 0 or 1.
    """
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < (1 << f.n):
            raise ValueError(f"assignment {x} out of range for {f.n} variables")
        bits = [(int(x) >> i) & 1 for i in range(f.n)]
    else:
        bits = [int(b) for b in x]
        if len(bits) != f.n:
            raise ValueError(f"assignment length {len(bits)} != n = {f.n}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("assignment bits must be 0 or 1")
    acc = 0
    for term in f.terms:
        acc ^= all(bits[i] for i in term)
    return acc


def evaluate_points(f: Poly3, xs) -> np.ndarray:
    """Values of f at many int bitmask assignments, as a flat 0/1 uint8 array.

    Each variable's bit over all points is packed eight points to a
    byte; each term ANDs its variables' columns into the running XOR.
    """
    xs = np.asarray(xs, dtype=np.int64).reshape(-1)
    if xs.size and not (0 <= xs.min() and xs.max() < 1 << f.n):
        raise ValueError(f"assignments out of range for {f.n} variables")
    cols = [np.packbits(xs & (1 << i)) for i in range(f.n)]
    acc = np.zeros(-(-xs.size // 8), dtype=np.uint8)
    for term in f.terms:
        prod = cols[term[0]]
        for i in term[1:]:
            prod = prod & cols[i]
        acc ^= prod
    return np.unpackbits(acc, count=xs.size)


def truth_table(f: Poly3) -> np.ndarray:
    """0/1 uint8 table of f on all 2^n assignments (index bit i = var i)."""
    check("DIST_CAP", f.n, "truth_table: n")
    packed = packed_truth_tables(np.ones((1, len(f.terms)), dtype=bool), f.masks, f.n)[0]
    packed = packed.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(packed, bitorder="little")[: 1 << f.n]


# Packed tables span at most 2^24 points (2 MiB, 4 MiB with the transform
# temporary); gap_bruteforce folds any variables above into table rows.
_TABLE_LIMIT = 24


def gap_bruteforce(f: Poly3) -> int:
    """Exact gap by exhaustive evaluation.  Refuses n beyond the cap.

    The variables above the lowest low = min(n, _TABLE_LIMIT) pick a row
    of one table batch: in row a, a term survives when all its variables
    above low are set in a, and keeps its part below (maybe the constant 1).
    """
    check("BRUTE_CAP", f.n, "gap_bruteforce: n")
    low = min(f.n, _TABLE_LIMIT)
    blocks = np.arange(1 << (f.n - low))[:, None]
    alive = ((f.masks >> low) & ~blocks) == 0
    return int(gaps(alive, f.masks & ((1 << low) - 1), low).sum())


def zeros_count(f: Poly3) -> int:
    """Number of assignments with f(x) = 0, i.e. (2^n + gap)/2."""
    gap = gap_bruteforce(f)  # its cap check comes before 2^n is formed
    return ((1 << f.n) + gap) // 2


def linear_part(f: Poly3) -> int:
    """The linear terms of f as an n-bit mask (bit i set iff x_i present)."""
    return sum(1 << t[0] for t in f.terms if len(t) == 1)


def strip_linear(f: Poly3) -> Poly3:
    """f with its linear part removed (degree >= 2 terms only)."""
    return Poly3(n=f.n, terms=tuple(t for t in f.terms if len(t) > 1))


def with_linear(f: Poly3, mask: int) -> Poly3:
    """Replace the linear part of f with the given n-bit mask."""
    if not 0 <= mask < (1 << f.n):
        raise ValueError(f"linear mask {mask} out of range for n = {f.n}")
    lin = tuple((i,) for i in range(f.n) if (mask >> i) & 1)
    return Poly3(n=f.n, terms=lin + tuple(t for t in f.terms if len(t) > 1))


def restrict_with_constant(f: Poly3, j: int, b: int, mask: int = 0) -> tuple[Poly3, int]:
    """Substitute x_j = b + sum_{k in mask} x_k and reindex; returns
    (polynomial, constant bit).

    Bit j of the n-bit `mask` must be clear; mask = 0 pins x_j = b.  A
    term x_j * r becomes b * r plus x_k * r for each k in the mask
    (x_k * r = r when k occurs in r), so the degree stays at most 3.
    Variables above j shift down by one; pinning the last variable
    leaves a polynomial on none.  A term that becomes the constant 1,
    which Poly3 cannot hold, comes back separately:
    f(x)|_{x_j = b + mask.x} = poly(x') + c.
    """
    if not 0 <= j < f.n:
        raise ValueError(f"variable index {j} out of range [0, {f.n})")
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    if mask >> f.n or (mask >> j) & 1:
        raise ValueError(f"substitution mask {mask} must lie in [0, 2^{f.n}) with bit {j} clear")
    others = [k for k in range(mask.bit_length()) if (mask >> k) & 1]
    const = 0
    new_terms: list[tuple[int, ...]] = []
    for term in f.terms:
        if j in term:
            rest = tuple(i for i in term if i != j)
            monos = [rest] * b + [rest + (k,) for k in others]  # from_terms collapses x_k*x_k
        else:
            monos = [term]
        for mono in monos:
            if mono:
                new_terms.append(tuple(i if i < j else i - 1 for i in mono))
            else:
                const ^= 1
    return Poly3.from_terms(f.n - 1, new_terms), const


def random_poly(n: int, rng: np.random.Generator) -> Poly3:
    """Uniform draw over all 2^((n^3+5n)/6) polynomials on n variables."""
    terms = all_terms(n)
    take = rng.integers(0, 2, size=len(terms), dtype=np.uint8)
    # all_terms is canonical, so the kept terms need no sorting
    return Poly3(n, tuple(t for t, keep in zip(terms, take) if keep))


# -- text format ------------------------------------------------------------

_TOKEN = re.compile(r"\s*(x(\d+)|\+|\*|0)")


def parse_poly(text: str, n: int) -> Poly3:
    """Parse the 1-based grammar "x1 + x2 + x1*x2" into a Poly3.

    "0" (alone) denotes the empty polynomial.  Repeated variables in a
    monomial collapse; duplicate monomials cancel mod 2.
    """
    if n < 1:
        raise ValueError("variable count must be positive")
    stripped = text.strip()
    if stripped == "0":
        return Poly3.from_terms(n, [])
    if not stripped:
        raise ParseError("empty polynomial text (use '0' for the zero polynomial)", 0)

    terms: list[list[int]] = []
    current: list[int] = []
    expect_var = True  # next token must be a variable
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            # skip trailing whitespace
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        tok = m.group(1)
        if tok == "0":
            raise ParseError("'0' is only valid as the whole polynomial", m.start(1))
        if tok == "+":
            if expect_var:
                raise ParseError("'+' where a variable was expected", m.start(1))
            terms.append(current)
            current = []
            expect_var = True
        elif tok == "*":
            if expect_var:
                raise ParseError("'*' where a variable was expected", m.start(1))
            expect_var = True
        else:
            if not expect_var:
                raise ParseError(
                    f"variable {tok!r} needs a '+' or '*' before it", m.start(1)
                )
            idx = int(m.group(2))
            if idx < 1:
                raise ParseError("variables are numbered from x1", m.start(1))
            if idx > n:
                raise ParseError(f"{tok} exceeds the declared {n} variables", m.start(1))
            current.append(idx - 1)
            expect_var = False
        pos = m.end()
    if expect_var:
        raise ParseError("polynomial ends where a variable was expected", len(text))
    terms.append(current)
    for t in terms:
        if len(set(t)) > 3:
            raise ParseError(f"term of degree {len(set(t))} exceeds 3", 0)
    return Poly3.from_terms(n, terms)


def to_text(f: Poly3) -> str:
    """Render in the 1-based grammar; the empty polynomial prints as '0'."""
    parts = ["*".join(f"x{i + 1}" for i in term) for term in f.terms]
    return " + ".join(parts) if parts else "0"


# -- canonical JSON format --------------------------------------------------


def to_json_dict(f: Poly3) -> dict:
    """Canonical dict with 0-based, sorted, deduplicated index lists."""
    return {
        "n": f.n,
        "linear": [t[0] for t in f.terms if len(t) == 1],
        "quadratic": [list(t) for t in f.terms if len(t) == 2],
        "cubic": [list(t) for t in f.terms if len(t) == 3],
    }


def from_json_dict(d: dict) -> Poly3:
    if not isinstance(d, dict) or "n" not in d:
        raise ValueError("polynomial JSON must be an object with an 'n' field")
    n = jsoninput.integer(d["n"], "polynomial JSON 'n'")
    terms = [(i,) for i in jsoninput.integers(d.get("linear", []), "polynomial JSON 'linear'")]
    for key in ("quadratic", "cubic"):
        terms += [jsoninput.integers(term, f"polynomial JSON {key!r} term")
                  for term in jsoninput.array(d.get(key, []), f"polynomial JSON {key!r}")]
    for t in terms:
        if any(not 0 <= i < n for i in t):
            raise ValueError(f"index in term {t} out of range [0, {n})")
    return Poly3.from_terms(n, terms)


def dumps(f: Poly3) -> str:
    return json.dumps(to_json_dict(f), sort_keys=True)


def loads(s: str) -> Poly3:
    return from_json_dict(jsoninput.parse(s, "polynomial JSON"))
