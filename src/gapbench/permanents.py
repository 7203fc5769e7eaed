"""Matrix permanents, contraction dilation, and photonic state amplitudes.

The permanent is computed two ways: a permutation-sum reference
(factorial cost, small sizes only) and Ryser's inclusion-exclusion over
all 2^d column subsets.  Ryser splits the columns into a low and a high
half and tabulates each row's sum over every subset of each half; a
subset's row sums are then one low entry plus one high entry.

Integer matrices are summed exactly.  The int64 path runs only when a
product bound certifies that no subset product can overflow, and it
sums in slices short enough to stay exact; otherwise the computation
escalates to a Gray-code walk in arbitrary-precision Python integers.
The int64 path sorts rows by the halves they touch.  A row wholly in
the low half gives a factor that does not depend on the high subset and
is multiplied in once; a row wholly in the high half gives one scalar
per high subset, and a high subset whose scalar is 0 contributes
nothing and is skipped.  Only the remaining mixed rows are multiplied
per high subset, a batch of high subsets at a time, each vector
operation sweeping all low subsets of one row.  For a dense matrix
every row is mixed.

A square matrix A with ||A|| <= 1/c embeds in a unitary twice its size
whose top-left block is cA; preparing one photon in each of the first n
modes of the corresponding linear-optical network and measuring the
same pattern has amplitude c^n Per(A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import check

# Entry-wise tolerances for the Hermitian and unitary input checks
_HERM_TOL = 1e-10
_UNITARY_TOL = 1e-8


def _is_integer_matrix(a) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype.kind in "iu" or (
            a.dtype.kind == "O" and all(isinstance(v, int) for v in a.flat)
        )
    return all(isinstance(v, int) for row in a for v in row)


def _as_square(a):
    if isinstance(a, np.ndarray):
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        return a
    rows = [list(r) for r in a]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("need a square matrix")
    return rows


def permanent_naive(a):
    """Permanent by summing over all permutations.  Reference oracle."""
    rows = _as_square(a)
    d = len(rows) if not isinstance(rows, np.ndarray) else rows.shape[0]
    check("NAIVE_CAP", d, "permanent_naive: d")
    if d == 0:
        return 1
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    total = 0
    for perm in itertools.permutations(range(d)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def permanent_ryser(a):
    """Permanent by inclusion-exclusion over column subsets.

    Exact integers for integer input (arbitrary precision if needed),
    complex128 otherwise.  Cost 2^d products of d row sums.  An integer
    matrix whose product bound certifies int64 is summed in int64 with
    its rows split by the column halves they touch: rows wholly in one
    half are factored out, and the high subsets whose high-only rows sum
    to 0 are skipped (see the module docstring).  In the sparse matrices
    of the cycle-cover reduction about half the rows lie in one half and
    more than half of the high subsets are skipped.
    """
    rows = _as_square(a)
    d = rows.shape[0] if isinstance(rows, np.ndarray) else len(rows)
    check("RYSER_CAP", d, "permanent_ryser: d")
    if d == 0:
        return 1
    if _is_integer_matrix(rows):
        ints = [[int(v) for v in r] for r in (rows.tolist() if isinstance(rows, np.ndarray) else rows)]
        return _ryser_int(ints)
    mat = np.asarray(rows, dtype=np.complex128)
    value = _ryser_complex(mat)
    return value.real if np.isrealobj(np.asarray(a)) else value


def _subset_row_sums(mat: np.ndarray, cols: range) -> np.ndarray:
    # table[s] = sum of mat[:, j] over the columns j of `cols` in subset s
    table = np.zeros((1 << len(cols), mat.shape[0]), dtype=mat.dtype)
    for b, j in enumerate(cols):
        table[1 << b : 2 << b] = table[: 1 << b] + mat[:, j]
    return table


def _parities(count_bits: int) -> np.ndarray:
    idx = np.arange(1 << count_bits, dtype=np.uint64)
    return 1 - 2 * (np.bitwise_count(idx).astype(np.int64) & 1)


# Each product buffer of the integer path holds at most this many bytes,
# so the two stay in cache: 8 high subsets per batch at a 2^12 low half.
_BATCH_BYTES = 1 << 18


def _ryser_int(rows: list[list[int]]) -> int:
    d = len(rows)
    # certify that every subset product fits comfortably in int64
    bound = 1
    for r in rows:
        pos = sum(v for v in r if v > 0)
        neg = -sum(v for v in r if v < 0)
        bound *= max(pos, neg, 1)
    if bound >= 1 << 62 or d > 40:
        return _ryser_int_bigint(rows)

    mat = np.array(rows, dtype=np.int64)
    h = (d + 1) // 2
    in_low = mat[:, :h].any(axis=1)
    in_high = mat[:, h:].any(axis=1)
    mixed = in_low & in_high
    # A row without high columns (a zero row too) gives a factor that does
    # not depend on the high subset, so it is folded into the signed base
    # over low subsets.  A row without low columns gives one scalar per
    # high subset; where that is 0 the whole block is skipped.
    base = _parities(h) * _subset_row_sums(mat[~in_high], range(h)).prod(axis=1)
    scale = _parities(d - h) * _subset_row_sums(mat[in_high & ~in_low], range(h, d)).prod(axis=1)
    low = _subset_row_sums(mat[mixed], range(h)).T.copy()  # one row per mixed row
    high = _subset_row_sums(mat[mixed], range(h, d))
    live = np.flatnonzero(scale)
    width = 1 << h
    batch = max(1, min(len(live), _BATCH_BYTES // (8 * width)))
    prods = np.empty((batch, width), dtype=np.int64)
    row_sums = np.empty_like(prods)
    # int64 partial sums stay exact in slices of this length
    starts = np.arange(0, width, (1 << 62) // bound)
    total = 0
    for k in range(0, len(live), batch):
        s = live[k : k + batch]
        p, r, hs = prods[: len(s)], row_sums[: len(s)], high[s]
        p[:] = base
        for i in range(len(low)):
            np.add(low[i], hs[:, i : i + 1], out=r)
            np.multiply(p, r, out=p)
        parts = np.add.reduceat(p, starts, axis=1).tolist()
        total += sum(c * sum(part) for c, part in zip(scale[s].tolist(), parts))
    return total if d % 2 == 0 else -total


def _ryser_int_bigint(rows: list[list[int]]) -> int:
    # Gray-code walk with python integers; exact at any magnitude
    d = len(rows)
    cols = [[rows[i][j] for i in range(d)] for j in range(d)]
    rs = [0] * d
    gray = 0
    total = 0
    sign_base = d & 1
    for k in range(1, 1 << d):
        j = (k & -k).bit_length() - 1
        if (gray >> j) & 1:
            col = cols[j]
            for i in range(d):
                rs[i] -= col[i]
        else:
            col = cols[j]
            for i in range(d):
                rs[i] += col[i]
        gray ^= 1 << j
        prod = 1
        for v in rs:
            if v == 0:
                prod = 0
                break
            prod *= v
        if prod:
            if (bin(gray).count("1") & 1) == sign_base:
                total += prod
            else:
                total -= prod
    return total


def _ryser_complex(mat: np.ndarray) -> complex:
    d = mat.shape[0]
    h = min(d // 2, 13)  # bound the table at 2^13 rows
    low = _subset_row_sums(mat, range(h))
    high = _subset_row_sums(mat, range(h, d))
    par_low = _parities(h)
    par_high = _parities(d - h)
    total = 0.0 + 0.0j
    for s in range(len(high)):
        prods = (low + high[s]).prod(axis=1)
        total += par_high[s] * (prods * par_low).sum()
    return complex(total if d % 2 == 0 else -total)


# -- spectral helpers ---------------------------------------------------------


def spectral_norm(a) -> float:
    """Largest singular value."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("need a matrix")
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix (validated within _HERM_TOL)."""
    mat = np.asarray(h, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    if np.max(np.abs(mat - mat.conj().T)) > _HERM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(mat)


def herm_apply(h, fn) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix via its spectrum."""
    vals, vecs = herm_eig(h)
    return (vecs * fn(vals)) @ vecs.conj().T


# -- unitary dilation ---------------------------------------------------------


@dataclass(frozen=True)
class Dilation:
    unitary: np.ndarray  # 2n x 2n
    scale: float  # the contraction factor c
    n: int


def default_scale(a) -> float:
    """Default contraction factor 1/(2 max(1, ||A||))."""
    return 1.0 / (2.0 * max(1.0, spectral_norm(a)))


def dilate(a, c: float | None = None) -> Dilation:
    """Embed cA as the top-left block of a 2n x 2n unitary.

    Requires c * ||A|| strictly below 1 so the defect blocks stay
    invertible; the default c = 1/(2 max(1, ||A||)) always qualifies.
    """
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    n = mat.shape[0]
    if c is None:
        c = default_scale(mat)
    if c <= 0:
        raise ValueError(f"scale must be positive, got {c}")
    if c * spectral_norm(mat) >= 1.0 - 1e-12:
        raise ValueError(
            f"c * ||A|| = {c * spectral_norm(mat):.6f} must stay below 1"
        )
    ca = c * mat
    eye = np.eye(n)
    defect = eye - ca.conj().T @ ca  # I - c^2 A^dag A, positive definite
    s = herm_apply(defect, np.sqrt)
    s_inv = herm_apply(defect, lambda v: 1.0 / np.sqrt(v))
    inner = eye + ca @ herm_apply(defect, lambda v: 1.0 / v) @ ca.conj().T
    d_block = herm_apply(inner, lambda v: 1.0 / np.sqrt(v))
    u = np.block([[ca, d_block], [s, -s_inv @ ca.conj().T @ d_block]])
    return Dilation(unitary=u, scale=float(c), n=n)


def unitarity_defect(u) -> float:
    mat = np.asarray(u, dtype=np.complex128)
    return float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))))


# -- photonic amplitudes ------------------------------------------------------


def fock_amplitude(u, occ_in, occ_out) -> complex:
    """Transition amplitude between photon occupation patterns.

    <occ_in| phi(U) |occ_out> = Per(U_(R,R')) / sqrt(prod r_i! prod r'_j!),
    where U_(R,R') repeats row i occ_in[i] times and column j occ_out[j]
    times.  Photon numbers must agree.
    """
    mat = np.asarray(u, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("need a square matrix")
    if unitarity_defect(mat) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within tolerance")
    m = mat.shape[0]
    r_in = [int(v) for v in occ_in]
    r_out = [int(v) for v in occ_out]
    if len(r_in) != m or len(r_out) != m:
        raise ValueError(f"occupation length must equal mode count {m}")
    if any(v < 0 for v in r_in + r_out):
        raise ValueError("occupations must be nonnegative")
    if sum(r_in) != sum(r_out):
        raise ValueError(f"photon numbers differ: {sum(r_in)} vs {sum(r_out)}")
    s = sum(r_in)
    if s == 0:
        return 1.0 + 0.0j
    rows = np.repeat(np.arange(m), r_in)
    colsd = np.repeat(np.arange(m), r_out)
    sub = mat[np.ix_(rows, colsd)]
    per = permanent_ryser(sub)
    norm = math.sqrt(
        math.prod(math.factorial(v) for v in r_in)
        * math.prod(math.factorial(v) for v in r_out)
    )
    return complex(per) / norm


@dataclass(frozen=True)
class PermanentEncoding:
    dilation: Dilation
    amplitude: complex  # equals scale^n * Per(A)


def encode_permanent(a, c: float | None = None) -> PermanentEncoding:
    """Dilate A and read Per(A) off a single-photon-per-mode amplitude.

    With one photon in each of the first n modes in and out, the
    amplitude is c^n Per(A); dividing by c^n recovers the permanent.
    """
    dil = dilate(a, c=c)
    occ = [1] * dil.n + [0] * dil.n
    amp = fock_amplitude(dil.unitary, occ, occ)
    return PermanentEncoding(dilation=dil, amplitude=amp)
