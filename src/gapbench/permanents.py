"""Matrix permanents, contraction dilation, and photonic state amplitudes.

The permanent is computed two ways: a permutation-sum reference
(factorial cost, small sizes only) and one inclusion-exclusion kernel.
The kernel splits the columns into a low half of ceil(d/2) and a high
half and tabulates each row's sum for every subset of each half; a
term's row sums are then one low entry plus one high entry.  Integer
input takes Ryser's form, 0/1 sums over all 2^d column subsets.
Floating input takes Glynn's form (Eur. J. Combin. 2010), +-1 sums over
the 2^(d-1) sign vectors whose first sign is +1, half of Ryser's terms:
a half table's entry 0 is minus the row's sum over that half and each
set bit adds twice its column, and the total is divided by 2^(d-1).
The two forms round differently, so floating results may differ from a
Ryser sum in the last bits; a real matrix gives the same result, bit for
bit, as float64 or as complex128 input.  Integer input keeps Ryser's
form because its 0/1 sums vanish far more often on sparse matrices,
which the zero-factor skipping below exploits.

The kernel runs in one of three number types: int64 when a product bound
certifies that no subset product can overflow, summed in slices short
enough to stay exact; Python integers (numpy object arrays) for the
remaining integer matrices; and float64 or complex128 for real or
complex input.  The two forms differ only in their half tables, the
subsets kept and the final division; everything else is shared.  The
kernel sorts rows by the halves they touch.  The rows wholly in the low
half give one factor per low subset, which does not depend on the high
subset and is multiplied in once; the rows wholly in the high half give
one scalar per high subset.  In both halves a subset whose factor is 0
contributes nothing and is skipped.  Only the remaining mixed rows are
multiplied per high subset, a batch of high subsets at a time, each
vector operation sweeping the live low subsets of one row.  For a dense
matrix every row is mixed and every subset live.

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


def _square(a) -> np.ndarray:
    """`a` as a square 2-D array: the entry check of every square-matrix routine.

    Arrays pass as they are.  Nested sequences become an object array of
    their entries, so Python integers of any size stay exact.
    """
    if not isinstance(a, np.ndarray):
        # ragged rows give a 1-D array of lists; no rows give a 0 x 0 matrix
        a = np.array([list(r) for r in a] or np.empty((0, 0)), dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def permanent_naive(a):
    """Permanent by summing over all permutations.  Reference oracle."""
    mat = _square(a)
    d = mat.shape[0]
    check("NAIVE_CAP", d, "permanent_naive: d")
    rows = mat.tolist()
    total = 0  # d = 0 has one permutation, the empty one
    for perm in itertools.permutations(range(d)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def permanent_ryser(a):
    """Permanent by inclusion-exclusion over column subsets.

    Returns an exact int for integer entries (an int, uint or bool array,
    or Python ints of any size), a float for other real entries and a
    complex otherwise.  Integer input sums Ryser's 2^d products of d 0/1
    row sums, in int64 when its product bound certifies that no subset
    product overflows and in Python integers when it does not.  Floating
    input sums Glynn's 2^(d-1) products of d +-1 row sums in the same
    kernel, half the terms; its result may differ from Ryser's in the
    last bits, and a NaN from finite entries raises OverflowError.  Rows
    wholly in one column half are factored out, and in both halves the
    subsets on which those rows' product is 0 are skipped (see the module
    docstring); in the sparse matrices of the cycle-cover reduction most
    subsets of both halves are skipped.
    """
    mat = _square(a)
    d = mat.shape[0]
    check("RYSER_CAP", d, "permanent_ryser: d")
    if d == 0:
        return 1
    # the number type: Python entries by their types, arrays by their dtype
    kind = np.result_type(*({type(v) for v in mat.flat} if mat.dtype == object
                            else {mat.dtype})).kind
    if kind in "biu":
        ints = [[int(v) for v in r] for r in mat.tolist()]
        # certify that every subset product fits comfortably in int64: a
        # row's sum over any subset lies between its negative and positive sums
        bound = math.prod(max(sum(v for v in r if v > 0), -sum(v for v in r if v < 0), 1)
                          for r in ints)
        dtype, run = (np.int64, (1 << 62) // bound) if bound < 1 << 62 else (object, None)
        return int(_ryser(np.array(ints, dtype=dtype), run))
    real = kind == "f"
    mat = mat.astype(np.float64 if real else np.complex128)
    # finite entries near the float64 maximum overflow Glynn's doubled
    # columns (or complex products) to inf - inf = nan, reported below
    # rather than as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        value = _ryser(mat)
    if np.isnan(value) and np.isfinite(mat).all():
        raise OverflowError(f"permanent_ryser: d = {d} overflows float64 on finite entries")
    return float(value) if real else complex(value)


def _subset_row_sums(mat: np.ndarray, cols: range, glynn: bool) -> np.ndarray:
    # Ryser: table[s] = sum of mat[:, j] over the columns j of `cols` in
    # subset s.  Glynn: the same sum with sign +1 on the columns in s and -1
    # on the rest, so entry 0 is minus the whole sum and bit b adds twice
    # column j.  Entry 0 is summed a column at a time, in the same order
    # for real and complex input (see _sum).
    table = np.zeros((1 << len(cols), mat.shape[0]), dtype=mat.dtype)
    if glynn:
        for j in cols:
            table[0] -= mat[:, j]
    for b, j in enumerate(cols):
        step = 2 * mat[:, j] if glynn else mat[:, j]
        table[1 << b : 2 << b] = table[: 1 << b] + step
    return table


def _sum(x: np.ndarray, axis: int | None = None):
    # numpy adds complex arrays in another order than real ones; summing the
    # real and imaginary parts apart keeps the complex permanent of a real
    # matrix equal to its float permanent, bit for bit.
    if x.dtype.kind == "c":
        return x.real.sum(axis) + 1j * x.imag.sum(axis)
    return x.sum(axis)


def _parities(count_bits: int) -> np.ndarray:
    idx = np.arange(1 << count_bits, dtype=np.uint64)
    return 1 - 2 * (np.bitwise_count(idx).astype(np.int64) & 1)


# Each product buffer holds at most this many bytes, so the two stay in
# cache: 8 high subsets per batch at 2^12 live low subsets of int64.
_BATCH_BYTES = 1 << 18


def _batch_buffer(shape: tuple[int, int], dtype: np.dtype) -> np.ndarray:
    # An uninitialised buffer that starts on a 64-byte cache line.  The
    # batch loop's add and multiply run up to 2x slower on buffers that
    # start mid line, and where numpy puts a buffer depends on the heap's
    # history, so an unrelated import could move the kernel's run time.
    if dtype.hasobject:
        return np.empty(shape, dtype=dtype)
    size = shape[0] * shape[1] * dtype.itemsize
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(dtype).reshape(shape)


def _live_factor(rows: np.ndarray, cols: range, glynn: bool,
                 first_fixed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    # The signed product of the rows' sums over each subset of `cols`, kept
    # only where it is not 0, and the indices of those subsets.  With
    # `first_fixed` only the subsets holding the first column are kept.
    factor = _parities(len(cols)) * _subset_row_sums(rows, cols, glynn).prod(axis=1)
    if first_fixed:
        factor[::2] = 0
    live = np.flatnonzero(factor)
    return factor[live], live


def _ryser(mat: np.ndarray, exact_run: int | None = None):
    # Ryser's sum in the dtype of `mat`, in Glynn's form for float64 and
    # complex128.  An int64 sum of up to `exact_run` products is exact, so
    # int64 input is summed in runs of that length.
    d = mat.shape[0]
    # Glynn's sign vectors fix the sign of column 0 at +1: only the low
    # subsets holding it are kept, and the sum is 2^(d-1) times Per(A).
    glynn = mat.dtype.kind in "fc"
    h = (d + 1) // 2
    in_low = mat[:, :h].any(axis=1)
    in_high = mat[:, h:].any(axis=1)
    mixed = in_low & in_high
    # A row without high columns (a zero row too) gives a factor over low
    # subsets, the signed base; a row without low columns gives one over
    # high subsets, the scale.  A subset of either half whose factor is 0
    # contributes nothing, so only the live subsets are kept.
    base, low_live = _live_factor(mat[~in_high], range(h), glynn, first_fixed=glynn)
    scale, high_live = _live_factor(mat[in_high & ~in_low], range(h, d), glynn)
    width = len(low_live)
    if not width:  # every term has a zero factor
        return 0
    low = _subset_row_sums(mat[mixed], range(h), glynn)[low_live].T.copy()  # one row per mixed row
    high = _subset_row_sums(mat[mixed], range(h, d), glynn)
    batch = max(1, min(len(high_live), _BATCH_BYTES // (mat.itemsize * width)))
    prods = _batch_buffer((batch, width), mat.dtype)
    row_sums = _batch_buffer((batch, width), mat.dtype)
    # one sum per live high subset, added up after the last batch, so the
    # total does not depend on the batch size
    sums = np.empty(len(high_live), dtype=mat.dtype if exact_run is None else object)
    for k in range(0, len(high_live), batch):
        s = high_live[k : k + batch]
        p, r, hs = prods[: len(s)], row_sums[: len(s)], high[s]
        p[:] = base
        for i in range(len(low)):
            np.add(low[i], hs[:, i : i + 1], out=r)
            np.multiply(p, r, out=p)
        if exact_run is None:
            sums[k : k + len(s)] = _sum(p, axis=1)
        else:
            runs = np.add.reduceat(p, np.arange(0, width, exact_run), axis=1)
            sums[k : k + len(s)] = runs.astype(object).sum(axis=1)
    total = _sum(scale * sums)
    if glynn:
        total /= 2 ** (d - 1)
    return total if d % 2 == 0 else -total


# -- spectral helpers ---------------------------------------------------------


def spectral_norm(a) -> float:
    """Largest singular value."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError("need a matrix")
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def herm_eig(h):
    """Eigendecomposition of a Hermitian matrix (validated within _HERM_TOL)."""
    mat = np.asarray(_square(h), dtype=np.complex128)
    if not np.max(np.abs(mat - mat.conj().T)) <= _HERM_TOL:
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
    norm: float  # the spectral norm ||A||

    @property
    def default_scale(self) -> float:
        """The default contraction factor 1/(2 max(1, ||A||))."""
        return _scale_for_norm(self.norm)


def _scale_for_norm(norm: float) -> float:
    return 1.0 / (2.0 * max(1.0, norm))


def dilate(a, c: float | None = None) -> Dilation:
    """Embed cA as the top-left block of a 2n x 2n unitary.

    Requires c * ||A|| strictly below 1 so the defect blocks stay
    invertible; the default c = 1/(2 max(1, ||A||)) always qualifies.
    """
    mat = np.asarray(_square(a), dtype=np.complex128)
    n = mat.shape[0]
    norm = spectral_norm(mat)
    if c is None:
        c = _scale_for_norm(norm)
    if not c > 0:
        raise ValueError(f"scale must be positive, got {c}")
    if c * norm >= 1.0 - 1e-12:
        raise ValueError(f"c * ||A|| = {c * norm:.6f} must stay below 1")
    if not math.isfinite(c):
        raise ValueError(f"scale must be finite, got {c}")
    ca = c * mat
    eye = np.eye(n)
    defect = eye - ca.conj().T @ ca  # I - c^2 A^dag A, positive definite
    vals, vecs = herm_eig(defect)
    vecs_h = vecs.conj().T
    s = (vecs * np.sqrt(vals)) @ vecs_h
    s_inv = (vecs * (1.0 / np.sqrt(vals))) @ vecs_h
    inner = eye + ca @ ((vecs * (1.0 / vals)) @ vecs_h) @ ca.conj().T
    d_block = herm_apply(inner, lambda v: 1.0 / np.sqrt(v))
    u = np.block([[ca, d_block], [s, -s_inv @ ca.conj().T @ d_block]])
    return Dilation(unitary=u, scale=float(c), n=n, norm=norm)


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
    mat = np.asarray(_square(u), dtype=np.complex128)
    if not unitarity_defect(mat) <= _UNITARY_TOL:
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
