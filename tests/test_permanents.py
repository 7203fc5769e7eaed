"""Permanents, dilation, and photonic amplitude tests.

Fixture values, all recomputable by hand:
- 2x2 and diagonal permanents, the all-ones d! identity, and factorial
  closed forms for constant matrices follow from the definition.
- the 3x3 repeated-row/column example below comes from the permutation
  sum: Per = -2i * (1/sqrt(2))^3 = -i/sqrt(2), amplitude -i/(2 sqrt(2))
  after dividing sqrt(2!1!1!2!) = 2.
- dilation spot values: A=[[2]] with c=1/4 puts 0.5 top-left; A=I_2
  with c=1/2 encodes amplitude c^2 Per(I) = 1/4; A=[[1,1],[1,1]] has
  norm 2, default c = 1/4, amplitude (1/16) * 2 = 1/8.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbench import permanents as pm
from gapbench.config import CapExceeded

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def oracle_permanent(rows):
    # direct permutation sum, independent of the module internals
    import itertools

    d = len(rows)
    if d == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(d)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def gray_ryser(rows):
    # Ryser's sum by a Gray-code walk over column subsets in Python
    # integers: exact at any magnitude, independent of the numpy kernel
    d = len(rows)
    cols = [[rows[i][j] for i in range(d)] for j in range(d)]
    rs = [0] * d
    gray = 0
    total = 0
    for k in range(1, 1 << d):
        j = (k & -k).bit_length() - 1
        step = -1 if (gray >> j) & 1 else 1
        gray ^= 1 << j
        for i in range(d):
            rs[i] += step * cols[j][i]
        prod = math.prod(rs)
        total += prod if bin(gray).count("1") % 2 == d % 2 else -prod
    return total


# -- permanent values ---------------------------------------------------------


def test_small_permanents():
    assert pm.permanent_naive([[1, 2], [3, 4]]) == 10
    assert pm.permanent_ryser([[1, 2], [3, 4]]) == 10
    assert pm.permanent_naive([[7]]) == 7
    assert pm.permanent_ryser([[7]]) == 7
    assert pm.permanent_naive([]) == 1
    assert pm.permanent_ryser(np.zeros((0, 0), dtype=np.int64)) == 1


def test_all_ones_is_factorial():
    for d in range(1, 9):
        ones = np.ones((d, d), dtype=np.int64)
        assert pm.permanent_ryser(ones) == math.factorial(d)


def test_diagonal_and_zero_row():
    assert pm.permanent_ryser(np.diag([2, 3, 5]).astype(np.int64)) == 30
    mat = np.array([[1, 2], [0, 0]], dtype=np.int64)
    assert pm.permanent_ryser(mat) == 0


def test_row_permutation_invariance():
    rng = np.random.default_rng(11)
    mat = rng.integers(-5, 6, size=(6, 6))
    base = pm.permanent_ryser(mat)
    perm = rng.permutation(6)
    assert pm.permanent_ryser(mat[perm]) == base
    assert pm.permanent_ryser(mat[:, perm]) == base


def test_naive_matches_ryser_integer():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        for _ in range(4):
            mat = rng.integers(-9, 10, size=(d, d))
            a = pm.permanent_naive(mat)
            b = pm.permanent_ryser(mat)
            assert a == b == oracle_permanent(mat.tolist())


def test_naive_matches_ryser_complex():
    rng = np.random.default_rng(6)
    for d in range(1, 8):
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = pm.permanent_naive(mat)
        b = pm.permanent_ryser(mat)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_real_float_input_returns_real():
    mat = [[0.5, 1.5], [2.0, -1.0]]
    val = pm.permanent_ryser(mat)
    assert isinstance(val, float)
    assert abs(val - (0.5 * -1.0 + 1.5 * 2.0)) < 1e-12


def test_integer_path_is_exact_beyond_float():
    # constant matrix closed form: Per(k * J_d) = k^d * d!
    mat = np.full((12, 12), 2, dtype=np.int64)
    assert pm.permanent_ryser(mat) == 2**12 * math.factorial(12)


def test_bigint_escalation_matches_closed_form():
    # product bound (3*13)^13 overflows int64, forcing the Python-integer path
    mat = np.full((13, 13), 3, dtype=np.int64)
    assert pm.permanent_ryser(mat) == 3**13 * math.factorial(13)


def test_bigint_walk_agrees_with_vector_path():
    # the product bound is at most 36^9 < 2^62, so the int64 path runs
    rng = np.random.default_rng(7)
    for _ in range(5):
        mat = rng.integers(-4, 5, size=(9, 9))
        fast = pm.permanent_ryser(mat)
        slow = gray_ryser([[int(v) for v in row] for row in mat])
        assert fast == slow


@st.composite
def int_matrices(draw, max_d=12):
    # The Ryser kernel splits the columns at h = ceil(d/2).  Each row gets
    # a nonzero on a random permutation, so most permanents are nonzero, and
    # then either the rest of its pool or up to three more nonzeros in it;
    # the pool is every column or the half that first nonzero lies in.  A
    # zero row or a blank half is drawn too.  Entries of magnitude <= 2 keep
    # the certified bound below 24^12 < 2^62, so the int64 path always runs.
    d = draw(st.integers(1, max_d))
    h = (d + 1) // 2
    value = st.sampled_from([-2, -1, 1, 2])
    mat = np.zeros((d, d), dtype=np.int64)
    for i, j in enumerate(draw(st.permutations(range(d)))):
        pool = draw(st.sampled_from([range(d), range(h) if j < h else range(h, d)]))
        if draw(st.booleans()):
            cols = list(pool)
        else:
            cols = [j, *draw(st.lists(st.sampled_from(pool), max_size=3))]
        for c in cols:
            mat[i, c] = draw(value)
    defect = draw(st.sampled_from([None, None, "row", "low", "high"]))
    if defect == "row":
        mat[draw(st.integers(0, d - 1))] = 0
    elif defect == "low":
        mat[:, :h] = 0
    elif defect == "high":
        mat[:, h:] = 0
    return mat


@given(int_matrices())
@PROPERTY
def test_int64_path_matches_the_bigint_walk(mat):
    rows = mat.tolist()
    per = pm.permanent_ryser(mat)
    assert per == gray_ryser(rows)
    if len(rows) <= 8:
        assert per == pm.permanent_naive(rows)


@given(int_matrices(max_d=9))
@PROPERTY
def test_float_paths_are_exact_on_gaussian_integers(mat):
    # At d <= 9 with entries of magnitude <= 2 every row sum, product and
    # partial sum is an integer (or Gaussian integer) below 2^53, so the
    # real and complex kernels are exact whatever their summation order.
    per = pm.permanent_ryser(mat)
    real = pm.permanent_ryser(mat.astype(np.float64))
    assert isinstance(real, float) and real == per
    value = pm.permanent_ryser(mat * (1 + 1j))
    assert isinstance(value, complex) and value == (1 + 1j) ** len(mat) * per


@st.composite
def float_matrices(draw, kinds=("real", "complex")):
    # Floating input takes Glynn's form: the sign of column 0 is fixed and
    # the columns split at h = ceil(d/2).  Entries lie in [-1, 1]; a zero
    # first column, a zero row and rows wholly in the low or the high half
    # are drawn too.
    d = draw(st.integers(1, 8))
    h = (d + 1) // 2
    entries = st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d)
    mat = np.array(draw(entries)).reshape(d, d)
    if draw(st.sampled_from(kinds)) == "complex":
        mat = mat + 1j * np.array(draw(entries)).reshape(d, d)
    rows = st.lists(st.integers(0, d - 1), max_size=h)
    mat[draw(rows), h:] = 0  # wholly in the low half
    mat[draw(rows), :h] = 0  # wholly in the high half
    defect = draw(st.sampled_from([None, None, "row", "first-column"]))
    if defect == "row":
        mat[draw(st.integers(0, d - 1))] = 0
    elif defect == "first-column":
        mat[:, 0] = 0
    return mat


@given(float_matrices())
@PROPERTY
def test_glynn_path_matches_the_permutation_sum(mat):
    per = pm.permanent_naive(mat)
    value = pm.permanent_ryser(mat)
    assert type(value) is type(per)
    assert abs(value - per) <= 1e-9 * max(1.0, abs(per))


@given(float_matrices(kinds=("real",)))
@PROPERTY
def test_complex_path_of_a_real_matrix_is_the_real_path(mat):
    real = pm.permanent_ryser(mat)
    value = pm.permanent_ryser(mat.astype(np.complex128))
    assert isinstance(real, float) and isinstance(value, complex)
    assert value.real == real and value.imag == 0


@given(int_matrices())
@PROPERTY
def test_object_path_matches_the_gray_walk(mat):
    # Each nonzero entry exceeds 2^62, so the product bound fails whenever
    # the matrix is not zero and the kernel runs on Python integers.
    rows = [[v * 10**19 for v in row] for row in mat.tolist()]
    assert pm.permanent_ryser(rows) == gray_ryser(rows)


# d = 6 splits into low columns 0-2 and high columns 3-5.  In each matrix
# one half has a zero factor on every one of its subsets, so the kernel
# finds no live subset there, and the permanent is 0.  Three nonzero rows
# whose sums are x_a - x_b, x_a and x_b vanish on every subset of columns
# a, b, as do zero rows.
_LOW = [[1, 2, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]]
_HIGH = [[0, 0, 0, 1, 0, 2], [0, 0, 0, 0, 1, 1]]
_MIXED = [[1, 1, 1, 1, 1, 1]]
_ZERO = [[0] * 6]
_HALL = [[1, -1, 0], [1, 0, 0], [0, 1, 0]]
DEAD_HALVES = {
    "zero-row-first-among-low-only": _ZERO + _LOW + _MIXED + _HIGH,
    "zero-row-among-high-only": _LOW + _MIXED + _HIGH[:1] + _ZERO + _HIGH[1:],
    "three-high-only-rows-on-two-columns": [[0, 0, 0] + r for r in _HALL] + _LOW + _MIXED,
    "three-low-only-rows-on-two-columns": [r + [0, 0, 0] for r in _HALL] + _HIGH + _MIXED,
}


@pytest.mark.parametrize("rows", DEAD_HALVES.values(), ids=DEAD_HALVES)
def test_a_dead_half_gives_zero_in_every_number_type(rows):
    assert gray_ryser(rows) == 0
    mat = np.array(rows, dtype=np.int64)
    cases = [(mat, int), ([[v * 10**19 for v in r] for r in rows], int),
             (mat.astype(np.float64), float), (mat * (1 + 1j), complex)]
    for a, kind in cases:
        per = pm.permanent_ryser(a)
        assert per == 0 and type(per) is kind


def test_partial_sums_stay_exact_past_int64():
    # Two blocks [[k, -k], [k, -k]] fill the low half of an 8x8 matrix and
    # an identity the high half.  The certified bound k^4 is below 2^62, but
    # the 16 products of the one live high subset sum to 4k^4 > 2^63.
    k = 46340
    mat = np.zeros((8, 8), dtype=np.int64)
    mat[0:2, 0:2] = mat[2:4, 2:4] = [[k, -k], [k, -k]]
    mat[4:, 4:] = np.eye(4, dtype=np.int64)
    assert k**4 < 2**62 and 4 * k**4 > 2**63
    assert pm.permanent_ryser(mat) == gray_ryser(mat.tolist()) == 4 * k**4


def test_huge_entries_stay_exact():
    rng = np.random.default_rng(8)
    mat = [[int(v) * 10**14 for v in row] for row in rng.integers(-9, 10, size=(5, 5))]
    assert pm.permanent_ryser(mat) == oracle_permanent(mat)


@pytest.mark.parametrize("dtype", [float, complex])
def test_glynn_overflow_on_finite_entries_raises(dtype):
    # no RuntimeWarning escapes either: the test run turns them into errors
    with pytest.raises(OverflowError, match="overflow"):
        pm.permanent_ryser(np.full((2, 2), 1e308, dtype=dtype))
    # real entries that overflow only the products give inf by both methods
    huge = np.full((2, 2), 1e200)
    assert pm.permanent_ryser(huge) == pm.permanent_naive(huge) == math.inf


def test_caps(monkeypatch):
    with pytest.raises(CapExceeded):
        pm.permanent_naive(np.zeros((11, 11), dtype=np.int64))
    with pytest.raises(CapExceeded):
        pm.permanent_ryser(np.zeros((31, 31), dtype=np.int64))
    monkeypatch.setenv("GAPBENCH_NAIVE_CAP", "3")
    monkeypatch.setenv("GAPBENCH_RYSER_CAP", "7")
    with pytest.raises(CapExceeded):
        pm.permanent_naive(np.zeros((4, 4), dtype=np.int64))
    with pytest.raises(CapExceeded):
        pm.permanent_ryser(np.zeros((8, 8), dtype=np.int64))


ENTRY_POINTS = {
    "permanent_naive": pm.permanent_naive,
    "permanent_ryser": pm.permanent_ryser,
    "dilate": pm.dilate,
    "herm_eig": pm.herm_eig,
    "fock_amplitude": lambda a: pm.fock_amplitude(a, [1, 0], [1, 0]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
@pytest.mark.parametrize("a", [[[1, 2], [3]], np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))],
                         ids=["ragged-list", "2x3-array", "1-d-array", "3-d-array"])
def test_every_entry_point_needs_a_square_matrix(entry, a):
    with pytest.raises(ValueError, match="need a square matrix"):
        entry(a)


@pytest.mark.parametrize("a", [
    [[2**70, 1], [1, 1]],
    [[2**63, 1], [1, 1]],
    [[-2**64, 3], [5, 2**65]],
    np.array([[2**63, 1], [1, 1]], dtype=np.uint64),
    np.array([[2**70, 1], [1, 1]], dtype=object),
], ids=["2^70-list", "2^63-list", "2^65-list", "2^63-uint64", "2^70-object"])
def test_integer_entries_of_any_size_stay_exact(a):
    expected = oracle_permanent([[int(v) for v in row] for row in a])
    for per in (pm.permanent_naive(a), pm.permanent_ryser(a)):
        assert per == expected and type(per) is int


def test_bool_entries_give_an_exact_int():
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
    for per in (pm.permanent_naive(a), pm.permanent_ryser(a)):
        assert per == 2 and type(per) is int


@pytest.mark.parametrize("rows, expected", [
    ([[1, 2], [3, 4]], 10),
    ([[1, 2.5], [3, 4]], 11.5),
    ([[2**70, 0.5], [0, 1]], float(2**70)),
    ([[1, 1j], [1j, 1]], 0j),
], ids=["ints", "ints-and-floats", "big-int-and-float", "complex"])
def test_nested_entries_pick_the_number_type(rows, expected):
    per = pm.permanent_ryser(rows)
    assert per == expected and type(per) is type(expected)


# -- spectral helpers ---------------------------------------------------------


def test_spectral_norm_values():
    assert abs(pm.spectral_norm([[1, 1], [1, 1]]) - 2.0) < 1e-12
    assert abs(pm.spectral_norm([[0, 1], [0, 0]]) - 1.0) < 1e-12
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert abs(pm.spectral_norm(h) - 1.0) < 1e-12


def test_herm_eig_validates():
    with pytest.raises(ValueError):
        pm.herm_eig([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        pm.herm_eig([[1.0, float("nan")], [0.0, 1.0]])
    vals, _ = pm.herm_eig([[2, 0], [0, 3]])
    assert np.allclose(vals, [2, 3])


def test_herm_apply_inverse_sqrt():
    mat = np.array([[4.0, 0.0], [0.0, 9.0]])
    out = pm.herm_apply(mat, lambda v: 1.0 / np.sqrt(v))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)


# -- dilation -----------------------------------------------------------------


def test_dilate_scalar_two():
    dil = pm.dilate([[2]], c=0.25)
    assert abs(dil.unitary[0, 0] - 0.5) < 1e-12
    assert pm.unitarity_defect(dil.unitary) < 1e-9


def test_default_scale():
    assert abs(pm.dilate([[2]]).default_scale - 0.25) < 1e-12
    assert abs(pm.dilate([[0.3]]).default_scale - 0.5) < 1e-12  # norm below 1 clamps at 1


def test_dilate_top_left_block_and_unitarity():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dil = pm.dilate(mat)
        assert dil.unitary.shape == (2 * n, 2 * n)
        assert np.max(np.abs(dil.unitary[:n, :n] - dil.scale * mat)) < 1e-10
        assert pm.unitarity_defect(dil.unitary) < 1e-9


def test_dilate_rejects_expanding_scale():
    with pytest.raises(ValueError):
        pm.dilate([[2]], c=0.6)
    with pytest.raises(ValueError):
        pm.dilate([[1]], c=-0.1)


def test_dilate_rejects_non_finite_scale():
    with pytest.raises(ValueError, match="scale must be positive, got nan"):
        pm.dilate([[1]], c=float("nan"))
    with pytest.raises(ValueError, match="must stay below 1"):
        pm.dilate([[1]], c=float("inf"))
    # the zero matrix has norm 0, so only the finiteness check refuses inf
    with pytest.raises(ValueError, match="scale must be finite, got inf"):
        pm.dilate([[0]], c=float("inf"))


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf"),
                                   complex(1, float("nan"))])
def test_dilate_refuses_non_finite_entries(entry):
    for c in (None, 0.1):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            pm.dilate([[entry, 1], [1, 0]], c)


def test_dilate_refuses_an_overflowing_norm():
    # finite entries whose spectral norm, 2e308, is past the float64 range
    for c in (None, 1e-310):
        with pytest.raises(OverflowError, match="spectral norm of the matrix overflows"):
            pm.dilate([[1e308, 1e308], [1e308, 1e308]], c)


def test_dilate_decomposes_once(monkeypatch):
    # one SVD for the norm, one eigh of the defect and one of the inner block
    calls = []
    for name in ("svd", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    rng = np.random.default_rng(22)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for c in (None, 0.1 / pm.spectral_norm(mat)):
        calls.clear()
        pm.dilate(mat, c)
        assert sorted(calls) == ["eigh", "eigh", "svd"]


# -- photonic amplitudes ------------------------------------------------------


def eq12_unitary():
    return np.array([[1, 1j], [-1j, -1]], dtype=np.complex128) / np.sqrt(2)


def test_repeated_row_column_amplitude():
    u = eq12_unitary()
    amp = pm.fock_amplitude(u, (2, 1), (1, 2))
    expect = -1j / (2 * np.sqrt(2))
    assert abs(amp - expect) < 1e-12
    # the underlying 3x3 permanent, for the record
    rows = np.repeat(np.arange(2), (2, 1))
    cols = np.repeat(np.arange(2), (1, 2))
    per = pm.permanent_ryser(u[np.ix_(rows, cols)])
    assert abs(per - (-1j / np.sqrt(2))) < 1e-12


def test_single_photon_amplitude_is_matrix_entry():
    u = eq12_unitary()
    for i in range(2):
        for j in range(2):
            occ_in = [0, 0]
            occ_out = [0, 0]
            occ_in[i] = 1
            occ_out[j] = 1
            assert abs(pm.fock_amplitude(u, occ_in, occ_out) - u[i, j]) < 1e-12


def test_vacuum_and_bunched_identity():
    eye = np.eye(3)
    assert pm.fock_amplitude(eye, (0, 0, 0), (0, 0, 0)) == 1.0
    assert abs(pm.fock_amplitude(eye, (2, 0, 0), (2, 0, 0)) - 1.0) < 1e-12
    assert abs(pm.fock_amplitude(eye, (2, 1, 0), (2, 1, 0)) - 1.0) < 1e-12


def test_fock_validation():
    u = eq12_unitary()
    with pytest.raises(ValueError):
        pm.fock_amplitude(u, (2, 1), (1, 1))  # photon mismatch
    with pytest.raises(ValueError):
        pm.fock_amplitude(u, (1,), (1,))  # wrong length
    with pytest.raises(ValueError):
        pm.fock_amplitude(u, (-1, 1), (0, 0))
    with pytest.raises(ValueError):
        pm.fock_amplitude([[1, 0], [0, 2]], (1, 0), (1, 0))  # not unitary
    with pytest.raises(ValueError, match="not unitary"):
        pm.fock_amplitude([[float("nan"), 0], [0, 1]], (1, 0), (1, 0))


def test_output_distribution_sums_to_one():
    # one photon through a 3-mode unitary: row norms carry the mass
    rng = np.random.default_rng(33)
    gauss = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(gauss)
    mass = 0.0
    for j in range(3):
        occ_out = [0, 0, 0]
        occ_out[j] = 1
        mass += abs(pm.fock_amplitude(u, (1, 0, 0), occ_out)) ** 2
    assert abs(mass - 1.0) < 1e-10


# -- permanent encoding -------------------------------------------------------


def test_encode_identity():
    enc = pm.encode_permanent(np.eye(2), c=0.5)
    assert abs(enc.amplitude - 0.25) < 1e-10
    assert enc.dilation.n == 2


def test_encode_all_ones():
    enc = pm.encode_permanent([[1, 1], [1, 1]])
    assert abs(enc.dilation.scale - 0.25) < 1e-12
    assert abs(enc.amplitude - 0.125) < 1e-10


def test_encode_matches_direct_permanent():
    rng = np.random.default_rng(44)
    for n in (1, 2, 3, 4):
        mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        enc = pm.encode_permanent(mat)
        direct = pm.permanent_naive(mat)
        expect = enc.dilation.scale**n * direct
        assert abs(enc.amplitude - expect) <= 1e-9 * max(1.0, abs(expect))
