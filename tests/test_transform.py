"""The subset-sum transform kernel and the exact routes built on it.

Property tests draw polynomials with n in 1..10, so tables smaller than
one packed word (n < 6) are covered, and cross-check the routes to the
same number: the packed truth table against pointwise evaluation, brute
force against LPTWY counting at every free-variable count, the
sampler's gap kernel on a coefficient mask, the IQP amplitudes, the cycle-cover permanent
and the quasi-average-case oracle recursion against brute force.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapbench import avgcase, circuits, cyclecover, fastcount
from gapbench.poly3 import (
    Poly3,
    all_terms,
    evaluate,
    gap_bruteforce,
    linear_part,
    random_poly,
    strip_linear,
    truth_table,
    with_linear,
)
from gapbench.transform import gaps, mobius, words_for, zeta, zeta_gf2

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def polys(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    terms = all_terms(n)
    keep = draw(st.integers(0, (1 << len(terms)) - 1))
    return Poly3.from_terms(n, [t for i, t in enumerate(terms) if (keep >> i) & 1])


# -- the kernel ---------------------------------------------------------------


def test_zeta_matches_subset_sums():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 1 << 20, size=1 << 6).astype(np.uint64)
    want = [sum(int(x[s]) for s in range(64) if s & ~y == 0) for y in range(64)]
    assert zeta(x.copy()).tolist() == want


@given(st.integers(0, 10), st.integers(0, 2**32 - 1))
@PROPERTY
def test_mobius_inverts_zeta(m, seed):
    x = np.random.default_rng(seed).integers(0, 2**64, size=1 << m, dtype=np.uint64)
    assert np.array_equal(mobius(zeta(x.copy())), x)
    assert np.array_equal(zeta(mobius(x.copy())), x)


@pytest.mark.parametrize("n", [1, 3, 5, 6, 7, 9])
def test_gf2_zeta_is_integer_zeta_mod_2_on_a_batch(n):
    rng = np.random.default_rng(n)
    points = 1 << n
    bits = rng.integers(0, 2, size=(3, points), dtype=np.uint8)
    packed = np.zeros((3, 8 * words_for(n)), dtype=np.uint8)
    packed[:, : -(-points // 8)] = np.packbits(bits, axis=1, bitorder="little")
    out = zeta_gf2(packed.view("<u8").copy(), n)
    got = np.unpackbits(out.view(np.uint8), axis=1, bitorder="little")
    want = zeta(bits.astype(np.uint64)) & np.uint64(1)
    assert np.array_equal(got[:, :points], want)
    assert not got[:, points:].any()


def test_gf2_zeta_rejects_wrong_row_length():
    with pytest.raises(ValueError):
        zeta_gf2(np.zeros(2, dtype=np.uint64), 6)


@pytest.mark.parametrize("n", [25, 28])
def test_gap_bruteforce_builds_every_chunk_in_one_buffer(n):
    # above 2^24 points each table row is a 2 MiB chunk; with its transform
    # temporary that is 4 MiB, and no earlier chunk may stay alive beside it
    f = random_poly(n, np.random.default_rng(n))
    tracemalloc.start()
    try:
        gap_bruteforce(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def test_term_masks():
    assert Poly3(4, ((0,), (1, 2), (0, 2, 3))).masks.tolist() == [0b1, 0b110, 0b1101]
    assert Poly3(4).masks.shape == (0,)


# -- cross-route properties ---------------------------------------------------


@given(polys())
@PROPERTY
def test_truth_table_matches_evaluate(f):
    tt = truth_table(f)
    assert tt.dtype == np.uint8
    assert tt.tolist() == [evaluate(f, x) for x in range(1 << f.n)]


@given(polys())
@PROPERTY
def test_bruteforce_matches_lptwy_for_every_t(f):
    gap = gap_bruteforce(f)
    for t in range(1, f.n + 1):
        assert gap == (1 << f.n) - 2 * fastcount.count_ones_lptwy(f, t)


@given(polys())
@PROPERTY
def test_gap_of_mask_matches_bruteforce(f):
    present = set(f.terms)
    full = Poly3(f.n, tuple(all_terms(f.n)))
    mask = np.array([[t in present for t in full.terms]])
    assert gaps(mask, full.masks, f.n)[0] == gap_bruteforce(f)


@given(polys())
@PROPERTY
def test_iqp_amplitude_is_gap_over_2n(f):
    amp = circuits.iqp_gap_amplitude(f)
    assert abs(amp * (1 << f.n) - gap_bruteforce(f)) < 1e-6


@given(polys())
@PROPERTY
def test_shifted_amplitude_hides_the_linear_part(f):
    g = with_linear(strip_linear(f), linear_part(f))
    assert abs(circuits.iqp_shifted_amplitude(f) * (1 << f.n) - gap_bruteforce(g)) < 1e-6


single_terms = st.integers(1, 6).flatmap(
    lambda n: st.sampled_from(all_terms(n)).map(lambda t: Poly3.from_terms(n, [t])))


@given(single_terms)
@settings(PROPERTY, max_examples=12)
def test_cycle_cover_permanent_is_scaled_gap(f):
    # one term on n variables gives G_f 19 + n nodes, 20 to 25 here; two
    # terms need at least 40, past the Ryser cap's ceiling of 34
    assert cyclecover.verify_reduction(f).perm == 4 ** 3 * gap_bruteforce(f)


@given(polys(), st.integers(0, 2**32 - 1))
@PROPERTY
def test_quasi_average_recursion_is_exact_with_an_exact_oracle(f, seed):
    rng = np.random.default_rng(seed)
    assert avgcase.gap_from_quasi_avg_oracle(f, avgcase.exact_oracle(), rng) == gap_bruteforce(f)
