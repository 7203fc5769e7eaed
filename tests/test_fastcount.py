"""Mod-2^l counting pipeline tests.

Fixture values, recomputable by hand:
- block counts for x1 + x2 + x1*x2 + x1*x2*x3 with one free variable:
  y=(0,0) gives f=0 for both settings, y=(1,0) and y=(0,1) give f=1
  for both, y=(1,1) satisfies only x3=0; blocks [0,2,2,1], total 5.
  Brute-force truth tables recompute every block in-test.
- the amplifier at l=2 expands to 3F^2 - 2F^3, giving 0,1,0,1 mod 4 at
  F = 0,1,2,3.
- constant and single-monomial value tables are direct; the empty
  polynomial counts 0.

The full-block case (a block where every free setting satisfies f,
count 2^t) is pinned separately: it is exactly the case the default
l = t + 1 exists for, since mod 2^t it would alias to zero.
"""

import functools
import math

import numpy as np
import pytest

from gapbench import fastcount as fc
from gapbench.config import CapExceeded
from gapbench.poly3 import (
    Poly3,
    gap_bruteforce,
    parse_poly,
    random_poly,
    truth_table,
    zeros_count,
)
from gapbench.transform import mobius

WORKED_F = parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)


# the narrowest unsigned word with at least l bits, at each width boundary
WORD_OF = {1: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16,
           17: np.uint32, 32: np.uint32, 33: np.uint64, 62: np.uint64}


def amplifier_reference(values, l):
    """The amplifier's defining formula on Python integers, mod 2^l."""
    return [(1 - (1 - v) ** l * sum(math.comb(l + j - 1, j) * v**j for j in range(l)))
            % (1 << l) for v in values]


def brute_block_counts(f, t):
    tt = truth_table(f)
    m = f.n - t
    return tt.reshape(1 << t, 1 << m).sum(axis=0)


def single(m, l, var_mask, value):
    """The polynomial value * x^var_mask over m variables, mod 2^l."""
    coeffs = np.zeros(1 << m, dtype=np.uint64)
    coeffs[var_mask] = value
    return fc.MultilinearPoly(m=m, l=l, coeffs=coeffs)


def qhat(f, bits, l):
    """Amplified indicator of f with its last len(bits) variables fixed."""
    m = f.n - len(bits)
    a_mask = sum(b << i for i, b in enumerate(bits))
    table = fc._int_value_table(f.masks, a_mask, m, fc._word(l))
    return fc.from_values(m, l, fc._qhat_values(table, l))


# -- representation basics ----------------------------------------------------


def test_constant_eval():
    p = single(3, 4, 0, 11)
    assert np.array_equal(fc.eval_all(p), np.full(8, 11))


def test_monomial_eval_hits_supersets():
    p = single(3, 3, 0b101, 1)
    vals = fc.eval_all(p)
    for y in range(8):
        assert vals[y] == (1 if (y & 0b101) == 0b101 else 0)


def test_eval_matches_pointwise():
    rng = np.random.default_rng(9)
    for l in (1, 3, 7):
        coeffs = rng.integers(0, 1 << l, size=1 << 10).astype(np.uint64)
        p = fc.MultilinearPoly(m=10, l=l, coeffs=coeffs)
        vals = fc.eval_all(p)
        for y in range(0, 1 << 10, 37):
            submasks = [k for k in range(1 << 10) if k & ~y == 0]
            assert int(vals[y]) == int(coeffs[submasks].sum()) % (1 << l)


def test_values_roundtrip():
    rng = np.random.default_rng(10)
    vals = rng.integers(0, 32, size=1 << 6).astype(np.uint64)
    p = fc.from_values(6, 5, vals)
    assert np.array_equal(fc.eval_all(p), vals)


@pytest.mark.parametrize("l", [8, 9, 33])
def test_from_values_reads_any_integer_table_mod_2l(l):
    # 300 and -1 fit no uint8, 2^63 + 5 no int64, 2^64 + 5 no word at all
    raw = [300, -1, -300, 2**40 + 7, 0, 1, 255, 2**62 - 1]
    signed = np.array(raw, dtype=np.int64)
    for values in (raw, signed, signed.astype(np.uint64)):
        p = fc.from_values(3, l, values)
        assert p.coeffs.dtype == WORD_OF[l]
        assert fc.eval_all(p).tolist() == [v % (1 << l) for v in raw]
    for big in (2**63 + 5, 2**64 + 5):
        assert fc.eval_all(fc.from_values(1, l, [big, 3])).tolist() == [5, 3]


@pytest.mark.parametrize("l", [8, 9, 33])
def test_hand_built_uint64_coefficients_evaluate(l):
    rng = np.random.default_rng(l)
    coeffs = rng.integers(0, 2**64, size=1 << 6, dtype=np.uint64)
    big = coeffs.tolist()
    vals = fc.eval_all(fc.MultilinearPoly(m=6, l=l, coeffs=coeffs))
    assert vals.dtype == WORD_OF[l]
    for y in range(1 << 6):
        assert int(vals[y]) == sum(big[s] for s in range(1 << 6) if s & ~y == 0) % (1 << l)
    assert coeffs.tolist() == big  # not mutated


def test_validation(monkeypatch):
    with pytest.raises(ValueError):
        fc.MultilinearPoly(m=2, l=0, coeffs=np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        fc.MultilinearPoly(m=2, l=63, coeffs=np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        fc.MultilinearPoly(m=2, l=3, coeffs=np.zeros(5, dtype=np.uint64))
    monkeypatch.setenv("GAPBENCH_EVAL_CAP", "9")
    with pytest.raises(CapExceeded):
        fc.eval_all(single(10, 2, 0, 1))


@pytest.mark.parametrize("n, t, label", [(50, 44, "r_poly: n = 50"),  # m = 6
                                         (28, 1, "r_poly: m = 27")])
def test_lptwy_refuses_before_any_block(monkeypatch, n, t, label):
    # 2^44 blocks of 2^6 entries pass the m cap but do 2^50 work in all
    def built(*args):
        raise AssertionError("a block value table was built")

    monkeypatch.setattr(fc, "_int_value_table", built)
    with pytest.raises(CapExceeded, match=label):
        fc.count_ones_lptwy(Poly3.from_terms(n, [(0,)]), t)


# -- the amplifier ------------------------------------------------------------


def test_amplifier_closed_form_l2():
    table = np.arange(4, dtype=np.uint64)
    got = fc._qhat_values(table, 2)
    want = [(3 * v * v - 2 * v**3) % 4 for v in range(4)]
    assert got.tolist() == want == [0, 1, 0, 1]


def test_amplifier_is_parity_for_many_moduli():
    table = np.arange(50, dtype=np.uint64)
    for l in (1, 2, 3, 6, 13, 31, 62):
        got = fc._qhat_values(table, l)
        assert got.tolist() == [v % 2 for v in range(50)]


def test_amplifier_matches_exact_integer_arithmetic():
    # reference: the defining formula on Python integers, reduced mod 2^l
    rng = np.random.default_rng(31)
    table = rng.integers(0, 2**63, size=64, dtype=np.uint64) * np.uint64(2)
    table[:2] += np.uint64(1)
    for l in (1, 2, 3, 5, 17, 62):
        assert fc._qhat_values(table, l).tolist() == amplifier_reference(table.tolist(), l)


@pytest.mark.parametrize("l", sorted(WORD_OF))
def test_amplifier_on_every_word_at_each_width_boundary(l):
    # the same values in each input word; the result is in the narrowest
    # word with l bits whatever the input word, and the input is unchanged
    values = np.random.default_rng(l).integers(0, 256, size=300)
    want = amplifier_reference(values.tolist(), l)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        table = values.astype(dtype)
        got = fc._qhat_values(table, l)
        assert got.dtype == WORD_OF[l]
        assert got.tolist() == want
        assert table.tolist() == values.tolist()


def test_qhat_single_block_example():
    f = parse_poly("x1*x2*x3", 3)
    assert fc.eval_all(qhat(f, (1,), 2)).tolist() == [0, 0, 0, 1]
    assert fc.eval_all(qhat(f, (0,), 2)).tolist() == [0, 0, 0, 0]


def test_qhat_degenerate_all_free():
    f = parse_poly("x1", 1)
    assert fc.eval_all(qhat(f, (0,), 4)).tolist() == [0]
    assert fc.eval_all(qhat(f, (1,), 4)).tolist() == [1]


def test_qhat_matches_function_everywhere():
    rng = np.random.default_rng(13)
    for n in (4, 6, 8):
        for l in (1, 2, 3, 4):
            f = random_poly(n, rng)
            tt = truth_table(f)
            for t in (1, 2):
                m = n - t
                for a_mask in range(1 << t):
                    bits = [(a_mask >> i) & 1 for i in range(t)]
                    vals = fc.eval_all(qhat(f, bits, l))
                    block = tt[a_mask << m : (a_mask + 1) << m]
                    assert np.array_equal(vals, block.astype(np.uint64)), (n, l, t, a_mask)


# -- block counts and totals --------------------------------------------------


def test_paper_block_counts():
    assert fc.eval_all(fc.r_poly(WORKED_F, 1)).tolist() == [0, 2, 2, 1]
    assert np.array_equal(fc.eval_all(fc.r_poly(WORKED_F, 1)), brute_block_counts(WORKED_F, 1))
    assert fc.count_ones_lptwy(WORKED_F, 1) == 5


def test_full_block_needs_wide_modulus():
    # f = x1 with x2 free: the block y=1 is satisfied by both settings
    f = parse_poly("x1", 2)
    assert fc.eval_all(fc.r_poly(f, 1)).tolist() == [0, 2]
    with pytest.raises(ValueError):
        fc.r_poly(f, 1, l=1)  # 2^1 block would alias to 0


def test_empty_polynomial_counts_zero():
    assert fc.count_ones_lptwy(parse_poly("0", 6), 2) == 0


def test_counts_match_brute_force():
    rng = np.random.default_rng(14)
    for n in (6, 9, 12, 14):
        for t in (1, 2, 3, 4):
            f = random_poly(n, rng)
            assert fc.count_ones_lptwy(f, t) == (1 << n) - zeros_count(f)


def test_a_count_item_builds_and_reads_one_mask_array(monkeypatch):
    # gap_bruteforce then count_ones_lptwy on one f, as the CLI's count does
    built = []
    build = Poly3.masks.func
    counted = functools.cached_property(lambda f: built.append(f) or build(f))
    counted.__set_name__(Poly3, "masks")
    monkeypatch.setattr(Poly3, "masks", counted)
    read = []
    value_table = fc._int_value_table
    monkeypatch.setattr(fc, "_int_value_table",
                        lambda masks, *rest: read.append(masks) or value_table(masks, *rest))
    f = random_poly(12, np.random.default_rng(24))
    gap = gap_bruteforce(f)
    assert 2 * fc.count_ones_lptwy(f, 2) == (1 << f.n) - gap
    assert len(built) == 1 and len(read) == 4
    assert all(masks is f.masks for masks in read)


def test_counts_many_random_n14():
    rng = np.random.default_rng(15)
    for _ in range(100):
        f = random_poly(14, rng)
        assert fc.count_ones_lptwy(f, 3) == (1 << 14) - zeros_count(f)


def test_block_counts_match_brute_blocks():
    rng = np.random.default_rng(16)
    for n in (5, 8, 11):
        for t in (1, 3):
            f = random_poly(n, rng)
            assert np.array_equal(fc.eval_all(fc.r_poly(f, t)), brute_block_counts(f, t))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_counts_across_the_uint8_boundary(n):
    # t = 7 runs in uint8 (l = 8), t = 8 in uint16 (l = 9)
    rng = np.random.default_rng(200 + n)
    f = random_poly(n, rng)
    for t in (7, 8):
        assert 2 * fc.count_ones_lptwy(f, t) == (1 << n) - gap_bruteforce(f)


@pytest.mark.parametrize("l, word", [(2, np.uint8), (9, np.uint16), (17, np.uint32),
                                     (33, np.uint64)])
def test_r_poly_coefficients_match_a_uint64_reference(l, word):
    rng = np.random.default_rng(300 + l)
    f = random_poly(9, rng)
    for t in range(1, min(l, 3)):  # 2^l > 2^t
        ref = brute_block_counts(f, t).astype(np.uint64)
        mobius(ref)
        ref &= np.uint64((1 << l) - 1)
        r = fc.r_poly(f, t, l)
        assert r.coeffs.dtype == word
        assert r.coeffs.tolist() == ref.tolist()


def test_free_variable_validation():
    f = parse_poly("x1*x2", 4)
    with pytest.raises(ValueError):
        fc.count_ones_lptwy(f, 0)
    with pytest.raises(ValueError):
        fc.count_ones_lptwy(f, 5)
    with pytest.raises(ValueError):
        fc.r_poly(f, 2, l=2)  # needs l > t


def test_degree_stays_under_budget():
    # degree after construction is at most 6l - 3 even when m is larger
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_poly(12, rng)
        q = qhat(f, (1,), 2)
        assert q.m == 11
        assert q.degree() <= 6 * 2 - 3
    f = random_poly(13, rng)
    r = fc.r_poly(f, 1, l=2)
    assert r.degree() <= 9


# -- monomial budget ----------------------------------------------------------


def test_monomial_bound_paper_regime():
    assert fc.monomial_bound_check(10**6, 0.0035).holds


def test_monomial_bound_fails_at_half():
    r = fc.monomial_bound_check(10**4, 0.5)
    assert not r.holds
    assert r.m_value == math.comb(5000 + 29997, 29997)


def test_monomial_bound_vacuous():
    r = fc.monomial_bound_check(100, 0.004)  # 6*0.4 - 3 < 0
    assert r.holds
    assert r.m_value == 1


def test_monomial_bound_validation():
    with pytest.raises(ValueError):
        fc.monomial_bound_check(100, 0.0)
    with pytest.raises(ValueError):
        fc.monomial_bound_check(100, 1.0)
