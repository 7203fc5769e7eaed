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

import math

import numpy as np
import pytest

from gapbench import fastcount as fc
from gapbench.config import CapExceeded
from gapbench.poly3 import (
    parse_poly,
    random_poly,
    truth_table,
    zeros_count,
)
from gapbench.transform import term_masks

WORKED_F = parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)


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
    table = fc._int_value_table(term_masks(f.terms()), a_mask, m)
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
