"""Average-case reduction, certificates, and collision-test acceptance."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import gapbench.avgcase as av
from gapbench.config import CapExceeded
from gapbench.poly3 import (
    Poly3,
    all_terms,
    evaluate_points,
    gap_bruteforce,
    parse_poly,
    random_poly,
    strip_linear,
    truth_table,
)

WORKED_F = parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)


def enumerate_polys(n):
    terms = all_terms(n)
    for mask in range(1 << len(terms)):
        yield Poly3.from_terms(n, [t for i, t in enumerate(terms) if (mask >> i) & 1])


class FixedBits:
    """rng stub whose integers() always returns the given bit row."""

    def __init__(self, bits):
        self.bits = np.array(bits)

    def integers(self, lo, hi, size=None):
        return self.bits


# ------------------------------------------------------------------ oracles

def test_exact_oracle_counts_calls():
    o = av.exact_oracle()
    assert o.rho == 0.0
    assert o.query(WORKED_F) == -2
    assert o.query(WORKED_F) == -2
    assert o.calls == 2
    assert o.corrupted_calls == 0


def test_corrupt_oracle_rates():
    always = av.make_corrupt_oracle(1.0, seed=1)
    assert always.query(WORKED_F) == 0  # -2 + 2
    never = av.make_corrupt_oracle(0.0, seed=1)
    assert never.query(WORKED_F) == -2
    o = av.make_corrupt_oracle(0.3, seed=7)
    for _ in range(500):
        o.query(WORKED_F)
    assert o.calls == 500
    assert abs(o.corrupted_calls / 500 - 0.3) < 0.07
    with pytest.raises(ValueError):
        av.make_corrupt_oracle(1.5, seed=0)


def test_corrupt_oracle_deterministic_by_seed():
    a = av.make_corrupt_oracle(0.5, seed=3)
    b = av.make_corrupt_oracle(0.5, seed=3)
    assert [a.query(WORKED_F) for _ in range(50)] == [b.query(WORKED_F) for _ in range(50)]


# ----------------------------------------------------------- randomize_linear

def test_randomize_linear_keeps_upper_parts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        f = random_poly(5, rng)
        g = av.randomize_linear(f, rng)
        assert strip_linear(g) == strip_linear(f)
        assert g.n == f.n


def test_randomize_linear_uniform_at_n1():
    f = Poly3.from_terms(1, [])
    hits = sum(
        av.randomize_linear(f, np.random.default_rng(seed)).terms != ()
        for seed in range(10_000)
    )
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_randomize_linear_deterministic():
    f = random_poly(6, np.random.default_rng(1))
    a = av.randomize_linear(f, np.random.default_rng(9))
    b = av.randomize_linear(f, np.random.default_rng(9))
    assert a == b


# ------------------------------------------------------------- the recursion

def test_recursion_paper_instance():
    got = av.gap_from_quasi_avg_oracle(WORKED_F, av.exact_oracle(), np.random.default_rng(0))
    assert got == -2


def test_recursion_exact_oracle_sweep():
    for n in range(2, 13):
        for i in range(30):
            f = random_poly(n, np.random.default_rng(1000 * n + i))
            oracle = av.exact_oracle()
            got = av.gap_from_quasi_avg_oracle(f, oracle, np.random.default_rng(i))
            assert got == gap_bruteforce(f)
            assert oracle.calls <= n


def test_recursion_zero_mask_early_exit():
    # rng always reproduces f's own linear part, so g = f at the top level
    f = parse_poly("x1 + x2*x3", 3)
    rng = FixedBits([1, 0, 0])
    oracle = av.exact_oracle()
    got = av.gap_from_quasi_avg_oracle(f, oracle, rng)
    assert got == gap_bruteforce(f)
    assert oracle.calls == 1


def test_recursion_single_variable_needs_no_oracle():
    f = Poly3.from_terms(1, [(0,)])
    oracle = av.exact_oracle()
    assert av.gap_from_quasi_avg_oracle(f, oracle, np.random.default_rng(0)) == 0
    assert oracle.calls == 0


def test_recursion_corruption_always_shifts():
    f = random_poly(4, np.random.default_rng(3))
    target = gap_bruteforce(f)
    for trial in range(20):
        oracle = av.make_corrupt_oracle(1.0, seed=trial)
        got = av.gap_from_quasi_avg_oracle(f, oracle, np.random.default_rng(trial))
        assert got != target


def test_recursion_corrupt_monte_carlo():
    n = 10
    f = random_poly(n, np.random.default_rng(77))
    target = gap_bruteforce(f)
    trials = 500
    wins = 0
    for t in range(trials):
        oracle = av.make_corrupt_oracle(1 / (3 * n), seed=9000 + t)
        wins += av.gap_from_quasi_avg_oracle(f, oracle, np.random.default_rng(500 + t)) == target
    rate = wins / trials
    se = math.sqrt(rate * (1 - rate) / trials)
    assert rate >= 2 / 3 - 3 * se


def test_recursion_deterministic():
    f = random_poly(8, np.random.default_rng(4))
    a = av.gap_from_quasi_avg_oracle(f, av.make_corrupt_oracle(0.2, seed=5), np.random.default_rng(6))
    b = av.gap_from_quasi_avg_oracle(f, av.make_corrupt_oracle(0.2, seed=5), np.random.default_rng(6))
    assert a == b


# -------------------------------------------------------------- certificates

def test_certificate_accepts_constant():
    n = 3
    s = list(range(av.certificate_size(n)))
    assert av.certificate_verify(lambda x: 0, n, s)
    assert av.certificate_verify(lambda x: 1, n, s)


def test_certificate_rejects_balanced_everywhere():
    f = parse_poly("x1", 2)
    for s in combinations(range(4), 3):
        assert not av.certificate_verify(lambda xs: evaluate_points(f, xs), 2, s)


def test_certificate_validation_errors():
    with pytest.raises(ValueError):
        av.certificate_verify(lambda x: 0, 3, [0, 1, 2, 3])  # wrong size
    with pytest.raises(ValueError):
        av.certificate_verify(lambda x: 0, 3, [0, 1, 2, 3, 3])  # duplicate
    with pytest.raises(ValueError):
        av.certificate_verify(lambda x: 0, 3, [0, 1, 2, 3, 8])  # out of range


def test_certificate_exists_iff_unbalanced_exhaustive():
    # n = 3: search all 8-choose-5 certificates for every polynomial
    for f in enumerate_polys(3):
        exists = any(
            av.certificate_verify(lambda xs: evaluate_points(f, xs), 3, s)
            for s in combinations(range(8), 5)
        )
        assert exists == (gap_bruteforce(f) != 0)
        found = av.find_certificate(f)
        assert (found is not None) == exists
        if found is not None:
            assert av.certificate_verify(lambda xs: evaluate_points(f, xs), 3, found)


def test_certificate_paper_instance():
    cert = av.find_certificate(WORKED_F)
    assert cert is not None
    assert av.certificate_verify(lambda xs: evaluate_points(WORKED_F, xs), 3, cert)


def test_find_certificate_is_an_int64_array_in_bounded_memory():
    n = 20
    f = random_poly(n, np.random.default_rng(3))
    tracemalloc.start()
    try:
        cert = av.find_certificate(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table, its mask and one index array; 2^(n-1)+1 Python ints took 25 MiB
    assert peak < 16 * 2**20
    assert cert.dtype == np.int64 and cert.shape == (av.certificate_size(n),)
    tt = truth_table(f)
    value = tt[cert[0]]
    # the lexically first points of one value
    assert np.array_equal(cert, np.flatnonzero(tt == value)[: len(cert)])


def test_find_certificate_cap(monkeypatch):
    monkeypatch.setenv("GAPBENCH_DIST_CAP", "1")
    f = Poly3.from_terms(2, [(0,)])
    with pytest.raises(CapExceeded):
        av.find_certificate(f)


def test_certificates_need_a_variable():
    with pytest.raises(ValueError, match="needs at least one variable, got n = 0"):
        av.find_certificate(Poly3(n=0))
    with pytest.raises(ValueError, match="needs at least one variable"):
        av.certificate_verify(lambda xs: 0, 0, [0])


# ------------------------------------------------------------ SB thresholds

def test_sb_thresholds_values():
    assert av.SbThresholds.for_n(4).L == 40
    assert av.SbThresholds.for_n(6).L == 80
    assert av.SbThresholds.for_n(8).L == 160
    assert av.SbThresholds.for_n(5).L == 57  # ceil(10 * 2^2.5)
    th = av.SbThresholds.for_n(4)
    assert th.c == 1.5
    assert th.log_t == pytest.approx(9 / math.sqrt(2) - 40 * math.log(2))
    assert th.log_t > th.log_t_over_c


def test_sb_acceptance_trivial_points():
    th = av.SbThresholds.for_n(6)
    assert av.sb_acceptance_exact(1 << 6, 6) == 0.0
    assert av.sb_acceptance_exact(0, 6) == pytest.approx((1 - th.L) * math.log(2))
    assert av.sb_acceptance_exact(-4, 6) == av.sb_acceptance_exact(4, 6)
    with pytest.raises(ValueError):
        av.sb_acceptance_exact(200, 6)


def test_sb_acceptance_exact_fraction_oracle():
    # small L: compare against a big-rational evaluation of q1^L + q0^L
    n, L = 4, 12
    for gap in (0, 2, 4, 8, 16):
        q1 = Fraction(1, 2) + Fraction(gap, 1 << (n + 1))
        exact = float(q1**L + (1 - q1) ** L)
        assert av.sb_acceptance_exact(gap, n, L) == pytest.approx(math.log(exact), rel=1e-12)


def test_sb_acceptance_monotone_in_gap():
    th = av.SbThresholds.for_n(10)
    values = [av.sb_acceptance_exact(g, 10, th.L) for g in range(0, 1025, 2)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_sb_threshold_gap_witnesses():
    for n, gy, gn in [(4, 4, 2), (6, 6, 4), (8, 12, 8), (10, 24, 16), (12, 46, 32)]:
        assert av.yes_threshold_gap(n) == gy
        assert av.no_threshold_gap(n) == gn
    for n in range(4, 13):
        gy, gn = av.yes_threshold_gap(n), av.no_threshold_gap(n)
        assert gy % 2 == 0 and gn % 2 == 0
        assert 4 * gy * gy >= 1 << (n + 1)
        assert 4 * (gy - 2) * (gy - 2) < 1 << (n + 1)
        assert 4 * gn * gn <= 1 << n
        assert 4 * (gn + 2) * (gn + 2) > 1 << n


def test_sb_inequality_pair_separation():
    # YES-threshold gaps accept above t(n); NO-threshold gaps below t(n)/c
    for n in range(4, 13):
        th = av.SbThresholds.for_n(n)
        assert av.sb_acceptance_exact(av.yes_threshold_gap(n), n, th.L) >= th.log_t
        assert av.sb_acceptance_exact(av.no_threshold_gap(n), n, th.L) <= th.log_t_over_c
