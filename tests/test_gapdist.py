"""Gap-distribution statistics: moments, counting identities, the
Chebyshev mass polynomial, and promise fractions."""

import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import gapbench.gapdist as gd
from gapbench import circuits, transform
from gapbench.config import CapExceeded
from gapbench.poly3 import Poly3, all_terms, gap_bruteforce, max_terms

# printed reference list for the mass polynomial coefficients c_j
C_LIST = [1, -6.0672, 29.9730, -114.8688, 345.0021, -829.2997, 1620.0455,
          -2593.7392, 3410.0118, -3665.1216, 3183.4033, -2188.3186,
          1149.8164, -435.1008, 105.8449, -12.4590]


def enumerate_polys(n):
    terms = all_terms(n)
    for mask in range(1 << len(terms)):
        yield Poly3.from_terms(n, [t for i, t in enumerate(terms) if (mask >> i) & 1])


# ---------------------------------------------------------------- reports

def test_moment_report_validation():
    with pytest.raises(ValueError):
        gd.MomentReport(n=1, k=1, kind="exact", value=Fraction(1), samples=2, std_error=0.1)
    with pytest.raises(ValueError):
        gd.MomentReport(n=1, k=1, kind="guessed", value=1.0, samples=2, std_error=0.0)
    with pytest.raises(ValueError):
        gd.MomentReport(n=1, k=1, kind="sampled", value=1.0, samples=0, std_error=0.1)


def test_gaussian_moment_target():
    assert [gd.gaussian_moment_target(k) for k in range(5)] == [1, 1, 3, 15, 105]


# ---------------------------------------------------------- exact moments

def test_exact_second_moment_is_one_at_every_n():
    # 2^n E[(gap/2^n)^2] = 1 exactly
    for n in (1, 2, 3, 4):
        rep = gd.exact_moment(n, 1)
        assert rep.value == 1
        assert rep.kind == "exact"
        assert rep.std_error == 0.0
        assert rep.samples == 1 << max_terms(n)


def test_exact_moment_against_direct_enumeration():
    # independent oracle: walk every polynomial object and its brute gap
    for n in (2, 3):
        for k in (1, 2, 3):
            total = sum(gap_bruteforce(f) ** (2 * k) for f in enumerate_polys(n))
            expect = Fraction(total, (1 << max_terms(n)) * (1 << (n * k)))
            assert gd.exact_moment(n, k).value == expect


def test_exact_moments_frozen_at_n4():
    assert gd.exact_moment(4, 2).value == Fraction(23, 8)
    assert gd.exact_moment(4, 3).value == Fraction(211, 16)
    assert gd.exact_moment(4, 4).value == Fraction(20731, 256)


def test_exact_moment_caps():
    with pytest.raises(CapExceeded):
        gd.exact_moment(5, 1)
    with pytest.raises(CapExceeded):
        gd.exact_moment(4, 5)


# -------------------------------------------------------- matrix counting

def test_matrix_count_hand_enumeration_examples():
    assert gd.count_matrix_solutions(1, 1) == 2
    assert gd.count_matrix_solutions(2, 1) == 4
    assert gd.count_matrix_solutions(3, 1) == 8
    # single column, k=1: the condition <v,v,v> = 0 means even weight
    vecs = [v for v in range(4) if bin(v).count("1") % 2 == 0]
    assert vecs == [0b00, 0b11]


def test_matrix_count_identity_with_exact_moment():
    for n, k in [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 3), (4, 3)]:
        count = gd.count_matrix_solutions(n, k)
        assert count == (1 << (n * k)) * gd.exact_moment(n, k).value


def test_matrix_count_second_moment_closed_form():
    # k=1: count = 2^{2n} E[ngap^2] = 2^n
    for n in (5, 8, 12):
        assert gd.count_matrix_solutions(n, 1) == 1 << n


def test_matrix_count_brute_oracle_small():
    # check n=2, k=1 against literal iteration over all 2x2 matrices
    good = 0
    for m in range(16):
        cols = [(m >> 0) & 1 | (((m >> 1) & 1) << 1), (m >> 2) & 1 | (((m >> 3) & 1) << 1)]
        ok = True
        for a in cols:
            for b in cols:
                for c in cols:
                    if bin(a & b & c).count("1") % 2:
                        ok = False
        good += ok
    assert good == gd.count_matrix_solutions(2, 1)


def test_matrix_count_cap():
    with pytest.raises(CapExceeded):
        gd.count_matrix_solutions(13, 1)
    with pytest.raises(ValueError):
        gd.count_matrix_solutions(0, 1)


# ------------------------------------------------------ subspace counting

def test_subspace_counts_match_closed_forms():
    assert [gd.count_condition_subspaces(k, 3) for k in (1, 2, 3, 4)] == [1, 3, 15, 105]
    assert [gd.count_condition_subspaces(k, 2) for k in (1, 2, 3, 4)] == [1, 3, 15, 135]


def test_subspace_degrees_agree_until_k4():
    for k in (1, 2, 3):
        assert gd.count_condition_subspaces(k, 2) == gd.count_condition_subspaces(k, 3)
    assert gd.count_condition_subspaces(4, 2) != gd.count_condition_subspaces(4, 3)


def test_subspace_enumeration_is_complete_and_distinct():
    # every k-dim subspace of F2^{2k} appears exactly once across batches
    for k, expect in [(1, 3), (2, 35)]:
        spans = set()
        total = 0
        for batch in gd._rref_bases(k):
            total += batch.shape[0]
            for row in batch:
                span = {0}
                for b in row:
                    span |= {s ^ int(b) for s in span}
                spans.add(frozenset(span))
        assert total == expect
        assert len(spans) == expect


def test_subspace_condition_brute_oracle_k2():
    # independent check on full spans: products of all element pairs
    def dual_ok(span, degree):
        for u in span:
            for v in span:
                if degree == 2:
                    if bin(u & v).count("1") % 2:
                        return False
                else:
                    for z in span:
                        if bin((u & v) & z).count("1") % 2:
                            return False
        return True

    for degree in (2, 3):
        spans = set()
        for a in range(1, 16):
            for b in range(1, 16):
                if b == a:
                    continue
                span = frozenset({0, a, b, a ^ b})
                if len(span) == 4:
                    spans.add(span)
        good = sum(dual_ok(s, degree) for s in spans)
        assert good == gd.count_condition_subspaces(2, degree)


def test_subspace_caps():
    with pytest.raises(CapExceeded):
        gd.count_condition_subspaces(5, 2)
    with pytest.raises(ValueError):
        gd.count_condition_subspaces(2, 4)


# ----------------------------------------------------------- mass polynomial

def test_mass_poly_matches_printed_coefficients():
    mp = gd.mass_poly()
    assert len(mp.c) == 16
    for got, ref in zip(mp.c, C_LIST):
        assert abs(got - ref) < 5e-4
    # A is floored so that p never exceeds the indicator; c_0 sits a
    # vanishing margin below the quoted 1
    assert 0 < 1 - mp.c_exact[0] < Fraction(1, 10**50)


def test_mass_poly_coefficient_sum():
    assert abs(float(gd.mass_poly().c_sum()) - 0.1222) < 5e-5


def test_mass_poly_gaussian_expectation_oracle():
    # E[p(x^2)] for standard Gaussian x equals sum_j c_j because
    # E[x^{2j}] = (2j-1)!!; Gauss-Hermite quadrature is exact at this degree
    mp = gd.mass_poly()
    nodes, weights = np.polynomial.hermite_e.hermegauss(25)
    estimate = sum(w * mp(x * x) for x, w in zip(nodes, weights)) / math.sqrt(2 * math.pi)
    assert abs(estimate - float(mp.c_sum())) < 1e-9


def test_mass_poly_stays_below_indicator_on_grid():
    excess = gd.mass_poly().grid_max_excess()
    assert excess <= 0


def test_mass_poly_boundary_and_tail_values():
    mp = gd.mass_poly()
    # u = 1 + A - 4Ax hits exactly 1 at x = 1/4, where T_15(1) = 1
    assert mp.eval_exact(Fraction(1, 4)) == 0
    assert mp.eval_exact(Fraction(0)) < 1
    assert 1 - mp.eval_exact(Fraction(0)) < Fraction(1, 10**50)
    for x in (0.3, 0.5, 1.0, 5.0, 12.0, 20.0):
        assert mp(x) <= 0.0
    assert abs(float(mp.a_value) - 0.00773) < 5e-6


def test_mass_poly_evaluator_consistency():
    mp = gd.mass_poly()
    for x in (0.0, 0.1, 0.25, 0.7, 3.0, 19.5):
        exact = float(mp.eval_exact(Fraction(x).limit_denominator(10**6)))
        assert mp(x) == pytest.approx(exact, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------ gap sampling

def test_sampler_matches_bruteforce_small_n():
    drawn = gd.GapSampler(3).gaps(100, seed=7)
    assert drawn.tolist() == [gap_bruteforce(f) for f in seed_contract_polys(3, 100, 7)]


def test_sampler_zero_mask_gives_full_gap():
    # the sampler's kernel on the all-false coefficient mask: f = 0
    for n in (2, 5, 16):
        zero = np.zeros((1, max_terms(n)), dtype=bool)
        assert transform.gaps(zero, Poly3(n, tuple(all_terms(n))).masks, n)[0] == 1 << n


def seed_contract_polys(n, samples, seed):
    """The polynomials GapSampler(n).gaps(samples, seed) draws: one uniform
    0/1 row over all_terms(n) per sample, shards of up to 4096 samples each
    from its own SeedSequence child."""
    terms = all_terms(n)
    children = np.random.SeedSequence(seed).spawn(-(-samples // 4096))
    for i, child in enumerate(children):
        m = min(4096, samples - 4096 * i)
        rows = np.random.default_rng(child).integers(0, 2, size=(m, len(terms)), dtype=np.uint8)
        for row in rows:
            yield Poly3.from_terms(n, [t for t, keep in zip(terms, row) if keep])


def test_sampler_stream_frozen_and_exact():
    gaps = gd.GapSampler(16).gaps(64, seed=5)
    # sha256 of the stream as produced by the earlier per-term-table sampler
    digest = hashlib.sha256(np.asarray(gaps, dtype="<i8").tobytes()).hexdigest()
    assert digest == "85131f6d5c0ab049a03629ab3b9122ee117ed8b170900bc39925e3360ba1bef5"
    assert gaps.tolist() == [gap_bruteforce(f) for f in seed_contract_polys(16, 64, 5)]


def test_sampler_at_the_sampling_cap_is_exact_in_bounded_memory():
    # n = 24 is the default sampling cap; one table of 2^24 points per
    # term (2324 terms) would take 4.9 GB
    tracemalloc.start()
    try:
        gaps = gd.GapSampler(24).gaps(2, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert gaps.tolist() == [gap_bruteforce(f) for f in seed_contract_polys(24, 2, 1)]


def test_sampler_deterministic_and_shard_stable():
    s = gd.GapSampler(10)
    a = s.gaps(5000, seed=3)
    b = s.gaps(5000, seed=3)
    assert np.array_equal(a, b)
    # shard boundaries do not leak: a prefix-sized draw is a prefix
    c = s.gaps(4096, seed=3)
    assert np.array_equal(a[:4096], c)
    assert not np.array_equal(a, s.gaps(5000, seed=4))


def test_sampled_gaps_have_integer_divisibility():
    # zero counts of degree-3 forms are divisible by 2^(ceil(n/3) - 1)
    # (Ax-Katz), so gaps are divisible by 2^ceil(n/3); a per-sample
    # structural check no accidental-sign engine would pass
    for n, mod in [(10, 16), (16, 64)]:
        gaps = gd.GapSampler(n).gaps(400, seed=9)
        assert (gaps % mod == 0).all()


def test_sampler_cap():
    with pytest.raises(CapExceeded):
        gd.GapSampler(31)
    with pytest.raises(CapExceeded):
        gd.GapSampler(0)


def test_jackknife_matches_classical_se_for_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    assert gd._jackknife_se(x) == pytest.approx(x.std(ddof=1) / math.sqrt(500), rel=1e-10)


def test_sampled_moment_hits_gaussian_targets():
    for k, target in [(1, 1.0), (2, 3.0)]:
        rep = gd.sampled_moment(16, k, 10_000, seed=k)
        assert rep.kind == "sampled"
        assert rep.samples == 10_000
        assert rep.std_error > 0
        assert abs(rep.value - target) <= 3 * rep.std_error


def test_sampled_moment_deterministic():
    a = gd.sampled_moment(12, 1, 2000, seed=42)
    b = gd.sampled_moment(12, 1, 2000, seed=42)
    assert a.value == b.value and a.std_error == b.std_error


def test_gap_histogram_shape():
    h = gd.gap_histogram(4, 500, seed=2)
    assert sum(c for _, c in h) == 500
    assert all(v % 2 == 0 for v, _ in h)
    assert h == sorted(h)
    assert h == gd.gap_histogram(4, 500, seed=2)


# ------------------------------------------------------------ promise stats

def test_promise_exhaustive_against_classifier_oracle():
    for n in (1, 2, 3):
        labels = [circuits.sgap_classify(f) for f in enumerate_polys(n)]
        rep = gd.promise_stats(n)
        total = len(labels)
        assert rep.kind == "exact"
        assert rep.samples == total
        assert rep.yes_fraction == Fraction(labels.count("YES"), total)
        assert rep.no_fraction == Fraction(labels.count("NO"), total)
        assert rep.nonpromise_fraction == Fraction(labels.count("NONPROMISE"), total)


def test_promise_exhaustive_frozen_values():
    rep = gd.promise_stats(3)
    assert (rep.yes_fraction, rep.no_fraction) == (Fraction(93, 128), Fraction(35, 128))
    assert rep.p0 == Fraction(93, 128)
    rep4 = gd.promise_stats(4)
    assert rep4.yes_fraction == Fraction(9949, 16384)
    assert rep4.no_fraction == Fraction(6435, 16384)
    assert rep4.nonpromise_fraction == 0


def test_promise_sampled_bounds_at_n16():
    rep = gd.promise_stats(16, samples=10_000, seed=11)
    assert rep.kind == "sampled"
    promise_mass = rep.yes_fraction + rep.no_fraction
    assert promise_mass >= 0.2
    assert rep.p0 <= 11 / 12 + 3 * rep.p0_se
    # Gaussian-model prediction ~0.56; generous informational window
    assert 0.50 <= rep.p0 <= 0.62
    # divisibility empties the band between the thresholds at n = 16
    assert rep.nonpromise_fraction == 0.0


def test_promise_sampled_requires_seed():
    with pytest.raises(ValueError):
        gd.promise_stats(16)
    with pytest.raises(ValueError):
        gd.promise_stats(16, samples=100)

