"""Acceptance gate: one test per headline capability.

Each test prints a single pass line once its asserts clear, so a verbose
run reads as a 14-line report. Seeds are fixed; nothing here is tuned to
the draw.
"""

import math
import time
from fractions import Fraction

import numpy as np

import gapbench.avgcase as av
import gapbench.circuits as ci
import gapbench.cyclecover as cc
import gapbench.estimator as es
import gapbench.fastcount as fc
import gapbench.gapdist as gd
import gapbench.permanents as pm
import gapbench.poly3 as p3


def _ok(num, message):
    print(f"[criterion {num:02d}] PASS: {message}")


def test_criterion_01_estimator_headline_counts():
    t0 = time.perf_counter()
    horizon = {m: es.estimate(es.EstimateParams(m)).q
               for m in ("iqp-mult", "qaoa-mult", "boson-mult")}
    per_elem = {m: es.estimate(es.EstimateParams(m, per_element=True)).q
                for m in ("iqp-mult", "qaoa-mult", "boson-mult")}
    elapsed = time.perf_counter() - t0
    assert horizon == {"iqp-mult": 185, "qaoa-mult": 370, "boson-mult": 93}
    assert per_elem == {"iqp-mult": 208, "qaoa-mult": 420, "boson-mult": 98}
    assert elapsed < 1.0
    _ok(1, f"century 185/370/93, per-element 208/420/98 in {elapsed:.3f}s")


def test_criterion_02_gate_count_formulas_and_display():
    t0 = time.perf_counter()
    cases = (("iqp-mult", 185, 1_055_425, "1,060,000"),
             ("qaoa-mult", 370, 2_111_775, "2,110,000"),
             ("boson-mult", 93, 17_391, "17,400"))
    for model, q, gates, shown in cases:
        assert es.gate_count(model, q) == gates
        assert es.display_rounded(gates) == shown
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(2, "g(185)=1,055,425 g(370)=2,111,775 g(93)=17,391 with 3-figure display")


def test_criterion_03_iqp_amplitude_identity():
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in range(2, 13):
        for _ in range(200):
            f = p3.random_poly(n, rng)
            amp = ci.iqp_gap_amplitude(f)
            err = abs((1 << n) * amp - p3.gap_bruteforce(f))
            worst = max(worst, err)
            assert err < 1e-6
    # shifted route: every polynomial outright at n <= 3, then every linear
    # shift of random cores up to n = 8
    worst_shift = 0.0
    for n in range(1, 4):
        terms = p3.all_terms(n)
        for mask in range(1 << len(terms)):
            f = p3.Poly3.from_terms(n, [terms[i] for i in range(len(terms))
                                        if mask >> i & 1])
            err = abs((1 << n) * ci.iqp_shifted_amplitude(f) - p3.gap_bruteforce(f))
            worst_shift = max(worst_shift, err)
            assert err < 1e-9
    for n in range(4, 9):
        for _ in range(2):
            fbar = p3.strip_linear(p3.random_poly(n, rng))
            for delta in range(1 << n):
                f = p3.with_linear(fbar, delta)
                err = abs((1 << n) * ci.iqp_shifted_amplitude(f)
                          - p3.gap_bruteforce(f))
                worst_shift = max(worst_shift, err)
                assert err < 1e-9
    _ok(3, f"2200 amplitudes, worst |2^n A - gap| = {worst:.2e}; "
           f"shifted worst {worst_shift:.2e}")


def test_criterion_04_qaoa_acceptance_proportionality():
    terms = p3.all_terms(2)
    ratios = []
    for mask in range(8):
        f = p3.Poly3.from_terms(2, [terms[i] for i in range(3) if mask >> i & 1])
        gap = p3.gap_bruteforce(f)
        acc = ci.qaoa_acceptance(f)
        if gap == 0:
            assert acc < 1e-12
        else:
            ratios.append(acc / gap ** 2)
    spread = max(ratios) - min(ratios)
    assert spread < 1e-10
    ratio1 = ci.qaoa_acceptance(p3.Poly3(n=1)) / 4
    assert abs(ratios[0] - ratio1 / 8) < 1e-12
    _ok(4, f"n=2 acceptance/gap^2 spread {spread:.1e}, ratio chains from n=1")


def test_criterion_05_lptwy_count_equivalence():
    rng = np.random.default_rng(55)
    checked = 0
    for n in range(6, 17):
        for t in range(1, 5):
            for _ in range(100):
                f = p3.random_poly(n, rng)
                ones = (1 << n) - p3.zeros_count(f)
                assert fc.count_ones_lptwy(f, t) == ones
                checked += 1
    assert checked == 4400
    _ok(5, "4400 instances over (n,t) in {6..16}x{1..4} match brute force")


def test_criterion_06_permanent_cross_validation():
    rng = np.random.default_rng(66)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        a = rng.integers(-3, 4, size=(d, d))
        assert pm.permanent_ryser(a) == pm.permanent_naive(a)
    u = np.array([[1, 1j], [-1j, -1]]) / math.sqrt(2)
    per = pm.permanent_ryser(u[np.ix_([0, 0, 1], [0, 1, 1])])
    assert abs(per - (-1j / math.sqrt(2))) < 1e-12
    amp = pm.fock_amplitude(u, (2, 1), (1, 2))
    assert abs(amp - (-1j / (2 * math.sqrt(2)))) < 1e-12
    _ok(6, "Ryser == naive on 500 integer matrices; two-mode fixture exact")


def test_criterion_07_dilation_soundness():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = 1 / (2 * pm.spectral_norm(a))
        dil = pm.dilate(a, c=c)
        assert abs(dil.scale - c) < 1e-15
        assert pm.unitarity_defect(dil.unitary) < 1e-9
        assert np.max(np.abs(dil.unitary[:d, :d] - c * a)) < 1e-10
        occ = (1,) * d + (0,) * d
        amp = pm.fock_amplitude(dil.unitary, occ, occ)
        expected = (c ** d) * pm.permanent_naive(a)
        assert abs(amp - expected) <= 1e-7 * abs(expected)
    _ok(7, "100 dilations unitary, block-faithful, amplitude = c^n Per(A)")


def test_criterion_08_single_term_reduction_gate():
    checked = 0
    for n in range(1, 4):
        for term in p3.all_terms(n):
            f = p3.Poly3.from_terms(n, [term])
            rc = cc.verify_reduction(f)
            assert rc.ok
            assert rc.node_count <= 22
            assert rc.perm == 64 * p3.gap_bruteforce(f)
            checked += 1
    assert checked == 11
    _ok(8, "all 11 single-term polynomials over n <= 3: Per(G_f) = 4^3 gap(f)")


def test_criterion_09_moment_identities():
    for n in range(1, 5):
        assert gd.exact_moment(n, 1).value == Fraction(1)
        assert gd.exact_moment(n, 2).value <= 3
    grid = ((1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2),
            (4, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4))
    # the solution count equals the raw 2k-th gap moment; the report
    # normalizes gap by 2^{n/2}, so the raw moment is 2^{nk} times it
    for n, k in grid:
        count = gd.count_matrix_solutions(n, k)
        assert count == (1 << (n * k)) * gd.exact_moment(n, k).value
    assert [gd.count_condition_subspaces(k, 3) for k in (1, 2, 3, 4)] == \
        [1, 3, 15, 105]
    assert gd.count_condition_subspaces(4, 2) == 135
    _ok(9, "second moment = 1, fourth <= 3, subspace counts 1/3/15/105 and 135")


def test_criterion_10_mass_polynomial_coefficients():
    printed = (1.0, -6.0672, 29.9730, -114.8688, 345.0021, -829.2997,
               1620.0455, -2593.7392, 3410.0118, -3665.1216, 3183.4033,
               -2188.3186, 1149.8164, -435.1008, 105.8449, -12.4590)
    t0 = time.perf_counter()
    mp = gd.mass_poly()
    worst = max(abs(a - b) for a, b in zip(mp.c, printed))
    c_sum = float(mp.c_sum())
    excess = mp.grid_max_excess()
    elapsed = time.perf_counter() - t0
    assert len(mp.c) == 16
    assert worst < 5e-4
    assert abs(c_sum - 0.1222) < 5e-5
    assert excess <= 0.0
    assert elapsed < 1.0
    _ok(10, f"16 coefficients within {worst:.1e}, sum {c_sum:.5f}, "
            f"p <= I on grid in {elapsed:.3f}s")


def test_criterion_11_promise_statistics_n16():
    rep = gd.promise_stats(16, samples=100_000, seed=2026)
    promise = rep.yes_fraction + rep.no_fraction
    promise_se = math.sqrt(promise * (1 - promise) / rep.samples) \
        if 0 < promise < 1 else 0.0
    assert promise >= 1 / 5 - 3 * promise_se
    assert rep.p0 <= 11 / 12 + 3 * rep.p0_se
    # asymptotic NO mass approaches 0.12; at n = 16 assert only >= 0.05
    assert rep.no_fraction >= 0.05 - 3 * rep.no_se
    _ok(11, f"promise {promise:.3f} >= 0.2, p0 {rep.p0:.3f} <= 11/12, "
            f"NO mass {rep.no_fraction:.3f} >= 0.05 (asymptote 0.12)")


def test_criterion_12_oracle_recursion_and_corruption():
    rng = np.random.default_rng(120)
    for _ in range(200):
        n = int(rng.integers(4, 13))
        f = p3.random_poly(n, rng)
        claimed = av.gap_from_quasi_avg_oracle(f, av.exact_oracle(), rng)
        assert claimed == p3.gap_bruteforce(f)
    n = 10
    rho = 1 / (3 * n)
    wins = 0
    for trial in range(500):
        f = p3.random_poly(n, np.random.default_rng(9_000 + trial))
        oracle = av.make_corrupt_oracle(rho, seed=17_000 + trial)
        claimed = av.gap_from_quasi_avg_oracle(
            f, oracle, np.random.default_rng(25_000 + trial))
        wins += claimed == p3.gap_bruteforce(f)
    frac = wins / 500
    floor = 2 / 3 - 3 * math.sqrt((2 / 3) * (1 / 3) / 500)
    assert frac >= floor
    _ok(12, f"200 exact recursions exact; corrupted success {frac:.3f} "
            f">= {floor:.3f}")


def test_criterion_13_tiny_threshold_acceptance():
    t0 = time.perf_counter()
    for n in (4, 6, 8):
        log_t = -10 * 2 ** (n / 2) * math.log(2) + 9 / math.sqrt(2)
        log_yes = av.sb_acceptance_exact(av.yes_threshold_gap(n), n)
        log_no = av.sb_acceptance_exact(av.no_threshold_gap(n), n)
        assert log_yes >= log_t
        assert log_no <= log_t - math.log(1.5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(13, "log acceptance clears t(n) on YES and t(n)/1.5 on NO at n=4,6,8")


def test_criterion_14_algorithm_a_robustness():
    dists = {}

    def exact_probability(f):
        # one class distribution per stripped core serves its whole class
        fbar = p3.strip_linear(f)
        if fbar not in dists:
            dists[fbar] = ci.class_distribution(fbar)
        return dists[fbar][p3.linear_part(f)]

    checked = 0
    for n in range(1, 5):
        terms = p3.all_terms(n)
        for mask in range(1 << len(terms)):
            f = p3.Poly3.from_terms(n, [terms[i] for i in range(len(terms))
                                        if mask >> i & 1])
            label = ci.classify_from_gap(p3.gap_bruteforce(f), n)
            if label == "NONPROMISE":
                continue
            decision = ci.algorithm_a(exact_probability(f), n)
            assert decision.accept == (label == "YES")
            checked += 1
    rng = np.random.default_rng(140)
    for n in range(5, 11):
        tested = 0
        draws = 0
        while tested < 300 and draws < 4000:
            draws += 1
            f = p3.random_poly(n, rng)
            label = ci.classify_from_gap(p3.gap_bruteforce(f), n)
            if label == "NONPROMISE":
                continue
            decision = ci.algorithm_a(exact_probability(f), n)
            assert decision.accept == (label == "YES")
            tested += 1
        assert tested == 300
        checked += tested

    # adversary with a total perturbation budget eps spread over the class
    # distribution; greedy flipping is its strongest strategy
    eps = 1 / 1000
    n = 8
    for core_seed in (1, 2, 3):
        fbar = p3.strip_linear(p3.random_poly(n, np.random.default_rng(core_seed)))
        exact = {}
        labels = {}
        for delta in range(1 << n):
            g = p3.gap_bruteforce(p3.with_linear(fbar, delta))
            exact[delta] = g * g / 4.0 ** n
            labels[delta] = ci.classify_from_gap(g, n)
        perturbed, _, flipped = ci.greedy_adversary(exact, labels, n, eps)
        assert sum(abs(perturbed[d] - exact[d]) for d in exact) <= eps
        assert flipped >= 1

        members = correct = 0
        for delta in range(1 << n):
            label = labels[delta]
            if label == "NONPROMISE":
                continue
            members += 1
            decision = ci.algorithm_a(perturbed[delta], n)
            if label == "YES":
                correct += decision.accept
            else:
                correct += (not decision.accept) and (not decision.indeterminate)
        assert members > 0
        assert correct / members >= 1 - 60 * eps
    _ok(14, f"{checked} exact promise decisions all correct; greedy "
            f"budget-1/1000 adversary stays above 1 - 60*eps")
