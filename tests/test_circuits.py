"""Tests for the circuit encodings, thresholds, and the query algorithm."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapbench.avgcase as av
import gapbench.gapdist as gd
from gapbench.config import CapExceeded
from gapbench.circuits import (
    BETA,
    GAMMA,
    Constraint,
    DistributionError,
    QaoaSpec,
    SgapThresholds,
    algorithm_a,
    build_iqp,
    build_qaoa,
    class_distribution,
    classify_from_gap,
    distribution_error,
    iqp_gap_amplitude,
    iqp_shifted_amplitude,
    qaoa_acceptance,
    qaoa_acceptance_exact,
    qaoa_to_circuit,
    sgap_classify,
)
from gapbench.poly3 import (
    Poly3,
    all_terms,
    gap_bruteforce,
    linear_part,
    parse_poly,
    random_poly,
    strip_linear,
)
from gapbench.statevector import Circuit, Gate, run, zero_state


def example_f():
    return parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)


def every_poly(n):
    terms = all_terms(n)
    for mask in range(1 << len(terms)):
        yield Poly3.from_terms(n, [t for i, t in enumerate(terms) if (mask >> i) & 1])


class TestIqpForm:
    def test_example_gate_sequence(self):
        c = build_iqp(example_f())
        kinds = [g.kind for g in c.gates]
        assert kinds == ["h", "h", "h", "z", "z", "cz", "ccz", "h", "h", "h"]
        assert [g.targets for g in c.gates[3:7]] == [(0,), (1,), (0, 1), (0, 1, 2)]

    def test_internal_gate_count_is_term_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_poly(6, rng)
            assert len(build_iqp(f).gates) == 2 * f.n + len(f.terms)

    def test_example_amplitude(self):
        # gap = -2 on 3 variables -> amplitude -2/8
        amp = iqp_gap_amplitude(example_f())
        assert abs(amp - (-0.25)) < 1e-12

    def test_amplitude_identity_random(self):
        rng = np.random.default_rng(5)
        for n in range(1, 10):
            for _ in range(20):
                f = random_poly(n, rng)
                amp = iqp_gap_amplitude(f)
                assert abs(amp.imag) < 1e-10
                assert abs(amp.real - gap_bruteforce(f) / 2 ** n) < 1e-10

    def test_shifted_amplitude_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_poly(6, rng)
            amp = iqp_shifted_amplitude(f)
            assert abs(amp - gap_bruteforce(f) / 64) < 1e-10

    def test_hiding_covers_whole_class(self):
        # one distribution of C_fbar gives gap^2 for every linear shift
        rng = np.random.default_rng(9)
        fbar = strip_linear(random_poly(5, rng))
        dist = class_distribution(fbar)
        for delta in range(32):
            shifted = Poly3(
                n=5,
                terms=tuple((i,) for i in range(5) if (delta >> i) & 1) + fbar.terms,
            )
            want = (gap_bruteforce(shifted) / 32) ** 2
            assert abs(dist[delta] - want) < 1e-10


class TestQaoaForm:
    def test_constraint_counts(self):
        # 2 per monomial plus 5 per variable
        assert build_qaoa(parse_poly("x1", 1)).constraint_count == 7
        assert build_qaoa(Poly3(n=2)).constraint_count == 10
        assert build_qaoa(example_f()).constraint_count == 23

    def test_constraint_count_bound(self):
        # full polynomial saturates (n^3 + 20n)/3 on 2n qubits
        for n in (1, 2, 3, 4):
            full = Poly3.from_terms(n, all_terms(n))
            spec = build_qaoa(full)
            assert spec.constraint_count == (n ** 3 + 20 * n) // 3
            assert spec.q == 2 * n

    def test_angles_fixed(self):
        assert GAMMA == math.pi / 2 and BETA == math.pi / 4

    def test_acceptance_ratio_n1(self):
        # ratio acceptance/gap^2 pinned by simulation: 1/8 at n = 1
        f = Poly3(n=1)
        assert abs(qaoa_acceptance(f) - 0.125 * 4) < 1e-12
        g = parse_poly("x1", 1)
        assert qaoa_acceptance(g) < 1e-12  # gap = 0

    def test_acceptance_ratio_n2_all_polynomials(self):
        # all 8 two-variable polynomials share acceptance/gap^2 = 1/64
        ratios = []
        for f in every_poly(2):
            acc = qaoa_acceptance(f)
            gap = gap_bruteforce(f)
            if gap != 0:
                ratios.append(acc / gap ** 2)
            else:
                assert acc < 1e-12
        assert max(ratios) - min(ratios) < 1e-10
        assert abs(ratios[0] - 1 / 64) < 1e-12

    @example((10, all_terms(10)))
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from(all_terms(n)), unique=True))))
    def test_exact_acceptance_is_gap_squared_over_8_to_the_n(self, drawn):
        # an exact route from the constraints alone, q = 2n <= 20; the
        # simulator's float stays within 1e-12 of it
        n, terms = drawn
        f = Poly3.from_terms(n, terms)
        exact = qaoa_acceptance_exact(f)
        assert exact == Fraction(gap_bruteforce(f) ** 2, 8 ** n)
        assert abs(qaoa_acceptance(f) - exact) < 1e-12

    def test_exact_acceptance_is_capped(self, monkeypatch):
        monkeypatch.setenv("GAPBENCH_DIST_CAP", "5")
        assert qaoa_acceptance_exact(Poly3(n=2)) == Fraction(4 ** 2, 8 ** 2)
        with pytest.raises(CapExceeded, match=r"^qaoa_acceptance_exact: q = 6 exceeds cap 5$"):
            qaoa_acceptance_exact(Poly3(n=3))

    def test_acceptance_example_f(self):
        f = example_f()
        want = (1 / 8 ** 3) * gap_bruteforce(f) ** 2
        assert abs(qaoa_acceptance(f) - want) < 1e-12

    def test_gadget_teleports_h(self):
        # two-qubit gadget: ancilla H, the (3 + 1)-copy phase pair, xrot
        # on the original, then projecting the original onto <0| leaves
        # H * (input) on the ancilla, same scale for both basis inputs.
        outs = []
        for b in (0, 1):
            state = zero_state(2)
            state[0] = 0.0
            state[b] = 1.0  # original = qubit 0, ancilla = qubit 1
            for gate in [
                Gate("h", (1,)),
                Gate("diag_phase", (1, 0), theta=-3 * GAMMA, pattern=(0, 1)),
                Gate("diag_phase", (1, 0), theta=-GAMMA, pattern=(1, 1)),
                Gate("xrot", (0,), beta=BETA),
            ]:
                from gapbench.statevector import apply_gate

                apply_gate(state, gate, 2)
            outs.append(np.array([state[0], state[2]]))  # original bit = 0
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        # each column proportional to the matching H column
        c0 = outs[0] / h[:, 0]
        c1 = outs[1] / h[:, 1]
        assert np.allclose(c0, c0[0]) and np.allclose(c1, c1[0])
        assert abs(abs(c0[0]) - abs(c1[0])) < 1e-10

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            Constraint((0, 1), (1,), 1)
        with pytest.raises(ValueError):
            Constraint((0,), (1,), 0)
        with pytest.raises(ValueError):
            Constraint((0, 1, 2, 3), (1, 1, 1, 1), 1)

    def test_circuit_layout(self):
        spec = build_qaoa(parse_poly("x1*x2", 2))
        circ = qaoa_to_circuit(spec)
        kinds = [g.kind for g in circ.gates]
        assert kinds[:4] == ["h"] * 4
        assert kinds[-4:] == ["xrot"] * 4
        assert set(kinds[4:-4]) == {"diag_phase"}


class TestThresholds:
    def test_threshold_ordering_exact(self):
        for n in list(range(1, 40)) + [100, 400]:
            t = SgapThresholds.for_n(n)
            assert t.lower < t.reject < t.accept < t.upper
            assert t.upper == Fraction(1, 2 ** (n + 1))
            assert t.lower == Fraction(1, 2 ** (n + 2))

    def test_classify_examples(self):
        assert sgap_classify(example_f()) == "YES"  # 4*4 = 2^4 boundary
        assert sgap_classify(Poly3(n=4)) == "YES"
        assert sgap_classify(parse_poly("x1", 1)) == "NO"
        assert classify_from_gap(6, 7) == "NONPROMISE"  # 144 strictly between
        assert classify_from_gap(0, 9) == "NO"
        assert classify_from_gap(-24, 9) == "YES"

    def test_classify_range_check(self):
        with pytest.raises(ValueError):
            classify_from_gap(10, 2)

    def test_classify_matches_rational_thresholds(self):
        for n in range(1, 12):
            t = SgapThresholds.for_n(n)
            for gap in range(-(1 << n), (1 << n) + 1, 2):
                norm2 = Fraction(gap * gap, 1 << (2 * n))
                want = (
                    "YES"
                    if norm2 >= t.upper
                    else "NO" if norm2 <= t.lower else "NONPROMISE"
                )
                assert classify_from_gap(gap, n) == want


def integer_rule(gap: int, n: int) -> str:
    """The squared-gap promise in integers: YES iff 4 gap^2 >= 2^(n+1),
    NO iff 4 gap^2 <= 2^n."""
    s = 4 * gap * gap
    return "YES" if s >= 1 << (n + 1) else "NO" if s <= 1 << n else "NONPROMISE"


@st.composite
def sizes_and_even_gaps(draw):
    n = draw(st.integers(1, 20))
    return n, 2 * draw(st.integers(-(1 << (n - 1)), 1 << (n - 1)))


class TestSingleHomeThresholdRule:
    """Every consumer of the promise agrees with the literal integer rule."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(sizes_and_even_gaps())
    def test_classifier_and_threshold_gaps_follow_the_rule(self, case):
        n, gap = case
        want = integer_rule(gap, n)
        assert classify_from_gap(gap, n) == want
        size = abs(gap)
        assert (size >= av.yes_threshold_gap(n)) == (want == "YES")
        if n >= 2:
            assert (size <= av.no_threshold_gap(n)) == (want == "NO")

    def test_threshold_gaps_are_the_extreme_even_members(self):
        for n in range(1, 21):
            yes = av.yes_threshold_gap(n)
            assert yes >= 0 and yes % 2 == 0 and integer_rule(yes, n) == "YES"
            assert yes == 0 or integer_rule(yes - 2, n) != "YES"
            if n >= 2:
                no = av.no_threshold_gap(n)
                assert no >= 0 and no % 2 == 0 and integer_rule(no, n) == "NO"
                assert integer_rule(no + 2, n) != "NO"

    def test_exhaustive_promise_counts_follow_the_rule(self):
        for n in range(1, 5):
            labels = [integer_rule(int(g), n) for g in gd._exhaustive_gaps(n)]
            rep = gd.promise_stats(n)
            total = len(labels)
            assert rep.yes_fraction == Fraction(labels.count("YES"), total)
            assert rep.no_fraction == Fraction(labels.count("NO"), total)
            assert rep.nonpromise_fraction == Fraction(labels.count("NONPROMISE"), total)


def exact_probability(f):
    """Output probability of the hiding circuit for f's stripped core at
    f's linear-part index."""
    return class_distribution(strip_linear(f))[linear_part(f)]


class TestQueryAlgorithm:
    def test_exact_probabilities_decide_all_promise_instances(self):
        for n in (1, 2, 3):
            for f in every_poly(n):
                label = sgap_classify(f)
                decision = algorithm_a(exact_probability(f), n)
                if label == "YES":
                    assert decision.accept and not decision.indeterminate
                elif label == "NO":
                    assert not decision.accept and not decision.indeterminate

    def test_indeterminate_band_flags(self):
        thr = SgapThresholds.for_n(2)
        mid = (thr.accept + thr.reject) / 2
        decision = algorithm_a(float(mid), 2)
        assert not decision.accept and decision.indeterminate

    def test_small_perturbations_do_not_flip(self):
        # margin between promise value and decision threshold is
        # 2^-n-1/6, so an epsilon below that cannot flip the answer
        n = 4
        eps = 1 / (6 * 2 ** (n + 1)) * 0.9
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = random_poly(n, rng)
            label = sgap_classify(f)
            if label == "NONPROMISE":
                continue
            for sign in (-1, 1):
                decision = algorithm_a(max(0.0, exact_probability(f) + sign * eps), n)
                assert decision.accept == (label == "YES")


class TestDistributionError:
    def test_example(self):
        err = distribution_error([0.25] * 4, [1.0, 0.0, 0.0, 0.0])
        assert abs(err.additive - 1.5) < 1e-12
        assert math.isinf(err.multiplicative)

    def test_zero_for_identical(self):
        d = np.array([0.5, 0.25, 0.25])
        err = distribution_error(d, d)
        assert err.additive == 0.0 and err.multiplicative == 0.0

    def test_multiplicative_on_shared_support(self):
        err = distribution_error([0.6, 0.4], [0.5, 0.5])
        assert abs(err.additive - 0.2) < 1e-12
        assert abs(err.multiplicative - 0.2) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_error([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError):
            distribution_error([0.5, 0.5], [1.0])
        with pytest.raises(ValueError):
            distribution_error([-0.1, 1.1], [0.5, 0.5])
