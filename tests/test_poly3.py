"""Tests for the polynomial type, parsing, and the exact gap."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapbench.poly3 as poly3_module

from gapbench.config import CapExceeded
from gapbench.poly3 import (
    ParseError,
    Poly3,
    all_terms,
    dumps,
    evaluate,
    evaluate_points,
    from_json_dict,
    gap_bruteforce,
    linear_part,
    loads,
    max_terms,
    parse_poly,
    random_poly,
    restrict_with_constant,
    strip_linear,
    to_json_dict,
    to_text,
    truth_table,
    with_linear,
    zeros_count,
)


def oracle_gap(f):
    # independent reference: plain python loop over all assignments
    total = 0
    for bits in itertools.product((0, 1), repeat=f.n):
        v = 0
        for term in f.terms:
            prod = 1
            for i in term:
                prod &= bits[i]
            v ^= prod
        total += 1 - 2 * v
    return total


def restriction_gap(f):
    # reference: split on the top variable by symbolic restriction until
    # the polynomial fits one packed table
    if f.n <= poly3_module._TABLE_LIMIT:
        return gap_bruteforce(f)
    total = 0
    for b in (0, 1):
        g, const = restrict_with_constant(f, f.n - 1, b)
        total += -restriction_gap(g) if const else restriction_gap(g)
    return total


def example_f():
    # x1 + x2 + x1*x2 + x1*x2*x3, the running three-variable example
    return parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)


class TestConstruction:
    def test_empty_poly_valid(self):
        f = Poly3(n=4)
        assert len(f.terms) == 0
        assert gap_bruteforce(f) == 16

    def test_from_terms_normalizes_repeated_variable(self):
        f = Poly3.from_terms(3, [(0, 0, 1)])
        assert f.terms == ((0, 1),)

    def test_from_terms_cancels_duplicates_mod2(self):
        f = Poly3.from_terms(2, [(0,), (0,)])
        assert len(f.terms) == 0
        g = Poly3.from_terms(2, [(0,), (0,), (0,)])
        assert g.terms == ((0,),)

    def test_degree_0_rejected(self):
        with pytest.raises(ValueError):
            Poly3.from_terms(2, [()])

    def test_degree_4_rejected(self):
        with pytest.raises(ValueError):
            Poly3.from_terms(5, [(0, 1, 2, 3)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            Poly3(n=2, terms=((2,),))
        with pytest.raises(ValueError):
            Poly3(n=3, terms=((2, 1),))  # unsorted pair

    def test_non_canonical_and_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="canonical order"):
            Poly3(n=3, terms=((0, 1), (2,)))  # a pair before a linear term
        with pytest.raises(ValueError, match="canonical order"):
            Poly3(n=3, terms=((1,), (0,)))
        with pytest.raises(ValueError, match="repeated"):
            Poly3(n=3, terms=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Poly3(n=3, terms=((0, 0),))  # repeated index inside a term
        with pytest.raises(ValueError):
            Poly3(n=5, terms=((0, 1, 2, 3),))
        with pytest.raises(ValueError):
            Poly3(n=-1)

    def test_max_terms_formula_matches_enumeration(self):
        for n in range(1, 11):
            assert len(all_terms(n)) == max_terms(n) == n * (n * n + 5) // 6


def degree_split_terms(n, raw_terms):
    # independent reference: the mod-2 degree split reassembled as
    # linear, then quadratic, then cubic, each sorted
    split = {1: set(), 2: set(), 3: set()}
    for raw in raw_terms:
        mono = tuple(sorted(set(raw)))
        split[len(mono)] ^= {mono}
    return tuple(sorted(split[1]) + sorted(split[2]) + sorted(split[3]))


@st.composite
def raw_terms(draw):
    n = draw(st.integers(1, 8))
    term = st.lists(st.integers(0, n - 1), min_size=1, max_size=3)
    return n, draw(st.lists(term, max_size=40))


@st.composite
def canonical_polys(draw):
    n = draw(st.integers(1, 8))
    terms = all_terms(n)
    keep = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    return Poly3.from_terms(n, [t for t, k in zip(terms, keep) if k])


class TestCanonicalTerms:
    @given(raw_terms())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_from_terms_matches_the_degree_split(self, case):
        n, raw = case
        assert Poly3.from_terms(n, raw).terms == degree_split_terms(n, raw)

    @given(canonical_polys())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_round_trips(self, f):
        assert Poly3(n=f.n, terms=f.terms) == f
        assert loads(dumps(f)) == f
        assert parse_poly(to_text(f), f.n) == f

    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_random_poly_equals_the_from_terms_build(self, n, seed):
        # random_poly keeps all_terms' order; from_terms sorts the same draw
        f = random_poly(n, np.random.default_rng(seed))
        take = np.random.default_rng(seed).integers(0, 2, size=max_terms(n), dtype=np.uint8)
        kept = [t for t, keep in zip(all_terms(n), take) if keep]
        assert f == Poly3.from_terms(n, kept)
        assert f.terms == Poly3.from_terms(n, kept[::-1]).terms


class TestZeroVariables:
    def test_zero_polynomial_on_no_variables(self):
        f = Poly3(n=0)
        assert f.terms == ()
        assert truth_table(f).tolist() == [0]
        assert evaluate(f, 0) == 0 and evaluate(f, ()) == 0

    def test_json_round_trip(self):
        text = dumps(Poly3(n=0))
        assert json.loads(text) == {"n": 0, "linear": [], "quadratic": [], "cubic": []}
        assert loads(text) == Poly3(n=0)

    def test_restricting_the_last_variable(self):
        assert restrict_with_constant(parse_poly("x1", 1), 0, 0) == (Poly3(n=0), 0)
        assert restrict_with_constant(parse_poly("x1", 1), 0, 1) == (Poly3(n=0), 1)
        assert restrict_with_constant(Poly3(n=1), 0, 1) == (Poly3(n=0), 0)


class TestEvaluate:
    def test_example_point(self):
        # f(1,1,0) = 1 + 1 + 1 + 0 = 1
        assert evaluate(example_f(), (1, 1, 0)) == 1

    def test_mask_and_sequence_agree(self):
        rng = np.random.default_rng(7)
        f = random_poly(5, rng)
        for x in range(32):
            bits = [(x >> i) & 1 for i in range(5)]
            assert evaluate(f, x) == evaluate(f, bits)

    def test_bad_inputs(self):
        f = example_f()
        with pytest.raises(ValueError):
            evaluate(f, (1, 0))  # wrong length
        with pytest.raises(ValueError):
            evaluate(f, 8)  # mask out of range
        with pytest.raises(ValueError):
            evaluate(f, (1, 0, 2))

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_points_agree_with_evaluate(self, n, seed):
        rng = np.random.default_rng(seed)
        f = random_poly(n, rng)
        xs = rng.integers(0, 1 << n, size=int(rng.integers(0, 40)))
        assert evaluate_points(f, xs).tolist() == [evaluate(f, int(x)) for x in xs]

    def test_points_out_of_range(self):
        with pytest.raises(ValueError, match="out of range for 3 variables"):
            evaluate_points(example_f(), [0, 8])
        with pytest.raises(ValueError):
            evaluate_points(example_f(), [-1])


class TestGap:
    def test_example_gap(self):
        f = example_f()
        assert gap_bruteforce(f) == -2
        assert zeros_count(f) == 3

    def test_empty_gap_is_full_weight(self):
        for n in (0, 1, 3, 6):
            assert gap_bruteforce(Poly3(n=n)) == 2 ** n

    def test_all_two_variable_polynomials(self):
        # frozen from the independent oracle: the 8 polynomials on 2
        # variables in canonical term order (x1, x2, x1x2) have gaps
        expected = {
            (): 4,
            ((0,),): 0,
            ((1,),): 0,
            ((0,), (1,)): 0,
            ((0, 1),): 2,
            ((0,), (0, 1)): 2,
            ((1,), (0, 1)): 2,
            ((0,), (1,), (0, 1)): -2,
        }
        for terms, want in expected.items():
            f = Poly3.from_terms(2, terms)
            assert gap_bruteforce(f) == want
            assert oracle_gap(f) == want

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            for _ in range(20):
                f = random_poly(n, rng)
                assert gap_bruteforce(f) == oracle_gap(f)

    def test_gap_parity_and_range(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 5, 8, 11):
            for _ in range(10):
                g = gap_bruteforce(random_poly(n, rng))
                assert g % 2 == 0
                assert -(2 ** n) <= g <= 2 ** n

    @given(st.integers(1, 10), st.sampled_from((1, 2, 3, 6, 24)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_folded_blocks_match_evaluate(self, n, limit, seed):
        # a small table limit folds the variables above it into blocks
        f = random_poly(n, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly3_module, "_TABLE_LIMIT", limit)
            got = gap_bruteforce(f)
        assert got == sum(1 - 2 * evaluate(f, x) for x in range(1 << n))

    def test_fold_matches_the_restriction_recursion_in_bounded_memory(self):
        for n in (25, 26):
            f = random_poly(n, np.random.default_rng(n))
            tracemalloc.start()
            try:
                got = gap_bruteforce(f)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert got == restriction_gap(f)
            # a 2^24-bit table and its transform temporary take 4 MiB; one
            # whole 2^26-bit table would take 16
            assert peak < 8 << 20

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setenv("GAPBENCH_BRUTE_CAP", "12")
        with pytest.raises(CapExceeded):
            gap_bruteforce(Poly3(n=20))

    def test_truth_table_agrees_with_evaluate(self):
        rng = np.random.default_rng(19)
        f = random_poly(6, rng)
        tt = truth_table(f)
        for x in range(64):
            assert tt[x] == evaluate(f, x)


class TestLinearPart:
    def test_example_mask(self):
        # linear part {x1, x2} -> bits 0 and 1 -> mask 0b011
        assert linear_part(example_f()) == 0b011

    def test_strip_and_with_linear_roundtrip(self):
        f = example_f()
        bare = strip_linear(f)
        assert bare.terms == ((0, 1), (0, 1, 2))
        assert with_linear(bare, linear_part(f)) == f

    def test_shift_identity(self):
        # gap(f) = sum_x (-1)^(fbar(x) + delta.x) with delta the linear mask
        rng = np.random.default_rng(23)
        for _ in range(10):
            f = random_poly(6, rng)
            fbar = strip_linear(f)
            delta = linear_part(f)
            total = 0
            for x in range(64):
                dot = bin(delta & x).count("1") & 1
                total += (-1) ** (evaluate(fbar, x) ^ dot)
            assert total == gap_bruteforce(f)


class TestRestrict:
    def test_example_restrictions(self):
        f = parse_poly("x1*x2*x3", 3)
        assert restrict_with_constant(f, 2, 0) == (Poly3(n=2), 0)
        assert restrict_with_constant(f, 2, 1) == (Poly3.from_terms(2, [(0, 1)]), 0)

    def test_example_f_restriction_cancels(self):
        # x3 = 1 turns x1*x2*x3 into x1*x2, cancelling the existing x1*x2
        got = restrict_with_constant(example_f(), 2, 1)
        assert got == (parse_poly("x1 + x2", 2), 0)

    def test_constant_surfaces_separately(self):
        f = parse_poly("x1 + x1*x2", 2)
        poly, const = restrict_with_constant(f, 0, 1)
        assert const == 1
        assert poly == Poly3.from_terms(1, [(0,)])

    def test_restriction_identity_random(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            f = random_poly(n, rng)
            j = int(rng.integers(0, n))
            b = int(rng.integers(0, 2))
            poly, const = restrict_with_constant(f, j, b)
            assert poly.n == n - 1
            for y in range(1 << (n - 1)):
                low = y & ((1 << j) - 1)
                high = (y >> j) << (j + 1)
                x = high | (b << j) | low
                assert (evaluate(poly, y) ^ const) == evaluate(f, x)

    def test_restrict_validation(self):
        g = parse_poly("x1 + x2", 2)
        with pytest.raises(ValueError):
            restrict_with_constant(g, 2, 0)
        with pytest.raises(ValueError):
            restrict_with_constant(g, 0, 2)


class TestRandomPoly:
    def test_deterministic_given_seed(self):
        a = random_poly(6, np.random.default_rng(101))
        b = random_poly(6, np.random.default_rng(101))
        assert a == b

    def test_distinct_seeds_vary(self):
        polys = {dumps(random_poly(6, np.random.default_rng(s))) for s in range(8)}
        assert len(polys) > 1

    def test_term_inclusion_rate_is_about_half(self):
        rng = np.random.default_rng(103)
        total = sum(len(random_poly(8, rng).terms) for _ in range(200))
        mean = total / 200 / max_terms(8)
        assert 0.45 < mean < 0.55


class TestTextFormat:
    def test_example_roundtrip(self):
        f = example_f()
        assert to_text(f) == "x1 + x2 + x1*x2 + x1*x2*x3"
        assert parse_poly(to_text(f), 3) == f

    def test_zero_polynomial(self):
        assert parse_poly("0", 5) == Poly3(n=5)
        assert to_text(Poly3(n=5)) == "0"

    def test_normalization_during_parse(self):
        assert parse_poly("x1*x1*x2", 2) == parse_poly("x1*x2", 2)
        assert parse_poly("x1 + x1", 2) == Poly3(n=2)
        assert parse_poly("x2*x1", 2) == parse_poly("x1*x2", 2)

    def test_whitespace_tolerated(self):
        assert parse_poly("  x1+x2 *x3 ", 3) == parse_poly("x1 + x2*x3", 3)

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("x1 + y2", 3)
        assert info.value.position == 5
        with pytest.raises(ParseError):
            parse_poly("x1 *", 3)
        with pytest.raises(ParseError):
            parse_poly("x1 + + x2", 3)
        with pytest.raises(ParseError):
            parse_poly("x1 x2", 3)
        with pytest.raises(ParseError):
            parse_poly("x4", 3)  # exceeds declared n
        with pytest.raises(ParseError):
            parse_poly("x0", 3)  # variables start at x1
        with pytest.raises(ParseError):
            parse_poly("", 3)
        with pytest.raises(ParseError):
            parse_poly("x1 + 0", 3)
        with pytest.raises(ParseError):
            parse_poly("x1*x2*x3*x4", 4)  # degree 4

    def test_parse_rejects_bad_n(self):
        with pytest.raises(ValueError):
            parse_poly("x1", 0)


class TestJsonFormat:
    def test_roundtrip(self):
        f = example_f()
        d = to_json_dict(f)
        assert d == {
            "n": 3,
            "linear": [0, 1],
            "quadratic": [[0, 1]],
            "cubic": [[0, 1, 2]],
        }
        assert from_json_dict(d) == f
        assert loads(dumps(f)) == f

    def test_json_is_sorted_and_deterministic(self):
        rng = np.random.default_rng(107)
        f = random_poly(7, rng)
        assert dumps(f) == dumps(loads(dumps(f)))
        d = to_json_dict(f)
        assert d["linear"] == sorted(d["linear"])
        assert d["quadratic"] == sorted(d["quadratic"])

    def test_json_validation(self):
        with pytest.raises(ValueError):
            from_json_dict({"linear": [0]})
        with pytest.raises(ValueError):
            from_json_dict({"n": 2, "cubic": [[0, 1, 2]]})
        with pytest.raises(ValueError):
            from_json_dict({"n": 2, "linear": [5]})

    @pytest.mark.parametrize("doc", [
        {"n": "3", "linear": [0]}, {"n": True, "linear": [0]}, {"n": 2.0},
        {"n": 2, "linear": [[0]]}, {"n": 2, "linear": ["0"]}, {"n": 2, "linear": [False]},
        {"n": 2, "linear": 0}, {"n": 3, "quadratic": [0, 1]}, {"n": 3, "cubic": [[0, 1, 2.0]]},
    ])
    def test_json_field_types_validated(self, doc):
        with pytest.raises(ValueError):
            from_json_dict(doc)

    def test_json_loads_plain_string(self):
        f = loads(json.dumps({"n": 2, "linear": [1], "quadratic": [], "cubic": []}))
        assert f == parse_poly("x2", 2)
