"""Tests for the hardness-constant size estimator."""

import math
import time
from decimal import Decimal, getcontext

import pytest

import gapbench.estimator as est
from gapbench.circuits import build_iqp, build_qaoa
from gapbench.estimator import (
    DEFAULT_CONSTANTS,
    Estimate,
    EstimateParams,
    WeakeningReport,
    conjecture_weakening,
    display_rounded,
    gate_count,
    log2_bound,
    qubits_for_gate_linear,
    qubits_for_horizon,
)
from gapbench.poly3 import Poly3, all_terms


# ---------------------------------------------------------------- params


def test_params_defaults():
    p = EstimateParams(model="IQP-mult")
    assert p.model == "iqp-mult"
    assert p.constant == 0.5
    assert p.flops == 1e18
    # 100 years of 365 days
    assert p.horizon_seconds == 3_153_600_000
    assert p.budget == 500
    assert not p.per_element


def test_params_model_defaults_table():
    assert DEFAULT_CONSTANTS["boson-mult"] == 0.999
    for m in est.MODELS:
        assert EstimateParams(model=m).constant == DEFAULT_CONSTANTS[m]


def test_params_validation():
    with pytest.raises(ValueError):
        EstimateParams(model="clifford")
    with pytest.raises(ValueError):
        EstimateParams(model="iqp-mult", constant=0.0)
    with pytest.raises(ValueError):
        EstimateParams(model="iqp-mult", constant=1.5)
    with pytest.raises(ValueError):
        EstimateParams(model="iqp-mult", flops=0)
    with pytest.raises(ValueError):
        EstimateParams(model="iqp-mult", horizon_seconds=-1)
    with pytest.raises(ValueError):
        EstimateParams(model="iqp-mult", budget=0)
    # constant = 1 is allowed
    assert EstimateParams(model="iqp-mult", constant=1.0).constant == 1.0


@pytest.mark.parametrize("field", ["flops", "horizon_seconds", "budget"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_refuse_non_finite_budgets(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        EstimateParams(model="iqp-mult", **{field: value})


# ------------------------------------------------------------ gate counts


def test_gate_count_frozen_values():
    # closed forms evaluated by hand
    assert gate_count("iqp-mult", 185) == 1_055_425
    assert gate_count("qaoa-mult", 370) == 2_111_775
    assert gate_count("boson-mult", 93) == 17_391


def test_gate_count_small_cases():
    # (q^3 + 5q)/6: 1, 3, 7, 14
    assert [gate_count("iqp-add", q) for q in (1, 2, 3, 4)] == [1, 3, 7, 14]
    # n = q/2, (n^3 + 20n)/3: n=1 -> 7, n=2 -> 16, n=3 -> 29
    assert [gate_count("qaoa-add", q) for q in (2, 4, 6)] == [7, 16, 29]
    # 2q^2 + q
    assert [gate_count("boson-mult", q) for q in (1, 2, 3)] == [3, 10, 21]


def test_gate_count_is_what_the_builders_emit():
    # the dense cubic on n variables: one phase gate per monomial between
    # the H columns, and build_qaoa's constraints on q = 2n qubits
    for n in range(1, 13):
        dense = Poly3.from_terms(n, all_terms(n))
        phases = [g for g in build_iqp(dense).gates if g.kind != "h"]
        assert gate_count("iqp-mult", n) == len(phases)
        assert gate_count("qaoa-mult", 2 * n) == build_qaoa(dense).constraint_count


def test_gate_count_integrality():
    # q^3 + 5q is divisible by 6 and n^3 + 20n by 3 for every q
    for q in range(1, 200):
        assert (q**3 + 5 * q) % 6 == 0
        assert (q**3 + 20 * q) % 3 == 0


def test_gate_count_validation():
    with pytest.raises(ValueError):
        gate_count("iqp-mult", 0)
    with pytest.raises(ValueError):
        gate_count("qaoa-mult", 3)  # odd
    with pytest.raises(ValueError):
        gate_count("qaoa-mult", 0)
    with pytest.raises(ValueError):
        gate_count("boson-mult", -5)


# ------------------------------------------------------------ log2 bounds


def test_log2_bound_examples():
    assert log2_bound("iqp-mult", 0.5, 185) == pytest.approx(91.5)
    assert log2_bound("qaoa-mult", 0.5, 370) == pytest.approx(91.5)
    assert log2_bound("boson-mult", 0.999, 93) == pytest.approx(91.907)


def test_log2_bound_validation():
    with pytest.raises(ValueError):
        log2_bound("qaoa-add", 0.5, 185)  # odd
    with pytest.raises(ValueError):
        log2_bound("iqp-add", 0.5, 0)
    with pytest.raises(ValueError):
        log2_bound("capybara", 0.5, 10)


def test_dimensional_sanity():
    # log2(1e18 * 3153600000) against an independent high-precision log
    n = 10**18 * 3_153_600_000
    fast = math.log2(1e18 * 3_153_600_000)
    getcontext().prec = 50
    slow = Decimal(n).ln() / Decimal(2).ln()
    assert abs(fast - float(slow)) < 1e-9
    assert abs(fast - 91.35) < 0.01


# -------------------------------------------------------- horizon estimates


def test_horizon_headline_estimates():
    # a century at 1e18 flops with the default constants
    assert qubits_for_horizon(EstimateParams(model="iqp-mult")).q == 185
    assert qubits_for_horizon(EstimateParams(model="qaoa-mult")).q == 370
    assert qubits_for_horizon(EstimateParams(model="boson-mult")).q == 93
    # additive variants share the constant 1/2 here
    assert qubits_for_horizon(EstimateParams(model="iqp-add")).q == 185
    assert qubits_for_horizon(EstimateParams(model="qaoa-add")).q == 370


def test_horizon_estimate_fields():
    e = qubits_for_horizon(EstimateParams(model="iqp-mult"))
    assert isinstance(e, Estimate)
    assert e.mode == "horizon"
    assert e.gates == 1_055_425
    assert e.log2_bound == pytest.approx(91.5)
    assert e.log2_target == pytest.approx(91.349, abs=5e-4)


def test_horizon_minimality():
    # the bound fails at the next smaller admissible size
    for m in est.MODELS:
        e = qubits_for_horizon(EstimateParams(model=m))
        step = 2 if m.startswith("qaoa") else 1
        assert e.log2_bound >= e.log2_target
        assert log2_bound(m, e.constant, e.q - step) < e.log2_target


def test_horizon_monotonic_in_constant():
    qs = [qubits_for_horizon(EstimateParams(model="iqp-mult", constant=c)).q
          for c in (0.1, 0.25, 0.5, 0.75, 1.0)]
    assert qs == sorted(qs, reverse=True)


def test_horizon_monotonic_in_budget():
    base = qubits_for_horizon(EstimateParams(model="iqp-mult")).q
    more_flops = qubits_for_horizon(
        EstimateParams(model="iqp-mult", flops=1e21)).q
    longer = qubits_for_horizon(
        EstimateParams(model="iqp-mult",
                       horizon_seconds=1000 * est.SECONDS_PER_YEAR)).q
    assert more_flops >= base
    assert longer >= base


def test_horizon_scaling_check():
    # c*q - 1 >= log2(F*H)  =>  q = ceil((log2(F*H) + 1)/c)
    for m, c in (("iqp-mult", 0.5), ("boson-mult", 0.999)):
        target = math.log2(1e18 * 3_153_600_000)
        expect = math.ceil((target + 1) / c)
        assert qubits_for_horizon(EstimateParams(model=m)).q == expect


# ----------------------------------------------------- per-element estimates


def test_per_element_headline_estimates():
    # one century per 500 circuit elements (= a year per 5)
    assert qubits_for_gate_linear(EstimateParams(model="iqp-mult")).q == 208
    assert qubits_for_gate_linear(EstimateParams(model="qaoa-mult")).q == 420
    assert qubits_for_gate_linear(EstimateParams(model="boson-mult")).q == 98


def test_per_element_fields_and_minimality():
    e = qubits_for_gate_linear(EstimateParams(model="iqp-mult"))
    assert e.mode == "per-element"
    assert e.log2_target == pytest.approx(math.log2(6.3072e24), abs=1e-9)
    assert e.log2_bound >= e.log2_target
    prev = (log2_bound("iqp-mult", 0.5, 207)
            - math.log2(gate_count("iqp-mult", 207)))
    assert prev < e.log2_target


def test_per_element_exceeds_horizon_size():
    # charging per element only raises the requirement
    for m in est.MODELS:
        p = EstimateParams(model=m)
        assert qubits_for_gate_linear(p).q >= qubits_for_horizon(p).q


def test_per_element_budget_direction():
    lenient = qubits_for_gate_linear(
        EstimateParams(model="iqp-mult", budget=5000)).q
    strict = qubits_for_gate_linear(
        EstimateParams(model="iqp-mult", budget=50)).q
    base = qubits_for_gate_linear(EstimateParams(model="iqp-mult")).q
    assert lenient <= base <= strict


def _linear_scan(model, constant, target, mode, per_gate):
    """Reference: the first admissible size passing the target, one step at a time."""
    step = 2 if model.startswith("qaoa") else 1
    q = step
    while True:
        value = log2_bound(model, constant, q)
        if per_gate:
            value -= math.log2(gate_count(model, q))
        if value >= target:
            return Estimate(model=model, constant=constant, mode=mode, q=q,
                            gates=gate_count(model, q), log2_bound=value,
                            log2_target=target)
        q += step


@pytest.mark.parametrize("per_element", [False, True])
def test_minimal_q_matches_the_linear_scan(per_element):
    mode = "per-element" if per_element else "horizon"
    # flops of 1e-30 and 1e-10 put the target below zero
    for flops in (1e-30, 1e-10, 1.0, 1e12, 1e18):
        for model in est.MODELS:
            for constant in (0.01, 0.0731, 0.25, 0.5, 0.6667, 0.999, 1.0):
                p = EstimateParams(model=model, constant=constant, flops=flops,
                                   per_element=per_element)
                got = (qubits_for_gate_linear if per_element else qubits_for_horizon)(p)
                want = _linear_scan(model, constant, got.log2_target, mode, per_element)
                assert got == want


def test_minimal_q_for_a_tiny_constant_is_fast_and_minimal():
    t0 = time.perf_counter()
    found = [run(EstimateParams(model=m, constant=1e-6)) for m in est.MODELS
             for run in (qubits_for_horizon, qubits_for_gate_linear)]
    assert time.perf_counter() - t0 < 1.0
    for e in found:
        def value(q):
            v = log2_bound(e.model, e.constant, q)
            return v - math.log2(gate_count(e.model, q)) if e.mode == "per-element" else v

        step = 2 if e.model.startswith("qaoa") else 1
        assert value(e.q) == e.log2_bound >= e.log2_target > value(e.q - step)


# ---------------------------------------------------------------- weakening


def test_weakening_divide_constant():
    # halving the constant roughly doubles the size: 185 -> 370
    rep = conjecture_weakening(EstimateParams(model="iqp-mult"), 2, "divide-constant")
    assert isinstance(rep, WeakeningReport)
    assert rep.base.q == 185
    assert rep.weakened.q == 370
    assert rep.weakened.constant == pytest.approx(0.25)
    assert rep.delta_q == 185


def test_weakening_divide_prefactor():
    # dividing the bound by 2^10 costs log2(d)/c = 20 qubits
    rep = conjecture_weakening(EstimateParams(model="iqp-mult"), 1024, "divide-prefactor")
    assert rep.base.q == 185
    assert rep.weakened.q == 205
    assert rep.delta_q == 20


def test_weakening_prefactor_qaoa_step():
    # two-copy encoding: the same 2^10 weakening costs 2*log2(d)/c = 40
    rep = conjecture_weakening(EstimateParams(model="qaoa-mult"), 1024, "divide-prefactor")
    assert rep.base.q == 370
    assert rep.delta_q == 40


def test_weakening_identity():
    rep = conjecture_weakening(EstimateParams(model="boson-mult"), 1, "divide-prefactor")
    assert rep.base == rep.weakened
    rep = conjecture_weakening(EstimateParams(model="boson-mult"), 1, "divide-constant")
    assert rep.base == rep.weakened


def test_weakening_validation():
    with pytest.raises(ValueError):
        conjecture_weakening(EstimateParams(model="iqp-mult"), 0.5, "divide-constant")
    with pytest.raises(ValueError):
        conjecture_weakening(EstimateParams(model="iqp-mult"), 2, "divide-everything")
    with pytest.raises(ValueError, match="d must be at least 1"):
        conjecture_weakening(EstimateParams(model="iqp-mult"), math.nan, "divide-constant")
    for mode in ("divide-constant", "divide-prefactor"):
        with pytest.raises(ValueError, match="d must be finite"):
            conjecture_weakening(EstimateParams(model="iqp-mult"), math.inf, mode)


def test_weakening_respects_per_element_mode():
    rep = conjecture_weakening(
        EstimateParams(model="iqp-mult", per_element=True), 2, "divide-constant")
    assert rep.base.mode == "per-element"
    assert rep.base.q == 208
    assert rep.weakened.q > 208


# ------------------------------------------------------------------ display


def test_display_rounded_frozen():
    assert display_rounded(1_055_425) == "1,060,000"
    assert display_rounded(2_111_775) == "2,110,000"
    assert display_rounded(17_391) == "17,400"


def test_display_rounded_small_and_edges():
    assert display_rounded(0) == "0"
    assert display_rounded(7) == "7"
    assert display_rounded(999) == "999"
    assert display_rounded(1000) == "1,000"
    assert display_rounded(123_456) == "123,000"
    with pytest.raises(ValueError):
        display_rounded(-1)
