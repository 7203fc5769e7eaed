"""End-to-end tests for the command-line front end."""

import contextlib
import io
import json
import math
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapbench.avgcase as avgcase
import gapbench.circuits as circuits
import gapbench.config as config
import gapbench.fastcount as fastcount
import gapbench.gapdist as gapdist
import gapbench.poly3 as poly3
import gapbench.permanents as pm
import gapbench.statevector as statevector
from gapbench import reproduce
from gapbench.cli import (
    _ESTIMATE_TABLE_HEADER,
    _HANDLERS,
    _record_line,
    build_parser,
    dispatch,
    main,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out_text):
    return [json.loads(line) for line in out_text.splitlines() if line]


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_records(out_text):
    # json.loads accepts NaN and Infinity unless told to refuse them
    return [json.loads(line, parse_constant=refuse_constant)
            for line in out_text.splitlines() if line]


def refuse_draws(monkeypatch):
    # a count past the cap must be refused before any random number is
    # drawn, so before any array of that length is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("drew random numbers for a count the cap refuses")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)


def cap_error(label, count):
    return {"type": "CapExceeded",
            "message": f"{label} = {count} exceeds cap 2^{config.cap('DIST_CAP')}"}


@pytest.fixture
def paper_poly(tmp_path):
    f = poly3.parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)
    path = tmp_path / "f.json"
    path.write_text(poly3.dumps(f))
    return str(path)


@pytest.fixture
def cubic_poly(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(poly3.dumps(poly3.parse_poly("x1*x2*x3", 3)))
    return str(path)


# ---------------------------------------------------------------- registry


def test_registry_matches_parser_subcommands():
    # a subcommand without a handler would surface as a KeyError domain error
    parser = build_parser()
    actions = [a for a in parser._subparsers._group_actions][0]
    assert set(actions.choices) == set(_HANDLERS)


# ------------------------------------------------------------------- gap


def test_gap_json_input(capsys, paper_poly):
    code, out, _ = run(capsys, "gap", "--poly", paper_poly, "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["schema"] == 1
    assert rec["gap"] == -2 and rec["zeros"] == 3 and rec["ones"] == 5
    assert rec["term_budget"] == 7


@pytest.mark.parametrize("doc, message", [
    ({"n": "3", "linear": [0]}, 'polynomial JSON \'n\' must be an integer, got "3"'),
    ({"n": 2, "linear": [[0]]}, "polynomial JSON 'linear' entry must be an integer, got [0]"),
], ids=["n-string", "linear-list"])
def test_gap_json_with_malformed_types_is_a_domain_error(capsys, tmp_path, doc, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "gap", "--poly", str(path), "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {"type": "ValueError", "message": message}


def test_gap_text_grammar_input(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x1 + x2 + x1*x2 + x1*x2*x3")
    code, out, _ = run(capsys, "gap", "--poly", str(path))
    assert code == 0
    assert "gap = -2" in out


def test_gap_assign_and_restrict(capsys, paper_poly):
    code, out, _ = run(capsys, "gap", "--poly", paper_poly,
                       "--assign", "0b011", "--format", "structured")
    rec = records(out)[0]
    # x1 = x2 = 1, x3 = 0: 1 + 1 + 1 + 0 = 1
    assert rec["value_at"] == {"assignment": 3, "value": 1}
    # pinning x3 = 1 leaves x1 + x2 + x1*x2 + x1*x2 = x1 + x2, gap 0
    code, out, _ = run(capsys, "gap", "--poly", paper_poly,
                       "--restrict", "3=1", "--format", "structured")
    assert records(out)[0]["gap"] == 0


def test_gap_emit_json_round_trip(capsys, paper_poly, tmp_path):
    emitted = tmp_path / "echo.json"
    code, out, _ = run(capsys, "gap", "--poly", paper_poly,
                       "--emit-json", str(emitted), "--format", "structured")
    assert code == 0
    assert poly3.loads(emitted.read_text()) == poly3.loads(
        open(paper_poly).read())


def count_brute_force_calls(monkeypatch):
    calls = []
    real = poly3.gap_bruteforce

    def counted(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    # circuits holds its own binding, through which sgap_classify counts
    monkeypatch.setattr(poly3, "gap_bruteforce", counted)
    monkeypatch.setattr(circuits, "gap_bruteforce", counted)
    return calls


def write_poly(tmp_path, f, name="p.json"):
    path = tmp_path / name
    path.write_text(poly3.dumps(f))
    return str(path)


def test_gap_restrict_to_one_carries_the_constant(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x1 + x2 + x1*x2")
    # x1 = 1 leaves 1 + x2 + x2 = 1: the constant function, gap -2
    code, out, _ = run(capsys, "gap", "--poly", str(path), "--restrict", "1=1",
                       "--assign", "0", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert (rec["gap"], rec["zeros"], rec["ones"], rec["n"]) == (-2, 0, 2, 1)
    assert rec["text"] == "0 + 1"
    assert rec["value_at"] == {"assignment": 0, "value": 1}
    emitted = tmp_path / "out.json"
    code, out, _ = run(capsys, "gap", "--poly", str(path), "--restrict", "1=1",
                       "--emit-json", str(emitted), "--format", "structured")
    assert code == 1
    error = records(out)[0]["error"]
    assert error["type"] == "ValueError" and "no constant term" in error["message"]
    assert not emitted.exists()


@pytest.mark.parametrize("text, pins, value", [
    ("x1", ["1=0"], 0),
    ("x1", ["1=1"], 1),
    # x2 = 1 leaves the constant 1, whatever x1 is then pinned to
    ("x1 + x2 + x1*x2", ["2=1", "1=0"], 1),
    ("x1 + x2 + x1*x2", ["1=0", "1=0"], 0),
])
def test_gap_restrict_every_variable_leaves_a_constant(capsys, tmp_path, text, pins, value):
    path = tmp_path / "f.txt"
    path.write_text(text)
    argv = ["gap", "--poly", str(path), "--assign", "0", "--format", "structured"]
    for pin in pins:
        argv += ["--restrict", pin]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rec = records(out)[0]
    # the constant c on no variables has gap (-1)^c
    assert (rec["gap"], rec["zeros"], rec["ones"], rec["n"]) == ((-1) ** value, 1 - value, value, 0)
    assert (rec["terms"], rec["term_budget"]) == (0, 0)
    assert rec["text"] == ("0 + 1" if value else "0")
    assert rec["value_at"] == {"assignment": 0, "value": value}
    code, out, _ = run(capsys, *argv, "--restrict", "1=0")
    assert code == 1
    assert records(out)[0]["error"]["message"] == "variable index 0 out of range [0, 0)"


def test_gap_emits_the_polynomial_on_no_variables(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("x1 + x2 + x1*x2")
    emitted = tmp_path / "out.json"
    code, out, _ = run(capsys, "gap", "--poly", str(path), "--restrict", "1=0",
                       "--restrict", "1=0", "--emit-json", str(emitted),
                       "--format", "structured")
    assert code == 0
    assert records(out)[0]["gap"] == 1
    assert emitted.read_text() == '{"cubic": [], "linear": [], "n": 0, "quadratic": []}'
    code, out, _ = run(capsys, "gap", "--poly", str(emitted), "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert (rec["gap"], rec["n"], rec["text"]) == (1, 0, "0")


def test_gap_runs_brute_force_once(capsys, monkeypatch, paper_poly):
    calls = count_brute_force_calls(monkeypatch)
    code, out, _ = run(capsys, "gap", "--poly", paper_poly, "--format", "structured")
    assert code == 0
    assert len(calls) == 1
    rec = records(out)[0]
    assert (rec["gap"], rec["zeros"], rec["ones"]) == (-2, 3, 5)


# ------------------------------------------------------------------ count


def test_count_methods_agree(capsys, tmp_path):
    rng = np.random.default_rng(17)
    f = poly3.random_poly(8, rng)
    path = tmp_path / "r.json"
    path.write_text(poly3.dumps(f))
    _, out_b, _ = run(capsys, "count", "--poly", str(path),
                      "--method", "brute", "--format", "structured")
    _, out_l, _ = run(capsys, "count", "--poly", str(path), "--method", "lptwy",
                      "--free-vars", "2", "--format", "structured")
    rb, rl = records(out_b)[0], records(out_l)[0]
    assert rb["count"] == rl["count"] and rb["gap"] == rl["gap"]


def test_count_brute_uses_the_packed_gap(capsys, monkeypatch, tmp_path):
    path = write_poly(tmp_path, poly3.random_poly(10, np.random.default_rng(23)))
    _, out_l, _ = run(capsys, "count", "--poly", path, "--method", "lptwy",
                      "--free-vars", "3", "--format", "structured")

    def unpacked(f):
        raise AssertionError("count --method brute built a byte-per-point table")

    monkeypatch.setattr(poly3, "truth_table", unpacked)
    code, out_b, _ = run(capsys, "count", "--poly", path, "--method", "brute",
                         "--format", "structured")
    assert code == 0
    rb, rl = records(out_b)[0], records(out_l)[0]
    assert (rb["count"], rb["zeros"], rb["gap"]) == (rl["count"], rl["zeros"], rl["gap"])


def test_count_lptwy_refuses_before_any_block(capsys, monkeypatch, tmp_path):
    def built(*args):
        raise AssertionError("a block value table was built")

    monkeypatch.setattr(fastcount, "_int_value_table", built)
    path = write_poly(tmp_path, poly3.Poly3.from_terms(50, [(0,)]))
    code, out, _ = run(capsys, "count", "--poly", path, "--method", "lptwy",
                       "--free-vars", "44", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {"type": "CapExceeded",
                                        "message": "r_poly: n = 50 exceeds cap 28"}


def test_count_lptwy_needs_free_vars(capsys, paper_poly):
    code, _, err = run(capsys, "count", "--poly", paper_poly, "--method", "lptwy")
    assert code == 2
    assert "--free-vars" in err


def test_count_bound_check(capsys, paper_poly):
    code, out, _ = run(capsys, "count", "--poly", paper_poly, "--method", "brute",
                       "--check-bound", "--bound-delta", "0.1",
                       "--format", "structured")
    assert code == 0
    bound = records(out)[0]["monomial_bound"]
    assert set(bound) == {"m_value", "m_log2", "threshold_log2", "holds"}


# ------------------------------------------------- simulate and iqp circuits


def test_iqp_emit_then_simulate(capsys, paper_poly, tmp_path):
    circ = tmp_path / "circ.json"
    code, out, _ = run(capsys, "iqp", "--poly", paper_poly, "--amplitude",
                       "--emit-circuit", str(circ), "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert abs(rec["scaled"] - (-2.0)) < 1e-9
    code, out, _ = run(capsys, "simulate", "--circuit", str(circ),
                       "--amplitude", "0", "--format", "structured")
    assert code == 0
    amp = records(out)[0]["amplitude"]
    assert abs(amp[0] - (-2 / 8)) < 1e-9 and abs(amp[1]) < 1e-9


def test_iqp_shifted_matches_plain_scaling(capsys, paper_poly):
    _, out_plain, _ = run(capsys, "iqp", "--poly", paper_poly, "--amplitude",
                          "--format", "structured")
    _, out_shift, _ = run(capsys, "iqp", "--poly", paper_poly, "--amplitude",
                          "--shifted", "--format", "structured")
    a = records(out_plain)[0]["scaled"]
    b = records(out_shift)[0]["scaled"]
    assert abs(a - b) < 1e-9


def test_iqp_distribution_sums_to_one(capsys, cubic_poly):
    _, out, _ = run(capsys, "iqp", "--poly", cubic_poly, "--distribution",
                    "--format", "structured")
    probs = records(out)[0]["distribution"]
    assert len(probs) == 8
    assert abs(sum(probs) - 1.0) < 1e-9


def test_simulate_distribution_and_samples(capsys, cubic_poly, tmp_path):
    circ = tmp_path / "c2.json"
    run(capsys, "iqp", "--poly", cubic_poly, "--emit-circuit", str(circ))
    _, out, _ = run(capsys, "simulate", "--circuit", str(circ),
                    "--distribution", "--format", "structured")
    probs = records(out)[0]["distribution"]
    assert abs(sum(probs) - 1.0) < 1e-9
    _, out1, _ = run(capsys, "simulate", "--circuit", str(circ),
                     "--samples", "6", "--seed", "9", "--format", "structured")
    _, out2, _ = run(capsys, "simulate", "--circuit", str(circ),
                     "--samples", "6", "--seed", "9", "--format", "structured")
    assert out1 == out2
    assert len(records(out1)[0]["samples"]) == 6


def test_simulate_samples_require_seed(capsys, cubic_poly, tmp_path):
    circ = tmp_path / "c3.json"
    run(capsys, "iqp", "--poly", cubic_poly, "--emit-circuit", str(circ))
    code, _, err = run(capsys, "simulate", "--circuit", str(circ), "--samples", "3")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("mode", [("--distribution",), ("--samples", "3", "--seed", "1")])
def test_simulate_refuses_before_simulating(capsys, monkeypatch, tmp_path, mode):
    monkeypatch.setenv("GAPBENCH_DIST_CAP", "6")
    circ = tmp_path / "c10.json"
    f = poly3.random_poly(10, np.random.default_rng(6))
    circ.write_text(statevector.circuit_dumps(circuits.build_iqp(f)))

    def no_run(*args, **kwargs):
        raise AssertionError("simulated a state the distribution cap refuses")

    monkeypatch.setattr(statevector, "run", no_run)
    code, out, _ = run(capsys, "simulate", "--circuit", str(circ), *mode,
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded", "message": "full_distribution: q = 10 exceeds cap 6"}


def test_simulate_refuses_more_samples_than_the_distribution_cap(capsys, monkeypatch,
                                                                tmp_path):
    monkeypatch.setenv("GAPBENCH_DIST_CAP", "6")
    circ = tmp_path / "c6.json"
    f = poly3.random_poly(6, np.random.default_rng(6))
    circ.write_text(statevector.circuit_dumps(circuits.build_iqp(f)))

    def no_run(*args, **kwargs):
        raise AssertionError("simulated a state for a sample the cap refuses")

    monkeypatch.setattr(statevector, "run", no_run)
    code, out, _ = run(capsys, "simulate", "--circuit", str(circ), "--samples", "65",
                       "--seed", "1", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded", "message": "sample: size = 65 exceeds cap 2^6"}


@pytest.mark.parametrize("samples", ["-1", "-3"])
def test_simulate_negative_samples_is_usage_error(capsys, cubic_poly, tmp_path, samples):
    circ = tmp_path / "c4.json"
    run(capsys, "iqp", "--poly", cubic_poly, "--emit-circuit", str(circ))
    code, out, err = run(capsys, "simulate", "--circuit", str(circ), "--samples", samples,
                         "--seed", "1", "--format", "structured")
    assert (code, out) == (2, "")
    assert err == "error: --samples must be nonnegative\n"


def test_simulate_amplitude_index_is_checked_before_simulating(capsys, monkeypatch,
                                                                cubic_poly, tmp_path):
    circ = tmp_path / "c5.json"
    run(capsys, "iqp", "--poly", cubic_poly, "--emit-circuit", str(circ))

    def no_run(*args, **kwargs):
        raise AssertionError("simulated a state for an index out of range")

    monkeypatch.setattr(statevector, "run", no_run)
    code, out, _ = run(capsys, "simulate", "--circuit", str(circ), "--amplitude", "99",
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "ValueError", "message": "basis index 99 out of range"}


def test_simulate_names_an_unprintable_index_by_its_bit_length(capsys, tmp_path):
    # 4,000 hex digits read as an int, but its decimal form is past
    # Python's 4,300-digit limit for printing one
    circ = tmp_path / "c.json"
    circ.write_text('{"q": 2, "gates": [{"kind": "h", "targets": [0]}]}')
    code, out, err = run(capsys, "simulate", "--circuit", str(circ),
                         "--amplitude", "0x" + "f" * 4000, "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {
        "type": "ValueError", "message": "basis index of 16000 bits out of range"}


# -------------------------------------------------- qaoa, sgap, harness


def test_qaoa_acceptance_record(capsys, cubic_poly):
    code, out, _ = run(capsys, "qaoa", "--poly", cubic_poly, "--acceptance",
                       "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["qubits"] == 6
    assert rec["gap"] == 6
    assert abs(rec["acceptance"] - rec["acceptance_over_gap_sq"] * 36) < 1e-12


def test_sgap_classify_label(capsys, cubic_poly):
    _, out, _ = run(capsys, "sgap-classify", "--poly", cubic_poly,
                    "--format", "structured")
    rec = records(out)[0]
    assert rec["label"] == "YES"
    assert rec["gap_route_label"] == rec["label"]


def test_sgap_classify_runs_brute_force_once(capsys, monkeypatch, paper_poly):
    calls = count_brute_force_calls(monkeypatch)
    code, out, _ = run(capsys, "sgap-classify", "--poly", paper_poly,
                       "--format", "structured")
    assert code == 0
    assert len(calls) == 1
    assert records(out)[0] == {"gap": -2, "gap_route_label": "YES", "label": "YES",
                               "n": 3, "schema": 1}


def test_harness_exact_probabilities_all_correct(capsys, cubic_poly):
    code, out, _ = run(capsys, "harness-a", "--poly", cubic_poly,
                       "--epsilon", "0", "--seed", "1", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["mode"] == "exhaustive"
    assert rec["correct_fraction"] == 1.0
    assert rec["ok"] is True
    assert rec["flipped"] == 0
    assert rec["perturbation"]["additive"] < 1e-12


def test_harness_budget_adversary_stays_above_floor(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(poly3.dumps(poly3.random_poly(8, np.random.default_rng(3))))
    code, out, _ = run(capsys, "harness-a", "--poly", str(path),
                       "--epsilon", "0.001", "--seed", "2", "--format", "structured")
    rec = records(out)[0]
    assert rec["robustness_floor"] == 1.0 - 0.06
    assert rec["flipped"] >= 1
    assert rec["budget_spent"] <= 0.001
    assert rec["correct"] == rec["promise_members"] - rec["flipped"]
    assert rec["correct_fraction"] >= rec["robustness_floor"]
    assert rec["ok"] is True


def test_harness_sampled_mode_reads_probabilities_from_gaps(capsys, monkeypatch,
                                                           tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("simulated a class distribution in sampled mode")

    monkeypatch.setattr(circuits, "run", no_run)
    f = poly3.random_poly(14, np.random.default_rng(8))
    code, out, _ = run(capsys, "harness-a", "--poly", write_poly(tmp_path, f),
                       "--epsilon", "0", "--seed", "4", "--trials", "12",
                       "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["mode"] == "sampled"
    assert rec["correct_fraction"] == 1.0
    assert rec["input_decision"]["probability"] == poly3.gap_bruteforce(f) ** 2 / 4 ** 14


@pytest.mark.parametrize("n, trials", [(8, None), (14, 12)])
def test_decision_harness_record_is_the_clis(capsys, tmp_path, n, trials):
    f = poly3.random_poly(n, np.random.default_rng(8))
    argv = ["harness-a", "--poly", write_poly(tmp_path, f), "--epsilon", "0",
            "--seed", "4", "--format", "structured"]
    if trials is not None:
        argv += ["--trials", str(trials)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    record = circuits.decision_harness(f, 0.0, trials, 4)
    assert record["correct_fraction"] == 1.0
    assert out == _record_line(record) + "\n"


def test_harness_beyond_the_exhaustive_limit_needs_trials(capsys, tmp_path):
    f = poly3.Poly3.from_terms(circuits.EXHAUSTIVE_LIMIT + 1, [(0, 1, 2)])
    code, out, err = run(capsys, "harness-a", "--poly", write_poly(tmp_path, f),
                         "--epsilon", "0", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: --trials is required beyond 12 variables\n"
    with pytest.raises(ValueError, match="trials are required beyond 12 variables"):
        circuits.decision_harness(f, 0.0)
    with pytest.raises(ValueError, match="need a seed"):
        circuits.decision_harness(f, 0.0, trials=3)


def test_harness_exhaustive_mode_needs_no_seed(capsys, cubic_poly):
    argv = ("harness-a", "--poly", cubic_poly, "--epsilon", "0.01", "--format", "structured")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert records(out)[0]["mode"] == "exhaustive"
    assert run(capsys, *argv, "--seed", "3") == (0, out, "")


def test_harness_sampled_mode_requires_seed(capsys, cubic_poly):
    code, out, err = run(capsys, "harness-a", "--poly", cubic_poly, "--epsilon", "0",
                         "--trials", "3", "--format", "structured")
    assert (code, out) == (2, "")
    assert err == "error: --seed is required: sampled mode draws class members\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_harness_nonpositive_trials_is_usage_error(capsys, cubic_poly, trials):
    code, out, err = run(capsys, "harness-a", "--poly", cubic_poly, "--epsilon", "0",
                         "--seed", "1", "--trials", trials, "--format", "structured")
    assert (code, out) == (2, "")
    assert err == "error: --trials must be positive\n"


def test_harness_refuses_trials_beyond_the_cap_before_allocating(capsys, monkeypatch,
                                                               cubic_poly):
    refuse_draws(monkeypatch)
    code, out, _ = run(capsys, "harness-a", "--poly", cubic_poly, "--epsilon", "0.01",
                       "--seed", "1", "--trials", "2000000000", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == cap_error("decision_harness: trials", 2000000000)


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_harness_non_finite_epsilon_is_usage_error(capsys, cubic_poly, epsilon):
    code, out, err = run(capsys, "harness-a", "--poly", cubic_poly,
                         "--epsilon", epsilon, "--format", "structured")
    assert (code, out) == (2, "")
    assert err == "error: --epsilon must be finite\n"


# --------------------------------------------------- permanents and optics


def test_permanent_methods_agree(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
    _, out_n, _ = run(capsys, "permanent", "--matrix", str(path),
                      "--method", "naive", "--format", "structured")
    _, out_r, _ = run(capsys, "permanent", "--matrix", str(path),
                      "--method", "ryser", "--format", "structured")
    assert records(out_n)[0]["permanent"] == records(out_r)[0]["permanent"]


def test_permanent_complex_entry_format(capsys, tmp_path):
    path = tmp_path / "cm.json"
    path.write_text(json.dumps([[[0, 1], 1], [1, [0, -1]]]))
    _, out, _ = run(capsys, "permanent", "--matrix", str(path),
                    "--method", "ryser", "--format", "structured")
    value = records(out)[0]["permanent"]
    # per = (i)(-i) + (1)(1) = 2
    assert abs(value[0] - 2.0) < 1e-12 and abs(value[1]) < 1e-12


def test_permanent_ryser_overflow_on_finite_entries_exits_1(capsys, tmp_path):
    # Glynn's doubled columns overflow to inf - inf = nan; the permutation
    # sum gives inf, and Ryser must not print nan with exit 0
    path = tmp_path / "big.json"
    path.write_text("[[1e308, 1e308], [1e308, 1e308]]")
    code, out, _ = run(capsys, "permanent", "--matrix", str(path),
                       "--method", "ryser", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"]["type"] == "OverflowError"


def run_with_warnings(capsys, *argv):
    # stderr as a shell would see it: the CLI's own lines plus any warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return code, out, shown + err


@pytest.mark.parametrize("entry, code, stdout", [
    ("1e308", 1, ""),
    ("1e200", 0, "per = inf\n"),
], ids=["1e308", "1e200"])
def test_permanent_ryser_overflow_leaks_no_warning(capsys, tmp_path, entry, code, stdout):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[float(entry)] * 2] * 2))
    got = run_with_warnings(capsys, "permanent", "--matrix", str(path), "--method", "ryser")
    assert got[:2] == (code, stdout)
    if code:
        assert got[2].startswith("error: ") and got[2].count("\n") == 1
    else:
        assert got[2] == ""


@pytest.mark.parametrize("method", ["naive", "ryser"])
@pytest.mark.parametrize("big", [2**70, 2**63], ids=["2^70", "2^63"])
def test_permanent_of_large_integer_entries_is_exact(capsys, tmp_path, method, big):
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[big, 1], [1, 1]]))
    code, out, err = run(capsys, "permanent", "--matrix", str(path), "--method", method,
                         "--format", "structured")
    assert (code, err) == (0, "")
    assert records(out)[0]["permanent"] == big + 1
    code, out, err = run(capsys, "permanent", "--matrix", str(path), "--method", method)
    assert (code, out, err) == (0, f"per = {big + 1}\n", "")


def test_non_finite_complex_output_is_strict_json(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('[[[NaN, 0], [1, 0]], [[0, 1], [1, 0]]]')
    code, out, _ = run(capsys, "permanent", "--matrix", str(path),
                       "--method", "ryser", "--format", "structured")
    assert code == 0
    assert strict_records(out)[0]["permanent"] == ["nan", "nan"]


@pytest.mark.parametrize("gate, message", [
    ({"kind": "diag_phase", "targets": [0], "pattern": [1], "theta": math.nan},
     "gate theta must be finite, got nan"),
    ({"kind": "xrot", "targets": [0], "beta": math.inf}, "gate beta must be finite, got inf"),
], ids=["theta-nan", "beta-inf"])
def test_simulate_refuses_a_non_finite_angle(capsys, tmp_path, gate, message):
    # json writes these as NaN and Infinity, which json.loads reads back
    circ = tmp_path / "circ.json"
    circ.write_text(json.dumps({"q": 1, "gates": [{"kind": "h", "targets": [0]}, gate]}))
    code, out, err = run(capsys, "simulate", "--circuit", str(circ), "--amplitude", "1",
                         "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {"type": "ValueError", "message": message}


MATRIX_COMMANDS = [
    ("permanent", "--matrix", "--method", "ryser"),
    ("boson-encode", "--matrix"),
    ("fock-amp", "--unitary", "--in", "1,0", "--out", "1,0"),
]
NOT_ROWS = "expected a nested array of matrix rows"


@pytest.mark.parametrize("command", MATRIX_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("text, message", [
    ("3", NOT_ROWS),
    ('{"matrix": 3}', NOT_ROWS),
    ('{"rows": [[1]]}', NOT_ROWS),
    ("[[1, 2], 3]", NOT_ROWS),
    ('[[1, 2], "ab"]', NOT_ROWS),
    ("[[1, null], [3, 4]]", "m.json: matrix entry must be a number, got null"),
    ("[[1, true], [3, 4]]", "m.json: matrix entry must be a number, got true"),
    ('[[1, "2"], [3, 4]]', 'm.json: matrix entry must be a number, got "2"'),
    ("[[1, [0, null]], [3, 4]]", "m.json: [re, im] entry must be a number, got null"),
    ("[[1, [0, 1, 2]], [3, 4]]", "m.json: complex matrix entries must be [re, im] pairs"),
], ids=["bare-number", "matrix-number", "no-matrix-key", "row-number", "row-string", "null-entry",
        "bool-entry", "string-entry", "null-in-pair", "triple"])
def test_malformed_matrix_file_is_a_domain_error(capsys, tmp_path, command, text, message):
    path = tmp_path / "m.json"
    path.write_text(text)
    name, flag, *rest = command
    code, out, err = run(capsys, name, flag, str(path), *rest, "--format", "structured")
    assert (code, err) == (1, "")
    error = records(out)[0]["error"]
    assert error["type"] == "ValueError" and error["message"].endswith(message)


@pytest.mark.parametrize("doc, message", [
    (3, "circuit JSON must be an object"),
    ({"q": 2, "gates": 3}, "circuit JSON 'gates' must be a list"),
    ({"q": 2, "gates": ["h"]}, "circuit JSON gates must be objects"),
    ({"q": 2, "gates": [{"kind": "h", "targets": 0}]}, "circuit JSON 'targets' must be a list"),
    ({"q": 2, "gates": [{"kind": "diag_phase", "targets": [0], "pattern": 1}]},
     "circuit JSON 'pattern' must be a list"),
    ({"q": None, "gates": []}, "circuit JSON 'q' must be an integer, got null"),
    ({"q": 2.7, "gates": []}, "circuit JSON 'q' must be an integer, got 2.7"),
    ({"q": True, "gates": []}, "circuit JSON 'q' must be an integer, got true"),
    ({"q": 2, "gates": [{"kind": "h", "targets": [None]}]},
     "circuit JSON 'targets' entry must be an integer, got null"),
    ({"q": 2, "gates": [{"kind": "h", "targets": [1.9]}]},
     "circuit JSON 'targets' entry must be an integer, got 1.9"),
    ({"q": 2, "gates": [{"kind": "diag_phase", "targets": [0], "theta": 1, "pattern": [True]}]},
     "circuit JSON 'pattern' entry must be an integer, got true"),
    ({"q": 2, "gates": [{"kind": "xrot", "targets": [0], "beta": None}]},
     "circuit JSON 'beta' must be a number, got null"),
    ({"q": 2, "gates": [{"kind": "diag_phase", "targets": [0], "theta": "1", "pattern": [1]}]},
     "circuit JSON 'theta' must be a number, got \"1\""),
    ({"q": 2, "gates": [{"targets": [0]}]}, "circuit JSON gate needs 'kind'"),
    ({"q": 2, "gates": [{"kind": "h"}]}, "circuit JSON gate needs 'targets'"),
], ids=["bare-number", "gates-number", "gate-string", "targets-number", "pattern-number",
        "q-null", "q-float", "q-bool", "target-null", "target-float", "pattern-bool",
        "beta-null", "theta-string", "kind-missing", "targets-missing"])
def test_malformed_circuit_file_is_a_domain_error(capsys, tmp_path, doc, message):
    circ = tmp_path / "c.json"
    circ.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--circuit", str(circ), "--amplitude", "0",
                         "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {"type": "ValueError", "message": message}


def test_boson_encode_refuses_nan_scale(capsys, tmp_path):
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps([[1, 2], [3, 4]]))
    code, out, _ = run(capsys, "boson-encode", "--matrix", str(mat), "--scale", "nan",
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {"type": "ValueError",
                                        "message": "scale must be positive, got nan"}


def test_fock_amp_refuses_nan_unitary(capsys, tmp_path):
    uni = tmp_path / "u.json"
    uni.write_text("[[NaN, 0], [0, 1]]")
    code, out, _ = run(capsys, "fock-amp", "--unitary", str(uni), "--in", "1,0",
                       "--out", "1,0", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {"type": "ValueError",
                                        "message": "matrix is not unitary within tolerance"}


@pytest.mark.parametrize("matrix, message", [
    ("[[1e308, 1e308], [1e308, 1e308]]", "the spectral norm of the matrix overflows float64"),
    ("[[NaN, 1], [1, 0]]", "matrix entries must be finite"),
    ("[[Infinity, 1], [1, 0]]", "matrix entries must be finite"),
], ids=["1e308", "nan", "inf"])
def test_boson_encode_refuses_non_finite_input_in_matrix_words(capsys, tmp_path, matrix,
                                                               message):
    path = tmp_path / "a.json"
    path.write_text(matrix)
    code, out, err = run_with_warnings(capsys, "boson-encode", "--matrix", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("scale", [[], ["--scale", "0.1"]])
def test_boson_encode_decomposes_once(capsys, monkeypatch, tmp_path, scale):
    # one SVD for the norm, one eigh of the defect and one of the inner block
    calls = []
    for name in ("svd", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps([[1, 2], [3, 4]]))
    code, out, _ = run(capsys, "boson-encode", "--matrix", str(mat), *scale,
                       "--format", "structured")
    assert code == 0
    assert sorted(calls) == ["eigh", "eigh", "svd"]
    rec = records(out)[0]
    norm = float(np.linalg.norm(np.array([[1, 2], [3, 4]]), 2))
    assert abs(rec["spectral_norm"] - norm) < 1e-12
    assert abs(rec["default_scale"] - 1 / (2 * norm)) < 1e-15
    assert rec.get("scale_check") == (None if scale else 0.0)


def test_boson_encode_fock_amp_pipeline(capsys, tmp_path):
    a = np.array([[1, 2], [3, 4]], dtype=float)
    mat = tmp_path / "a.json"
    mat.write_text(json.dumps(a.tolist()))
    uni = tmp_path / "u.json"
    code, out, _ = run(capsys, "boson-encode", "--matrix", str(mat),
                       "--emit-unitary", str(uni), "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["unitarity_defect"] < 1e-9
    c = rec["scale"]
    expected = (c ** 2) * pm.permanent_naive(a)
    assert abs(rec["amplitude"][0] - expected) < 1e-9
    code, out, _ = run(capsys, "fock-amp", "--unitary", str(uni),
                       "--in", "1,1,0,0", "--out", "1,1,0,0",
                       "--format", "structured")
    assert code == 0
    assert abs(records(out)[0]["amplitude"][0] - expected) < 1e-7


# ------------------------------------------------------------------ reduce


def test_reduce_verify_and_permanent_pipeline(capsys, cubic_poly, tmp_path):
    gadget = tmp_path / "g.json"
    code, out, _ = run(capsys, "reduce", "--poly", cubic_poly, "--verify",
                       "--emit-matrix", str(gadget), "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["verify"] == {"ok": True, "perm": 384, "expected": 384}
    assert rec["nodes"] == 22
    code, out, _ = run(capsys, "permanent", "--matrix", str(gadget),
                       "--method", "ryser", "--format", "structured")
    assert records(out)[0]["permanent"] == 384


# ------------------------------------------------------------------- stats


def test_stats_exact_moment(capsys):
    _, out, _ = run(capsys, "stats", "--mode", "moments", "--n", "4", "--k", "2",
                    "--format", "structured")
    rec = records(out)[0]
    assert rec["value"] == 2.875
    assert rec["value_exact"] == "23/8"
    assert rec["gaussian_target"] == 3


def test_stats_sampled_moment_deterministic(capsys):
    args = ("stats", "--mode", "moments", "--n", "10", "--k", "1",
            "--samples", "500", "--seed", "4", "--format", "structured")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert records(out1)[0]["kind"] == "sampled"


def test_stats_histogram_csv(capsys, tmp_path):
    csv = tmp_path / "h.csv"
    code, out, _ = run(capsys, "stats", "--mode", "moments", "--n", "6", "--k", "1",
                       "--samples", "300", "--seed", "8",
                       "--histogram-csv", str(csv), "--format", "structured")
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "gap,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total == 300
    # every entry is an even integer gap
    assert all(int(line.split(",")[0]) % 2 == 0 for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ("--mode", "subspaces", "--k", "4"),
    ("--mode", "masspoly"),
    ("--mode", "promise", "--n", "3"),
])
def test_stats_histogram_csv_outside_moments_is_usage_error(capsys, monkeypatch,
                                                            tmp_path, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking --histogram-csv")

    for name in ("count_condition_subspaces", "mass_poly", "promise_stats"):
        monkeypatch.setattr(gapdist, name, no_work)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "stats", *argv, "--histogram-csv", "h.csv",
                         "--format", "structured")
    assert (code, out) == (2, "")
    assert err == f"error: --histogram-csv does not apply to --mode {argv[1]}\n"
    assert list(tmp_path.iterdir()) == []


def test_stats_promise_exact(capsys):
    _, out, _ = run(capsys, "stats", "--mode", "promise", "--n", "4",
                    "--format", "structured")
    rec = records(out)[0]
    assert rec["exact"]["yes"] == "9949/16384"
    assert rec["exact"]["no"] == "6435/16384"
    assert rec["nonpromise"] == 0.0


@pytest.mark.parametrize("flag, value", [("--samples", "5"), ("--seed", "1")])
def test_stats_exact_promise_refuses_sampling_flags(capsys, monkeypatch, flag, value):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the sampling flags")

    monkeypatch.setattr(gapdist, "promise_stats", no_work)
    n = gapdist._EXACT_N_CAP
    code, out, err = run(capsys, "stats", "--mode", "promise", "--n", str(n), flag, value,
                         "--format", "structured")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} does not apply to --mode promise at n <= {n}: it is exact\n"


def test_stats_promise_sampled_needs_seed(capsys):
    code, _, err = run(capsys, "stats", "--mode", "promise", "--n", "10",
                       "--samples", "100")
    assert code == 2 and "--seed" in err


@pytest.mark.parametrize("argv", [
    ("--mode", "moments", "--n", "6", "--k", "1", "--samples", "0"),
    ("--mode", "moments", "--n", "6", "--k", "1", "--samples", "-3"),
    ("--mode", "moments", "--n", "6", "--k", "1", "--samples", "0",
     "--histogram-csv", "h.csv"),
    ("--mode", "promise", "--n", "3", "--samples", "0"),
    ("--mode", "promise", "--n", "10", "--samples", "-3"),
])
def test_stats_nonpositive_samples_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking --samples")

    for name in ("sampled_moment", "gap_histogram", "promise_stats"):
        monkeypatch.setattr(gapdist, name, no_sampling)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "stats", *argv, "--seed", "1", "--format", "structured")
    assert (code, out) == (2, "")
    assert err == "error: --samples must be positive\n"
    assert list(tmp_path.iterdir()) == []


def test_stats_refuses_an_astronomical_sample_count_within_a_second(capsys, monkeypatch):
    refuse_draws(monkeypatch)
    started = time.perf_counter()
    code, out, _ = run(capsys, "stats", "--mode", "moments", "--n", "6", "--k", "1",
                       "--samples", str(10**20), "--seed", "1", "--format", "structured")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert records(out)[0]["error"] == cap_error("gaps: samples", 10**20)


def test_stats_refuses_a_sample_count_beyond_the_cap_before_allocating(capsys, monkeypatch):
    refuse_draws(monkeypatch)
    code, out, _ = run(capsys, "stats", "--mode", "moments", "--n", "6", "--k", "1",
                       "--samples", "2000000000", "--seed", "1", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == cap_error("gaps: samples", 2000000000)


def test_stats_subspaces(capsys):
    _, out, _ = run(capsys, "stats", "--mode", "subspaces", "--k", "4",
                    "--degree", "2", "--n", "2", "--format", "structured")
    rec = records(out)[0]
    assert rec["subspaces"] == 135
    assert rec["matrix_solutions"] == 8320
    _, out, _ = run(capsys, "stats", "--mode", "subspaces", "--k", "4",
                    "--format", "structured")
    assert records(out)[0]["subspaces"] == 105


def test_stats_masspoly(capsys):
    _, out, _ = run(capsys, "stats", "--mode", "masspoly", "--format", "structured")
    rec = records(out)[0]
    assert abs(rec["c_sum"] - 0.1222) < 5e-5
    assert rec["boundary_value"] == 0.0
    assert rec["grid_max_excess"] <= 0.0
    assert len(rec["c"]) == 16 and rec["c"][0] == 1.0


@pytest.mark.parametrize("mode, extra", [("subspaces", ("--k", "4")), ("masspoly", ())])
@pytest.mark.parametrize("flag, value", [("--samples", "10"), ("--seed", "1")])
def test_stats_exact_modes_refuse_sampling_flags(capsys, mode, extra, flag, value):
    code, out, err = run(capsys, "stats", "--mode", mode, *extra, flag, value,
                         "--format", "structured")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} does not apply to --mode {mode}: it is exact\n"


# -------------------------------------------------------------- avg-reduce


def test_avg_reduce_exact_oracle(capsys, paper_poly):
    code, out, _ = run(capsys, "avg-reduce", "--poly", paper_poly,
                       "--seed", "3", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["match"] is True
    assert rec["claimed_gap"] == -2 and rec["true_gap"] == -2
    assert rec["oracle_calls"] <= 3


def test_avg_reduce_always_corrupt_mismatches(capsys, paper_poly):
    for seed in range(6):
        _, out, _ = run(capsys, "avg-reduce", "--poly", paper_poly,
                        "--oracle", "corrupt:1.0", "--seed", str(seed),
                        "--format", "structured")
        rec = records(out)[0]
        if rec["oracle_calls"] > 0:
            assert rec["corrupted_calls"] == rec["oracle_calls"]
            assert rec["match"] is False


def test_avg_reduce_rate_fraction_syntax(capsys, paper_poly):
    code, out, _ = run(capsys, "avg-reduce", "--poly", paper_poly,
                       "--oracle", "corrupt:1/30", "--seed", "5",
                       "--format", "structured")
    assert code == 0
    assert records(out)[0]["oracle"] == "corrupt:1/30"


def test_avg_reduce_requires_seed(capsys, paper_poly):
    code, out, err = run(capsys, "avg-reduce", "--poly", paper_poly)
    assert (code, out) == (2, "")
    assert err == "error: --seed is required: the reduction randomizes linear parts\n"


def test_avg_reduce_certificate_needs_no_seed(capsys, cubic_poly):
    argv = ("avg-reduce", "--poly", cubic_poly, "--certificate", "--format", "structured")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert records(out)[0]["verified"] is True
    assert run(capsys, *argv, "--seed", "0") == (0, out, "")


def test_avg_reduce_certificate(capsys, cubic_poly):
    code, out, _ = run(capsys, "avg-reduce", "--poly", cubic_poly, "--seed", "0",
                       "--certificate", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["found"] is True and rec["verified"] is True
    assert rec["certificate_size"] == 5
    assert len(rec["points"]) == 5


def test_avg_reduce_certificate_is_verified_in_one_batch(capsys, monkeypatch, tmp_path):
    def no_point(*args, **kwargs):
        raise AssertionError("evaluated the certificate one point at a time")

    f = poly3.random_poly(14, np.random.default_rng(2))
    assert poly3.gap_bruteforce(f) != 0
    monkeypatch.setattr(poly3, "evaluate", no_point)
    code, out, _ = run(capsys, "avg-reduce", "--poly", write_poly(tmp_path, f),
                       "--seed", "0", "--certificate", "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["found"] is True and rec["verified"] is True
    assert rec["points"] == avgcase.find_certificate(f).tolist()
    assert len(rec["points"]) == (1 << 13) + 1


def test_avg_reduce_certificate_obeys_the_distribution_cap(capsys, monkeypatch,
                                                           tmp_path):
    def no_table(*args, **kwargs):
        raise AssertionError("built a truth table the distribution cap refuses")

    monkeypatch.setattr(avgcase, "truth_table", no_table)
    path = write_poly(tmp_path, poly3.Poly3.from_terms(25, [(24,)]))
    code, out, _ = run(capsys, "avg-reduce", "--poly", path, "--seed", "0",
                       "--certificate", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded", "message": "find_certificate: n = 25 exceeds cap 24"}


# --------------------------------------------------------------- sb-accept


def test_sb_accept_record(capsys):
    _, out, _ = run(capsys, "sb-accept", "--n", "4", "--gap", "0",
                    "--format", "structured")
    rec = records(out)[0]
    assert rec["L"] == 40
    assert abs(rec["log_accept"] - (1 - 40) * math.log(2)) < 1e-12
    assert rec["yes_threshold_gap"] == 4 and rec["no_threshold_gap"] == 2
    assert rec["below_no_threshold"] is True
    _, out, _ = run(capsys, "sb-accept", "--n", "4", "--gap", "4",
                    "--format", "structured")
    assert records(out)[0]["meets_yes_threshold"] is True


# ---------------------------------------------------------------- estimate


def test_estimate_all_models_horizon(capsys):
    _, out, _ = run(capsys, "estimate", "--model", "all", "--format", "structured")
    by_model = {r["model"]: r for r in records(out)}
    assert by_model["iqp-mult"]["q"] == 185
    assert by_model["qaoa-mult"]["q"] == 370
    assert by_model["boson-mult"]["q"] == 93
    assert by_model["iqp-mult"]["gates_display"] == "1,060,000"


def test_estimate_per_element(capsys):
    _, out, _ = run(capsys, "estimate", "--model", "all", "--per-element",
                    "--format", "structured")
    by_model = {r["model"]: r for r in records(out)}
    assert by_model["iqp-mult"]["q"] == 208
    assert by_model["qaoa-mult"]["q"] == 420
    assert by_model["boson-mult"]["q"] == 98


def test_estimate_weakening(capsys):
    _, out, _ = run(capsys, "estimate", "--model", "iqp-mult", "--weaken", "2",
                    "--format", "structured")
    recs = records(out)
    weak = next(r for r in recs if "weakening" in r)
    assert weak["weakening"]["base_q"] == 185
    assert weak["weakening"]["weakened_q"] == 370


@pytest.mark.parametrize("argv", [("--flops", "nan"), ("--flops", "inf"),
                                  ("--horizon-years", "nan"),
                                  ("--per-element", "--budget", "nan")])
def test_estimate_refuses_non_finite_budgets(capsys, argv):
    code, out, _ = run(capsys, "estimate", "--model", "iqp-mult", *argv,
                       "--format", "structured")
    assert code == 1
    assert records(out) == [{"schema": 1, "error": {
        "type": "ValueError", "message": "flops, horizon, and budget must be finite"}}]


def test_estimate_refuses_nan_weakening(capsys):
    # a usage error before any row, like +-inf
    for fmt in ("human", "structured"):
        code, out, err = run(capsys, "estimate", "--model", "iqp-mult", "--weaken", "nan",
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: --weaken must be finite\n"


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_estimate_negative_infinite_weakening_is_usage_error(capsys, fmt):
    # "--weaken -inf" would read -inf as an option, so the value is attached
    code, out, err = run(capsys, "estimate", "--model", "iqp-mult", "--weaken=-inf",
                         "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: --weaken must be finite\n"


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("mode", ["divide-constant", "divide-prefactor"])
def test_estimate_infinite_weakening_is_usage_error(capsys, fmt, mode):
    code, out, err = run(capsys, "estimate", "--model", "iqp-mult", "--weaken", "inf",
                         "--weaken-mode", mode, "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: --weaken must be finite\n"


@pytest.mark.parametrize("argv, message", [
    (("--flops", "1e300", "--horizon-years", "1e300"),
     "operations target flops * horizon = inf must be nonzero and finite"),
    (("--flops", "1e-300", "--horizon-years", "1e-300"),
     "operations target flops * horizon = 0 must be nonzero and finite"),
    (("--per-element", "--budget", "1e300", "--flops", "1e-300"),
     "operations target flops * horizon / budget = 0 must be nonzero and finite"),
    (("--constant", "1e-320"), "constant 9.99989e-321 is too small for a finite size"),
    (("--weaken", "1e308"), "weakening by d = 1e+308 (divide-constant): "
                            "constant 0.5/d is too small for a finite size"),
    (("--weaken", "1e300", "--weaken-mode", "divide-prefactor"),
     "weakening by d = 1e+300 (divide-prefactor): "
     "no finite size beats d times the operations target"),
], ids=["target-overflow", "target-underflow", "per-element-underflow",
        "tiny-constant", "weakened-constant", "weakened-prefactor"])
def test_estimate_refuses_inputs_with_no_finite_size(capsys, argv, message):
    # refused in the estimator's words, before the failing model's row
    code, out, _ = run(capsys, "estimate", "--model", "iqp-mult", *argv,
                       "--format", "structured")
    assert code == 1
    assert records(out) == [{"schema": 1, "error": {"type": "ValueError",
                                                    "message": message}}]
    code, out, err = run(capsys, "estimate", "--model", "iqp-mult", *argv)
    assert (code, out, err) == (1, _ESTIMATE_TABLE_HEADER + "\n", f"error: {message}\n")


def test_estimate_human_table(capsys):
    code, out, _ = run(capsys, "estimate", "--model", "iqp-mult")
    assert code == 0
    assert "185" in out and "1,060,000" in out


def test_estimate_structured_byte_identical(capsys):
    args = ("estimate", "--model", "all", "--format", "structured")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# --------------------------------------------------------------- reproduce


def test_reproduce_passes_and_is_deterministic(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path / "r1"),
                       "--seed", "11", "--format", "structured")
    assert code == 0
    recs = records(out)
    summary = [r for r in recs if r.get("record") == "summary"][0]
    assert summary["ok"] is True
    criteria = [r for r in recs if r.get("record") == "criterion"]
    assert len(criteria) == 9 and all(c["ok"] for c in criteria)
    report1 = (tmp_path / "r1" / "report.jsonl").read_bytes()
    code, _, _ = run(capsys, "reproduce", "--out", str(tmp_path / "r2"),
                     "--seed", "11", "--format", "structured")
    assert code == 0
    assert report1 == (tmp_path / "r2" / "report.jsonl").read_bytes()


def test_reproduce_flags_non_default_constants(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path / "r3"),
                       "--constant", "0.25", "--format", "structured")
    assert code == 0
    recs = records(out)
    iqp_rows = [r for r in recs if r.get("table") == "estimates"
                and r.get("model") == "iqp-mult" and r.get("mode") == "horizon"]
    assert iqp_rows[0]["q"] == 370
    assert iqp_rows[0]["non_default_constants"] is True
    est = [r for r in recs if r.get("name") == "estimates"][0]
    assert est.get("skipped") is True


def test_reproduce_report_is_the_library_records(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "--out", str(tmp_path / "r4"),
                       "--seed", "3", "--format", "structured")
    assert code == 0
    report = "".join(_record_line(r) + "\n" for r in reproduce.run(seed=3))
    assert (tmp_path / "r4" / "report.jsonl").read_text() == report == out


# ------------------------------------------------------- errors and config


def test_missing_file_is_domain_error(capsys):
    code, out, _ = run(capsys, "gap", "--poly", "nope.json",
                       "--format", "structured")
    assert code == 1
    rec = records(out)[0]
    assert rec["error"]["type"] == "FileNotFoundError"


def test_malformed_poly_is_domain_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, _ = run(capsys, "gap", "--poly", str(path))
    assert code == 1


def test_cap_overrun_is_domain_error(capsys, tmp_path):
    f = poly3.Poly3.from_terms(40, [(0,)])
    path = tmp_path / "big.json"
    path.write_text(poly3.dumps(f))
    code, out, _ = run(capsys, "gap", "--poly", str(path),
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"]["type"] == "CapExceeded"


def test_boson_encode_resolves_the_ryser_cap(capsys, tmp_path):
    # 11 exceeds the naive-permanent cap (10) but not the Ryser cap (30)
    mat = tmp_path / "eye.json"
    mat.write_text(json.dumps(np.eye(11, dtype=int).tolist()))
    code, out, _ = run(capsys, "boson-encode", "--matrix", str(mat),
                       "--format", "structured")
    assert code == 0
    rec = records(out)[0]
    assert rec["dimension"] == 11
    assert abs(rec["amplitude"][0] - rec["scale"] ** 11) < 1e-9


@pytest.mark.parametrize("argv", [("harness-a", "--epsilon", "0", "--seed", "1"),
                                  ("iqp", "--distribution")])
def test_class_distribution_obeys_the_simulator_cap(capsys, monkeypatch, tmp_path,
                                                    argv):
    monkeypatch.setenv("GAPBENCH_SIM_CAP", "8")
    path = write_poly(tmp_path, poly3.random_poly(10, np.random.default_rng(4)))
    code, out, _ = run(capsys, argv[0], "--poly", path, *argv[1:],
                       "--format", "structured")
    assert code == 1
    error = records(out)[0]["error"]
    assert error["type"] == "CapExceeded" and "cap 8" in error["message"]


def test_class_distribution_refuses_before_simulating(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("GAPBENCH_DIST_CAP", "6")

    def no_run(*args, **kwargs):
        raise AssertionError("simulated a state the distribution cap refuses")

    monkeypatch.setattr(circuits, "run", no_run)
    path = write_poly(tmp_path, poly3.random_poly(7, np.random.default_rng(5)))
    code, out, _ = run(capsys, "iqp", "--poly", path, "--distribution",
                       "--format", "structured")
    assert code == 1
    error = records(out)[0]["error"]
    assert error["type"] == "CapExceeded" and "cap 6" in error["message"]


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_timings_flag_appends_record(capsys, paper_poly):
    _, out, _ = run(capsys, "gap", "--poly", paper_poly, "--timings",
                    "--format", "structured")
    recs = records(out)
    assert recs[-1]["record"] == "timing"
    assert recs[-1]["elapsed_s"] >= 0.0


def test_cap_override_is_clamped_to_its_ceiling(monkeypatch):
    monkeypatch.setenv("GAPBENCH_BRUTE_CAP", "99")
    assert config.cap("BRUTE_CAP") == 32
    monkeypatch.setenv("GAPBENCH_BRUTE_CAP", "12")
    assert config.cap("BRUTE_CAP") == 12


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_malformed_cap_override_raises(monkeypatch, raw):
    monkeypatch.setenv("GAPBENCH_BRUTE_CAP", raw)
    with pytest.raises(ValueError, match="GAPBENCH_BRUTE_CAP"):
        config.cap("BRUTE_CAP")


def test_malformed_cap_is_a_domain_error_only_where_read(capsys, monkeypatch,
                                                         paper_poly):
    monkeypatch.setenv("GAPBENCH_BRUTE_CAP", "abc")
    code, out, _ = run(capsys, "gap", "--poly", paper_poly, "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"]["type"] == "ValueError"
    code, out, _ = run(capsys, "estimate", "--model", "iqp-mult",
                       "--format", "structured")
    assert code == 0
    assert records(out)[0]["q"] == 185


def test_main_returns_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["gapbench", "estimate", "--model", "iqp-mult"])
    assert main() == 0
    capsys.readouterr()


# ----------------------------------------------------- input files and caps


HUGE_INT = "1" + "0" * 400  # an integer JSON reads exactly, past float range


@pytest.mark.parametrize("command, text, message", [
    (("simulate", "--circuit", "c.json", "--amplitude", "1"),
     '{"q": 1, "gates": [{"kind": "diag_phase", "targets": [0], "pattern": [1], '
     f'"theta": {HUGE_INT}}}]}}',
     f"circuit JSON 'theta' must be a number within float range, got {HUGE_INT}"),
    (("permanent", "--method", "ryser", "--matrix", "c.json"), f"[[[{HUGE_INT}, 0]]]",
     f"c.json: [re, im] entry must be a number within float range, got {HUGE_INT}"),
], ids=["circuit-theta", "matrix-pair"])
def test_an_integer_past_float_range_is_refused_by_its_field(capsys, tmp_path, monkeypatch,
                                                             command, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(text)
    code, out, err = run(capsys, *command, "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out) == [{"schema": 1, "error": {"type": "ValueError", "message": message}}]


@pytest.mark.parametrize("command, prefix, what", [
    (("gap", "--poly"), '{"n": ', "polynomial JSON"),
    (("simulate", "--amplitude", "0", "--circuit"), "", "circuit JSON"),
    (("permanent", "--method", "ryser", "--matrix"), "", "deep.json"),
], ids=["gap", "simulate", "permanent"])
def test_a_file_nested_past_the_recursion_limit_is_a_domain_error(capsys, tmp_path, monkeypatch,
                                                                  command, prefix, what):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(prefix + "[" * 100_000)
    code, out, err = run(capsys, *command, "deep.json", "--format", "structured")
    assert (code, err) == (1, "")
    error = records(out)[0]["error"]
    limit = sys.getrecursionlimit()
    assert error == {"type": "ValueError",
                     "message": f"{what} nests deeper than Python's recursion limit ({limit})"}


@pytest.fixture
def huge_poly(tmp_path, monkeypatch):
    # 30 bytes that name three million variables
    for name in ("BRUTE_CAP", "SIM_CAP", "DIST_CAP"):
        monkeypatch.delenv("GAPBENCH_" + name, raising=False)
    path = tmp_path / "huge.json"
    path.write_text('{"n": 3000000, "linear": [0]}\n')
    return str(path)


def refuse_call(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before the cap check")
    return refuse


@pytest.mark.parametrize("flags, label", [
    ((), "iqp_gap_amplitude: n"), (("--shifted",), "iqp_shifted_amplitude: n"),
], ids=["amplitude", "shifted"])
def test_iqp_refuses_an_oversized_n_before_building_a_circuit(capsys, monkeypatch, huge_poly,
                                                               flags, label):
    monkeypatch.setattr(circuits, "build_iqp", refuse_call("build_iqp"))
    code, out, _ = run(capsys, "iqp", "--poly", huge_poly, *flags, "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded", "message": f"{label} = 3000000 exceeds cap {config.cap('SIM_CAP')}"}


def test_qaoa_acceptance_refuses_an_oversized_n_before_building(capsys, monkeypatch, huge_poly):
    monkeypatch.setattr(circuits, "build_qaoa", refuse_call("build_qaoa"))
    code, out, _ = run(capsys, "qaoa", "--poly", huge_poly, "--acceptance",
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded",
        "message": f"qaoa_acceptance: q = 6000000 exceeds cap {config.cap('SIM_CAP')}"}
    with pytest.raises(config.CapExceeded, match="^qaoa_acceptance_exact: q = 6000000"):
        circuits.qaoa_acceptance_exact(poly3.Poly3(n=3_000_000))


def test_avg_reduce_refuses_an_oversized_n_before_the_first_round(capsys, monkeypatch,
                                                                  huge_poly):
    monkeypatch.setattr(avgcase, "randomize_linear", refuse_call("randomize_linear"))
    code, out, _ = run(capsys, "avg-reduce", "--poly", huge_poly, "--seed", "1",
                       "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "CapExceeded",
        "message": f"gap_from_quasi_avg_oracle: n = 3000000 exceeds cap {config.cap('BRUTE_CAP')}"}


def test_reduce_refuses_an_oversized_graph_before_allocating_it(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("GAPBENCH_DIST_CAP", raising=False)
    path = tmp_path / "f.json"
    path.write_text('{"n": 100000, "linear": [0]}')
    monkeypatch.setattr(np, "zeros", refuse_call("np.zeros"))
    code, out, _ = run(capsys, "reduce", "--poly", str(path), "--format", "structured")
    assert code == 1
    # 16 nodes for the term, 2 for x1 and 1 for each other variable
    assert records(out)[0]["error"] == {
        "type": "CapExceeded",
        "message": f"build_graph: matrix entries = {100_019 ** 2} exceeds cap "
                   f"2^{config.cap('DIST_CAP')}"}


@pytest.mark.parametrize("command, doc, message", [
    (("count", "--method", "brute", "--poly"), {"n": 2 ** 64},
     "gap_bruteforce: n = 18446744073709551616 exceeds cap {BRUTE_CAP}"),
    (("simulate", "--amplitude", "1", "--circuit"), {"q": 2 ** 64, "gates": []},
     "run: q = 18446744073709551616 exceeds cap {SIM_CAP}"),
    # the sampled harness's thresholds hold 2^(n+1), a power that grows by
    # squaring until memory runs out at a huge n; n = 40 shows the cap comes first
    (("harness-a", "--epsilon", "0.1", "--trials", "2", "--seed", "1", "--poly"), {"n": 40},
     "decision_harness: n = 40 exceeds cap {BRUTE_CAP}"),
], ids=["count", "simulate", "harness-a"])
def test_a_huge_size_is_refused_by_its_cap_before_2_to_the_n_is_formed(capsys, monkeypatch,
                                                                       tmp_path, command, doc,
                                                                       message):
    # 2^(2^64) cannot be formed: without the cap check first it is a MemoryError
    for name in ("BRUTE_CAP", "SIM_CAP"):
        monkeypatch.delenv("GAPBENCH_" + name, raising=False)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *command, str(path), "--format", "structured")
    assert code == 1
    caps = {name: config.cap(name) for name in ("BRUTE_CAP", "SIM_CAP")}
    assert records(out)[0]["error"] == {"type": "CapExceeded", "message": message.format(**caps)}


@pytest.mark.parametrize("n", [2042, 10_000])
def test_sb_thresholds_refuse_an_n_whose_sample_count_is_past_float_range(capsys, n):
    assert math.isfinite(float(avgcase.SbThresholds.for_n(2041).L))
    code, out, _ = run(capsys, "sb-accept", "--n", str(n), "--gap", "1", "--format", "structured")
    assert code == 1
    assert records(out)[0]["error"] == {
        "type": "ValueError",
        "message": f"n = {n} exceeds 2041, beyond which L = ceil(10 * 2^(n/2)) is past "
                   f"float range"}


@pytest.mark.parametrize("rate", ["1/0", "abc", "1/x"])
def test_avg_reduce_refuses_a_malformed_rate_as_a_usage_error(capsys, paper_poly, rate):
    code, out, err = run(capsys, "avg-reduce", "--poly", paper_poly, "--seed", "1",
                         "--oracle", f"corrupt:{rate}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --oracle ")


@pytest.mark.parametrize("command, zero", [
    (MATRIX_COMMANDS[0], "0.0"), (MATRIX_COMMANDS[1], "0"), (MATRIX_COMMANDS[2], "0"),
], ids=["permanent-mixed", "boson-encode", "fock-amp"])
def test_an_integer_entry_past_float_range_is_refused_in_matrix_words(capsys, tmp_path,
                                                                      command, zero):
    # integer entries of any size stay exact: only a float beside them, or a
    # complex conversion, needs them in float range
    path = tmp_path / "m.json"
    path.write_text(f"[[{HUGE_INT}, {zero}], [0, 1]]")
    name, flag, *rest = command
    code, out, err = run(capsys, name, flag, str(path), *rest, "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {"type": "ValueError",
                                        "message": "matrix entries must lie within float64 range"}


def test_naive_permanent_refuses_an_integer_entry_past_float_range(capsys, tmp_path):
    # the permutation products meet 1.5 * 10^400, which Python cannot form
    path = tmp_path / "m.json"
    path.write_text(f"[[1.5, {HUGE_INT}], [1, 1]]")
    code, out, err = run(capsys, "permanent", "--method", "naive", "--matrix", str(path),
                         "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {"type": "ValueError",
                                        "message": "matrix entries must lie within float64 range"}


def test_fock_amp_refuses_a_unitary_whose_defect_overflows_without_a_warning(capsys, tmp_path):
    path = tmp_path / "u.json"
    path.write_text("[[1.3407807929942597e+154]]")  # its square overflows float64
    code, out, err = run_with_warnings(capsys, "fock-amp", "--unitary", str(path), "--in", "1",
                                       "--out", "1", "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {"type": "ValueError",
                                        "message": "matrix is not unitary within tolerance"}


def test_sampled_moments_refuse_a_scale_past_float_range(capsys):
    code, out, err = run_with_warnings(capsys, "stats", "--mode", "moments", "--n", "5", "--k",
                                       "1000000", "--samples", "10", "--seed", "1",
                                       "--format", "structured")
    assert (code, err) == (1, "")
    assert records(out)[0]["error"] == {
        "type": "ValueError",
        "message": "the moment's scale 2^(n*k) = 2^5000000 is past float range; "
                   "n*k must stay below 1024"}


def test_sampled_moments_refuse_terms_past_float_range_without_a_warning(capsys):
    # 2^(n*k) = 2^1020 is in range, but a term's power gap^680 is not
    code, out, err = run_with_warnings(capsys, "stats", "--mode", "moments", "--n", "3", "--k",
                                       "340", "--samples", "50", "--seed", "1",
                                       "--format", "structured")
    assert (code, err) == (1, "")
    [record] = strict_records(out)
    assert record["error"] == {
        "type": "ValueError",
        "message": "a sampled term gap^(2k) / 2^(n*k) is past float range at n = 3, k = 340"}


# Every subcommand that reads a file, fed arbitrary JSON and boundary
# numbers under small caps: it exits 0, 1 or 2, raises nothing (a numpy
# RuntimeWarning is an error under this suite's settings), and its
# structured output is strict JSON.

FUZZ_CAPS = {"BRUTE_CAP": 8, "EVAL_CAP": 8, "SIM_CAP": 8, "DIST_CAP": 8,
             "NAIVE_CAP": 5, "RYSER_CAP": 6}
HUGE = st.sampled_from([3_000_000, 2 ** 31, 2 ** 63, 2 ** 64, 2 ** 1024, 10 ** 400])
BOUNDARY = st.one_of(HUGE, st.sampled_from([True, False, None, 0, 1, -1, 0.5, -0.0, math.nan,
                                            math.inf, -math.inf, 1e308, 1e-320, -(2 ** 63)]))
SCALAR = st.one_of(BOUNDARY, st.integers(-1, 12), st.integers(), st.floats(), st.text(max_size=3))
ANY_JSON = st.recursive(SCALAR, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=10)


def mostly(valid):
    # well-formed three times in five, so most documents get past the loader
    return st.one_of(valid, valid, valid, BOUNDARY, ANY_JSON)


def polys(n, index):
    def terms(k):
        return st.lists(mostly(st.lists(index, min_size=k, max_size=k)), max_size=3)
    return st.fixed_dictionaries({"n": n}, optional={
        "linear": mostly(st.lists(index, max_size=4)), "quadratic": mostly(terms(2)),
        "cubic": mostly(terms(3))})


def circuits_on(q):
    target = mostly(st.integers(0, q - 1))
    gate = st.fixed_dictionaries(
        {"kind": mostly(st.sampled_from(["h", "z", "cz", "ccz", "diag_phase", "xrot"])),
         "targets": mostly(st.lists(target, min_size=1, max_size=3))},
        optional={"theta": ANGLE, "beta": ANGLE,
                  "pattern": mostly(st.lists(mostly(st.integers(0, 1)), min_size=1,
                                             max_size=3))})
    return st.fixed_dictionaries({"q": mostly(st.just(q)),
                                  "gates": mostly(st.lists(gate, max_size=6))})


ANGLE = st.one_of(st.floats(-7, 7), st.sampled_from([math.pi / 2, -math.pi, 2 * math.pi]),
                  BOUNDARY, st.floats())
NUMBER = st.one_of(st.integers(-3, 3), st.floats(-2, 2), st.floats(), BOUNDARY)
ENTRY = mostly(st.one_of(NUMBER, NUMBER, st.lists(NUMBER, min_size=2, max_size=2)))
ROWS = st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(ENTRY, min_size=d, max_size=d),
                                                    min_size=d, max_size=d))
FUZZ = {
    "poly": (st.one_of(
        st.integers(1, 9).flatmap(lambda n: polys(st.just(n), mostly(st.integers(0, n - 1)))),
        polys(HUGE, st.integers(0, 9)), polys(mostly(st.integers(0, 9)), SCALAR), ANY_JSON), [
        ("gap", "--poly"), ("count", "--method", "brute", "--poly"),
        ("count", "--method", "lptwy", "--free-vars", "1", "--poly"),
        ("iqp", "--poly"), ("iqp", "--shifted", "--poly"), ("iqp", "--distribution", "--poly"),
        ("qaoa", "--acceptance", "--poly"), ("sgap-classify", "--poly"),
        ("harness-a", "--epsilon", "0.1", "--poly"),
        ("harness-a", "--epsilon", "0.1", "--trials", "2", "--seed", "1", "--poly"),
        ("reduce", "--verify", "--poly"), ("avg-reduce", "--seed", "1", "--poly"),
        ("avg-reduce", "--certificate", "--poly")]),
    "circuit": (st.one_of(st.integers(1, 6).flatmap(circuits_on), circuits_on(3_000_000),
                          ANY_JSON), [
        ("simulate", "--amplitude", "1", "--circuit"),
        ("simulate", "--amplitude", "0x7", "--circuit"),
        ("simulate", "--distribution", "--circuit"),
        ("simulate", "--samples", "3", "--seed", "1", "--circuit")]),
    "matrix": (st.one_of(ROWS, ROWS.map(lambda rows: {"matrix": rows}), ANY_JSON), [
        ("permanent", "--method", "ryser", "--matrix"),
        ("permanent", "--method", "naive", "--matrix"), ("boson-encode", "--matrix"),
        ("fock-amp", "--in", "1,0", "--out", "0,1", "--unitary")]),
}


@pytest.mark.parametrize("kind", FUZZ)
def test_every_file_input_exits_cleanly_with_strict_json(kind):
    docs, commands = FUZZ[kind]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(command=st.sampled_from(commands), doc=docs)
    def check(command, doc):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            for name, value in FUZZ_CAPS.items():
                mp.setenv("GAPBENCH_" + name, str(value))
            path = Path(tmp) / "in.json"
            path.write_text(json.dumps(doc))
            code = dispatch([*command, str(path), "--format", "structured"])
        assert code in (0, 1, 2)
        strict_records(out.getvalue())

    check()
