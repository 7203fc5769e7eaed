"""Command-line front end with structured, diffable output.

Each subcommand is a thin adapter: it parses and checks its arguments,
loads its inputs, calls the library, formats the result, and writes any
file asked for.  The library returns plain data and neither prints nor
writes files: `reproduce.run` returns the reproduction records, which
`reproduce` renders and stores as report.jsonl, and
`circuits.decision_harness` returns the `harness-a` record.  The record
format (schema tag, JSON conversion) lives here alone.

Resource caps are not handled here either: every exponential routine
checks its own cap through `config`, which reads it from the
environment, so a cap overrun or a malformed override surfaces as a
domain error.

Output comes in two formats: `human` (readable lines) and `structured`
(line-delimited JSON records carrying a schema version).  Structured
output is byte-identical across runs with the same inputs; wall-clock
timings are therefore opt-in via --timings and never enter the
reproduction report.

Exit codes: 0 success, 1 domain error (bad input values, cap overruns,
unreadable files), 2 usage error (bad grammar, missing required flags).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import avgcase, circuits, config, cyclecover, estimator, fastcount
from . import gapdist, jsoninput, permanents, poly3, reproduce, statevector

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Grammar-level problem that argparse cannot see (exit code 2)."""


# ------------------------------------------------------------------ output


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _record_line(record: dict) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **_jsonable(record)}, sort_keys=True)


class Output:
    """Dual-format emitter; handlers pass a record plus a human line."""

    def __init__(self, fmt: str):
        self.fmt = fmt

    def emit(self, record: dict, human: str | None = None) -> None:
        if self.fmt == "structured":
            print(_record_line(record))
        elif human is not None:
            print(human)

    def error(self, exc: Exception) -> None:
        if self.fmt == "structured":
            print(_record_line({"error": {"type": type(exc).__name__,
                                          "message": str(exc)}}))
        else:
            print(f"error: {exc}", file=sys.stderr)


# ------------------------------------------------------------------ loaders


def _load_poly(path: str) -> poly3.Poly3:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return poly3.loads(text)
    indices = [int(m) for m in re.findall(r"x\s*(\d+)", text)]
    if not indices:
        raise poly3.ParseError(f"{path}: no variables found in polynomial text")
    return poly3.parse_poly(text, max(indices))


def _load_matrix(path: str) -> list:
    # The file's rows, [re, im] pairs read as complex numbers.  Only the JSON
    # is checked here: permanents checks the shape and picks the number type.
    data = jsoninput.parse(Path(path).read_text(), path)
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValueError(f"{path}: expected a nested array of matrix rows")

    def entry(e):
        if not isinstance(e, list):
            return jsoninput.number(e, f"{path}: matrix entry", exact=True)
        if len(e) != 2:
            raise ValueError(f"{path}: complex matrix entries must be [re, im] pairs")
        return complex(*(jsoninput.number(x, f"{path}: [re, im] entry") for x in e))

    return [[entry(e) for e in row] for row in data]


def _parse_occupancy(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"occupancies must be comma-separated integers, got {text!r}")


def _parse_rate(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(Fraction(int(num), int(den)))
        return float(text)
    except (ValueError, ArithmeticError):
        raise UsageError(f"--oracle corrupt:RATE wants a number or a fraction p/q, "
                         f"got {text!r}") from None


def _require_seed(args: argparse.Namespace, why: str) -> int:
    if getattr(args, "seed", None) is None:
        raise UsageError(f"--seed is required: {why}")
    return args.seed


# --------------------------------------------------------------- handlers


def _cmd_gap(args, out: Output) -> int:
    f = _load_poly(args.poly)
    const = 0  # pinning a bare x_i to 1 leaves the constant 1 beside f
    for spec in args.restrict or []:
        var, _, bit = spec.partition("=")
        try:
            j, b = int(var), int(bit)
        except ValueError:
            raise UsageError(f"--restrict wants x<i>=<0|1>, got {spec!r}")
        f, c = poly3.restrict_with_constant(f, j - 1, b)
        const ^= c
    if const and args.emit_json:
        raise ValueError("--emit-json: the JSON form has no constant term")
    gap = poly3.gap_bruteforce(f)
    if const:
        gap = -gap
    zeros = ((1 << f.n) + gap) // 2
    record = {
        "gap": gap,
        "zeros": zeros,
        "ones": (1 << f.n) - zeros,
        "n": f.n,
        "terms": len(f.terms),
        "term_budget": poly3.max_terms(f.n),
        "text": poly3.to_text(f) + (" + 1" if const else ""),
    }
    extra = ""
    if args.assign is not None:
        value = poly3.evaluate(f, args.assign) ^ const
        record["value_at"] = {"assignment": args.assign, "value": value}
        extra = f"; f({args.assign:#x}) = {value}"
    if args.emit_json:
        Path(args.emit_json).write_text(poly3.dumps(f))
        record["emitted"] = args.emit_json
    out.emit(record, f"gap = {gap} (n={f.n}, zeros={record['zeros']}, "
                     f"ones={record['ones']}){extra}")
    return 0


def _cmd_count(args, out: Output) -> int:
    f = _load_poly(args.poly)
    if args.method == "brute":
        gap = poly3.gap_bruteforce(f)  # its cap check comes before 2^n is formed
        ones = ((1 << f.n) - gap) // 2
    else:
        if args.free_vars is None:
            raise UsageError("--free-vars is required for --method lptwy")
        ones = fastcount.count_ones_lptwy(f, args.free_vars)
    total = 1 << f.n
    record = {"method": args.method, "count": ones, "zeros": total - ones,
              "gap": total - 2 * ones, "n": f.n}
    if args.free_vars is not None:
        record["free_vars"] = args.free_vars
    if args.check_bound:
        if args.bound_delta is None:
            raise UsageError("--bound-delta is required with --check-bound")
        b = fastcount.monomial_bound_check(f.n, args.bound_delta)
        record["monomial_bound"] = {"m_value": b.m_value, "m_log2": b.m_log2,
                                    "threshold_log2": b.threshold_log2,
                                    "holds": b.holds}
    out.emit(record, f"ones = {ones}, zeros = {total - ones}, "
                     f"gap = {total - 2 * ones} ({args.method})")
    return 0


def _cmd_simulate(args, out: Output) -> int:
    if args.samples is not None and args.samples < 0:
        raise UsageError("--samples must be nonnegative")
    circ = statevector.circuit_loads(Path(args.circuit).read_text())
    if args.samples is not None:
        seed = _require_seed(args, "sampling draws random outcomes")
    # refuse before simulating: an amplitude needs an index in range, and
    # the other modes read the whole distribution, and sampling also makes
    # a --samples-long array
    if args.amplitude is not None:
        statevector.check_index(circ.q, args.amplitude)
    else:
        config.check("DIST_CAP", circ.q, "full_distribution: q")
        if args.samples is not None:
            config.check_sample_size(args.samples, "sample: size")
    state = statevector.run(circ)
    if args.amplitude is not None:
        amp = statevector.amplitude(state, args.amplitude)
        out.emit({"amplitude": amp, "index": args.amplitude,
                  "norm": statevector.norm(state), "qubits": circ.q},
                 f"amp[{args.amplitude}] = {amp.real:+.6f}{amp.imag:+.6f}j")
    elif args.distribution:
        probs = statevector.full_distribution(state)
        out.emit({"distribution": probs, "qubits": circ.q},
                 " ".join(f"{p:.6f}" for p in probs))
    else:
        draws = statevector.sample(state, np.random.default_rng(seed), size=args.samples)
        out.emit({"samples": draws, "qubits": circ.q, "seed": seed},
                 " ".join(str(int(d)) for d in draws))
    return 0


def _cmd_iqp(args, out: Output) -> int:
    f = _load_poly(args.poly)
    if not args.distribution and not args.emit_circuit:
        args.amplitude = True
    # the library refuses an oversized n before it builds a circuit, so the
    # amplitude or distribution comes before the circuit built here
    record = {"n": f.n}
    human = ""
    if args.distribution:
        probs = circuits.class_distribution(poly3.strip_linear(f))
        record["distribution"] = probs
        human = " ".join(f"{p:.6f}" for p in probs)
    elif args.amplitude:
        fn = circuits.iqp_shifted_amplitude if args.shifted else circuits.iqp_gap_amplitude
        amp = fn(f)
        scaled = amp.real * (1 << f.n)
        record.update({"amplitude": amp, "scaled": scaled,
                       "shifted": bool(args.shifted)})
        human = f"amplitude = {amp.real:+.8f}{amp.imag:+.8f}j, 2^n * amp = {scaled:+.4f}"
    circ = circuits.build_iqp(f)
    record["gates"] = len(circ.gates)
    if args.emit_circuit:
        Path(args.emit_circuit).write_text(statevector.circuit_dumps(circ))
        record["emitted"] = args.emit_circuit
        human = human or f"circuit written to {args.emit_circuit}"
    out.emit(record, human)
    return 0


def _cmd_qaoa(args, out: Output) -> int:
    f = _load_poly(args.poly)
    # as in iqp, the acceptance refuses an oversized n before any building
    acc = circuits.qaoa_acceptance(f) if args.acceptance else None
    spec = circuits.build_qaoa(f)
    record = {"n": f.n, "qubits": spec.q, "constraints": spec.constraint_count,
              "gamma": circuits.GAMMA, "beta": circuits.BETA}
    human = f"qubits = {spec.q}, constraints = {spec.constraint_count}"
    if args.emit_circuit:
        circ = circuits.qaoa_to_circuit(spec)
        Path(args.emit_circuit).write_text(statevector.circuit_dumps(circ))
        record["emitted"] = args.emit_circuit
    if args.acceptance:
        gap = poly3.gap_bruteforce(f)
        record.update({"acceptance": acc, "gap": gap})
        if gap:
            record["acceptance_over_gap_sq"] = acc / gap**2
        human = f"acceptance = {acc:.10f} (gap = {gap})"
    out.emit(record, human)
    return 0


def _cmd_sgap_classify(args, out: Output) -> int:
    f = _load_poly(args.poly)
    gap = poly3.gap_bruteforce(f)
    label = circuits.classify_from_gap(gap, f.n)
    record = {"label": label, "gap": gap, "n": f.n, "gap_route_label": label}
    out.emit(record, f"{label} (gap = {gap})")
    return 0


def _cmd_harness_a(args, out: Output) -> int:
    f = _load_poly(args.poly)
    if args.epsilon < 0:
        raise UsageError("--epsilon must be nonnegative")
    if not math.isfinite(args.epsilon):
        raise UsageError("--epsilon must be finite")
    if args.trials is not None and args.trials <= 0:
        raise UsageError("--trials must be positive")
    if args.trials is None and f.n > circuits.EXHAUSTIVE_LIMIT:
        raise UsageError(f"--trials is required beyond {circuits.EXHAUSTIVE_LIMIT} variables")
    seed = None
    if args.trials is not None:
        seed = _require_seed(args, "sampled mode draws class members")
    record = circuits.decision_harness(f, args.epsilon, args.trials, seed)
    out.emit(record, f"correct {record['correct']}/{record['promise_members']} = "
                     f"{record['correct_fraction']:.4f} "
                     f"(floor {record['robustness_floor']:.4f}) "
                     f"{'ok' if record['ok'] else 'VIOLATION'}")
    return 0


def _cmd_permanent(args, out: Output) -> int:
    rows = _load_matrix(args.matrix)
    if args.method == "naive":
        value = permanents.permanent_naive(rows)
    else:
        value = permanents.permanent_ryser(rows)
    record = {"method": args.method, "dimension": len(rows), "permanent": value}
    if isinstance(value, complex):
        human = f"per = {value.real:+.10f}{value.imag:+.10f}j"
    else:
        human = f"per = {value}"
    out.emit(record, human)
    return 0


def _cmd_boson_encode(args, out: Output) -> int:
    enc = permanents.encode_permanent(_load_matrix(args.matrix), c=args.scale)
    dil = enc.dilation
    record = {
        "dimension": dil.n,
        "modes": 2 * dil.n,
        "scale": dil.scale,
        "default_scale": dil.default_scale,
        "spectral_norm": dil.norm,
        "unitarity_defect": permanents.unitarity_defect(dil.unitary),
        "amplitude": enc.amplitude,
    }
    if args.scale is None:
        record["scale_check"] = abs(dil.default_scale - dil.scale)
    if args.emit_unitary:
        Path(args.emit_unitary).write_text(
            json.dumps(_jsonable(dil.unitary), sort_keys=True))
        record["emitted"] = args.emit_unitary
    out.emit(record, f"scale = {dil.scale:.6f}, defect = {record['unitarity_defect']:.3e}, "
                     f"amplitude = {enc.amplitude.real:+.8f}{enc.amplitude.imag:+.8f}j")
    return 0


def _cmd_fock_amp(args, out: Output) -> int:
    rows = _load_matrix(args.unitary)
    occ_in = _parse_occupancy(args.occ_in)
    occ_out = _parse_occupancy(args.occ_out)
    amp = permanents.fock_amplitude(rows, occ_in, occ_out)
    record = {"amplitude": amp, "occ_in": occ_in, "occ_out": occ_out,
              "photons": sum(occ_in)}
    out.emit(record, f"amplitude = {amp.real:+.10f}{amp.imag:+.10f}j")
    return 0


def _cmd_reduce(args, out: Output) -> int:
    f = _load_poly(args.poly)
    graph = cyclecover.build_graph(f)
    record = {"n": f.n, "nodes": graph.node_count, "terms": graph.term_count,
              "node_count_formula": cyclecover.node_count(f)}
    human = f"nodes = {graph.node_count}, terms = {graph.term_count}"
    if args.emit_matrix:
        Path(args.emit_matrix).write_text(
            json.dumps(cyclecover.matrix_to_json_dict(graph), sort_keys=True))
        record["emitted"] = args.emit_matrix
    if args.verify:
        check = cyclecover.verify_reduction(f)
        record["verify"] = {"ok": check.ok, "perm": check.perm,
                            "expected": check.expected}
        human += f"; perm = {check.perm}, expected = {check.expected}, " \
                 f"ok = {str(check.ok).lower()}"
    out.emit(record, human)
    return 0


def _refuse_sampling_flags(args, where: str) -> None:
    for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value is not None:
            raise UsageError(f"{flag} does not apply to {where}: it is exact")


def _cmd_stats(args, out: Output) -> int:
    mode = args.mode
    if args.histogram_csv and mode != "moments":
        raise UsageError(f"--histogram-csv does not apply to --mode {mode}")
    if mode in ("subspaces", "masspoly"):
        _refuse_sampling_flags(args, f"--mode {mode}")
    if mode in ("moments", "promise") and args.samples is not None and args.samples <= 0:
        raise UsageError("--samples must be positive")
    if mode == "moments":
        if args.n is None or args.k is None:
            raise UsageError("--n and --k are required for --mode moments")
        if args.samples is None:
            report = gapdist.exact_moment(args.n, args.k)
        else:
            seed = _require_seed(args, "sampled moments draw random coefficients")
            report = gapdist.sampled_moment(args.n, args.k, args.samples, seed)
        record = {
            "mode": mode, "n": report.n, "k": report.k, "kind": report.kind,
            "value": float(report.value), "samples": report.samples,
            "std_error": report.std_error,
            "gaussian_target": gapdist.gaussian_moment_target(report.k),
        }
        if isinstance(report.value, Fraction):
            record["value_exact"] = report.value
        if args.histogram_csv:
            seed = _require_seed(args, "histograms are sampled")
            if args.samples is None:
                raise UsageError("--samples is required with --histogram-csv")
            hist = gapdist.gap_histogram(args.n, args.samples, seed)
            lines = ["gap,count"] + [f"{g},{c}" for g, c in hist]
            Path(args.histogram_csv).write_text("\n".join(lines) + "\n")
            record["histogram_csv"] = args.histogram_csv
        out.emit(record, f"moment(n={report.n}, k={report.k}) = {float(report.value):.6f} "
                         f"[{report.kind}] gaussian target {record['gaussian_target']}")
    elif mode == "promise":
        if args.n is None:
            raise UsageError("--n is required for --mode promise")
        if args.n <= gapdist._EXACT_N_CAP:
            _refuse_sampling_flags(args, f"--mode promise at n <= {gapdist._EXACT_N_CAP}")
        if args.samples is not None:
            _require_seed(args, "sampled promise statistics draw random coefficients")
        report = gapdist.promise_stats(args.n, samples=args.samples, seed=args.seed)
        record = {
            "mode": mode, "n": report.n, "kind": report.kind,
            "yes": float(report.yes_fraction), "no": float(report.no_fraction),
            "nonpromise": float(report.nonpromise_fraction),
            "p0": float(report.p0), "samples": report.samples,
            "yes_se": report.yes_se, "no_se": report.no_se, "p0_se": report.p0_se,
        }
        if isinstance(report.yes_fraction, Fraction):
            record["exact"] = {"yes": report.yes_fraction, "no": report.no_fraction,
                               "nonpromise": report.nonpromise_fraction,
                               "p0": report.p0}
        out.emit(record, f"yes = {record['yes']:.4f}, no = {record['no']:.4f}, "
                         f"nonpromise = {record['nonpromise']:.4f}, p0 = {record['p0']:.4f}")
    elif mode == "subspaces":
        if args.k is None:
            raise UsageError("--k is required for --mode subspaces")
        degree = args.degree or 3
        count = gapdist.count_condition_subspaces(args.k, degree)
        record = {"mode": mode, "k": args.k, "degree": degree, "subspaces": count}
        human = f"subspaces(k={args.k}, degree={degree}) = {count}"
        if args.n is not None:
            sols = gapdist.count_matrix_solutions(args.n, args.k)
            record["matrix_solutions"] = sols
            record["n"] = args.n
            human += f"; matrix solutions(n={args.n}) = {sols}"
        out.emit(record, human)
    else:
        mp = gapdist.mass_poly()
        c_sum = float(mp.c_sum())
        record = {
            "mode": mode,
            "a": float(mp.a_value),
            "c": list(mp.c),
            "c_sum": c_sum,
            "degree": len(mp.x_coeffs) - 1,
            "grid_max_excess": float(mp.grid_max_excess()),
            "boundary_value": float(mp.eval_exact(Fraction(1, 4))),
        }
        out.emit(record, f"sum c_j = {c_sum:.8f}, a = {record['a']:.6g}, "
                         f"grid excess = {record['grid_max_excess']:.2e}")
    return 0


def _cmd_avg_reduce(args, out: Output) -> int:
    f = _load_poly(args.poly)
    if args.certificate:
        cert = avgcase.find_certificate(f)
        record = {"n": f.n, "certificate_size": avgcase.certificate_size(f.n),
                  "found": cert is not None}
        if cert is not None:
            record["verified"] = avgcase.certificate_verify(
                lambda xs: poly3.evaluate_points(f, xs), f.n, cert)
            record["points"] = cert.tolist()
        out.emit(record, f"certificate {'found' if cert is not None else 'absent'} "
                         f"(size {record['certificate_size']})")
        return 0
    seed = _require_seed(args, "the reduction randomizes linear parts")
    if args.oracle == "exact":
        oracle = avgcase.exact_oracle()
    else:
        m = re.fullmatch(r"corrupt:(.+)", args.oracle)
        if not m:
            raise UsageError("--oracle must be 'exact' or 'corrupt:RATE'")
        rho = _parse_rate(m.group(1))
        oracle = avgcase.make_corrupt_oracle(rho, seed + 1)
    rng = np.random.default_rng(seed)
    claimed = avgcase.gap_from_quasi_avg_oracle(f, oracle, rng)
    true_gap = poly3.gap_bruteforce(f)
    record = {"n": f.n, "claimed_gap": claimed, "true_gap": true_gap,
              "match": claimed == true_gap, "oracle": args.oracle,
              "oracle_calls": oracle.calls,
              "corrupted_calls": oracle.corrupted_calls, "seed": seed}
    out.emit(record, f"claimed = {claimed}, true = {true_gap}, "
                     f"calls = {oracle.calls}, corrupted = {oracle.corrupted_calls}")
    return 0


def _cmd_sb_accept(args, out: Output) -> int:
    thresholds = avgcase.SbThresholds.for_n(args.n)
    log_accept = avgcase.sb_acceptance_exact(args.gap, args.n, L=args.repetitions)
    record = {
        "n": args.n, "gap": args.gap, "log_accept": log_accept,
        "L": args.repetitions if args.repetitions is not None else thresholds.L,
        "log_t": thresholds.log_t,
        "log_t_over_c": thresholds.log_t_over_c,
        "yes_threshold_gap": avgcase.yes_threshold_gap(args.n),
        "no_threshold_gap": avgcase.no_threshold_gap(args.n),
    }
    record["meets_yes_threshold"] = log_accept >= thresholds.log_t
    record["below_no_threshold"] = log_accept <= thresholds.log_t_over_c
    out.emit(record, f"log accept = {log_accept:.6f}, log t = {thresholds.log_t:.6f}, "
                     f"log t/c = {thresholds.log_t_over_c:.6f}")
    return 0


_ESTIMATE_TABLE_HEADER = (
    f"{'model':<12} {'constant':>8} {'mode':<12} {'q':>5} {'gates':>12} "
    f"{'log2 bound':>10} {'target':>8}"
)


def _estimate_row(r: dict) -> str:
    row = (f"{r['model']:<12} {r['constant']:>8.4g} {r['mode']:<12} {r['q']:>5} "
           f"{r['gates_display']:>12} {r['log2_bound']:>10.3f} {r['log2_target']:>8.3f}")
    return row + ("  [non-default constants]" if r.get("non_default_constants") else "")


def _cmd_estimate(args, out: Output) -> int:
    if args.weaken is not None and not math.isfinite(args.weaken):
        raise UsageError("--weaken must be finite")
    models = list(estimator.MODELS) if args.model == "all" else [args.model]
    horizon = args.horizon_years * estimator.SECONDS_PER_YEAR
    if args.format == "human":
        print(_ESTIMATE_TABLE_HEADER)
    for model in models:
        params = estimator.EstimateParams(
            model=model, constant=args.constant, flops=args.flops,
            horizon_seconds=horizon, per_element=args.per_element,
            budget=args.budget)
        # a weakening that cannot be computed is refused before the row
        rep = None if args.weaken is None else estimator.conjecture_weakening(
            params, args.weaken, args.weaken_mode)
        record = (rep.base if rep else estimator.estimate(params)).as_record()
        out.emit(record, _estimate_row(record))
        if rep:
            out.emit({"weakening": {"d": rep.d, "mode": rep.mode,
                                    "base_q": rep.base.q,
                                    "weakened_q": rep.weakened.q,
                                    "delta_q": rep.delta_q},
                      "model": model},
                     f"  weakened by d={rep.d:g} ({rep.mode}): "
                     f"q {rep.base.q} -> {rep.weakened.q} (+{rep.delta_q})")
    return 0


def _reproduce_line(r: dict) -> str | None:
    if r["record"] == "criterion":
        return f"{'PASS' if r['ok'] else 'FAIL'}  {r['name']}"
    if r["record"] == "summary":
        return f"{'ok' if r['ok'] else 'FAILED'}: {r['passed']}/{r['criteria']} criteria"
    if r.get("table") == "estimates":
        return _estimate_row(r)
    return None


def _cmd_reproduce(args, out: Output) -> int:
    records = reproduce.run(seed=args.seed, constant=args.constant)
    for record in records:
        out.emit(record, _reproduce_line(record))
    out_path = Path(args.out)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "report.jsonl").write_text("".join(_record_line(r) + "\n" for r in records))
    return 0 if records[-1]["ok"] else 1


# ------------------------------------------------------------- registry


_HANDLERS = {
    "gap": _cmd_gap,
    "count": _cmd_count,
    "simulate": _cmd_simulate,
    "iqp": _cmd_iqp,
    "qaoa": _cmd_qaoa,
    "sgap-classify": _cmd_sgap_classify,
    "harness-a": _cmd_harness_a,
    "permanent": _cmd_permanent,
    "boson-encode": _cmd_boson_encode,
    "fock-amp": _cmd_fock_amp,
    "reduce": _cmd_reduce,
    "stats": _cmd_stats,
    "avg-reduce": _cmd_avg_reduce,
    "sb-accept": _cmd_sb_accept,
    "estimate": _cmd_estimate,
    "reproduce": _cmd_reproduce,
}


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "structured"),
                        default="human", help="output format")
    common.add_argument("--timings", action="store_true",
                        help="append wall-clock timing (breaks byte determinism)")

    parser = argparse.ArgumentParser(prog="gapbench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gap", parents=[common],
                       help="signed zero/one imbalance of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--assign", type=lambda s: int(s, 0),
                   help="also evaluate at this assignment bitmask")
    p.add_argument("--restrict", action="append", metavar="I=B",
                   help="pin variable x<I> (1-based) to bit B before computing")
    p.add_argument("--emit-json", metavar="PATH",
                   help="write the canonical serialized form")

    p = sub.add_parser("count", parents=[common],
                       help="count satisfying assignments")
    p.add_argument("--poly", required=True)
    p.add_argument("--method", choices=("brute", "lptwy"), required=True)
    p.add_argument("--free-vars", type=int)
    p.add_argument("--check-bound", action="store_true",
                   help="also report the monomial-count bound")
    p.add_argument("--bound-delta", type=float)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a circuit file on the statevector engine")
    p.add_argument("--circuit", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--amplitude", type=lambda s: int(s, 0), metavar="IDX")
    mode.add_argument("--distribution", action="store_true")
    mode.add_argument("--samples", type=int, metavar="K")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("iqp", parents=[common],
                       help="diagonal-gate circuit family for a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--amplitude", action="store_true")
    p.add_argument("--distribution", action="store_true")
    p.add_argument("--shifted", action="store_true",
                   help="amplitude at the linear-part output index")
    p.add_argument("--emit-circuit", metavar="PATH")

    p = sub.add_parser("qaoa", parents=[common],
                       help="constraint-encoding circuit and its acceptance")
    p.add_argument("--poly", required=True)
    p.add_argument("--acceptance", action="store_true")
    p.add_argument("--emit-circuit", metavar="PATH")

    p = sub.add_parser("sgap-classify", parents=[common],
                       help="squared-gap promise label")
    p.add_argument("--poly", required=True)

    p = sub.add_parser("harness-a", parents=[common],
                       help="one-query decision robustness over a hiding class")
    p.add_argument("--poly", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int,
                   help="sample this many class members instead of sweeping")

    p = sub.add_parser("permanent", parents=[common],
                       help="matrix permanent")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("naive", "ryser"), required=True,
                   help="naive: the permutation sum; ryser: one inclusion-exclusion kernel, "
                        "Ryser's 0/1 subset sums for integer matrices (zero subsets skipped) "
                        "and Glynn's +-1 sign vectors for real or complex ones, half the "
                        "terms, so floating results may differ from a Ryser sum in the last bits")

    p = sub.add_parser("boson-encode", parents=[common],
                       help="embed a matrix in a unitary whose amplitude is its permanent")
    p.add_argument("--matrix", required=True)
    p.add_argument("--scale", type=float)
    p.add_argument("--emit-unitary", metavar="PATH")

    p = sub.add_parser("fock-amp", parents=[common],
                       help="photonic transition amplitude")
    p.add_argument("--unitary", required=True)
    p.add_argument("--in", dest="occ_in", required=True, metavar="R")
    p.add_argument("--out", dest="occ_out", required=True, metavar="R'")

    p = sub.add_parser("reduce", parents=[common],
                       help="gadget-graph reduction from gap to permanent")
    p.add_argument("--poly", required=True)
    p.add_argument("--emit-matrix", metavar="PATH")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("stats", parents=[common],
                       help="distribution statistics of the gap ensemble")
    p.add_argument("--mode", choices=("moments", "promise", "subspaces", "masspoly"),
                   required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--degree", type=int, choices=(2, 3))
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--histogram-csv", metavar="PATH")

    p = sub.add_parser("avg-reduce", parents=[common],
                       help="recover a gap through a randomized oracle reduction")
    p.add_argument("--poly", required=True)
    p.add_argument("--oracle", default="exact", metavar="{exact,corrupt:RATE}")
    p.add_argument("--seed", type=int)
    p.add_argument("--certificate", action="store_true",
                   help="find and verify an imbalance certificate instead")

    p = sub.add_parser("sb-accept", parents=[common],
                       help="tiny-threshold acceptance probability in log space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--repetitions", type=int, metavar="L")

    p = sub.add_parser("estimate", parents=[common],
                       help="qubit/photon counts from hardness constants")
    p.add_argument("--model", choices=estimator.MODELS + ("all",), required=True)
    p.add_argument("--constant", type=float)
    p.add_argument("--flops", type=float, default=estimator.DEFAULT_FLOPS)
    p.add_argument("--horizon-years", type=float,
                   default=estimator.DEFAULT_HORIZON / estimator.SECONDS_PER_YEAR)
    p.add_argument("--per-element", action="store_true")
    p.add_argument("--budget", type=float, default=estimator.DEFAULT_BUDGET)
    p.add_argument("--weaken", type=float, metavar="D")
    p.add_argument("--weaken-mode", choices=("divide-constant", "divide-prefactor"),
                   default="divide-constant")

    p = sub.add_parser("reproduce", parents=[common],
                       help="regenerate every headline table and check it")
    p.add_argument("--out", default="reproduce_out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constant", type=float,
                   help="override the hardness constants (rows get flagged)")

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Output(args.format)
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.subcommand](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, KeyError, OSError,
            np.linalg.LinAlgError) as exc:
        out.error(exc)
        return 1
    if args.timings:
        elapsed = time.perf_counter() - started
        out.emit({"record": "timing", "elapsed_s": elapsed},
                 f"elapsed: {elapsed:.3f} s")
    return code


def main() -> int:
    return dispatch()


if __name__ == "__main__":
    sys.exit(main())
