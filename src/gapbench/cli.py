"""Command-line front end with structured, diffable output.

Each subcommand is a thin adapter: it loads its inputs, calls the
library, and formats the result.  Resource caps are not handled here;
every exponential routine checks its own cap through `config`, which
reads it from the environment, so a cap overrun or a malformed override
surfaces as a domain error.
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
from . import gapdist, permanents, poly3, statevector

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
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
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


def _load_matrix(path: str) -> np.ndarray:
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data["matrix"]
    if not data or not isinstance(data[0], list):
        raise ValueError(f"{path}: expected a nested array of matrix rows")

    def entry(e):
        if isinstance(e, list):
            if len(e) != 2:
                raise ValueError("complex entries must be [re, im] pairs")
            return complex(e[0], e[1])
        return e

    rows = [[entry(e) for e in row] for row in data]
    flat = [e for row in rows for e in row]
    if all(isinstance(e, int) for e in flat):
        return np.array(rows, dtype=np.int64)
    if any(isinstance(e, complex) for e in flat):
        return np.array(rows, dtype=np.complex128)
    return np.array(rows, dtype=np.float64)


def _matrix_json(a: np.ndarray) -> list:
    if np.iscomplexobj(a):
        return [[[float(e.real), float(e.imag)] for e in row] for row in a]
    if np.issubdtype(a.dtype, np.integer):
        return [[int(e) for e in row] for row in a]
    return [[float(e) for e in row] for row in a]


def _parse_occupancy(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"occupancies must be comma-separated integers, got {text!r}")


def _parse_rate(text: str) -> float:
    if "/" in text:
        num, den = text.split("/", 1)
        return float(Fraction(int(num), int(den)))
    return float(text)


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
        if f is None:
            raise ValueError(f"variable index {j - 1} out of range [0, 0)")
        if f.n == 1 and j == 1 and b in (0, 1):
            # pinning the last variable leaves the constant f(b) on no variables
            f, c = None, poly3.evaluate(f, b)
        else:
            f, c = poly3.restrict_with_constant(f, j - 1, b)
        const ^= c
    if const and args.emit_json:
        raise ValueError("--emit-json: the JSON form has no constant term")
    if args.emit_json and f is None:
        raise ValueError("--emit-json: the JSON form needs at least one variable")
    if f is None and args.assign not in (None, 0):
        raise ValueError(f"assignment {args.assign} out of range for 0 variables")
    n = f.n if f else 0
    gap = poly3.gap_bruteforce(f) if f else 1
    if const:
        gap = -gap
    zeros = ((1 << n) + gap) // 2
    record = {
        "gap": gap,
        "zeros": zeros,
        "ones": (1 << n) - zeros,
        "n": n,
        "terms": f.term_count if f else 0,
        "term_budget": poly3.max_terms(n),
        "text": (poly3.to_text(f) if f else "0") + (" + 1" if const else ""),
    }
    if args.assign is not None:
        value = poly3.evaluate(f, args.assign) if f else 0
        record["value_at"] = {"assignment": args.assign, "value": value ^ const}
    if args.emit_json:
        Path(args.emit_json).write_text(poly3.dumps(f))
        record["emitted"] = args.emit_json
    extra = ""
    if args.assign is not None:
        extra = f"; f({args.assign:#x}) = {record['value_at']['value']}"
    out.emit(record, f"gap = {gap} (n={n}, zeros={record['zeros']}, "
                     f"ones={record['ones']}){extra}")
    return 0


def _cmd_count(args, out: Output) -> int:
    f = _load_poly(args.poly)
    if args.method == "brute":
        ones = ((1 << f.n) - poly3.gap_bruteforce(f)) // 2
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
    # the other modes read the whole distribution
    if args.amplitude is not None:
        statevector.check_index(circ.q, args.amplitude)
    else:
        config.check("DIST_CAP", circ.q, "full_distribution: q")
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
    circ = circuits.build_iqp(f)
    record = {"n": f.n, "gates": len(circ.gates)}
    human = ""
    if args.emit_circuit:
        Path(args.emit_circuit).write_text(statevector.circuit_dumps(circ))
        record["emitted"] = args.emit_circuit
        human = f"circuit written to {args.emit_circuit}"
    if not args.distribution and not args.emit_circuit:
        args.amplitude = True
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
    out.emit(record, human)
    return 0


def _cmd_qaoa(args, out: Output) -> int:
    f = _load_poly(args.poly)
    spec = circuits.build_qaoa(f)
    record = {"n": f.n, "qubits": spec.q, "constraints": spec.constraint_count,
              "gamma": spec.gamma, "beta": spec.beta}
    human = f"qubits = {spec.q}, constraints = {spec.constraint_count}"
    if args.emit_circuit:
        circ = circuits.qaoa_to_circuit(spec)
        Path(args.emit_circuit).write_text(statevector.circuit_dumps(circ))
        record["emitted"] = args.emit_circuit
    if args.acceptance:
        acc = circuits.qaoa_acceptance(f)
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
    eps = args.epsilon
    if eps < 0:
        raise UsageError("--epsilon must be nonnegative")
    if args.trials is not None and args.trials <= 0:
        raise UsageError("--trials must be positive")
    thresholds = circuits.SgapThresholds.for_n(f.n)
    fbar = poly3.strip_linear(f)

    def gap_at(delta: int) -> int:
        return poly3.gap_bruteforce(poly3.with_linear(fbar, delta))

    exhaustive = args.trials is None and f.n <= 12
    if exhaustive:
        deltas = list(range(1 << f.n))
        # one simulation serves every member's probability
        provider = circuits.ExactProvider()
        exact = {d: provider(fbar, d) for d in deltas}
        labels = {d: circuits.classify_from_gap(gap_at(d), f.n) for d in deltas}
        # the adversary spreads a total budget eps over the class distribution
        view, spent, flipped = circuits.greedy_adversary(exact, labels, f.n, eps)

        def perturbed(fb: poly3.Poly3, delta: int) -> float:
            return view[delta]
    else:
        if args.trials is None:
            raise UsageError("--trials is required beyond 12 variables")
        seed = _require_seed(args, "class members are sampled beyond the "
                                   "exhaustive size")
        rng = np.random.default_rng(seed)
        deltas = [int(d) for d in rng.integers(0, 1 << f.n, size=args.trials)]
        # every probability read, the input's own too, is (gap/2^n)^2
        gaps = {d: gap_at(d) for d in {*deltas, poly3.linear_part(f)}}
        labels = {d: circuits.classify_from_gap(g, f.n) for d, g in gaps.items()}
        # greedy flipping needs every class member's probability, which is
        # what a large n rules out; commit each member's fair share of the
        # budget toward the wrong side instead
        share = eps / float(1 << f.n)

        def perturbed(fb: poly3.Poly3, delta: int) -> float:
            p = gaps[delta] ** 2 / 4 ** f.n
            label = labels[delta]
            if label == "YES":
                return max(p - share, 0.0)
            if label == "NO":
                return min(p + share, 1.0)
            return p

    promise = correct = 0
    for delta in deltas:
        member = poly3.with_linear(fbar, delta)
        label = labels[delta]
        decision = circuits.algorithm_a(member, perturbed)
        if label == "NONPROMISE":
            continue
        promise += 1
        # a NO instance pushed into the indeterminate band counts as an
        # error even though the decision still rejects
        if label == "YES":
            correct += decision.accept
        else:
            correct += (not decision.accept) and (not decision.indeterminate)

    fraction = correct / promise if promise else 1.0
    record = {
        "n": f.n,
        "mode": "exhaustive" if exhaustive else "sampled",
        "epsilon": eps,
        "promise_members": promise,
        "correct": correct,
        "correct_fraction": fraction,
        "robustness_floor": 1.0 - 60.0 * eps,
        "ok": fraction >= 1.0 - 60.0 * eps,
        "accept_threshold": thresholds.accept,
        "reject_threshold": thresholds.reject,
    }
    if exhaustive:
        record["budget_spent"] = spent
        record["flipped"] = flipped
        # how far the adversary's view sits from the exact class
        # distribution, once renormalized back to unit mass
        exact_arr = np.array([exact[d] for d in deltas])
        seen = np.array([view[d] for d in deltas])
        err = circuits.distribution_error(seen / seen.sum(), exact_arr)
        record["perturbation"] = {"additive": err.additive,
                                  "multiplicative": err.multiplicative}
    own = circuits.algorithm_a(f, perturbed)
    record["input_decision"] = {"accept": own.accept,
                                "indeterminate": own.indeterminate,
                                "probability": own.probability}
    out.emit(record, f"correct {correct}/{promise} = {fraction:.4f} "
                     f"(floor {record['robustness_floor']:.4f}) "
                     f"{'ok' if record['ok'] else 'VIOLATION'}")
    return 0


def _cmd_permanent(args, out: Output) -> int:
    a = _load_matrix(args.matrix)
    if args.method == "naive":
        value = permanents.permanent_naive(a)
    else:
        value = permanents.permanent_ryser(a)
    record = {"method": args.method, "dimension": int(a.shape[0]), "permanent": value}
    if isinstance(value, complex):
        human = f"per = {value.real:+.10f}{value.imag:+.10f}j"
    else:
        human = f"per = {value}"
    out.emit(record, human)
    return 0


def _cmd_boson_encode(args, out: Output) -> int:
    a = _load_matrix(args.matrix).astype(np.complex128)
    enc = permanents.encode_permanent(a, c=args.scale)
    dil = enc.dilation
    record = {
        "dimension": dil.n,
        "modes": 2 * dil.n,
        "scale": dil.scale,
        "default_scale": permanents.default_scale(a),
        "spectral_norm": permanents.spectral_norm(a),
        "unitarity_defect": permanents.unitarity_defect(dil.unitary),
        "amplitude": enc.amplitude,
    }
    if args.scale is None:
        alt = permanents.dilate(a)
        record["scale_check"] = abs(alt.scale - dil.scale)
    if args.emit_unitary:
        Path(args.emit_unitary).write_text(
            json.dumps(_matrix_json(dil.unitary), sort_keys=True))
        record["emitted"] = args.emit_unitary
    out.emit(record, f"scale = {dil.scale:.6f}, defect = {record['unitarity_defect']:.3e}, "
                     f"amplitude = {enc.amplitude.real:+.8f}{enc.amplitude.imag:+.8f}j")
    return 0


def _cmd_fock_amp(args, out: Output) -> int:
    u = _load_matrix(args.unitary).astype(np.complex128)
    occ_in = _parse_occupancy(args.occ_in)
    occ_out = _parse_occupancy(args.occ_out)
    amp = permanents.fock_amplitude(u, occ_in, occ_out)
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


def _cmd_stats(args, out: Output) -> int:
    mode = args.mode
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
    seed = _require_seed(args, "the reduction randomizes linear parts")
    if args.certificate:
        cert = avgcase.find_certificate(f)
        record = {"n": f.n, "certificate_size": avgcase.certificate_size(f.n),
                  "found": cert is not None}
        if cert is not None:
            points = cert.tolist()
            verified = avgcase.certificate_verify(
                lambda x: poly3.evaluate(f, x), f.n, points)
            record["verified"] = verified
            record["points"] = points
        out.emit(record, f"certificate {'found' if cert is not None else 'absent'} "
                         f"(size {record['certificate_size']})")
        return 0
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


def _estimate_row(e: estimator.Estimate) -> str:
    return (f"{e.model:<12} {e.constant:>8.4g} {e.mode:<12} {e.q:>5} "
            f"{estimator.display_rounded(e.gates):>12} {e.log2_bound:>10.3f} "
            f"{e.log2_target:>8.3f}")


def _estimate_record(e: estimator.Estimate, flagged: bool = False) -> dict:
    record = {
        "model": e.model, "constant": e.constant, "mode": e.mode, "q": e.q,
        "gates": e.gates, "gates_display": estimator.display_rounded(e.gates),
        "log2_bound": e.log2_bound, "log2_target": e.log2_target,
    }
    if flagged:
        record["non_default_constants"] = True
    return record


def _cmd_estimate(args, out: Output) -> int:
    models = list(estimator.MODELS) if args.model == "all" else [args.model]
    horizon = args.horizon_years * estimator.SECONDS_PER_YEAR
    run = estimator.qubits_for_gate_linear if args.per_element \
        else estimator.qubits_for_horizon
    if args.format == "human":
        print(_ESTIMATE_TABLE_HEADER)
    for model in models:
        params = estimator.EstimateParams(
            model=model, constant=args.constant, flops=args.flops,
            horizon_seconds=horizon, per_element=args.per_element,
            budget=args.budget)
        e = run(params)
        out.emit(_estimate_record(e), _estimate_row(e))
        if args.weaken is not None:
            rep = estimator.conjecture_weakening(params, args.weaken,
                                                 args.weaken_mode)
            out.emit({"weakening": {"d": rep.d, "mode": rep.mode,
                                    "base_q": rep.base.q,
                                    "weakened_q": rep.weakened.q,
                                    "delta_q": rep.delta_q},
                      "model": model},
                     f"  weakened by d={rep.d:g} ({rep.mode}): "
                     f"q {rep.base.q} -> {rep.weakened.q} (+{rep.delta_q})")
    return 0


# ------------------------------------------------------------- reproduce


# reference values for the inversion-series coefficients and their sum
_SERIES_REFERENCE = (
    1.0, -6.0672, 29.9730, -114.8688, 345.0021, -829.2997, 1620.0455,
    -2593.7392, 3410.0118, -3665.1216, 3183.4033, -2188.3186, 1149.8164,
    -435.1008, 105.8449, -12.4590,
)
_SERIES_SUM_REFERENCE = 0.1222

_HEADLINE_EXPECTED = {
    ("iqp-mult", "horizon"): 185, ("qaoa-mult", "horizon"): 370,
    ("boson-mult", "horizon"): 93, ("iqp-mult", "per-element"): 208,
    ("qaoa-mult", "per-element"): 420, ("boson-mult", "per-element"): 98,
}
_GATE_DISPLAY_EXPECTED = {
    ("iqp-mult", 185): (1_055_425, "1,060,000"),
    ("qaoa-mult", 370): (2_111_775, "2,110,000"),
    ("boson-mult", 93): (17_391, "17,400"),
}


def reproduce_all(out_dir: str, seed: int = 0, constant: float | None = None,
                  emit=None) -> bool:
    """Regenerate every headline table and check it against its reference.

    Writes a line-delimited report to out_dir/report.jsonl.  A constant
    override regenerates the estimate table with those parameters and
    flags the rows instead of checking them.  Returns overall success.
    """
    records: list[dict] = []

    def push(record: dict, human: str | None = None) -> None:
        records.append(record)
        if emit is not None:
            emit(record, human)

    def criterion(name: str, ok: bool, **details) -> bool:
        push({"record": "criterion", "name": name, "ok": bool(ok), **details},
             f"{'PASS' if ok else 'FAIL'}  {name}")
        return bool(ok)

    push({"record": "config", "seed": seed, "constant": constant})
    results = []

    # estimate table, six rows
    non_default = constant is not None
    all_match = True
    for mode, run in (("horizon", estimator.qubits_for_horizon),
                      ("per-element", estimator.qubits_for_gate_linear)):
        for model in ("iqp-mult", "qaoa-mult", "boson-mult"):
            params = estimator.EstimateParams(
                model=model, constant=constant,
                per_element=(mode == "per-element"))
            e = run(params)
            row = _estimate_record(e, flagged=non_default)
            row["record"] = "table"
            row["table"] = "estimates"
            push(row, _estimate_row(e) + ("  [non-default constants]" if non_default else ""))
            if not non_default:
                all_match &= e.q == _HEADLINE_EXPECTED[(model, mode)]
    if non_default:
        results.append(criterion("estimates", True, skipped=True,
                                 reason="non-default constants"))
    else:
        results.append(criterion("estimates", all_match))

    # gate counts and their rounded display forms
    ok = True
    for (model, q), (gates, shown) in _GATE_DISPLAY_EXPECTED.items():
        got = estimator.gate_count(model, q)
        disp = estimator.display_rounded(got)
        push({"record": "table", "table": "gates", "model": model, "q": q,
              "gates": got, "display": disp})
        ok &= got == gates and disp == shown
    results.append(criterion("gate-display", ok))

    # photonic two-mode fixture: repeated-index permanent and amplitude
    u = np.array([[1, 1j], [-1j, -1]], dtype=np.complex128) / np.sqrt(2)
    per = permanents.permanent_ryser(u[np.ix_([0, 0, 1], [0, 1, 1])])
    amp = permanents.fock_amplitude(u, (2, 1), (1, 2))
    ok = (abs(per - (-1j / math.sqrt(2))) < 1e-12
          and abs(amp - (-1j / (2 * math.sqrt(2)))) < 1e-12)
    push({"record": "table", "table": "photonic", "permanent": per,
          "amplitude": amp})
    results.append(criterion("photonic-fixture", ok))

    # series coefficients of the threshold-mass polynomial
    mp = gapdist.mass_poly()
    coeffs = mp.c
    c_sum = float(mp.c_sum())
    worst = max(abs(c - r) for c, r in zip(coeffs, _SERIES_REFERENCE))
    push({"record": "table", "table": "series", "c": list(coeffs),
          "c_sum": c_sum, "max_deviation": worst})
    results.append(criterion(
        "series-coefficients",
        worst < 5e-4 and abs(c_sum - _SERIES_SUM_REFERENCE) < 5e-5
        and float(mp.grid_max_excess()) <= 0.0))

    # worked three-variable instance, two independent routes to its gap
    f = poly3.parse_poly("x1 + x2 + x1*x2 + x1*x2*x3", 3)
    brute = poly3.gap_bruteforce(f)
    amp_route = circuits.iqp_gap_amplitude(f).real * 8
    push({"record": "table", "table": "instance", "text": poly3.to_text(f),
          "gap": brute, "amplitude_route": amp_route})
    results.append(criterion("instance-gap",
                             brute == -2 and abs(amp_route - brute) < 1e-9))

    # gap = scaled zero-amplitude identity on seeded random instances
    rng = np.random.default_rng(seed)
    ok = True
    checked = 0
    for n in range(2, 7):
        for _ in range(5):
            g = poly3.random_poly(n, rng)
            lhs = circuits.iqp_gap_amplitude(g).real * (1 << n)
            ok &= abs(lhs - poly3.gap_bruteforce(g)) < 1e-6
            checked += 1
    push({"record": "table", "table": "amplitude-identity", "instances": checked})
    results.append(criterion("amplitude-identity", ok))

    # acceptance/gap^2 is constant within each size
    base = circuits.qaoa_acceptance(poly3.Poly3(n=1)) / 4
    ratios = []
    zeros_ok = True
    terms = poly3.all_terms(2)
    for mask in range(1 << len(terms)):
        g = poly3.Poly3.from_terms(2, [t for i, t in enumerate(terms) if mask >> i & 1])
        acc = circuits.qaoa_acceptance(g)
        gap = poly3.gap_bruteforce(g)
        if gap:
            ratios.append(acc / gap**2)
        else:
            zeros_ok &= acc < 1e-12
    spread = max(ratios) - min(ratios)
    push({"record": "table", "table": "qaoa-ratio", "ratio_n1": base,
          "ratio_n2": ratios[0], "spread_n2": spread})
    results.append(criterion("qaoa-ratio",
                             abs(base - 0.125) < 1e-12 and spread < 1e-10
                             and zeros_ok))

    # tiny-threshold acceptance separation at the promise boundary gaps
    ok = True
    for n in (4, 6, 8):
        thr = avgcase.SbThresholds.for_n(n)
        yes_g = avgcase.yes_threshold_gap(n)
        no_g = avgcase.no_threshold_gap(n)
        yes_p = avgcase.sb_acceptance_exact(yes_g, n)
        no_p = avgcase.sb_acceptance_exact(no_g, n)
        push({"record": "table", "table": "sb-thresholds", "n": n,
              "log_t": thr.log_t, "yes_gap": yes_g, "no_gap": no_g,
              "log_accept_yes": yes_p, "log_accept_no": no_p})
        ok &= yes_p >= thr.log_t and no_p <= thr.log_t_over_c
    results.append(criterion("sb-thresholds", ok))

    # sampled promise mass at n = 16
    rep = gapdist.promise_stats(16, samples=20_000, seed=seed)
    promise = float(rep.yes_fraction + rep.no_fraction)
    prom_se = math.sqrt(max(promise * (1 - promise), 1e-12) / rep.samples)
    ok = (promise >= 0.2 - 3 * prom_se
          and float(rep.p0) <= 11 / 12 + 3 * rep.p0_se
          and float(rep.no_fraction) >= 0.05 - 3 * rep.no_se)
    push({"record": "table", "table": "promise", "n": 16,
          "samples": rep.samples, "yes": float(rep.yes_fraction),
          "no": float(rep.no_fraction),
          "nonpromise": float(rep.nonpromise_fraction), "p0": float(rep.p0)})
    results.append(criterion("promise-sample", ok))

    passed = all(results)
    push({"record": "summary", "ok": passed, "criteria": len(results),
          "passed": sum(results)},
         f"{'ok' if passed else 'FAILED'}: {sum(results)}/{len(results)} criteria")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    report = "".join(_record_line(r) + "\n" for r in records)
    (out_path / "report.jsonl").write_text(report)
    return passed


def _cmd_reproduce(args, out: Output) -> int:
    ok = reproduce_all(args.out, seed=args.seed, constant=args.constant,
                       emit=out.emit)
    return 0 if ok else 1


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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int,
                   help="sample this many class members instead of sweeping")

    p = sub.add_parser("permanent", parents=[common],
                       help="matrix permanent")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=("naive", "ryser"), required=True)

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
    p.add_argument("--seed", type=int, required=True)
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
    p.add_argument("--horizon-years", type=float, default=100.0)
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
