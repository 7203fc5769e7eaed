"""Circuit encodings of the gap of a degree-3 GF(2) polynomial.

Two encodings are built here.

* Diagonal-conjugated ("IQP") form on n qubits: a column of H gates, one
  phase gate per monomial (z for degree 1, cz for degree 2, ccz for
  degree 3), and a closing column of H gates.  The amplitude of the
  all-zeros outcome is gap(f)/2^n, and stripping the linear part of f
  moves that amplitude to the basis state indexed by the linear-part
  mask (the output distribution "hides" gap(f) at index delta).

* Constraint ("QAOA") form on 2n qubits with the fixed angles
  GAMMA = pi/2, BETA = pi/4.  Each monomial becomes two copies of an
  all-ones pattern constraint; each original qubit contributes one
  |1><1| constraint and a four-constraint gadget against its ancilla
  that reconstructs the closing H column.  The all-zeros acceptance probability is then
  proportional to gap(f)^2 (the measured ratio is 8^-n).

The module also houses the threshold classifier for the squared-gap
promise problem, the query algorithm that decides it from one output
probability of the hiding circuit, and the harness that measures that
algorithm's robustness over a hiding class under a perturbation budget:
the harness fills one table of (possibly perturbed) probabilities keyed
by linear shift and hands each member's entry to the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import check, check_sample_size
from .poly3 import Poly3, gap_bruteforce, linear_part, strip_linear, with_linear
from .statevector import Circuit, Gate, full_distribution, run

GAMMA = math.pi / 2
BETA = math.pi / 4


# -- diagonal-conjugated form -------------------------------------------------


def build_iqp(f: Poly3) -> Circuit:
    """H column, one phase gate per monomial, H column."""
    gates = [Gate("h", (t,)) for t in range(f.n)]
    for term in f.terms:
        kind = {1: "z", 2: "cz", 3: "ccz"}[len(term)]
        gates.append(Gate(kind, term))
    gates += [Gate("h", (t,)) for t in range(f.n)]
    return Circuit(q=f.n, gates=gates)


def iqp_gap_amplitude(f: Poly3) -> complex:
    """<0...0| C_f |0...0>, which equals gap(f)/2^n.  The simulator's cap
    is checked before the circuit is built."""
    check("SIM_CAP", f.n, "iqp_gap_amplitude: n")
    state = run(build_iqp(f))
    return complex(state[0])


def iqp_shifted_amplitude(f: Poly3) -> complex:
    """Amplitude of C_fbar at the linear-part index of f.

    fbar is f with linear terms removed; the returned amplitude equals
    gap(f)/2^n even though the circuit never sees the linear part.  The
    simulator's cap is checked before the circuit is built.
    """
    check("SIM_CAP", f.n, "iqp_shifted_amplitude: n")
    state = run(build_iqp(strip_linear(f)))
    return complex(state[linear_part(f)])


def class_distribution(fbar: Poly3) -> np.ndarray:
    """Output distribution of C_fbar over all 2^n basis states.

    Entry delta is (gap(fbar + delta.x)/2^n)^2, so one run covers the
    whole linear-shift class of fbar.  The distribution cap is checked
    before the state is simulated.
    """
    check("DIST_CAP", fbar.n, "class_distribution: n")
    return full_distribution(run(build_iqp(fbar)))


# -- constraint form ----------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """A projector onto `pattern` on `targets`, counted `multiplicity` times."""

    targets: tuple[int, ...]
    pattern: tuple[int, ...]
    multiplicity: int

    def __post_init__(self):
        if len(self.targets) != len(self.pattern) or not self.targets:
            raise ValueError("targets and pattern must align and be nonempty")
        if len(self.targets) > 3:
            raise ValueError("constraints act on at most 3 qubits")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class QaoaSpec:
    """2n-qubit constraint program, run at the fixed angles GAMMA and BETA.

    Qubits 0..n-1 carry the polynomial variables, n..2n-1 are the
    gadget ancillas.  Acceptance is the all-zeros outcome.
    """

    q: int
    constraints: tuple[Constraint, ...]

    @property
    def constraint_count(self) -> int:
        return sum(c.multiplicity for c in self.constraints)


def build_qaoa(f: Poly3) -> QaoaSpec:
    """Constraint program whose acceptance probability is 8^-n * gap(f)^2.

    Two constraint copies per monomial implement the phase gates; per
    original qubit, one |1><1| copy and a (3 + 1)-copy two-qubit gadget
    against its ancilla replace the closing H column.  Total count is
    2*terms + 5n.
    """
    n = f.n
    cons: list[Constraint] = []
    for term in f.terms:
        cons.append(Constraint(term, (1,) * len(term), 2))
    for i in range(n):
        cons.append(Constraint((i,), (1,), 1))
        cons.append(Constraint((n + i, i), (0, 1), 3))
        cons.append(Constraint((n + i, i), (1, 1), 1))
    return QaoaSpec(q=2 * n, constraints=tuple(cons))


def qaoa_to_circuit(spec: QaoaSpec) -> Circuit:
    """H column, e^{-i*GAMMA*C} as diagonal phases, then exp(-i*BETA*X) column."""
    gates = [Gate("h", (t,)) for t in range(spec.q)]
    for c in spec.constraints:
        gates.append(
            Gate(
                "diag_phase",
                c.targets,
                theta=-GAMMA * c.multiplicity,
                pattern=c.pattern,
            )
        )
    gates += [Gate("xrot", (t,), beta=BETA) for t in range(spec.q)]
    return Circuit(q=spec.q, gates=gates)


def qaoa_acceptance(f: Poly3) -> float:
    """All-zeros probability of the constraint-form circuit on 2n qubits.
    The simulator's cap is checked before the program is built."""
    check("SIM_CAP", 2 * f.n, "qaoa_acceptance: q")
    state = run(qaoa_to_circuit(build_qaoa(f)))
    return float(abs(state[0]) ** 2)


def qaoa_acceptance_exact(f: Poly3) -> Fraction:
    """`qaoa_acceptance` as an exact rational, from the constraints alone.

    At GAMMA = pi/2 the phase stage turns basis state x by (-i)^C(x), C(x)
    the total multiplicity of the constraints x matches, and at BETA =
    pi/4 each qubit gives <0|exp(-i*BETA*X)|b> = (-i)^b/sqrt(2).  So the
    all-zeros amplitude is 2^-q * sum_x (-i)^(C(x) + |x|), and with N_k
    the number of x with C(x) + |x| = k (mod 4) the probability is
    ((N_0 - N_2)^2 + (N_1 - N_3)^2) / 4^q.  The 2^q indices are checked
    against each constraint in chunks of 2^16.
    """
    check("DIST_CAP", 2 * f.n, "qaoa_acceptance_exact: q")
    spec = build_qaoa(f)
    tally = np.zeros(4, dtype=np.int64)
    for start in range(0, 1 << spec.q, 1 << 16):
        x = np.arange(start, min(start + (1 << 16), 1 << spec.q), dtype=np.uint64)
        turns = np.bitwise_count(x).astype(np.int64)
        for c in spec.constraints:
            mask = sum(1 << t for t in c.targets)
            bits = sum(b << t for t, b in zip(c.targets, c.pattern))
            turns += c.multiplicity * ((x & np.uint64(mask)) == bits)
        tally += np.bincount(turns & 3, minlength=4)
    n0, n1, n2, n3 = (int(v) for v in tally)
    return Fraction((n0 - n2) ** 2 + (n1 - n3) ** 2, 4 ** spec.q)


# -- squared-gap promise thresholds -------------------------------------------


@dataclass(frozen=True)
class SgapThresholds:
    """Exact promise and decision thresholds on (gap/2^n)^2 for given n.

    The one statement of the squared-gap promise: YES instances sit at
    or above `upper`, NO instances at or below `lower`; the query
    algorithm accepts above `accept` and rejects below `reject`.  All
    four are exact rationals and satisfy lower < reject < accept < upper.
    """

    n: int
    upper: Fraction
    lower: Fraction
    accept: Fraction
    reject: Fraction

    @classmethod
    @lru_cache(maxsize=64)
    def for_n(cls, n: int) -> "SgapThresholds":
        if n < 1:
            raise ValueError("n must be positive")
        upper = Fraction(1, 2 ** (n + 1))
        return cls(
            n=n,
            upper=upper,
            lower=upper / 2,
            accept=upper * Fraction(5, 6),
            reject=upper * Fraction(2, 3),
        )


def classify_from_gap(gap: int, n: int) -> str:
    """YES / NO / NONPROMISE from the exact integer gap, comparing the
    exact rational (gap/2^n)^2 with the thresholds for n."""
    if not -(1 << n) <= gap <= (1 << n):
        raise ValueError(f"gap {gap} out of range for n = {n}")
    thr = SgapThresholds.for_n(n)
    sq = Fraction(gap * gap, 1 << (2 * n))
    if sq >= thr.upper:
        return "YES"
    if sq <= thr.lower:
        return "NO"
    return "NONPROMISE"


def sgap_classify(f: Poly3) -> str:
    return classify_from_gap(gap_bruteforce(f), f.n)


# -- query algorithm over the hiding circuit ----------------------------------


@dataclass(frozen=True)
class QueryDecision:
    accept: bool
    indeterminate: bool
    probability: float


def algorithm_a(p: float, n: int) -> QueryDecision:
    """Decide the squared-gap promise on n variables from one probability.

    `p` is the probability that the hiding circuit for fbar outputs the
    basis state delta, where f = fbar + delta.x is the instance.  Accepts
    at or above 5/6 of the YES threshold, rejects at or below 2/3 of it;
    the open band in between is reported as a flagged rejection.
    """
    thr = SgapThresholds.for_n(n)
    p = float(p)
    if p >= thr.accept:
        return QueryDecision(accept=True, indeterminate=False, probability=p)
    if p <= thr.reject:
        return QueryDecision(accept=False, indeterminate=False, probability=p)
    return QueryDecision(accept=False, indeterminate=True, probability=p)


def greedy_adversary(exact: dict[int, float], labels: dict[int, str], n: int,
                     eps: float) -> tuple[dict[int, float], float, int]:
    """Strongest perturbation of a class distribution within a total budget.

    `exact` maps each linear shift delta to its exact probability and
    `labels` maps it to its promise label.  The adversary flips the
    cheapest promise members first, a YES member to a hair below
    `accept` and a NO member to a hair above `reject`; leaving the right
    side costs at least 2^{-n-1}/6 each.  Returns the perturbed view, the
    budget spent and the number of members flipped.
    """
    thr = SgapThresholds.for_n(n)
    accept, reject = float(thr.accept), float(thr.reject)
    # crossing a threshold must be strict, so flips land a hair past it
    kick = 2.0 ** (-n - 1) * 1e-9
    options = []
    for d, label in labels.items():
        if label == "YES":
            options.append((exact[d] - accept, d, accept - kick))
        elif label == "NO":
            options.append((reject - exact[d], d, reject + kick))
    options.sort()
    view = dict(exact)
    spent = 0.0
    flipped = 0
    for cost, d, target in options:
        if spent + cost + kick > eps:
            break
        view[d] = target
        spent += cost + kick
        flipped += 1
    return view, spent, flipped


# -- distribution distance -----------------------------------------------------


@dataclass(frozen=True)
class DistributionError:
    additive: float
    multiplicative: float  # math.inf when support leaks outside q


def distribution_error(p, q) -> DistributionError:
    """L1 distance and worst relative pointwise error of p against q.

    Both arguments are full distributions over the same outcome set.
    The multiplicative error is max |p-q|/q over outcomes with q > 0,
    and infinite if p puts mass where q has none.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    for name, arr in (("p", p), ("q", q)):
        if np.any(arr < 0):
            raise ValueError(f"{name} has negative entries")
        if not math.isclose(float(arr.sum()), 1.0, abs_tol=1e-6):
            raise ValueError(f"{name} sums to {arr.sum():.8f}, not 1 within 1e-6")
    additive = float(np.abs(p - q).sum())
    support = q > 0
    if np.any(p[~support] > 0):
        mult = math.inf
    elif not support.any():
        mult = 0.0
    else:
        mult = float(np.max(np.abs(p[support] - q[support]) / q[support]))
    return DistributionError(additive=additive, multiplicative=mult)


# -- the decision harness ------------------------------------------------------

# largest n whose whole hiding class the harness sweeps
EXHAUSTIVE_LIMIT = 12


def decision_harness(f: Poly3, eps: float, trials: int | None = None,
                     seed: int | None = None) -> dict:
    """Robustness of `algorithm_a` over the hiding class of f.

    Each member fbar + delta.x is decided from the entry delta of one
    probability table.  Without `trials`, every member of the class is
    decided (at most EXHAUSTIVE_LIMIT variables) and the table is the
    exact class distribution as perturbed by `greedy_adversary` with
    total budget eps.  With `trials`, that many members are drawn with
    `seed` and each entry, read as gap^2/4^n, is pushed its fair share
    eps/2^n toward the wrong side.  A NO member left in the indeterminate
    band counts as an error.  Returns the sweep's record: the correct
    fraction against the 1 - 60 eps floor, and the decision on f itself.
    """
    if trials is None and f.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"trials are required beyond {EXHAUSTIVE_LIMIT} variables")
    if trials is not None:
        if seed is None:
            raise ValueError("sampled class members need a seed")
        check_sample_size(trials, "decision_harness: trials")
        # every sampled member's gap is a brute-force gap on n variables
        check("BRUTE_CAP", f.n, "decision_harness: n")
    thresholds = SgapThresholds.for_n(f.n)
    fbar = strip_linear(f)

    def gap_at(delta: int) -> int:
        return gap_bruteforce(with_linear(fbar, delta))

    exhaustive = trials is None
    if exhaustive:
        deltas = list(range(1 << f.n))
        # one simulation serves every member's probability
        exact = dict(enumerate(class_distribution(fbar).tolist()))
        labels = {d: classify_from_gap(gap_at(d), f.n) for d in deltas}
        probs, spent, flipped = greedy_adversary(exact, labels, f.n, eps)
    else:
        rng = np.random.default_rng(seed)
        deltas = [int(d) for d in rng.integers(0, 1 << f.n, size=trials)]
        # every probability read, the input's own too, is (gap/2^n)^2
        gaps = {d: gap_at(d) for d in {*deltas, linear_part(f)}}
        labels = {d: classify_from_gap(g, f.n) for d, g in gaps.items()}
        # greedy flipping needs every class member's probability, which is
        # what a large n rules out; commit each member's fair share of the
        # budget toward the wrong side instead
        share = eps / float(1 << f.n)
        probs = {}
        for d, g in gaps.items():
            p = g ** 2 / 4 ** f.n
            if labels[d] == "YES":
                p = max(p - share, 0.0)
            elif labels[d] == "NO":
                p = min(p + share, 1.0)
            probs[d] = p

    promise = correct = 0
    for delta in deltas:
        label = labels[delta]
        if label == "NONPROMISE":
            continue
        decision = algorithm_a(probs[delta], f.n)
        promise += 1
        if label == "YES":
            correct += decision.accept
        else:
            correct += (not decision.accept) and (not decision.indeterminate)

    fraction = correct / promise if promise else 1.0
    floor = 1.0 - 60.0 * eps
    record = {
        "n": f.n, "mode": "exhaustive" if exhaustive else "sampled", "epsilon": eps,
        "promise_members": promise, "correct": correct, "correct_fraction": fraction,
        "robustness_floor": floor, "ok": fraction >= floor,
        "accept_threshold": thresholds.accept, "reject_threshold": thresholds.reject,
    }
    if exhaustive:
        record["budget_spent"] = spent
        record["flipped"] = flipped
        # how far the adversary's view sits from the exact class
        # distribution, once renormalized back to unit mass
        exact_arr = np.array([exact[d] for d in deltas])
        seen = np.array([probs[d] for d in deltas])
        err = distribution_error(seen / seen.sum(), exact_arr)
        record["perturbation"] = {"additive": err.additive,
                                  "multiplicative": err.multiplicative}
    own = algorithm_a(probs[linear_part(f)], f.n)
    record["input_decision"] = {"accept": own.accept, "indeterminate": own.indeterminate,
                                "probability": own.probability}
    return record

