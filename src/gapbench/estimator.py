"""Qubit and photon count estimates from fine-grained hardness constants.

Given a conjectured lower bound of the form 2^{c q - 1} (or 2^{c q/2 - 1}
for the two-copies-per-variable constraint encoding) on the classical
operations needed to simulate a circuit on q qubits, find the smallest
circuit whose simulation outruns a given operations budget: a fixed time
horizon on a fixed machine, or a per-circuit-element allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .poly3 import max_terms

MODELS = ("iqp-mult", "qaoa-mult", "boson-mult", "iqp-add", "qaoa-add")

# multiplicative-error models carry the exact-computation constant,
# additive-error models the sampling one; both default to 1/2 except the
# permanent-based bound which supports 0.999
DEFAULT_CONSTANTS = {
    "iqp-mult": 0.5,
    "qaoa-mult": 0.5,
    "boson-mult": 0.999,
    "iqp-add": 0.5,
    "qaoa-add": 0.5,
}

SECONDS_PER_YEAR = 365 * 24 * 3600
DEFAULT_FLOPS = 1e18
DEFAULT_HORIZON = 100 * SECONDS_PER_YEAR
DEFAULT_BUDGET = 500


def _canon(model: str) -> str:
    m = model.lower()
    if m not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    return m


def _family(model: str) -> str:
    return _canon(model).split("-")[0]


@dataclass(frozen=True)
class EstimateParams:
    """Inputs for an estimate: model, hardness constant, and budget."""

    model: str
    constant: float | None = None
    flops: float = DEFAULT_FLOPS
    horizon_seconds: float = DEFAULT_HORIZON
    per_element: bool = False
    budget: float = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", _canon(self.model))
        if self.constant is None:
            object.__setattr__(self, "constant", DEFAULT_CONSTANTS[self.model])
        if not 0 < self.constant <= 1:
            raise ValueError("constant must lie in (0, 1]")
        budgets = (self.flops, self.horizon_seconds, self.budget)
        if any(v <= 0 for v in budgets):
            raise ValueError("flops, horizon, and budget must be positive")
        if not all(math.isfinite(v) for v in budgets):
            raise ValueError("flops, horizon, and budget must be finite")


@dataclass(frozen=True)
class Estimate:
    """Minimal size passing a budget, with the bound value achieved there."""

    model: str
    constant: float
    mode: str
    q: int
    gates: int
    log2_bound: float
    log2_target: float

    def as_record(self, flagged: bool = False) -> dict:
        """Plain-data form shared by every report of an estimate; `flagged`
        marks a row computed with non-default constants."""
        record = {
            "model": self.model, "constant": self.constant, "mode": self.mode,
            "q": self.q, "gates": self.gates,
            "gates_display": display_rounded(self.gates),
            "log2_bound": self.log2_bound, "log2_target": self.log2_target,
        }
        if flagged:
            record["non_default_constants"] = True
        return record


def _variables(model: str, q: int) -> int:
    """Polynomial variables (or photons) behind size q: q itself, or n
    for the two-copy encoding, which uses q = 2n qubits."""
    if _family(model) == "qaoa":
        if q < 2 or q % 2:
            raise ValueError("the constraint encoding uses q = 2n qubits; q must be even")
        return q // 2
    if q < 1:
        raise ValueError("q must be positive")
    return q


def gate_count(model: str, q: int) -> int:
    """Circuit elements at q qubits/photons for the dense cubic: one
    diagonal gate per monomial for the hypercube family, two constraints
    per monomial and five per variable for the two-copy encoding (what
    `circuits.build_qaoa` emits), beam splitters plus phase shifters for
    the optical network."""
    fam = _family(model)
    n = _variables(model, q)
    if fam == "qaoa":
        return 2 * max_terms(n) + 5 * n
    if fam == "iqp":
        return max_terms(n)
    return 2 * q * q + q


def log2_bound(model: str, constant: float, q: int) -> float:
    """log2 of the conjectured minimum operations to simulate size q."""
    return constant * _variables(model, q) - 1


def _minimal_q(model: str, constant: float, target: float, mode: str,
               per_gate: bool) -> Estimate:
    """Smallest admissible size whose log2 bound, less log2 of its gate
    count when per_gate, reaches target.

    The bound rises by `constant` per variable (a qubit or photon, or a
    qubit pair in the two-copy encoding) and the gate count only grows.
    So at a failing size q, solving the bound with the gate term frozen
    at q gives a size below which nothing passes; one step is given back
    to absorb rounding.  Jumping there repeatedly from the smallest size
    lands on the exact minimum in a few rounds.
    """
    step = 2 if _family(model) == "qaoa" else 1

    def gates_log2(q: int) -> float:
        return math.log2(gate_count(model, q)) if per_gate else 0.0

    q = step
    while (value := log2_bound(model, constant, q) - gates_log2(q)) < target:
        floor_q = (math.ceil((target + 1 + gates_log2(q)) / constant) - 1) * step
        q = max(q + step, floor_q)
    return Estimate(model=model, constant=constant, mode=mode, q=q,
                    gates=gate_count(model, q), log2_bound=value,
                    log2_target=target)


def qubits_for_horizon(params: EstimateParams) -> Estimate:
    """Smallest size whose simulation bound exceeds flops * horizon ops."""
    target = math.log2(params.flops * params.horizon_seconds)
    return _minimal_q(params.model, params.constant, target, "horizon", per_gate=False)


def qubits_for_gate_linear(params: EstimateParams) -> Estimate:
    """Smallest size where simulation ops per circuit element exceed
    flops * horizon / budget (e.g. a century per 500 elements, which is
    one year per 5)."""
    target = math.log2(params.flops * params.horizon_seconds / params.budget)
    return _minimal_q(params.model, params.constant, target, "per-element", per_gate=True)


@dataclass(frozen=True)
class WeakeningReport:
    """Effect of weakening the conjecture by a factor d."""

    d: float
    mode: str
    base: Estimate
    weakened: Estimate

    @property
    def delta_q(self) -> int:
        return self.weakened.q - self.base.q


def conjecture_weakening(params: EstimateParams, d: float, mode: str) -> WeakeningReport:
    """Rerun the estimate under a d-fold weaker conjecture.

    divide-constant: the exponent constant becomes c/d (size scales by
    roughly d). divide-prefactor: the bound 2^{cq-1} is divided by d,
    equivalent to a d-fold larger operations budget (size grows by about
    log2(d)/c, or half that per qubit pair in the two-copy encoding).
    """
    if not d >= 1:
        raise ValueError("d must be at least 1")
    if not math.isfinite(d):
        raise ValueError("d must be finite")
    run = qubits_for_gate_linear if params.per_element else qubits_for_horizon
    base = run(params)
    if mode == "divide-constant":
        weak = replace(params, constant=params.constant / d)
    elif mode == "divide-prefactor":
        weak = replace(params, flops=params.flops * d)
    else:
        raise ValueError("mode must be divide-constant or divide-prefactor")
    return WeakeningReport(d=d, mode=mode, base=base, weakened=run(weak))


def display_rounded(count: int) -> str:
    """Three-significant-figure display form, e.g. 1055425 -> '1,060,000'."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count < 1000:
        return f"{count:,}"
    digits = len(str(count))
    rounded = round(count, 3 - digits)
    return f"{rounded:,}"
