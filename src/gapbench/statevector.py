"""Dense state vector simulator, little-endian qubit order.

Basis index x encodes qubit i as bit i (qubit 0 is the least
significant bit).  Amplitudes live in a complex128 numpy array that is
mutated in place by gate application; callers own the array while a
circuit runs.

Supported gates: h, z, cz, ccz, diag_phase (e^{i*theta} on amplitudes
whose target bits match a pattern, up to 3 targets), xrot
(exp(-i*beta*X) on one qubit).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_KINDS = ("h", "z", "cz", "ccz", "diag_phase", "xrot")


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, target qubits, and kind-specific parameters.

    diag_phase needs `theta` and `pattern` (one bit per target); xrot
    needs `beta`.  Plain phase gates (z, cz, ccz) take no parameters and
    flip the sign of amplitudes whose targets are all 1.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float = 0.0
    beta: float = 0.0
    pattern: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"repeated target in {self.targets}")
        arity = {"h": 1, "z": 1, "cz": 2, "ccz": 3, "xrot": 1}.get(self.kind)
        if arity is not None and len(self.targets) != arity:
            raise ValueError(f"{self.kind} takes {arity} target(s), got {self.targets}")
        if self.kind == "diag_phase":
            if not 1 <= len(self.targets) <= 3:
                raise ValueError("diag_phase takes 1 to 3 targets")
            if len(self.pattern) != len(self.targets):
                raise ValueError("pattern length must match target count")
            if any(b not in (0, 1) for b in self.pattern):
                raise ValueError("pattern bits must be 0 or 1")


@dataclass
class Circuit:
    q: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one qubit")
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.q:
                    raise ValueError(f"gate target {t} out of range for q = {self.q}")


def zero_state(q: int) -> np.ndarray:
    """The all-zeros computational basis state on q qubits."""
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _pair_view(state: np.ndarray, t: int):
    # groups amplitudes into (high, bit t, low) blocks
    return state.reshape(-1, 2, 1 << t)


def apply_gate(state: np.ndarray, gate: Gate, q: int) -> np.ndarray:
    """Apply one gate in place and return the same array."""
    if state.shape != (1 << q,):
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected 2^{q}")
    for t in gate.targets:
        if not 0 <= t < q:
            raise ValueError(f"target {t} out of range for q = {q}")

    if gate.kind == "h":
        view = _pair_view(state, gate.targets[0])
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        view[:, 0, :] = (a + b) * _INV_SQRT2
        view[:, 1, :] = (a - b) * _INV_SQRT2
    elif gate.kind == "xrot":
        view = _pair_view(state, gate.targets[0])
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        c, s = math.cos(gate.beta), math.sin(gate.beta)
        view[:, 0, :] = c * a - 1j * s * b
        view[:, 1, :] = -1j * s * a + c * b
    elif gate.kind in ("z", "cz", "ccz"):
        _scale_pattern(state, q, gate.targets, (1,) * len(gate.targets), -1.0)
    else:  # diag_phase
        _scale_pattern(state, q, gate.targets, gate.pattern, np.exp(1j * gate.theta))
    return state


def _scale_pattern(state, q, targets, pattern, factor):
    view = state.reshape((2,) * q)
    sel: list = [slice(None)] * q
    for t, b in zip(targets, pattern):
        sel[q - 1 - t] = b  # axis 0 is the most significant qubit
    view[tuple(sel)] *= factor


def run(circuit: Circuit) -> np.ndarray:
    """Run the circuit from |0...0> and return the final amplitudes."""
    check("SIM_CAP", circuit.q, "run: q")
    state = zero_state(circuit.q)
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.q)
    return state


def check_index(q: int, idx: int) -> None:
    """Refuse a basis index outside [0, 2^q)."""
    if not 0 <= idx < 1 << q:
        raise ValueError(f"basis index {idx} out of range")


def amplitude(state: np.ndarray, idx: int) -> complex:
    check_index(state.shape[0].bit_length() - 1, idx)
    return complex(state[idx])


def full_distribution(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 for every basis state (float64, sums to 1)."""
    check("DIST_CAP", state.shape[0].bit_length() - 1, "full_distribution: q")
    return np.abs(state) ** 2


def sample(state: np.ndarray, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw basis indices from the measurement distribution."""
    probs = full_distribution(state)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"state norm {total:.6f} is not 1 within 1e-6")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


def norm(state: np.ndarray) -> float:
    return float(np.sqrt(np.abs(state * state.conj()).sum()))


# -- circuit (de)serialization ----------------------------------------------


def circuit_to_json_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        rec: dict = {"kind": g.kind, "targets": list(g.targets)}
        if g.kind == "diag_phase":
            rec["theta"] = g.theta
            rec["pattern"] = list(g.pattern)
        elif g.kind == "xrot":
            rec["beta"] = g.beta
        gates.append(rec)
    return {"q": circuit.q, "gates": gates}


def circuit_from_json_dict(d: dict) -> Circuit:
    if "q" not in d or "gates" not in d:
        raise ValueError("circuit JSON needs 'q' and 'gates'")
    gates = []
    for rec in d["gates"]:
        gates.append(
            Gate(
                kind=rec["kind"],
                targets=tuple(int(t) for t in rec["targets"]),
                theta=float(rec.get("theta", 0.0)),
                beta=float(rec.get("beta", 0.0)),
                pattern=tuple(int(b) for b in rec.get("pattern", ())),
            )
        )
    return Circuit(q=int(d["q"]), gates=gates)


def circuit_dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(circuit), sort_keys=True)


def circuit_loads(s: str) -> Circuit:
    return circuit_from_json_dict(json.loads(s))
