"""Dense state vector simulator, little-endian qubit order.

Basis index x encodes qubit i as bit i (qubit 0 is the least
significant bit).  Gates mutate a numpy array of amplitudes in place;
callers own the array while a circuit runs.

Supported gates: h, z, cz, ccz, diag_phase (e^{i*theta} on amplitudes
whose target bits match a pattern, up to 3 targets), xrot
(exp(-i*beta*X) on one qubit).

`run` executes the gate stream in four parts, and its final state is
byte-identical (`tobytes()`) to applying the gates one at a time with
the textbook formulas on a complex128 state:

* Live-prefix first H column.  From |0...0>, while the next gate is h
  on qubit 0, 1, 2, ... in turn, only the prefix that can be nonzero
  is transformed; every amplitude past it is +0, and (0 + 0)*s and
  (0 - 0)*s are +0 again.  Any other gate ends the column.
* In-place butterflies.  h computes (a + b)*s and (a - b)*s, xrot
  c*a - (1j*s)*b and (-1j*s)*a + c*b, with the same ufuncs in the same
  order as the formulas, written through one scratch buffer per run:
  half a state for h, a whole one only when an xrot appears.
* Exact sign runs.  z, cz and ccz each multiply by -1.0, which is not
  negation on signed zeros, so consecutive sign gates only count hits
  per amplitude.  At the end of the run (and every 255 gates) each
  amplitude is multiplied by -1.0 r times, where r <= 3 is the
  smallest count on the same orbit as its hit count k: amplitudes with
  both parts zero repeat with period 3 after one step, all others with
  period 2 after two (on a float64 state r = k % 2: a float has
  period 2).  diag_phase is never fused: its factors differ
  per gate and the product order changes the rounding.
* IQP streams in float64.  A stream of h on qubits 0, 1, ..., q-1 in
  turn, then only z/cz/ccz, then only h (at least one if a sign gate
  came before) runs on a float64 state, which `run` returns as
  complex128.  The bytes agree: after the first column every amplitude
  is the same float m with imaginary part +0.  Sign gates never meet a
  zero, so the complex products leave each real part at +-m, with
  imaginary part +0 on negative amplitudes and +-0 on positive ones.
  The first closing h makes every imaginary part +0, its real parts
  are the float butterflies, and later h gates keep both.  Without a
  closing h a -0 imaginary part survives, so such streams, like every
  other, run in complex128.

`apply_gate` runs the same kernels on a one-gate stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import CapExceeded, check, dist_cap

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


_SIGN_KINDS = ("z", "cz", "ccz")
_MAX_HITS = 255  # a sign run flushes before its uint8 hit counters can wrap
_HIT_ROW = 8  # hit counters are added in contiguous rows of 2^8 (low qubits)


def _pattern_index(q: int, targets, pattern) -> tuple:
    # selects, in a (2,)*q view, the entries whose target bits match
    sel: list = [slice(None)] * q
    for t, b in zip(targets, pattern):
        sel[q - 1 - t] = b  # axis 0 is the most significant qubit
    return tuple(sel)


def _pair_halves(state: np.ndarray, t: int):
    """Views a (bit t = 0) and b (bit t = 1) of every pair, and the
    ufunc iteration order for them.  For t <= 1 the rows hold one or two
    amplitudes, so the views are transposed and walked in long columns."""
    view = state.reshape(-1, 2, 1 << t)
    a, b = view[:, 0, :], view[:, 1, :]
    if t <= 1:
        return a.T, b.T, "C"
    return a, b, "K"


def _h(state: np.ndarray, t: int, scratch: np.ndarray) -> None:
    a, b, order = _pair_halves(state, t)
    diff = scratch[: a.size].reshape(a.shape)
    np.subtract(a, b, out=diff, order=order)
    np.add(a, b, out=a, order=order)
    np.multiply(a, _INV_SQRT2, out=a, order=order)
    np.multiply(diff, _INV_SQRT2, out=b, order=order)


def _xrot(state: np.ndarray, t: int, beta: float, scratch: np.ndarray) -> None:
    a, b, order = _pair_halves(state, t)
    u = scratch[: a.size].reshape(a.shape)
    v = scratch[a.size : 2 * a.size].reshape(a.shape)
    c, s = math.cos(beta), math.sin(beta)
    np.multiply(c, a, out=u, order=order)
    np.multiply(1j * s, b, out=v, order=order)
    np.subtract(u, v, out=u, order=order)
    np.multiply(-1j * s, a, out=v, order=order)
    np.multiply(c, b, out=b, order=order)
    np.add(v, b, out=b, order=order)
    a[...] = u


def _diag_phase(state: np.ndarray, q: int, gate: Gate) -> None:
    index = _pattern_index(q, gate.targets, gate.pattern)
    state.reshape((2,) * q)[index] *= np.exp(1j * gate.theta)


def _count_hits(hits: np.ndarray, q: int, targets) -> None:
    """Add 1 to the counter of every amplitude whose targets are all 1.

    Targets below the row length become a 0/1 pattern added along each
    row, so every add runs over contiguous rows of 2^8 counters."""
    low = min(q, _HIT_ROW)
    mask = sum(1 << t for t in targets if t < low)
    high = [t - low for t in targets if t >= low]
    rows = hits.reshape((2,) * (q - low) + (1 << low,))
    rows = rows[_pattern_index(q - low, high, (1,) * len(high))]
    np.add(rows, (np.arange(1 << low) & mask) == mask, out=rows)


def _flush_signs(state: np.ndarray, hits: np.ndarray) -> None:
    """Multiply each amplitude by -1.0 as often as its hit count says.

    A float repeats with period 2 under multiplication by -1.0, so a
    float64 state takes one pass over the odd counts.  A complex
    amplitude with both parts zero repeats with period 3 after one step
    and any other with period 2 after two, so k multiplications leave
    the same bytes as r = min(k, 1 + (k - 1) % 3) or r = min(k, 2 + k % 2)
    of them, and r <= 3."""
    if state.dtype == np.float64:
        np.multiply(state, -1.0, out=state, where=(hits & 1).astype(bool))
    else:
        steps = np.minimum(hits, 2 + (hits & 1))
        zero = state == 0
        if zero.any():
            k = hits[zero].astype(np.int16)
            steps[zero] = np.minimum(k, 1 + (k - 1) % 3)
        for j in (1, 2, 3):
            np.multiply(state, -1.0, out=state, where=steps >= j)
    hits.fill(0)


def _check_targets(gate: Gate, q: int) -> None:
    for t in gate.targets:
        if not 0 <= t < q:
            raise ValueError(f"target {t} out of range for q = {q}")


def _execute(state: np.ndarray, q: int, gates, live: int) -> None:
    """Apply `gates` to `state` in place, byte for byte as one at a time.

    Only the first 2^live amplitudes may be nonzero (live = 0 from
    |0...0>, q for any state); the leading h gates on qubits live,
    live + 1, ... act on that prefix alone.
    """
    kinds = {g.kind for g in gates}
    size = 1 << q if "xrot" in kinds else 1 << (q - 1) if "h" in kinds else 0
    scratch = np.empty(size, dtype=state.dtype)
    hits = np.zeros(1 << q, dtype=np.uint8) if kinds.intersection(_SIGN_KINDS) else None
    pending = 0
    for gate in gates:
        if gate.kind in _SIGN_KINDS:
            live = q
            _count_hits(hits, q, gate.targets)
            pending += 1
            if pending == _MAX_HITS:
                _flush_signs(state, hits)
                pending = 0
            continue
        if pending:
            _flush_signs(state, hits)
            pending = 0
        t = gate.targets[0]
        if gate.kind == "h" and t == live:
            live += 1
            _h(state[: 1 << live], t, scratch)
            continue
        live = q
        if gate.kind == "h":
            _h(state, t, scratch)
        elif gate.kind == "xrot":
            _xrot(state, t, gate.beta, scratch)
        else:
            _diag_phase(state, q, gate)
    if pending:
        _flush_signs(state, hits)


def apply_gate(state: np.ndarray, gate: Gate, q: int) -> np.ndarray:
    """Apply one gate in place and return the same array."""
    if state.shape != (1 << q,):
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected 2^{q}")
    _check_targets(gate, q)
    _execute(state, q, (gate,), live=q)
    return state


def run(circuit: Circuit) -> np.ndarray:
    """Run the circuit from |0...0> and return the final amplitudes.

    The result is a complex128 array whichever dtype the gates ran in."""
    q, gates = circuit.q, circuit.gates
    check("SIM_CAP", q, "run: q")
    for gate in gates:
        _check_targets(gate, q)
    # the IQP shape: an H column on 0..q-1, signs, then h alone, with at
    # least one h if a sign came before (the first closing h clears -0j)
    kinds = [g.kind for g in gates]
    end = next((i for i in range(q, len(gates)) if kinds[i] not in _SIGN_KINDS), len(gates))
    column = [(g.kind, g.targets) for g in gates[:q]] == [("h", (t,)) for t in range(q)]
    if column and set(kinds[end:]) <= {"h"} and (end == q or end < len(gates)):
        state = np.zeros(1 << q)
        state[0] = 1.0
    else:
        state = zero_state(q)
    _execute(state, q, gates, live=0)
    return state.astype(np.complex128, copy=False)


def check_index(q: int, idx: int) -> None:
    """Refuse a basis index outside [0, 2^q)."""
    if not 0 <= idx < 1 << q:
        raise ValueError(f"basis index {idx} out of range")


def check_sample_size(size: int) -> None:
    """Refuse more draws than a 2^n-entry output may hold under the
    distribution cap."""
    cap = dist_cap()
    if size > 1 << cap:
        raise CapExceeded(f"sample: size = {size} exceeds cap 2^{cap}")


def amplitude(state: np.ndarray, idx: int) -> complex:
    check_index(state.shape[0].bit_length() - 1, idx)
    return complex(state[idx])


def full_distribution(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 for every basis state (float64, sums to 1)."""
    check("DIST_CAP", state.shape[0].bit_length() - 1, "full_distribution: q")
    return np.abs(state) ** 2


def sample(state: np.ndarray, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw basis indices from the measurement distribution."""
    check_sample_size(size)
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


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"circuit JSON {what} must be a list")
    return value


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"circuit JSON {what} must be an integer, got {json.dumps(value)}")
    return value


def _json_ints(value, what: str) -> tuple[int, ...]:
    return tuple(_json_int(v, f"{what} entry") for v in _json_list(value, what))


def _json_number(value, what: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"circuit JSON {what} must be a number, got {json.dumps(value)}")
    return float(value)


def circuit_from_json_dict(d: dict) -> Circuit:
    if not isinstance(d, dict):
        raise ValueError("circuit JSON must be an object")
    if "q" not in d or "gates" not in d:
        raise ValueError("circuit JSON needs 'q' and 'gates'")
    q = _json_int(d["q"], "'q'")
    gates = []
    for rec in _json_list(d["gates"], "'gates'"):
        if not isinstance(rec, dict):
            raise ValueError("circuit JSON gates must be objects")
        for key in ("kind", "targets"):
            if key not in rec:
                raise ValueError(f"circuit JSON gate needs {key!r}")
        gates.append(
            Gate(
                kind=rec["kind"],
                targets=_json_ints(rec["targets"], "'targets'"),
                theta=_json_number(rec.get("theta", 0.0), "'theta'"),
                beta=_json_number(rec.get("beta", 0.0), "'beta'"),
                pattern=_json_ints(rec.get("pattern", []), "'pattern'"),
            )
        )
    return Circuit(q=q, gates=gates)


def circuit_dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(circuit), sort_keys=True)


def circuit_loads(s: str) -> Circuit:
    return circuit_from_json_dict(json.loads(s))
