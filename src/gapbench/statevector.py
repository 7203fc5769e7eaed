"""Dense state vector simulator, little-endian qubit order.

Basis index x encodes qubit i as bit i (qubit 0 is the least
significant bit).  Gates mutate a numpy array of amplitudes in place;
callers own the array while a circuit runs.

Supported gates: h, z, cz, ccz, diag_phase (e^{i*theta} on amplitudes
whose target bits match a pattern, up to 3 targets), xrot
(exp(-i*beta*X) on one qubit).  Angles must be finite.

`run`'s final state is byte-identical (`tobytes()`), at every SIMD level
numpy dispatches, to this fold over a complex128 state from |0...0>:

* h: (a + b)*s and (a - b)*s, s = 1/sqrt(2); xrot: c*a - (1j*s)*b and
  (-1j*s)*a + c*b, c = cos(beta), s = sin(beta); z, cz, ccz: a product
  by -1.0 on the all-ones pattern.
* diag_phase: re*c - im*s and re*s + im*c on the matching amplitudes,
  c = cos(theta), s = sin(theta), as separate real products (numpy's
  complex loop fuses products on some CPUs and not on others).
* Quarter turns: a diag_phase with theta == k*(pi/2), k an integer with
  |k| <= 4, turns by i^k.  Each maximal run of them is one product of
  every amplitude by i^c from (1, 1j, -1, -1j), c its quarter turns mod
  4.  Such products are exact, whatever the run's order or the CPU.

`run` gets there in four parts:

* Written first H column.  From |0...0>, h on qubit 0, 1, ..., j-1 in
  turn leaves the float m_j (imaginary part +0) on the first 2^j
  amplitudes and +0 past them, as (m + 0)*s = (m - 0)*s = m*s: m_j is
  1.0 times s j times, rounded after each product.  `run` writes that
  state and runs only the gates after the column.
* Cache blocks.  The state is a row of blocks of `_BLOCK_BYTES` (2^k
  amplitudes: k = 15 in complex128, 16 in float64).  A maximal run of
  local gates (other diagonal gates, h or xrot on a qubit below k) goes
  block by block; a diagonal gate's targets at or above k pick blocks.
  In such a run, h and xrot on qubits t, t+1, ..., t+m-1 in turn (a
  closing column) are one walk of stages per block, Pease's constant
  geometry: each stage reads the pairs of its qubit as two stride-2
  views and writes its two outputs as the contiguous halves of the other
  buffer (the block, or one block of scratch), which rotates the m bits
  by one; after an even number of stages they are back in place, and an
  odd last gate runs in place.  h or xrot on a qubit at or above k runs
  alone and in place, over pieces of half a block.  Wherever they read
  and write, h and xrot run their formulas' ufuncs in the same order.
* Counted runs.  A run of quarter turns, or of z/cz/ccz on a float64
  state (two quarter turns each), is one uint8 count per amplitude: by
  inclusion-exclusion a gate adds +-k at masks of its targets, and one
  subset-sum (zeta) transform adds up the masks inside each index (mod
  256, which keeps the count mod 4).  The factors are gathered into the
  scratch and multiplied in; on a float64 state they are +-1.0, and -1.0
  has period 2.  On a complex128 state -1.0 is not negation on signed
  zeros, so each sign gate is a local gate there.
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

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import jsoninput
from .config import check, check_sample_size

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
        for name in ("theta", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"gate {name} must be finite, got {getattr(self, name)}")
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
_BUTTERFLY_KINDS = ("h", "xrot")
_BLOCK_BYTES = 1 << 19  # gate runs work on 512 KiB blocks of the state
_QUARTER = math.pi / 2
_MAX_QUARTERS = 4  # theta = k*_QUARTER is k quarter turns when |k| <= 4
_TURNS = np.array([1, 1j, -1, -1j])  # i^c, the factor of c quarter turns


def _quarters(gate: Gate):
    """k if `gate` is a diag_phase by exactly k quarter turns, else None."""
    k = round(gate.theta / _QUARTER)
    exact = abs(k) <= _MAX_QUARTERS and k * _QUARTER == gate.theta
    return k if gate.kind == "diag_phase" and exact else None


def _pattern_index(k: int, targets, pattern) -> tuple:
    # selects, in a (2,)*k view of a block, the entries whose target bits
    # below k match (a view even when every axis is fixed); targets at or
    # above k pick blocks instead
    sel: list = [slice(None)] * k
    for t, b in zip(targets, pattern):
        if t < k:
            sel[k - 1 - t] = b  # axis 0 is the most significant qubit
    return (*sel, ...)


def _pair_halves(block: np.ndarray, t: int, columns: int = 2):
    """Views a (bit t = 0) and b (bit t = 1) of every pair, and the
    ufunc iteration order for them.  For t < `columns` the rows are
    short, so the views are transposed and walked in long columns."""
    view = block.reshape(-1, 2, 1 << t)
    a, b = view[:, 0, :], view[:, 1, :]
    if t < columns:
        return a.T, b.T, "C"
    return a, b, "K"


def _h(a, b, lo, hi, order: str, diff) -> None:
    """lo, hi = (a + b)*s, (a - b)*s; a - b goes to `diff` first."""
    np.subtract(a, b, out=diff, order=order)
    np.add(a, b, out=lo, order=order)
    np.multiply(lo, _INV_SQRT2, out=lo, order=order)
    np.multiply(diff, _INV_SQRT2, out=hi, order=order)


def _xrot(a, b, lo, hi, order: str, beta: float, u, v) -> None:
    """lo, hi = c*a - (1j*s)*b, (-1j*s)*a + c*b, overwriting a and b;
    (1j*s)*b and (-1j*s)*a go to u and v first."""
    c, s = math.cos(beta), math.sin(beta)
    np.multiply(1j * s, b, out=u, order=order)
    np.multiply(c, b, out=b, order=order)
    np.multiply(-1j * s, a, out=v, order=order)
    np.add(v, b, out=hi, order=order)
    np.multiply(c, a, out=a, order=order)
    np.subtract(a, u, out=lo, order=order)


def _butterfly(gate: Gate, a, b, lo, hi, order: str, scratch=None) -> None:
    """h or xrot from the pair halves a, b into lo, hi.  The first
    results go to lo and hi, or, given a `scratch` (when lo and hi are a
    and b), to two pieces of it."""
    u, v = lo, hi
    if scratch is not None:
        u, v = (w.reshape(a.shape) for w in scratch[: 2 * a.size].reshape(2, -1))
    if gate.kind == "h":
        _h(a, b, lo, hi, order, v)
    else:
        _xrot(a, b, lo, hi, order, gate.beta, u, v)


def _butterflies(state: np.ndarray, gate: Gate, piece: int, scratch: np.ndarray) -> None:
    """Apply an h or xrot on a qubit t in place, through contiguous
    pieces, `piece` amplitudes long (2^t or less), of the two halves of
    each row of pairs."""
    t = gate.targets[0]
    for row in state.reshape(-1, 2, (1 << t) // piece, piece):
        for a, b in zip(row[0], row[1]):
            _butterfly(gate, a, b, a, b, "K", scratch)


def _stages(block: np.ndarray, gates, other: np.ndarray) -> None:
    """Apply h or xrot on qubits t, t+1, ..., t+m-1 in turn to a block,
    one stage per gate, between the block and `other` (one block long).
    A stage reads the pairs on the low bit of the middle axis of the
    (2^(k-t-m), 2^m, 2^t) view as two stride-2 views, and writes its two
    outputs into the contiguous low and high halves of the other buffer:
    the m bits rotate right by one, so after m stages they are back in
    place (Pease's constant-geometry walk).  The walk takes an even
    number of gates, so its last stage writes the block; an odd last gate
    runs in place after it, on the stretch's longest rows, which costs
    less than copying the block back."""
    t, m = gates[0].targets[0], len(gates) // 2 * 2
    src, dst = block, other
    for gate in gates[:m]:
        pairs = src.reshape(-1, 1 << (m - 1), 2, 1 << t)
        halves = dst.reshape(-1, 2, 1 << (m - 1), 1 << t)
        views = pairs[:, :, 0], pairs[:, :, 1], halves[:, 0], halves[:, 1]
        order = "K"
        if t < 2:  # short rows: walk the stride-2 pair axis innermost
            views, order = [w.transpose(2, 0, 1) for w in views], "C"
        a, b, lo, hi = views
        _butterfly(gate, a, b, lo, hi, order)
        src, dst = dst, src
    if m < len(gates):
        a, b, order = _pair_halves(block, t + m)
        _butterfly(gates[-1], a, b, a, b, order, other)


def _phase(amps: np.ndarray, theta: float, scratch: np.ndarray) -> None:
    """amps *= e^{i*theta} as separate real products, re*c - im*s and
    re*s + im*c: numpy's complex loop fuses products on some CPUs only."""
    c, s = math.cos(theta), math.sin(theta)
    re, im = amps.real, amps.imag
    halves = scratch.view(np.float64)[: 2 * amps.size].reshape(2, -1)
    u, v = (w.reshape(amps.shape) for w in halves)
    np.multiply(re, c, out=u)
    np.multiply(im, s, out=v)
    np.subtract(u, v, out=u)
    np.multiply(re, s, out=v)
    np.multiply(im, c, out=im)
    np.add(v, im, out=im)
    re[...] = u


def _run_blocks(state: np.ndarray, k: int, gates, scratch) -> None:
    """Apply local gates (each maps every block of 2^k amplitudes to
    itself) one block at a time: every gate on a block before the next."""
    steps = []
    for gate in gates:
        if gate.kind in _BUTTERFLY_KINDS:
            # h and xrot on ascending consecutive qubits make one stretch
            stretch = steps[-1][0] if steps and steps[-1][1] is None else None
            if stretch and stretch[-1].targets[0] + 1 == gate.targets[0]:
                stretch.append(gate)
            else:
                steps.append(([gate], None, 0, 0))
            continue
        pattern = gate.pattern if gate.kind == "diag_phase" else (1,) * len(gate.targets)
        mask = sum(1 << t for t in gate.targets) >> k
        bits = sum(b << t for t, b in zip(gate.targets, pattern)) >> k
        steps.append((gate, _pattern_index(k, gate.targets, pattern), mask, bits))
    for n, block in enumerate(state.reshape(-1, 1 << k)):
        cube = block.reshape((2,) * k)
        for gate, index, mask, bits in steps:
            if index is None:
                _stages(block, gate, scratch)  # `gate` is a stretch
            elif n & mask != bits:
                continue
            elif gate.kind == "diag_phase":
                _phase(cube[index], gate.theta, scratch)
            else:
                cube[index] *= -1.0


def _quarter_counts(q: int, gates) -> np.ndarray:
    """uint8 per basis index x: the quarter turns the gates give x, mod
    256 (a sign gate is two).  A gate adds +-k at masks, and a subset-sum
    (zeta) transform adds up, for each x, the masks inside x."""
    coefs: dict = {}
    for gate in gates:
        if gate.kind in _SIGN_KINDS:
            terms = [(sum(1 << t for t in gate.targets), 2)]
        else:  # by inclusion-exclusion: a 0 in the pattern on t is 1 - x_t
            pairs = list(zip(gate.targets, gate.pattern))
            terms = [(sum(1 << t for t, b in pairs if b), _quarters(gate))]
            for t in (t for t, b in pairs if not b):
                terms += [(m | 1 << t, -c) for m, c in terms]
        for m, c in terms:
            coefs[m] = coefs.get(m, 0) + c
    counts = np.zeros(1 << q, dtype=np.uint8)
    counts[list(coefs)] = [c % 256 for c in coefs.values()]
    for i in range(q):
        # rows under 32 bytes are walked in columns
        a, b, order = _pair_halves(counts, i, columns=5)
        np.add(b, a, out=b, order=order)
    return counts


def _turn(state: np.ndarray, counts: np.ndarray, scratch: np.ndarray) -> None:
    """Multiply each amplitude by i^c, c its count mod 4 (+-1.0 on a
    float64 state, whose counts are even), gathering the factors into the
    scratch an eighth at a time: `take` casts indices to 8-byte integers."""
    np.bitwise_and(counts, 3, out=counts)
    table = _TURNS if state.dtype == np.complex128 else _TURNS.real
    piece = max(1, scratch.size // 8)
    factors = scratch[:piece]
    for amps, c in zip(state.reshape(-1, piece), counts.reshape(-1, piece)):
        np.take(table, c, out=factors, mode="clip")  # "raise" would buffer `out`
        amps *= factors


def _check_targets(gate: Gate, q: int) -> None:
    for t in gate.targets:
        if not 0 <= t < q:
            raise ValueError(f"target {t} out of range for q = {q}")


def _execute(state: np.ndarray, q: int, gates) -> None:
    """Apply `gates` to `state` in place, byte for byte as the module's fold."""
    # a block holds 2^k amplitudes, at least one pair
    k = min(q, max(1, (_BLOCK_BYTES // state.itemsize).bit_length() - 1))
    real = state.dtype == np.float64
    scratch = np.empty(1 << k, dtype=state.dtype)
    piece = 1 << (k - 1)  # half a block from each half of a row of pairs

    def scope(gate):
        if gate.kind in _BUTTERFLY_KINDS:
            return "local" if gate.targets[0] < k else "global"
        counted = (real and gate.kind in _SIGN_KINDS) or _quarters(gate) is not None
        return "count" if counted else "local"

    for kind, run in itertools.groupby(gates, key=scope):
        run = list(run)
        if kind == "local":
            _run_blocks(state, k, run, scratch)
        elif kind == "global":
            for gate in run:
                _butterflies(state, gate, piece, scratch)
        else:
            _turn(state, _quarter_counts(q, run), scratch)


def apply_gate(state: np.ndarray, gate: Gate, q: int) -> np.ndarray:
    """Apply one gate in place and return the same array."""
    if state.shape != (1 << q,):
        raise ValueError(f"state has {state.shape[0]} amplitudes, expected 2^{q}")
    if state.dtype != np.complex128:
        raise ValueError(f"state has dtype {state.dtype}, expected complex128")
    _check_targets(gate, q)
    _execute(state, q, (gate,))
    return state


def run(circuit: Circuit) -> np.ndarray:
    """Run the circuit from |0...0> and return the final amplitudes.

    The result is a complex128 array whichever dtype the gates ran in."""
    q, gates = circuit.q, circuit.gates
    check("SIM_CAP", q, "run: q")
    for gate in gates:
        _check_targets(gate, q)
    # the leading H column, h on qubit 0, 1, ..., j-1 in turn, leaves m_j
    # on the first 2^j amplitudes (see the module docstring)
    j, m = 0, 1.0
    while j < len(gates) and (gates[j].kind, gates[j].targets) == ("h", (j,)):
        j, m = j + 1, m * _INV_SQRT2
    # the IQP shape: the whole column, signs, then h alone, with at least
    # one h if a sign came before (the first closing h clears -0j)
    kinds = [g.kind for g in gates]
    end = next((i for i in range(q, len(gates)) if kinds[i] not in _SIGN_KINDS), len(gates))
    iqp = j == q and set(kinds[end:]) <= {"h"} and (end == q or end < len(gates))
    state = np.zeros(1 << q, dtype=np.float64 if iqp else np.complex128)
    state[: 1 << j] = m
    _execute(state, q, gates[j:])
    return state.astype(np.complex128, copy=False)


def check_index(q: int, idx: int) -> None:
    """Refuse a basis index outside [0, 2^q)."""
    if idx < 0 or int(idx).bit_length() > q:  # no 2^q is formed for a huge q
        try:
            shown = str(idx)
        except ValueError:  # past Python's digit limit for printing an int
            shown = f"of {int(idx).bit_length()} bits"
        raise ValueError(f"basis index {shown} out of range")


def amplitude(state: np.ndarray, idx: int) -> complex:
    check_index(state.shape[0].bit_length() - 1, idx)
    return complex(state[idx])


def full_distribution(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 for every basis state (float64, sums to 1)."""
    check("DIST_CAP", state.shape[0].bit_length() - 1, "full_distribution: q")
    return np.abs(state) ** 2


def sample(state: np.ndarray, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw basis indices from the measurement distribution."""
    check_sample_size(size, "sample: size")
    probs = full_distribution(state)
    total = probs.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"state norm {total:.6f} is not 1 within 1e-6")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


def norm(state: np.ndarray) -> float:
    # |a|^2 per amplitude 2^16 at a time into one float64 array, summed
    # whole: no full-length complex temporary
    squares = np.empty(state.shape, dtype=np.float64)
    for start in range(0, state.size, 1 << 16):
        piece = state[start : start + (1 << 16)]
        np.abs(piece * piece.conj(), out=squares[start : start + (1 << 16)])
    return float(np.sqrt(squares.sum()))


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
    if not isinstance(d, dict):
        raise ValueError("circuit JSON must be an object")
    if "q" not in d or "gates" not in d:
        raise ValueError("circuit JSON needs 'q' and 'gates'")
    q = jsoninput.integer(d["q"], "circuit JSON 'q'")
    gates = []
    for rec in jsoninput.array(d["gates"], "circuit JSON 'gates'"):
        if not isinstance(rec, dict):
            raise ValueError("circuit JSON gates must be objects")
        for key in ("kind", "targets"):
            if key not in rec:
                raise ValueError(f"circuit JSON gate needs {key!r}")
        gates.append(
            Gate(
                kind=rec["kind"],
                targets=jsoninput.integers(rec["targets"], "circuit JSON 'targets'"),
                theta=jsoninput.number(rec.get("theta", 0.0), "circuit JSON 'theta'"),
                beta=jsoninput.number(rec.get("beta", 0.0), "circuit JSON 'beta'"),
                pattern=jsoninput.integers(rec.get("pattern", []), "circuit JSON 'pattern'"),
            )
        )
    return Circuit(q=q, gates=gates)


def circuit_dumps(circuit: Circuit) -> str:
    return json.dumps(circuit_to_json_dict(circuit), sort_keys=True)


def circuit_loads(s: str) -> Circuit:
    return circuit_from_json_dict(jsoninput.parse(s, "circuit JSON"))
