"""Simulator tests against a dense kron-product oracle and, byte for
byte, against the declared formulas: per gate, except that a run of
quarter turns is one product by i^c per amplitude."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import gapbench
from gapbench import circuits, poly3, statevector
from gapbench.config import CapExceeded
from gapbench.statevector import (
    Circuit,
    Gate,
    _quarter_counts,
    _turn,
    amplitude,
    apply_gate,
    circuit_dumps,
    circuit_loads,
    full_distribution,
    norm,
    run,
    sample,
    zero_state,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
TURNS = np.array([1, 1j, -1, -1j])  # i^c


def quarter_turns(gate):
    """k when gate is a diag_phase by theta == k*(pi/2) with |k| <= 4."""
    if gate.kind != "diag_phase":
        return None
    k = round(gate.theta / (math.pi / 2))
    return k if abs(k) <= 4 and k * (math.pi / 2) == gate.theta else None


def diag_factor(gate):
    """e^{i*theta}: exactly i^k for k quarter turns, else (cos, sin)."""
    k = quarter_turns(gate)
    if k is not None:
        return TURNS[k % 4]
    return complex(math.cos(gate.theta), math.sin(gate.theta))


def dense_unitary(gate, q):
    # independent reference: build the full 2^q x 2^q matrix
    if gate.kind in ("z", "cz", "ccz", "diag_phase"):
        if gate.kind == "diag_phase":
            pattern, phase = gate.pattern, diag_factor(gate)
        else:
            pattern, phase = (1,) * len(gate.targets), -1.0
        diag = np.ones(1 << q, dtype=complex)
        for x in range(1 << q):
            if all((x >> t) & 1 == b for t, b in zip(gate.targets, pattern)):
                diag[x] = phase
        return np.diag(diag)
    if gate.kind == "h":
        u = H
    elif gate.kind == "xrot":
        c, s = math.cos(gate.beta), math.sin(gate.beta)
        u = np.array([[c, -1j * s], [-1j * s, c]])
    t = gate.targets[0]
    return np.kron(np.kron(np.eye(1 << (q - 1 - t)), u), np.eye(1 << t))


def random_gate(rng, q):
    kind = rng.choice(["h", "z", "cz", "ccz", "diag_phase", "xrot"])
    if kind in ("cz", "ccz"):
        k = 2 if kind == "cz" else 3
        if q < k:
            kind = "z"
    if kind == "h" or kind == "z":
        return Gate(kind, (int(rng.integers(q)),))
    if kind == "xrot":
        return Gate("xrot", (int(rng.integers(q)),), beta=float(rng.uniform(0, math.pi)))
    if kind in ("cz", "ccz"):
        k = 2 if kind == "cz" else 3
        targets = tuple(int(i) for i in rng.choice(q, size=k, replace=False))
        return Gate(kind, targets)
    k = int(rng.integers(1, min(3, q) + 1))
    targets = tuple(int(i) for i in rng.choice(q, size=k, replace=False))
    pattern = tuple(int(b) for b in rng.integers(0, 2, size=k))
    if rng.random() < 0.5:
        theta = float(rng.uniform(0, 2 * math.pi))
    else:  # a multiple of pi/2: quarter turns up to |k| = 4, generic past it
        theta = int(rng.integers(-6, 7)) * (math.pi / 2)
    return Gate("diag_phase", targets, theta=theta, pattern=pattern)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("toffoli", (0, 1, 2))

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            Gate("h", (0, 1))
        with pytest.raises(ValueError):
            Gate("cz", (0,))
        with pytest.raises(ValueError):
            Gate("cz", (1, 1))

    def test_diag_phase_pattern_checks(self):
        with pytest.raises(ValueError):
            Gate("diag_phase", (0, 1), theta=1.0, pattern=(1,))
        with pytest.raises(ValueError):
            Gate("diag_phase", (0,), theta=1.0, pattern=(2,))
        with pytest.raises(ValueError):
            Gate("diag_phase", (0, 1, 2, 3), theta=1.0, pattern=(1, 1, 1, 1))

    @pytest.mark.parametrize("name, value", [("theta", math.nan), ("theta", math.inf),
                                             ("beta", -math.inf), ("beta", math.nan)])
    def test_non_finite_angles_are_refused(self, name, value):
        kind, extra = ("diag_phase", {"pattern": (1,)}) if name == "theta" else ("xrot", {})
        with pytest.raises(ValueError, match=rf"^gate {name} must be finite, got {value}$"):
            Gate(kind, (0,), **{name: value}, **extra)

    def test_circuit_target_range(self):
        with pytest.raises(ValueError):
            Circuit(q=2, gates=[Gate("h", (2,))])

    @pytest.mark.parametrize("late", [Gate("h", (2,)), Gate("cz", (0, 2)),
                                      Gate("ccz", (0, 1, -1)), Gate("xrot", (5,), beta=1.0)])
    def test_run_refuses_a_target_appended_out_of_range(self, late):
        c = Circuit(q=2, gates=[Gate("h", (0,)), Gate("z", (1,))])
        c.gates.append(late)
        bad = next(t for t in late.targets if not 0 <= t < 2)
        with pytest.raises(ValueError, match=rf"^target {bad} out of range for q = 2$"):
            run(c)

    @pytest.mark.parametrize("dtype, gate", [
        (np.float64, Gate("xrot", (0,), beta=0.3)),
        (np.float64, Gate("diag_phase", (1,), theta=0.5, pattern=(0,))),
        (np.float64, Gate("z", (0,))),
        (np.int64, Gate("h", (1,))),
        (np.complex64, Gate("h", (0,))),
    ])
    def test_apply_gate_refuses_a_state_that_is_not_complex128(self, dtype, gate):
        state = np.zeros(4, dtype=dtype)
        with pytest.raises(ValueError,
                           match=rf"^state has dtype {np.dtype(dtype)}, expected complex128$"):
            apply_gate(state, gate, 2)


class TestSingleGates:
    def test_h_on_zero(self):
        state = apply_gate(zero_state(1), Gate("h", (0,)), 1)
        assert np.allclose(state, [math.sqrt(0.5), math.sqrt(0.5)])

    def test_h_squared_is_identity(self):
        rng = np.random.default_rng(5)
        q = 5
        state = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        state /= np.linalg.norm(state)
        ref = state.copy()
        for t in range(q):
            apply_gate(state, Gate("h", (t,)), q)
            apply_gate(state, Gate("h", (t,)), q)
        assert np.max(np.abs(state - ref)) < 1e-12

    def test_ccz_flips_only_all_ones(self):
        q = 3
        state = np.full(8, math.sqrt(1 / 8), dtype=complex)
        apply_gate(state, Gate("ccz", (0, 1, 2)), q)
        signs = np.sign(state.real)
        assert signs[7] == -1 and np.all(signs[:7] == 1)

    def test_diag_phase_hits_matching_pattern_only(self):
        q = 2
        state = np.full(4, 0.5, dtype=complex)
        # pattern: qubit 0 = 1, qubit 1 = 0 -> basis index 0b01
        apply_gate(state, Gate("diag_phase", (0, 1), theta=math.pi / 2, pattern=(1, 0)), q)
        assert np.array_equal(state, [0.5, 0.5j, 0.5, 0.5])

    @pytest.mark.parametrize("k", range(-6, 7))
    def test_quarter_turns_are_multiples_of_pi_over_2_up_to_four(self, k):
        gate = Gate("diag_phase", (0,), theta=k * (math.pi / 2), pattern=(1,))
        assert statevector._quarters(gate) == (k if abs(k) <= 4 else None)
        near = Gate("diag_phase", (0,), theta=math.nextafter(gate.theta, 9.0), pattern=(1,))
        assert statevector._quarters(near) is None

    def test_a_huge_theta_keeps_the_textbook_factor(self):
        # 1e300 / (pi/2) rounds to an integer far past the bound, so the
        # gate is not read as quarter turns: its factor is (cos, sin)
        gate = Gate("diag_phase", (0,), theta=1e300, pattern=(1,))
        assert statevector._quarters(gate) is None
        circuit = Circuit(q=1, gates=[Gate("h", (0,)), gate])
        s = 1.0 / math.sqrt(2.0)  # the amplitude h leaves
        assert run(circuit)[1] == complex(s * math.cos(1e300), s * math.sin(1e300))
        assert abs(run(circuit)[1] - s * np.exp(1e300j)) < 1e-15
        assert_same_bytes(circuit)

    def test_little_endian_convention(self):
        # flipping qubit 0 ... a z on qubit 0 affects odd indices
        q = 2
        state = np.full(4, 0.5, dtype=complex)
        apply_gate(state, Gate("z", (0,)), q)
        assert np.allclose(state, [0.5, -0.5, 0.5, -0.5])


class TestAgainstDenseOracle:
    def test_random_circuits_match_matrix_product(self):
        rng = np.random.default_rng(11)
        for q in (1, 2, 3, 4):
            for _ in range(10):
                gates = [random_gate(rng, q) for _ in range(12)]
                got = run(Circuit(q=q, gates=gates))
                want = zero_state(q)
                for g in gates:
                    want = dense_unitary(g, q) @ want
                assert np.max(np.abs(got - want)) < 1e-12

    def test_norm_preserved_over_many_gates(self):
        rng = np.random.default_rng(13)
        q = 6
        state = zero_state(q)
        for _ in range(10_000):
            apply_gate(state, random_gate(rng, q), q)
        assert abs(norm(state) - 1.0) < 1e-10

    def test_diagonal_gates_commute(self):
        rng = np.random.default_rng(17)
        q = 5
        dials = [g for g in (random_gate(rng, q) for _ in range(60))
                 if g.kind in ("z", "cz", "ccz", "diag_phase")][:20]
        a = run(Circuit(q=q, gates=dials))
        perm = [dials[i] for i in rng.permutation(len(dials))]
        b = run(Circuit(q=q, gates=perm))
        assert np.max(np.abs(a - b)) < 1e-10


class TestMeasurement:
    def test_amplitude_and_distribution(self):
        state = run(Circuit(q=2, gates=[Gate("h", (0,)), Gate("h", (1,))]))
        assert abs(amplitude(state, 3) - 0.5) < 1e-12
        dist = full_distribution(state)
        assert np.allclose(dist, 0.25)
        with pytest.raises(ValueError):
            amplitude(state, 4)

    def test_norm_in_pieces_equals_the_whole_array_sum(self):
        # squares 2^16 at a time, summed as one array: the same float as
        # the one-expression sum, with one piece, two, or a short one
        rng = np.random.default_rng(89)
        for q in (1, 5, 16, 17):
            state = rng.standard_normal(1 << q) + 1j * rng.standard_normal(1 << q)
            assert norm(state) == float(np.sqrt(np.abs(state * state.conj()).sum()))

    def test_check_index_forms_no_power_of_two(self):
        # 2^(2^64) cannot be formed; the index range is read off bit lengths
        statevector.check_index(1 << 64, 1 << 1000)
        statevector.check_index(3, 7)
        for q, idx in [(3, 8), (3, -1), (1 << 64, -1)]:
            with pytest.raises(ValueError, match=f"^basis index {idx} out of range$"):
                statevector.check_index(q, idx)

    def test_sampling_deterministic_given_seed(self):
        state = run(Circuit(q=3, gates=[Gate("h", (t,)) for t in range(3)]))
        a = sample(state, np.random.default_rng(42), size=50)
        b = sample(state, np.random.default_rng(42), size=50)
        assert np.array_equal(a, b)

    def test_sampling_chi_square_against_distribution(self):
        # diagonal-conjugated circuit on 4 qubits, 1e5 samples
        rng = np.random.default_rng(23)
        q = 4
        gates = [Gate("h", (t,)) for t in range(q)]
        gates += [Gate("z", (0,)), Gate("cz", (1, 2)), Gate("ccz", (0, 2, 3)),
                  Gate("cz", (0, 3))]
        gates += [Gate("h", (t,)) for t in range(q)]
        state = run(Circuit(q=q, gates=gates))
        dist = full_distribution(state)
        draws = sample(state, rng, size=100_000)
        observed = np.bincount(draws, minlength=1 << q)
        keep = dist > 1e-12
        chi = stats.chisquare(observed[keep], 100_000 * dist[keep] / dist[keep].sum())
        assert chi.pvalue > 1e-4

    def test_sample_rejects_unnormalized(self):
        state = zero_state(2) * 2.0
        with pytest.raises(ValueError):
            sample(state, np.random.default_rng(0))


class TestCapsAndSerialization:
    def test_run_cap(self, monkeypatch):
        monkeypatch.setenv("GAPBENCH_SIM_CAP", "6")
        with pytest.raises(CapExceeded):
            run(Circuit(q=8, gates=[]))

    def test_distribution_cap(self, monkeypatch):
        monkeypatch.setenv("GAPBENCH_DIST_CAP", "4")
        state = zero_state(6)
        with pytest.raises(CapExceeded):
            full_distribution(state)

    def test_sample_size_cap(self, monkeypatch):
        monkeypatch.setenv("GAPBENCH_DIST_CAP", "6")
        state = zero_state(2)
        assert sample(state, np.random.default_rng(0), size=64).shape == (64,)
        with pytest.raises(CapExceeded, match=r"^sample: size = 65 exceeds cap 2\^6$"):
            sample(state, np.random.default_rng(0), size=65)

    def test_circuit_json_roundtrip(self):
        rng = np.random.default_rng(29)
        gates = [random_gate(rng, 4) for _ in range(15)]
        c = Circuit(q=4, gates=gates)
        c2 = circuit_loads(circuit_dumps(c))
        assert c2.q == c.q and c2.gates == c.gates
        out1 = run(c)
        out2 = run(c2)
        assert np.array_equal(out1, out2)


# -- byte identity with the per-gate formulas ---------------------------------


def reference_run(circuit: Circuit, runs: bool = True) -> np.ndarray:
    """The declared fold, each gate on its own through fresh temporaries,
    except that each maximal run of quarter turns is one product per
    amplitude by i^c, c its quarter turns mod 4.  With `runs` false every
    quarter turn is a run of its own, as `apply_gate` sees it."""
    q = circuit.q
    state = np.zeros(1 << q, dtype=np.complex128)
    state[0] = 1.0
    x = np.arange(1 << q)
    turns = None  # quarter turns of the open run, per amplitude

    def close_run():
        nonlocal turns
        if turns is not None:
            state[...] = state * TURNS[turns % 4]
            turns = None

    for gate in circuit.gates:
        k = quarter_turns(gate)
        if k is not None:
            match = np.all([(x >> t) & 1 == b for t, b in zip(gate.targets, gate.pattern)],
                           axis=0)
            turns = (0 if turns is None else turns) + k * match
            if not runs:
                close_run()
            continue
        close_run()
        if gate.kind in ("h", "xrot"):
            view = state.reshape(-1, 2, 1 << gate.targets[0])
            a = view[:, 0, :].copy()
            b = view[:, 1, :]
            if gate.kind == "h":
                view[:, 0, :] = (a + b) * (1.0 / math.sqrt(2.0))
                view[:, 1, :] = (a - b) * (1.0 / math.sqrt(2.0))
            else:
                c, s = math.cos(gate.beta), math.sin(gate.beta)
                view[:, 0, :] = c * a - 1j * s * b
                view[:, 1, :] = -1j * s * a + c * b
            continue
        pattern = gate.pattern if gate.kind == "diag_phase" else (1,) * len(gate.targets)
        sel: list = [slice(None)] * q
        for t, bit in zip(gate.targets, pattern):
            sel[q - 1 - t] = bit
        view = state.reshape((2,) * q)[(*sel, ...)]
        if gate.kind == "diag_phase":
            # separate real products, as no SIMD level fuses them
            c, s = math.cos(gate.theta), math.sin(gate.theta)
            re, im = view.real.copy(), view.imag.copy()
            view.real[...] = re * c - im * s
            view.imag[...] = re * s + im * c
        else:
            view *= -1.0
    close_run()
    return state


def assert_same_bytes(circuit: Circuit):
    assert run(circuit).tobytes() == reference_run(circuit).tobytes()
    state = zero_state(circuit.q)
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.q)
    assert state.tobytes() == reference_run(circuit, runs=False).tobytes()


SIGNS = ("z", "cz", "ccz")


def sign_gate(rng, q):
    k = int(rng.integers(1, min(3, q) + 1))
    targets = tuple(int(i) for i in rng.choice(q, size=k, replace=False))
    return Gate(SIGNS[k - 1], targets)


class TestByteIdentity:
    def test_h_z_z_keeps_the_signed_zero(self):
        # (-1+0j) * (-1+0j) * x is not x on signed zeros: parity cancellation
        # would print 0.0 here, negation -0.0 for H.Z
        hzz = Circuit(q=1, gates=[Gate("h", (0,)), Gate("z", (0,)), Gate("z", (0,))])
        assert np.signbit(run(hzz)[1].imag)
        assert_same_bytes(hzz)
        hz = Circuit(q=1, gates=[Gate("h", (0,)), Gate("z", (0,))])
        assert not np.signbit(run(hz)[1].imag)
        assert_same_bytes(hz)

    def test_random_circuits(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            q = int(rng.integers(1, 8))
            assert_same_bytes(Circuit(q=q, gates=[random_gate(rng, q) for _ in range(30)]))

    @pytest.mark.parametrize("lead", [[0, 1, 2, 3, 4, 5], [0, 1, 2], [1, 0, 2, 3],
                                      [0, 2, 1], [0, 0, 1], [3, 2, 1, 0], []])
    def test_partial_and_out_of_order_first_columns(self, lead):
        rng = np.random.default_rng(37 + len(lead))
        q = 6
        for _ in range(10):
            head = [Gate("h", (t,)) for t in lead]
            body = [random_gate(rng, q) for _ in range(25)]
            assert_same_bytes(Circuit(q=q, gates=head + body))
            # any other gate inside the column ends it, a deferred sign gate too
            for other in (sign_gate(rng, q), random_gate(rng, q)):
                split = int(rng.integers(len(lead) + 1))
                gates = head[:split] + [other] + head[split:] + body
                assert_same_bytes(Circuit(q=q, gates=gates))

    def test_circuits_without_h_keep_their_exact_zeros(self):
        rng = np.random.default_rng(41)
        for q in (1, 2, 4, 7):
            for _ in range(8):
                gates = [g for g in (random_gate(rng, q) for _ in range(40)) if g.kind != "h"]
                assert_same_bytes(Circuit(q=q, gates=gates))
                assert_same_bytes(Circuit(q=q, gates=[sign_gate(rng, q) for _ in range(9)]))

    @pytest.mark.parametrize("length", [254, 255, 256, 600])
    def test_sign_runs_longer_than_the_hit_counter(self, length):
        rng = np.random.default_rng(43 + length)
        for q in (3, 9):
            xrot = Gate("xrot", (q - 1,), beta=1.1)
            head = [Gate("h", (t,)) for t in range(q - 1)] + [xrot]
            body = [sign_gate(rng, q) for _ in range(length)]
            tail = [Gate("h", (t,)) for t in range(q)]
            assert_same_bytes(Circuit(q=q, gates=head + body + tail))
            # from |0...0> every amplitude but one stays a signed zero, and
            # its bytes depend on the number of complex products, not only
            # on its parity
            assert_same_bytes(Circuit(q=q, gates=body))

    PAPER_N = (1, 2, 3, 5, 8)

    def test_paper_circuits(self):
        rng = np.random.default_rng(47)
        for n in self.PAPER_N:
            f = poly3.random_poly(n, rng)
            assert_same_bytes(circuits.build_iqp(f))
            assert_same_bytes(circuits.build_iqp(poly3.strip_linear(f)))
            assert_same_bytes(circuits.qaoa_to_circuit(circuits.build_qaoa(f)))

    def test_sign_orbits_of_floats(self):
        # k products by -1.0 equal one product by the factor of 2k quarter
        # turns (+-1.0 on a float64 state), on every class of float: +-0,
        # +-0.7, +-5e-324, +-inf, +-nan, and, to fill 2^4 amplitudes, +-1,
        # +-the least normal float and +-the largest finite one
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        parts = np.array([0.0, -0.0, 0.7, -0.7, 5e-324, -5e-324, math.inf, -math.inf,
                          math.nan, -math.nan, 1.0, -1.0, tiny, -tiny, big, -big])
        with np.errstate(invalid="ignore"):
            for k in range(41):
                want = parts.copy()
                for _ in range(k):
                    want *= -1.0
                got = parts.copy()
                # one count run that puts 2k quarter turns on every index
                _turn(got, ((0, 2 * k),), np.empty(16))
                assert got.tobytes() == want.tobytes(), k


# -- IQP streams run in float64 -----------------------------------------------


def sign_gates(q):
    """z, cz or ccz on distinct targets of q qubits."""
    targets = st.integers(1, min(3, q)).flatmap(
        lambda k: st.lists(st.integers(0, q - 1), min_size=k, max_size=k, unique=True))
    return targets.map(lambda t: Gate(SIGNS[len(t) - 1], tuple(t)))


@st.composite
def iqp_streams(draw):
    """An H column on 0..q-1, up to 600 sign gates drawn from a pool of at
    most four (so gates repeat and their parities cancel), then 1..2q
    h gates on any qubits."""
    q = draw(st.integers(1, 8))
    pool = draw(st.lists(sign_gates(q), min_size=1, max_size=4))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        len(pool), size=draw(st.integers(0, 600)))
    tail = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=2 * q))
    gates = [Gate("h", (t,)) for t in range(q)] + [pool[i] for i in picks]
    return Circuit(q=q, gates=gates + [Gate("h", (t,)) for t in tail])


def planned_counts(q, gates, dtype):
    """The uint8 counts of `gates` on a state of `dtype`, which `_plan`
    makes one count run (or none, for no gates)."""
    *_, steps = statevector._plan(q, gates, dtype)
    assert [kernel for kernel, _ in steps] == [_turn] * len(steps) and len(steps) <= 1
    return _quarter_counts(q, steps[0][1] if steps else ())


def run_dtypes(monkeypatch, circuit_list):
    """The state dtype each run of `circuit_list` executes in."""
    seen = []
    execute = statevector._execute
    monkeypatch.setattr(statevector, "_execute",
                        lambda state, *a, **k: seen.append(state.dtype) or execute(state, *a, **k))
    for circuit in circuit_list:
        assert run(circuit).dtype == np.complex128
    return seen


class TestRealPath:
    def test_every_small_paper_circuit(self):
        for n in (1, 2, 3):
            terms = poly3.all_terms(n)
            for keep in itertools.product((False, True), repeat=len(terms)):
                f = poly3.Poly3.from_terms(n, [t for t, k in zip(terms, keep) if k])
                assert_same_bytes(circuits.build_iqp(f))
                assert_same_bytes(circuits.build_iqp(poly3.strip_linear(f)))

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(iqp_streams())
    def test_iqp_streams(self, circuit):
        assert_same_bytes(circuit)

    def test_iqp_streams_take_float64(self, monkeypatch):
        rng = np.random.default_rng(59)
        iqp = [circuits.build_iqp(poly3.random_poly(n, rng)) for n in (1, 4, 7)]
        iqp.append(Circuit(q=3, gates=[Gate("h", (t,)) for t in range(3)]))
        assert run_dtypes(monkeypatch, iqp) == [np.float64] * 4

    def test_every_other_stream_stays_complex(self, monkeypatch):
        rng = np.random.default_rng(61)
        f = poly3.random_poly(4, rng)
        column = [Gate("h", (t,)) for t in range(4)]
        signs = [Gate("cz", (0, 2)), Gate("z", (3,))]
        others = [
            circuits.qaoa_to_circuit(circuits.build_qaoa(f)),
            Circuit(q=1, gates=[Gate("h", (0,)), Gate("z", (0,)), Gate("z", (0,))]),
            Circuit(q=4, gates=column[:3] + signs + column),  # partial column
            Circuit(q=4, gates=column[::-1] + signs + column),  # out of order
            Circuit(q=4, gates=column[:2] + signs + column[2:] + column),  # sign inside
            Circuit(q=4, gates=column + signs),  # no closing h
            Circuit(q=4, gates=column + signs + column[:1] + signs + column),
            Circuit(q=4, gates=[]),
        ]
        assert run_dtypes(monkeypatch, others) == [np.complex128] * len(others)
        monkeypatch.undo()
        for circuit in others:
            assert_same_bytes(circuit)


# -- blocks: states that span many cache blocks --------------------------------


@pytest.fixture(scope="class", params=[16, 32, 64], ids=lambda b: f"{b}B")
def small_blocks(request):
    """Blocks of 2^4 to 2^6 bytes (one to eight amplitudes), so that every
    state of a few qubits spans many blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_BLOCK_BYTES", request.param)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestByteIdentityInSmallBlocks(TestByteIdentity):
    # at n = 8 the 16-qubit QAOA state is 2^14 or more blocks, each one
    # walked in Python
    PAPER_N = (1, 2, 3, 5)


@pytest.mark.usefixtures("small_blocks")
class TestRealPathInSmallBlocks(TestRealPath):
    pass


def any_gates(q):
    """A gate of any of the six kinds on q qubits."""
    qubits = st.integers(0, q - 1)
    angles = st.floats(0, 2 * math.pi)
    # multiples of pi/2: quarter turns up to |k| = 4, generic phases past it
    thetas = st.one_of(angles, st.integers(-6, 6).map(lambda k: k * (math.pi / 2)))
    diag = st.lists(qubits, min_size=1, max_size=min(3, q), unique=True).flatmap(
        lambda t: st.builds(Gate, st.just("diag_phase"), st.just(tuple(t)), theta=thetas,
                            pattern=st.tuples(*[st.integers(0, 1)] * len(t))))
    return st.one_of(
        qubits.map(lambda t: Gate("h", (t,))),
        st.builds(Gate, st.just("xrot"), qubits.map(lambda t: (t,)), beta=angles),
        sign_gates(q),
        diag,
    )


@st.composite
def blocked_streams(draw):
    """A block size of 2^4 to 2^6 bytes, and on q <= 7 qubits an H column
    on 0..c-1 (the column `run` writes) then up to 40 gates of all six
    kinds."""
    q = draw(st.integers(1, 7))
    column = [Gate("h", (t,)) for t in range(draw(st.integers(0, q)))]
    gates = draw(st.lists(any_gates(q), max_size=40))
    return draw(st.sampled_from([16, 32, 64])), Circuit(q=q, gates=column + gates)


@st.composite
def stretch_streams(draw):
    """A block of 2^4 to 2^6 bytes or the default one, and on q <= 8
    qubits one to three stretches: h or xrot on qubits t, t+1, ..., t+m-1
    in turn, t below the block's local qubits, h and xrot mixed.  Diagonal
    gates and lone gates of any kind go between them.  An IQP-shaped
    stream (the H column, sign gates, then stretches and lone gates of h
    alone) runs on a float64 state."""
    block = draw(st.sampled_from([16, 32, 64, statevector._BLOCK_BYTES]))
    q = draw(st.integers(1, 8))
    # the local qubits of a float64 state, the more of the two dtypes
    local = min(q, max(1, (block // 8).bit_length() - 1))
    real = draw(st.booleans())
    if real:
        gates = [Gate("h", (t,)) for t in range(q)]
        gates += draw(st.lists(sign_gates(q), max_size=6))
        between = st.lists(st.integers(0, q - 1).map(lambda t: Gate("h", (t,))), max_size=3)
    else:
        gates = [Gate("h", (t,)) for t in range(draw(st.integers(0, q)))]
        between = st.lists(any_gates(q), max_size=3)
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(0, local - 1))
        m = draw(st.integers(1, q - t))
        betas = draw(st.lists(st.none() if real else st.one_of(st.none(), st.floats(0, 3)),
                              min_size=m, max_size=m))
        gates += [Gate("h", (t + i,)) if beta is None else Gate("xrot", (t + i,), beta=beta)
                  for i, beta in enumerate(betas)]
        gates += draw(between)
    return block, Circuit(q=q, gates=gates)


class TestBlocks:
    # blocks of 16 bytes hold two complex amplitudes (a block holds at
    # least one pair), so qubit 0 is local and qubits 1..4 are not: the
    # column runs past a block, the diag_phase picks blocks with qubit 4
    # clear, and h and xrot act on both sides of the block boundary
    @example((16, Circuit(q=5, gates=[Gate("h", (t,)) for t in range(5)] + [
        Gate("diag_phase", (4, 0), theta=0.7, pattern=(0, 1)),
        Gate("h", (0,)), Gate("xrot", (0,), beta=0.4), Gate("h", (3,)),
        Gate("xrot", (4,), beta=1.3), Gate("cz", (1, 4)),
        Gate("diag_phase", (0, 2, 3), theta=2.1, pattern=(1, 0, 0))])))
    # partial columns (j < q): one that stops short, one that skips qubit
    # 1, and one that repeats qubit 1; the gates after it see the written
    # prefix of 2^j amplitudes and the +0 past it
    @example((16, Circuit(q=5, gates=[Gate("h", (t,)) for t in range(3)] + [
        Gate("cz", (1, 4)), Gate("h", (4,)), Gate("xrot", (3,), beta=0.9),
        Gate("diag_phase", (2,), theta=math.pi / 2, pattern=(1,)), Gate("h", (0,))])))
    @example((32, Circuit(q=4, gates=[Gate("h", (0,)), Gate("h", (2,)), Gate("h", (1,)),
                                      Gate("z", (2,)), Gate("h", (3,)), Gate("h", (2,))])))
    @example((16, Circuit(q=4, gates=[Gate("h", (0,)), Gate("h", (1,)), Gate("h", (1,)),
                                      Gate("h", (2,)), Gate("h", (3,)), Gate("ccz", (0, 1, 3)),
                                      Gate("diag_phase", (3, 1), theta=0.3, pattern=(1, 0))])))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(blocked_streams())
    def test_mixed_streams_across_blocks(self, drawn):
        block_bytes, circuit = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statevector, "_BLOCK_BYTES", block_bytes)
            assert_same_bytes(circuit)

    # a closing stretch that fills a 64-byte float64 block (qubits 0..2:
    # two stages and a gate in place), and one that starts inside a
    # 64-byte complex128 block (qubits 0 and 1) and leaves it
    @example((64, Circuit(q=5, gates=[Gate("h", (t,)) for t in range(5)] + [
        Gate("cz", (2, 4)), Gate("h", (0,)), Gate("h", (1,)), Gate("h", (2,)), Gate("h", (4,))])))
    @example((64, Circuit(q=5, gates=[Gate("xrot", (1,), beta=0.6), Gate("h", (2,)),
                                      Gate("xrot", (3,), beta=2.2)])))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(stretch_streams())
    def test_stretches_of_butterflies(self, drawn):
        block_bytes, circuit = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(statevector, "_BLOCK_BYTES", block_bytes)
            assert_same_bytes(circuit)

    def test_closing_columns_run_as_one_stage_walk_per_block(self, monkeypatch):
        # q = 18: the float64 IQP state is 4 blocks of 2^16 amplitudes and
        # the complex128 QAOA state 8 blocks of 2^15; only the column's
        # gates on qubits past a block run alone
        walks, lone = [], []
        stages, butterflies = statevector._stages, statevector._butterflies
        monkeypatch.setattr(statevector, "_stages", lambda block, gates, other: walks.append(
            tuple(g.targets[0] for g in gates)) or stages(block, gates, other))
        monkeypatch.setattr(statevector, "_butterflies", lambda state, gate, *rest: lone.append(
            gate.targets[0]) or butterflies(state, gate, *rest))
        rng = np.random.default_rng(79)
        run(circuits.build_iqp(poly3.random_poly(18, rng)))
        assert (walks, lone) == ([tuple(range(16))] * 4, [16, 17])
        walks.clear()
        lone.clear()
        run(circuits.qaoa_to_circuit(circuits.build_qaoa(poly3.random_poly(9, rng))))
        assert (walks, lone) == ([tuple(range(15))] * 8, [15, 16, 17])

    def test_sign_parity_counts_supersets_mod_2(self):
        # two quarter turns per sign gate: bit 1 of the count is the parity
        # the GF(2) zeta transform of the masks gave
        rng = np.random.default_rng(67)
        for q in range(1, 12):
            x = np.arange(1 << q)
            for _ in range(6):
                gates = [sign_gate(rng, q) for _ in range(rng.integers(0, 30))]
                gates += gates[: len(gates) // 2] + gates[: len(gates) // 3]  # repeats
                masks = [sum(1 << t for t in g.targets) for g in gates]
                hits = sum((((x & m) == m).astype(np.int64) for m in masks), np.zeros_like(x))
                counts = planned_counts(q, gates, np.float64)
                assert np.array_equal(counts & 2 != 0, hits % 2 == 1), (q, masks)
                assert np.array_equal(counts, 2 * hits % 256), (q, masks)

    def test_quarter_counts_match_the_direct_count(self):
        rng = np.random.default_rng(73)
        for q in range(1, 12):
            x = np.arange(1 << q)
            for _ in range(6):
                gates = [g for g in (random_gate(rng, q) for _ in range(200))
                         if quarter_turns(g) is not None][:40]
                want = sum((quarter_turns(g) * np.all(
                    [(x >> t) & 1 == b for t, b in zip(g.targets, g.pattern)], axis=0)
                    for g in gates), np.zeros_like(x))
                assert np.array_equal(planned_counts(q, gates, np.complex128), want % 256)

    def test_one_parity_build_per_sign_run(self, monkeypatch):
        # a build records its run's sign gates, each two quarter turns at
        # the mask of its targets
        builds = []
        counts = statevector._quarter_counts
        monkeypatch.setattr(statevector, "_quarter_counts", lambda q, coefs: builds.append(
            sum(c for _, c in coefs) // 2) or counts(q, coefs))
        f = poly3.random_poly(9, np.random.default_rng(71))
        run(circuits.build_iqp(f))
        assert builds == [len(f.terms)]
        # an h between sign gates splits the run in two
        builds.clear()
        column = [Gate("h", (t,)) for t in range(4)]
        gates = column + [Gate("cz", (0, 2)), Gate("z", (3,)), Gate("ccz", (0, 1, 3)),
                          Gate("h", (1,)), Gate("z", (1,)), Gate("z", (1,))] + column
        state = np.zeros(16)
        state[0] = 1.0
        *_, k, steps = statevector._plan(4, gates, np.float64)
        statevector._execute(state, k, steps)
        assert builds == [3, 2]
        assert state.astype(np.complex128).tobytes() == reference_run(
            Circuit(q=4, gates=gates)).tobytes()


def plan_outline(steps):
    """Each step of a plan as "count", ("blocks", [each entry as its
    stretch's qubits or its diagonal gate's kind]), or (kind, qubit) for a
    lone h or xrot."""
    outline = []
    for kernel, payload in steps:
        if kernel is _turn:
            outline.append("count")
        elif kernel is statevector._run_blocks:
            outline.append(("blocks", [tuple(g.targets[0] for g in gate) if index is None
                                       else gate.kind for gate, index, _, _ in payload]))
        else:
            assert kernel is statevector._butterflies
            outline.append((payload.kind, payload.targets[0]))
    return outline


class TestPlan:
    # the bench's four shapes: the H column is written, the phases are one
    # count run, the closing column's qubits inside a block are one stretch
    # of one block run (2^16 float64 or 2^15 complex128 amplitudes), and
    # the column's qubits past the block are lone butterflies
    @pytest.mark.parametrize("shape, n, dtype, k, lone", [
        ("iqp", 16, np.float64, 16, []),
        ("iqp", 18, np.float64, 16, [("h", 16), ("h", 17)]),
        ("qaoa", 8, np.complex128, 15, [("xrot", 15)]),
        ("qaoa", 9, np.complex128, 15, [("xrot", 15), ("xrot", 16), ("xrot", 17)]),
    ])
    def test_plans_of_the_bench_shapes(self, shape, n, dtype, k, lone):
        f = poly3.random_poly(n, np.random.default_rng(107))
        if shape == "iqp":
            circuit = circuits.build_iqp(f)
        else:
            circuit = circuits.qaoa_to_circuit(circuits.build_qaoa(f))
        q = circuit.q
        j, m, got_dtype, got_k, steps = statevector._plan(q, circuit.gates)
        s = 1.0
        for _ in range(q):
            s *= 1.0 / math.sqrt(2.0)
        assert (j, m, got_dtype, got_k) == (q, s, dtype, k)
        assert plan_outline(steps) == ["count", ("blocks", [tuple(range(k))])] + lone
        # the count run's pairs give each index its quarter turns
        x = np.arange(1 << q)
        want = np.zeros_like(x)
        for g in circuit.gates[q:]:
            if g.kind in SIGNS or g.kind == "diag_phase":
                turns = 2 if g.kind in SIGNS else quarter_turns(g)
                pattern = g.pattern or (1,) * len(g.targets)
                want += turns * np.all([(x >> t) & 1 == b for t, b in zip(g.targets, pattern)],
                                       axis=0)
        assert np.array_equal(_quarter_counts(q, steps[0][1]), want % 256)

    def test_steps_are_frozen(self):
        gates = [Gate("h", (t,)) for t in range(3)] + [
            Gate("diag_phase", (0, 2), theta=math.pi / 2, pattern=(0, 1)),
            Gate("diag_phase", (1,), theta=0.3, pattern=(1,)), Gate("h", (0,)), Gate("h", (1,))]
        *_, steps = statevector._plan(3, gates)
        assert isinstance(steps, tuple)
        for step in steps:
            assert isinstance(step, tuple) and isinstance(step[1], (tuple, Gate))
        assert plan_outline(steps) == ["count", ("blocks", ["diag_phase", (0, 1)])]


# numpy's x86-64-v2 baseline: no AVX2, AVX-512 or FMA loops
BASELINE = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
DIGESTS = """
import hashlib, sys
from gapbench.statevector import circuit_loads, run
for line in sys.stdin:
    print(hashlib.sha256(run(circuit_loads(line)).tobytes()).hexdigest())
"""


def digests_at_the_simd_baseline(circuit_list) -> list:
    src = str(Path(gapbench.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **BASELINE, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", DIGESTS], env=env, check=True, text=True,
                          capture_output=True,
                          input="".join(circuit_dumps(c) + "\n" for c in circuit_list))
    return done.stdout.split()


class TestSimdLevels:
    def test_bytes_do_not_depend_on_the_simd_level(self):
        # the same circuits replayed in a process that numpy runs at its
        # baseline: generic phases, quarter turns, h and xrot alone, and
        # stretches of them as stage walks
        rng = np.random.default_rng(83)
        column = [Gate("h", (t,)) for t in range(12)]
        lone = Gate("diag_phase", (3,), theta=0.7318, pattern=(1,))
        circuit_list = [
            Circuit(q=12, gates=column + [Gate("xrot", (5,), beta=0.4), lone]),
            Circuit(q=12, gates=column + [random_gate(rng, 12) for _ in range(80)]),
            Circuit(q=16, gates=column + [random_gate(rng, 16) for _ in range(40)]),
            Circuit(q=12, gates=[Gate("xrot", (int(t),), beta=float(rng.uniform(0, 3)))
                                 if rng.random() < 0.5 else Gate("h", (int(t),))
                                 for t in rng.integers(0, 12, size=60)]),
            circuits.qaoa_to_circuit(circuits.build_qaoa(poly3.random_poly(7, rng))),
            # stage walks over whole default blocks: float64 in 2 blocks of
            # 2^16, complex128 in 4 blocks of 2^15 with xrot past them
            circuits.build_iqp(poly3.random_poly(17, rng)),
            circuits.qaoa_to_circuit(circuits.build_qaoa(poly3.random_poly(8, rng))),
        ]
        here = [hashlib.sha256(run(c).tobytes()).hexdigest() for c in circuit_list]
        assert digests_at_the_simd_baseline(circuit_list) == here


class TestMemory:
    # Measured peaks at q = 18, in 4 MiB complex128 states: IQP 1.50 (the
    # float64 state and the complex128 copy `run` returns), QAOA 1.19 (the
    # state, one 512 KiB block of scratch, and the uint8 counts of the
    # quarter-turn run, a sixteenth of a state).  Its block walk peaks at
    # 1.13: stage reads and writes are in different buffers, so no ufunc
    # takes a copy of an input.  The bound adds a sixteenth of a state
    # (256 KiB).
    @pytest.mark.parametrize("build, measured", [("iqp", 1.5), ("qaoa", 1.19)])
    def test_run_peak_stays_within_a_sixteenth_state_of_the_measured_peak(self, build,
                                                                          measured):
        f = poly3.random_poly(18 if build == "iqp" else 9, np.random.default_rng(53))
        if build == "iqp":
            circuit = circuits.build_iqp(f)
        else:
            circuit = circuits.qaoa_to_circuit(circuits.build_qaoa(f))
        tracemalloc.start()
        try:
            run(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (measured + 1 / 16) * (16 << 18)

    def test_norm_peak_stays_under_eight_tenths_of_a_state(self):
        # the float64 squares (half a state) and one piece of 2^16 complex
        # products (a quarter of a state at q = 18); measured 0.75
        rng = np.random.default_rng(97)
        state = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
        tracemalloc.start()
        try:
            norm(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * (16 << 18)

    def test_sample_peak_stays_under_eleven_twentieths_of_a_state(self):
        # the float64 probabilities (half a state), summed in place into
        # their cumulative sums; measured 0.50 (1.00 with a separate cumsum)
        rng = np.random.default_rng(101)
        state = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
        state /= np.linalg.norm(state)
        tracemalloc.start()
        try:
            sample(state, np.random.default_rng(103), size=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * (16 << 18)
