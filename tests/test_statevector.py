"""Simulator tests against a dense kron-product oracle and, byte for
byte, against the per-gate formulas."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gapbench import circuits, poly3, statevector
from gapbench.config import CapExceeded
from gapbench.statevector import (
    Circuit,
    Gate,
    _flush_signs,
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


def dense_unitary(gate, q):
    # independent reference: build the full 2^q x 2^q matrix
    if gate.kind in ("z", "cz", "ccz", "diag_phase"):
        if gate.kind == "diag_phase":
            pattern, phase = gate.pattern, np.exp(1j * gate.theta)
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
    return Gate("diag_phase", targets, theta=float(rng.uniform(0, 2 * math.pi)), pattern=pattern)


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
        assert np.allclose(state, [0.5, 0.5j, 0.5, 0.5])

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


def reference_run(circuit: Circuit) -> np.ndarray:
    """The textbook fold: each gate on its own, through fresh temporaries."""
    q = circuit.q
    state = np.zeros(1 << q, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
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
        if gate.kind == "diag_phase":
            pattern, factor = gate.pattern, np.exp(1j * gate.theta)
        else:
            pattern, factor = (1,) * len(gate.targets), -1.0
        sel: list = [slice(None)] * q
        for t, bit in zip(gate.targets, pattern):
            sel[q - 1 - t] = bit
        state.reshape((2,) * q)[tuple(sel)] *= factor
    return state


def assert_same_bytes(circuit: Circuit):
    want = reference_run(circuit).tobytes()
    assert run(circuit).tobytes() == want
    state = zero_state(circuit.q)
    for gate in circuit.gates:
        apply_gate(state, gate, circuit.q)
    assert state.tobytes() == want


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

    def test_paper_circuits(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8):
            f = poly3.random_poly(n, rng)
            assert_same_bytes(circuits.build_iqp(f))
            assert_same_bytes(circuits.build_iqp(poly3.strip_linear(f)))
            assert_same_bytes(circuits.qaoa_to_circuit(circuits.build_qaoa(f)))

    def test_sign_orbits_of_floats(self):
        # k products by -1.0 equal one flush of the parity k % 2, on every
        # class of float: +-0, +-0.7, +-5e-324, +-inf, +-nan
        parts = np.array([0.0, -0.0, 0.7, -0.7, 5e-324, -5e-324, math.inf, -math.inf,
                          math.nan, -math.nan])
        with np.errstate(invalid="ignore"):
            for k in range(41):
                want = parts.copy()
                for _ in range(k):
                    want *= -1.0
                got = parts.copy()
                parity = np.full(got.shape, k % 2 == 1)
                _flush_signs(got, parity)
                assert got.tobytes() == want.tobytes(), k
                assert not parity.any()


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


class TestMemory:
    # numpy's buffered iteration over 2-D strided operands holds up to
    # three 128 KiB buffers at once whatever the state size, which at
    # q = 14 (a 256 KiB state) alone is 1.5 states; at q = 18 it is
    # under a tenth of one
    @pytest.mark.parametrize("build", ["iqp", "qaoa"])
    def test_run_peak_stays_within_two_and_a_quarter_states(self, build):
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
        assert peak <= 2.25 * (16 << 18)
