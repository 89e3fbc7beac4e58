"""State-vector simulator: oracle checks against dense kron algebra."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhevqa import simulator
from qhevqa.pauli_frame import apply_pad, remove_pad
from qhevqa.simulator import (
    FIXED_1Q,
    GATE_KINDS,
    ROTATION_1Q,
    TWO_QUBIT_KINDS,
    Gate,
    PauliString,
    SimulatorError,
    StateVector,
    amplitude_encode,
    apply_circuit,
    apply_gate,
    apply_matrix,
    bell_measure,
    expectation,
    fidelity,
    gate,
    measure,
    permute_wires,
    prepare_plus_theta,
    random_state,
    reduced_density_matrix,
    remove_wire,
    tensor,
    trace_distance_dm,
)


def tensordot_apply(state, matrix, wires):
    """The simulator's former kernel, kept as the oracle: the matrix contracted
    into the [2] * n tensor by ``tensordot``, then the axes put back."""
    n, k = state.num_qubits, len(wires)
    psi = state.amplitudes.reshape([2] * n)
    waxes = [n - 1 - w for w in wires]
    psi = np.tensordot(matrix.reshape([2] * (2 * k)), psi, axes=(list(range(k, 2 * k)), waxes))
    # tensordot leaves the fresh output axes first (one per listed wire, in
    # list order) followed by the untouched axes in increasing original order.
    other = [a for a in range(n) if a not in waxes]
    current = {a: i for i, a in enumerate(waxes)}
    current.update({a: k + j for j, a in enumerate(other)})
    psi = np.transpose(psi, axes=[current[a] for a in range(n)])
    return StateVector(n, psi.reshape(-1))


def state_with_zeros(n, rng):
    """A normalised random state with about a third of its amplitudes exactly 0."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v[rng.random(2**n) < 1 / 3] = 0
    v[rng.integers(2**n)] = 1.0
    return StateVector(n, v / np.linalg.norm(v))


def has_negative_zero(amps):
    parts = amps.view(float)
    return bool(np.signbit(parts[parts == 0]).any())


def random_wires(kind, n, rng):
    count = 2 if kind in TWO_QUBIT_KINDS else 1
    return tuple(int(w) for w in rng.choice(n, count, replace=False))


# Gates that are a permutation and a sign (X, Y, Z, CNOT, CZ) must equal the
# oracle's values; the oracle's products may leave a zero as -0.0 where the
# kernels leave +0.0, so they are compared with ``array_equal``. Every other
# gate goes through the same matrix product as the oracle, so its bytes match.
PERMUTATION_KINDS = ("X", "Y", "Z") + TWO_QUBIT_KINDS


class TestKernelsAgainstTensordot:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from(GATE_KINDS))
    def test_every_gate_kind(self, seed, n, kind):
        if kind in TWO_QUBIT_KINDS and n < 2:
            n = 2
        rng = np.random.default_rng(seed)
        state = state_with_zeros(n, rng)
        angle = float(rng.uniform(-4, 4)) if kind in ROTATION_1Q else None
        g = Gate(kind, random_wires(kind, n, rng), angle)
        got = apply_gate(state, g).amplitudes
        want = tensordot_apply(state, g.matrix(), g.wires).amplitudes
        if kind in PERMUTATION_KINDS:
            assert np.array_equal(got, want)
            assert not has_negative_zero(got)
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_pads(self, seed, n):
        rng = np.random.default_rng(seed)
        state = state_with_zeros(n, rng)
        pad = [(int(a), int(b)) for a, b in rng.integers(2, size=(n, 2))]
        x, z = FIXED_1Q["X"], FIXED_1Q["Z"]
        padded = unpadded = state
        for w, (a, b) in enumerate(pad):
            if b:
                padded = tensordot_apply(padded, z, [w])
            if a:
                padded = tensordot_apply(padded, x, [w])
            if a:
                unpadded = tensordot_apply(unpadded, x, [w])
            if b:
                unpadded = tensordot_apply(unpadded, z, [w])
        for got, want in ((apply_pad(state, pad), padded), (remove_pad(state, pad), unpadded)):
            assert np.array_equal(got.amplitudes, want.amplitudes)
            assert not has_negative_zero(got.amplitudes)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_expectation(self, seed, n):
        rng = np.random.default_rng(seed)
        state = state_with_zeros(n, rng)
        wires = tuple(int(w) for w in rng.permutation(n)[: rng.integers(1, n + 1)])
        factors = tuple(str(f) for f in rng.choice(list("IXYZ"), len(wires)))
        transformed = state
        for f, w in zip(factors, wires):
            if f != "I":
                transformed = tensordot_apply(transformed, FIXED_1Q[f], [w])
        want = float(np.real(np.vdot(state.amplitudes, transformed.amplitudes)))
        assert expectation(state, PauliString(factors, wires)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_measurement_probability(self, seed, n):
        # The Born probability decides every sampled outcome, so it must be
        # the former full-tensor reduction's bytes, not just close to them.
        rng = np.random.default_rng(seed)
        state = state_with_zeros(n, rng)
        w = int(rng.integers(n))
        psi = state.amplitudes.reshape([2] * n)
        axis = n - 1 - w
        want = np.sum(np.abs(psi) ** 2, axis=tuple(a for a in range(n) if a != axis))[1]
        assert simulator._prob_one(state, w) == float(want)


def dense_1q(num_qubits, wire, m):
    """Little-endian oracle: qubit 0 is the least significant index bit."""
    out = np.array([[1.0 + 0j]])
    for w in range(num_qubits):
        out = np.kron(m if w == wire else np.eye(2), out)
    return out


class TestApplyMatrix:
    def test_single_qubit_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            w = int(rng.integers(n))
            m = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            st = random_state(n, rng)
            got = apply_matrix(st, m, [w]).amplitudes
            want = dense_1q(n, w, m) @ st.amplitudes
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_cnot_truth_table(self):
        # First listed wire is the control and the most significant matrix bit.
        for c_in in range(2):
            for t_in in range(2):
                amps = np.zeros(4)
                amps[(t_in << 1) | c_in] = 1.0  # wire0=control holds bit c_in
                st = StateVector(2, amps)
                out = apply_gate(st, gate("CNOT", 0, 1))
                expect = (t_in ^ c_in) << 1 | c_in
                assert abs(out.amplitudes[expect]) == pytest.approx(1.0)

    def test_two_qubit_against_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            st = random_state(3, rng)
            got = apply_gate(st, gate("CNOT", 2, 0)).amplitudes
            # oracle: permute wires so (2, 0) become (MSB, LSB) of the matrix
            full = np.zeros((8, 8), dtype=complex)
            for i in range(8):
                c, t = (i >> 2) & 1, i & 1
                j = (i & 0b010) | ((t ^ c)) | (c << 2)
                full[j, i] = 1.0
            np.testing.assert_allclose(got, full @ st.amplitudes, atol=1e-12)

    def test_rejects_bad_wires(self):
        st = StateVector(2)
        with pytest.raises(SimulatorError):
            apply_gate(st, gate("H", 5))
        with pytest.raises(SimulatorError):
            apply_gate(st, gate("CNOT", 0, 0))
        with pytest.raises(SimulatorError):
            apply_matrix(st, np.eye(4), [0, 1])


class TestGateAlgebra:
    def test_fixed_gates_unitary(self):
        for kind, m in FIXED_1Q.items():
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_t_squared_is_p(self):
        t = FIXED_1Q["T"]
        np.testing.assert_allclose(t @ t, FIXED_1Q["P"], atol=1e-12)

    def test_p_dagger(self):
        np.testing.assert_allclose(
            FIXED_1Q["Pdagger"], FIXED_1Q["P"].conj().T, atol=1e-12
        )

    def test_rotation_periodicity(self):
        g0 = gate("RX", 0, angle=0.7)
        g1 = gate("RX", 0, angle=0.7 + 4 * np.pi)
        np.testing.assert_allclose(g0.matrix(), g1.matrix(), atol=1e-12)


class TestMeasurement:
    def test_statistics_match_born_rule(self):
        rng = np.random.default_rng(2)
        st = random_state(1, rng)
        p1 = abs(st.amplitudes[1]) ** 2
        hits = sum(measure(st, 0, rng)[0] for _ in range(4000))
        assert abs(hits / 4000 - p1) < 0.03

    def test_collapse_is_projective(self):
        rng = np.random.default_rng(3)
        st = random_state(3, rng)
        outcome, post = measure(st, 1, rng)
        again, _ = measure(post, 1, rng)
        assert again == outcome

    def test_remove_wire(self):
        rng = np.random.default_rng(5)
        a, b = random_state(1, rng), random_state(2, rng)
        st = tensor(a, b)
        outcome, post = measure(st, 0, rng)
        reduced = remove_wire(post, 0, outcome)
        assert reduced.num_qubits == 2
        assert fidelity(reduced, b) == pytest.approx(1.0, abs=1e-12)


class TestBellMeasure:
    def test_teleportation_identity(self):
        # Bell-measuring a state against half an EPR pair teleports it with
        # the X^v Z^u correction indexed by the outcome bits.
        rng = np.random.default_rng(6)
        for trial in range(20):
            psi = random_state(1, rng)
            epr = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
            full = tensor(psi, epr)
            (u, v), rest = bell_measure(full, 0, 1, rng)
            out = rest
            if v:
                out = apply_gate(out, gate("X", 0))
            if u:
                out = apply_gate(out, gate("Z", 0))
            assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_outcomes_uniform(self):
        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(800):
            psi = random_state(1, rng)
            epr = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
            (u, v), _ = bell_measure(tensor(psi, epr), 0, 1, rng)
            counts[(u, v)] = counts.get((u, v), 0) + 1
        for k in counts:
            assert abs(counts[k] / 800 - 0.25) < 0.08


class TestCompositions:
    def test_tensor_orders_first_factor_low(self):
        a = StateVector(1, np.array([0, 1.0]))  # |1>
        b = StateVector(1, np.array([1.0, 0]))  # |0>
        joint = tensor(a, b)
        assert abs(joint.amplitudes[0b01]) == pytest.approx(1.0)

    def test_permute_round_trip(self):
        rng = np.random.default_rng(8)
        st = random_state(3, rng)
        perm = [2, 0, 1]
        inverse = [perm.index(i) for i in range(3)]
        back = permute_wires(permute_wires(st, perm), inverse)
        np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-12)

    def test_reduced_density_pure_product(self):
        rng = np.random.default_rng(9)
        a, b = random_state(1, rng), random_state(2, rng)
        st = tensor(a, b)
        rho = reduced_density_matrix(st, [0])
        np.testing.assert_allclose(
            rho, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12
        )

    def test_reduced_density_trace_one(self):
        rng = np.random.default_rng(10)
        st = random_state(4, rng)
        rho = reduced_density_matrix(st, [1, 3])
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


class TestObservables:
    def test_expectation_matches_dense(self):
        rng = np.random.default_rng(11)
        st = random_state(2, rng)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        dense = np.kron(x, x)  # wire1 high, wire0 low
        want = (st.amplitudes.conj() @ dense @ st.amplitudes).real
        got = expectation(st, PauliString(("X", "X"), (0, 1)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_fidelity_phase_invariant(self):
        rng = np.random.default_rng(12)
        st = random_state(2, rng)
        rotated = StateVector(2, st.amplitudes * np.exp(1j * 0.9))
        assert fidelity(st, rotated) == pytest.approx(1.0, abs=1e-12)


class TestEncodings:
    def test_amplitude_encode_normalizes(self):
        vec = np.arange(1, 65, dtype=float)
        st = amplitude_encode(vec, 6)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            st.amplitudes.real, vec / np.linalg.norm(vec), atol=1e-12
        )

    def test_amplitude_encode_pads(self):
        st = amplitude_encode([3.0, 4.0], 2)
        np.testing.assert_allclose(
            st.amplitudes.real, [0.6, 0.8, 0.0, 0.0], atol=1e-12
        )

    def test_prepare_plus_theta_quarter_turns(self):
        for idx in range(4):
            st = prepare_plus_theta(idx * np.pi / 2)
            want = np.array([1.0, np.exp(1j * idx * np.pi / 2)]) / np.sqrt(2)
            assert fidelity(st, StateVector(1, want)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([k for k in FIXED_1Q if k != "I"]),
)
def test_gates_preserve_norm(seed, kind):
    rng = np.random.default_rng(seed)
    state = random_state(2, rng)
    out = apply_gate(state, gate(kind, int(rng.integers(2))))
    assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_circuit_linearity(seed):
    rng = np.random.default_rng(seed)
    circ = [gate("H", 0), gate("CNOT", 0, 1), gate("T", 1)]
    a, b = random_state(2, rng), random_state(2, rng)
    mixed = StateVector(2, (a.amplitudes + b.amplitudes) / np.linalg.norm(a.amplitudes + b.amplitudes))
    lhs = apply_circuit(mixed, circ).amplitudes
    rhs = apply_circuit(a, circ).amplitudes + apply_circuit(b, circ).amplitudes
    rhs /= np.linalg.norm(rhs)
    phase = rhs @ lhs.conj()
    assert abs(abs(phase) - 1.0) < 1e-10


def test_trace_distance_dm_extremes():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance_dm(zero, zero) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance_dm(zero, one) == pytest.approx(1.0, abs=1e-12)
