"""Remote state preparation and the encrypted conditional-phase gadget."""
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhevqa.classical_he import (
    encrypt_seed,
    he_dec,
    he_enc,
    he_keygen,
    public_masked_parity,
)
from qhevqa.pauli_frame import verify_conjugation
from qhevqa.rsp_gadget import (
    MAX_DRAWS,
    GadgetError,
    assemble_gadget_state,
    claw_round,
    consume_gadget,
    gadget_key_update,
    gen_gadget,
    gen_measurement,
    pair_byproduct,
    rsp_round_ideal,
    rsp_server_commit,
    rsp_server_measure,
    rsp_theta_index,
    sample_trapdoor,
    theta_bits,
    twist_bits,
)
from qhevqa.simulator import (
    StateVector,
    apply_gate,
    bell_measure,
    fidelity,
    gate,
    measure,
    prepare_plus_theta,
    remove_wire,
    tensor,
)


def rand_state(n, rng):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def recording(round_):
    """Wrap a round so every (theta_index, handle) it yields is logged."""
    log = []

    def wrapped(rng):
        log.append(round_(rng))
        return log[-1]

    return wrapped, log


def image(td, x):
    """The trapdoor function's image Ax over GF(2)."""
    return td.matrix @ x % 2


def build(round_, k_bit, rng, couple=None):
    l0 = he_keygen(16, rng, level=0)
    l1 = he_keygen(16, rng, level=1)
    return gen_gadget(l1.pk, encrypt_seed(l1.pk, l0.sk, rng), k_bit, rng, round_, couple)


class TestThetaBits:
    def test_frozen_table(self):
        assert [theta_bits(i) for i in range(4)] == [
            (0, 0, 0),
            (0, 1, 1),
            (1, 1, 0),
            (0, 0, 1),
        ]

    def test_rejects_out_of_range(self):
        with pytest.raises(GadgetError):
            theta_bits(4)

    def test_pair_byproduct_formula(self):
        for x, z, p, u, v in product((0, 1), repeat=5):
            da, db = pair_byproduct(x, z, p, u, v)
            assert da == x ^ v
            assert db == z ^ u ^ (p & (x ^ v))


class TestSinglePairContract:
    def test_teleport_identity_all_angles(self):
        # One coupled pair, input Bell-measured against the head, must act as
        # X^(x+v) Z^(z+u+p(x+v)) Pdagger^p with x from the head angle and
        # (z, p) from the tail angle.
        rng = np.random.default_rng(0)
        for h in (0, 2):
            for t in range(4):
                x = theta_bits(h)[0]
                z = theta_bits(t)[1]
                p = t & 1
                for _ in range(4):
                    psi = rand_state(1, rng)
                    pair = tensor(
                        prepare_plus_theta(h * np.pi / 2),
                        prepare_plus_theta(t * np.pi / 2),
                    )
                    pair = apply_gate(pair, gate("CZ", 0, 1))
                    pair = apply_gate(pair, gate("H", 0))
                    full = tensor(psi, pair)  # input=0, head=1, tail=2
                    (u, v), rest = bell_measure(full, 0, 1, rng)
                    da, db = pair_byproduct(x, z, p, u, v)
                    want = psi
                    for _i in range(p):
                        want = apply_gate(want, gate("Pdagger", 0))
                    if db:
                        want = apply_gate(want, gate("Z", 0))
                    if da:
                        want = apply_gate(want, gate("X", 0))
                    assert fidelity(rest, want) == pytest.approx(1.0, abs=1e-10)


class TestTrapdoor:
    def test_sampled_function_is_two_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            td = sample_trapdoor(4, 4, rng)
            assert td.kernel[td.n - 1] == 1
            assert not image(td, td.kernel).any()
            images = {}
            for xi in range(2**td.n):
                x = np.array([(xi >> j) & 1 for j in range(td.n)])
                y = tuple(image(td, x))
                images.setdefault(y, []).append(xi)
            assert all(len(v) == 2 for v in images.values())

    def test_preimages_form_claw(self):
        rng = np.random.default_rng(2)
        td = sample_trapdoor(5, 6, rng)
        for _ in range(10):
            x = rng.integers(0, 2, td.n)
            y = image(td, x)
            x1, x2 = td.preimages(y)
            assert not ((x1 ^ x2) ^ td.kernel).any()
            assert not (image(td, x1) ^ y).any()
            assert not (image(td, x2) ^ y).any()

    def test_preimages_reject_out_of_image(self):
        # mu > rank means some image points are unreachable.
        rng = np.random.default_rng(3)
        td = sample_trapdoor(3, 5, rng)
        reachable = {
            tuple(image(td, np.array([(xi >> j) & 1 for j in range(td.n)])))
            for xi in range(2**td.n)
        }
        bad = next(
            y
            for y in product((0, 1), repeat=len(td.matrix))
            if y not in reachable
        )
        with pytest.raises(GadgetError):
            td.preimages(np.array(bad))

    def test_rejects_bad_dimensions(self):
        rng = np.random.default_rng(4)
        with pytest.raises(GadgetError):
            sample_trapdoor(1, 4, rng)
        with pytest.raises(GadgetError):
            sample_trapdoor(4, 2, rng)


class TestRemotePreparation:
    def test_ideal_round_state_matches_index(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            idx, state = rsp_round_ideal(rng)
            want = prepare_plus_theta(idx * np.pi / 2)
            assert fidelity(state, want) == pytest.approx(1.0, abs=1e-12)

    def test_faithful_round_state_matches_recovered_index(self):
        rng = np.random.default_rng(6)
        matrices = []

        def commit(matrix, r):
            matrices.append(matrix.tobytes())
            return rsp_server_commit(matrix, r)

        round_ = claw_round(commit, rsp_server_measure)
        seen = set()
        for _ in range(40):
            idx, state = round_(rng)
            seen.add(idx)
            want = prepare_plus_theta(idx * np.pi / 2)
            assert fidelity(state, want) == pytest.approx(1.0, abs=1e-12)
        assert seen == {0, 1, 2, 3}
        assert len(set(matrices)) > 20  # a fresh trapdoor per round

    def test_commit_produces_claw_superposition(self):
        rng = np.random.default_rng(7)
        td = sample_trapdoor(4, 4, rng)
        y, state = rsp_server_commit(td.matrix, rng)
        x1, x2 = td.preimages(y)
        i1 = int(sum(int(b) << j for j, b in enumerate(x1)))
        i2 = int(sum(int(b) << j for j, b in enumerate(x2)))
        assert abs(state.amplitudes[i1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        assert abs(state.amplitudes[i2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_split_round_equals_composed_round(self):
        rng = np.random.default_rng(8)
        td = sample_trapdoor(4, 4, rng)
        y, state = rsp_server_commit(td.matrix, rng)
        alphas = rng.integers(0, 2, td.n - 1)
        b, qubit = rsp_server_measure(state, alphas, rng)
        idx = rsp_theta_index(td, y, b, alphas)
        assert fidelity(
            qubit, prepare_plus_theta(idx * np.pi / 2)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_measure_rejects_wrong_basis_shape(self):
        rng = np.random.default_rng(9)
        td = sample_trapdoor(4, 4, rng)
        _, state = rsp_server_commit(td.matrix, rng)
        with pytest.raises(GadgetError):
            rsp_server_measure(state, np.zeros(td.n, dtype=np.int64), rng)


def dense_commit(matrix, rng):
    """The dense commit recipe: all n + mu wires simulated, the image wires
    measured out from the top wire down."""
    matrix = np.asarray(matrix) % 2
    mu, n = matrix.shape
    amps = np.zeros(2 ** (n + mu), dtype=complex)
    for xi in range(2**n):
        x = np.array([(xi >> j) & 1 for j in range(n)])
        yi = sum(int(bit) << k for k, bit in enumerate(matrix @ x % 2))
        amps[(yi << n) | xi] = 1.0
    state = StateVector(n + mu, amps / np.linalg.norm(amps))
    y = np.zeros(mu, dtype=np.int64)
    for w in range(n + mu - 1, n - 1, -1):
        y[w - n], state = measure(state, w, "Z", rng)
        state = remove_wire(state, w, int(y[w - n]))
    return y, state


def dense_measure(state, alphas, rng):
    """The dense measure recipe: Pdagger^alpha, H and a Z measurement per wire,
    wires n-2 down to 0."""
    b = np.zeros(state.num_qubits - 1, dtype=np.int64)
    for w in range(state.num_qubits - 2, -1, -1):
        if alphas[w]:
            state = apply_gate(state, gate("Pdagger", w))
        state = apply_gate(state, gate("H", w))
        b[w], state = measure(state, w, "Z", rng)
        state = remove_wire(state, w, int(b[w]))
    return b, state


def row_reduce_gf2(rows, cols):
    """Gauss-Jordan over GF(2) on the first ``cols`` columns of 0/1 ``rows``.

    Reduces in place and returns the pivot columns; row r < len(pivots) holds
    the pivot of column pivots[r].
    """
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                rows[r] = [a ^ b for a, b in zip(row, top)]
        pivots.append(col)
    return pivots


def eliminated_preimages(td, y):
    """The elimination recipe: solve Ax = y with the free variables at 0."""
    rows = np.concatenate([td.matrix % 2, (np.asarray(y) % 2)[:, None]], axis=1).tolist()
    pivots = row_reduce_gf2(rows, td.n)
    if any(row[-1] for row in rows[len(pivots) :]):
        raise GadgetError("image point has no preimage")
    x = np.zeros(td.n, dtype=np.int64)
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    return x, (x ^ td.kernel) % 2


def eliminated_theta_index(td, y, b, alphas):
    """``rsp_theta_index`` over the eliminated claw."""
    x1, x2 = eliminated_preimages(td, y)
    s = sum((int(u) - int(v)) * (2 * int(bj) + int(aj)) for u, v, bj, aj in zip(x1, x2, b, alphas))
    return (-s if x1[-1] else s) % 4


def array_trapdoor(n, mu, rng):
    """The NumPy-array trapdoor recipe: the same draws, checked on arrays."""
    while True:
        t = rng.integers(0, 2, n)
        t[n - 1] = 1
        if not t[: n - 1].any():
            continue
        a = rng.integers(0, 2, (mu, n))
        for i in range(mu):
            while (a[i] @ t) % 2:
                a[i] = rng.integers(0, 2, n)
        if len(row_reduce_gf2(a.tolist(), n)) == n - 1:
            return a, t


MATRICES = st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4)


class TestDenseOracle:
    """The server's claw kernels against the dense recipe they replace: the
    same draws from the same generator, the same bits, the same states."""

    @settings(max_examples=200, deadline=None)
    @given(MATRICES, st.integers(0, 7), st.integers(0, 2**32 - 1))
    @example([[0] * 4] * 4, 0, 0)  # every input survives
    @example([[1, 0, 1, 1], [0] * 4, [1, 0, 1, 1], [0] * 4], 5, 1)  # rank 1
    @example([[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 7, 2)  # duplicate rows
    @example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 3, 3)  # 1-to-1
    def test_kernels_match_dense_recipe(self, matrix, alpha_bits, seed):
        alphas = np.array([(alpha_bits >> j) & 1 for j in range(3)])
        fast, dense = np.random.default_rng(seed), np.random.default_rng(seed)
        y, committed = rsp_server_commit(matrix, fast)
        y_dense, committed_dense = dense_commit(matrix, dense)
        assert np.array_equal(y, y_dense)
        assert fidelity(committed, committed_dense) >= 1 - 1e-12
        b, qubit = rsp_server_measure(committed, alphas, fast)
        b_dense, qubit_dense = dense_measure(committed_dense, alphas, dense)
        assert np.array_equal(b, b_dense)
        assert fidelity(qubit, qubit_dense) >= 1 - 1e-12
        assert fast.bit_generator.state == dense.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_trapdoor_matches_array_recipe(self, seed):
        fast, arrays = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            td = sample_trapdoor(4, 4, fast)
            a, t = array_trapdoor(4, 4, arrays)
            assert np.array_equal(td.matrix, a) and np.array_equal(td.kernel, t)
            assert td.matrix.dtype == a.dtype and td.kernel.dtype == t.dtype
        assert fast.bit_generator.state == arrays.bit_generator.state


SHAPES = st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n - 1, 6)))


class TestEliminationOracle:
    """Angle recovery and the trapdoor's rank test against the Gauss-Jordan
    recipe they replace: the same claw, angle, errors and draws."""

    @settings(max_examples=300, deadline=None)
    @given(SHAPES, st.integers(0, 2**32 - 1), st.data())
    def test_claw_and_angle_match_elimination(self, shape, seed, data):
        n, mu = shape
        fast, arrays = np.random.default_rng(seed), np.random.default_rng(seed)
        td = sample_trapdoor(n, mu, fast)
        a, t = array_trapdoor(n, mu, arrays)
        assert np.array_equal(td.matrix, a) and np.array_equal(td.kernel, t)
        assert fast.bit_generator.state == arrays.bit_generator.state
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=mu, max_size=mu)))
        b, alphas = (
            np.array(data.draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1)))
            for _ in range(2)
        )
        try:
            want = eliminated_preimages(td, y)
        except GadgetError:
            with pytest.raises(GadgetError):
                td.preimages(y)
            with pytest.raises(GadgetError):
                rsp_theta_index(td, y, b, alphas)
            return
        got = td.preimages(y)
        assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))
        assert rsp_theta_index(td, y, b, alphas) == eliminated_theta_index(td, y, b, alphas)

    def test_every_reachable_point_of_a_4x4_trapdoor(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            td = sample_trapdoor(4, 4, rng)
            for xi in range(16):
                y = image(td, (xi >> np.arange(4)) & 1)
                for bits in range(64):
                    b = (bits >> np.arange(3)) & 1
                    alphas = (bits >> np.arange(3, 6)) & 1
                    assert rsp_theta_index(td, tuple(y), tuple(b), alphas) == (
                        eliminated_theta_index(td, y, b, alphas)
                    )


class TestSamplers:
    def test_twist_bits(self):
        assert twist_bits(0) == (0, 1)
        assert twist_bits(1) == (1, 0)
        with pytest.raises(GadgetError):
            twist_bits(2)

    def test_draw_constraints(self):
        # Heads need theta in {0, pi}; tail j needs the phase bit p_j of the
        # twist. Handles here are draw numbers, so the accepted ones map back
        # to their angles.
        rng = np.random.default_rng(10)
        for k in (0, 1):
            p = twist_bits(k)
            for _ in range(10):
                angles = []

                def round_(r):
                    angles.append(int(r.integers(4)))
                    return angles[-1], len(angles) - 1

                seen = []
                build(round_, k, rng, lambda h, t, rej: seen.append((h, t)))
                ((heads, tails),) = seen
                assert all(angles[h] in (0, 2) for h in heads)
                assert [angles[t] & 1 for t in tails] == list(p)

    def test_faithful_sampler_draws_valid_states(self):
        # Claw rounds through the builder: every accepted state matches its
        # recovered angle and meets its acceptance test.
        rng = np.random.default_rng(11)
        round_, log = recording(claw_round(rsp_server_commit, rsp_server_measure))
        seen = []
        build(round_, 1, rng, lambda h, t, rej: seen.append((h, t)))
        angle = {id(state): idx for idx, state in log}
        ((heads, tails),) = seen
        for state in heads + tails:
            want = prepare_plus_theta(angle[id(state)] * np.pi / 2)
            assert fidelity(state, want) == pytest.approx(1.0, abs=1e-12)
        assert all(angle[id(h)] in (0, 2) for h in heads)
        assert [angle[id(t)] & 1 for t in tails] == list(twist_bits(1))

    def test_rejection_sampling_gives_up(self):
        rng = np.random.default_rng(12)
        calls = []

        def stuck(_rng):
            calls.append(1)
            return 1, prepare_plus_theta(np.pi / 2)  # never a valid head

        with pytest.raises(GadgetError):
            build(stuck, 0, rng)
        assert len(calls) == MAX_DRAWS

    def test_couple_receives_rejected_in_draw_order(self):
        rng = np.random.default_rng(16)
        round_, log = recording(rsp_round_ideal)
        seen = []
        gadget, _ = build(round_, 0, rng, lambda h, t, rej: seen.append((h, t, rej)) or "s")
        ((heads, tails, rejected),) = seen
        accepted = {id(s) for s in heads + tails}
        assert [id(s) for s in rejected] == [
            id(state) for _, state in log if id(state) not in accepted
        ]
        assert rejected and len(rejected) == len(log) - 4
        assert gadget.state == "s"

    def test_default_couple_assembles_accepted_states(self):
        # Same seed twice: once capturing the accepted states, once with the
        # local default coupling.
        seen = []
        build(rsp_round_ideal, 1, np.random.default_rng(17),
              lambda h, t, rej: seen.append((h, t)))
        gadget, _ = build(rsp_round_ideal, 1, np.random.default_rng(17))
        ((heads, tails),) = seen
        want = assemble_gadget_state(heads, tails)
        assert np.array_equal(gadget.state.amplitudes, want.amplitudes)


class TestRouting:
    def test_route_follows_public_masked_parity(self):
        triple = he_keygen(16, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        for bit in (0, 1):
            for stream in (0, 1):
                ct = he_enc(triple.pk, bit, rng, keystream_bit=stream)
                assert gen_measurement(ct) == public_masked_parity(ct) == bit ^ stream


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["T", "Tdagger"])
    def test_gadget_removes_phase_byproduct(self, kind):
        # Full contract: on a padded wire, apply the non-Clifford rotation,
        # consume one gadget, homomorphically update the keys, decrypt them one
        # level up, unpad — the result must be the rotation on the bare state.
        rng = np.random.default_rng(15)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        sk_enc = encrypt_seed(l1.pk, l0.sk, rng)
        for a, b, k in product((0, 1), repeat=3):
            gadget, _sec = gen_gadget(l1.pk, sk_enc, k, rng, rsp_round_ideal)
            a_ct = he_enc(l0.pk, a, rng, keystream_bit=k)
            b_ct = he_enc(l0.pk, b, rng)
            psi = rand_state(1, rng)
            padded = psi
            if b:
                padded = apply_gate(padded, gate("Z", 0))
            if a:
                padded = apply_gate(padded, gate("X", 0))
            padded = apply_gate(padded, gate(kind, 0))

            route = gen_measurement(a_ct)
            assert route == a ^ k
            out, (u, v) = consume_gadget(padded, 0, gadget, route, rng)
            # both pairs are consumed, leaving only the teleported wire
            assert out.num_qubits == 1
            a2_ct, b2_ct = gadget_key_update(
                gadget, route, u, v, a_ct, b_ct, dagger=kind == "Tdagger"
            )
            a2, b2 = he_dec(l1.sk, a2_ct), he_dec(l1.sk, b2_ct)
            unpadded = out
            if a2:
                unpadded = apply_gate(unpadded, gate("X", 0))
            if b2:
                unpadded = apply_gate(unpadded, gate("Z", 0))
            target = apply_gate(psi, gate(kind, 0))
            assert fidelity(unpadded, target) == pytest.approx(1.0, abs=1e-10)

    def test_byproduct_bit_matches_frame_oracle(self):
        # The conjugation oracle's phase bit for T equals the pad's X key,
        # which is exactly the bit the twist places on the routed pair.
        for a, b in product((0, 1), repeat=2):
            ok, _new, p = verify_conjugation(gate("T", 0), (a, b))
            assert ok and p == a
