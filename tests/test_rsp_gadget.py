"""Remote state preparation and the encrypted conditional-phase gadget."""
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qhevqa import rsp_gadget
from qhevqa.classical_he import (
    ct_to_bytes,
    encrypt_seed,
    he_const,
    he_dec,
    he_enc,
    he_enc_bits,
    he_keygen,
    he_xor,
    key_switch,
    public_masked_parity,
)
from qhevqa.rsp_gadget import (
    MAX_DRAWS,
    RSP_BATCH,
    Gadget,
    GadgetError,
    TrapdoorFunction,
    assemble_gadget_state,
    claw_round,
    consume_gadget,
    gadget_key_update,
    gen_gadget,
    gen_measurement,
    pooled,
    rsp_round_ideal,
    rsp_rows,
    rsp_server_commit,
    rsp_server_measure,
    rsp_theta_index,
    sample_trapdoor,
    theta_bits,
    twist_bits,
)
from qhevqa.simulator import (
    FIXED_1Q,
    StateVector,
    apply_gate,
    bell_measure,
    fidelity,
    gate,
    measure,
    permute_wires,
    prepare_plus_theta,
    random_state,
    remove_wire,
    tensor,
)


def pair_byproduct(x, z, p, u, v):
    """The plain-bit oracle of one pair's teleportation: the Pauli bits
    (da, db) accompanying its Pdagger^p action, the rule ``gadget_key_update``
    applies under the HE."""
    return x ^ v, z ^ u ^ (p & (x ^ v))


def recording(round_):
    """Wrap a round so every (theta_index, handle) it yields is logged."""
    log = []

    def wrapped(rng):
        log.append(round_(rng))
        return log[-1]

    return wrapped, log


def image(td, x):
    """The images A_r x_r over GF(2) of the rows x_r under each map of ``td``."""
    return np.einsum("rij,rj->ri", td.matrix, x) % 2


def build(round_, k_bit, rng, couple=None):
    l0 = he_keygen(16, rng, level=0)
    l1 = he_keygen(16, rng, level=1)
    return gen_gadget(l1.pk, encrypt_seed((l0, l1), rng)[0], k_bit, rng, round_, couple)


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
        # gadget_key_update runs the oracle's rule under the HE: for every
        # twist k, route j and Bell outcome (u, v), the decrypted key change
        # is the byproduct of pair j's decrypted x and z and its phase bit
        # j XOR k.
        rng = np.random.default_rng(3)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        sks = [l0.sk, l1.sk]
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        zero_a, zero_b = he_enc_bits(l0.pk, [0, 0], rng)
        for k in (0, 1):
            gadget, _ = gen_gadget(l1.pk, sk_enc, k, rng, rsp_round_ideal)
            for j, u, v in product((0, 1), repeat=3):
                keys = gadget_key_update(gadget, j, u, v, *key_switch(sk_enc, zero_a, zero_b))
                x, z = he_dec(sks, gadget.x_ct[j]), he_dec(sks, gadget.z_ct[j])
                want = pair_byproduct(x, z, j ^ k, u, v)
                assert tuple(he_dec(sks, ct) for ct in keys) == want


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
                    psi = random_state(1, rng)
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
        td = sample_trapdoor(5, 4, 4, rng)
        assert td.matrix.shape == (5, 4, 4) and td.kernel.shape == (5, 4)
        assert (td.kernel[:, -1] == 1).all()
        assert not image(td, td.kernel).any()
        inputs = (np.arange(16)[:, None] >> np.arange(4)) & 1
        for r in range(5):
            images = Counter(tuple(y) for y in (inputs @ td.matrix[r].T % 2).tolist())
            assert set(images.values()) == {2}

    def test_preimages_form_claw(self):
        rng = np.random.default_rng(2)
        td = sample_trapdoor(3, 5, 6, rng)
        for _ in range(10):
            x = rng.integers(0, 2, (3, 5))
            y = image(td, x)
            x1, x2 = td.preimages(y)
            assert not ((x1 ^ x2) ^ td.kernel).any()
            assert not (image(td, x1) ^ y).any()
            assert not (image(td, x2) ^ y).any()

    def test_preimages_reject_out_of_image(self):
        # mu > rank means some image points are unreachable; one such row
        # refuses the batch.
        rng = np.random.default_rng(3)
        td = sample_trapdoor(2, 3, 5, rng)
        inputs = (np.arange(8)[:, None] >> np.arange(3)) & 1
        reachable = {tuple(y) for y in (inputs @ td.matrix[1].T % 2).tolist()}
        bad = next(y for y in product((0, 1), repeat=5) if y not in reachable)
        with pytest.raises(GadgetError):
            td.preimages(np.array([[0] * 5, bad]))

    def test_rejects_bad_dimensions(self):
        rng = np.random.default_rng(4)
        with pytest.raises(GadgetError):
            sample_trapdoor(1, 1, 4, rng)
        with pytest.raises(GadgetError):
            sample_trapdoor(1, 4, 2, rng)

    def test_draws_are_uniform_over_the_valid_trapdoors(self):
        # At n = 3, mu = 2 there are three kernels t (top bit set, another
        # bit set) and, for each, six ordered bases of the plane orthogonal
        # to t: 18 (t, A) pairs, which the draws must hit uniformly.
        rng = np.random.default_rng(5)
        draws = [sample_trapdoor(k, 3, 2, rng) for k in (1, 7, 32, 200) * 6]
        matrix = np.concatenate([td.matrix for td in draws])
        kernel = np.concatenate([td.kernel for td in draws])
        for a, t in zip(matrix, kernel):
            assert t[2] == 1 and t[:2].any()
            assert not (a @ t % 2).any() and len(row_reduce_gf2(a.tolist(), 3)) == 2
        counts = Counter(zip(map(tuple, kernel.tolist()), map(str, matrix.tolist())))
        assert len(counts) == 18
        expected = len(kernel) / 18
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 40.79  # the 0.999 quantile of chi-square with 17 degrees of freedom


class TestRemotePreparation:
    def test_ideal_round_state_matches_index(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            idx, state = rsp_round_ideal(rng)
            want = prepare_plus_theta(idx * np.pi / 2)
            assert fidelity(state, want) == pytest.approx(1.0, abs=1e-12)

    def test_faithful_round_state_matches_recovered_index(self, monkeypatch):
        monkeypatch.setattr(rsp_gadget, "RSP_BATCH", 8)
        rng = np.random.default_rng(6)
        matrices = []

        def commit(batch, r):
            matrices.extend(m.tobytes() for m in batch)
            return rsp_server_commit(batch, r)

        round_ = claw_round(commit, rsp_server_measure, lambda: 1, deque())
        seen = set()
        for _ in range(40):
            idx, state = round_(rng)
            seen.add(idx)
            want = prepare_plus_theta(idx * np.pi / 2)
            assert fidelity(state, want) == pytest.approx(1.0, abs=1e-12)
        assert seen == {0, 1, 2, 3}
        assert len(matrices) == 40 and len(set(matrices)) > 20  # a fresh trapdoor per round

    def test_commit_produces_claw_superposition(self):
        rng = np.random.default_rng(7)
        td = sample_trapdoor(6, 4, 4, rng)
        y, states = rsp_server_commit(td.matrix, rng)
        x1, x2 = td.preimages(y)
        weights = 1 << np.arange(4)
        for state, i1, i2 in zip(states, x1 @ weights, x2 @ weights):
            assert abs(state[i1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
            assert abs(state[i2]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_split_round_equals_composed_round(self):
        rng = np.random.default_rng(8)
        td = sample_trapdoor(6, 4, 4, rng)
        y, states = rsp_server_commit(td.matrix, rng)
        alphas = rng.integers(0, 2, (6, 3))
        b, qubits = rsp_server_measure(states, alphas, rng)
        for idx, qubit in zip(rsp_theta_index(td, y, b, alphas), qubits):
            assert fidelity(qubit, prepare_plus_theta(idx * np.pi / 2)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_measure_rejects_wrong_basis_shape(self):
        # Two rounds need two rows of three basis bits.
        rng = np.random.default_rng(9)
        td = sample_trapdoor(2, 4, 4, rng)
        _, states = rsp_server_commit(td.matrix, rng)
        for shape in [(2, 4), (3, 3), (3,)]:
            with pytest.raises(GadgetError):
                rsp_server_measure(states, np.zeros(shape, dtype=np.int64), rng)

    def test_batch_size_rule(self, monkeypatch):
        # Eight rounds a gadget on average, plus three standard deviations
        # (the variance is eight too), at most ``RSP_BATCH``, read at call time.
        assert [rsp_rows(t) for t in (1, 2, 22)] == [17, 28, 216]
        assert rsp_rows(100) == RSP_BATCH
        monkeypatch.setattr(rsp_gadget, "RSP_BATCH", 3)
        assert rsp_rows(1) == 3

    @pytest.mark.parametrize("gadgets", [1, 5, 22, 60])
    def test_a_sized_batch_rarely_runs_dry(self, gadgets, monkeypatch):
        # Each of a gadget's four draws takes a geometric number of rounds
        # with success probability 1/2; the batch covers all of them in more
        # than 99 % of 20 000 simulated key generations.
        monkeypatch.setattr(rsp_gadget, "RSP_BATCH", 10**6)
        draws = np.random.default_rng(gadgets).geometric(0.5, (20_000, 4 * gadgets))
        assert (draws.sum(axis=1) > rsp_rows(gadgets)).mean() < 0.01

    def test_refills_are_sized_to_the_gadgets_left(self):
        sizes, left = [], [3]

        def commit(batch, r):
            sizes.append(len(batch))
            return rsp_server_commit(batch, r)

        round_ = claw_round(commit, rsp_server_measure, lambda: left[0], deque())
        rng = np.random.default_rng(13)
        for _ in range(rsp_rows(3)):  # the first batch, sized for three gadgets
            round_(rng)
        left[0] = 1
        round_(rng)  # the pool is dry: a batch for the one gadget left
        assert sizes == [rsp_rows(3), rsp_rows(1)]

    def test_pool_serves_rounds_in_order_and_refills_only_when_empty(self):
        refills = []

        def refill(_rng):
            refills.append(len(refills))
            return [(i, f"{len(refills)}.{i}") for i in range(3)]

        pool = deque()
        round_ = pooled(refill, pool)
        got = [round_(None)[1] for _ in range(7)]
        assert got == ["1.0", "1.1", "1.2", "2.0", "2.1", "2.2", "3.0"]
        assert refills == [0, 1, 2] and [h for _, h in pool] == ["3.1", "3.2"]


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
        y[w - n], state = measure(state, w, rng)
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
        b[w], state = measure(state, w, rng)
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


def eliminated_preimages(matrix, kernel, y):
    """The elimination recipe for one map: solve Ax = y with the free
    variables at 0."""
    n = len(kernel)
    rows = np.concatenate([matrix % 2, (np.asarray(y) % 2)[:, None]], axis=1).tolist()
    pivots = row_reduce_gf2(rows, n)
    if any(row[-1] for row in rows[len(pivots) :]):
        raise GadgetError("image point has no preimage")
    x = np.zeros(n, dtype=np.int64)
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    return x, (x ^ kernel) % 2


def eliminated_theta_index(matrix, kernel, y, b, alphas):
    """``rsp_theta_index`` of one round over the eliminated claw."""
    x1, x2 = eliminated_preimages(matrix, kernel, y)
    s = sum((int(u) - int(v)) * (2 * int(bj) + int(aj)) for u, v, bj, aj in zip(x1, x2, b, alphas))
    return (-s if x1[-1] else s) % 4


def array_trapdoor(k, n, mu, rng):
    """The loop recipe of the batch sampler: the same draws, each candidate
    made orthogonal to its t row by row and rank-checked by elimination."""
    matrices, kernels = [], []
    while len(kernels) < k:
        ts = rng.integers(0, 2, (2 * (k - len(kernels)), n))
        candidates = rng.integers(0, 2, (len(ts), mu, n))
        for t, a in zip(ts, candidates):
            t[n - 1] = 1
            for a_row in a:
                if (a_row @ t) % 2:
                    a_row[n - 1] ^= 1
            ok = t[: n - 1].any() and len(row_reduce_gf2(a.tolist(), n)) == n - 1
            if ok and len(kernels) < k:
                matrices.append(a)
                kernels.append(t)
    return np.array(matrices), np.array(kernels)


MATRIX = st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4)
EMPTY = [[0] * 4] * 4  # every input survives
RANK_1 = [[1, 0, 1, 1], [0] * 4, [1, 0, 1, 1], [0] * 4]
DUPLICATE_ROWS = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
ONE_TO_ONE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


class TestDenseOracle:
    """The server's claw kernels against the dense recipe they replace: a
    batch's rounds against the same rounds run one at a time, committed in
    turn and then measured in turn, from the same generator; the same bits,
    the same states and the same final generator state."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(MATRIX, min_size=1, max_size=5), st.integers(0, 2**15 - 1),
           st.integers(0, 2**32 - 1))
    @example([EMPTY], 0, 0)
    @example([RANK_1], 5, 1)
    @example([DUPLICATE_ROWS], 7, 2)
    @example([ONE_TO_ONE], 3, 3)
    @example([EMPTY, RANK_1, DUPLICATE_ROWS, ONE_TO_ONE], 0o5273, 4)
    def test_kernels_match_dense_recipe(self, matrices, alpha_bits, seed):
        k = len(matrices)
        alphas = (alpha_bits >> np.arange(3 * k) & 1).reshape(k, 3)
        fast, dense = np.random.default_rng(seed), np.random.default_rng(seed)
        y, committed = rsp_server_commit(np.array(matrices), fast)
        y_dense, committed_dense = zip(*(dense_commit(m, dense) for m in matrices))
        assert np.array_equal(y, np.array(y_dense))
        for amps, want in zip(committed, committed_dense):
            assert fidelity(StateVector(4, amps), want) >= 1 - 1e-12
        b, qubits = rsp_server_measure(committed, alphas, fast)
        b_dense, qubits_dense = zip(
            *(dense_measure(state, a, dense) for state, a in zip(committed_dense, alphas))
        )
        assert np.array_equal(b, np.array(b_dense))
        for qubit, want in zip(qubits, qubits_dense):
            assert fidelity(qubit, want) >= 1 - 1e-12
        assert fast.bit_generator.state == dense.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_trapdoor_matches_array_recipe(self, seed):
        fast, arrays = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 2, 7, RSP_BATCH):
            td = sample_trapdoor(k, 4, 4, fast)
            a, t = array_trapdoor(k, 4, 4, arrays)
            assert np.array_equal(td.matrix, a) and np.array_equal(td.kernel, t)
            assert td.matrix.dtype == a.dtype and td.kernel.dtype == t.dtype
        assert fast.bit_generator.state == arrays.bit_generator.state


SHAPES = st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(n - 1, 6)))


class TestEliminationOracle:
    """Angle recovery against the Gauss-Jordan recipe it replaces: the same
    claws, angles and errors, row by row."""

    @settings(max_examples=300, deadline=None)
    @given(SHAPES, st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_claw_and_angle_match_elimination(self, shape, k, seed, data):
        n, mu = shape
        td = sample_trapdoor(k, n, mu, np.random.default_rng(seed))

        def bits(size):
            return np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))

        y, b, alphas = (bits(k * m).reshape(k, m) for m in (mu, n - 1, n - 1))
        want = []
        for r in range(k):
            try:
                want.append(eliminated_preimages(td.matrix[r], td.kernel[r], y[r]))
            except GadgetError:
                with pytest.raises(GadgetError):
                    TrapdoorFunction(td.matrix[r : r + 1], td.kernel[r : r + 1]).preimages(
                        y[r : r + 1]
                    )
                with pytest.raises(GadgetError):
                    td.preimages(y)
                with pytest.raises(GadgetError):
                    rsp_theta_index(td, y, b, alphas)
                return
        got = td.preimages(y)
        for g, w in zip(got, zip(*want)):
            assert np.array_equal(g, np.array(w)) and g.dtype == np.array(w).dtype
        assert rsp_theta_index(td, y, b, alphas).tolist() == [
            eliminated_theta_index(td.matrix[r], td.kernel[r], y[r], b[r], alphas[r])
            for r in range(k)
        ]

    def test_every_reachable_point_of_a_4x4_trapdoor(self):
        # Ten trapdoors, each with every input x and every (b, alpha), as one
        # batch of 10 * 16 * 64 rounds.
        td = sample_trapdoor(10, 4, 4, np.random.default_rng(11))
        r, xi, bits = (a.ravel() for a in np.meshgrid(
            np.arange(10), np.arange(16), np.arange(64), indexing="ij"))
        batch = TrapdoorFunction(td.matrix[r], td.kernel[r])
        y = image(batch, (xi[:, None] >> np.arange(4)) & 1)
        b, alphas = (bits[:, None] >> np.arange(3)) & 1, (bits[:, None] >> np.arange(3, 6)) & 1
        want = [
            eliminated_theta_index(batch.matrix[i], batch.kernel[i], y[i], b[i], alphas[i])
            for i in range(len(r))
        ]
        assert rsp_theta_index(batch, y, b, alphas).tolist() == want


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
                build(round_, k, rng, lambda h, t, rej, g: seen.append((h, t)))
                ((heads, tails),) = seen
                assert all(angles[h] in (0, 2) for h in heads)
                assert [angles[t] & 1 for t in tails] == list(p)

    def test_faithful_sampler_draws_valid_states(self):
        # Claw rounds through the builder: every accepted state matches its
        # recovered angle and meets its acceptance test.
        rng = np.random.default_rng(11)
        round_, log = recording(
            claw_round(rsp_server_commit, rsp_server_measure, lambda: 1, deque())
        )
        seen = []
        build(round_, 1, rng, lambda h, t, rej, g: seen.append((h, t)))
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
        # Ideal rounds share their four states, so handles here are draw
        # numbers. The coupler gets the built gadget without its state, and
        # what it returns becomes the state.
        rng = np.random.default_rng(16)
        draws = []

        def round_(r):
            draws.append(rsp_round_ideal(r)[0])
            return draws[-1], len(draws) - 1

        seen = []
        gadget, _ = build(round_, 0, rng, lambda *args: seen.append(args) or "s")
        ((heads, tails, rejected, stateless),) = seen
        accepted = set(heads + tails)
        assert rejected == [i for i in range(len(draws)) if i not in accepted]
        assert rejected and len(rejected) == len(draws) - 4
        assert stateless.state is None and replace(stateless, state="s") == gadget

    def test_default_couple_assembles_accepted_states(self):
        # Same seed twice: once capturing the accepted states, once with the
        # local default coupling, which keeps the two pair states.
        seen = []
        build(rsp_round_ideal, 1, np.random.default_rng(17),
              lambda h, t, rej, g: seen.append((h, t)))
        gadget, _ = build(rsp_round_ideal, 1, np.random.default_rng(17))
        ((heads, tails),) = seen
        want = assemble_gadget_state(heads, tails)
        assert len(gadget.state) == 2
        for got, pair in zip(gadget.state, want):
            assert got.shape == (2, 2) and np.array_equal(got, pair)

    def test_ideal_states_are_shared_and_read_only(self):
        # One state per angle, the bytes of a fresh preparation, and no
        # caller can write to it.
        rng = np.random.default_rng(18)
        seen = {}
        for _ in range(12):
            idx, state = rsp_round_ideal(rng)
            assert seen.setdefault(idx, state) is state
            want = prepare_plus_theta(idx * np.pi / 2)
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes()
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0
        assert len(seen) == 4


# The dense recipes the pair-state kernels replace. Gadget wire layout: pair
# j on wires (2j, 2j + 1) = (head, tail).
DENSE_HEAD, DENSE_TAIL = (0, 2), (1, 3)


def dense_gadget_state(heads, tails):
    """The dense assembly recipe: both pairs coupled in one 4-qubit state."""
    state = tensor(tensor(heads[0], tails[0]), tensor(heads[1], tails[1]))
    for j in range(2):
        state = apply_gate(state, gate("CZ", DENSE_HEAD[j], DENSE_TAIL[j]))
        state = apply_gate(state, gate("H", DENSE_HEAD[j]))
    return state


def dense_consume(state, wire, gadget_state, route, rng):
    """The dense consumption recipe: the register tensored with the 4-qubit
    gadget, two Bell measurements on n + 4 wires, and the route's tail moved
    back to ``wire``."""
    n = state.num_qubits
    full = tensor(state, gadget_state)
    # Current positions of all surviving labels through removals.
    pos = {("reg", w): w for w in range(n)}
    pos.update({("gad", g): n + g for g in range(4)})

    def bell(st, la, lb):
        out, st = bell_measure(st, pos[la], pos[lb], rng)
        for label in (la, lb):
            where = pos.pop(label)
            for k in pos:
                if pos[k] > where:
                    pos[k] -= 1
        return out, st

    other = 1 - route
    (u, v), full = bell(full, ("reg", wire), ("gad", DENSE_HEAD[route]))
    _, full = bell(full, ("gad", DENSE_HEAD[other]), ("gad", DENSE_TAIL[other]))
    order = list(range(full.num_qubits))
    order.remove(pos[("gad", DENSE_TAIL[route])])
    order.insert(wire, pos[("gad", DENSE_TAIL[route])])
    if order != list(range(full.num_qubits)):
        full = permute_wires(full, order)
    return full, (u, v)


def plain_gadget(heads, tails):
    """A gadget with no ciphertexts: consumption reads only its pair states."""
    return Gadget(assemble_gadget_state(heads, tails), (), 0)


def plus_states(indices):
    return [prepare_plus_theta(i * np.pi / 2) for i in indices]


ANGLES = st.lists(st.integers(0, 3), min_size=2, max_size=2)


class TestPairStateOracle:
    """Gadget assembly and consumption against the dense recipes they
    replace: the same Bell outcomes, the same generator stream, and the same
    amplitudes, global phase included."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
           st.integers(0, 1), ANGLES, ANGLES, st.booleans(), st.integers(0, 2**32 - 1))
    def test_kernel_matches_dense_recipe(self, shape, route, head_idx, tail_idx, general, seed):
        # ``general`` swaps the |+theta> preparations for random qubits, whose
        # pairs are not maximally entangled, so the Bell outcomes are not
        # uniform and v's draw depends on u.
        n, wire = shape
        prep = np.random.default_rng([seed, 1])
        state = random_state(n, prep)
        heads, tails = plus_states(head_idx), plus_states(tail_idx)
        if general:
            heads, tails = ([random_state(1, prep) for _ in range(2)] for _ in range(2))
        fast, dense = np.random.default_rng(seed), np.random.default_rng(seed)
        got, uv = consume_gadget(state, wire, plain_gadget(heads, tails), route, fast)
        want, uv_dense = dense_consume(state, wire, dense_gadget_state(heads, tails), route, dense)
        assert uv == uv_dense
        assert fast.random() == dense.random()
        assert got.num_qubits == n
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_pair_states_factor_the_dense_gadget(self):
        for angles in product(range(4), repeat=4):
            heads, tails = plus_states(angles[:2]), plus_states(angles[2:])
            phi0, phi1 = assemble_gadget_state(heads, tails)
            # Little-endian index h0 + 2 t0 + 4 h1 + 8 t1.
            product_state = np.einsum("ab,cd->dcba", phi0, phi1).reshape(-1)
            dense = dense_gadget_state(heads, tails).amplitudes
            assert np.max(np.abs(product_state - dense)) < 1e-15

    def test_one_broadcast_equals_the_per_pair_form(self):
        # assemble_gadget_state builds both pairs in one broadcast; each pair
        # keeps the bytes of its own outer product, CZ signs and H.
        prep = np.random.default_rng(21)
        cases = [(plus_states(a[:2]), plus_states(a[2:])) for a in product(range(4), repeat=4)]
        cases += [tuple([random_state(1, prep) for _ in range(2)] for _ in range(2))
                  for _ in range(64)]
        for heads, tails in cases:
            want = [FIXED_1Q["H"] @ (np.outer(h.amplitudes, t.amplitudes) * [[1, 1], [1, -1]])
                    for h, t in zip(heads, tails)]
            got = assemble_gadget_state(heads, tails)
            assert [phi.tobytes() for phi in got] == [phi.tobytes() for phi in want]

    def test_consumption_allocates_no_larger_register(self):
        # The dense recipe held 2^20 amplitudes for a 16-wire register; the
        # kernel stays under four registers' worth at peak.
        rng = np.random.default_rng(19)
        state = random_state(16, rng)
        gadget = plain_gadget(plus_states((0, 2)), plus_states((1, 0)))
        tracemalloc.start()
        try:
            out, _ = consume_gadget(state, 7, gadget, 1, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.num_qubits == 16
        assert peak < 4 * 2**16 * 16


class TestRouting:
    def test_route_follows_public_masked_parity(self):
        triple = he_keygen(16, np.random.default_rng(13))
        rng = np.random.default_rng(14)
        for bit in (0, 1):
            for stream in (0, 1):
                (ct,) = he_enc_bits(triple.pk, [bit], rng, [stream])
                assert gen_measurement(ct) == public_masked_parity(ct) == bit ^ stream


class TestEndToEnd:
    @pytest.mark.parametrize("kind", ["T", "Tdagger"])
    def test_gadget_removes_phase_byproduct(self, kind):
        # Full contract: on a padded wire, apply the non-Clifford rotation,
        # consume one gadget, homomorphically update the keys, decrypt them one
        # level up, unpad — the result must be the rotation on the bare state.
        # The new keys' keystream parities are the ones keygen plans: the old
        # parities, b's gaining a's for Tdagger, plus the returned (dx, dz).
        rng = np.random.default_rng(15)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        for a, b, k in product((0, 1), repeat=3):
            gadget, (dx, dz) = gen_gadget(l1.pk, sk_enc, k, rng, rsp_round_ideal)
            (a_ct,) = he_enc_bits(l0.pk, [a], rng, [k])
            b_ct = he_enc(l0.pk, b, rng)
            psi = random_state(1, rng)
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
                gadget, route, u, v, *key_switch(sk_enc, a_ct, b_ct),
                dagger=kind == "Tdagger",
            )
            a2, b2 = (he_dec([l0.sk, l1.sk], ct) for ct in (a2_ct, b2_ct))
            kb = public_masked_parity(b_ct) ^ b ^ (k if kind == "Tdagger" else 0)
            assert public_masked_parity(a2_ct) ^ a2 == k ^ dx
            assert public_masked_parity(b2_ct) ^ b2 == kb ^ dz
            unpadded = out
            if a2:
                unpadded = apply_gate(unpadded, gate("X", 0))
            if b2:
                unpadded = apply_gate(unpadded, gate("Z", 0))
            target = apply_gate(psi, gate(kind, 0))
            assert fidelity(unpadded, target) == pytest.approx(1.0, abs=1e-10)


def fold_key_update(gadget, route, u, v, a_ct, b_ct, dagger=False):
    """The left-to-right form ``gadget_key_update`` replaced: each key switched
    up on its own, then the gadget's terms XORed in one at a time."""
    if dagger:
        b_ct = he_xor(b_ct, a_ct)
    ((a_up,), (b_up,)) = (key_switch(gadget.sk_enc, ct) for ct in (a_ct, b_ct))
    level = gadget.level
    a_new = he_xor(he_xor(a_up, gadget.x_ct[route]), he_const(v, level))
    b_new = he_xor(he_xor(he_xor(b_up, gadget.z_ct[route]), he_const(u, level)),
                   gadget.e_ct[route][v])
    return a_new, b_new


class TestKeyUpdateOracle:
    @pytest.mark.parametrize("dagger", [False, True])
    def test_update_equals_the_left_to_right_fold(self, dagger):
        # Keys of many leaves, sharing some, single leaves (the normal form
        # keeps those bare) and constants, for every twist, route and (u, v).
        rng = np.random.default_rng(40)
        l0, l1 = he_keygen(16, rng, level=0), he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        leaves = he_enc_bits(l0.pk, rng.integers(2, size=12).tolist(), rng)
        many = he_xor(he_const(1, 0), leaves[0])
        for leaf in leaves[1:8]:
            many = he_xor(many, leaf)
        shared = he_xor(he_xor(many, leaves[8]), leaves[0])
        keys = [many, shared, leaves[9], leaves[10], he_const(0, 0), he_const(1, 0)]
        for k in (0, 1):
            gadget, _ = gen_gadget(l1.pk, sk_enc, k, rng, rsp_round_ideal)
            for a_ct, b_ct in product(keys, repeat=2):
                for route, u, v in product((0, 1), repeat=3):
                    got = gadget_key_update(gadget, route, u, v, *key_switch(sk_enc, a_ct, b_ct),
                                            dagger=dagger)
                    want = fold_key_update(gadget, route, u, v, a_ct, b_ct, dagger)
                    assert got == want
                    assert list(map(ct_to_bytes, got)) == list(map(ct_to_bytes, want))
