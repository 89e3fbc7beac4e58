"""Quantum homomorphic encryption: round trips, statistics, blindness."""
import hashlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhevqa import classical_he, qhe, rsp_gadget
from qhevqa.classical_he import (
    HEError,
    ct_to_bytes,
    he_const,
    he_xor,
    key_switch,
    public_masked_parity,
)
from qhevqa.pauli_frame import CLIFFORD_KINDS, update_keys
from qhevqa.qhe import (
    EVAL_KINDS,
    CipherState,
    QHEError,
    decrypt_keys,
    decrypt_state,
    encrypt,
    eval_circuit,
    keygen,
    t_count,
    xx_expectation_sign,
    xx_sign,
)
from qhevqa.rsp_gadget import (
    Gadget,
    claw_round,
    consume_gadget,
    rsp_server_commit,
    rsp_server_measure,
)
from qhevqa.simulator import (
    StateVector,
    apply_circuit,
    apply_gate,
    expectation,
    fidelity,
    gate,
    measure,
    PauliString,
    random_state,
)


def rand_circuit(num_wires, rng, n_gates=8, max_t=3):
    kinds_1q = ["X", "Y", "Z", "H", "P", "Pdagger"]
    circ, t_used = [], 0
    for _ in range(n_gates):
        roll = rng.integers(4)
        if roll == 0 and t_used < max_t:
            circ.append(gate(str(rng.choice(["T", "Tdagger"])), int(rng.integers(num_wires))))
            t_used += 1
        elif roll == 1 and num_wires > 1:
            w = rng.choice(num_wires, 2, replace=False)
            circ.append(gate(str(rng.choice(["CNOT", "CZ"])), int(w[0]), int(w[1])))
        else:
            circ.append(gate(str(rng.choice(kinds_1q)), int(rng.integers(num_wires))))
    return circ


def local_claw(left):
    """Claw-based RSP rounds run in this process, as ``keygen``'s ``rounds``."""
    return claw_round(rsp_server_commit, rsp_server_measure, left, deque())


def claw_keygen(num_wires, circuit, rng):
    """Key generation whose claw-based RSP rounds run in this process."""
    return keygen(16, num_wires, circuit, rng, local_claw)


def round_trip(circuit, num_wires, rng, rounds=None):
    client, gadgets = keygen(16, num_wires, circuit, rng, rounds)
    psi = random_state(num_wires, rng)
    cs, _pad = encrypt(client, psi, rng)
    out = eval_circuit(cs, circuit, gadgets, rng)
    got = decrypt_state(client, out)
    want = apply_circuit(psi, circuit)
    return fidelity(got, want)


class TestRoundTrip:
    def test_clifford_only(self):
        rng = np.random.default_rng(0)
        circ = [gate("H", 0), gate("CNOT", 0, 1), gate("P", 1), gate("CZ", 1, 0)]
        assert round_trip(circ, 2, rng) == pytest.approx(1.0, abs=1e-11)

    def test_single_t(self):
        rng = np.random.default_rng(1)
        assert round_trip([gate("T", 0)], 1, rng) == pytest.approx(1.0, abs=1e-11)

    def test_single_tdagger(self):
        rng = np.random.default_rng(2)
        assert round_trip([gate("Tdagger", 0)], 1, rng) == pytest.approx(1.0, abs=1e-11)

    def test_random_circuits_ideal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            circ = rand_circuit(n, rng)
            assert round_trip(circ, n, rng) == pytest.approx(1.0, abs=1e-9)

    def test_random_circuits_faithful(self):
        rng = np.random.default_rng(4)
        circ = rand_circuit(2, rng, n_gates=6, max_t=2)
        assert round_trip(circ, 2, rng, local_claw) == pytest.approx(1.0, abs=1e-9)

    def test_interleaved_clifford_t(self):
        rng = np.random.default_rng(5)
        circ = [
            gate("H", 0),
            gate("T", 0),
            gate("CNOT", 0, 1),
            gate("Tdagger", 1),
            gate("H", 1),
            gate("T", 0),
            gate("CZ", 0, 1),
        ]
        assert round_trip(circ, 2, rng) == pytest.approx(1.0, abs=1e-10)


class TestKeygenValidation:
    def test_rejects_unevaluable_gate(self):
        rng = np.random.default_rng(6)
        with pytest.raises(QHEError):
            keygen(16, 1, [gate("RX", 0, angle=0.3)], rng)

    def test_rejects_out_of_range_wire(self):
        rng = np.random.default_rng(7)
        with pytest.raises(QHEError):
            keygen(16, 1, [gate("CNOT", 0, 1)], rng)

    def test_budget_matches_t_count(self):
        rng = np.random.default_rng(9)
        circ = [gate("T", 0), gate("H", 0), gate("Tdagger", 0)]
        assert t_count(circ) == 2
        _, gadgets = keygen(16, 1, circ, rng)
        assert len(gadgets) == 2

    def test_eval_rejects_budget_overrun(self):
        rng = np.random.default_rng(10)
        client, gadgets = keygen(16, 1, [gate("T", 0)], rng)
        cs, _ = encrypt(client, random_state(1, rng), rng)
        with pytest.raises(QHEError):
            eval_circuit(cs, [gate("T", 0), gate("T", 0)], gadgets, rng)

    def test_more_than_24_wires_refused_before_any_allocation(self):
        # A homomorphic register holds at most MAX_QUBITS = 24 wires, the
        # bound of any register. A 25-wire register cannot be built, so the
        # run's check is met through a stand-in that has only a wire count.
        import tracemalloc
        from types import SimpleNamespace

        from qhevqa.qhe import CipherState

        rng = np.random.default_rng(12)
        cs = CipherState(SimpleNamespace(num_qubits=25), ((None, None),) * 25, 0)
        tracemalloc.start()
        try:
            with pytest.raises(QHEError, match="24 wires"):
                keygen(16, 25, [gate("T", 0)], rng)
            with pytest.raises(QHEError, match="24 wires"):
                eval_circuit(cs, [gate("T", 0)], (None,), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_encrypt_rejects_wrong_width(self):
        rng = np.random.default_rng(11)
        client, _ = keygen(16, 2, [], rng)
        with pytest.raises(QHEError):
            encrypt(client, random_state(1, rng), rng)


class TestDecryption:
    def test_decrypt_keys_matches_frame_at_level_zero(self):
        rng = np.random.default_rng(12)
        client, _ = keygen(16, 3, [], rng)
        cs, pad = encrypt(client, random_state(3, rng), rng)
        assert decrypt_keys(client, cs) == pad

    def test_outcome_correction_z_basis(self):
        # Measuring the padded wire and XORing off the decrypted X key must
        # reproduce the plaintext Born statistics. The key is decrypted
        # locally, as acceptance 2 does; no run reads bits over the wire.
        rng = np.random.default_rng(13)
        circ = [gate("H", 0), gate("T", 0), gate("H", 0)]
        client, gadgets = keygen(16, 1, circ, rng)
        psi = StateVector(1)  # |0>
        hits = 0
        shots = 300
        for _ in range(shots):
            cs, _ = encrypt(client, psi, rng)
            out = eval_circuit(cs, circ, gadgets, rng)
            bit, post = measure(out.register, 0, rng)
            hits += bit ^ decrypt_keys(client, out)[0][0]
        want = abs(apply_circuit(psi, circ).amplitudes[1]) ** 2
        assert abs(hits / shots - want) < 0.07

    def test_xx_expectation_sign(self):
        rng = np.random.default_rng(15)
        client, gadgets = keygen(16, 2, [], rng)
        psi = random_state(2, rng)
        obs = PauliString(("X", "X"), (0, 1))
        want = expectation(psi, obs)
        for _ in range(10):
            cs, _ = encrypt(client, psi, rng)
            raw = expectation(cs.register, obs)
            sign = xx_expectation_sign(client, cs, (0, 1))
            assert sign * raw == pytest.approx(want, abs=1e-10)

    def test_decrypt_rejects_exhausted_chain(self):
        rng = np.random.default_rng(16)
        client, gadgets = keygen(16, 1, [], rng)
        cs, _ = encrypt(client, StateVector(1), rng)
        bad = type(cs)(cs.register, cs.encrypted_keys, 5)
        with pytest.raises(QHEError):
            decrypt_keys(client, bad)


def deep_circuit(rng, num_wires=4, t_gates=200):
    """The acceptance-2 gate draw, continued until it holds ``t_gates`` T/T†."""
    kinds = ["H", "P", "T", "Tdagger", "CNOT", "CZ", "X", "Z"]
    circ, t_used = [], 0
    while t_used < t_gates:
        kind = kinds[rng.integers(len(kinds))]
        wires = rng.choice(num_wires, size=2 if kind in ("CNOT", "CZ") else 1, replace=False)
        circ.append(gate(kind, *(int(w) for w in wires)))
        t_used += kind in ("T", "Tdagger")
    return circ


def deep_cipherstate(seed):
    rng = np.random.default_rng(seed)
    circ = deep_circuit(rng)
    client, gadgets = keygen(16, 4, circ, rng)
    cs, _ = encrypt(client, random_state(4, rng), rng)
    return client, eval_circuit(cs, circ, gadgets, rng)


class TestOnePassDecryption:
    def test_deep_outputs_are_pinned(self):
        # Both digests were re-recorded when leaves came to be sealed by one
        # digest from pooled nonce draws, which moves every draw after the
        # first pinned leaf. Per-root decryption gave the same keys digest
        # there, so one pass still reproduces it bit for bit.
        amps, keys = hashlib.sha256(), hashlib.sha256()
        for seed in range(3):
            client, cs = deep_cipherstate(seed)
            amps.update(decrypt_state(client, cs).amplitudes.tobytes())
            keys.update(bytes(b for pair in decrypt_keys(client, cs) for b in pair))
        assert amps.hexdigest() == (
            "62ab58939e9b1d667fb332922a2562f3c72a79f2bacc259a231eb1449478c7e9"
        )
        assert keys.hexdigest() == (
            "4d1d0e9371f97662a6a002751fa1968bff0973393a8b15c314673bf267de5b48"
        )

    def test_deep_keygen_bytes_are_pinned(self):
        # Every gadget ciphertext and every encrypted pad key of two deep
        # circuits: the twists and keystream bits keygen plans for 200 T/T†.
        # Re-recorded when a leaf came to be encoded as one node, without the
        # node-table count byte 01 in front; with it, the old digest
        # 68684a71... is reproduced byte for byte.
        digest = hashlib.sha256()
        for seed in range(2):
            rng = np.random.default_rng(100 + seed)
            circ = deep_circuit(rng)
            client, gadgets = keygen(16, 4, circ, rng)
            cs, _ = encrypt(client, random_state(4, rng), rng)
            for g in gadgets:
                for ct in (*g.x_ct, *g.z_ct, *g.e_ct[0], *g.e_ct[1]):
                    digest.update(ct_to_bytes(ct))
            for pair in cs.encrypted_keys:
                for ct in pair:
                    digest.update(ct_to_bytes(ct))
        assert digest.hexdigest() == (
            "8d36721bcf13a6ff70a1f0883cb04c68b16341fa44f19799ea0fcb3599287c54"
        )

    def test_local_claw_keygen_bytes_are_pinned(self):
        # The client keys, and every gadget's ciphertexts and pair states, of
        # a key generation whose claw-based rounds run in process. 70 T/T†
        # need more rounds than one batch holds, so the pool is refilled.
        rng = np.random.default_rng(30)
        client, gadgets = claw_keygen(4, deep_circuit(rng, t_gates=70), rng)
        digest = hashlib.sha256()
        for triple in client.triples:
            digest.update(triple.sk.seed + triple.pk.stream_seed)
        digest.update(bytes(b for pair in client.init_stream_bits for b in pair))
        for g in gadgets:
            for ct in (*g.x_ct, *g.z_ct, *g.e_ct[0], *g.e_ct[1], *g.sk_enc):
                digest.update(ct_to_bytes(ct))
            for pair in g.state:
                digest.update(pair.tobytes())
        assert len(gadgets) == 70
        assert digest.hexdigest() == (
            "b7f51a2e7c3fb17e9e3714ae6bb61e5eb709e628de1404c4f1597e7f966793e1"
        )

    def test_deep_round_trip_bytes_are_pinned(self):
        # What the digests above leave unpinned in two deep_cipherstate round
        # trips: every gadget's encrypted seed and ideal pair states, every
        # evaluated key's bytes, the padded register, and the generator's
        # state after decryption (through the next 8 bytes it draws).
        digest = hashlib.sha256()
        for seed in range(2):
            rng = np.random.default_rng(seed)
            circ = deep_circuit(rng)
            client, gadgets = keygen(16, 4, circ, rng)
            cs, _ = encrypt(client, random_state(4, rng), rng)
            for g in gadgets:
                for ct in g.sk_enc:
                    digest.update(ct_to_bytes(ct))
                for pair in g.state:
                    digest.update(pair.tobytes())
            cs = eval_circuit(cs, circ, gadgets, rng)
            for pair in cs.encrypted_keys:
                for ct in pair:
                    digest.update(ct_to_bytes(ct))
            digest.update(cs.register.amplitudes.tobytes())
            decrypt_state(client, cs)
            digest.update(rng.bytes(8))
        assert digest.hexdigest() == (
            "05fe6985d5dcd48482fdf1856623bec2416a1bce5899f0328bd26c6456ea95e5"
        )

    def test_one_decrypt_pass_per_request(self, monkeypatch):
        rng = np.random.default_rng(20)
        circ = [gate("T", 0), gate("CNOT", 0, 1), gate("Tdagger", 2)]
        client, gadgets = keygen(16, 3, circ, rng)
        cs = eval_circuit(encrypt(client, random_state(3, rng), rng)[0], circ, gadgets, rng)
        passes, one_pass = [], qhe._dec

        def counted(sk, *roots):
            passes.append(len(roots))
            return one_pass(sk, *roots)

        monkeypatch.setattr(qhe, "_dec", counted)
        decrypt_state(client, cs)
        xx_expectation_sign(client, cs, (0, 2))
        keys = {w: cs.encrypted_keys[w] for w in (2, 0)}
        xx_sign(client, cs.level, keys, (2, 0))  # the two keys a run returns
        assert passes == [6, 2, 2]


class TestBlindness:
    def test_level_advances_per_gadget(self):
        rng = np.random.default_rng(18)
        circ = [gate("T", 0), gate("H", 0), gate("Tdagger", 0)]
        client, gadgets = keygen(16, 1, circ, rng)
        cs, _ = encrypt(client, random_state(1, rng), rng)
        out = eval_circuit(cs, circ, gadgets, rng)
        assert out.level == 2
        assert fidelity(
            decrypt_state(client, out),
            apply_circuit(random_state(1, np.random.default_rng(18)), circ),
        ) >= 0  # level bookkeeping only; state check covered elsewhere

    def test_multi_wire_keys_follow_gadget_level(self):
        # After a gadget fires on one wire the other wires' keys must still
        # decrypt at the new level (they are key-switched alongside).
        rng = np.random.default_rng(19)
        circ = [gate("T", 0), gate("CNOT", 0, 1)]
        client, gadgets = keygen(16, 2, circ, rng)
        psi = random_state(2, rng)
        cs, _ = encrypt(client, psi, rng)
        out = eval_circuit(cs, circ, gadgets, rng)
        got = decrypt_state(client, out)
        assert fidelity(got, apply_circuit(psi, circ)) == pytest.approx(1.0, abs=1e-10)


def node_key_update(gadget, route, u, v, a_ct, b_ct, dagger=False):
    """The node form of ``gadget_key_update``, on keys already switched up to
    the gadget's level: its few-leaf terms summed first, then each key."""
    if dagger:
        b_ct = he_xor(b_ct, a_ct)
    level = gadget.level
    x_v = he_xor(gadget.x_ct[route], he_const(v, level))
    z_u_e = he_xor(he_xor(gadget.z_ct[route], he_const(u, level)), gadget.e_ct[route][v])
    return he_xor(x_v, a_ct), he_xor(z_u_e, b_ct)


def node_eval_circuit(cs, circuit, gadgets, rng):
    """The node-level loop ``eval_circuit`` replaced: ``he_xor`` over nodes for
    each Clifford, every wire's keys lifted by one ``key_switch`` at each
    gadget, and the routed pair updated by ``node_key_update``."""
    register, keys, level = cs.register, list(cs.encrypted_keys), cs.level
    for g in circuit:
        register = apply_gate(register, g)
        if g.kind in CLIFFORD_KINDS:
            update_keys(keys, g, he_xor)
            continue
        (w,) = g.wires
        gadget = gadgets[level]
        route = public_masked_parity(keys[w][0])
        register, (u, v) = consume_gadget(register, w, gadget, route, rng)
        up = key_switch(gadget.sk_enc, *(ct for pair in keys for ct in pair))
        keys = list(zip(up[0::2], up[1::2]))
        keys[w] = node_key_update(gadget, route, u, v, *keys[w], dagger=g.kind == "Tdagger")
        level += 1
    return CipherState(register, tuple(keys), level)


def kinds_circuit(rng, kinds, num_wires=3, n_gates=40):
    """``n_gates`` gates drawn uniformly from ``kinds`` on random wires."""
    circ = []
    for _ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        wires = rng.choice(num_wires, size=2 if kind in ("CNOT", "CZ") else 1, replace=False)
        circ.append(gate(kind, *(int(w) for w in wires)))
    return circ


def assert_same_keys(got, want):
    assert got.level == want.level
    assert got.encrypted_keys == want.encrypted_keys
    assert [[ct_to_bytes(ct) for ct in pair] for pair in got.encrypted_keys] == [
        [ct_to_bytes(ct) for ct in pair] for pair in want.encrypted_keys]
    assert np.array_equal(got.register.amplitudes, want.register.amplitudes)


class TestPackedEvaluation:
    """``eval_circuit`` against the node-level loop it replaced, by value and
    by bytes, on twin generators."""

    @staticmethod
    def both(seed, kinds, num_wires=3, n_gates=40, split=None):
        rng = np.random.default_rng(seed)
        circ = kinds_circuit(rng, kinds, num_wires, n_gates)
        client, gadgets = keygen(16, num_wires, circ, rng)
        psi = random_state(num_wires, rng)
        cs, _ = encrypt(client, psi, rng)
        run, oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = cs
        for part in (circ[:split], circ[split:]) if split else (circ,):
            got = eval_circuit(got, part, gadgets, run)
        want = node_eval_circuit(cs, circ, gadgets, oracle)
        assert_same_keys(got, want)
        assert fidelity(decrypt_state(client, got), apply_circuit(psi, circ)) == pytest.approx(
            1.0, abs=1e-9)
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_every_kind(self, seed):
        assert self.both(seed, EVAL_KINDS).level > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_t_free(self, seed):
        assert self.both(10 + seed, CLIFFORD_KINDS).level == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_pauli_only(self, seed):
        assert self.both(20 + seed, ("X", "Y", "Z")).level == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_continuation_from_a_later_level(self, seed):
        # The second run starts at the first one's level, from keys whose
        # leaves sit at several lower levels.
        assert self.both(30 + seed, EVAL_KINDS, split=25).level > 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 30))
    def test_random_circuits(self, seed, num_wires, n_gates):
        kinds = EVAL_KINDS if num_wires > 1 else tuple(
            k for k in EVAL_KINDS if k not in ("CNOT", "CZ"))
        self.both(seed, kinds, num_wires, n_gates)

    def test_a_deep_run_xors_no_node(self, monkeypatch):
        # Keygen, encryption, evaluation and decryption of 200 T/T-dagger
        # gates call no he_xor, and reproduce the pinned round-trip bytes.
        def refuse(a, b):
            raise AssertionError("he_xor called")

        for module in (classical_he, qhe, rsp_gadget):
            if hasattr(module, "he_xor"):
                monkeypatch.setattr(module, "he_xor", refuse)
        client, cs = deep_cipherstate(2)
        assert cs.level == 200 and decrypt_state(client, cs).num_qubits == 4
        TestOnePassDecryption().test_deep_round_trip_bytes_are_pinned()

    def test_keys_off_the_cipherstate_level_are_refused_before_any_gate(self, monkeypatch):
        # A key at level 1 in a level-0 cipherstate is refused with HEError
        # when the run starts, whatever the circuit, and no gate is applied.
        rng = np.random.default_rng(21)
        client, gadgets = keygen(16, 2, [gate("T", 0)], rng)
        cs, _ = encrypt(client, random_state(2, rng), rng)
        (high,) = key_switch(gadgets[0].sk_enc, cs.encrypted_keys[1][0])
        bad = CipherState(cs.register, (cs.encrypted_keys[0], (high, cs.encrypted_keys[1][1])), 0)
        applied = []
        monkeypatch.setattr(qhe, "apply_gate", lambda state, g: applied.append(g) or state)
        for circ in ([gate("X", 1), gate("Z", 0)], [gate("CNOT", 0, 1)], [gate("T", 0)], []):
            with pytest.raises(HEError, match="level 1"):
                eval_circuit(bad, circ, gadgets, rng)
        assert applied == []

    def test_a_gadget_of_another_level_is_refused(self):
        # Gadget i lifts keys from level i to i + 1; one of another level,
        # or whose key switch goes elsewhere, is refused, as the node loop's
        # key switch refused it.
        rng = np.random.default_rng(22)
        circ = [gate("T", 0), gate("T", 0)]
        client, gadgets = keygen(16, 1, circ, rng)
        cs, _ = encrypt(client, random_state(1, rng), rng)
        first, second = gadgets
        for shuffled in ((second, first),
                         (Gadget(first.state, first.leaves, 2), second),
                         (Gadget(first.state, first.leaves[:8] + second.sk_enc, 1), second)):
            for evaluate in (eval_circuit, node_eval_circuit):
                with pytest.raises(HEError):
                    evaluate(cs, circ[:1], shuffled, np.random.default_rng(0))
