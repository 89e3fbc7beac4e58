"""Quantum homomorphic encryption: round trips, statistics, blindness."""
import hashlib
from collections import deque

import numpy as np
import pytest

from qhevqa import qhe
from qhevqa.classical_he import ct_to_bytes
from qhevqa.qhe import (
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
from qhevqa.rsp_gadget import claw_round, rsp_server_commit, rsp_server_measure
from qhevqa.simulator import (
    StateVector,
    apply_circuit,
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
    client, server = keygen(16, num_wires, circuit, rng, rounds)
    psi = random_state(num_wires, rng)
    cs, _pad = encrypt(client, psi, rng)
    out = eval_circuit(cs, circuit, server, rng)
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
        _, server = keygen(16, 1, circ, rng)
        assert len(server.gadgets) == 2

    def test_eval_rejects_budget_overrun(self):
        rng = np.random.default_rng(10)
        client, server = keygen(16, 1, [gate("T", 0)], rng)
        cs, _ = encrypt(client, random_state(1, rng), rng)
        with pytest.raises(QHEError):
            eval_circuit(cs, [gate("T", 0), gate("T", 0)], server, rng)

    def test_more_than_20_wires_refused_before_any_allocation(self):
        # Gadgets add four wires to the register, and a register holds at most 24.
        import tracemalloc

        from qhevqa.qhe import CipherState, EvalKey

        rng = np.random.default_rng(12)
        with pytest.raises(QHEError, match="20 wires"):
            keygen(16, 21, [gate("T", 0)], rng)
        cs = CipherState(StateVector(21), ((None, None),) * 21, 0)
        tracemalloc.start()
        try:
            with pytest.raises(QHEError, match="20 wires"):
                eval_circuit(cs, [gate("T", 0)], EvalKey((None,)), rng)
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
        client, server = keygen(16, 1, circ, rng)
        psi = StateVector(1)  # |0>
        hits = 0
        shots = 300
        for _ in range(shots):
            cs, _ = encrypt(client, psi, rng)
            out = eval_circuit(cs, circ, server, rng)
            bit, post = measure(out.register, 0, rng)
            hits += bit ^ decrypt_keys(client, out)[0][0]
        want = abs(apply_circuit(psi, circ).amplitudes[1]) ** 2
        assert abs(hits / shots - want) < 0.07

    def test_xx_expectation_sign(self):
        rng = np.random.default_rng(15)
        client, server = keygen(16, 2, [], rng)
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
        client, server = keygen(16, 1, [], rng)
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
    client, server = keygen(16, 4, circ, rng)
    cs, _ = encrypt(client, random_state(4, rng), rng)
    return client, eval_circuit(cs, circ, server, rng)


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
            client, server = keygen(16, 4, circ, rng)
            cs, _ = encrypt(client, random_state(4, rng), rng)
            for g in server.gadgets:
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
        client, server = claw_keygen(4, deep_circuit(rng, t_gates=70), rng)
        digest = hashlib.sha256()
        for triple in client.triples:
            digest.update(triple.sk.seed + triple.pk.stream_seed)
        digest.update(bytes(b for pair in client.init_stream_bits for b in pair))
        for g in server.gadgets:
            for ct in (*g.x_ct, *g.z_ct, *g.e_ct[0], *g.e_ct[1], *g.sk_enc):
                digest.update(ct_to_bytes(ct))
            for pair in g.state:
                digest.update(pair.tobytes())
        assert len(server.gadgets) == 70
        assert digest.hexdigest() == (
            "b7f51a2e7c3fb17e9e3714ae6bb61e5eb709e628de1404c4f1597e7f966793e1"
        )

    def test_one_decrypt_pass_per_request(self, monkeypatch):
        rng = np.random.default_rng(20)
        circ = [gate("T", 0), gate("CNOT", 0, 1), gate("Tdagger", 2)]
        client, server = keygen(16, 3, circ, rng)
        cs = eval_circuit(encrypt(client, random_state(3, rng), rng)[0], circ, server, rng)
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
        client, server = keygen(16, 1, circ, rng)
        cs, _ = encrypt(client, random_state(1, rng), rng)
        out = eval_circuit(cs, circ, server, rng)
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
        client, server = keygen(16, 2, circ, rng)
        psi = random_state(2, rng)
        cs, _ = encrypt(client, psi, rng)
        out = eval_circuit(cs, circ, server, rng)
        got = decrypt_state(client, out)
        assert fidelity(got, apply_circuit(psi, circ)) == pytest.approx(1.0, abs=1e-10)
