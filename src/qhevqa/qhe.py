"""The four-algorithm quantum homomorphic encryption scheme.

Key generation provisions one conditional-phase gadget per non-Clifford gate,
encryption applies a quantum one-time pad and encrypts the pad bits,
evaluation applies Clifford gates directly (updating encrypted pad keys
homomorphically with the machine-derived rules) and consumes one gadget per
T / Tdagger, and decryption strips the final pad, unsealing each key leaf
under its own level's secret key from the level chain.

Because the modeled classical HE hides each bit behind a keystream parity,
the gadget twist for position i must equal the keystream parity of the key
ciphertext that will route it. Key generation therefore takes the public
circuit, plans the key flow over keystream parity bits (one bit per key: the
pad-key updates are GF(2)-linear, so the same derived rules run on the
parities), and pins the keystream bits that ``encrypt`` will use for the
initial keys.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import xor

import numpy as np

from .classical_he import (
    HECiphertext,
    HEKeyTriple,
    _dec,
    he_enc_bits,
    he_keygen,
    he_xor,
    encrypt_seed,
    key_switch,
)
from .pauli_frame import (
    CLIFFORD_KINDS,
    apply_pad,
    random_pad,
    remove_pad,
    update_keys,
)
from .rsp_gadget import (
    GADGET_QUBITS,
    Gadget,
    consume_gadget,
    gadget_key_update,
    gen_gadget,
    gen_measurement,
    rsp_round_ideal,
)
from .simulator import MAX_QUBITS, Gate, StateVector, apply_gate

NON_CLIFFORD = ("T", "Tdagger")
EVAL_KINDS = CLIFFORD_KINDS + NON_CLIFFORD
SECURITY = 16  # the classical HE security parameter every caller uses
# The wire bound of a homomorphic run, kept from when a consumed gadget joined
# the register; consumption now runs on the register's own amplitudes.
MAX_WIRES = MAX_QUBITS - GADGET_QUBITS


class QHEError(Exception):
    pass


@dataclass(frozen=True)
class EvalKey:
    """Server-side evaluation material: one gadget per T gate."""

    gadgets: tuple[Gadget, ...]


@dataclass(frozen=True)
class ClientKeys:
    """Client-side bundle: the secret-key chain and the seed of the key-flow
    plan over keystream parity bits, one (a, b) pair per wire that
    ``encrypt`` gives the wire's initial key ciphertexts."""

    triples: tuple[HEKeyTriple, ...]
    init_stream_bits: tuple[tuple[int, int], ...]

    @property
    def levels(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class CipherState:
    """Padded register plus per-wire encrypted pad keys at one level."""

    register: StateVector
    encrypted_keys: tuple[tuple[HECiphertext, HECiphertext], ...]
    level: int

    def __post_init__(self):
        if self.register.num_qubits != len(self.encrypted_keys):
            raise QHEError("one encrypted key pair per register wire required")


def t_count(circuit: list[Gate]) -> int:
    return sum(1 for g in circuit if g.kind in NON_CLIFFORD)


def _check_circuit(circuit: list[Gate], num_wires: int) -> None:
    if num_wires > MAX_WIRES:
        raise QHEError(f"{num_wires} wires: a homomorphic register holds {MAX_WIRES} wires")
    for g in circuit:
        if g.kind not in EVAL_KINDS:
            raise QHEError(f"gate {g.kind} is not evaluable under the pad (Clifford+T only)")
        for w in g.wires:
            if not 0 <= w < num_wires:
                raise QHEError(f"wire {w} out of range for {num_wires} wires")


def keygen(
    security: int,
    num_wires: int,
    circuit: list[Gate],
    rng: np.random.Generator,
    rounds=None,
    couple=None,
) -> tuple[ClientKeys, EvalKey]:
    """Generate the level chain and one twisted gadget per T / Tdagger.

    The key-flow pass mirrors evaluation over keystream parity bits, one per
    key, so each gadget's twist equals the keystream parity its routing
    ciphertext will have at run time, independent of pad values and runtime
    outcomes.

    Every gadget is built here by ``gen_gadget``; a caller chooses only its
    two seams. ``rounds(left)`` returns the RSP round source, where
    ``left()`` is the number of gadgets still to build, which sizes the
    batches of a ``claw_round`` pool. None means the ideal sampler, one round
    at a time. ``couple`` is ``gen_gadget``'s coupling step, by default the
    local one. The wire protocol's coupler queues each gadget for the server
    and returns no state, so its EvalKey holds gadgets without states.
    """
    _check_circuit(circuit, num_wires)
    n_gadgets = t_count(circuit)
    triples = tuple(
        he_keygen(security, rng, level=i) for i in range(n_gadgets + 1)
    )
    sk_encs = tuple(
        encrypt_seed(triples[i + 1].pk, triples[i].sk, rng) for i in range(n_gadgets)
    )
    gadgets: list[Gadget] = []
    round_ = rsp_round_ideal if rounds is None else rounds(lambda: n_gadgets - len(gadgets))
    init_stream_bits = tuple(map(tuple, rng.integers(2, size=(num_wires, 2)).tolist()))
    parity = list(init_stream_bits)
    for g in circuit:
        if g.kind in CLIFFORD_KINDS:
            update_keys(parity, g, xor)
            continue
        (w,) = g.wires
        ka, kb = parity[w]
        i = len(gadgets)
        gadget, (dx, dz) = gen_gadget(triples[i + 1].pk, sk_encs[i], ka, rng, round_, couple)
        gadgets.append(gadget)
        if g.kind == "Tdagger":
            kb ^= ka
        parity[w] = (ka ^ dx, kb ^ dz)

    client = ClientKeys(triples, init_stream_bits)
    return client, EvalKey(tuple(gadgets))


def encrypt(
    client: ClientKeys, state: StateVector, rng: np.random.Generator
) -> tuple[CipherState, list[tuple[int, int]]]:
    """Pad the register with fresh keys and attach their encryptions.

    The pad, wire w's plain (a, b) key pair at index w, is returned for
    inspection and tests; the protocol-level client discards it (decryption
    only needs the secret-key chain).
    """
    planned = len(client.init_stream_bits)
    if state.num_qubits != planned:
        raise QHEError(f"state has {state.num_qubits} wires, keys planned for {planned}")
    pk0 = client.triples[0].pk
    pad = random_pad(state.num_qubits, rng)
    cts = he_enc_bits(pk0, [k for pair in pad for k in pair], rng,
                      [k for pair in client.init_stream_bits for k in pair])
    pairs = tuple(zip(cts[0::2], cts[1::2]))
    return CipherState(apply_pad(state, pad), pairs, 0), pad


def eval_circuit(
    cs: CipherState,
    circuit: list[Gate],
    ek: EvalKey,
    rng: np.random.Generator,
) -> CipherState:
    """Homomorphically apply a Clifford+T circuit to the cipherstate.

    Runs entirely on public data: gates, ciphertext handles, Bell outcomes,
    and the public masked parity that routes each gadget.
    """
    _check_circuit(circuit, len(cs.encrypted_keys))
    needed = t_count(circuit)
    if cs.level + needed > len(ek.gadgets):
        raise QHEError(
            f"circuit needs {needed} gadgets, {len(ek.gadgets) - cs.level} remain"
        )
    register = cs.register
    keys = list(cs.encrypted_keys)
    level = cs.level
    for g in circuit:
        register = apply_gate(register, g)
        if g.kind in CLIFFORD_KINDS:
            update_keys(keys, g, he_xor)
            continue
        (w,) = g.wires
        gadget = ek.gadgets[level]
        route = gen_measurement(keys[w][0])
        register, (u, v) = consume_gadget(register, w, gadget, route, rng)
        new_a, new_b = gadget_key_update(
            gadget, route, u, v, keys[w][0], keys[w][1], dagger=g.kind == "Tdagger"
        )
        keys[w] = (new_a, new_b)
        for other in range(len(keys)):
            if other != w:
                keys[other] = (
                    key_switch(keys[other][0], gadget.sk_enc),
                    key_switch(keys[other][1], gadget.sk_enc),
                )
        level += 1
    return CipherState(register, tuple(keys), level)


def _decrypt(client: ClientKeys, level: int, roots) -> list[int]:
    """Decrypt the key ciphertexts ``roots`` of one request at ``level`` in one
    pass, each leaf under its own level's key from the chain."""
    if level >= client.levels:
        raise QHEError(f"cipherstate level {level} beyond key chain {client.levels}")
    return _dec([triple.sk for triple in client.triples[: level + 1]], *roots)


def decrypt_keys(client: ClientKeys, cs: CipherState) -> list[tuple[int, int]]:
    """Decrypt every wire's (a, b) pad key in one pass."""
    bits = _decrypt(client, cs.level, [ct for pair in cs.encrypted_keys for ct in pair])
    return list(zip(bits[::2], bits[1::2]))


def decrypt_state(client: ClientKeys, cs: CipherState) -> StateVector:
    """Strip the final pad."""
    return remove_pad(cs.register, decrypt_keys(client, cs))


def xx_sign(client: ClientKeys, level: int, encrypted_keys, wires: tuple[int, int]) -> int:
    """Sign correcting a server-computed <X x X> on ``wires``.

    X-basis statistics flip under the Z part of the pad, so the plaintext
    expectation is (-1)^(b1 XOR b2) times the cipher-side value.
    ``encrypted_keys[w]`` is wire w's (a, b) ciphertext pair at ``level``;
    only the two b keys are decrypted, in one pass.
    """
    b1, b2 = _decrypt(client, level, [encrypted_keys[w][1] for w in wires])
    return -1 if b1 ^ b2 else 1


def xx_expectation_sign(client: ClientKeys, cs: CipherState, wires: tuple[int, int]) -> int:
    """``xx_sign`` of a cipherstate's own keys."""
    return xx_sign(client, cs.level, cs.encrypted_keys, wires)
