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

from collections import deque
from dataclasses import dataclass
from operator import xor

import numpy as np

from .classical_he import (
    HECiphertext,
    HEError,
    HEKeyTriple,
    LeafIndex,
    _dec,
    draw_nonces,
    he_enc_bits,
    he_keygen_chain,
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
    CORRECTION_LEAVES,
    Gadget,
    consume_gadget,
    gadget_key_update,
    gen_gadget,
    gen_measurement,
    ideal_round,
)
from .simulator import MAX_QUBITS, Gate, StateVector, apply_gate

NON_CLIFFORD = ("T", "Tdagger")
EVAL_KINDS = CLIFFORD_KINDS + NON_CLIFFORD
SECURITY = 16  # the classical HE security parameter every caller uses


class QHEError(Exception):
    pass


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
    if num_wires > MAX_QUBITS:
        raise QHEError(f"{num_wires} wires: a homomorphic register holds {MAX_QUBITS} wires")
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
) -> tuple[ClientKeys, tuple[Gadget, ...]]:
    """Generate the level chain and one twisted gadget per T / Tdagger: the
    client keys, and the gadgets in T order, the server's evaluation key.
    Gadget i carries level i's encrypted seed.

    The key-flow pass mirrors evaluation over keystream parity bits, one per
    key, so each gadget's twist equals the keystream parity its routing
    ciphertext will have at run time, independent of pad values and runtime
    outcomes.

    Each layer's draws are one batch, in this order, one generator call each:
      1. every level's seed (``he_keygen_chain``);
      2. the nonces that encrypt each seed under the next level's key
         (``encrypt_seed``);
      3. every stream bit (``rng.integers(2)``): each wire's initial (a, b)
         keys, then each gadget's x, z and e family bits;
      4. one nonce pool for every gadget's pinned correction leaves, two per
         leaf (``draw_nonces``), if there is a gadget.
    Then, as the gadgets are built, RSP rounds come in pooled batches sized
    by ``rsp_rows`` to the gadgets still to build, and a nonce pool is drawn
    again only if the one above runs dry. No child generator is spawned: at
    a shot's size one spawn costs more than the calls it saves.

    Every gadget is built here by ``gen_gadget``; a caller chooses only its
    two seams. ``rounds(left)`` returns the RSP round source, where
    ``left()`` is the number of gadgets still to build, which sizes its
    batches; a ``claw_round`` pool is one. None means the ideal sampler,
    ``ideal_round``, each batch one draw. ``couple`` is ``gen_gadget``'s
    coupling step, by default the local one. The wire protocol's coupler
    queues each gadget for the server and returns no state, so the gadgets
    keygen then returns hold no states.
    """
    _check_circuit(circuit, num_wires)
    n_gadgets = t_count(circuit)
    triples = he_keygen_chain(security, range(n_gadgets + 1), rng)
    sk_encs = encrypt_seed(triples, rng)
    streams = rng.integers(2, size=2 * num_wires + 3 * n_gadgets).tolist()
    # No draw without a gadget: rng.bytes(0) can still move the generator.
    nonces = draw_nonces(rng, 2 * CORRECTION_LEAVES * n_gadgets) if n_gadgets else None
    gadgets: list[Gadget] = []

    def left() -> int:
        return n_gadgets - len(gadgets)

    round_ = ideal_round(left, deque()) if rounds is None else rounds(left)
    init_stream_bits = tuple(zip(streams[0 : 2 * num_wires : 2], streams[1 : 2 * num_wires : 2]))
    parity = list(init_stream_bits)
    for g in circuit:
        if g.kind in CLIFFORD_KINDS:
            update_keys(parity, g, xor)
            continue
        (w,) = g.wires
        ka, kb = parity[w]
        i = len(gadgets)
        family = streams[2 * num_wires + 3 * i : 2 * num_wires + 3 * i + 3]
        gadget, (dx, dz) = gen_gadget(triples[i + 1].pk, sk_encs[i], ka, rng, round_, couple,
                                      family, nonces)
        gadgets.append(gadget)
        if g.kind == "Tdagger":
            kb ^= ka
        parity[w] = (ka ^ dx, kb ^ dz)

    client = ClientKeys(triples, init_stream_bits)
    return client, tuple(gadgets)


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
    gadgets: tuple[Gadget, ...],
    rng: np.random.Generator,
) -> CipherState:
    """Homomorphically apply a Clifford+T circuit to the cipherstate, each
    T or Tdagger consuming the next of ``gadgets`` from ``cs.level`` on.

    Runs entirely on public data: gates, ciphertext handles, Bell outcomes,
    and the public masked parity that routes each gadget. Every key must sit
    at ``cs.level``. The keys are packed once over one ``LeafIndex``, so each
    Clifford's key update and each gadget's ``gadget_key_update`` XOR ints. A
    key switch keeps every key's leaves and constant, so the level is a
    counter; ``key_switch`` still checks each gadget's encrypted seed once.
    The keys become nodes again at the final level when the run ends.
    """
    _check_circuit(circuit, len(cs.encrypted_keys))
    needed = t_count(circuit)
    if cs.level + needed > len(gadgets):
        raise QHEError(
            f"circuit needs {needed} gadgets, {len(gadgets) - cs.level} remain"
        )
    index, level = LeafIndex(), cs.level
    keys = [tuple(index.pack(ct, level) for ct in pair) for pair in cs.encrypted_keys]
    register = cs.register
    for g in circuit:
        register = apply_gate(register, g)
        if g.kind in CLIFFORD_KINDS:
            update_keys(keys, g, xor)
            continue
        (w,) = g.wires
        gadget = gadgets[level]
        route = gen_measurement(keys[w][0])
        register, (u, v) = consume_gadget(register, w, gadget, route, rng)
        key_switch(gadget.sk_enc)
        level += 1
        if gadget.level != level or gadget.sk_enc[0][1] != level:
            raise HEError(f"gadget {level - 1} sits at level {gadget.level} with a key switch "
                          f"to level {gadget.sk_enc[0][1]}; the keys go to level {level}")
        keys[w] = gadget_key_update(index, gadget, route, u, v, *keys[w],
                                    dagger=g.kind == "Tdagger")
    return CipherState(register, tuple(tuple(index.unpack(level, k) for k in pair)
                                       for pair in keys), level)


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
