"""Remote state preparation and the encrypted conditional-phase gadget.

The gadget removes the P byproduct a T gate leaves behind on a padded wire,
conditioned on an encrypted key bit the server never learns. It is built from
two coupled qubit pairs; each pair, when an input is Bell-measured against
its first qubit, teleports the input onto its second qubit while applying

    X^(x XOR v) Z^(z XOR u XOR p AND (x XOR v)) Pdagger^p

where x, z, p are bits baked into the pair's preparation angles and (u, v)
are the Bell outcomes. The pair positions are twisted so that position j
carries phase bit p_j = j XOR k, with k the keystream parity of the key-bit
ciphertext that will route the measurement; the route j is then readable
from the ciphertext's public masked parity, yet equals the secret key bit's
pair exactly.

One builder, ``gen_gadget``, holds the recipe: the twist, the head and tail
acceptance tests, the bounded rejection loop and the correction
ciphertexts. It is the same for a gadget built in this process and one built
on a remote server; only two seams differ. ``round_(rng)`` runs one
preparation round and returns ``(theta_index, handle)``: locally the handle
is the prepared state, remotely the server's qubit id. A round comes from the
ideal sampler or from ``claw_round``, the one claw-based recipe: a fresh
2-to-1 GF(2) linear function with a trapdoor (the hidden kernel vector) per
round, with its two server steps called locally or sent as messages.
``couple(heads, tails, rejected)`` entangles the accepted pairs and drops the
rejected rounds. The claw function has a fixed size, ``RSP_N`` inputs by
``RSP_MU`` outputs. The server's claw steps run on the state's support, not
on n + mu dense wires: the commit enumerates the 2^n inputs once, and the
measurement is two-term arithmetic on one wire at a time. Each measured wire
takes one ``rng.random()``, in the dense order and against the same
probability, so seeded rounds give the dense simulation's outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from operator import and_

import numpy as np

from .classical_he import (
    HECiphertext,
    HEPublicKey,
    he_const,
    he_enc,
    he_xor,
    key_switch,
    public_masked_parity,
)
from .simulator import (
    StateVector,
    apply_gate,
    gate,
    bell_measure,
    permute_wires,
    prepare_plus_theta,
    tensor,
)

PAIR_COUNT = 2
GADGET_QUBITS = 2 * PAIR_COUNT
# Gadget wire layout: pair j occupies wires (2j, 2j+1) = (head, tail).
_HEAD = (0, 2)
_TAIL = (1, 3)
# Claw function size (inputs, outputs) and the rounds one draw may take.
RSP_N = RSP_MU = 4
MAX_DRAWS = 512


class GadgetError(Exception):
    pass


def theta_bits(theta_index: int) -> tuple[int, int, int]:
    """Map a quarter-turn index (theta = index * pi/2) to (x, z, p) bits.

    x flags a Z-like flip (theta = pi), p flags the conditional-phase bit
    (theta in {pi/2, 3pi/2}), z the Z byproduct (theta in {pi, pi/2}).
    """
    if theta_index not in (0, 1, 2, 3):
        raise GadgetError(f"theta index must be 0..3, got {theta_index}")
    return int(theta_index == 2), int(theta_index in (1, 2)), theta_index & 1


def pair_byproduct(x: int, z: int, p: int, u: int, v: int) -> tuple[int, int]:
    """Pauli bits (da, db) accompanying the pair's Pdagger^p action."""
    return x ^ v, z ^ u ^ (p & (x ^ v))


# --- GF(2) trapdoor function and remote state preparation ------------------


def _images(rows: list[list[int]]) -> list[int]:
    """Images of the inputs x = 0..2^n - 1 (bit j of x is x_j) under the 0/1
    matrix ``rows`` of n columns, each image an int whose bit k is row k's parity.
    The matrices are a few bits wide, so plain ints beat NumPy's per-call cost.
    """
    out = [0]
    for col in zip(*rows):
        image = 0
        for bit in reversed(col):
            image = image << 1 | bit
        out += [v ^ image for v in out]
    return out


@dataclass(frozen=True)
class TrapdoorFunction:
    """2-to-1 linear map x -> Ax over GF(2) with hidden kernel {0, t}."""

    matrix: np.ndarray  # shape (mu, n)
    kernel: np.ndarray  # shape (n,), the trapdoor t, with t[n-1] = 1

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])

    def preimages(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The claw (x, x XOR t) of y, x the lowest-numbered preimage (for a
        sampled trapdoor, the one whose top bit is 0)."""
        try:
            xi = _images(self.matrix.tolist()).index(
                sum(int(bit) << k for k, bit in enumerate(y))
            )
        except ValueError:
            raise GadgetError("image point has no preimage") from None
        x = (xi >> np.arange(self.n)) & 1
        return x, x ^ self.kernel


def sample_trapdoor(n: int, mu: int, rng: np.random.Generator) -> TrapdoorFunction:
    """Draw a rank n-1 matrix whose kernel is {0, t} with t's top bit set."""
    if n < 2 or mu < n - 1:
        raise GadgetError(f"need n >= 2 and mu >= n-1, got n={n}, mu={mu}")
    while True:
        t = rng.integers(0, 2, n).tolist()
        t[n - 1] = 1
        if not any(t[: n - 1]):
            # A kernel supported only on the last position would pin the
            # prepared angle to zero; resample for full angle coverage.
            continue
        rows = rng.integers(0, 2, (mu, n)).tolist()
        for i in range(mu):
            while sum(map(and_, rows[i], t)) & 1:
                rows[i] = rng.integers(0, 2, n).tolist()
        if _images(rows).count(0) == 2:  # kernel {0, t}: rank n - 1
            return TrapdoorFunction(np.array(rows, dtype=np.int64), np.array(t, dtype=np.int64))


def rsp_round_ideal(rng: np.random.Generator) -> tuple[int, StateVector]:
    idx = int(rng.integers(4))
    return idx, prepare_plus_theta(idx * np.pi / 2)


def rsp_server_commit(
    matrix: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, StateVector]:
    """Server step 1-2: claw superposition, image measured out, top bit first.

    Needs only the public matrix. Returns y and the uniform superposition of
    its preimages: the claw (x, x XOR t), or more for a rank-deficient matrix.
    """
    matrix = np.asarray(matrix) % 2
    mu, n = matrix.shape
    inputs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    images = (inputs @ matrix.T % 2).T.tolist()  # images[k][x]: bit k of Ax
    alive = range(2**n)
    y = np.zeros(mu, dtype=np.int64)
    for k in range(mu - 1, -1, -1):
        ones = [x for x in alive if images[k][x]]
        y[k] = rng.random() < len(ones) / len(alive)
        alive = ones if y[k] else [x for x in alive if not images[k][x]]
    amps = np.zeros(2**n, dtype=complex)
    amps[alive] = 1 / np.sqrt(len(alive))
    return y, StateVector(n, amps)


def rsp_server_measure(
    state: StateVector, alphas: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, StateVector]:
    """Server step 3: measure wires n-2..0 in {|0> +- i^alpha |1>}, in turn.

    Returns the outcome bits b and the surviving qubit, which is |+_theta>
    for the angle only the trapdoor holder can recover.
    """
    n = state.num_qubits
    alphas = np.asarray(alphas, dtype=np.int64)
    if alphas.shape != (n - 1,):
        raise GadgetError(f"need {n - 1} basis bits, got shape {alphas.shape}")
    amps = state.amplitudes
    b = np.zeros(n - 1, dtype=np.int64)
    for w in range(n - 2, -1, -1):
        psi = amps.reshape(2, 2, -1)  # (top wire, measured wire, lower wires)
        zero, one = psi[:, 0], psi[:, 1]
        if alphas[w]:
            one = -1j * one
        # H up to its 1/sqrt(2), which the probability and the renormalization absorb.
        plus, minus = zero + one, zero - one
        b[w] = rng.random() < np.vdot(minus, minus).real / 2
        kept = minus if b[w] else plus
        amps = kept.reshape(-1) / sqrt(np.vdot(kept, kept).real)
    return b, StateVector(1, amps)


def rsp_theta_index(
    td: TrapdoorFunction, y: np.ndarray, b: np.ndarray, alphas: np.ndarray
) -> int:
    """Client-side angle recovery from the round transcript.

        theta = (pi/2) * (-1)^{x_n} sum_j (x_j - x'_j)(2 b_j + alpha_j)

    over the claw (x, x') = preimages of y, outcome bits b_j and basis bits
    alpha_j; returned as the quarter-turn index theta / (pi/2) mod 4.
    """
    x1, x2 = (x.tolist() for x in td.preimages(y))
    s = sum((u - v) * (2 * int(bj) + int(aj)) for u, v, bj, aj in zip(x1, x2, b, alphas))
    return (-s if x1[-1] else s) % 4


def claw_round(commit, measure):
    """The claw-based round, run as ``round_(rng) -> (theta_index, handle)``.

    The client draws a fresh trapdoor, the server commits to its matrix
    (``commit(matrix, rng) -> (y, handle)``), the client draws random basis
    bits, the server measures (``measure(handle, alphas, rng) -> (b,
    handle)``), and the client recovers the angle. Locally the two server
    steps are ``rsp_server_commit`` and ``rsp_server_measure``, and the handle
    is the state; remotely they are messages, and the handle is a qubit id.
    """

    def round_(rng: np.random.Generator):
        td = sample_trapdoor(RSP_N, RSP_MU, rng)
        y, handle = commit(td.matrix, rng)
        alphas = rng.integers(0, 2, RSP_N - 1)
        b, handle = measure(handle, alphas, rng)
        return rsp_theta_index(td, y, b, alphas), handle

    return round_


def _draw(round_, rng: np.random.Generator, accept, rejected: list):
    """Run rounds until ``accept(theta_index)``; rejected handles go to ``rejected``."""
    for _ in range(MAX_DRAWS):
        idx, handle = round_(rng)
        if accept(idx):
            return idx, handle
        rejected.append(handle)
    raise GadgetError("rejection sampling for preparation angle did not converge")


# --- gadget generation, routing, consumption, key update -------------------


@dataclass(frozen=True)
class Gadget:
    """Server-side gadget: the 4-qubit state plus its correction ciphertexts.

    ``state`` is None in a client's copy of a gadget built on a server. All
    ciphertexts live one key level above the wire keys they will update;
    ``sk_enc`` (the encrypted lower secret key) bridges the gap via key
    switching.
    """

    state: StateVector | None
    x_ct: tuple[HECiphertext, HECiphertext]
    z_ct: tuple[HECiphertext, HECiphertext]
    e_ct: tuple[tuple[HECiphertext, HECiphertext], tuple[HECiphertext, HECiphertext]]
    sk_enc: tuple[HECiphertext, ...]
    level: int


@dataclass(frozen=True)
class GadgetSecrets:
    """Client-side record: preparation bits and leaf-family keystream bits."""

    p: tuple[int, int]
    x: tuple[int, int]
    z: tuple[int, int]
    x_stream: int
    z_stream: int
    e_stream: int


def gen_gadget(
    pk_next: HEPublicKey,
    sk_enc: tuple[HECiphertext, ...],
    k_bit: int,
    rng: np.random.Generator,
    round_,
    couple=None,
) -> tuple[Gadget, GadgetSecrets]:
    """Build one conditional-phase gadget twisted by keystream parity ``k_bit``.

    Pair position j gets phase bit p_j = j XOR k_bit, so the position selected
    at runtime by a ciphertext's public masked parity carries exactly the
    encrypted bit's phase. Each pair's head needs theta in {0, pi} (no phase
    bit) and its tail a phase bit equal to the pair's twist; rounds are drawn
    head 0, tail 0, head 1, tail 1. Corrections that the server picks by
    public runtime data (position and flip outcome) are encrypted with shared
    per-family keystream bits, keeping downstream keystream parities
    choice-independent. ``couple`` defaults to ``assemble_gadget_state``,
    which drops the rejected states.
    """
    p = twist_bits(k_bit)
    heads, tails, rejected = [], [], []
    for j in range(PAIR_COUNT):
        heads.append(_draw(round_, rng, lambda i: i in (0, 2), rejected))
        tails.append(_draw(round_, rng, lambda i, pj=p[j]: (i & 1) == pj, rejected))
    head_idx, head_handles = zip(*heads)
    tail_idx, tail_handles = zip(*tails)
    if couple is None:
        state = assemble_gadget_state(head_handles, tail_handles)
    else:
        state = couple(head_handles, tail_handles, rejected)
    xs = tuple(theta_bits(i)[0] for i in head_idx)
    zs = tuple(theta_bits(i)[1] for i in tail_idx)
    x_ct, z_ct, e_ct, secrets = build_gadget_ciphertexts(pk_next, p, xs, zs, rng)
    gadget = Gadget(state, x_ct, z_ct, e_ct, tuple(sk_enc), pk_next.level)
    return gadget, secrets


def twist_bits(k_bit: int) -> tuple[int, int]:
    if k_bit not in (0, 1):
        raise GadgetError(f"keystream parity must be a bit, got {k_bit}")
    return (k_bit, 1 ^ k_bit)


def assemble_gadget_state(heads, tails) -> StateVector:
    """Couple each (head, tail) pair: CZ across the pair, then H on the head."""
    state = tensor(tensor(heads[0], tails[0]), tensor(heads[1], tails[1]))
    for j in range(PAIR_COUNT):
        state = apply_gate(state, gate("CZ", _HEAD[j], _TAIL[j]))
        state = apply_gate(state, gate("H", _HEAD[j]))
    return state


def build_gadget_ciphertexts(
    pk_next: HEPublicKey,
    p: tuple[int, int],
    xs: tuple[int, int],
    zs: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[tuple, tuple, tuple, GadgetSecrets]:
    """Encrypt the per-pair correction bits with shared family keystream bits."""
    x_stream, z_stream, e_stream = (int(rng.integers(2)) for _ in range(3))
    x_ct = tuple(he_enc(pk_next, xs[j], rng, keystream_bit=x_stream) for j in range(2))
    z_ct = tuple(he_enc(pk_next, zs[j], rng, keystream_bit=z_stream) for j in range(2))
    e_ct = tuple(
        tuple(he_enc(pk_next, p[j] & (xs[j] ^ v), rng, keystream_bit=e_stream) for v in range(2))
        for j in range(2)
    )
    secrets = GadgetSecrets(p, xs, zs, x_stream, z_stream, e_stream)
    return x_ct, z_ct, e_ct, secrets


def gen_measurement(a_ct: HECiphertext) -> int:
    """The route: the pair j the input teleports through, read from the
    public masked parity of the key-bit ciphertext."""
    return public_masked_parity(a_ct)


def consume_gadget(
    state: StateVector,
    wire: int,
    gadget: Gadget,
    route: int,
    rng: np.random.Generator,
) -> tuple[StateVector, tuple[int, int]]:
    """Teleport ``wire`` through pair ``route``; returns the state and (u, v).

    The input is Bell-measured against the route's head, the other pair
    against itself, and the route's tail carries the result. The input wire
    position is preserved: the output qubit is moved back to ``wire`` after
    the spent qubits are measured out.
    """
    state.check_wires([wire])
    n = state.num_qubits
    full = tensor(state, gadget.state)
    # Track current positions of all surviving labels through removals.
    pos = {("reg", w): w for w in range(n)}
    pos.update({("gad", g): n + g for g in range(GADGET_QUBITS)})

    def take(label):
        where = pos.pop(label)
        for k in pos:
            if pos[k] > where:
                pos[k] -= 1
        return where

    def bell(st, la, lb):
        wa, wb = pos[la], pos[lb]
        out, st = bell_measure(st, wa, wb, rng)
        take(la)
        take(lb)
        return out, st

    other = 1 - route
    (u, v), full = bell(full, ("reg", wire), ("gad", _HEAD[route]))
    _, full = bell(full, ("gad", _HEAD[other]), ("gad", _TAIL[other]))
    out_pos = pos[("gad", _TAIL[route])]
    order = list(range(full.num_qubits))
    order.remove(out_pos)
    order.insert(wire, out_pos)
    if order != list(range(full.num_qubits)):
        full = permute_wires(full, order)
    return full, (u, v)


def gadget_key_update(
    gadget: Gadget,
    route: int,
    u: int,
    v: int,
    a_ct: HECiphertext,
    b_ct: HECiphertext,
    dagger: bool = False,
) -> tuple[HECiphertext, HECiphertext]:
    """Homomorphic pad-key update after consuming the gadget.

    a' = a XOR x_j XOR v and b' = b XOR z_j XOR u XOR e_{j,v}, for j the
    route, with the old keys first switched up to the gadget's level. The
    inverse-rotation variant folds the extra Z^a from commuting Tdagger past
    the pad into b.
    """
    if dagger:
        b_ct = he_xor(b_ct, a_ct)
    a_up = key_switch(a_ct, gadget.sk_enc)
    b_up = key_switch(b_ct, gadget.sk_enc)
    a_new = he_xor(he_xor(a_up, gadget.x_ct[route]), he_const(v, gadget.level))
    b_new = he_xor(
        he_xor(he_xor(b_up, gadget.z_ct[route]), he_const(u, gadget.level)),
        gadget.e_ct[route][v],
    )
    return a_new, b_new
