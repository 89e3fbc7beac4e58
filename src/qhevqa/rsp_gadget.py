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

Each pair is entangled only within itself until it is consumed, so a
gadget holds its pairs as two states of 4 amplitudes each, and consumption
runs in closed form on the register's own 2^n amplitudes (gate
teleportation): a Bell outcome of the input wire against a pair's head is a
2 x 2 map on that wire, and the wire's reduced density matrix gives the
outcome's probability. Nothing joins the register, and the output stays on
the input wire.

One builder, ``gen_gadget``, holds the recipe: the twist, the head and tail
acceptance tests, the bounded rejection loop and the correction
ciphertexts. It is the same for a gadget built in this process and one built
on a remote server; only two seams differ. ``round_(rng)`` hands out one
preparation round as ``(theta_index, handle)``: locally the handle is the
prepared state, remotely the server's qubit id. Rounds come from a
first-in, first-out pool (``pooled``) refilled, only when it runs dry, with
a batch sized by ``rsp_rows`` to the gadgets still to build: from the ideal
sampler (``ideal_round``, in process only), a batch is one draw; from
``claw_round``, the one claw-based recipe and the only remote one, each
round has a fresh 2-to-1 GF(2) linear function and its trapdoor (the hidden
kernel vector), and the batch's two server steps are called locally or
sent as messages. The rounds are independent instances, so every
step works on the whole batch as arrays. ``couple(heads, tails, rejected,
gadget)`` entangles the accepted pairs, drops the rejected rounds and returns
the gadget's state: locally the pair states; remotely None, once the pairs
to couple and the ciphertexts are queued for the server. The claw function
has a fixed size, ``RSP_N`` inputs by ``RSP_MU`` outputs. The server's claw
steps run on each state's support, not on n + mu dense wires: the commit
enumerates the 2^n inputs once, and the measurement is two-term arithmetic on
one wire at a time. A batch of k rounds draws ``rng.random((k, m))`` for its
m measured wires, the stream k separate rounds would draw, in the dense order
and against the same probabilities, so seeded rounds give the dense
simulation's outcomes.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .classical_he import HECiphertext, HEPublicKey, LeafIndex, he_enc_bits
from .simulator import (
    FIXED_1Q,
    StateVector,
    _split,
    apply_matrix,
    prepare_plus_theta,
)

PAIR_COUNT = 2
GADGET_QUBITS = 2 * PAIR_COUNT
CORRECTION_LEAVES = 4 * PAIR_COUNT  # each pair's x, z and two e ciphertexts
# Claw function size (inputs, outputs) and the rounds one draw may take.
RSP_N = RSP_MU = 4
MAX_DRAWS = 512
# The most claw rounds in one batch, and so in one frame a server takes.
RSP_BATCH = 512


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


# --- GF(2) trapdoor function and remote state preparation ------------------


def _image_bits(matrices: np.ndarray) -> np.ndarray:
    """Bit i of A_r x for each matrix A_r and input x = 0..2^n - 1 (bit j of x
    is x_j), shape (k, mu, 2^n)."""
    n = matrices.shape[-1]
    return matrices @ ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).T % 2


@dataclass(frozen=True)
class TrapdoorFunction:
    """k 2-to-1 linear maps x -> A_r x over GF(2), map r with hidden kernel {0, t_r}."""

    matrix: np.ndarray  # shape (k, mu, n)
    kernel: np.ndarray  # shape (k, n), the trapdoors t_r, each with t_r[n-1] = 1

    def preimages(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The claws (x_r, x_r XOR t_r) of the rows y_r, each x_r the
        lowest-numbered preimage (for a sampled trapdoor, the one whose top
        bit is 0)."""
        mu = self.matrix.shape[1]
        weights = 1 << np.arange(mu)
        images = weights @ _image_bits(self.matrix)  # (k, 2^n): Ax as an int
        hits = images == (np.asarray(y) @ weights)[:, None]
        if not hits.any(axis=1).all():
            raise GadgetError("image point has no preimage")
        x = (hits.argmax(axis=1)[:, None] >> np.arange(self.matrix.shape[2])) & 1
        return x, x ^ self.kernel


def sample_trapdoor(k: int, n: int, mu: int, rng: np.random.Generator) -> TrapdoorFunction:
    """Draw k rank n-1 matrices, matrix r with kernel {0, t_r} and t_r's top bit set.

    Each draw takes t and the matrix rows uniformly at random; XOR-ing a row's
    parity against t into its top bit makes it orthogonal to t (t's top bit
    is 1) and keeps it uniform among the rows that are. A draw whose t has no
    other bit set, or whose matrix fails the rank test, is dropped whole. Each
    pass draws twice the trapdoors still missing and keeps the first good ones.
    """
    if n < 2 or mu < n - 1:
        raise GadgetError(f"need n >= 2 and mu >= n-1, got n={n}, mu={mu}")
    kernel = np.empty((k, n), dtype=np.int64)
    matrix = np.empty((k, mu, n), dtype=np.int64)
    filled = 0
    while filled < k:
        t = rng.integers(0, 2, (2 * (k - filled), n))
        t[:, n - 1] = 1
        a = rng.integers(0, 2, (len(t), mu, n))
        a[:, :, n - 1] ^= (a @ t[:, :, None])[:, :, 0] % 2
        # A kernel supported only on the top bit would pin the prepared angle
        # to zero; the kernel is {0, t} when exactly two inputs map to zero.
        zeros = (~_image_bits(a).any(axis=1)).sum(axis=1)
        good = np.flatnonzero(t[:, : n - 1].any(axis=1) & (zeros == 2))[: k - filled]
        kernel[filled : filled + len(good)], matrix[filled : filled + len(good)] = t[good], a[good]
        filled += len(good)
    return TrapdoorFunction(matrix, kernel)


def _read_only(state: StateVector) -> StateVector:
    state.amplitudes.flags.writeable = False
    return state


# The four ideal preparations, shared by every ideal round, so read-only.
_PLUS_THETA = tuple(_read_only(prepare_plus_theta(i * np.pi / 2)) for i in range(4))
_IDEAL_ROUNDS = tuple(enumerate(_PLUS_THETA))


def rsp_round_ideal(rng: np.random.Generator, size: int | None = None):
    """One ideal round ``(theta_index, state)``, the state |+_theta> for a
    uniform quarter turn; with ``size``, a list of ``size`` rounds from one
    ``rng.integers`` draw."""
    if size is None:
        idx = int(rng.integers(4))
        return idx, _PLUS_THETA[idx]
    return list(map(_IDEAL_ROUNDS.__getitem__, rng.integers(4, size=size).tolist()))


def rsp_server_commit(
    matrices: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Server steps 1-2 for k rounds: claw superposition, image measured out,
    top bit first.

    Needs only the public (k, mu, n) matrices. Returns the (k, mu) images y
    and the (k, 2^n) uniform superpositions of their preimages: the claw
    (x, x XOR t), or more for a rank-deficient matrix.
    """
    images = _image_bits(np.asarray(matrices) % 2).astype(bool)
    k, mu, size = images.shape
    draws = rng.random((k, mu))
    alive = np.ones((k, size), dtype=bool)
    y = np.zeros((k, mu), dtype=np.int64)
    for j, bit in enumerate(range(mu - 1, -1, -1)):
        ones = alive & images[:, bit]
        y[:, bit] = draws[:, j] < ones.sum(axis=1) / alive.sum(axis=1)
        alive = np.where(y[:, bit, None] == 1, ones, alive & ~ones)
    return y, alive / np.sqrt(alive.sum(axis=1, keepdims=True)) + 0j


def rsp_server_measure(
    states: np.ndarray, alphas: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, list[StateVector]]:
    """Server step 3 for k rounds: measure wires n-2..0 of each (k, 2^n)
    state in {|0> +- i^alpha |1>}, in turn.

    Returns the (k, n-1) outcome bits b and the k surviving qubits, each
    |+_theta> for the angle only the trapdoor holder can recover.
    """
    amps = np.asarray(states)
    k, size = amps.shape
    n = size.bit_length() - 1
    alphas = np.asarray(alphas, dtype=np.int64)
    if alphas.shape != (k, n - 1):
        raise GadgetError(f"need {k} rows of {n - 1} basis bits, got shape {alphas.shape}")
    draws = rng.random((k, n - 1))
    b = np.zeros((k, n - 1), dtype=np.int64)
    for j, w in enumerate(range(n - 2, -1, -1)):
        psi = amps.reshape(k, 2, 2, -1)  # (round, top wire, measured wire, lower wires)
        zero, one = psi[:, :, 0], psi[:, :, 1]
        one = np.where(alphas[:, w, None, None] == 1, -1j * one, one)
        # H up to its 1/sqrt(2), which the probability and the renormalization absorb.
        plus, minus = zero + one, zero - one
        b[:, w] = draws[:, j] < np.einsum("rij,rij->r", minus.conj(), minus).real / 2
        kept = np.where(b[:, w, None, None] == 1, minus, plus).reshape(k, -1)
        amps = kept / np.sqrt(np.einsum("ri,ri->r", kept.conj(), kept).real)[:, None]
    return b, [StateVector(1, a) for a in amps]


def rsp_theta_index(
    td: TrapdoorFunction, y: np.ndarray, b: np.ndarray, alphas: np.ndarray
) -> np.ndarray:
    """Client-side angle recovery from k round transcripts.

        theta = (pi/2) * (-1)^{x_n} sum_j (x_j - x'_j)(2 b_j + alpha_j)

    over each round's claw (x, x') = preimages of y, outcome bits b_j and basis
    bits alpha_j; returned as the k quarter-turn indices theta / (pi/2) mod 4.
    """
    x1, x2 = td.preimages(y)
    m = x1.shape[1] - 1
    s = ((x1[:, :m] - x2[:, :m]) * (2 * np.asarray(b) + np.asarray(alphas))).sum(axis=1)
    return np.where(x1[:, m] == 1, -s, s) % 4


def pooled(refill, pool: deque):
    """``round_(rng)`` handing out the rounds in ``pool`` first in, first out;
    when it is empty, ``refill(rng)`` tops it up with a batch of
    ``(theta_index, handle)`` rounds. Whoever owns the pool can drop what is
    left of it."""

    def round_(rng: np.random.Generator):
        if not pool:
            pool.extend(refill(rng))
        return pool.popleft()

    return round_


def rsp_rows(gadgets: int) -> int:
    """The rounds to ask for while ``gadgets`` gadgets are still to build, at
    most ``RSP_BATCH``. A gadget makes four draws, each accepted with probability
    1/2, so its rounds have mean 8 and variance 8: the batch is the mean plus
    three standard deviations, and the pool rarely runs dry."""
    mean = 2 * GADGET_QUBITS * gadgets
    return min(RSP_BATCH, mean + math.ceil(3 * math.sqrt(mean)))


def ideal_round(left, pool: deque):
    """The ideal round, pooled over batches of ``rsp_rows(left())`` rounds,
    ``left()`` the gadgets still to build; a batch is one ``rsp_round_ideal``
    draw."""
    return pooled(lambda rng: rsp_round_ideal(rng, rsp_rows(left())), pool)


def claw_round(commit, measure, left, pool: deque):
    """The claw-based round, pooled over batches of ``rsp_rows(left())``
    rounds, ``left()`` the gadgets still to build.

    A refill draws a batch of fresh trapdoors, the server commits to their
    matrices (``commit(matrices, rng) -> (y, handles)``), the client draws
    random basis bits, the server measures (``measure(handles, alphas, rng)
    -> (b, handles)``), and the client recovers the angles. Locally the two
    server steps are ``rsp_server_commit`` and ``rsp_server_measure``, and
    the handles are the states; remotely they are messages, and the handles
    are qubit ids.
    """

    def refill(rng: np.random.Generator):
        batch = rsp_rows(left())
        td = sample_trapdoor(batch, RSP_N, RSP_MU, rng)
        y, handles = commit(td.matrix, rng)
        alphas = rng.integers(0, 2, (batch, RSP_N - 1))
        b, handles = measure(handles, alphas, rng)
        return zip(rsp_theta_index(td, y, b, alphas).tolist(), handles)

    return pooled(refill, pool)


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
    """Server-side gadget: its two coupled pair states plus its correction
    ciphertexts.

    ``state`` holds pair j as a 2 x 2 array phi_j[h, t] of amplitudes over
    its head bit h and tail bit t; it is None in the client's copy of a
    gadget coupled on a server. Its ciphertexts, leaves one key level above the
    wire keys they will update, keep the wire's order, which the properties
    read; ``sk_enc`` (the encrypted lower secret key) bridges the gap via key switching.
    """

    state: tuple[np.ndarray, np.ndarray] | None
    leaves: tuple[HECiphertext, ...]
    level: int

    x_ct = property(lambda self: self.leaves[0:2])
    z_ct = property(lambda self: self.leaves[2:4])
    e_ct = property(lambda self: (self.leaves[4:6], self.leaves[6:8]))
    sk_enc = property(lambda self: self.leaves[8:])


def gen_gadget(
    pk_next: HEPublicKey,
    sk_enc: tuple[HECiphertext, ...],
    k_bit: int,
    rng: np.random.Generator,
    round_,
    couple=None,
    streams: tuple[int, int, int] | None = None,
    nonces=None,
) -> tuple[Gadget, tuple[int, int]]:
    """Build one conditional-phase gadget twisted by keystream parity ``k_bit``.

    Pair position j gets phase bit p_j = j XOR k_bit, so the position selected
    at runtime by a ciphertext's public masked parity carries exactly the
    encrypted bit's phase. Each pair's head needs theta in {0, pi} (no phase
    bit) and its tail a phase bit equal to the pair's twist; rounds are drawn
    head 0, tail 0, head 1, tail 1. Corrections that the server picks by
    public runtime data (position and flip outcome) are encrypted with shared
    per-family keystream bits, keeping downstream keystream parities
    choice-independent; ``streams`` and ``nonces`` go to
    ``build_gadget_ciphertexts``. Once the ciphertexts are built,
    ``couple(heads, tails, rejected, gadget)`` gets the accepted handles, the
    rejected ones in draw order and the gadget without its state, and
    returns the state. It defaults to ``assemble_gadget_state``, which drops
    the rejected states. Returns the gadget and ``(dx, dz)``, the keystream
    parities its corrections add to the routed wire's a and b keys.
    """
    p = twist_bits(k_bit)
    heads, tails, rejected = [], [], []
    for j in range(PAIR_COUNT):
        heads.append(_draw(round_, rng, lambda i: i in (0, 2), rejected))
        tails.append(_draw(round_, rng, lambda i, pj=p[j]: (i & 1) == pj, rejected))
    head_idx, head_handles = zip(*heads)
    tail_idx, tail_handles = zip(*tails)
    xs = tuple(theta_bits(i)[0] for i in head_idx)
    zs = tuple(theta_bits(i)[1] for i in tail_idx)
    cts, parities = build_gadget_ciphertexts(pk_next, p, xs, zs, rng, streams, nonces)
    fields = ((*cts, *sk_enc), pk_next.level)
    if couple is None:
        state = assemble_gadget_state(head_handles, tail_handles)
    else:
        state = couple(head_handles, tail_handles, rejected, Gadget(None, *fields))
    return Gadget(state, *fields), parities


def twist_bits(k_bit: int) -> tuple[int, int]:
    if k_bit not in (0, 1):
        raise GadgetError(f"keystream parity must be a bit, got {k_bit}")
    return (k_bit, 1 ^ k_bit)


# CZ's signs on a pair's amplitudes phi[h, t].
_CZ_SIGNS = np.array([[1, 1], [1, -1]])


def assemble_gadget_state(heads, tails) -> tuple[np.ndarray, np.ndarray]:
    """Couple each (head, tail) pair: CZ across the pair, then H on the head.

    Returns the two pair states phi_j[h, t], 4 amplitudes each, built in one
    broadcast. The pairs are never entangled with each other, so nothing
    builds their product.
    """
    h = np.array([s.amplitudes for s in heads])
    t = np.array([s.amplitudes for s in tails])
    return tuple(FIXED_1Q["H"] @ (h[:, :, None] * t[:, None, :] * _CZ_SIGNS))


def build_gadget_ciphertexts(
    pk_next: HEPublicKey,
    p: tuple[int, int],
    xs: tuple[int, int],
    zs: tuple[int, int],
    rng: np.random.Generator,
    streams: tuple[int, int, int] | None = None,
    nonces=None,
) -> tuple[tuple[HECiphertext, ...], tuple[int, int]]:
    """Encrypt the per-pair correction bits with shared family keystream bits.

    ``streams`` holds the x, z and e families' keystream bits; None draws
    them, one ``rng.integers(2, size=3)``. The ``CORRECTION_LEAVES`` pinned
    leaves take their nonces from ``nonces``, a pool ``he_enc_bits`` shares
    across calls, or from a pool of their own if None. Key generation passes
    both, drawn for all its gadgets at once. Returns the x, z and e
    ciphertexts, in order, and ``(dx, dz)``: an a key gains the x family's
    keystream bit, a b key the z and e families' bits together.
    """
    if streams is None:
        streams = rng.integers(2, size=3).tolist()
    x_stream, z_stream, e_stream = streams
    es = [p[j] & (xs[j] ^ v) for j in range(2) for v in range(2)]
    pinned = [x_stream] * 2 + [z_stream] * 2 + [e_stream] * 4
    cts = he_enc_bits(pk_next, [*xs, *zs, *es], rng, pinned, nonces)
    return cts, (x_stream, z_stream ^ e_stream)


def gen_measurement(a: int) -> int:
    """The route: the pair j the input teleports through, read from the
    public masked parity of the key-bit ciphertext, bit 0 of its
    ``LeafIndex`` packing ``a``."""
    return a & 1


# A Bell outcome (u, v) on wires (a, b) projects onto sum over a of
# (-1)^(u a) / sqrt(2) |a, a XOR v>: _SIGN[u, a] is the coefficient and
# _FLIP[v, a] the partner bit a XOR v.
_SIGN = FIXED_1Q["H"]
_FLIP = np.array([[0, 1], [1, 0]])


def _bell_draw(probs: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    """Draw a Bell outcome from its probabilities probs[u, v] as
    ``bell_measure`` draws: u first, then v given u."""
    p = probs.tolist()
    u = int(rng.random() < p[1][0] + p[1][1])
    q0, q1 = p[u]
    v = int(q0 + q1 > 1e-24 and rng.random() < q1 / (q0 + q1))
    if p[u][v] < 1e-24:
        raise GadgetError("Bell outcome of zero probability")
    return u, v


def consume_gadget(
    state: StateVector,
    wire: int,
    gadget: Gadget,
    route: int,
    rng: np.random.Generator,
) -> tuple[StateVector, tuple[int, int]]:
    """Teleport ``wire`` through pair ``route``; returns the state and (u, v).

    The input is Bell-measured against the route's head, the other pair
    against itself, and the route's tail carries the result, which stays on
    ``wire``. In closed form (gate teleportation) on the register's own
    amplitudes: outcome (u, v) applies to the wire the 2 x 2 map

        M_uv[t, i] = (-1)^(u i) phi[i XOR v, t] / sqrt(2)

    of the route's pair phi, with probability tr(M_uv rho M_uv^dagger) for
    the wire's reduced density matrix rho. The spent pair's outcome is drawn
    from its own four Bell amplitudes, whose phase it leaves on the register.
    The draws are ``bell_measure``'s, in its order.
    """
    state.check_wires([wire])
    view = _split(state.amplitudes, state.num_qubits, wire)
    rho = np.einsum("aib,ajb->ij", view, view.conj())
    phi, spent = gadget.state[route], gadget.state[1 - route]
    maps = _SIGN[:, None, None, :] * phi[_FLIP].transpose(0, 2, 1)  # [u, v, t, i]
    u, v = _bell_draw(np.einsum("uvti,ij,uvtj->uv", maps, rho, maps.conj()).real, rng)
    overlaps = _SIGN @ spent[np.arange(2), _FLIP].T  # <beta_uv|spent>, [u, v]
    su, sv = _bell_draw(np.abs(overlaps) ** 2, rng)
    out = apply_matrix(state, maps[u, v], [wire])
    phase = overlaps[su, sv] / abs(overlaps[su, sv])
    out.amplitudes *= phase / np.linalg.norm(out.amplitudes)
    return out, (u, v)


def gadget_key_update(
    index: LeafIndex,
    gadget: Gadget,
    route: int,
    u: int,
    v: int,
    a: int,
    b: int,
    dagger: bool = False,
) -> tuple[int, int]:
    """Homomorphic pad-key update after consuming the gadget, on the routed
    wire's keys packed by ``index``; returns the packed pair, at the gadget's
    level once the caller counts its key switch.

    a' = a XOR x_j XOR v and b' = b XOR z_j XOR u XOR e_{j,v}, for j the
    route. The three gadget leaves it reads are packed at the gadget's
    level, and a constant bit c packs as 3c, its constant and its parity.
    The inverse-rotation variant folds the extra Z^a from commuting Tdagger
    past the pad into b.
    """
    if dagger:
        b ^= a
    x, z, e = (index.pack(ct, gadget.level)
               for ct in (gadget.x_ct[route], gadget.z_ct[route], gadget.e_ct[route][v]))
    return a ^ x ^ 3 * v, b ^ z ^ e ^ 3 * u
