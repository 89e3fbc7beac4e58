"""Solovay-Kitaev synthesis of single-qubit unitaries over {H, T, Tdagger}.

Depth 0 is the nearest word of a breadth-first epsilon-net of short products.
Each deeper word is built from the one before (Dawson-Nielsen,
arXiv:quant-ph/0505030): the residual between the target and the current
word is a balanced group commutator V W V^dag W^dag, and the word grows by
the one-depth-shallower words of V and W and their inverses, kept only if it
comes closer. One generator yields the (word, unitary) pair at every depth,
so deepening until a tolerance is met builds each depth once. Distances use
the phase-invariant metric d(U, V) = sqrt(1 - |tr(U^dag V)| / 2), which is
zero exactly when the two matrices agree up to global phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .simulator import FIXED_1Q, Gate, ROTATION_1Q, gate

ALPHABET = ("H", "T", "Tdagger")
_INVERSE = {"H": "H", "T": "Tdagger", "Tdagger": "T"}
BASE_LENGTH = 12  # the longest product in the net
DEFAULT_DEPTH = 3
DEFAULT_EPS_TARGET = 1e-2
MAX_DEPTH = 5
# Depth used when reporting gate tallies comparable to coarse published
# counts (tens of T gates); the binding quantity is always the distance.
REPORT_DEPTH = 2


class DecompositionError(Exception):
    pass


def trace_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Phase-invariant distance sqrt(1 - |tr(U^dag V)|/2) on 2x2 unitaries."""
    overlap = abs(np.trace(u.conj().T @ v)) / 2.0
    if not np.isfinite(overlap):  # min() below would turn NaN into distance 0
        return float("nan")
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, overlap))))


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if (
        u.shape != (2, 2)
        or not np.all(np.isfinite(u))
        or np.max(np.abs(u.conj().T @ u - np.eye(2))) > 1e-10
    ):
        raise DecompositionError("input must be a finite 2x2 unitary within 1e-10")
    return u


def simplify_ops(ops: tuple[str, ...]) -> tuple[str, ...]:
    """Cancel H pairs and reduce T-power runs modulo 8 (T^7 -> Tdagger).

    One pass over a stack of syllables, each an H or a T power 1..7: an H
    cancels an H on top, a T power merges with one on top, and a power that
    vanishes leaves the syllable below on top, so it can cancel in turn.
    """
    stack: list = []
    for op in ops:
        if op == "H":
            if stack and stack[-1] == "H":
                stack.pop()
            else:
                stack.append("H")
            continue
        power = 1 if op == "T" else 7
        if stack and stack[-1] != "H":
            power = (stack.pop() + power) % 8
        if power:
            stack.append(power)
    out: list[str] = []
    for syl in stack:
        out += [syl] if syl == "H" else ["T"] * syl if syl <= 4 else ["Tdagger"] * (8 - syl)
    return tuple(out)


# T^p for p mod 8 with at most one T or Tdagger: T^2 = P, T^4 = Z, T^6 = Pdagger.
_T_POWERS = ((), ("T",), ("P",), ("P", "T"), ("Z",), ("Z", "T"), ("Pdagger",), ("Tdagger",))


def fold_t_runs(circuit: list[Gate]) -> list[Gate]:
    """Rewrite each maximal same-wire run of T/Tdagger as its power mod 8 with
    at most one T or Tdagger, so the run costs at most one gadget.

    A run ends only at a gate that touches its wire, and its folded gates take
    the place of its first T. The unitary is unchanged exactly, global phase too.
    """
    slots: list[list[Gate]] = []  # each other gate alone, each run at its first T
    runs: dict[int, list[Gate]] = {}  # wire -> the slot of its open run
    for g in circuit:
        if g.kind not in ("T", "Tdagger"):
            for wire in g.wires:
                runs.pop(wire, None)
            slots.append([g])
        elif g.wires[0] in runs:
            runs[g.wires[0]].append(g)
        else:
            slots.append(runs.setdefault(g.wires[0], [g]))
    out: list[Gate] = []
    for slot in slots:
        if slot[0].kind in ("T", "Tdagger"):
            power = sum(1 if g.kind == "T" else 7 for g in slot) % 8
            slot = [gate(kind, slot[0].wires[0]) for kind in _T_POWERS[power]]
        out += slot
    return out


def ops_unitary(ops: tuple[str, ...]) -> np.ndarray:
    u = np.eye(2, dtype=complex)
    for op in ops:
        u = FIXED_1Q[op] @ u
    return u


@dataclass(frozen=True)
class EpsilonNet:
    """All distinct products up to ``BASE_LENGTH`` long, shortest word wins:
    the words, and their unitaries stacked for one vectorized search."""

    words: tuple[tuple[str, ...], ...]
    unitaries: np.ndarray  # (N, 2, 2)

    def nearest(self, u: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        # |tr(S^dag U)| = |sum S conj(U)| for every net entry in one vectorized
        # pass; conjugating the 2 x 2 target, not the stack, gives the same bits.
        overlap = np.abs(np.einsum("nij,ij->n", self.unitaries, u.conj())) / 2.0
        i = int(np.argmax(overlap))
        return self.words[i], self.unitaries[i]


def _canonical_key(u: np.ndarray) -> bytes:
    flat = u.reshape(-1)
    mags = np.abs(flat)
    idx = int(np.argmax(mags > mags.max() - 1e-6))
    normalized = flat * (np.conj(flat[idx]) / mags[idx])
    return np.round(normalized, 9).tobytes()


def build_net() -> EpsilonNet:
    seen: dict[bytes, tuple[str, ...]] = {_canonical_key(np.eye(2, dtype=complex)): ()}
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), np.eye(2, dtype=complex))]
    all_entries: list[tuple[tuple[str, ...], np.ndarray]] = list(frontier)
    for _ in range(BASE_LENGTH):
        nxt = []
        for ops, u in frontier:
            for sym in ALPHABET:
                if ops and sym == _INVERSE[ops[-1]]:
                    continue
                new_u = FIXED_1Q[sym] @ u
                key = _canonical_key(new_u)
                if key in seen:
                    continue
                new_ops = ops + (sym,)
                seen[key] = new_ops
                nxt.append((new_ops, new_u))
        all_entries.extend(nxt)
        frontier = nxt
    words, unitaries = zip(*all_entries)
    stack = np.stack(unitaries)
    stack.flags.writeable = False  # nearest hands out rows of the shared net
    return EpsilonNet(words, stack)


@lru_cache(maxsize=1)
def default_net() -> EpsilonNet:
    return build_net()


# --- balanced group commutator ---------------------------------------------


def _to_su2(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u / np.sqrt(det)


def _axis_angle(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotation axis and angle of an SU(2) element exp(-i theta/2 n.sigma)."""
    su = _to_su2(u)
    c = np.clip(np.real(np.trace(su)) / 2.0, -1.0, 1.0)
    theta = 2.0 * np.arccos(c)
    if theta < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    # Extract from su = cos(t/2) I - i sin(t/2) (nx X + ny Y + nz Z).
    s = np.sin(theta / 2.0)
    nx = -np.imag(su[0, 1]) / s
    ny = np.real(su[1, 0]) / s
    nz = -np.imag(su[0, 0]) / s
    n = np.array([nx, ny, nz])
    n = n / np.linalg.norm(n)
    if theta > np.pi:
        # Canonicalize reflex rotations: same element, short angle, axis flip.
        theta = 2.0 * np.pi - theta
        n = -n
    return n, theta


def _rotation(axis: np.ndarray, theta: float) -> np.ndarray:
    x, y, z = axis
    sigma = (
        x * FIXED_1Q["X"] + y * FIXED_1Q["Y"] + z * FIXED_1Q["Z"]
    )
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * sigma


def _axis_mapper(frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    """SU(2) rotation carrying unit vector ``frm`` to ``to``."""
    cross = np.cross(frm, to)
    dot = float(np.clip(np.dot(frm, to), -1.0, 1.0))
    if np.linalg.norm(cross) < 1e-12:
        if dot > 0:
            return np.eye(2, dtype=complex)
        # Antipodal: rotate pi about any perpendicular axis.
        perp = np.cross(frm, [1.0, 0.0, 0.0])
        if np.linalg.norm(perp) < 1e-6:
            perp = np.cross(frm, [0.0, 1.0, 0.0])
        return _rotation(perp / np.linalg.norm(perp), np.pi)
    return _rotation(cross / np.linalg.norm(cross), np.arccos(dot))


def group_commutator_factors(
    axis: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """V, W whose commutator V W V^dag W^dag is the rotation by ``theta``
    about the unit vector ``axis`` (up to phase), balanced in size."""
    # Commutator of phi-rotations about X and Y is a rotation by theta with
    # sin(theta/2) = 2 sin^2(phi/2) sqrt(1 - sin^4(phi/2)); solve by bisection.
    st = np.sin(theta / 2.0)
    lo, hi = 0.0, np.pi
    for _ in range(80):
        phi = (lo + hi) / 2.0
        sp = np.sin(phi / 2.0) ** 2
        val = 2.0 * sp * np.sqrt(max(0.0, 1.0 - sp * sp))
        if val < st:
            lo = phi
        else:
            hi = phi
    phi = (lo + hi) / 2.0
    v = _rotation(np.array([1.0, 0.0, 0.0]), phi)
    w = _rotation(np.array([0.0, 1.0, 0.0]), phi)
    commutator = v @ w @ v.conj().T @ w.conj().T
    n_have, _ = _axis_angle(commutator)
    s = _axis_mapper(n_have, axis)
    return s @ v @ s.conj().T, s @ w @ s.conj().T


def _inverse(ops: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_INVERSE[op] for op in reversed(ops))


def _deepen(u: np.ndarray, net: EpsilonNet):
    """Yield the (word, unitary) approximations of the SU(2) element ``u`` at
    depths 0..MAX_DEPTH, each built from the one before."""
    word, approx = net.nearest(u)
    yield word, approx
    for depth in range(MAX_DEPTH):
        # _axis_angle normalizes once more; the pinned words depend on both.
        axis, theta = _axis_angle(_to_su2(u @ approx.conj().T))
        if theta >= 1e-14:
            va, wa = (
                next(islice(_deepen(_to_su2(f), net), depth, None))[0]
                for f in group_commutator_factors(axis, theta)
            )
            # Op order is application order, so the matrix product
            # V W V^dag W^dag reads right-to-left from the concatenated ops.
            longer = simplify_ops(word + _inverse(wa) + _inverse(va) + wa + va)
            closer = ops_unitary(longer)
            # The recursion can stall on a bad commutator fit; never get worse.
            if trace_distance(closer, u) <= trace_distance(approx, u):
                word, approx = longer, closer
        yield word, approx


def sk_decompose(
    u: np.ndarray, depth: int, net: EpsilonNet
) -> tuple[tuple[str, ...], np.ndarray]:
    """The (word, unitary) approximation of ``u`` at ``depth``; its distance
    to ``u`` never grows with depth."""
    u = _check_unitary(u)
    if depth < 0 or depth > MAX_DEPTH:
        raise DecompositionError(f"depth must be 0..{MAX_DEPTH}")
    return next(islice(_deepen(_to_su2(u), net), depth, None))


def decompose_circuit(
    circuit: list[Gate],
    eps_target: float = DEFAULT_EPS_TARGET,
) -> tuple[list[Gate], int]:
    """Replace every rotation by its shallowest {H, T, Tdagger} word within
    ``eps_target``.

    Returns the rewritten circuit and its T + Tdagger tally. The tally counts
    T gates before ``fold_t_runs``, so it can exceed the gadgets the folded
    circuit needs (155 against 111 on the reference feature vector at 0.1).
    """
    net = default_net()
    out: list[Gate] = []
    total_t = 0
    for g in circuit:
        if g.kind not in ROTATION_1Q:
            out.append(g)
            total_t += 1 if g.kind in ("T", "Tdagger") else 0
            continue
        if not np.isfinite(g.angle):
            raise DecompositionError(f"{g.kind} angle must be finite, got {g.angle}")
        u = ROTATION_1Q[g.kind](g.angle)
        for word, approx in _deepen(_to_su2(u), net):
            if trace_distance(approx, u) <= eps_target:
                break
        else:
            raise DecompositionError(
                f"could not reach eps={eps_target} for {g.kind}({g.angle}) "
                f"within depth {MAX_DEPTH}"
            )
        (wire,) = g.wires
        out.extend(gate(op, wire) for op in word)
        total_t += word.count("T") + word.count("Tdagger")
    return out, total_t
