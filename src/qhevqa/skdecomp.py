"""Solovay-Kitaev synthesis of single-qubit unitaries over {H, T, Tdagger}.

A breadth-first epsilon-net of short products seeds the standard recursion:
each level approximates the residual between the target and the previous
level's result by a balanced group commutator, whose two factors are in turn
approximated one level down. Distances use the phase-invariant metric
d(U, V) = sqrt(1 - |tr(U^dag V)| / 2), which is zero exactly when the two
matrices agree up to global phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simulator import FIXED_1Q, Gate, ROTATION_1Q, gate

ALPHABET = ("H", "T", "Tdagger")
_INVERSE = {"H": "H", "T": "Tdagger", "Tdagger": "T"}
MAX_BASE_LENGTH = 16
DEFAULT_BASE_LENGTH = 12
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
    """Cancel H pairs and reduce T-power runs modulo 8 (T^7 -> Tdagger)."""
    out: list[str] = []
    i = 0
    ops_list = list(ops)
    while i < len(ops_list):
        op = ops_list[i]
        if op == "H":
            if out and out[-1] == "H":
                out.pop()
            else:
                out.append("H")
            i += 1
            continue
        power = 0
        while i < len(ops_list) and ops_list[i] in ("T", "Tdagger"):
            power += 1 if ops_list[i] == "T" else 7
            i += 1
        power %= 8
        reduced = ["T"] * power if power <= 4 else ["Tdagger"] * (8 - power)
        out.extend(reduced)
        # A vanished run can expose an H-H pair across where it stood.
        if power == 0 and len(out) >= 2 and out[-1] == "H" and out[-2] == "H":
            out.pop()
            out.pop()
    collapsed = tuple(out)
    return collapsed if collapsed == ops else simplify_ops(collapsed)


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
class GateSequence:
    """Ordered ops over {H, T, Tdagger} with their cached product."""

    ops: tuple[str, ...]
    unitary: np.ndarray

    @classmethod
    def from_ops(cls, ops: tuple[str, ...]) -> "GateSequence":
        return cls(ops, ops_unitary(ops))

    @property
    def t_count(self) -> int:
        return self.ops.count("T")

    @property
    def tdg_count(self) -> int:
        return self.ops.count("Tdagger")

    @property
    def h_count(self) -> int:
        return self.ops.count("H")


@dataclass(frozen=True)
class EpsilonNet:
    """All distinct products up to ``build_net``'s length, shortest-sequence wins."""

    sequences: tuple[GateSequence, ...]
    _stack: np.ndarray  # (N, 2, 2) cached unitaries for vectorized search

    def nearest(self, u: np.ndarray) -> GateSequence:
        # |tr(S^dag U)| for every net entry in one vectorized pass.
        overlap = np.abs(np.einsum("nij,ij->n", self._stack.conj(), u)) / 2.0
        return self.sequences[int(np.argmax(overlap))]


def _canonical_key(u: np.ndarray) -> bytes:
    flat = u.reshape(-1)
    mags = np.abs(flat)
    idx = int(np.argmax(mags > mags.max() - 1e-6))
    normalized = flat * (np.conj(flat[idx]) / mags[idx])
    return np.round(normalized, 9).tobytes()


def build_net(max_length: int = DEFAULT_BASE_LENGTH) -> EpsilonNet:
    if not 1 <= max_length <= MAX_BASE_LENGTH:
        raise DecompositionError(f"base length must be 1..{MAX_BASE_LENGTH}")
    seen: dict[bytes, tuple[str, ...]] = {_canonical_key(np.eye(2, dtype=complex)): ()}
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), np.eye(2, dtype=complex))]
    all_entries: list[tuple[tuple[str, ...], np.ndarray]] = list(frontier)
    for _ in range(max_length):
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
    seqs = tuple(GateSequence(ops, u) for ops, u in all_entries)
    return EpsilonNet(seqs, np.stack([s.unitary for s in seqs]))


@lru_cache(maxsize=1)
def default_net() -> EpsilonNet:
    return build_net(DEFAULT_BASE_LENGTH)


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


def group_commutator_factors(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V, W with V W V^dag W^dag = delta (up to phase), balanced in size."""
    _, theta = _axis_angle(delta)
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
    n_want, _ = _axis_angle(delta)
    s = _axis_mapper(n_have, n_want)
    return s @ v @ s.conj().T, s @ w @ s.conj().T


def sk_decompose(u: np.ndarray, depth: int, net: EpsilonNet) -> GateSequence:
    """Recursive approximation; distance shrinks as depth grows."""
    u = _check_unitary(u)
    if depth < 0 or depth > MAX_DEPTH:
        raise DecompositionError(f"depth must be 0..{MAX_DEPTH}")
    return _sk(_to_su2(u), depth, net)


def _inverse(ops: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(_INVERSE[op] for op in reversed(ops))


def _sk(u: np.ndarray, depth: int, net: EpsilonNet) -> GateSequence:
    if depth == 0:
        return net.nearest(u)
    prev = _sk(u, depth - 1, net)
    delta = _to_su2(u @ prev.unitary.conj().T)
    _, theta = _axis_angle(delta)
    if theta < 1e-14:
        return prev
    v, w = group_commutator_factors(delta)
    va = _sk(_to_su2(v), depth - 1, net)
    wa = _sk(_to_su2(w), depth - 1, net)
    # Op order is application order, so the matrix product V W V^dag W^dag
    # reads right-to-left from the concatenated ops.
    ops = prev.ops + _inverse(wa.ops) + _inverse(va.ops) + wa.ops + va.ops
    candidate = GateSequence.from_ops(simplify_ops(ops))
    # The recursion can stall on a bad commutator fit; never get worse.
    if trace_distance(candidate.unitary, u) <= trace_distance(prev.unitary, u):
        return candidate
    return prev


def decompose_circuit(
    circuit: list[Gate],
    eps_target: float = DEFAULT_EPS_TARGET,
) -> tuple[list[Gate], int]:
    """Replace every rotation by a certified {H, T, Tdagger} sequence.

    Returns the rewritten circuit and the total T + Tdagger tally (the gadget
    budget the rewritten circuit needs).
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
        seq = None
        for depth in range(MAX_DEPTH + 1):
            seq = sk_decompose(u, depth, net)
            if trace_distance(seq.unitary, u) <= eps_target:
                break
        assert seq is not None
        if trace_distance(seq.unitary, u) > eps_target:
            raise DecompositionError(
                f"could not reach eps={eps_target} for {g.kind}({g.angle}) "
                f"within depth {MAX_DEPTH}"
            )
        (wire,) = g.wires
        out.extend(gate(op, wire) for op in seq.ops)
        total_t += seq.t_count + seq.tdg_count
    return out, total_t
