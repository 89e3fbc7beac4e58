"""Dense state-vector simulation of small quantum registers.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
amplitude index. All state comparisons elsewhere in the library go through
``fidelity`` (global phase is never meaningful).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sin, sqrt
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 24

_SQRT2_INV = 1.0 / sqrt(2.0)
_T_PHASE = np.exp(1j * pi / 4)

FIXED_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "P": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Pdagger": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, _T_PHASE]], dtype=complex),
    "Tdagger": np.array([[1, 0], [0, np.conj(_T_PHASE)]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}

ROTATION_1Q = {
    "RX": lambda t: np.array(
        [[cos(t / 2), -1j * sin(t / 2)], [-1j * sin(t / 2), cos(t / 2)]], dtype=complex
    ),
    "RY": lambda t: np.array(
        [[cos(t / 2), -sin(t / 2)], [sin(t / 2), cos(t / 2)]], dtype=complex
    ),
    "RZ": lambda t: np.array(
        [[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex
    ),
}

# Two-qubit matrices in little-endian (wire order as listed: control, target).
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)

TWO_QUBIT_KINDS = ("CNOT", "CZ")
GATE_KINDS = tuple(k for k in FIXED_1Q if k != "I") + tuple(ROTATION_1Q) + TWO_QUBIT_KINDS

PLUS_THETA_ANGLES = (0.0, pi / 2, pi, 3 * pi / 2)


class SimulatorError(Exception):
    pass


@dataclass(frozen=True)
class Gate:
    kind: str
    wires: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise SimulatorError(f"unknown gate kind {self.kind!r}")
        nw = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.wires) != nw:
            raise SimulatorError(f"{self.kind} takes {nw} wire(s), got {self.wires}")
        if nw == 2 and self.wires[0] == self.wires[1]:
            raise SimulatorError(f"duplicate wires on {self.kind}: {self.wires}")
        if self.kind in ROTATION_1Q and self.angle is None:
            raise SimulatorError(f"{self.kind} requires an angle")

    def matrix(self) -> np.ndarray:
        if self.kind in FIXED_1Q:
            return FIXED_1Q[self.kind]
        if self.kind in ROTATION_1Q:
            return ROTATION_1Q[self.kind](self.angle)
        return CNOT_MATRIX if self.kind == "CNOT" else CZ_MATRIX


def gate(kind: str, *wires: int, angle: float | None = None) -> Gate:
    return Gate(kind, tuple(wires), angle)


@dataclass(frozen=True)
class PauliString:
    factors: tuple[str, ...]
    wires: tuple[int, ...]

    def __post_init__(self):
        if len(self.factors) != len(self.wires):
            raise SimulatorError("factor count must equal wire count")
        if len(set(self.wires)) != len(self.wires):
            raise SimulatorError("PauliString wires must be distinct")
        for f in self.factors:
            if f not in ("I", "X", "Y", "Z"):
                raise SimulatorError(f"bad Pauli factor {f!r}")


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise SimulatorError(f"num_qubits must be in 1..{MAX_QUBITS}")
        if self.amplitudes is None:
            amps = np.zeros(2**self.num_qubits, dtype=complex)
            amps[0] = 1.0
            self.amplitudes = amps
        else:
            self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
            if self.amplitudes.shape != (2**self.num_qubits,):
                raise SimulatorError("amplitude length must be 2**num_qubits")

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))

    def check_wires(self, wires: Iterable[int]) -> None:
        for w in wires:
            if not 0 <= w < self.num_qubits:
                raise SimulatorError(f"wire {w} out of range for {self.num_qubits} qubits")


def _axis(state: StateVector, wire: int) -> int:
    # Little-endian: qubit q lives on tensor axis n-1-q after reshape.
    return state.num_qubits - 1 - wire


def apply_matrix(state: StateVector, matrix: np.ndarray, wires: Sequence[int]) -> StateVector:
    """Apply a 2^k x 2^k matrix to the listed wires (k = 1 or 2).

    Matrix basis convention: the first listed wire is the most significant bit
    of the matrix row/column index (CNOT with wires (c, t) maps |c t> packed as
    index 2c + t).
    """
    state.check_wires(wires)
    if len(set(wires)) != len(wires):
        raise SimulatorError(f"duplicate wires: {wires}")
    n = state.num_qubits
    k = len(wires)
    psi = state.amplitudes.reshape([2] * n)
    mat = matrix.reshape([2] * (2 * k))
    waxes = [_axis(state, w) for w in wires]
    psi = np.tensordot(mat, psi, axes=(list(range(k, 2 * k)), waxes))
    # tensordot leaves the fresh output axes first (one per listed wire, in
    # list order) followed by the untouched axes in increasing original order.
    other = [a for a in range(n) if a not in waxes]
    current = {a: i for i, a in enumerate(waxes)}
    current.update({a: k + j for j, a in enumerate(other)})
    psi = np.transpose(psi, axes=[current[a] for a in range(n)])
    return StateVector(n, psi.reshape(-1))


def apply_gate(state: StateVector, g: Gate) -> StateVector:
    return apply_matrix(state, g.matrix(), g.wires)


def apply_circuit(state: StateVector, gates: Iterable[Gate]) -> StateVector:
    for g in gates:
        state = apply_gate(state, g)
    return state


def _prob_one(state: StateVector, wire: int) -> float:
    n = state.num_qubits
    psi = state.amplitudes.reshape([2] * n)
    ax = _axis(state, wire)
    probs = np.sum(np.abs(psi) ** 2, axis=tuple(a for a in range(n) if a != ax))
    return float(probs[1])


def _collapse(state: StateVector, wire: int, outcome: int) -> StateVector:
    n = state.num_qubits
    psi = state.amplitudes.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[_axis(state, wire)] = 1 - outcome
    psi[tuple(idx)] = 0.0
    flat = psi.reshape(-1)
    nrm = np.linalg.norm(flat)
    if nrm < 1e-12:
        raise SimulatorError("collapse onto zero-probability branch")
    return StateVector(n, flat / nrm)


def measure(
    state: StateVector, wire: int, basis: str, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement; X basis realized as an H-conjugated Z measurement."""
    state.check_wires([wire])
    if basis not in ("Z", "X"):
        raise SimulatorError(f"basis must be 'Z' or 'X', got {basis!r}")
    work = state
    if basis == "X":
        work = apply_gate(work, Gate("H", (wire,)))
    p1 = _prob_one(work, wire)
    outcome = 1 if rng.random() < p1 else 0
    work = _collapse(work, wire, outcome)
    if basis == "X":
        work = apply_gate(work, Gate("H", (wire,)))
    return outcome, work


def remove_wire(state: StateVector, wire: int, outcome: int) -> StateVector:
    """Drop a wire already collapsed to a computational basis value."""
    n = state.num_qubits
    if n < 2:
        raise SimulatorError("cannot remove the last wire")
    psi = state.amplitudes.reshape([2] * n)
    idx = [slice(None)] * n
    idx[_axis(state, wire)] = outcome
    sub = psi[tuple(idx)].reshape(-1)
    nrm = np.linalg.norm(sub)
    if nrm < 1e-12:
        raise SimulatorError("removed wire had zero amplitude on its outcome")
    return StateVector(n - 1, sub / nrm)


def bell_measure(
    state: StateVector, wire_a: int, wire_b: int, rng: np.random.Generator
) -> tuple[tuple[int, int], StateVector]:
    """Bell measurement on (wire_a, wire_b), removing both wires.

    Outcome (u, v): u is the phase bit, v the flip bit, so |Phi+> -> (0,0),
    |Phi-> -> (1,0), |Psi+> -> (0,1), |Psi-> -> (1,1). Remaining wires keep
    their relative order and are relabeled downward.
    """
    state.check_wires([wire_a, wire_b])
    if wire_a == wire_b:
        raise SimulatorError("bell_measure needs two distinct wires")
    work = apply_gate(state, Gate("CNOT", (wire_a, wire_b)))
    work = apply_gate(work, Gate("H", (wire_a,)))
    u, work = measure(work, wire_a, "Z", rng)
    v, work = measure(work, wire_b, "Z", rng)
    hi, lo = max(wire_a, wire_b), min(wire_a, wire_b)
    work = remove_wire(work, hi, u if hi == wire_a else v)
    work = remove_wire(work, lo, u if lo == wire_a else v)
    return (u, v), work


def expectation(state: StateVector, obs: PauliString) -> float:
    state.check_wires(obs.wires)
    transformed = state
    for f, w in zip(obs.factors, obs.wires):
        if f != "I":
            transformed = apply_matrix(transformed, FIXED_1Q[f], [w])
    val = np.vdot(state.amplitudes, transformed.amplitudes)
    return float(np.real(val))


def prepare_plus_theta(theta: float) -> StateVector:
    """|+_theta> = (|0> + e^{i theta}|1>)/sqrt(2), theta restricted to multiples of pi/2."""
    if not any(abs(theta - t) < 1e-12 for t in PLUS_THETA_ANGLES):
        raise SimulatorError(f"theta {theta} not in {{0, pi/2, pi, 3pi/2}}")
    amps = np.array([1.0, np.exp(1j * theta)], dtype=complex) * _SQRT2_INV
    return StateVector(1, amps)


def amplitude_encode(vector: Sequence[float], target_qubits: int) -> StateVector:
    vec = np.asarray(vector, dtype=float)
    dim = 2**target_qubits
    if vec.size > dim:
        raise SimulatorError(f"vector of length {vec.size} exceeds register of {dim}")
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise SimulatorError("cannot amplitude-encode the zero vector")
    amps = np.zeros(dim, dtype=complex)
    amps[: vec.size] = vec / nrm
    return StateVector(target_qubits, amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    if a.num_qubits != b.num_qubits:
        raise SimulatorError("fidelity requires equal register widths")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Combined register with a's wires first (b's wires shifted up by a.num_qubits)."""
    # Little-endian: appended wires are more significant -> kron(b, a).
    return StateVector(a.num_qubits + b.num_qubits, np.kron(b.amplitudes, a.amplitudes))


def permute_wires(state: StateVector, perm: Sequence[int]) -> StateVector:
    """Relabel wires: new wire i holds what old wire perm[i] held."""
    n = state.num_qubits
    if sorted(perm) != list(range(n)):
        raise SimulatorError("perm must be a permutation of all wires")
    psi = state.amplitudes.reshape([2] * n)
    axes = [_axis(state, perm[i]) for i in reversed(range(n))]
    return StateVector(n, np.transpose(psi, axes).reshape(-1))


def reduced_density_matrix(state: StateVector, wires: Sequence[int]) -> np.ndarray:
    """Partial trace over all wires not listed; row/col index packs wires[0] as LSB."""
    state.check_wires(wires)
    n = state.num_qubits
    keep = list(wires)
    psi = state.amplitudes.reshape([2] * n)
    # Move kept axes (reversed wire order packs wires[0] least significant) first.
    keep_axes = [_axis(state, w) for w in reversed(keep)]
    other = [a for a in range(n) if a not in keep_axes]
    psi = np.transpose(psi, keep_axes + other)
    k = len(keep)
    psi = psi.reshape(2**k, -1)
    return psi @ psi.conj().T


def trace_distance_dm(rho: np.ndarray, sigma: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(evals)))
