"""Dense state-vector simulation of small quantum registers.

Qubit ordering is little-endian: qubit 0 is the least significant bit of the
amplitude index. All state comparisons elsewhere in the library go through
``fidelity`` (global phase is never meaningful).

Gates run by index arithmetic on the flat amplitude array, in two kernels:

- Paulis, CNOT and CZ are a permutation and a sign: one gather on the index
  XOR a bit mask, and ``0 - a`` where the parity of masked index bits is odd
  (``apply_pauli``; a whole Pauli pad or string is one call). Nothing is
  rounded, so the values equal the matrix product's exactly; a zero stays
  +0.0 where the product may leave -0.0.
- Every other gate acts on one wire: a matrix product through an (A, 2, B)
  view of that wire and one ``np.dot``, the same product ``tensordot`` would
  make, so the same bytes.

Measurement reads and collapses a wire through the same (A, 2, B) view. No
index table is built at import or kept between calls.
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

    def check_wires(self, wires: Iterable[int]) -> None:
        for w in wires:
            if not 0 <= w < self.num_qubits:
                raise SimulatorError(f"wire {w} out of range for {self.num_qubits} qubits")


def _axis(state: StateVector, wire: int) -> int:
    # Little-endian: qubit q lives on tensor axis n-1-q after reshape.
    return state.num_qubits - 1 - wire


def _split(amps: np.ndarray, n: int, wire: int) -> np.ndarray:
    """View of ``amps`` as (2^(n-1-wire), 2, 2^wire): axis 1 is ``wire``'s bit."""
    return amps.reshape(1 << (n - 1 - wire), 2, 1 << wire)


def _signed_gather(amps: np.ndarray, src: np.ndarray, odd: np.ndarray | None) -> np.ndarray:
    """``amps[src]``, negated where ``odd`` is set.

    Negation is ``0 - a``, which leaves a zero as +0.0 where ``-a`` would make
    it -0.0, so padded registers encode without minus-zero bytes.
    """
    out = amps[src]
    if odd is not None:
        np.subtract(0, out, out=out, where=odd.astype(bool))
    return out


def apply_pauli(state: StateVector, xmask: int, zmask: int, phase: int = 0) -> StateVector:
    """i^phase X^x Z^z on the wires set in the masks, Z first so X is outermost.

    One gather on ``idx ^ xmask`` and one sign from the parity of the source
    index under ``zmask``: (X^x Z^z psi)[i] = (-1)^|(i ^ x) & z| psi[i ^ x].
    """
    n = state.num_qubits
    if not 0 <= xmask < 1 << n or not 0 <= zmask < 1 << n:
        raise SimulatorError(f"Pauli masks out of range for {n} qubits")
    src = np.arange(1 << n)
    src ^= xmask
    odd = None
    if zmask or phase & 2:
        odd = (np.bitwise_count(src & zmask) + (phase >> 1)) & 1
    out = _signed_gather(state.amplitudes, src, odd)
    if phase & 1:
        # i (x + iy) = (0 - y) + ix, swapped in place on the float pairs.
        pairs = out.view(float).reshape(-1, 2)
        pairs[:] = pairs[:, ::-1]
        np.subtract(0, pairs[:, 0], out=pairs[:, 0])
    return StateVector(n, out)


def apply_matrix(state: StateVector, matrix: np.ndarray, wires: Sequence[int]) -> StateVector:
    """Apply a 2 x 2 matrix to one wire.

    The wire's axis of the (A, 2, B) view goes first and one ``np.dot``
    contracts it: the same product, over the same column order, as
    ``tensordot`` on the full [2] * n tensor. Two-wire gates (CNOT, CZ) are
    permutations and signs in ``apply_gate``.
    """
    state.check_wires(wires)
    if len(wires) != 1:
        raise SimulatorError(f"apply_matrix takes one wire, got {wires}")
    view = _split(state.amplitudes, state.num_qubits, wires[0])
    out = np.dot(matrix, view.transpose(1, 0, 2).reshape(2, -1))
    out = out.reshape(2, view.shape[0], view.shape[2]).transpose(1, 0, 2)
    return StateVector(state.num_qubits, out.reshape(-1))


# Pauli gates as (x bit, z bit, phase): Y = iXZ.
_PAULI_GATES = {"X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


def apply_gate(state: StateVector, g: Gate) -> StateVector:
    """X, Y, Z, CNOT and CZ by permutation and sign; other gates by matrix."""
    if g.kind in _PAULI_GATES:
        state.check_wires(g.wires)
        x, z, phase = _PAULI_GATES[g.kind]
        bit = 1 << g.wires[0]
        return apply_pauli(state, x * bit, z * bit, phase)
    if g.kind in TWO_QUBIT_KINDS:
        state.check_wires(g.wires)
        c, t = g.wires
        idx = np.arange(1 << state.num_qubits)
        control = (idx >> c) & 1
        if g.kind == "CNOT":
            out = _signed_gather(state.amplitudes, idx ^ (control << t), None)
        else:
            out = _signed_gather(state.amplitudes, idx, control & (idx >> t))
        return StateVector(state.num_qubits, out)
    return apply_matrix(state, g.matrix(), g.wires)


def apply_circuit(state: StateVector, gates: Iterable[Gate]) -> StateVector:
    for g in gates:
        state = apply_gate(state, g)
    return state


def _prob_one(state: StateVector, wire: int) -> float:
    view = _split(state.amplitudes, state.num_qubits, wire)
    return float(np.sum(np.abs(view) ** 2, axis=(0, 2))[1])


def _collapse(state: StateVector, wire: int, outcome: int) -> StateVector:
    n = state.num_qubits
    flat = state.amplitudes.copy()
    _split(flat, n, wire)[:, 1 - outcome, :] = 0.0
    nrm = np.linalg.norm(flat)
    if nrm < 1e-12:
        raise SimulatorError("collapse onto zero-probability branch")
    return StateVector(n, flat / nrm)


def measure(
    state: StateVector, wire: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective Z-basis measurement of ``wire``."""
    state.check_wires([wire])
    outcome = 1 if rng.random() < _prob_one(state, wire) else 0
    return outcome, _collapse(state, wire, outcome)


def remove_wire(state: StateVector, wire: int, outcome: int) -> StateVector:
    """Drop a wire already collapsed to a computational basis value."""
    n = state.num_qubits
    if n < 2:
        raise SimulatorError("cannot remove the last wire")
    sub = _split(state.amplitudes, n, wire)[:, outcome, :].reshape(-1)
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
    u, work = measure(work, wire_a, rng)
    v, work = measure(work, wire_b, rng)
    hi, lo = max(wire_a, wire_b), min(wire_a, wire_b)
    work = remove_wire(work, hi, u if hi == wire_a else v)
    work = remove_wire(work, lo, u if lo == wire_a else v)
    return (u, v), work


def expectation(state: StateVector, obs: PauliString) -> float:
    """<psi|P|psi> as one vdot against the Pauli-permuted register."""
    state.check_wires(obs.wires)
    xmask = zmask = phase = 0
    for f, w in zip(obs.factors, obs.wires):
        if f != "I":
            x, z, p = _PAULI_GATES[f]
            xmask, zmask, phase = xmask | x << w, zmask | z << w, phase + p
    transformed = apply_pauli(state, xmask, zmask, phase % 4)
    return float(np.real(np.vdot(state.amplitudes, transformed.amplitudes)))


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


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """A Gaussian-drawn unit register of ``n`` qubits: the real parts are drawn first."""
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


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
