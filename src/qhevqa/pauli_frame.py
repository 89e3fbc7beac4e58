"""Quantum one-time-pad key tracking under Clifford conjugation.

A wire's pad is applied as X^a Z^b (X outermost). Keys are tracked modulo
global phase; decryption and measurement statistics never see the phase.

The update rules for every supported gate are machine-derived at import time
from the matrix conjugation identity (``verify_conjugation`` is the oracle),
so hand-transcription errors are structurally impossible. A test hook
(``_RULE_OVERRIDES``) lets the verification suite inject a wrong rule and
watch the exhaustive property fail.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .simulator import FIXED_1Q, Gate, StateVector, apply_gate, gate

CLIFFORD_1Q = ("X", "Y", "Z", "H", "P", "Pdagger")
CLIFFORD_2Q = ("CNOT", "CZ")
CLIFFORD_KINDS = CLIFFORD_1Q + CLIFFORD_2Q

_X = FIXED_1Q["X"]
_Z = FIXED_1Q["Z"]
_P = FIXED_1Q["P"]


class FrameError(Exception):
    pass


@dataclass(frozen=True)
class PauliKey:
    a: int
    b: int

    def __post_init__(self):
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise FrameError(f"key bits must be 0/1, got {self}")


@dataclass
class KeyFrame:
    keys: list[PauliKey]

    @classmethod
    def zeros(cls, n: int) -> "KeyFrame":
        return cls([PauliKey(0, 0) for _ in range(n)])

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "KeyFrame":
        return cls([PauliKey(int(rng.integers(2)), int(rng.integers(2))) for _ in range(n)])

    def copy(self) -> "KeyFrame":
        return KeyFrame(list(self.keys))

    def __len__(self) -> int:
        return len(self.keys)


def apply_pad(state: StateVector, frame: KeyFrame) -> StateVector:
    """Pad every wire with X^a Z^b: Z^b first, so X ends outermost."""
    for w, key in enumerate(frame.keys):
        if key.b:
            state = apply_gate(state, gate("Z", w))
        if key.a:
            state = apply_gate(state, gate("X", w))
    return state


def remove_pad(state: StateVector, frame: KeyFrame) -> StateVector:
    """Undo ``apply_pad``: (X^a Z^b)^-1 = Z^b X^a, so X comes off first."""
    for w, key in enumerate(frame.keys):
        if key.a:
            state = apply_gate(state, gate("X", w))
        if key.b:
            state = apply_gate(state, gate("Z", w))
    return state


def _pad_matrix(a: int, b: int) -> np.ndarray:
    return np.linalg.matrix_power(_X, a) @ np.linalg.matrix_power(_Z, b)


def _pad_matrix_2(bits: tuple[int, int, int, int]) -> np.ndarray:
    a1, b1, a2, b2 = bits
    # First wire is the most significant matrix bit, matching simulator gates.
    return np.kron(_pad_matrix(a1, b1), _pad_matrix(a2, b2))


def _proportional(m1: np.ndarray, m2: np.ndarray, tol: float = 1e-12) -> bool:
    i, j = np.unravel_index(np.argmax(np.abs(m2)), m2.shape)
    if abs(m2[i, j]) < tol:
        return bool(np.max(np.abs(m1)) < tol)
    phase = m1[i, j] / m2[i, j]
    return bool(abs(abs(phase) - 1) < 1e-9 and np.max(np.abs(m1 - phase * m2)) < 1e-9)


def verify_conjugation(gate: Gate, keys: tuple[int, ...]) -> tuple[bool, tuple[int, ...], int]:
    """Check U * pad = phase * P^p_pad * pad' * U and return (ok, pad', p).

    ``keys`` is (a, b) for one-wire gates or (a1, b1, a2, b2) for two-wire
    gates. The byproduct exponent p is nonzero only for T/Tdagger; it sits on
    the gate's single wire, outside the new pad.
    """
    U = gate.matrix()
    if len(gate.wires) == 1:
        pad = _pad_matrix(*keys)
        lhs = U @ pad
        for a2, b2, p in product((0, 1), (0, 1), (0, 1)):
            byp = np.linalg.matrix_power(_P, p)
            rhs = byp @ _pad_matrix(a2, b2) @ U
            if _proportional(lhs, rhs):
                return True, (a2, b2), p
        return False, keys, 0
    pad = _pad_matrix_2(keys)  # type: ignore[arg-type]
    lhs = U @ pad
    for new in product((0, 1), repeat=4):
        rhs = _pad_matrix_2(new) @ U  # type: ignore[arg-type]
        if _proportional(lhs, rhs):
            return True, new, 0
    return False, keys, 0


def _derive_rules() -> dict[str, dict[tuple[int, ...], tuple[int, ...]]]:
    rules: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
    for kind in CLIFFORD_1Q:
        table = {}
        for bits in product((0, 1), repeat=2):
            ok, new, p = verify_conjugation(Gate(kind, (0,)), bits)
            if not ok or p != 0:
                raise FrameError(f"no Clifford conjugation rule for {kind} {bits}")
            table[bits] = new
        rules[kind] = table
    for kind in CLIFFORD_2Q:
        table = {}
        for bits in product((0, 1), repeat=4):
            ok, new, p = verify_conjugation(Gate(kind, (0, 1)), bits)
            if not ok or p != 0:
                raise FrameError(f"no Clifford conjugation rule for {kind} {bits}")
            table[bits] = new
        rules[kind] = table
    return rules


_RULES = _derive_rules()
_RULE_OVERRIDES: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}


def rule_table(kind: str) -> dict[tuple[int, ...], tuple[int, ...]]:
    if kind not in _RULES:
        raise FrameError(f"{kind} is not a tracked Clifford gate")
    return _RULE_OVERRIDES.get(kind, _RULES[kind])


def apply_rule(kind: str, bits, xor):
    """Evaluate a derived rule over any XOR-capable values.

    ``bits`` supplies the current key values (2 or 4 of them); the rule is
    expressed as GF(2)-affine combinations so the same table drives plain
    bits, ciphertext handles, and symbolic leaf sets. ``xor`` combines two
    values; constants in the rule reduce to selections of the inputs because
    every Clifford pad rule is a permutation-free linear map.
    """
    table = rule_table(kind)
    width = 2 if kind in CLIFFORD_1Q else 4
    # Express each output bit as XOR of input bits by probing unit vectors.
    outputs = []
    zero_out = table[tuple([0] * width)]
    for out_idx in range(width):
        terms = []
        for in_idx in range(width):
            probe = tuple(1 if i == in_idx else 0 for i in range(width))
            if table[probe][out_idx] != zero_out[out_idx]:
                terms.append(in_idx)
        outputs.append((terms, zero_out[out_idx]))
    # Sanity: linearity must reproduce the full table.
    for bits_in, bits_out in table.items():
        for out_idx, (terms, const) in enumerate(outputs):
            val = const
            for t in terms:
                val ^= bits_in[t]
            if val != bits_out[out_idx]:
                raise FrameError(f"rule for {kind} is not GF(2)-affine")
    result = []
    for terms, const in outputs:
        if const:
            raise FrameError(f"rule for {kind} has a constant term")  # never for Cliffords
        if not terms:
            result.append(None)  # identically zero (cannot happen for invertible rules)
        else:
            acc = bits[terms[0]]
            for t in terms[1:]:
                acc = xor(acc, bits[t])
            result.append(acc)
    return tuple(result)


def update_clifford(frame: KeyFrame, gate: Gate) -> KeyFrame:
    if gate.kind not in CLIFFORD_KINDS:
        raise FrameError(f"{gate.kind} is not Clifford")
    out = frame.copy()
    if len(gate.wires) == 1:
        (w,) = gate.wires
        k = frame.keys[w]
        a, b = apply_rule(gate.kind, (k.a, k.b), lambda x, y: x ^ y)
        out.keys[w] = PauliKey(a, b)
    else:
        w1, w2 = gate.wires
        k1, k2 = frame.keys[w1], frame.keys[w2]
        a1, b1, a2, b2 = apply_rule(
            gate.kind, (k1.a, k1.b, k2.a, k2.b), lambda x, y: x ^ y
        )
        out.keys[w1] = PauliKey(a1, b1)
        out.keys[w2] = PauliKey(a2, b2)
    return out


def t_byproduct(frame: KeyFrame, wire: int) -> int:
    """P-gate exponent created by commuting T past the pad; T leaves keys unchanged."""
    if not 0 <= wire < len(frame):
        raise FrameError(f"wire {wire} out of range")
    return frame.keys[wire].a
