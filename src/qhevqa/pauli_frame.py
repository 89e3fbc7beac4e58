"""Quantum one-time-pad key tracking under Clifford conjugation.

A pad is a list of per-wire (a, b) key pairs, and wire w is padded with
X^a Z^b (X outermost). Plain bits, key ciphertexts and key generation's
keystream parities all take that one shape. Keys are tracked modulo global
phase; decryption and measurement statistics never see the phase.

The update rule of every supported gate is machine-derived at import time
from the matrix conjugation identity (``verify_conjugation`` is the oracle),
so hand-transcription errors are structurally impossible. Each rule is kept
only as its GF(2) linear form, found by probing the unit pads and checked
against the oracle on every pad, and ``apply_rule`` evaluates that form for
plain bits, ciphertexts and key generation's keystream parities alike.
"""
from __future__ import annotations

import operator
from itertools import product

import numpy as np

from .simulator import FIXED_1Q, Gate, StateVector, apply_pauli

CLIFFORD_1Q = ("X", "Y", "Z", "H", "P", "Pdagger")
CLIFFORD_2Q = ("CNOT", "CZ")
CLIFFORD_KINDS = CLIFFORD_1Q + CLIFFORD_2Q

_X = FIXED_1Q["X"]
_Z = FIXED_1Q["Z"]
_P = FIXED_1Q["P"]
_ZERO = 1e-12  # a matrix entry below this is zero in ``_proportional``


class FrameError(Exception):
    pass


def random_pad(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A fresh pad on ``n`` wires: wire w gets (a, b) = draws 2w and 2w + 1 of
    one call, the same bits, and the same generator state after, as 2n scalar
    ``integers(2)``."""
    bits = rng.integers(2, size=2 * n).tolist()
    return list(zip(bits[::2], bits[1::2]))


def _masks(pad) -> tuple[int, int]:
    """The pad's X and Z key bits as integers, wire w at bit w."""
    xmask = zmask = 0
    for w, (a, b) in enumerate(pad):
        xmask, zmask = xmask | a << w, zmask | b << w
    return xmask, zmask


def apply_pad(state: StateVector, pad) -> StateVector:
    """Pad every wire with X^a Z^b: Z^b first, so X ends outermost."""
    return apply_pauli(state, *_masks(pad))


def remove_pad(state: StateVector, pad) -> StateVector:
    """Undo ``apply_pad``: (X^a Z^b)^-1 = Z^b X^a = (-1)^(a.b) X^a Z^b."""
    xmask, zmask = _masks(pad)
    return apply_pauli(state, xmask, zmask, 2 * (xmask & zmask).bit_count())


def _pad_matrix(a: int, b: int) -> np.ndarray:
    return np.linalg.matrix_power(_X, a) @ np.linalg.matrix_power(_Z, b)


def _pad_matrix_2(bits: tuple[int, int, int, int]) -> np.ndarray:
    a1, b1, a2, b2 = bits
    # First wire is the most significant matrix bit, matching simulator gates.
    return np.kron(_pad_matrix(a1, b1), _pad_matrix(a2, b2))


def _proportional(m1: np.ndarray, m2: np.ndarray) -> bool:
    i, j = np.unravel_index(np.argmax(np.abs(m2)), m2.shape)
    if abs(m2[i, j]) < _ZERO:
        return bool(np.max(np.abs(m1)) < _ZERO)
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


def _derive_form(kind: str) -> tuple[tuple[int, ...], ...]:
    """Per output bit, the input bits it is the XOR of.

    Found by probing the unit pads with the oracle, then checked against the
    oracle on every pad: each Clifford pad rule is an invertible GF(2)-linear
    map with no constant term.
    """
    wires = (0, 1) if kind in CLIFFORD_2Q else (0,)
    width = 2 * len(wires)
    table = {}
    for bits in product((0, 1), repeat=width):
        ok, table[bits], p = verify_conjugation(Gate(kind, wires), bits)
        if not ok or p != 0:
            raise FrameError(f"no Clifford conjugation rule for {kind} {bits}")
    units = [tuple(int(i == j) for i in range(width)) for j in range(width)]
    form = tuple(
        tuple(j for j in range(width) if table[units[j]][out]) for out in range(width)
    )
    linear = all(
        tuple(sum(bits[j] for j in terms) % 2 for terms in form) == new
        for bits, new in table.items()
    )
    if not linear or not all(form):
        raise FrameError(f"rule for {kind} is not an invertible GF(2)-linear map")
    return form


_FORMS = {kind: _derive_form(kind) for kind in CLIFFORD_KINDS}


def apply_rule(kind: str, bits, xor):
    """Evaluate a derived rule over any XOR-capable values.

    ``bits`` supplies the current key values (2 or 4 of them); each output is
    the XOR, under ``xor``, of the inputs its linear form lists, so the same
    form drives pad bits, ciphertext handles and keystream parity bits.
    """
    if kind not in _FORMS:
        raise FrameError(f"{kind} is not a tracked Clifford gate")
    result = []
    for terms in _FORMS[kind]:
        acc = bits[terms[0]]
        for t in terms[1:]:
            acc = xor(acc, bits[t])
        result.append(acc)
    return tuple(result)


def update_keys(keys, g: Gate, xor) -> None:
    """Update the (a, b) pairs of Clifford ``g``'s wires in place.

    ``keys[w]`` is wire w's pair; ``xor`` combines the values as in
    ``apply_rule``, which runs once for the gate.
    """
    out = apply_rule(g.kind, tuple(v for w in g.wires for v in keys[w]), xor)
    for i, w in enumerate(g.wires):
        keys[w] = out[2 * i : 2 * i + 2]


def update_clifford(pad, g: Gate) -> None:
    """Update a plain-bit pad in place for Clifford ``g``: ``update_keys`` under XOR."""
    update_keys(pad, g, operator.xor)
