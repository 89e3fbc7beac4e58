"""Pauli-pad key tracking: machine-derived rules against the matrix oracle."""
from itertools import product
from operator import xor

import numpy as np
import pytest

from qhevqa import pauli_frame
from qhevqa.pauli_frame import (
    CLIFFORD_KINDS,
    FrameError,
    apply_pad,
    apply_rule,
    random_pad,
    remove_pad,
    update_clifford,
    verify_conjugation,
)
from qhevqa.simulator import FIXED_1Q, apply_gate, fidelity, gate, random_state


class TestConjugationOracle:
    """Known rules by hand. Every gate on every pad against the oracle is
    ``qhevqa.cli.check_conjugation`` (acceptance 3)."""

    def test_known_h_rule_swaps(self):
        assert apply_rule("H", (1, 0), xor) == (0, 1)
        assert apply_rule("H", (0, 1), xor) == (1, 0)

    def test_known_cnot_rule(self):
        # X on the control copies to the target; Z on the target copies back.
        assert apply_rule("CNOT", (1, 0, 0, 0), xor) == (1, 0, 1, 0)
        assert apply_rule("CNOT", (0, 0, 0, 1), xor) == (0, 1, 0, 1)

    def test_apply_rule_rejects_unknown(self):
        with pytest.raises((FrameError, KeyError)):
            apply_rule("NOPE", (0, 0), lambda x, y: x ^ y)


class TestRuleLinearity:
    def test_rules_are_gf2_linear(self):
        # The oracle's own rules, so a form evaluated by XOR can hold them.
        for kind in CLIFFORD_KINDS:
            g = gate(kind, 0, 1) if kind in ("CNOT", "CZ") else gate(kind, 0)
            pads = list(product((0, 1), repeat=2 * len(g.wires)))
            table = {pad: verify_conjugation(g, pad)[1] for pad in pads}
            assert table[pads[0]] == pads[0]
            for a in pads:
                for b in pads:
                    s = tuple(x ^ y for x, y in zip(a, b))
                    assert table[s] == tuple(
                        x ^ y for x, y in zip(table[a], table[b])
                    ), kind

    def test_apply_rule_generic_over_xor(self):
        # Evaluating the rule over sets with symmetric difference matches the
        # bit evaluation on every assignment.
        for kind in ("H", "P", "CNOT"):
            width = 4 if kind == "CNOT" else 2
            symbols = [frozenset([i]) for i in range(width)]
            symbolic = apply_rule(kind, tuple(symbols), lambda x, y: x ^ y)
            for bits in product((0, 1), repeat=width):
                want = apply_rule(kind, bits, xor)
                got = tuple(
                    int(sum(bits[i] for i in s) % 2) if s else 0 for s in symbolic
                )
                assert got == want, (kind, bits)


class TestFrameUpdates:
    def test_update_clifford_matches_padded_simulation(self):
        rng = np.random.default_rng(0)
        for kind in CLIFFORD_KINDS:
            wires = (0, 1) if kind in ("CNOT", "CZ") else (0,)
            g = gate(kind, *wires)
            for _ in range(8):
                pad = random_pad(2, rng)
                psi = random_state(2, rng)
                lhs = apply_gate(apply_pad(psi, pad), g)
                update_clifford(pad, g)
                rhs = apply_pad(apply_gate(psi, g), pad)
                assert fidelity(lhs, rhs) == pytest.approx(1.0, abs=1e-12)

    def test_t_byproduct_padded_simulation(self):
        # T . pad = phase . P^p . pad' . T with (pad', p) from the oracle and
        # p the pad's X key.
        rng = np.random.default_rng(1)
        for _ in range(8):
            pad = random_pad(1, rng)
            ok, new_keys, p = verify_conjugation(gate("T", 0), pad[0])
            assert ok and p == pad[0][0]
            psi = random_state(1, rng)
            lhs = apply_gate(apply_pad(psi, pad), gate("T", 0))
            rhs = apply_pad(apply_gate(psi, gate("T", 0)), [new_keys])
            for _i in range(p):
                rhs = apply_gate(rhs, gate("P", 0))
            assert fidelity(lhs, rhs) == pytest.approx(1.0, abs=1e-12)


class TestOverrides:
    def test_broken_rule_fails_oracle_comparison(self):
        # A wrong form swapped in is the one evaluation runs, and the oracle
        # comparison sees it.
        cnot = pauli_frame._FORMS["CNOT"]
        try:
            pauli_frame._FORMS["CNOT"] = ((0,), (1,), (2,), (3,))
            ok, new_keys, _ = verify_conjugation(gate("CNOT", 0, 1), (1, 0, 0, 0))
            assert ok  # oracle itself is still sound
            assert apply_rule("CNOT", (1, 0, 0, 0), xor) != new_keys
            pad = [(1, 0), (0, 0)]
            update_clifford(pad, gate("CNOT", 0, 1))
            assert pad[1] != new_keys[2:]
        finally:
            pauli_frame._FORMS["CNOT"] = cnot


class TestPadHelpers:
    def test_apply_pad_is_x_a_z_b_per_wire(self):
        rng = np.random.default_rng(3)
        x, z = FIXED_1Q["X"], FIXED_1Q["Z"]
        for _ in range(10):
            psi = random_state(3, rng)
            pad = random_pad(3, rng)
            op = np.eye(1)
            for a, b in reversed(pad):  # wire 0 is the least significant bit
                op = np.kron(op, np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
            padded = apply_pad(psi, pad)
            np.testing.assert_allclose(padded.amplitudes, op @ psi.amplitudes, atol=1e-12)
            restored = remove_pad(padded, pad)
            np.testing.assert_allclose(restored.amplitudes, psi.amplitudes, atol=1e-12)


class TestRandomPad:
    def test_random_pad_coverage(self):
        rng = np.random.default_rng(2)
        seen = {random_pad(1, rng)[0] for _ in range(100)}
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_random_pad_is_the_scalar_recipe(self):
        # One size-2n draw gives the keys of 2n scalar draws, wire by wire,
        # and leaves the generator where they left it, so every seeded run
        # that pads keeps its keys and the draws after them.
        for seed in range(8):
            for n in range(1, 9):
                one, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                pad = random_pad(n, one)
                want = [(int(scalar.integers(2)), int(scalar.integers(2))) for _ in range(n)]
                assert pad == want
                assert one.integers(2**62) == scalar.integers(2**62)
                assert one.random() == scalar.random()
