"""Clifford+T approximation of rotations: net, recursion, certification."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhevqa.cli import decompose_report_tallies
from qhevqa.qhe import t_count
from qhevqa.simulator import FIXED_1Q, ROTATION_1Q, StateVector, apply_circuit, fidelity, gate
from qhevqa.skdecomp import (
    DEFAULT_DEPTH,
    DecompositionError,
    EpsilonNet,
    decompose_circuit,
    default_net,
    fold_t_runs,
    group_commutator_factors,
    ops_unitary,
    simplify_ops,
    sk_decompose,
    trace_distance,
)
from qhevqa.vqa import REFERENCE_THETA_INIT, ShadowModel, build_shadow_circuit


class TestTraceDistance:
    def test_zero_on_equal_and_phase(self):
        h = FIXED_1Q["H"]
        assert trace_distance(h, h) == pytest.approx(0.0, abs=1e-7)
        assert trace_distance(h, np.exp(1j * 0.3) * h) == pytest.approx(0.0, abs=1e-7)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            us = [
                np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(3)
            ]
            a, b, c = us
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(DecompositionError):
            sk_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]), 0, default_net())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_has_no_distance(self, bad):
        # NaN used to read as distance 0, certifying anything against it.
        h = FIXED_1Q["H"]
        broken = np.full((2, 2), bad, dtype=complex)
        with np.errstate(invalid="ignore"):  # inf * 0 in the product
            assert np.isnan(trace_distance(broken, h))
            assert np.isnan(trace_distance(h, broken))
        with pytest.raises(DecompositionError):
            sk_decompose(broken, 0, default_net())


def simplify_ops_fixpoint(ops):
    """The first ``simplify_ops``, kept as the oracle: cancel H pairs and
    reduce T-power runs modulo 8, recursing until nothing changes."""
    out = []
    i = 0
    while i < len(ops):
        if ops[i] == "H":
            if out and out[-1] == "H":
                out.pop()
            else:
                out.append("H")
            i += 1
            continue
        power = 0
        while i < len(ops) and ops[i] in ("T", "Tdagger"):
            power += 1 if ops[i] == "T" else 7
            i += 1
        power %= 8
        out.extend(["T"] * power if power <= 4 else ["Tdagger"] * (8 - power))
        # A vanished run can expose an H-H pair across where it stood.
        if power == 0 and len(out) >= 2 and out[-1] == "H" and out[-2] == "H":
            out.pop()
            out.pop()
    collapsed = tuple(out)
    return collapsed if collapsed == ops else simplify_ops_fixpoint(collapsed)


class TestSimplify:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(["H", "T", "Tdagger"]), max_size=30).map(tuple))
    def test_one_pass_matches_the_fixpoint_oracle(self, ops):
        assert simplify_ops(ops) == simplify_ops_fixpoint(ops)

    def test_preserves_unitary(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ops = tuple(rng.choice(["H", "T", "Tdagger"], size=rng.integers(0, 15)))
            reduced = simplify_ops(ops)
            assert trace_distance(ops_unitary(ops), ops_unitary(reduced)) < 1e-6

    def test_cancellations(self):
        assert simplify_ops(("H", "H")) == ()
        assert simplify_ops(("T", "Tdagger")) == ()
        assert simplify_ops(("T",) * 8) == ()
        assert simplify_ops(("T",) * 7) == ("Tdagger",)
        assert simplify_ops(("H", "T", "Tdagger", "H")) == ()

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ops = tuple(rng.choice(["H", "T", "Tdagger"], size=10))
            once = simplify_ops(ops)
            assert simplify_ops(once) == once


class TestNet:
    def test_small_net_contents(self):
        net = default_net()
        assert net.words[:4] == ((), ("H",), ("T",), ("Tdagger",))
        assert [len(w) for w in net.words] == sorted(map(len, net.words))  # breadth first
        assert net.unitaries.shape == (len(net.words), 2, 2)
        for word, u in zip(net.words, net.unitaries):
            assert np.allclose(u, ops_unitary(word), atol=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "the net's dedup key keeps the sign of a rounded zero, so equal "
        "unitaries can be stored twice, e.g. T H T^5 beside T H Tdagger^3"))
    def test_no_entry_reduces_to_a_shorter_one(self):
        # No redundant entries: T^4 and Tdagger^4 are the same Z, so either
        # may be stored, but no entry has a shorter equal word.
        for word in default_net().words:
            assert len(simplify_ops(word)) == len(word), word

    def test_nearest_exact_hits(self):
        net = default_net()
        assert net.nearest(FIXED_1Q["H"])[0] == ("H",)
        assert net.nearest(np.eye(2, dtype=complex))[0] == ()


class TestCommutator:
    def test_factors_reconstruct_delta(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = float(rng.uniform(0.01, 0.5))
            x, y, z = (
                np.array([[0, 1], [1, 0]], dtype=complex),
                np.array([[0, -1j], [1j, 0]]),
                np.array([[1, 0], [0, -1]], dtype=complex),
            )
            h = axis[0] * x + axis[1] * y + axis[2] * z
            delta = (
                np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * h
            )
            v, w = group_commutator_factors(axis, theta)
            recon = v @ w @ v.conj().T @ w.conj().T
            assert trace_distance(recon, delta) < 1e-6


class TestDecompose:
    def test_depth_never_hurts(self):
        rng = np.random.default_rng(4)
        net = default_net()
        for _ in range(5):
            u = ROTATION_1Q["RZ"](float(rng.uniform(0, 2 * np.pi)))
            dists = [
                trace_distance(sk_decompose(u, d, net)[1], u)
                for d in range(DEFAULT_DEPTH + 1)
            ]
            for lo, hi in zip(dists[1:], dists[:-1]):
                assert lo <= hi + 1e-12

    def test_each_depth_is_built_once(self, monkeypatch):
        # RX(1.2) first comes within 0.02 at depth 2. Built from the depth
        # before, depth d costs 3^d nearest-word searches in all, 9 here;
        # restarted from depth 0 at each depth it cost 1 + 3 + 9 = 13.
        u = ROTATION_1Q["RX"](1.2)
        net = default_net()
        dists = [trace_distance(sk_decompose(u, d, net)[1], u) for d in range(3)]
        assert dists[1] > 0.02 >= dists[2]
        calls = []
        nearest = EpsilonNet.nearest
        monkeypatch.setattr(
            EpsilonNet, "nearest", lambda self, v: calls.append(v) or nearest(self, v)
        )
        decompose_circuit([gate("RX", 0, angle=1.2)], eps_target=0.02)
        assert len(calls) == 3**2

    def test_default_depth_hits_target(self):
        rng = np.random.default_rng(5)
        net = default_net()
        for axis in ("RX", "RY", "RZ"):
            u = ROTATION_1Q[axis](float(rng.uniform(0, 2 * np.pi)))
            _, approx = sk_decompose(u, DEFAULT_DEPTH, net)
            assert trace_distance(approx, u) <= 1e-2

    def test_depth_out_of_range(self):
        with pytest.raises(DecompositionError):
            sk_decompose(FIXED_1Q["H"], 9, default_net())

    def test_circuit_rewrite_is_certified_and_counted(self):
        rng = np.random.default_rng(6)
        circ = [
            gate("H", 0),
            gate("RX", 1, angle=1.2),
            gate("CNOT", 0, 1),
            gate("RZ", 0, angle=4.4),
            gate("T", 1),
        ]
        out, t_total = decompose_circuit(circ, eps_target=1e-2)
        assert all(g.kind in ("H", "T", "Tdagger", "CNOT") for g in out)
        assert t_total == sum(1 for g in out if g.kind in ("T", "Tdagger"))
        # end-to-end action agrees on a random state within the two targets
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector(2, v / np.linalg.norm(v))
        f = fidelity(apply_circuit(psi, circ), apply_circuit(psi, out))
        assert f > 1 - 2 * (1e-2) ** 2 - 1e-6

    def test_unreachable_target_raises(self):
        with pytest.raises(DecompositionError):
            decompose_circuit([gate("RX", 0, angle=0.917)], eps_target=1e-9)

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_rotation_raises(self, angle):
        # A NaN angle used to come back as an empty, "certified" sequence.
        with pytest.raises(DecompositionError):
            decompose_circuit([gate("RX", 0, angle=angle)])

    def test_zero_rotation_collapses(self):
        out, t_total = decompose_circuit([gate("RZ", 0, angle=0.0)])
        assert out == [] and t_total == 0


def synthesis_digest():
    """SHA-256 over the words and T tallies ``decompose_circuit`` gives seeded
    RX/RY/RZ targets at four tolerances, and over the words and unitary bytes
    ``sk_decompose`` gives seeded targets at depths 0-3."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(33)
    for eps in (0.3, 0.1, 0.03, 0.01):
        for axis in ("RX", "RY", "RZ") * 4:
            g = gate(axis, 0, angle=float(rng.uniform(0, 2 * np.pi)))
            out, t_total = decompose_circuit([g], eps)
            word = " ".join(h.kind for h in out)
            digest.update(f"{eps} {g.kind} {g.angle!r}: {word} {t_total}\n".encode())
    net = default_net()
    for axis in ("RX", "RY", "RZ") * 2:
        u = ROTATION_1Q[axis](float(rng.uniform(0, 2 * np.pi)))
        for depth in range(4):
            word, approx = sk_decompose(u, depth, net)
            digest.update(f"{depth}: {' '.join(word)}\n".encode())
            digest.update(np.ascontiguousarray(approx).tobytes())
    return digest.hexdigest()


class TestSynthesisGolden:
    def test_words_tallies_and_unitaries_are_pinned(self):
        assert synthesis_digest() == (
            "437594e84c67c81baea2af4523d835aaea1f652e8f3e391a8e7cad1ab3120654"
        )


class TestReportTallies:
    def test_reference_rotation_tallies_frozen(self):
        # Comparison-depth tallies for the RX(5.57) reference rotation; these
        # are pinned so the reporting path cannot drift silently.
        report = decompose_report_tallies(5.57, "X")
        assert report["T"] == 42
        assert report["Tdagger"] == 43
        assert report["H"] == 68
        assert report["distance"] == pytest.approx(0.0135, abs=2e-3)


ONE_WIRE = ("H", "T", "T", "Tdagger", "Tdagger", "P", "Pdagger", "X", "Z")


@st.composite
def circuits(draw):
    """Circuits over H, T, Tdagger, P, Pdagger, X, Z, CNOT and CZ on 1-3
    wires, weighted towards T runs."""
    n = draw(st.integers(1, 3))
    kinds = ONE_WIRE + (("CNOT", "CZ") if n > 1 else ())
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=30)):
        if kind in ("CNOT", "CZ"):
            wires = draw(st.permutations(range(n)))[:2]
        else:
            wires = (draw(st.integers(0, n - 1)),)
        out.append(gate(kind, *wires))
    return n, out


def circuit_unitary(circuit, n):
    return np.stack(
        [apply_circuit(StateVector(n, np.eye(2**n)[k]), circuit).amplitudes for k in range(2**n)],
        axis=1,
    )


def reference_vector_windows(eps):
    """The Clifford+T windows of the reference model's feature vector."""
    model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(5), 0.0, 6)
    return [decompose_circuit(build_shadow_circuit(model, v), eps)[0] for v in range(1, 6)]


class TestFoldTRuns:
    def test_powers_of_t(self):
        for p in range(16):
            folded = fold_t_runs([gate("T", 0)] * p)
            want = np.linalg.matrix_power(FIXED_1Q["T"], p)
            np.testing.assert_allclose(circuit_unitary(folded, 1), want, rtol=0, atol=1e-12)
            assert t_count(folded) == p % 2
        assert [g.kind for g in fold_t_runs([gate("T", 0)] * 6)] == ["Pdagger"]
        assert [g.kind for g in fold_t_runs([gate("Tdagger", 0)])] == ["Tdagger"]

    def test_run_spans_gates_on_other_wires(self):
        circ = [gate("T", 0), gate("H", 1), gate("T", 0), gate("CNOT", 1, 2), gate("Z", 0)]
        assert fold_t_runs(circ) == [
            gate("P", 0), gate("H", 1), gate("CNOT", 1, 2), gate("Z", 0)
        ]
        assert fold_t_runs([gate("T", 0), gate("CZ", 1, 0), gate("T", 0)]) == [
            gate("T", 0), gate("CZ", 1, 0), gate("T", 0)
        ]

    @settings(max_examples=300, deadline=None)
    @given(circuits())
    def test_properties(self, drawn):
        n, circ = drawn
        folded = fold_t_runs(circ)
        # The same unitary, global phase included.
        assert np.max(np.abs(circuit_unitary(folded, n) - circuit_unitary(circ, n))) <= 1e-12
        assert t_count(folded) <= t_count(circ)
        # No two T/Tdagger on a wire without a gate on that wire between them.
        last = {}
        for i, g in enumerate(folded):
            for w in g.wires:
                if g.kind in ("T", "Tdagger") and w in last:
                    assert folded[last[w]].kind not in ("T", "Tdagger")
                last[w] = i
        assert fold_t_runs(folded) == folded
        # Gates other than T/Tdagger keep their relative order; new gates are
        # only the folded powers.
        kept = [g for g in circ if g.kind not in ("T", "Tdagger")]
        ids = {id(g) for g in kept}
        assert [g for g in folded if id(g) in ids] == kept
        assert {g.kind for g in folded if id(g) not in ids} <= {"T", "Tdagger", "P", "Z", "Pdagger"}

    @pytest.mark.parametrize("eps, before, after", [(0.1, 155, 111), (1e-2, 6103, 4325)])
    def test_reference_vector_counts(self, eps, before, after):
        windows = reference_vector_windows(eps)
        assert sum(map(t_count, windows)) == before
        assert sum(t_count(fold_t_runs(w)) for w in windows) == after
