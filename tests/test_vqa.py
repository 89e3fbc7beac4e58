"""Shadow classifier: features, compensation, gradients, training."""
import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qhevqa.pauli_frame import FrameError, random_pad
from qhevqa.simulator import (
    StateVector,
    amplitude_encode,
    apply_circuit,
    apply_gate,
    gate,
    random_state,
)
from qhevqa.vqa import (
    LabeledDataset,
    REFERENCE_THETA_INIT,
    SHIFT_ALPHA,
    ShadowModel,
    TrainConfig,
    VQAError,
    _compensate,
    _features,
    _reader,
    _row_observables,
    _shifted_rows,
    _window_reduced,
    build_shadow_circuit,
    cross_entropy,
    gradients,
    load_digits_csv,
    predict,
    shadow_features,
    theta_row,
    train,
    write_metrics_csv,
    xx_run,
)


def small_model(n=4, seed=0):
    rng = np.random.default_rng(seed)
    return ShadowModel(
        rng.uniform(0, 2 * np.pi, (2, 4)),
        rng.uniform(-0.5, 0.5, n - 1),
        float(rng.uniform(-0.2, 0.2)),
        n,
    )


class TestDatasets:
    def test_bundled_csv_loads(self):
        ds = load_digits_csv()
        assert len(ds) > 0
        assert ds.n == 6
        assert {label for _, label in ds.samples} == {0, 1}
        assert all(vec.size <= 2**6 for vec, _ in ds.samples)

    def test_rejects_bad_labels(self):
        with pytest.raises(VQAError):
            LabeledDataset(((np.ones(4), 3),), 2)

    def test_rejects_zero_vector(self):
        with pytest.raises(VQAError):
            LabeledDataset(((np.zeros(4), 0),), 2)

    @pytest.mark.parametrize("row", [
        "0.5,0.5,0.6", "0.5,0.5,1.5", "0.5,0.5,-1", "0.5,0.5,nan", "0.5,0.5,inf",
        "nan,0.5,1", "0.5,inf,0", "0.5,-inf,1",
    ])
    def test_csv_rejects_non_finite_values_and_labels_other_than_0_or_1(self, tmp_path, row):
        # int() used to truncate a 0.6 label to 0, and a nan intensity loaded
        # only for training to diverge after a full epoch.
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2,0\n{row}\n")
        with pytest.raises(VQAError, match="row 2"):
            load_digits_csv(str(path))

    def test_csv_takes_labels_written_as_floats(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("1,2,0.0\n3,4,1.0\n")
        assert [label for _, label in load_digits_csv(str(path)).samples] == [0, 1]


class TestModel:
    def test_shape_validation(self):
        with pytest.raises(VQAError):
            ShadowModel(np.zeros((3, 4)), np.zeros(3), 0.0, 4)
        with pytest.raises(VQAError):
            ShadowModel(np.zeros((2, 4)), np.zeros(5), 0.0, 4)

    def test_theta_rows_alternate(self):
        assert [theta_row(v) for v in (1, 2, 3, 4)] == [0, 1, 0, 1]

    def test_window_circuit_wires(self):
        model = small_model()
        circ = build_shadow_circuit(model, 2)
        wires = {w for g in circ for w in g.wires}
        assert wires == {1, 2}
        with pytest.raises(VQAError):
            build_shadow_circuit(model, 0)

    def test_reference_init_shape(self):
        assert REFERENCE_THETA_INIT.shape == (2, 4)


class TestFeatures:
    def test_fast_path_matches_direct_simulation(self):
        # The reduced-density fast path must agree with applying the window
        # circuit to the full register and taking the expectation.
        rng = np.random.default_rng(0)
        model = small_model()
        for _ in range(5):
            psi = random_state(4, rng)
            fast = shadow_features(psi, model)
            slow = np.array(
                [
                    xx_run(psi, build_shadow_circuit(model, v), (v - 1, v))
                    for v in range(1, 4)
                ]
            )
            np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_compensation_identity(self):
        # A compensated circuit on the padded state equals the plain circuit
        # on the plain state followed by the final pad. The caller's pad is
        # left as it was: the register is padded with it after compensating.
        rng = np.random.default_rng(1)
        model = small_model()
        circ = build_shadow_circuit(model, 1)
        for _ in range(10):
            psi = random_state(4, rng)
            pad = random_pad(4, rng)
            given = list(pad)
            padded = psi
            for w, (a, b) in enumerate(pad):
                if b:
                    padded = apply_gate(padded, gate("Z", w))
                if a:
                    padded = apply_gate(padded, gate("X", w))
            compensated, final = _compensate(circ, pad)
            assert pad == given
            lhs = apply_circuit(padded, compensated)
            rhs = apply_circuit(psi, circ)
            for w, (a, b) in enumerate(final):
                if b:
                    rhs = apply_gate(rhs, gate("Z", w))
                if a:
                    rhs = apply_gate(rhs, gate("X", w))
            from qhevqa.simulator import fidelity

            assert fidelity(lhs, rhs) == pytest.approx(1.0, abs=1e-10)

    def test_compensation_refuses_rz(self):
        # A window is RX, RY and CNOT: an RZ has no compensation rule and
        # reaches the Clifford key update, which refuses it.
        with pytest.raises(FrameError):
            _compensate([gate("RZ", 0, angle=0.3)], [(0, 1)])

    def test_delegated_exact_equals_plaintext(self):
        rng = np.random.default_rng(2)
        model = small_model()
        psi = random_state(4, rng)
        plain = shadow_features(psi, model)
        deleg = shadow_features(psi, model, "delegated-exact-gates", rng)
        np.testing.assert_allclose(deleg, plain, atol=1e-10)

    def test_delegated_faithful_close_to_plaintext(self):
        rng = np.random.default_rng(3)
        model = small_model(n=2)
        psi = random_state(2, rng)
        plain = shadow_features(psi, model)
        faith = shadow_features(psi, model, "delegated-faithful", rng, eps_target=3e-2)
        np.testing.assert_allclose(faith, plain, atol=0.15)

    def test_mode_validation(self):
        model = small_model()
        psi = StateVector(4)
        with pytest.raises(VQAError):
            shadow_features(psi, model, "nope")
        with pytest.raises(VQAError):
            shadow_features(psi, model, "delegated-exact-gates")  # rng missing
        with pytest.raises(VQAError):
            shadow_features(StateVector(3), model)

    def test_evaluator_callback_used(self):
        rng = np.random.default_rng(4)
        model = small_model()
        psi = random_state(4, rng)
        calls = []

        def fake(state, circuit, wires, _rng):
            calls.append(wires)
            return 0.25

        feats = shadow_features(psi, model, "delegated-exact-gates", rng, evaluator=fake)
        np.testing.assert_allclose(feats, 0.25)
        assert calls == [(0, 1), (1, 2), (2, 3)]

    def test_delegated_gradient_call_order(self):
        # One step over 2 samples and 4 wires: the batch features window by
        # window, then the 16 shifted rows in row, window, sample order.
        rng = np.random.default_rng(8)
        model = small_model()
        states = [random_state(4, rng) for _ in range(2)]
        calls = []

        def fake(state, circuit, wires, _rng):
            sample = next(m for m, s in enumerate(states) if s is state)
            calls.append((sample, wires, tuple(g.angle for g in circuit if g.angle is not None)))
            return 0.25

        config = TrainConfig(mode="delegated-exact-gates")
        gradients(states, np.array([0.0, 1.0]), model, config, rng, evaluator=fake)
        windows = {0: [(0, 1), (2, 3)], 1: [(1, 2)]}
        shifted = _shifted_rows(model.theta, SHIFT_ALPHA)
        want = [
            (m, (v - 1, v), tuple(model.theta[theta_row(v)])) for v in (1, 2, 3) for m in (0, 1)
        ] + [
            (m, wires, tuple(shifted[r, j]))
            for r in (0, 1)
            for j in range(8)
            for wires in windows[r]
            for m in (0, 1)
        ]
        assert calls == want


class TestReadout:
    def test_predict_is_sigmoid(self):
        assert predict(np.zeros(3), np.zeros(3), 0.0) == pytest.approx(0.5)
        assert predict(np.ones(2), np.ones(2), 1.0) == pytest.approx(
            1 / (1 + np.exp(-3.0))
        )
        with pytest.raises(VQAError):
            predict(np.zeros(2), np.zeros(3), 0.0)

    def test_cross_entropy_clamps(self):
        val = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(val) and val > 10


class TestGradients:
    def test_parameter_shift_matches_central_difference(self):
        rng = np.random.default_rng(5)
        model = small_model()
        states = [random_state(4, rng) for _ in range(3)]
        labels = np.array([0.0, 1.0, 1.0])
        ps = TrainConfig(grad_method="parameter-shift")
        cd = TrainConfig(grad_method="central-difference")
        g_ps = gradients(states, labels, model, ps)
        g_cd = gradients(states, labels, model, cd)
        for a, b in zip(g_ps, g_cd):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)

    def test_head_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        model = small_model()
        states = [random_state(4, rng) for _ in range(4)]
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        config = TrainConfig()
        _, d_w, d_b = gradients(states, labels, model, config)
        feats = np.stack([shadow_features(s, model) for s in states])
        eps = 1e-6
        for j in range(len(model.w)):
            up, dn = copy.deepcopy(model), copy.deepcopy(model)
            up.w[j] += eps
            dn.w[j] -= eps
            lu = cross_entropy(
                np.array([predict(o, up.w, up.bias) for o in feats]), labels
            )
            ld = cross_entropy(
                np.array([predict(o, dn.w, dn.bias) for o in feats]), labels
            )
            assert d_w[j] == pytest.approx((lu - ld) / (2 * eps), abs=1e-5)

    def test_config_validation(self):
        with pytest.raises(VQAError):
            TrainConfig(epochs=0)
        with pytest.raises(VQAError):
            TrainConfig(mode="nope")
        with pytest.raises(VQAError):
            TrainConfig(grad_method="nope")


class TestStackedObservables:
    """The plaintext path builds each window observable once per theta row.

    The gradient digests were recorded with the per-window, per-shift
    builder the stack replaced (NumPy 2.4, OpenBLAS, x86-64); the stack must
    reproduce its bits. The features digest is that of the training path's
    stacked trace, which ``shadow_features`` now shares; the 4x4 matrix
    trace it used before differed from it in the last bit of 38 of these 80
    features.
    """

    GOLDEN = {
        "parameter-shift": "67073e7cd78a865bfee23763696b17fc90fccc54264938199803fdf48e8f9777",
        "central-difference": "91dcc7ff262858baa0ac0f81157cc85cd74ae7c34fe1a55a70090a309de21e50",
        "features": "ecf1b96cda9794589ef8296ad55c6487b661c7b7f9b11bf86b1dbac86e09650d",
    }

    @staticmethod
    def digits_batch(seed):
        rng = np.random.default_rng(seed)
        ds = load_digits_csv()
        idx = rng.choice(len(ds), 4, replace=False)
        states = [amplitude_encode(ds.samples[i][0], ds.n) for i in idx]
        labels = np.array([ds.samples[i][1] for i in idx], dtype=float)
        return states, labels, small_model(n=ds.n, seed=seed)

    @pytest.mark.parametrize("method", ["parameter-shift", "central-difference"])
    def test_gradients_match_golden_digest(self, method):
        digest = hashlib.sha256()
        for seed in range(4):
            states, labels, model = self.digits_batch(seed)
            d_theta, d_w, d_b = gradients(states, labels, model, TrainConfig(grad_method=method))
            digest.update(d_theta.tobytes() + d_w.tobytes() + np.float64(d_b).tobytes())
        assert digest.hexdigest() == self.GOLDEN[method]

    def test_features_match_golden_digest(self):
        digest = hashlib.sha256()
        for seed in range(4):
            states, _, model = self.digits_batch(seed)
            for state in states:
                digest.update(shadow_features(state, model).tobytes())
        assert digest.hexdigest() == self.GOLDEN["features"]

    def test_features_equal_training_rows_bit_for_bit(self):
        # shadow_features and training read plaintext windows through the
        # same stacked trace, so a sample's features are the same bits.
        for seed in range(4):
            states, _, model = self.digits_batch(seed)
            rows = _features(_reader(states, model.n, None, None), model)
            for state, row in zip(states, rows):
                assert shadow_features(state, model).tobytes() == row.tobytes()

    def test_shifted_stack_matches_full_simulation(self):
        rng = np.random.default_rng(7)
        model = small_model(n=5, seed=7)
        psi = random_state(5, rng)
        shift = 0.3
        stack = _row_observables(_shifted_rows(model.theta, shift))
        assert stack.shape == (2, 8, 4, 4)
        for r in range(2):
            for c in range(4):
                for k, sgn in enumerate((+1, -1)):
                    shifted = copy.deepcopy(model)
                    shifted.theta[r, c] += sgn * shift
                    for v in range(1, model.n):
                        if theta_row(v) != r:
                            continue
                        wires = (v - 1, v)
                        fast = np.trace(_window_reduced(psi, wires) @ stack[r, 2 * c + k]).real
                        slow = xx_run(psi, build_shadow_circuit(shifted, v), wires)
                        assert fast == pytest.approx(slow, abs=1e-12)


class TestTraining:
    def test_short_run_is_deterministic_and_learns(self):
        ds = load_digits_csv()
        ds = LabeledDataset(ds.samples[:16], ds.n)
        config = TrainConfig(epochs=4, seed=1)
        m1, met1 = train(ds, config)
        m2, met2 = train(ds, config)
        np.testing.assert_array_equal(m1.theta, m2.theta)
        assert [m.loss for m in met1] == [m.loss for m in met2]
        assert met1[-1].loss < met1[0].loss

    def test_empty_dataset_rejected(self):
        # One sample leaves none to train on once one is held out.
        ds = load_digits_csv()
        for size in (0, 1):
            with pytest.raises(VQAError, match="at least 2 samples"):
                train(LabeledDataset(ds.samples[:size], ds.n), TrainConfig())

    def test_metrics_csv_format(self, tmp_path):
        ds = load_digits_csv()
        ds = LabeledDataset(ds.samples[:8], ds.n)
        _, metrics = train(ds, TrainConfig(epochs=2))
        out = tmp_path / "metrics.csv"
        write_metrics_csv(str(out), metrics)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,train_acc,test_acc"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            # fixed-width floats make byte-level CSV comparisons meaningful
            assert all("." in c and len(c.split(".")[1]) == 10 for c in cells[1:])

    def test_exact_delegated_training_matches_plaintext(self):
        # Encryption transparency at the training level: identical losses.
        ds = load_digits_csv()
        ds = LabeledDataset(ds.samples[:8], ds.n)
        _, plain = train(ds, TrainConfig(epochs=2, seed=3))
        _, deleg = train(
            ds, TrainConfig(epochs=2, seed=3, mode="delegated-exact-gates")
        )
        for a, b in zip(plain, deleg):
            assert a.loss == pytest.approx(b.loss, abs=1e-6)
            assert a.test_acc == b.test_acc

    def test_two_epoch_csvs_match_pinned_reference(self, tmp_path):
        # perfbench's train-plaintext configuration, every pinned seed.
        pinned = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        digests = json.loads(pinned.read_text())["train-plaintext"]
        ds = load_digits_csv()
        out = tmp_path / "metrics.csv"
        for seed in range(64):
            _, metrics = train(ds, TrainConfig(epochs=2, seed=seed))
            write_metrics_csv(str(out), metrics)
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[str(seed)], seed
