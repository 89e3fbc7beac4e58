"""Variational shadow classifier: sliding two-qubit windows over an
amplitude-encoded register, <X x X> shadow features, sigmoid read-out, and
cross-entropy training by parameter shift or central differences.

Three evaluation modes share one training loop and differ only in the
window reader ``_reader``, through which features, training features and
shifted-parameter windows are all read. ``plaintext`` traces each window's
Heisenberg-picture observable against the samples' stacked reduced states.
The delegated modes call a window evaluator once per window and sample:
``delegated-exact-gates`` runs every window on a one-time-padded register
with client-compensated rotation angles, reading the expectation off the
cipher register and correcting its sign from the pad -- numerically identical
to plaintext, demonstrating encryption transparency. ``delegated-faithful``
first rewrites the window into Clifford+T and runs the full homomorphic
evaluation with gadgets.
"""
from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass
from math import pi

import numpy as np

from .pauli_frame import apply_pad, random_pad, update_clifford
from .qhe import SECURITY, encrypt, eval_circuit, keygen, xx_sign
from .simulator import (
    CNOT_MATRIX,
    ROTATION_1Q,
    Gate,
    PauliString,
    StateVector,
    amplitude_encode,
    apply_circuit,
    expectation,
    gate,
    reduced_density_matrix,
)
from .skdecomp import DEFAULT_EPS_TARGET, decompose_circuit, fold_t_runs

MODES = ("plaintext", "delegated-exact-gates", "delegated-faithful")
SHADOW_WIDTH = 2
# Encoding width of a dataset row: the digits are 8x8 images, 2^6 intensities.
DIGITS_QUBITS = 6


class VQAError(Exception):
    pass


# --- datasets ---------------------------------------------------------------


@dataclass(frozen=True)
class LabeledDataset:
    samples: tuple[tuple[np.ndarray, int], ...]
    n: int  # encoding width in qubits

    def __post_init__(self):
        for vec, label in self.samples:
            if label not in (0, 1):
                raise VQAError(f"labels must be binary, got {label}")
            if vec.size > 2**self.n or np.linalg.norm(vec) == 0:
                raise VQAError("feature vector too long or zero-norm")

    def __len__(self) -> int:
        return len(self.samples)


def load_digits_csv(path: str | None = None) -> LabeledDataset:
    """Rows of at most 2^DIGITS_QUBITS finite comma-separated intensities, then a 0/1 label."""
    if path is None:
        ref = importlib.resources.files("qhevqa").joinpath("data/digits_01.csv")
        text = ref.read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    samples = []
    for number, row in enumerate(csv.reader(text.strip().splitlines()), 1):
        if not row:
            continue
        values = [float(x) for x in row]
        if not np.all(np.isfinite(values)):
            raise VQAError(f"row {number}: values must be finite")
        if values[-1] not in (0.0, 1.0):
            raise VQAError(f"row {number}: label must be 0 or 1, got {row[-1]!r}")
        samples.append((np.array(values[:-1]), int(values[-1])))
    return LabeledDataset(tuple(samples), DIGITS_QUBITS)


# --- model and circuits -----------------------------------------------------


@dataclass
class ShadowModel:
    theta: np.ndarray  # shape (2, 4), radians; row = (window - 1) mod 2
    w: np.ndarray  # length n - SHADOW_WIDTH + 1
    bias: float
    n: int

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.theta.shape != (2, 4) or not np.all(np.isfinite(self.theta)):
            raise VQAError("theta must be a finite 2x4 matrix")
        if self.w.shape != (self.num_windows,):
            raise VQAError("weight length must be n - SHADOW_WIDTH + 1")

    @property
    def num_windows(self) -> int:
        return self.n - SHADOW_WIDTH + 1


# Paper-style fixed angles for a model built by hand, such as one delegated
# feature vector; ``train`` draws its starting angles from its seed.
REFERENCE_THETA_INIT = np.array(
    [[5.57, 4.34, 3.85, 6.22], [5.76, 1.40, 5.23, 5.05]]
)


def theta_row(window: int) -> int:
    return (window - 1) % 2


def build_shadow_circuit(model: ShadowModel, v: int) -> list[Gate]:
    """Two-qubit parameterized block on wires (v-1, v), v in 1..n-1."""
    if not 1 <= v < model.n:
        raise VQAError(f"window start {v} out of range 1..{model.n - 1}")
    return _window_circuit(model.theta[theta_row(v)], v)


def _window_circuit(row: np.ndarray, v: int) -> list[Gate]:
    a, b = v - 1, v
    return [
        gate("RX", a, angle=row[0]),
        gate("RY", a, angle=row[1]),
        gate("RX", b, angle=row[2]),
        gate("CNOT", a, b),
        gate("CNOT", b, a),
        gate("RY", b, angle=row[3]),
    ]


def xx_run(state: StateVector, circuit: list[Gate], wires: tuple[int, int]) -> float:
    """The <X x X> of ``wires`` after ``circuit`` on ``state``: a delegated-exact
    window's server step, local or remote."""
    return expectation(apply_circuit(state, circuit), PauliString(("X", "X"), wires))


# Window matrices put the first wire (a) most significant. CNOT(b, a) is
# CNOT(a, b) with the wires swapped; X x X reverses the basis order.
_SWAP = [0, 2, 1, 3]
_CNOT_PAIR = CNOT_MATRIX[np.ix_(_SWAP, _SWAP)] @ CNOT_MATRIX  # CNOT(a, b), then CNOT(b, a)
_XX = np.eye(4, dtype=complex)[::-1].copy()
# Where a one-wire 2x2 block sits in a window matrix: kron(m, I) on a, kron(I, m) on b.
_ON_A = (slice(0, 4, 2), slice(1, 4, 2))
_ON_B = (slice(0, 2), slice(2, 4))


def _one_wire(kind: str, angles: np.ndarray, blocks) -> np.ndarray:
    """The simulator's ``kind`` rotation of each angle as a window matrix, (...) -> (..., 4, 4)."""
    m = np.array([ROTATION_1Q[kind](t) for t in angles.ravel()]).reshape(angles.shape + (2, 2))
    out = np.zeros(angles.shape + (4, 4), dtype=complex)
    for block in blocks:
        out[..., block, block] = m
    return out


def _row_observables(rows: np.ndarray) -> np.ndarray:
    """U^dag (X x X) U of the window circuit of each theta row, (..., 4) -> (..., 4, 4).

    A window acts on two wires and depends only on its theta row, so the
    Heisenberg-picture observable collapses every feature evaluation to a
    4x4 trace. The product follows ``build_shadow_circuit``: RX_a, RY_a,
    RX_b, CNOT(a, b), CNOT(b, a), RY_b.
    """
    rows = np.asarray(rows, dtype=float)
    u = _one_wire("RX", rows[..., 0], _ON_A)
    u = _one_wire("RY", rows[..., 1], _ON_A) @ u
    u = _one_wire("RX", rows[..., 2], _ON_B) @ u
    u = _CNOT_PAIR @ u
    u = _one_wire("RY", rows[..., 3], _ON_B) @ u
    return np.swapaxes(u.conj(), -1, -2) @ _XX @ u


def _window_reduced(state: StateVector, wires: tuple[int, int]) -> np.ndarray:
    # reduced_density_matrix packs its first listed wire least significant;
    # list the second window wire first so the first is the matrix MSB.
    return reduced_density_matrix(state, [wires[1], wires[0]])


def _compensate(circuit: list[Gate], pad) -> tuple[list[Gate], list]:
    """Rewrite the circuit to act identically under the given pad.

    Rotations get sign-compensated angles (RX flips with the Z key, RY with
    both keys); Cliffords pass through with the tracked key relabeling, which
    runs on a copy: the returned final pad is new and ``pad`` is unchanged.
    A window has no other gate: ``update_clifford`` refuses one (an RZ) with
    ``FrameError``.
    """
    final = list(pad)
    out = []
    for g in circuit:
        if g.kind == "RX":
            (w,) = g.wires
            out.append(gate("RX", w, angle=g.angle * (-1) ** final[w][1]))
        elif g.kind == "RY":
            (w,) = g.wires
            a, b = final[w]
            out.append(gate("RY", w, angle=g.angle * (-1) ** (a ^ b)))
        else:
            out.append(g)
            update_clifford(final, g)
    return out, final


# A delegated window evaluation is one client procedure: pad the input, have a
# server run the window, undo the pad on the value that comes back. The server
# steps, ``xx_run`` and ``xx_run_homomorphic``, are also the remote server's.


def exact_evaluator(server_run):
    """Delegated-exact window evaluator around one server step.

    ``server_run(register, circuit, wires)`` runs the compensated circuit on
    the padded register and returns the raw <X x X>. The pad and the
    rotation signs stay with the client.
    """

    def evaluate(state, circuit, wires, rng):
        pad = random_pad(state.num_qubits, rng)
        compensated, final = _compensate(circuit, pad)
        raw = server_run(apply_pad(state, pad), compensated, wires)
        sign = -1.0 if final[wires[0]][1] ^ final[wires[1]][1] else 1.0
        return sign * raw

    return evaluate


def faithful_evaluator(provision, server_run, eps_target: float):
    """Delegated-faithful window evaluator: the window synthesized into
    Clifford+T, keys for that circuit, the padded input, the server step, and
    the decrypted sign of the <X x X> that comes back.

    ``provision(num_wires, circuit, rng)`` returns the client keys and the
    EvalKey (None when the gadgets live on a remote server);
    ``server_run(cs, circuit, wires, ek, rng)`` returns the raw <X x X>, the
    final key level and the final encrypted keys of ``wires``.
    """

    def evaluate(state, circuit, wires, rng):
        clifford_t = fold_t_runs(decompose_circuit(circuit, eps_target)[0])
        client, ek = provision(state.num_qubits, clifford_t, rng)
        cs, _ = encrypt(client, state, rng)
        raw, level, keys = server_run(cs, clifford_t, wires, ek, rng)
        return xx_sign(client, level, keys, wires) * raw

    return evaluate


def _provision_local(num_wires, circuit, rng):
    return keygen(SECURITY, num_wires, circuit, rng)


def xx_run_homomorphic(cs, circuit, wires, ek, rng):
    """A delegated-faithful window's server step, local or remote: the
    homomorphic run, its raw <X x X>, the final key level and encrypted keys."""
    out = eval_circuit(cs, circuit, ek, rng)
    raw = expectation(out.register, PauliString(("X", "X"), wires))
    return raw, out.level, out.encrypted_keys


def window_evaluator(mode: str, eps_target: float = DEFAULT_EPS_TARGET):
    """The local window evaluator of ``mode``; None is the plaintext fast path."""
    if mode not in MODES:
        raise VQAError(f"unknown mode {mode!r}")
    if mode == "plaintext":
        return None
    if mode == "delegated-exact-gates":
        return exact_evaluator(xx_run)
    return faithful_evaluator(_provision_local, xx_run_homomorphic, eps_target)


def _reduced_stack(states: list[StateVector], n: int) -> list[np.ndarray]:
    """Per window, the stacked 2-qubit reduced states of every sample."""
    return [
        np.stack([_window_reduced(s, (v - 1, v)) for s in states]) for v in range(1, n)
    ]


def _reader(states: list[StateVector], n: int, evaluator, rng, red=None):
    """The one place plaintext and delegated evaluation differ: ``read(rows,
    pairs)`` gives, per (k, v) pair, window v's <X x X> under theta row
    ``rows[k]`` for every state as an (N,) array. Plaintext (``evaluator``
    None) builds every row's observable in one call and traces it against the
    stacked reduced states ``red``; delegated calls ``evaluator`` once per
    pair and state, pair-major."""
    if evaluator is None:
        if red is None:
            red = _reduced_stack(states, n)

        def read(rows, pairs):
            obs = _row_observables(rows)
            return [np.real(np.einsum("nij,ji->n", red[v - 1], obs[k])) for k, v in pairs]

        return read
    if rng is None:
        raise VQAError("delegated modes need an rng for pad keys")

    def read(rows, pairs):
        out = []
        for k, v in pairs:
            circuit, wires = _window_circuit(rows[k], v), (v - 1, v)
            out.append(np.array([evaluator(s, circuit, wires, rng) for s in states]))
        return out

    return read


def _features(read, model: ShadowModel) -> np.ndarray:
    """(N, windows): every window's <X x X> under its own theta row."""
    return np.stack(read(model.theta, [(theta_row(v), v) for v in range(1, model.n)]), axis=1)


def shadow_features(
    state: StateVector,
    model: ShadowModel,
    mode: str = "plaintext",
    rng: np.random.Generator | None = None,
    eps_target: float = DEFAULT_EPS_TARGET,
    evaluator=None,
) -> np.ndarray:
    """One <X x X> per sliding window position, each on a fresh input copy.

    ``evaluator(state, circuit, wires, rng)`` optionally replaces the local
    evaluator of ``mode`` (e.g. to route the circuit run over a wire protocol).
    """
    if state.num_qubits != model.n:
        raise VQAError(f"state width {state.num_qubits} != model width {model.n}")
    if evaluator is None:
        evaluator = window_evaluator(mode, eps_target)
    return _features(_reader([state], model.n, evaluator, rng), model)[0]


# --- read-out, loss, gradients ----------------------------------------------


def predict(o: np.ndarray, w: np.ndarray, bias: float) -> float:
    if len(o) != len(w):
        raise VQAError("feature/weight length mismatch")
    return float(1.0 / (1.0 + np.exp(-(np.dot(w, o) + bias))))


_CLAMP = 1e-12


def cross_entropy(y_hat: np.ndarray, y: np.ndarray) -> float:
    clamped = np.clip(y_hat, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(clamped) + (1 - y) * np.log(1 - clamped)))


# The one training recipe: plain minibatch steps, a quarter of the data held
# out, and the angle shift of each gradient method.
LEARNING_RATE = 0.01
BATCH_SIZE = 2
TEST_FRACTION = 0.25
SHIFT_ALPHA = pi / 2  # parameter shift, exact for half-turn generators
FD_STEP = 1e-5  # central-difference step


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    grad_method: str = "parameter-shift"  # or "central-difference"
    mode: str = "plaintext"
    seed: int = 0
    eps_target: float = DEFAULT_EPS_TARGET

    def __post_init__(self):
        if self.epochs < 1:
            raise VQAError("epochs must be >= 1")
        if self.mode not in MODES:
            raise VQAError(f"unknown mode {self.mode!r}")
        if self.grad_method not in ("parameter-shift", "central-difference"):
            raise VQAError(f"unknown gradient method {self.grad_method!r}")


def _shifted_rows(theta: np.ndarray, shift: float) -> np.ndarray:
    """(2, 8, 4): each theta row with column c moved by +shift, then -shift."""
    rows = np.repeat(theta[:, None, :], 8, axis=1)
    for c in range(4):
        rows[:, 2 * c, c] += shift
        rows[:, 2 * c + 1, c] -= shift
    return rows


def gradients(
    states: list[StateVector],
    labels: np.ndarray,
    model: ShadowModel,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    red: list[np.ndarray] | None = None,
    evaluator=None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """(d theta, d w, d bias) of the batch cross-entropy.

    Head gradients are analytic through the sigmoid; angle gradients shift
    each parameter by +-SHIFT_ALPHA (exact for half-turn generators) or by
    the central-difference step FD_STEP, re-evaluating only the windows the
    row feeds.
    ``evaluator`` defaults to the local evaluator of ``config.mode``; ``red``
    optionally carries precomputed per-window reduced states for the
    plaintext fast path.
    """
    if evaluator is None:
        evaluator = window_evaluator(config.mode, config.eps_target)
    read = _reader(states, model.n, evaluator, rng, red)
    feats = _features(read, model)
    y_hat = np.array([predict(o, model.w, model.bias) for o in feats])
    resid = y_hat - labels  # d loss / d logit, up to the 1/N average
    d_w = feats.T @ resid / len(states)
    d_b = float(np.mean(resid))

    if config.grad_method == "parameter-shift":
        shift, denom = SHIFT_ALPHA, 2.0 * np.sin(SHIFT_ALPHA)
    else:
        shift, denom = FD_STEP, 2.0 * FD_STEP
    d_theta = np.zeros((2, 4))
    scale = denom * len(states)
    # Row 8 r + 2 c + k is theta row r with column c moved by (+1, -1)[k] shift;
    # each feeds only the windows of row r.
    rows = _shifted_rows(model.theta, shift).reshape(16, 4)
    windows = [[v for v in range(1, model.n) if theta_row(v) == r] for r in range(2)]
    pairs = [(i, v) for i in range(16) for v in windows[i // 8]]
    for (i, v), vals in zip(pairs, read(rows, pairs)):
        # d o_v / d theta_rc feeds the chain rule directly:
        # dC/dtheta = mean(resid * w_v * do_v).
        sgn = 1 - 2 * (i % 2)
        d_theta[i // 8, i % 8 // 2] += sgn * model.w[v - 1] * float(np.dot(resid, vals)) / scale
    return d_theta, d_w, d_b


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float


def check_trainable(dataset: LabeledDataset) -> None:
    """Training holds out at least one sample and needs one more to train on."""
    if len(dataset) < 2:
        raise VQAError(f"training needs at least 2 samples, got {len(dataset)}")


def train(
    dataset: LabeledDataset, config: TrainConfig, evaluator=None
) -> tuple[ShadowModel, list[EpochMetrics]]:
    """Minibatch gradient descent; deterministic given (seed, mode).

    ``evaluator`` defaults to the local evaluator of ``config.mode``.
    """
    check_trainable(dataset)
    if evaluator is None:
        evaluator = window_evaluator(config.mode, config.eps_target)
    seq = np.random.SeedSequence(config.seed)
    data_rng, init_rng, eval_rng = (np.random.default_rng(s) for s in seq.spawn(3))

    states = [amplitude_encode(vec, dataset.n) for vec, _ in dataset.samples]
    labels = np.array([label for _, label in dataset.samples], dtype=float)
    order = data_rng.permutation(len(dataset))
    n_test = max(1, int(len(dataset) * TEST_FRACTION))
    test_idx, train_idx = order[:n_test], order[n_test:]

    n_feats = dataset.n - SHADOW_WIDTH + 1
    model = ShadowModel(
        init_rng.uniform(0.0, 2 * pi, (2, 4)),
        init_rng.uniform(-0.01, 0.01, n_feats),
        float(init_rng.uniform(-0.01, 0.01)),
        dataset.n,
    )

    red_all = _reduced_stack(states, dataset.n) if evaluator is None else None

    def red_rows(idx):
        if red_all is None:
            return None
        return [r[idx] for r in red_all]

    def evaluate(idx) -> tuple[float, float]:
        """(loss, accuracy) of the current model on the samples ``idx``."""
        read = _reader([states[i] for i in idx], dataset.n, evaluator, eval_rng, red_rows(idx))
        y_hat = np.array([predict(o, model.w, model.bias) for o in _features(read, model)])
        acc = float(np.mean((y_hat >= 0.5).astype(int) == labels[idx]))
        return cross_entropy(y_hat, labels[idx]), acc

    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        shuffled = data_rng.permutation(train_idx)
        for start in range(0, len(shuffled), BATCH_SIZE):
            batch = shuffled[start : start + BATCH_SIZE]
            d_theta, d_w, d_b = gradients(
                [states[i] for i in batch],
                labels[batch],
                model,
                config,
                eval_rng,
                red_rows(batch),
                evaluator,
            )
            model.theta -= LEARNING_RATE * d_theta
            model.w -= LEARNING_RATE * d_w
            model.bias -= LEARNING_RATE * d_b
        train_loss, train_acc = evaluate(train_idx)
        _, test_acc = evaluate(test_idx)
        if not np.isfinite(train_loss):
            raise VQAError(f"training diverged at epoch {epoch}")
        metrics.append(EpochMetrics(epoch, train_loss, train_acc, test_acc))
    return model, metrics


def write_metrics_csv(path: str, metrics: list[EpochMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "train_acc", "test_acc"])
        for m in metrics:
            writer.writerow(
                [m.epoch, f"{m.loss:.10f}", f"{m.train_acc:.10f}", f"{m.test_acc:.10f}"]
            )
