"""The four benchmark workloads.

Each workload draws its inputs from the seed alone (``make_inputs`` uses
NumPy only, never the package), builds program-side state in ``setup``,
and then runs passes. A pass is the unit a user waits for (a training run,
a delegated training session, a feature vector, a QHE round trip); an op is
the unit latency is measured on. Every loop is closed: one synchronous
client sends its next request only after the previous reply.

Outputs are checked after the timed region, so checking costs no time in it.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import socket
import sys
import threading
from contextlib import contextmanager
from math import sqrt
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("simulator", "pauli_frame", "classical_he", "rsp_gadget", "qhe",
           "skdecomp", "vqa", "protocol")
REFERENCE = Path(__file__).resolve().parent / "reference.json"
LOOPBACK = "127.0.0.1"

DIGITS_ROWS = 360  # rows of the bundled digits_01.csv
INPUT_POOL = 64  # distinct inputs drawn per run; passes cycle through them

PLAIN_EPOCHS = 2
TCP_SAMPLES = 48
TCP_EPOCHS = 1
TCP_SEEDS = 3  # training seeds per run; each needs a local reference run
FAITHFUL_EPS = 0.1
QHE_WIRES = 4
QHE_T_GATES = 200
# The gate alphabet of the package's acceptance-2 round-trip check
# (``qhevqa.cli._check_qhe_roundtrip``), drawn uniformly.
QHE_KINDS = ["H", "P", "T", "Tdagger", "CNOT", "CZ", "X", "Z"]
QHE_SECURITY = 16
FIDELITY_FLOOR = 1 - 1e-9  # acceptance criterion 2


class Package:
    """The package's modules, imported fresh (a set-up step)."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "qhevqa" or n.startswith("qhevqa.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"qhevqa.{name}"))


class OpLog:
    """Latency of each op, in the order they ran."""

    def __init__(self):
        self.seconds: list[float] = []
        self.spans: list[tuple[float, float]] = []  # on perf_counter, whatever the clock
        self.clock = perf_counter

    @contextmanager
    def op(self):
        began = perf_counter()
        start = self.clock()
        try:
            yield
        finally:
            self.seconds.append(self.clock() - start)
            self.spans.append((began, perf_counter()))

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.op():
                return fn(*args, **kwargs)

        return timed


def csv_bytes(m: Package, metrics, workdir: Path) -> bytes:
    """The metrics CSV exactly as the package writes it."""
    path = workdir / "metrics.csv"
    m.vqa.write_metrics_csv(str(path), metrics)
    return path.read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    transport = "none"
    threads = "one synchronous client (main thread)"
    trace_passes = 1  # fixed work of a traced run, so its counts repeat exactly
    # Exact counts an untraced run reports from one extra, untimed pass:
    # "wire_bytes" (framed, both directions) and/or "gadgets" (consumed).
    exact_counts: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, inputs: dict | None = None):
        """``inputs``: those drawn for the same seed before, to skip the draw."""
        self.seed = seed
        self.workdir = workdir
        self.inputs = inputs if inputs is not None else self.make_inputs(
            np.random.default_rng(seed))
        self.max_threads = 1

    def make_inputs(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        return sha256(json.dumps(self.inputs, sort_keys=True).encode())

    def setup(self, m: Package) -> None:
        self.m = m

    def teardown(self) -> None:
        pass

    def install_ops(self, patcher, oplog: OpLog) -> None:
        """Hook op timing into the package; default: ``run_pass`` times ops."""
        self.oplog = oplog

    def restart(self) -> None:
        """Return to the state right after set-up, so that a pass run after it
        repeats exactly (for the counting pass and the traced pairs)."""

    def rebuild_caches(self) -> None:
        """Redo the set-up work the package caches, so a trace can see it."""

    def run_pass(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> bool:
        raise NotImplementedError

    def same_output(self, a, b) -> bool:
        return a == b

    def note_frame(self, msg) -> None:
        """Sees each frame the client decodes while tracing."""

    def key_ciphertexts(self) -> tuple[int, int, int]:
        """(bytes, distinct nodes, evaluations) of final key ciphertexts since
        the last call; measured outside op timing."""
        return 0, 0, 0

    def _note_threads(self) -> None:
        self.max_threads = max(self.max_threads, threading.active_count())


class PlaintextTraining(Workload):
    """``vqa.train`` in plaintext mode; op = one ``vqa.gradients`` step."""

    name = "train-plaintext"
    trace_passes = 2

    def make_inputs(self, rng):
        # Training seeds come from the pool whose CSV digests were pinned at
        # the seed commit (reference.json), so every pass has a reference.
        return {"train_seeds": [int(s) for s in rng.permutation(INPUT_POOL)]}

    def setup(self, m):
        super().setup(m)
        self.dataset = m.vqa.load_digits_csv()
        self.reference = json.loads(REFERENCE.read_text())["train-plaintext"]

    def install_ops(self, patcher, oplog):
        super().install_ops(patcher, oplog)
        # train() looks gradients up in its own module.
        patcher.set(self.m.vqa, "gradients", oplog.wrap(self.m.vqa.gradients))

    def train_seed(self, i):
        return self.inputs["train_seeds"][i % INPUT_POOL]

    def run_pass(self, i):
        vqa = self.m.vqa
        config = vqa.TrainConfig(epochs=PLAIN_EPOCHS, seed=self.train_seed(i))
        _, metrics = vqa.train(self.dataset, config)
        return csv_bytes(self.m, metrics, self.workdir)

    def check(self, i, output):
        return sha256(output) == self.reference[str(self.train_seed(i))]


class ExactTcpTraining(Workload):
    """``protocol.run_client`` against a loopback ``TcpServer`` in
    delegated-exact mode; op = one delegated window evaluation."""

    name = "train-exact-tcp"
    transport = "loopback TCP (127.0.0.1); no real link"
    threads = "client (main thread), one server session thread, one idle accept thread"
    trace_passes = 2
    exact_counts = ("wire_bytes",)

    def make_inputs(self, rng):
        return {"train_seeds": [int(s) for s in rng.integers(0, 2**31, TCP_SEEDS)]}

    def setup(self, m):
        super().setup(m)
        full = m.vqa.load_digits_csv()
        self.dataset = m.vqa.LabeledDataset(full.samples[:TCP_SAMPLES], full.n)
        self.server = m.protocol.TcpServer(host=LOOPBACK, port=0).start()
        self._references: dict[int, bytes] = {}

    def teardown(self):
        # TcpServer.stop closes the listener, which does not wake a thread
        # blocked in accept() on Linux: stop would wait 5 s for it and leave
        # it running. Shutting the listener down first makes accept() fail,
        # so the accept thread ends at once.
        self.server.listener.shutdown(socket.SHUT_RDWR)
        self.server.stop()

    def install_ops(self, patcher, oplog):
        super().install_ops(patcher, oplog)
        make = self.m.protocol.make_exact_evaluator
        # run_client looks the factory up in its own module.
        def timed_factory(session):
            self._note_threads()  # after the handshake: session thread is up
            return oplog.wrap(make(session))

        patcher.set(self.m.protocol, "make_exact_evaluator", timed_factory)

    def config(self, i):
        return self.m.vqa.TrainConfig(
            epochs=TCP_EPOCHS, seed=self.inputs["train_seeds"][i % TCP_SEEDS],
            mode="delegated-exact-gates",
        )

    def run_pass(self, i):
        protocol = self.m.protocol
        channel = protocol.connect_tcp(LOOPBACK, self.server.port)
        _, metrics = protocol.run_client(channel, self.dataset, self.config(i))
        # Finished sessions keep their audit logs; drop them so memory does
        # not grow with the number of passes that fit in the run.
        self.server.sessions.clear()
        return csv_bytes(self.m, metrics, self.workdir)

    def check(self, i, output):
        # Reference: local training in the same mode (transport transparency).
        seed = self.inputs["train_seeds"][i % TCP_SEEDS]
        if seed not in self._references:
            _, metrics = self.m.vqa.train(self.dataset, self.config(i))
            self._references[seed] = csv_bytes(self.m, metrics, self.workdir)
        return output == self._references[seed]


class FaithfulFeatures(Workload):
    """``vqa.shadow_features`` in delegated-faithful mode through
    ``protocol.make_faithful_evaluator`` over ``serve_inproc``, claw-based
    RSP; op = one feature vector (one window per adjacent wire pair)."""

    name = "features-faithful"
    transport = "in-process queue; no real link"
    threads = "client (main thread), one server session thread"
    trace_passes = 2
    exact_counts = ("wire_bytes", "gadgets")

    def make_inputs(self, rng):
        return {
            "samples": [int(j) for j in rng.choice(DIGITS_ROWS, INPUT_POOL, replace=False)],
            "op_seeds": [int(s) for s in rng.integers(0, 2**63, INPUT_POOL)],
            "session_seed": int(rng.integers(0, 2**31)),
        }

    def setup(self, m):
        super().setup(m)
        data = m.vqa.load_digits_csv()
        if len(data) != DIGITS_ROWS:
            raise RuntimeError(f"bundled digits have {len(data)} rows, expected {DIGITS_ROWS}")
        self.states = [
            m.simulator.amplitude_encode(data.samples[j][0], data.n)
            for j in self.inputs["samples"]
        ]
        self.model = m.vqa.ShadowModel(
            m.vqa.REFERENCE_THETA_INIT, np.zeros(data.n - 1), 0.0, data.n
        )
        m.skdecomp.default_net()
        self._bounds = None
        self._key_payloads: list[dict] = []
        self.open_session()

    def open_session(self):
        protocol = self.m.protocol
        channel, self.server_session, self.thread = protocol.serve_inproc()
        self.client = protocol.ClientSession(channel)
        self.client.hello(self.inputs["session_seed"], "delegated-faithful")
        self.client.open_rsp(0)
        self.client.close_rsp()
        self.evaluator = protocol.make_faithful_evaluator(
            self.client, eps_target=FAITHFUL_EPS, rsp_mode="faithful"
        )
        self._note_threads()

    def teardown(self):
        self.client.done()
        self.thread.join(timeout=30)

    def restart(self):
        self.teardown()
        self.open_session()

    def rebuild_caches(self):
        self.m.skdecomp.default_net.cache_clear()
        self.m.skdecomp.default_net()

    def run_pass(self, i):
        j = i % INPUT_POOL
        rng = np.random.default_rng(self.inputs["op_seeds"][j])
        with self.oplog.op():
            features = self.m.vqa.shadow_features(
                self.states[j], self.model, "delegated-faithful", rng,
                FAITHFUL_EPS, self.evaluator,
            )
        # The server logs every received payload; keep that from growing
        # with the number of ops that fit in the run.
        self.server_session.audit.clear()
        return features

    def window_bounds(self) -> np.ndarray:
        """Per window, the largest |faithful - exact| the synthesis allows.

        Each rotation R_i is replaced by V_i with phase-invariant distance
        d_i = sqrt(1 - |tr(R_i^dag V_i)|/2) <= eps_target; the operator-norm
        distance up to phase is sqrt(2) d_i, the errors add along the window,
        and an expectation of a norm-1 observable moves by at most twice the
        operator-norm error: bound = 2 sqrt(2) sum_i d_i.
        """
        if self._bounds is None:
            sim, sk = self.m.simulator, self.m.skdecomp
            bounds = []
            for v in range(1, self.model.n):
                total = 0.0
                for g in self.m.vqa.build_shadow_circuit(self.model, v):
                    if g.kind not in sim.ROTATION_1Q:
                        continue
                    seq, _ = sk.decompose_circuit([g], FAITHFUL_EPS)
                    u = np.eye(2, dtype=complex)
                    for h in seq:
                        u = sim.FIXED_1Q[h.kind] @ u
                    total += sk.trace_distance(sim.ROTATION_1Q[g.kind](g.angle), u)
                bounds.append(2 * sqrt(2) * total + 1e-9)
            self._bounds = np.array(bounds)
        return self._bounds

    def check(self, i, output):
        exact = self.m.vqa.shadow_features(self.states[i % INPUT_POOL], self.model)
        return bool(
            np.all(np.isfinite(output))
            and np.all(np.abs(output - exact) <= self.window_bounds())
        )

    def same_output(self, a, b):
        return np.array_equal(a, b)

    def note_frame(self, msg) -> None:
        if msg.kind == "EncKeysUpdate" and msg.payload.get("enc_keys"):
            self._key_payloads.append(msg.payload)

    def key_ciphertexts(self):
        he = self.m.classical_he
        size = nodes = 0
        for payload in self._key_payloads:
            row = payload["enc_keys"][0]
            hexes = [h for pair in row for h in pair]
            size += sum(len(h) // 2 for h in hexes)
            nodes += count_nodes([he.ct_from_bytes(bytes.fromhex(h)) for h in hexes])
        evaluations = len(self._key_payloads)
        self._key_payloads = []
        return size, nodes, evaluations


class QheDeep(Workload):
    """Local ``qhe.keygen`` -> ``encrypt`` -> ``eval_circuit`` ->
    ``decrypt_state`` (plus ``xx_expectation_sign``) on random Clifford+T
    circuits with ideal RSP; op = one round trip."""

    name = "qhe-deep"
    trace_passes = 4
    exact_counts = ("gadgets",)

    def make_inputs(self, rng):
        # The acceptance-2 draw (uniform over QHE_KINDS, two distinct wires
        # for CNOT/CZ), continued until the circuit holds QHE_T_GATES T/T†.
        ops = []
        for _ in range(INPUT_POOL):
            circ, t_count = [], 0
            while t_count < QHE_T_GATES:
                kind = QHE_KINDS[rng.integers(len(QHE_KINDS))]
                wires = rng.choice(QHE_WIRES, size=2 if kind in ("CNOT", "CZ") else 1,
                                   replace=False)
                circ.append([kind, [int(w) for w in wires]])
                t_count += kind in ("T", "Tdagger")
            amps = rng.normal(size=(2, 2**QHE_WIRES))
            ops.append({
                "circuit": circ,
                "state": [[float(x), float(y)] for x, y in zip(*amps)],
                "seed": int(rng.integers(0, 2**63)),
            })
        return {"ops": ops}

    def setup(self, m):
        super().setup(m)
        self.last_keys = ()

    def prepared(self, j):
        sim = self.m.simulator
        spec = self.inputs["ops"][j]
        circuit = [sim.gate(kind, *wires) for kind, wires in spec["circuit"]]
        amps = np.array([complex(re, im) for re, im in spec["state"]])
        return circuit, sim.StateVector(QHE_WIRES, amps / np.linalg.norm(amps))

    def run_pass(self, i):
        j = i % INPUT_POOL
        qhe, sim = self.m.qhe, self.m.simulator
        circuit, psi = self.prepared(j)
        xx = sim.PauliString(("X", "X"), (0, 1))
        rng = np.random.default_rng(self.inputs["ops"][j]["seed"])
        with self.oplog.op():
            client, ek = qhe.keygen(QHE_SECURITY, QHE_WIRES, circuit, rng)
            cs, _ = qhe.encrypt(client, psi, rng)
            cs = qhe.eval_circuit(cs, circuit, ek, rng)
            out = qhe.decrypt_state(client, cs)
            value = qhe.xx_expectation_sign(client, cs, (0, 1)) * sim.expectation(cs.register, xx)
        self.last_keys = cs.encrypted_keys
        return out.amplitudes.tobytes(), value

    def check(self, i, output):
        sim = self.m.simulator
        circuit, psi = self.prepared(i % INPUT_POOL)
        want = sim.apply_circuit(psi, circuit)
        got = sim.StateVector(QHE_WIRES, np.frombuffer(output[0], dtype=complex))
        xx = sim.expectation(want, sim.PauliString(("X", "X"), (0, 1)))
        return sim.fidelity(got, want) >= FIDELITY_FLOOR and abs(output[1] - xx) <= 1e-9

    def key_ciphertexts(self):
        he = self.m.classical_he
        cts = [ct for pair in self.last_keys for ct in pair]
        size = sum(len(he.ct_to_bytes(ct)) for ct in cts)
        evaluations = 1 if cts else 0
        self.last_keys = ()
        return size, count_nodes(cts), evaluations


def count_nodes(cts) -> int:
    """Distinct nodes of the ciphertext DAGs (children and key-switch keys)."""
    seen: set[int] = set()
    stack = list(cts)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.children)
        stack.extend(node.sk_enc)
    return len(seen)


WORKLOADS = {w.name: w for w in (PlaintextTraining, ExactTcpTraining, FaithfulFeatures, QheDeep)}
