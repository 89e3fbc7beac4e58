"""Acceptance suite: the nine end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n>: PASS|FAIL — detail`` and then asserts, so
the verdict is visible in captured output as well as in the pytest result.
"""
import time
from itertools import product
from math import pi
from operator import xor

import numpy as np

from qhevqa.simulator import (
    StateVector,
    apply_circuit,
    apply_gate,
    fidelity,
    gate,
    prepare_plus_theta,
    reduced_density_matrix,
    trace_distance_dm,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def rand_state(n, rng):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


# --- 1. gadget demo ----------------------------------------------------------


def test_acceptance_1_gadget_demo():
    from qhevqa.cli import ANALYTIC_P0, gadget_demo

    t0 = time.perf_counter()
    result = gadget_demo(2048, seed=0)
    dt = time.perf_counter() - t0
    dev_direct = abs(result["direct"]["0"] - ANALYTIC_P0)
    dev_gadget = abs(result["gadget"]["0"] - ANALYTIC_P0)
    ok = dev_direct <= 0.024 and dev_gadget <= 0.024 and dt < 1.0
    report(
        1,
        ok,
        f"2048 shots: direct dev {dev_direct:.4f}, gadget dev {dev_gadget:.4f} "
        f"(band 0.024), {dt:.2f} s (< 1 s)",
    )


# --- 2. homomorphic round trip ----------------------------------------------


def _random_clifford_t_circuit(n, rng, max_t=50):
    kinds_1q = ["X", "Y", "Z", "H", "P", "Pdagger"]
    circ = []
    for _ in range(int(rng.integers(0, max_t + 1))):
        circ.append(gate(str(rng.choice(["T", "Tdagger"])), int(rng.integers(n))))
    for _ in range(int(rng.integers(5, 15))):
        if n > 1 and rng.integers(2):
            w = rng.choice(n, 2, replace=False)
            circ.append(gate(str(rng.choice(["CNOT", "CZ"])), int(w[0]), int(w[1])))
        else:
            circ.append(gate(str(rng.choice(kinds_1q)), int(rng.integers(n))))
    rng.shuffle(circ)
    return circ


def _round_trip_sweep(rng, count, rsp_mode):
    from qhevqa.qhe import decrypt_state, encrypt, eval_circuit, keygen

    worst = 1.0
    for _ in range(count):
        n = int(rng.integers(1, 7))
        circ = _random_clifford_t_circuit(n, rng)
        psi = rand_state(n, rng)
        ck, ek = keygen(16, n, circ, rng, rsp_mode=rsp_mode)
        cs, _ = encrypt(ck, psi, rng)
        cs = eval_circuit(cs, circ, ek, rng)
        worst = min(worst, fidelity(decrypt_state(ck, cs), apply_circuit(psi, circ)))
    return worst


def test_acceptance_2_homomorphic_round_trip():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst_ideal = _round_trip_sweep(rng, 100, "ideal")
    dt_ideal = time.perf_counter() - t0
    t0 = time.perf_counter()
    worst_faithful = _round_trip_sweep(rng, 100, "faithful")
    dt_faithful = time.perf_counter() - t0
    ok = (
        worst_ideal >= 1 - 1e-9
        and worst_faithful >= 1 - 1e-9
        and dt_ideal < 60
        and dt_faithful < 600
    )
    report(
        2,
        ok,
        f"100 circuits each: worst fidelity deficit ideal {1 - worst_ideal:.1e} "
        f"({dt_ideal:.1f} s < 60 s), faithful {1 - worst_faithful:.1e} "
        f"({dt_faithful:.1f} s < 600 s)",
    )


# --- 3. conjugation tables ---------------------------------------------------


def test_acceptance_3_conjugation_tables():
    from qhevqa.pauli_frame import CLIFFORD_KINDS, update_keys, verify_conjugation

    checked, failures = 0, []
    for kind in CLIFFORD_KINDS + ("T", "Tdagger"):
        wires = (0, 1) if kind in ("CNOT", "CZ") else (0,)
        g = gate(kind, *wires)
        for keys in product((0, 1), repeat=2 * len(wires)):
            ok, new_keys, p = verify_conjugation(g, keys)
            if not ok:
                failures.append((kind, keys, "no phase-invariant match"))
                continue
            if kind in ("T", "Tdagger"):
                if p != keys[0]:
                    failures.append((kind, keys, "byproduct != X key"))
            else:
                # The key update evaluation runs, on plain bits.
                pairs = {w: keys[2 * i : 2 * i + 2] for i, w in enumerate(wires)}
                update_keys(pairs, g, xor)
                if tuple(b for w in wires for b in pairs[w]) != new_keys:
                    failures.append((kind, keys, "key update disagrees"))
            checked += 1
    report(
        3,
        not failures,
        f"{checked} (gate, pad) pairs verified against the matrix oracle "
        f"within 1e-12; failures: {failures[:3]}",
    )


# --- 4. blindness statistics -------------------------------------------------


def _pad_average_full(state):
    """Exact average of the padded register's density matrix over all pads."""
    n = state.num_qubits
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for bits in product((0, 1), repeat=2 * n):
        padded = state
        for w in range(n):
            if bits[2 * w + 1]:
                padded = apply_gate(padded, gate("Z", w))
            if bits[2 * w]:
                padded = apply_gate(padded, gate("X", w))
        acc += np.outer(padded.amplitudes, padded.amplitudes.conj())
    return acc / 4**n


def test_acceptance_4_blindness():
    from qhevqa.qhe import pad_average_density
    from qhevqa.rsp_gadget import assemble_gadget_state, twist_bits

    rng = np.random.default_rng(4)
    worst = 0.0

    # (a) per-wire pad averages on random registers
    for _ in range(10):
        n = int(rng.integers(1, 4))
        psi = rand_state(n, rng)
        for w in range(n):
            worst = max(
                worst, trace_distance_dm(pad_average_density(psi, w), np.eye(2) / 2)
            )

    # (b) gadget wires averaged over the exact preparation ensemble
    for k_bit in (0, 1):
        p = twist_bits(k_bit)
        acc = [np.zeros((2, 2), dtype=complex) for _ in range(4)]
        count = 0
        for h0, h1 in product((0, 2), repeat=2):
            for t0b, t1b in product((0, 1), repeat=2):
                st = assemble_gadget_state(
                    [prepare_plus_theta(h0 * pi / 2), prepare_plus_theta(h1 * pi / 2)],
                    [
                        prepare_plus_theta((p[0] + 2 * t0b) * pi / 2),
                        prepare_plus_theta((p[1] + 2 * t1b) * pi / 2),
                    ],
                )
                for w in range(4):
                    acc[w] += reduced_density_matrix(st, [w])
                count += 1
        for w in range(4):
            worst = max(worst, trace_distance_dm(acc[w] / count, np.eye(2) / 2))

    # (c) averaged cipherstates of |0..0> and of a random state coincide
    zero = StateVector(2)
    psi = rand_state(2, rng)
    gap = float(
        np.max(np.abs(_pad_average_full(zero) - _pad_average_full(psi)))
    )
    worst = max(worst, gap)

    report(
        4,
        worst < 1e-12,
        f"pad averages, gadget-wire averages and Enc(|0>) vs Enc(rho) all "
        f"maximally mixed; worst deviation {worst:.1e} (< 1e-12)",
    )


# --- 5. rotation synthesis ---------------------------------------------------


def test_acceptance_5_rotation_synthesis(capsys):
    from qhevqa.cli import decompose_report_tallies
    from qhevqa.simulator import ROTATION_1Q
    from qhevqa.skdecomp import (
        DEFAULT_DEPTH,
        default_net,
        sk_decompose,
        trace_distance,
    )

    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    net = default_net()
    worst, improved = 0.0, 0
    for _ in range(50):
        axis = str(rng.choice(["RX", "RY", "RZ"]))
        u = ROTATION_1Q[axis](float(rng.uniform(0, 2 * pi)))
        d0 = trace_distance(sk_decompose(u, 0, net).unitary, u)
        dd = trace_distance(sk_decompose(u, DEFAULT_DEPTH, net).unitary, u)
        worst = max(worst, dd)
        improved += dd < d0
    tallies = decompose_report_tallies(5.57, "X")
    t_total = tallies["T"] + tallies["Tdagger"]
    dt = time.perf_counter() - t0
    with capsys.disabled():
        print(
            f"\nRX(5.57) comparison-depth tallies: T={tallies['T']} "
            f"Tdagger={tallies['Tdagger']} H={tallies['H']} "
            f"(distance {tallies['distance']:.4f}) | published single-rotation "
            f"reference: T=35 Tdagger=24 H=28"
        )
    ok = worst <= 1e-2 and improved >= 48 and 40 <= t_total <= 200 and dt < 120
    report(
        5,
        ok,
        f"50 rotations: worst certified distance {worst:.2e} (<= 1e-2), "
        f"{improved}/50 improved with depth (>= 48), T+Tdagger {t_total} in "
        f"[40, 200], {dt:.1f} s (< 120 s)",
    )


# --- 6. gradient fidelity ----------------------------------------------------


def test_acceptance_6_gradient_fidelity():
    from qhevqa.simulator import amplitude_encode
    from qhevqa.vqa import ShadowModel, TrainConfig, gradients

    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        n = 4
        model = ShadowModel(
            rng.uniform(0, 2 * pi, (2, 4)),
            rng.uniform(-0.5, 0.5, n - 1),
            float(rng.uniform(-0.2, 0.2)),
            n,
        )
        states = [
            amplitude_encode(np.abs(rng.normal(size=2**n)) + 1e-3, n)
            for _ in range(2)
        ]
        labels = np.array([0.0, 1.0])
        g_ps = gradients(states, labels, model, TrainConfig())
        g_cd = gradients(
            states, labels, model, TrainConfig(grad_method="central-difference")
        )
        for a, b in zip(g_ps, g_cd):
            dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))
                               / (1e-2 + np.abs(np.asarray(b)))))
            gap = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
            # relative 1e-4 away from zero, absolute 1e-6 near zeros
            worst = max(worst, min(dev / 1e-4, gap / 1e-6))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 30
    report(
        6,
        ok,
        f"20 models: parameter-shift vs central-difference worst normalized "
        f"deviation {worst:.3f} (<= 1, rel 1e-4 / abs 1e-6), {dt:.1f} s (< 30 s)",
    )


# --- 7. classifier -----------------------------------------------------------


def test_acceptance_7_classifier():
    from qhevqa.vqa import TrainConfig, load_digits_csv, train

    t0 = time.perf_counter()
    dataset = load_digits_csv()
    accs, losses_decreased = [], []
    for seed in range(5):
        _, metrics = train(dataset, TrainConfig(seed=seed))
        accs.append(metrics[-1].test_acc)
        losses_decreased.append(metrics[-1].loss < metrics[0].loss)
    dt = time.perf_counter() - t0
    median = float(np.median(accs))
    ok = median >= 0.90 and all(losses_decreased) and dt < 300
    report(
        7,
        ok,
        f"5 seeds, 20 epochs: test accuracies {[round(a, 3) for a in accs]}, "
        f"median {median:.3f} (>= 0.90), loss decreased on all seeds: "
        f"{all(losses_decreased)}, {dt:.0f} s (< 300 s)",
    )


# --- 8. mode equivalence -----------------------------------------------------


def test_acceptance_8_mode_equivalence(tmp_path):
    from qhevqa.protocol import TcpServer, connect_tcp, run_client, serve_inproc
    from qhevqa.vqa import (
        LabeledDataset,
        TrainConfig,
        load_digits_csv,
        train,
        write_metrics_csv,
    )

    t0 = time.perf_counter()
    full = load_digits_csv()
    dataset = LabeledDataset(full.samples[:48], full.n)
    epochs = 3

    def csv_for(metrics, name):
        path = tmp_path / name
        write_metrics_csv(str(path), metrics)
        return path.read_bytes()

    _, plain = train(dataset, TrainConfig(epochs=epochs, seed=8))
    _, exact = train(
        dataset, TrainConfig(epochs=epochs, seed=8, mode="delegated-exact-gates")
    )
    plain_csv = csv_for(plain, "plain.csv").decode().splitlines()
    exact_csv = csv_for(exact, "exact.csv").decode().splitlines()
    mode_gap = 0.0
    for la, lb in zip(plain_csv[1:], exact_csv[1:]):
        for ca, cb in zip(la.split(",")[1:], lb.split(",")[1:]):
            mode_gap = max(mode_gap, abs(float(ca) - float(cb)))

    config = TrainConfig(epochs=epochs, seed=8, mode="delegated-exact-gates")
    channel, _session, thread = serve_inproc()
    _, inproc_metrics = run_client(channel, dataset, config)
    thread.join(timeout=30)
    server = TcpServer(port=0).start()
    try:
        _, tcp_metrics = run_client(
            connect_tcp(server.host, server.port), dataset, config
        )
    finally:
        server.stop()
    inproc_bytes = csv_for(inproc_metrics, "inproc.csv")
    tcp_bytes = csv_for(tcp_metrics, "tcp.csv")

    dt = time.perf_counter() - t0
    ok = mode_gap <= 1e-6 and inproc_bytes == tcp_bytes and dt < 900
    report(
        8,
        ok,
        f"plaintext vs delegated-exact CSV gap {mode_gap:.1e} (<= 1e-6), "
        f"inproc vs TCP CSVs byte-identical: {inproc_bytes == tcp_bytes}, "
        f"{dt:.0f} s (< 900 s)",
    )


# --- 9. protocol robustness --------------------------------------------------


def test_acceptance_9_protocol_robustness():
    from qhevqa.protocol import (
        PHASES,
        ClientSession,
        Message,
        ProtocolError,
        VERSION,
        decode_message,
        encode_message,
        serve_inproc,
    )

    rng = np.random.default_rng(9)
    leaks = 0
    for _ in range(10_000):
        blob = rng.bytes(int(rng.integers(0, 64)))
        try:
            msg = decode_message(blob)
            encode_message(msg)
        except ProtocolError:
            continue
        except Exception:  # noqa: BLE001 - anything else is a leak
            leaks += 1

    crashed = 0
    for _ in range(50):
        channel, _session, thread = serve_inproc()
        for _i in range(5):
            try:
                channel.send_bytes(rng.bytes(int(rng.integers(0, 64))))
            except Exception:  # noqa: BLE001 - peer may have closed
                break
        channel.close()
        thread.join(timeout=5)
        crashed += thread.is_alive()

    # The phase machine, walked on live sessions: Hello then Done, Done at
    # once, and a message out of its phase (a run before Hello, a second
    # Hello) refused with a phase error.
    walks, refusals = [], []
    for hello in (True, False):
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        walk = [session.phase]
        if hello:
            client.hello(0, "x")
            walk.append(session.phase)
        client.done()
        thread.join(timeout=5)
        walks.append((*walk, session.phase))
    for hello, kind, payload in (
        (False, "RunRequest", {}),
        (True, "Hello", {"version": VERSION, "session_seed": 1}),
    ):
        channel, session, thread = serve_inproc()
        if hello:
            ClientSession(channel).hello(0, "x")
        channel.send(Message(kind, payload))
        refusals.append(channel.recv().payload.get("code"))
        thread.join(timeout=5)
    model_ok = (
        walks == [("handshake", "open", "done"), ("handshake", "done")]
        and {phase for walk in walks for phase in walk} == set(PHASES)
        and refusals == ["phase", "phase"]
    )
    ok = leaks == 0 and crashed == 0 and model_ok
    report(
        9,
        ok,
        f"10000 fuzzed frames: {leaks} decoder leaks; 50 live fuzz sessions: "
        f"{crashed} hung servers; phase machine sound on live sessions: {model_ok}",
    )
