"""Acceptance suite: the nine end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n>: PASS|FAIL — detail`` and then asserts, so
the verdict is visible in captured output (``pytest -rP``) as well as in the
pytest result. Criteria 1-6 and 9 are the checks ``qhevqa verify`` runs,
called here at the criteria's sizes and seeds; their bounds are in the checks
and in each detail line.
"""
import time

import numpy as np

from qhevqa.cli import (
    check_conjugation,
    check_gadget_contract,
    check_gradients,
    check_pad_mixing,
    check_protocol,
    check_qhe_roundtrip,
    check_sk,
    decompose_report_tallies,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_acceptance_1_gadget_demo():
    report(1, *check_gadget_contract(2048, seed=0, band=0.024))


def test_acceptance_2_homomorphic_round_trip():
    report(2, *check_qhe_roundtrip(100, seed=2))


def test_acceptance_3_conjugation_tables():
    report(3, *check_conjugation())


def test_acceptance_4_blindness():
    report(4, *check_pad_mixing(10, seed=4))


def test_acceptance_5_rotation_synthesis(capsys):
    verdict = check_sk(50, seed=5, min_improved=48)
    tallies = decompose_report_tallies(5.57, "X")
    with capsys.disabled():
        print(
            f"\nRX(5.57) comparison-depth tallies: T={tallies['T']} "
            f"Tdagger={tallies['Tdagger']} H={tallies['H']} "
            f"(distance {tallies['distance']:.4f}) | published single-rotation "
            f"reference: T=35 Tdagger=24 H=28"
        )
    report(5, *verdict)


def test_acceptance_6_gradient_fidelity():
    report(6, *check_gradients(20, seed=6))


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


def test_acceptance_9_protocol_robustness():
    report(9, *check_protocol(10_000, 50, seed=9))
