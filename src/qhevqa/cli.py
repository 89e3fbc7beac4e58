"""Command-line entry point: demos, decomposition, training, verification.

Subcommands:

- ``gadget-demo``   direct vs gadget realization of a T gate, shot statistics
- ``decompose``     certified {H, T, Tdagger} synthesis of one rotation
- ``train``         the window-feature classifier in any mode/transport
- ``verify``        the invariant suite with per-property runtimes

Each subcommand takes only the options its handler reads. A run given
``--out`` also writes ``manifest.json``: the subcommand and every option it
parsed, so its outputs can be reproduced exactly. CSV is the canonical record
and the SVG plot is a native line rendering with no plotting dependency.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from itertools import product
from math import pi
from operator import xor

import numpy as np

from .simulator import StateVector, apply_circuit, gate, prepare_plus_theta, random_state
from .vqa import MODES

TRANSPORTS = ("local", "inproc", "tcp")


def load_config_file(path: str) -> dict[str, str]:
    """Key=value lines; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# --- gadget demo ------------------------------------------------------------

ANALYTIC_P0 = float(np.cos(pi / 8) ** 2)
DEMO_CIRCUIT = [gate("H", 0), gate("T", 0), gate("H", 0)]


def _gadget_shot(rng: np.random.Generator) -> int:
    """One shot of the demo circuit on |0> through the QHE scheme: keygen
    with an ideal-RSP gadget, encryption, homomorphic evaluation (the T gate
    consumes the gadget, routed by its key ciphertext), decryption and a
    measurement."""
    from .qhe import SECURITY, decrypt_state, encrypt, eval_circuit, keygen
    from .simulator import measure

    ck, ek = keygen(SECURITY, 1, DEMO_CIRCUIT, rng)
    cs, _ = encrypt(ck, StateVector(1), rng)
    cs = eval_circuit(cs, DEMO_CIRCUIT, ek, rng)
    bit, _ = measure(decrypt_state(ck, cs), 0, rng)
    return bit


def gadget_demo(shots: int, seed: int) -> dict:
    """Shot statistics for the direct and gadget T-gate circuits."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    p1_direct = 1.0 - float(abs(apply_circuit(StateVector(1), DEMO_CIRCUIT).amplitudes[0]) ** 2)
    direct_ones = int(np.count_nonzero(rng.random(shots) < p1_direct))
    gadget_ones = sum(_gadget_shot(rng) for _ in range(shots))
    return {
        "shots": shots,
        "direct": {"0": 1.0 - direct_ones / shots, "1": direct_ones / shots},
        "gadget": {"0": 1.0 - gadget_ones / shots, "1": gadget_ones / shots},
        "analytic": {"0": ANALYTIC_P0, "1": 1.0 - ANALYTIC_P0},
    }


def cmd_gadget_demo(args) -> int:
    t0 = time.perf_counter()
    report = gadget_demo(args.shots, args.seed)
    dt = time.perf_counter() - t0
    print(f"T-gate demo, {args.shots} shots, seed {args.seed}")
    print(f"{'outcome':>8} {'direct':>10} {'gadget':>10} {'analytic':>10}")
    for bit in ("0", "1"):
        print(
            f"{bit:>8} {report['direct'][bit]:>10.4f} "
            f"{report['gadget'][bit]:>10.4f} {report['analytic'][bit]:>10.5f}"
        )
    print(f"elapsed {dt:.3f} s")
    _maybe_write_outputs(args, {"report": report})
    return 0


# --- decompose --------------------------------------------------------------


def _format_matrix(m: np.ndarray) -> str:
    rows = []
    for row in m:
        rows.append(
            "  [" + ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) + "]"
        )
    return "\n".join(rows)


def decompose_report_tallies(angle: float, axis: str = "X") -> dict:
    """Gate tallies at the fixed comparison depth, plus achieved distance.

    Gate counts are only comparable between implementations at similar
    accuracy, so the published-reference comparison always uses the same
    recursion depth rather than the requested tolerance.
    """
    from .simulator import ROTATION_1Q
    from .skdecomp import REPORT_DEPTH, default_net, sk_decompose, trace_distance

    u = ROTATION_1Q[f"R{axis}"](angle)
    word, approx = sk_decompose(u, REPORT_DEPTH, default_net())
    return {
        "T": word.count("T"),
        "Tdagger": word.count("Tdagger"),
        "H": word.count("H"),
        "distance": trace_distance(approx, u),
    }


def cmd_decompose(args) -> int:
    from .simulator import ROTATION_1Q
    from .skdecomp import decompose_circuit, default_net, ops_unitary, trace_distance

    kind = f"R{args.axis}"
    target = ROTATION_1Q[kind](args.angle)
    t0 = time.perf_counter()
    default_net()  # built once per process; timed apart from the synthesis
    print(f"net built in {time.perf_counter() - t0:.3f} s")
    t0 = time.perf_counter()
    try:
        circuit, _ = decompose_circuit([gate(kind, 0, angle=args.angle)], args.epsilon)
    except Exception as exc:  # noqa: BLE001 - report and fail cleanly
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dt = time.perf_counter() - t0
    ops = [g.kind for g in circuit]
    achieved = ops_unitary(ops)
    dist = trace_distance(achieved, target)
    tallies = {
        "T": ops.count("T"),
        "Tdagger": ops.count("Tdagger"),
        "H": ops.count("H"),
    }
    print(f"Output 1: gate sequence ({len(ops)} gates)")
    print("  " + (" ".join(ops) if ops else "(empty — target within tolerance)"))
    print("Output 2: target unitary")
    print(_format_matrix(target))
    print("Output 3: achieved unitary")
    print(_format_matrix(achieved))
    print(f"Output 4: certified distance {dist:.6e} (target eps {args.epsilon:g})")
    print(
        f"tallies (certified sequence): T={tallies['T']} "
        f"Tdagger={tallies['Tdagger']} H={tallies['H']}"
    )
    ref = decompose_report_tallies(args.angle, args.axis)
    print(
        f"comparison depth tallies: T={ref['T']} Tdagger={ref['Tdagger']} "
        f"H={ref['H']} (distance {ref['distance']:.4f})  |  "
        f"published single-rotation reference: T=35 Tdagger=24 H=28"
    )
    print(f"elapsed {dt:.3f} s")
    _maybe_write_outputs(args, {"sequence": ops, "distance": dist, "tallies": tallies})
    return 0 if dist <= args.epsilon else 1


# --- train ------------------------------------------------------------------


def write_training_svg(path: str, metrics) -> None:
    """Native two-series SVG: loss and test accuracy against the epoch."""
    width, height, margin = 640, 400, 50
    epochs = [m.epoch for m in metrics]
    losses = [m.loss for m in metrics]
    accs = [m.test_acc for m in metrics]
    x_max = max(epochs) if epochs else 1
    y_max = max(1.0, max(losses, default=1.0))

    def sx(x):
        return margin + (width - 2 * margin) * x / x_max

    def sy(y):
        return height - margin - (height - 2 * margin) * y / y_max

    def poly(series, color):
        pts = " ".join(f"{sx(e):.1f},{sy(v):.1f}" for e, v in zip(epochs, series))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        poly(losses, "#c0392b"),
        poly(accs, "#2471a3"),
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        'font-size="13">epoch</text>',
        f'<text x="{width - margin}" y="{margin - 10}" text-anchor="end" '
        'font-size="12" fill="#c0392b">loss</text>',
        f'<text x="{width - margin - 60}" y="{margin - 10}" text-anchor="end" '
        'font-size="12" fill="#2471a3">test accuracy</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{margin - 8}" y="{sy(frac * y_max):.0f}" text-anchor="end" '
            f'font-size="11">{frac * y_max:.2f}</text>'
        )
        parts.append(
            f'<text x="{sx(frac * x_max):.0f}" y="{height - margin + 16}" '
            f'text-anchor="middle" font-size="11">{frac * x_max:.0f}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_train(args) -> int:
    from .vqa import (
        TrainConfig,
        VQAError,
        check_trainable,
        load_digits_csv,
        train,
        write_metrics_csv,
    )

    if args.dataset is not None and not os.path.exists(args.dataset):
        print(f"error: dataset not found: {args.dataset}", file=sys.stderr)
        return 2
    try:
        dataset = load_digits_csv(args.dataset)
    except Exception as exc:  # noqa: BLE001
        print(f"error: could not load dataset: {exc}", file=sys.stderr)
        return 2
    try:
        check_trainable(dataset)
    except VQAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = TrainConfig(
        mode=args.mode, seed=args.seed, eps_target=args.epsilon, epochs=args.epochs
    )

    t0 = time.perf_counter()
    if args.transport == "local":
        model, metrics = train(dataset, config)
    elif args.transport == "inproc":
        from .protocol import run_client, serve_inproc

        channel, _session, thread = serve_inproc()
        model, metrics = run_client(channel, dataset, config)
        thread.join(timeout=10)
    else:  # tcp
        from .protocol import TcpServer, connect_tcp, run_client

        try:
            server = TcpServer(port=args.port).start()
        except OSError as exc:
            print(f"error: {exc.strerror}", file=sys.stderr)
            return 2
        except ValueError as exc:  # a malformed QHEVQA_PORT
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            channel = connect_tcp(server.host, server.port)
            model, metrics = run_client(channel, dataset, config)
        finally:
            server.stop()
    dt = time.perf_counter() - t0

    # Artefacts first: a reader that closes stdout early (``| head -1``)
    # cannot stop them being written.
    out_dir = _out_dir(args)
    if out_dir is not None:
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), metrics)
        write_training_svg(os.path.join(out_dir, "training.svg"), metrics)
        with open(os.path.join(out_dir, "model.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "theta": model.theta.tolist(),
                    "w": model.w.tolist(),
                    "bias": model.bias,
                    "n": model.n,
                },
                fh,
                indent=2,
            )
            fh.write("\n")
        _write_json(os.path.join(out_dir, "manifest.json"), run_manifest(args))
    final = metrics[-1]
    print(
        f"trained {config.epochs} epochs in {dt:.1f} s "
        f"(mode {config.mode}, transport {args.transport}, seed {config.seed})"
    )
    print(
        f"final loss {final.loss:.4f}, train acc {final.train_acc:.3f}, "
        f"test acc {final.test_acc:.3f}"
    )
    if out_dir is not None:
        print(f"artifacts in {out_dir}")
    return 0


# --- verify -----------------------------------------------------------------


# Each property the acceptance suite states is one function here, returning
# (ok, detail) and taking its sizes and seed (and the bounds that scale with
# them) as parameters. ``verify`` runs them at small sizes and
# ``tests/test_acceptance.py`` at the criteria's sizes. The time limits, the
# same at every size, are constants.

GADGET_CONTRACT_LIMIT_S = 1.0
QHE_ROUNDTRIP_LIMITS_S = (60.0, 600.0)  # ideal, faithful
SK_LIMIT_S = 120.0
GRADIENT_LIMIT_S = 30.0


def check_gadget_contract(shots: int, seed: int, band: float):
    """Acceptance 1: the direct and the gadget T-gate circuits both read P(0)
    within ``band`` of cos^2(pi/8)."""
    t0 = time.perf_counter()
    report = gadget_demo(shots, seed)
    dt = time.perf_counter() - t0
    dev_direct = abs(report["direct"]["0"] - ANALYTIC_P0)
    dev_gadget = abs(report["gadget"]["0"] - ANALYTIC_P0)
    ok = dev_direct <= band and dev_gadget <= band and dt < GADGET_CONTRACT_LIMIT_S
    return ok, (
        f"{shots} shots: direct dev {dev_direct:.4f}, gadget dev {dev_gadget:.4f} "
        f"(band {band:g}), {dt:.2f} s (< {GADGET_CONTRACT_LIMIT_S:g} s)"
    )


def _random_clifford_t_circuit(n: int, rng: np.random.Generator) -> list:
    """Up to 50 T/Tdagger and 5 to 14 Cliffords, shuffled."""
    kinds_1q = ["X", "Y", "Z", "H", "P", "Pdagger"]
    circ = []
    for _ in range(int(rng.integers(0, 51))):
        circ.append(gate(str(rng.choice(["T", "Tdagger"])), int(rng.integers(n))))
    for _ in range(int(rng.integers(5, 15))):
        if n > 1 and rng.integers(2):
            w = rng.choice(n, 2, replace=False)
            circ.append(gate(str(rng.choice(["CNOT", "CZ"])), int(w[0]), int(w[1])))
        else:
            circ.append(gate(str(rng.choice(kinds_1q)), int(rng.integers(n))))
    rng.shuffle(circ)
    return circ


def check_qhe_roundtrip(count: int, seed: int):
    """Acceptance 2: ``count`` random Clifford+T circuits on 1-6 wires decrypt
    to the plaintext output with ideal RSP gadgets, then ``count`` more with
    claw-based (faithful) ones, all drawn from one generator."""
    from collections import deque

    from .qhe import SECURITY, decrypt_state, encrypt, eval_circuit, keygen
    from .rsp_gadget import claw_round, rsp_server_commit, rsp_server_measure
    from .simulator import apply_circuit, fidelity

    def local_claw(left):
        return claw_round(rsp_server_commit, rsp_server_measure, left, deque())

    rng = np.random.default_rng(seed)
    ok, parts = True, []
    for name, rounds, limit in zip(("ideal", "faithful"), (None, local_claw),
                                   QHE_ROUNDTRIP_LIMITS_S):
        t0 = time.perf_counter()
        worst = 1.0
        for _ in range(count):
            n = int(rng.integers(1, 7))
            circ = _random_clifford_t_circuit(n, rng)
            psi = random_state(n, rng)
            ck, ek = keygen(SECURITY, n, circ, rng, rounds)
            cs, _ = encrypt(ck, psi, rng)
            cs = eval_circuit(cs, circ, ek, rng)
            worst = min(worst, fidelity(decrypt_state(ck, cs), apply_circuit(psi, circ)))
        dt = time.perf_counter() - t0
        ok = ok and worst >= 1 - 1e-9 and dt < limit
        parts.append(f"{name} {1 - worst:.1e} ({dt:.1f} s < {limit:g} s)")
    return ok, f"{count} circuits each: worst fidelity deficit " + ", ".join(parts)


def check_conjugation():
    """Acceptance 3: every tracked Clifford and T/Tdagger on every pad against
    the matrix oracle. A Clifford leaves no phase byproduct, and its key
    update, run through ``update_keys`` as evaluation runs it, is the
    oracle's; T and Tdagger leave the byproduct P^a of the pad's X key a."""
    from .pauli_frame import CLIFFORD_KINDS, update_keys, verify_conjugation

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
            elif p != 0:
                failures.append((kind, keys, "Clifford byproduct"))
            else:
                pairs = {w: keys[2 * i : 2 * i + 2] for i, w in enumerate(wires)}
                update_keys(pairs, g, xor)
                if tuple(b for w in wires for b in pairs[w]) != new_keys:
                    failures.append((kind, keys, "key update disagrees"))
            checked += 1
    return not failures, (
        f"{checked} (gate, pad) pairs verified against the matrix oracle "
        f"within 1e-12; failures: {failures[:3]}"
    )


def _pad_average(state: StateVector, wires) -> np.ndarray:
    """Exact average over every pad of ``wires`` of the padded register's
    density matrix, reduced to ``wires``."""
    from .pauli_frame import apply_pad
    from .simulator import reduced_density_matrix

    acc = 0
    for bits in product((0, 1), repeat=2 * len(wires)):
        pad = [(0, 0)] * state.num_qubits
        for w, a, b in zip(wires, bits[::2], bits[1::2]):
            pad[w] = (a, b)
        acc = acc + reduced_density_matrix(apply_pad(state, pad), wires)
    return acc / 4 ** len(wires)


def check_pad_mixing(registers: int, seed: int):
    """Acceptance 4: what the server holds is maximally mixed: (a) every wire
    of ``registers`` random 1-3 wire registers averaged over its pad, (b)
    every gadget wire averaged over the preparation ensemble of either
    twist, (c) the pad-averaged |00> and a random 2-wire state coincide."""
    from .rsp_gadget import assemble_gadget_state, twist_bits
    from .simulator import trace_distance_dm

    rng = np.random.default_rng(seed)
    mixed, worst = np.eye(2) / 2, 0.0
    for _ in range(registers):
        n = int(rng.integers(1, 4))
        psi = random_state(n, rng)
        for w in range(n):
            worst = max(worst, trace_distance_dm(_pad_average(psi, [w]), mixed))

    for k_bit in (0, 1):
        p = twist_bits(k_bit)
        acc = np.zeros((4, 2, 2), dtype=complex)
        for h0, h1, t0, t1 in product((0, 2), (0, 2), (0, 1), (0, 1)):
            pairs = assemble_gadget_state(
                [prepare_plus_theta(h0 * pi / 2), prepare_plus_theta(h1 * pi / 2)],
                [prepare_plus_theta((p[0] + 2 * t0) * pi / 2),
                 prepare_plus_theta((p[1] + 2 * t1) * pi / 2)],
            )
            for j, phi in enumerate(pairs):  # wires 2j and 2j + 1: head and tail
                acc[2 * j] += phi @ phi.conj().T
                acc[2 * j + 1] += phi.T @ phi.conj()
        worst = max([worst] + [trace_distance_dm(rho / 16, mixed) for rho in acc])

    psi = random_state(2, rng)
    gap = float(np.max(np.abs(_pad_average(StateVector(2), [0, 1]) - _pad_average(psi, [0, 1]))))
    worst = max(worst, gap)
    return worst < 1e-12, (
        f"pad averages, gadget-wire averages and Enc(|0>) vs Enc(rho) all "
        f"maximally mixed; worst deviation {worst:.1e} (< 1e-12)"
    )


def _check_he_roundtrip():
    from .classical_he import (encrypt_seed, he_const, he_dec, he_enc, he_keygen_chain, he_xor,
                               key_switch)
    from .qhe import SECURITY

    rng = np.random.default_rng(1)
    chain = he_keygen_chain(SECURITY, range(3), rng)
    sks = [triple.sk for triple in chain]
    sk_enc = encrypt_seed(chain, rng)
    for _ in range(200):  # a random program of XORs, constants and key switches
        bits, levels = rng.integers(2, size=3).tolist(), rng.integers(3, size=3).tolist()
        nodes = [(he_enc(chain[lv].pk, b, rng), b) for b, lv in zip(bits, levels)]
        for op in rng.integers(3, size=8):
            picks = (nodes[i] for i in rng.integers(len(nodes), size=2))
            (x, a), (y, b) = sorted(picks, key=lambda node: node[0].level)  # x the lower
            if op == 0:  # a constant, y's bit standing in for a random one
                nodes.append((he_const(b, x.level), b))
            elif op == 1 and x.level < 2:  # x, one level up
                nodes.append((*key_switch(sk_enc[x.level], x), a))
            else:  # x switched up to y's level, then the XOR
                while x.level < y.level:
                    (x,) = key_switch(sk_enc[x.level], x)
                nodes.append((he_xor(x, y), a ^ b))
        for ct, want in nodes:
            if he_dec(sks[: ct.level + 1], ct) != want:  # through the key chain
                return False, f"wrong decryption for input bits {bits}"
    return True, ("200 random programs of XORs, constants and key switches over 3 levels "
                  "decrypt correctly through the key chain")


def check_sk(count: int, seed: int, min_improved: int):
    """Acceptance 5: ``count`` random X, Y or Z rotations synthesised at the
    default depth lie within 1e-2 of their target, at least
    ``min_improved`` of them closer than at depth 0, and RX(5.57) at the
    comparison depth takes 40 to 200 T and Tdagger gates."""
    from .simulator import ROTATION_1Q
    from .skdecomp import DEFAULT_DEPTH, default_net, sk_decompose, trace_distance

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    net = default_net()
    worst, improved = 0.0, 0
    for _ in range(count):
        axis = str(rng.choice(["RX", "RY", "RZ"]))
        u = ROTATION_1Q[axis](float(rng.uniform(0, 2 * pi)))
        d0 = trace_distance(sk_decompose(u, 0, net)[1], u)
        dd = trace_distance(sk_decompose(u, DEFAULT_DEPTH, net)[1], u)
        worst = max(worst, dd)
        improved += dd < d0
    tallies = decompose_report_tallies(5.57, "X")
    t_total = tallies["T"] + tallies["Tdagger"]
    dt = time.perf_counter() - t0
    ok = worst <= 1e-2 and improved >= min_improved and 40 <= t_total <= 200 and dt < SK_LIMIT_S
    return ok, (
        f"{count} rotations: worst certified distance {worst:.2e} (<= 1e-2), "
        f"{improved}/{count} improved with depth (>= {min_improved}), T+Tdagger "
        f"{t_total} in [40, 200], {dt:.1f} s (< {SK_LIMIT_S:g} s)"
    )


def check_gradients(models: int, seed: int):
    """Acceptance 6: on ``models`` random 4-wire models, every parameter-shift
    gradient entry a matches its central difference b: |a - b| <= 1e-4 *
    max(|b|, 1e-2), relative 1e-4 away from zero and absolute 1e-6 near it."""
    from .simulator import amplitude_encode
    from .vqa import ShadowModel, TrainConfig, gradients

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, worst = 4, 0.0
    for _ in range(models):
        model = ShadowModel(
            rng.uniform(0, 2 * pi, (2, 4)),
            rng.uniform(-0.5, 0.5, n - 1),
            float(rng.uniform(-0.2, 0.2)),
            n,
        )
        states = [amplitude_encode(np.abs(rng.normal(size=2**n)) + 1e-3, n) for _ in range(2)]
        labels = np.array([0.0, 1.0])
        g_ps = gradients(states, labels, model, TrainConfig())
        g_cd = gradients(states, labels, model, TrainConfig(grad_method="central-difference"))
        for a, b in zip(g_ps, g_cd):
            a, b = np.asarray(a), np.asarray(b)
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-2))) / 1e-4)
    dt = time.perf_counter() - t0
    return worst <= 1.0 and dt < GRADIENT_LIMIT_S, (
        f"{models} models: parameter-shift vs central-difference worst normalized "
        f"deviation {worst:.3f} (<= 1, rel 1e-4 / abs 1e-6), {dt:.1f} s "
        f"(< {GRADIENT_LIMIT_S:g} s)"
    )


def check_protocol(frames: int, sessions: int, seed: int):
    """Acceptance 9: ``frames`` random frames make the decoder raise only
    ``ProtocolError``; ``sessions`` live servers fed random bytes all end;
    live sessions walk every phase and refuse messages out of phase with a
    phase error; and 100 codec round trips are byte-stable."""
    from .protocol import (
        KINDS,
        PHASES,
        ClientSession,
        Message,
        ProtocolError,
        decode_message,
        encode_message,
        serve_inproc,
    )

    rng = np.random.default_rng(seed)
    leaks = 0
    for _ in range(frames):
        try:
            encode_message(decode_message(rng.bytes(int(rng.integers(0, 64)))))
        except ProtocolError:
            continue
        except Exception:  # noqa: BLE001 - anything else is a leak
            leaks += 1

    crashed = 0
    for _ in range(sessions):
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
            client.hello(0)
            walk.append(session.phase)
        client.done()
        thread.join(timeout=5)
        walks.append((*walk, session.phase))
    for hello, kind, payload in (
        (False, "RunRequest", {}),
        (True, "Hello", {"session_seed": 1}),
    ):
        channel, session, thread = serve_inproc()
        if hello:
            ClientSession(channel).hello(0)
        channel.send(Message(kind, payload))
        refusals.append(channel.recv().payload.get("code"))
        thread.join(timeout=5)
    model_ok = (
        walks == [("handshake", "open", "done"), ("handshake", "done")]
        and {phase for walk in walks for phase in walk} == set(PHASES)
        and refusals == ["phase", "phase"]
    )

    stable = True
    for _ in range(100):
        kind = KINDS[rng.integers(len(KINDS))]
        payload = {"v": float(rng.normal()), "bits": [int(b) for b in rng.integers(0, 2, 4)]}
        frame = encode_message(Message(kind, payload))
        stable = stable and encode_message(decode_message(frame)) == frame
    detail = (
        f"{frames} fuzzed frames: {leaks} decoder leaks; {sessions} live fuzz sessions: "
        f"{crashed} hung servers; phase machine sound on live sessions: {model_ok}"
    )
    ok = leaks == 0 and crashed == 0 and model_ok and stable
    return ok, detail + ("" if stable else "; codec round trip not byte-stable")


VERIFY_CHECKS = (
    ("clifford-conjugation", check_conjugation),
    ("pad-mixing", lambda: check_pad_mixing(5, 0)),
    ("he-roundtrip", _check_he_roundtrip),
    ("qhe-roundtrip", lambda: check_qhe_roundtrip(3, 2)),
    ("gadget-contract", lambda: check_gadget_contract(600, 7, 0.05)),
    ("sk-certification", lambda: check_sk(5, 3, 5)),
    ("gradient-check", lambda: check_gradients(3, 4)),
    ("protocol-codec", lambda: check_protocol(200, 5, 5)),
)


def cmd_verify(args) -> int:
    from . import pauli_frame

    cnot = pauli_frame._FORMS["CNOT"]
    if args.negative_control:
        # A CNOT form that moves no key: the oracle comparison and the QHE
        # round trip, which evaluates the same form, must both notice.
        pauli_frame._FORMS["CNOT"] = ((0,), (1,), (2,), (3,))

    failed = []
    print(f"{'property':<24} {'result':<6} {'time':>8}  detail")
    try:
        for name, check in VERIFY_CHECKS:
            t0 = time.perf_counter()
            try:
                ok, detail = check()
            except Exception as exc:  # noqa: BLE001 - a crash is a failure
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            status = "pass" if ok else "FAIL"
            if not ok:
                failed.append(name)
            print(f"{name:<24} {status:<6} {dt:>7.2f}s  {detail}")
    finally:
        pauli_frame._FORMS["CNOT"] = cnot
    if args.negative_control:
        # The run is healthy exactly when both checks caught the corruption.
        caught = {"clifford-conjugation", "qhe-roundtrip"} <= set(failed)
        print(
            "negative control: injected wrong CNOT rule was "
            + ("caught" if caught else "NOT caught")
        )
        return 0 if caught else 1
    return 1 if failed else 0


# --- argument plumbing ------------------------------------------------------


def run_manifest(args: argparse.Namespace) -> dict:
    """The subcommand and every option it parsed, config values included."""
    return {key: value for key, value in vars(args).items() if key != "func"}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> str | None:
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _maybe_write_outputs(args, payload: dict) -> None:
    out_dir = _out_dir(args)
    if out_dir is None:
        return
    _write_json(os.path.join(out_dir, "report.json"), payload)
    _write_json(os.path.join(out_dir, "manifest.json"), run_manifest(args))


def _checked(convert, ok, rule: str):
    """The argparse type of a ``convert``ed value for which ``ok`` holds; any
    other value is a usage error saying what it must be."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):  # NaN fails every comparison
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


# Every option once. A subcommand lists the options its handler reads, and no
# other: an option it does not list is a usage error. A value out of its range
# is a usage error too, before any work starts.
OPTIONS = {
    "config": dict(help="key=value config file (flags win)"),
    "seed": dict(type=_checked(int, lambda v: v >= 0, "at least 0"), default=0),
    "shots": dict(type=_checked(int, lambda v: v >= 1, "at least 1"), default=2048),
    "epsilon": dict(type=_checked(float, lambda v: v > 0, "positive"), default=1e-2),
    "mode": dict(choices=MODES, default="plaintext"),
    "transport": dict(choices=TRANSPORTS, default="local"),
    "port": dict(type=_checked(int, lambda v: 0 <= v <= 65535, "in 0..65535"), default=None),
    "dataset": dict(default=None),
    "out": dict(default=None),
    "axis": dict(type=str.upper, choices=("X", "Y", "Z"), default="X",
                 help="rotation axis: X, Y or Z, in either case"),
    "angle": dict(type=_checked(float, math.isfinite, "finite"), default=5.57),
    "epochs": dict(type=_checked(int, lambda v: v >= 1, "at least 1"), default=20),
    "negative-control": dict(
        action="store_true",
        help="inject a wrong conjugation rule and require the suite to catch it",
    ),
}

# (name, help, handler, options). verify takes no --config: its one option is
# a switch, and switches stay on the command line.
SUBCOMMANDS = (
    ("gadget-demo", "direct vs gadget T-gate statistics", cmd_gadget_demo,
     ("config", "seed", "shots", "out")),
    ("decompose", "certified H/T synthesis of a rotation", cmd_decompose,
     ("config", "epsilon", "axis", "angle", "out")),
    ("train", "train the window-feature classifier", cmd_train,
     ("config", "seed", "epsilon", "mode", "transport", "port", "dataset", "out",
      "epochs")),
    ("verify", "run the invariant suite", cmd_verify, ("negative-control",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhevqa",
        description="Delegated variational quantum computation over "
        "homomorphically padded circuits: demos, synthesis, training, checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_, handler, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        for option in options:
            p.add_argument(f"--{option}", **OPTIONS[option])
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    options = set(run_manifest(args)) - {"subcommand"}
    if "config" in options and args.config:
        # Config values become flags ahead of the command line, so they are
        # typed and checked like flags and an explicit flag, parsed later,
        # wins. Keys that name no option of the subcommand are ignored.
        flags = [
            f"--{key.replace('_', '-')}={value}"
            for key, value in load_config_file(args.config).items()
            if key.replace("-", "_") in options
        ]
        args = parser.parse_args([argv[0], *flags, *argv[1:]])
    try:
        status = args.func(args)
        # A piped stdout is block-buffered: flush here, so a closed pipe
        # raises inside the try and not in the interpreter's flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout has gone (``| head -1``): stop without a
        # traceback, but not with success, since output was lost and a
        # command may not have finished. Output still buffered goes to
        # devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
