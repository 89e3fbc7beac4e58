"""Benchmark definition: workloads, metrics, bounds and run length.

This is the single source for ``BENCHMARK.json``; regenerate it with

    python3 perfbench/spec.py

after editing anything here. ``run.py`` emits exactly the metric names
listed below, so the two cannot drift apart.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 15

WORKLOADS = [
    ("train-plaintext",
     "vqa training on the bundled digits; dominated by the vqa window-observable "
     "build, no HE and no wire, so protocol or classical_he changes must not move it"),
    ("train-exact-tcp",
     "delegated-exact training over loopback TCP; each window is 2 round trips, so "
     "protocol latency dominates and vqa runs its per-sample evaluator path"),
    ("features-faithful",
     "faithful feature vectors over an in-process queue; the only workload running "
     "skdecomp, claw-based RSP rounds, gadget consumption and large key frames"),
    ("qhe-deep",
     "local QHE round trips of 4-wire Clifford+T circuits with 200 T gates; classical_he "
     "DAG work grows with T squared, with no wire, no vqa and no skdecomp"),
]

# (name, unit, better, bound)
# The times are calibrated against the host's speed (calib.py): on the shared
# 2-vCPU VM the benchmark was tuned on, the same code ran up to 40 % faster or
# slower from one stretch of minutes to the next, and uncalibrated spreads
# reached 0.38. Calibrated spreads of 10 seeds stayed at or below 0.061 (see
# README.md, "Seed baseline"); setup_s keeps the widest bound allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("op_ms_p50", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Public functions timed as spans, per package module. Each yields
# ``<module>.<function>.calls`` and ``<module>.<function>.self_s``.
SPANNED = {
    "vqa": ["train", "gradients", "shadow_features"],
    "simulator": ["apply_gate", "measure", "bell_measure", "tensor",
                  "permute_wires", "reduced_density_matrix", "expectation"],
    "pauli_frame": ["apply_rule", "update_clifford"],
    "classical_he": ["he_enc", "he_dec", "key_switch", "public_masked_parity",
                     "ct_to_bytes", "ct_from_bytes"],
    "rsp_gadget": ["sample_trapdoor", "rsp_server_commit", "rsp_server_measure",
                   "rsp_theta_index", "assemble_gadget_state",
                   "build_gadget_ciphertexts", "gen_measurement",
                   "consume_gadget", "gadget_key_update"],
    "qhe": ["keygen", "encrypt", "eval_circuit", "decrypt_state",
            "xx_expectation_sign"],
    "skdecomp": ["decompose_circuit"],
    "protocol": ["encode_message", "decode_message"],
}

# Frame kinds counted per direction-agnostic frame; "Error" never appears in
# a passing run and is left out.
FRAME_KINDS = ["Hello", "Announce", "RspCommit", "RspBasis", "RspOutcome",
               "CoupleInstr", "GadgetClassical", "EncInput", "RunRequest",
               "ShotResults", "EncKeysUpdate", "ParamUpdate", "Done"]

# (name, unit) of per-layer metrics beyond the spans; all are totals over the
# traced run's fixed work unless the name says "per_op" or it is a ratio.
EXTRA_LAYER = [
    ("simulator.amp_bytes", "B"),  # computed as sum of 16 * 2^n per gate, not measured
    ("classical_he.he_xor.calls", "count"),
    ("classical_he.key_ct_bytes", "B"),
    ("classical_he.key_ct_nodes", "count"),
    ("rsp_gadget.rounds", "count"),
    ("rsp_gadget.gadgets_built", "count"),
    ("rsp_gadget.accept_ratio", "ratio"),
    ("rsp_gadget.gadgets_per_op", "count"),
    ("skdecomp.t_per_rotation", "count"),
    ("skdecomp.build_net_s", "s"),
    ("protocol.round_trips", "count"),
    ("protocol.client_wait_s", "s"),
    ("protocol.wire_bytes_per_op", "B"),
    ("trace.ops", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


def per_layer() -> list[tuple[str, str]]:
    out = []
    for module, names in SPANNED.items():
        for fn in names:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    for kind in FRAME_KINDS:
        out.append((f"protocol.frames.{kind}", "count"))
        out.append((f"protocol.bytes.{kind}", "B"))
    out.extend(EXTRA_LAYER)
    return out


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            # Work counts and ratios: more is not better, but the schema needs
            # a direction; "lower" is right for every time and byte count here.
            {"name": n, "unit": u, "better": "higher" if n.endswith("accept_ratio") else "lower"}
            for n, u in per_layer()
        ],
    }


if __name__ == "__main__":
    text = json.dumps(manifest(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)
    print(f"wrote BENCHMARK.json ({len(per_layer())} per-layer metrics)")
