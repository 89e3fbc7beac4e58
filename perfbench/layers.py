"""Which package functions the traced run wraps, and the per-layer metrics
computed from the trace."""
from __future__ import annotations

from spec import FRAME_KINDS, SPANNED, per_layer
from tracer import Tracer


def install(tracer: Tracer, m, workload) -> None:
    """Wrap every spanned function and hook the counters (see spec.py)."""
    p = tracer.patcher
    hooks = {
        ("simulator", "apply_gate"): _amp_bytes,
        ("skdecomp", "decompose_circuit"): _t_count(m.simulator.ROTATION_1Q),
        ("protocol", "encode_message"): _frame,
        ("protocol", "decode_message"): _keys_frame(workload),
    }
    for module, names in SPANNED.items():
        for fn in names:
            p.function(getattr(m, module), fn,
                       tracer.span(f"{module}.{fn}", hooks.get((module, fn))))
    p.function(m.skdecomp, "build_net", tracer.span("skdecomp.build_net"))
    p.function(m.classical_he, "he_xor",
               tracer.counting(lambda t, args: t.count("classical_he.he_xor.calls")))
    p.function(m.rsp_gadget, "rsp_round_ideal",
               tracer.counting(lambda t, args: t.count("rsp_gadget.rounds")))

    proto = m.protocol
    # Round trips: a client receive that follows a client send.
    p.set(proto.Channel, "send", tracer.counting(_client_sent)(proto.Channel.send))
    p.set(proto.Channel, "recv", tracer.counting(_client_received)(proto.Channel.recv))
    for cls in (proto.TcpChannel, proto.InProcChannel):
        p.set(cls, "recv_bytes", tracer.span("protocol.recv_bytes")(cls.recv_bytes))


def _amp_bytes(tracer, args, result):
    # Computed, not measured: one complex128 state vector per gate application.
    tracer.count("simulator.amp_bytes", 16 * 2 ** args[0].num_qubits)


def _t_count(rotations):
    def after(tracer, args, result):
        tracer.count("skdecomp.t_total", result[1])
        tracer.count("skdecomp.rotations", sum(g.kind in rotations for g in args[0]))

    return after


def _frame(tracer, args, result):
    kind = args[0].kind
    tracer.count(f"protocol.frames.{kind}")
    tracer.count(f"protocol.bytes.{kind}", len(result))


def _keys_frame(workload):
    def after(tracer, args, result):
        if tracer.is_client():
            workload.note_frame(result)

    return after


def _client_sent(tracer, args):
    if tracer.is_client():
        tracer._state().pending_request = True


def _client_received(tracer, args):
    if tracer.is_client():
        st = tracer._state()
        if st.pending_request:
            st.pending_request = False
            tracer.count("protocol.round_trips")


def metrics(tracer: Tracer, ops: int, keys: tuple[int, int, int],
            overhead: tuple[float, float]) -> dict:
    """Every per-layer metric of spec.py, from the traced section."""
    agg = tracer.aggregates()
    counters = tracer.counters()
    values: dict[str, float] = {}
    for module, names in SPANNED.items():
        for fn in names:
            row = agg.get(f"{module}.{fn}", {"calls": 0, "self_s": 0.0})
            values[f"{module}.{fn}.calls"] = row["calls"]
            values[f"{module}.{fn}.self_s"] = row["self_s"]
    wire = 0
    for kind in FRAME_KINDS:
        values[f"protocol.frames.{kind}"] = counters.get(f"protocol.frames.{kind}", 0)
        values[f"protocol.bytes.{kind}"] = counters.get(f"protocol.bytes.{kind}", 0)
        wire += values[f"protocol.bytes.{kind}"]
    key_bytes, key_nodes, evaluations = keys
    gadgets_built = agg.get("rsp_gadget.build_gadget_ciphertexts", {"calls": 0})["calls"]
    rounds = (counters.get("rsp_gadget.rounds", 0)
              + agg.get("rsp_gadget.rsp_theta_index", {"calls": 0})["calls"])
    rotations = counters.get("skdecomp.rotations", 0)
    values.update({
        "simulator.amp_bytes": counters.get("simulator.amp_bytes", 0),
        "classical_he.he_xor.calls": counters.get("classical_he.he_xor.calls", 0),
        "classical_he.key_ct_bytes": key_bytes / evaluations if evaluations else 0,
        "classical_he.key_ct_nodes": key_nodes / evaluations if evaluations else 0,
        "rsp_gadget.rounds": rounds,
        "rsp_gadget.gadgets_built": gadgets_built,
        "rsp_gadget.accept_ratio": 4 * gadgets_built / rounds if rounds else 0,
        "rsp_gadget.gadgets_per_op":
            agg.get("rsp_gadget.consume_gadget", {"calls": 0})["calls"] / ops,
        "skdecomp.t_per_rotation":
            counters.get("skdecomp.t_total", 0) / rotations if rotations else 0,
        "skdecomp.build_net_s": agg.get("skdecomp.build_net", {"total_s": 0.0})["total_s"],
        "protocol.round_trips": counters.get("protocol.round_trips", 0),
        "protocol.client_wait_s": tracer.thread_aggregates("protocol.recv_bytes")["self_s"],
        "protocol.wire_bytes_per_op": wire / ops,
        "trace.ops": ops,
        "trace.overhead_s": overhead[0],
        "trace.overhead_pct": overhead[1],
    })
    names = [n for n, _ in per_layer()]
    assert set(values) == set(names), set(values) ^ set(names)
    return {n: values[n] for n in names}
