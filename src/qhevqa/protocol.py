"""Two-party delegation protocol: framed messages, transports, sessions.

The client (data owner) and server (compute owner) exchange length-prefixed
frames carrying JSON payloads. The server owns the one phase machine

    handshake -> open -> done

(Hello opens a session, Done ends it). Every other message needs an open
session, and each handler checks its own data: prepared and pending qids, a
coupled pair before gadget ciphertexts, an input register and encrypted keys
before a run, the gadget budget. The client session holds only its channel;
a misordered call raises ``ProtocolError`` from the server's Error reply.

The server performs all quantum actions (remote state preparation rounds,
pair coupling, homomorphic evaluation, measurement) and only ever sees public
structure, ciphertext strings, padded amplitudes, and model parameters; the
client keeps the trapdoors, the key chain, and the data.

Two transports share the frame codec byte for byte: an in-process queue pair
and localhost TCP (default port 7913; ``QHEVQA_HOST`` / ``QHEVQA_PORT``
override). All server randomness derives from the session seed sent in Hello,
so a run is replayable and transport-independent.

Simulation seam: states crossing the wire (the padded input register, remotely
prepared qubits held server-side) are simulator objects; in TCP mode the input
register is serialized as (re, im) amplitude pairs, which a physical protocol
would of course never do. The classical transcript is real wire traffic in
both modes.
"""
from __future__ import annotations

import json
import os
import socket
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .classical_he import HECiphertext, ct_from_bytes, ct_to_bytes
from .qhe import (
    SECURITY,
    CipherState,
    ClientKeys,
    EvalKey,
    decrypt_flips,
    encrypt,
    eval_circuit,
    keygen,
    t_count,
)
from .rsp_gadget import (
    RSP_MU,
    RSP_N,
    Gadget,
    GadgetSecrets,
    assemble_gadget_state,
    gen_gadget,
    rsp_round_ideal,
    rsp_server_commit,
    rsp_server_measure,
    rsp_theta_index,
    sample_trapdoor,
)
from .simulator import (
    GATE_KINDS,
    MAX_QUBITS,
    Gate,
    PauliString,
    StateVector,
    apply_circuit,
    expectation,
    gate,
    measure,
)
from .vqa import exact_evaluator, faithful_evaluator, train

VERSION = 1
MAX_FRAME = 16 * 1024 * 1024
MAX_SHOTS = 4096
HEADER = struct.Struct("<I")  # little-endian payload length
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7913

KINDS = (
    "Hello",
    "Announce",
    "RspCommit",
    "RspBasis",
    "RspOutcome",
    "CoupleInstr",
    "GadgetClassical",
    "EncInput",
    "RunRequest",
    "ShotResults",
    "EncKeysUpdate",
    "ParamUpdate",
    "Done",
    "Error",
)
KIND_CODE = {name: i for i, name in enumerate(KINDS)}


class ProtocolError(Exception):
    def __init__(self, code: str, text: str = ""):
        super().__init__(f"{code}: {text}" if text else code)
        self.code = code
        self.text = text


class ChannelClosed(Exception):
    pass


@dataclass(frozen=True)
class Message:
    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in KIND_CODE:
            raise ProtocolError("kind", f"unknown message kind {self.kind!r}")
        if not isinstance(self.payload, dict):
            raise ProtocolError("payload", "payload must be a JSON object")


# --- frame codec ------------------------------------------------------------


def encode_message(msg: Message) -> bytes:
    body = json.dumps(
        msg.payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    frame = HEADER.pack(len(body)) + bytes([VERSION, KIND_CODE[msg.kind]]) + body
    if len(frame) > MAX_FRAME:
        raise ProtocolError("oversize", f"frame of {len(frame)} bytes exceeds limit")
    return frame


def decode_message(data: bytes) -> Message:
    if len(data) < HEADER.size + 2:
        raise ProtocolError("framing", "frame shorter than header")
    if len(data) > MAX_FRAME:
        raise ProtocolError("oversize", f"frame of {len(data)} bytes exceeds limit")
    (length,) = HEADER.unpack(data[: HEADER.size])
    if length != len(data) - HEADER.size - 2:
        raise ProtocolError("framing", "length field does not match frame size")
    version, code = data[HEADER.size], data[HEADER.size + 1]
    if version != VERSION:
        raise ProtocolError("version", f"unsupported protocol version {version}")
    if code >= len(KINDS):
        raise ProtocolError("kind", f"unknown message kind code {code}")
    try:
        payload = json.loads(data[HEADER.size + 2 :].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past the digit
        # limit; RecursionError is nesting past the interpreter's depth.
        raise ProtocolError("payload", f"malformed JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("payload", "payload must be a JSON object")
    return Message(KINDS[code], payload)


# --- transports -------------------------------------------------------------


class Channel:
    """One endpoint of a bidirectional frame pipe."""

    def send(self, msg: Message) -> None:
        self.send_bytes(encode_message(msg))

    def recv(self) -> Message:
        return decode_message(self.recv_bytes())

    def send_bytes(self, data: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def recv_bytes(self) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class InProcChannel(Channel):
    _SENTINEL = object()

    def __init__(self, inbox, outbox):
        import queue as _queue

        self._queue_mod = _queue
        self.inbox = inbox
        self.outbox = outbox
        self._closed = False

    def send_bytes(self, data: bytes) -> None:
        if self._closed:
            raise ChannelClosed("channel closed")
        self.outbox.put(data)

    def recv_bytes(self) -> bytes:
        item = self.inbox.get()
        if item is InProcChannel._SENTINEL:
            raise ChannelClosed("peer closed the channel")
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.outbox.put(InProcChannel._SENTINEL)


def make_inproc_pair() -> tuple[InProcChannel, InProcChannel]:
    import queue

    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return InProcChannel(b_to_a, a_to_b), InProcChannel(a_to_b, b_to_a)


class TcpChannel(Channel):
    def __init__(self, sock: socket.socket):
        self.sock = sock

    def _read_exactly(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise ChannelClosed("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send_bytes(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv_bytes(self) -> bytes:
        try:
            header = self._read_exactly(HEADER.size)
            (length,) = HEADER.unpack(header)
            if length > MAX_FRAME - HEADER.size - 2:
                raise ProtocolError("oversize", f"payload of {length} bytes")
            rest = self._read_exactly(length + 2)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc
        return header + rest

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def default_endpoint() -> tuple[str, int]:
    host = os.environ.get("QHEVQA_HOST", DEFAULT_HOST)
    port = int(os.environ.get("QHEVQA_PORT", DEFAULT_PORT))
    return host, port


def connect_tcp(host: str | None = None, port: int | None = None) -> TcpChannel:
    env_host, env_port = default_endpoint()
    sock = socket.create_connection((host or env_host, port or env_port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock)


# --- session phase machine --------------------------------------------------

PHASES = ("handshake", "open", "done")
TRANSITIONS = frozenset(
    {
        ("handshake", "open"),
        ("open", "done"),
        ("handshake", "done"),  # client may hang up before delegating anything
    }
)


@dataclass
class SessionState:
    phase: str = "handshake"

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ProtocolError("phase", f"unknown phase {self.phase!r}")

    def advance(self, new_phase: str) -> None:
        if (self.phase, new_phase) not in TRANSITIONS:
            raise ProtocolError(
                "phase", f"illegal transition {self.phase} -> {new_phase}"
            )
        self.phase = new_phase

    def expect(self, *phases: str) -> None:
        if self.phase not in phases:
            raise ProtocolError(
                "phase", f"message not allowed in phase {self.phase!r}"
            )


def reachable_phases() -> set[str]:
    """Phases reachable from handshake under the transition table."""
    seen = {"handshake"}
    frontier = ["handshake"]
    while frontier:
        here = frontier.pop()
        for src, dst in TRANSITIONS:
            if src == here and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


# --- JSON <-> simulator conversions ----------------------------------------


def amps_to_json(state: StateVector) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in state.amplitudes]


def amps_from_json(pairs, num_qubits: int) -> StateVector:
    if len(pairs) != 2**num_qubits:
        raise ProtocolError("payload", "amplitude count does not match wire count")
    try:
        amps = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ProtocolError("payload", f"bad amplitude entry: {exc}") from exc
    return StateVector(num_qubits, amps)


def circuit_to_json(circuit: list[Gate]) -> list[dict]:
    out = []
    for g in circuit:
        entry = {"kind": g.kind, "wires": list(g.wires)}
        if g.angle is not None:
            entry["angle"] = float(g.angle)
        out.append(entry)
    return out


def circuit_from_json(entries) -> list[Gate]:
    circuit = []
    try:
        for entry in entries:
            kind = entry["kind"]
            if kind not in GATE_KINDS:
                raise ProtocolError("payload", f"unknown gate kind {kind!r}")
            circuit.append(gate(kind, *entry["wires"], angle=entry.get("angle")))
    except (TypeError, KeyError) as exc:
        raise ProtocolError("payload", f"malformed circuit: {exc}") from exc
    return circuit


def ct_to_hex(ct: HECiphertext) -> str:
    return ct_to_bytes(ct).hex()


def ct_from_hex(text: str) -> HECiphertext:
    try:
        return ct_from_bytes(bytes.fromhex(text))
    except Exception as exc:  # noqa: BLE001 - hex and HE decode errors alike
        raise ProtocolError("payload", f"bad ciphertext encoding: {exc}") from exc


# --- server role ------------------------------------------------------------

ANNOUNCE = {
    "ansatz": "sliding-window-entangler",
    "layout": "windows (v-1, v) for v in 1..n-1, RX/RY rotations + CNOT pair",
    "observables": ["XX"],
    "gate_set": list(GATE_KINDS),
    "version": VERSION,
}


class ServerSession:
    """One server-side session: phase machine plus quantum/HE workloads.

    The session records every received payload in ``audit`` so tests can check
    server blindness: everything visible here is public structure, ciphertext
    strings, or padded quantum data.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        self.state = SessionState()
        self.rng: np.random.Generator | None = None
        self.audit: list[tuple[str, dict]] = []
        self.qubits: dict[int, StateVector] = {}  # prepared RSP outputs
        self.pending: dict[int, StateVector] = {}  # committed, not yet measured
        self._next_qid = 0
        self._partial_state: StateVector | None = None
        self.gadgets: list[Gadget] = []
        self.register: StateVector | None = None
        self.enc_keys: list[tuple[HECiphertext, HECiphertext]] | None = None
        self.params: dict | None = None
        self.closed = False

    # -- plumbing --

    def run(self) -> None:
        try:
            while not self.closed:
                try:
                    msg = self.channel.recv()
                except ChannelClosed:
                    break
                except ProtocolError as exc:
                    self._fail(exc)
                    break
                try:
                    self._dispatch(msg)
                except ProtocolError as exc:
                    self._fail(exc)
                    break
                except Exception as exc:  # noqa: BLE001 - session must not crash
                    self._fail(ProtocolError("internal", str(exc)))
                    break
        finally:
            self.channel.close()

    def _fail(self, exc: ProtocolError) -> None:
        try:
            self.channel.send(Message("Error", {"code": exc.code, "text": exc.text}))
        except (ChannelClosed, OSError):
            pass
        self.closed = True

    def _reply(self, kind: str, payload: dict) -> None:
        self.channel.send(Message(kind, payload))

    def _dispatch(self, msg: Message) -> None:
        self.audit.append((msg.kind, msg.payload))
        handler = getattr(self, f"_on_{msg.kind.lower()}", None)
        if handler is None:
            raise ProtocolError("kind", f"server cannot handle {msg.kind}")
        if msg.kind not in ("Hello", "Done", "Error"):
            self.state.expect("open")
        handler(msg.payload)

    # -- handlers --

    def _on_hello(self, p: dict) -> None:
        self.state.expect("handshake")
        if p.get("version") != VERSION:
            raise ProtocolError("version", f"client version {p.get('version')!r}")
        seed = p.get("session_seed")
        if not isinstance(seed, int) or seed < 0:
            raise ProtocolError("payload", "session_seed must be a non-negative int")
        self.rng = np.random.default_rng(seed)
        self._reply("Announce", ANNOUNCE)
        self.state.advance("open")

    def _on_gadgetclassical(self, p: dict) -> None:
        if "declare" in p:  # an acknowledged count; the server does not keep it
            declared = p["declare"]
            if not isinstance(declared, int) or declared < 0:
                raise ProtocolError("payload", "declared gadget count must be >= 0")
            self._reply("GadgetClassical", {"ok": True})
            return
        if self._partial_state is None:
            raise ProtocolError("order", "gadget ciphertexts before pair coupling")
        try:
            x_ct = tuple(ct_from_hex(h) for h in p["x_ct"])
            z_ct = tuple(ct_from_hex(h) for h in p["z_ct"])
            e_ct = tuple(tuple(ct_from_hex(h) for h in row) for row in p["e_ct"])
            sk_enc = tuple(ct_from_hex(h) for h in p["sk_enc"])
            level = int(p["level"])
        except (KeyError, TypeError) as exc:
            raise ProtocolError("payload", f"malformed gadget bundle: {exc}") from exc
        if len(x_ct) != 2 or len(z_ct) != 2 or len(e_ct) != 2:
            raise ProtocolError("payload", "gadget needs two of each correction")
        self.gadgets.append(
            Gadget(self._partial_state, x_ct, z_ct, e_ct, sk_enc, level)
        )
        self._partial_state = None
        self._reply("GadgetClassical", {"ok": True, "budget": len(self.gadgets)})

    def _on_rspbasis(self, p: dict) -> None:
        assert self.rng is not None
        if p.get("ideal"):
            # Modeled shortcut: the server draws the angle itself, so this
            # variant is not blind; the claw-based flow below is.
            idx, state = rsp_round_ideal(self.rng)
            qid = self._next_qid
            self._next_qid += 1
            self.qubits[qid] = state
            self._reply("RspOutcome", {"qid": qid, "theta_index": idx})
            return
        if "matrix" in p:
            matrix = np.asarray(p["matrix"], dtype=np.int64)
            if matrix.shape != (RSP_MU, RSP_N):
                raise ProtocolError("payload", f"claw matrix must be {RSP_MU}x{RSP_N}")
            y, state = rsp_server_commit(matrix, self.rng)
            qid = self._next_qid
            self._next_qid += 1
            self.pending[qid] = state
            self._reply("RspCommit", {"qid": qid, "y": [int(b) for b in y]})
            return
        if "alphas" in p:
            qid = p.get("qid")
            if qid not in self.pending:
                raise ProtocolError("order", f"no committed round with qid {qid!r}")
            alphas = p["alphas"]
            if (
                not isinstance(alphas, list)
                or len(alphas) != RSP_N - 1
                or any(type(a) is not int or a not in (0, 1) for a in alphas)
            ):
                raise ProtocolError("payload", f"alphas must be {RSP_N - 1} bits")
            state = self.pending.pop(qid)
            alphas = np.asarray(alphas, dtype=np.int64)
            b, qubit = rsp_server_measure(state, alphas, self.rng)
            self.qubits[qid] = qubit
            self._reply("RspOutcome", {"qid": qid, "b": [int(x) for x in b]})
            return
        raise ProtocolError("payload", "RspBasis needs 'matrix', 'alphas' or 'ideal'")

    def _on_coupleinstr(self, p: dict) -> None:
        """Couple two (head, tail) pairs, or acknowledge a close; drop discards.

        Every qid is checked before any prepared qubit is removed.
        """
        discard = p.get("discard", [])
        if not isinstance(discard, list) or not all(isinstance(q, int) for q in discard):
            raise ProtocolError("payload", "discard must be a list of qids")
        if p.get("close"):
            self._drop(discard)
            self._reply("CoupleInstr", {"ok": True})
            return
        pairs = p.get("pairs")
        if (
            not isinstance(pairs, list)
            or len(pairs) != 2
            or any(not isinstance(pair, list) or len(pair) != 2 for pair in pairs)
        ):
            raise ProtocolError("payload", "need two (head, tail) qubit pairs")
        qids = [pair[0] for pair in pairs] + [pair[1] for pair in pairs]
        if not all(isinstance(q, int) and q in self.qubits for q in qids):
            raise ProtocolError("order", f"unknown prepared qubit among {qids}")
        if len(set(qids)) != len(qids):
            raise ProtocolError("payload", f"pair qids must be distinct, got {qids}")
        qubits = [self.qubits.pop(q) for q in qids]
        self._drop(discard)
        self._partial_state = assemble_gadget_state(qubits[:2], qubits[2:])
        self._reply("CoupleInstr", {"ok": True})

    def _drop(self, qids: list) -> None:
        for qid in qids:
            self.qubits.pop(qid, None)

    def _on_encinput(self, p: dict) -> None:
        # Everything is checked and decoded before the session changes; the
        # wire count is bounded before amps_from_json evaluates 2**num_wires.
        num_wires, amps, keys = p.get("num_wires"), p.get("amps"), p.get("enc_keys")
        if type(num_wires) is not int or not 1 <= num_wires <= MAX_QUBITS:
            raise ProtocolError("payload", f"num_wires must be an int in 1..{MAX_QUBITS}")
        if not isinstance(amps, list):
            raise ProtocolError("payload", "amps must be a list of (re, im) pairs")
        if keys is not None and (
            not isinstance(keys, list)
            or len(keys) != num_wires
            or any(not isinstance(pair, list) or len(pair) != 2 for pair in keys)
        ):
            raise ProtocolError("payload", "enc_keys needs one (a, b) pair per wire")
        register = amps_from_json(amps, num_wires)
        # ct_from_hex refuses, as a payload error, anything but a hex ciphertext.
        enc_keys = None if keys is None else [(ct_from_hex(a), ct_from_hex(b)) for a, b in keys]
        self.register, self.enc_keys = register, enc_keys
        self._reply("EncInput", {"ok": True})

    def _on_runrequest(self, p: dict) -> None:
        assert self.rng is not None
        if self.register is None:
            raise ProtocolError("order", "RunRequest before EncInput")
        shots = p.get("shots", 1)
        if type(shots) is not int or not 1 <= shots <= MAX_SHOTS:  # bool is not a count
            raise ProtocolError("payload", f"shots must be an int in 1..{MAX_SHOTS}")
        circuit = circuit_from_json(p.get("circuit", ()))
        spec = p.get("measure")
        if not isinstance(spec, dict) or spec.get("type") not in ("xx", "bits"):
            raise ProtocolError("payload", "measure must be 'xx' or 'bits'")
        wires, n = spec.get("wires", []), self.register.num_qubits
        if not isinstance(wires, list) or any(type(w) is not int or not 0 <= w < n for w in wires):
            raise ProtocolError("payload", f"measure wires must be ints in 0..{n - 1}")
        if spec["type"] == "xx" and (len(wires) != 2 or wires[0] == wires[1]):
            raise ProtocolError("payload", "xx measures two distinct wires")
        if p.get("use_gadgets"):
            self._run_gadgets(circuit, shots, spec, wires)
        else:
            self._run_plain(circuit, shots, spec, wires)

    def _run_plain(self, circuit, shots, spec, wires) -> None:
        """Compensated-circuit mode: keys stay client-side, no gadgets."""
        values, bits = [], []
        for _ in range(shots):
            self._read_out(apply_circuit(self.register, circuit), spec, wires, values, bits)
        self._reply("ShotResults", {"values": values, "bits": bits})
        self._reply("EncKeysUpdate", {"enc_keys": None, "level": 0})

    def _run_gadgets(self, circuit, shots, spec, wires) -> None:
        """Full homomorphic mode: consume queued gadgets, return updated keys.

        Each shot's key row holds the (a, b) pairs of the measured wires only,
        in ``wires`` order: those are all the client decrypts.
        """
        if self.enc_keys is None:
            raise ProtocolError("order", "homomorphic run needs encrypted keys")
        needed = t_count(circuit)
        if shots * needed > len(self.gadgets):
            raise ProtocolError(
                "budget",
                f"{shots * needed} gadgets needed, {len(self.gadgets)} queued",
            )
        values, bits, key_rows = [], [], []
        for _ in range(shots):
            run_gadgets, self.gadgets = self.gadgets[:needed], self.gadgets[needed:]
            ek = EvalKey(tuple(run_gadgets))
            cs = CipherState(self.register.copy(), tuple(self.enc_keys), 0)
            cs = eval_circuit(cs, circuit, ek, self.rng)
            self._read_out(cs.register, spec, wires, values, bits)
            pairs = [cs.encrypted_keys[w] for w in wires]
            key_rows.append([[ct_to_hex(a), ct_to_hex(b)] for a, b in pairs])
            final_level = cs.level
        self._reply("ShotResults", {"values": values, "bits": bits})
        self._reply("EncKeysUpdate", {"enc_keys": key_rows, "level": final_level})

    def _read_out(self, out, spec, wires, values, bits) -> None:
        """Append one shot's <X x X> to ``values`` or its measured bits to ``bits``."""
        if spec["type"] == "xx":
            values.append(expectation(out, PauliString(("X", "X"), tuple(wires))))
            return
        row = []
        for w in wires:
            bit, out = measure(out, w, spec.get("basis", "Z"), self.rng)
            row.append(bit)
        bits.append(row)

    def _on_paramupdate(self, p: dict) -> None:
        self.params = dict(p)
        self._reply("ParamUpdate", {"ok": True})

    def _on_done(self, p: dict) -> None:
        self.state.advance("done")
        self._reply("Done", {})
        self.closed = True

    def _on_error(self, p: dict) -> None:
        self.closed = True


def serve_inproc() -> tuple[Channel, ServerSession, threading.Thread]:
    """Spin up a server session on a background thread; returns client end."""
    client_end, server_end = make_inproc_pair()
    session = ServerSession(server_end)
    thread = threading.Thread(target=session.run, daemon=True)
    thread.start()
    return client_end, session, thread


class TcpServer:
    """Localhost listener servicing each connection in its own thread."""

    def __init__(self, host: str | None = None, port: int | None = None):
        env_host, env_port = default_endpoint()
        self.host = host or env_host
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((self.host, env_port if port is None else port))
        self.port = self.listener.getsockname()[1]
        self.sessions: list[ServerSession] = []
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None
        self._stopping = False

    def start(self) -> "TcpServer":
        self.listener.listen()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            session = ServerSession(TcpChannel(sock))
            self.sessions.append(session)
            thread = threading.Thread(target=session.run, daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        self._stopping = True
        self.listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)


# --- client role ------------------------------------------------------------


class ClientSession:
    """Client-side driver: handshake, gadget provisioning, delegated runs.

    It keeps no phase: the server decides what is in order.
    """

    def __init__(self, channel: Channel):
        self.channel = channel

    # -- plumbing --

    def _ask(self, kind: str, payload: dict, *expected: str) -> Message:
        self.channel.send(Message(kind, payload))
        return self._recv(*expected)

    def _recv(self, *expected: str) -> Message:
        reply = self.channel.recv()
        if reply.kind == "Error":
            raise ProtocolError(
                reply.payload.get("code", "server"), reply.payload.get("text", "")
            )
        if expected and reply.kind not in expected:
            raise ProtocolError("kind", f"expected {expected}, got {reply.kind}")
        return reply

    # -- acknowledged steps --

    def hello(self, session_seed: int, mode: str) -> dict:
        return self._ask(
            "Hello",
            {"version": VERSION, "session_seed": int(session_seed), "mode": mode},
            "Announce",
        ).payload

    def open_rsp(self, declared: int = 0) -> None:
        self._ask("GadgetClassical", {"declare": int(declared)}, "GadgetClassical")

    def close_rsp(self) -> None:
        self._ask("CoupleInstr", {"close": True}, "CoupleInstr")

    # -- remote state preparation --

    def _round(self, rsp_mode: str):
        """The remote RSP round of ``rsp_mode``; each yields (theta_index, qid)."""

        def ideal(rng):
            reply = self._ask("RspBasis", {"ideal": True}, "RspOutcome").payload
            return reply["theta_index"], reply["qid"]

        def claw(rng):
            td = sample_trapdoor(RSP_N, RSP_MU, rng)
            commit = self._ask(
                "RspBasis",
                {"matrix": [[int(v) for v in row] for row in td.matrix]},
                "RspCommit",
            ).payload
            alphas = rng.integers(0, 2, RSP_N - 1)
            outcome = self._ask(
                "RspBasis",
                {"qid": commit["qid"], "alphas": [int(a) for a in alphas]},
                "RspOutcome",
            ).payload
            y = np.asarray(commit["y"], dtype=np.int64)
            b = np.asarray(outcome["b"], dtype=np.int64)
            return rsp_theta_index(td, y, b, alphas), commit["qid"]

        return ideal if rsp_mode == "ideal" else claw

    def _couple(self, heads, tails, rejected) -> None:
        """Have the server couple the accepted pairs and drop the rejected qubits."""
        pairs = [[head, tail] for head, tail in zip(heads, tails)]
        self._ask("CoupleInstr", {"pairs": pairs, "discard": rejected}, "CoupleInstr")

    def provision_gadget(
        self,
        pk_next,
        sk_enc,
        k_bit: int,
        rng: np.random.Generator,
        rsp_mode: str = "ideal",
    ) -> GadgetSecrets:
        """Build one gadget on the server: RSP rounds, coupling, ciphertexts."""
        gadget, secrets = gen_gadget(
            pk_next, sk_enc, k_bit, rng, self._round(rsp_mode), self._couple
        )
        self._ask(
            "GadgetClassical",
            {
                "x_ct": [ct_to_hex(c) for c in gadget.x_ct],
                "z_ct": [ct_to_hex(c) for c in gadget.z_ct],
                "e_ct": [[ct_to_hex(c) for c in row] for row in gadget.e_ct],
                "sk_enc": [ct_to_hex(c) for c in gadget.sk_enc],
                "level": gadget.level,
            },
            "GadgetClassical",
        )
        return secrets

    def remote_keygen(
        self,
        num_wires: int,
        circuit: list[Gate],
        rng: np.random.Generator,
        rsp_mode: str = "ideal",
        runs: int = 1,
    ) -> ClientKeys:
        """Run key generation with gadgets provisioned on the server.

        Provisions one gadget set per run of ``circuit``: the first while
        ``keygen`` plans the key flow, the others by replaying each slot's
        key material once ``keygen`` has returned.
        """
        slots = []  # (pk_next, sk_enc, k_bit) per gadget slot

        def factory(pk_next, sk_enc, k_bit):
            slots.append((pk_next, sk_enc, k_bit))
            return None, self.provision_gadget(pk_next, sk_enc, k_bit, rng, rsp_mode)

        client_keys, _ = keygen(SECURITY, num_wires, circuit, rng, gadget_factory=factory)
        for _ in range(runs - 1):
            for pk_next, sk_enc, k_bit in slots:
                self.provision_gadget(pk_next, sk_enc, k_bit, rng, rsp_mode)
        return client_keys

    # -- delegated evaluation --

    def send_input(
        self,
        register: StateVector,
        enc_keys: tuple[tuple[HECiphertext, HECiphertext], ...] | None,
    ) -> None:
        payload = {
            "num_wires": register.num_qubits,
            "amps": amps_to_json(register),
            "enc_keys": None
            if enc_keys is None
            else [[ct_to_hex(a), ct_to_hex(b)] for a, b in enc_keys],
            "level": 0,
        }
        self._ask("EncInput", payload, "EncInput")

    def request_run(
        self,
        circuit: list[Gate],
        measure_spec: dict,
        use_gadgets: bool,
        shots: int = 1,
    ) -> tuple[dict, dict]:
        self.channel.send(
            Message(
                "RunRequest",
                {
                    "circuit": circuit_to_json(circuit),
                    "measure": measure_spec,
                    "use_gadgets": use_gadgets,
                    "shots": shots,
                },
            )
        )
        results = self._recv("ShotResults").payload
        keys = self._recv("EncKeysUpdate").payload
        return results, keys

    def param_update(self, theta, w, bias: float, epoch: int) -> None:
        self._ask(
            "ParamUpdate",
            {
                "theta": np.asarray(theta, dtype=float).tolist(),
                "w": np.asarray(w, dtype=float).tolist(),
                "b": float(bias),
                "epoch": int(epoch),
            },
            "ParamUpdate",
        )

    def done(self) -> None:
        try:
            self._ask("Done", {}, "Done")
        except (ChannelClosed, ProtocolError):
            pass
        self.channel.close()


# --- delegated QHE run over the wire ----------------------------------------


def client_qhe_run(
    session: ClientSession,
    circuit: list[Gate],
    state: StateVector,
    rng: np.random.Generator,
    shots: int = 1,
    measure_wires: tuple[int, ...] = (0,),
    basis: str = "Z",
    rsp_mode: str = "ideal",
) -> list[dict[int, int]]:
    """Full homomorphic delegation of one Clifford+T circuit, multi-shot.

    Provisions shot-many gadget sets, encrypts, delegates, and decrypts each
    shot's raw bits with that run's updated keys. Returns per-shot corrected
    outcome dictionaries keyed by wire.
    """
    client_keys = session.remote_keygen(state.num_qubits, circuit, rng, rsp_mode, shots)
    session.close_rsp()

    cs, _ = encrypt(client_keys, state, rng)
    session.send_input(cs.register, cs.encrypted_keys)
    results, keys = session.request_run(
        circuit,
        {"type": "bits", "basis": basis, "wires": list(measure_wires)},
        use_gadgets=True,
        shots=shots,
    )
    corrected = []
    for row, key_row in zip(results["bits"], keys["enc_keys"]):
        pairs = _key_pairs(key_row, measure_wires)
        flips = decrypt_flips(client_keys, keys["level"], pairs, measure_wires, basis)
        corrected.append({w: bit ^ f for w, bit, f in zip(measure_wires, row, flips)})
    return corrected


def _key_pairs(key_row, wires) -> dict[int, tuple[HECiphertext, HECiphertext]]:
    """Parse an EncKeysUpdate row, one (a, b) pair per measured wire in order."""
    if len(key_row) != len(wires):
        raise ProtocolError("payload", "one key pair per measured wire required")
    return {w: (ct_from_hex(a), ct_from_hex(b)) for w, (a, b) in zip(wires, key_row)}


# --- delegated training (protocol-level run_client) -------------------------


def make_exact_evaluator(session: ClientSession):
    """Delegated-exact window evaluator whose server step runs over the session.

    Matches the local delegated-exact evaluator value for value: the server
    only ever sees the padded register and the compensated circuit.
    """

    def server_run(register, circuit, wires):
        session.send_input(register, None)
        results, _ = session.request_run(
            circuit, {"type": "xx", "wires": list(wires)}, use_gadgets=False
        )
        return results["values"][0]

    return exact_evaluator(server_run)


def make_faithful_evaluator(
    session: ClientSession,
    eps_target: float = 1e-2,
    rsp_mode: str = "ideal",
):
    """Delegated-faithful window evaluator whose server step runs over the session.

    Each evaluation provisions fresh gadgets (one per T gate) for the exact
    circuit it is about to run, so the server's gadget twists always match
    the key flow. Dramatically slower than the compensated mode; intended for
    demonstrations and spot checks, not full training sweeps.
    """

    def provision(num_wires, circuit, rng):
        client_keys = session.remote_keygen(num_wires, circuit, rng, rsp_mode)
        session.close_rsp()
        return client_keys, None

    def server_run(cs, circuit, wires, _ek, _rng):
        session.send_input(cs.register, cs.encrypted_keys)
        results, keys = session.request_run(
            circuit, {"type": "xx", "wires": list(wires)}, use_gadgets=True
        )
        pairs = _key_pairs(keys["enc_keys"][0], wires)
        return results["values"][0], keys["level"], pairs

    return faithful_evaluator(provision, server_run, eps_target)


def run_client(channel: Channel, dataset, config):
    """Drive a full delegated training session over an open channel.

    Returns (model, metrics) exactly matching a local run with the same seed:
    the delegated-exact mode routes every window evaluation through the
    server, plaintext mode trains locally but still publishes parameters.
    """
    session = ClientSession(channel)
    session.hello(config.seed, config.mode)
    session.open_rsp(0)
    session.close_rsp()

    if config.mode == "plaintext":
        evaluator = None
    elif config.mode == "delegated-exact-gates":
        evaluator = make_exact_evaluator(session)
    else:
        evaluator = make_faithful_evaluator(session, config.eps_target)

    def publish(model, entry):
        session.param_update(model.theta, model.w, model.bias, entry.epoch)

    try:
        model, metrics = train(
            dataset, config, evaluator=evaluator, epoch_callback=publish
        )
    finally:
        session.done()
    return model, metrics
