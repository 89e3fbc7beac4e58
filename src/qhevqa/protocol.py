"""Two-party delegation protocol: framed messages, transports, sessions.

The client (data owner) and server (compute owner) exchange length-prefixed
frames carrying JSON payloads. The server owns the one phase machine

    handshake -> open -> done

(Hello opens a session, Done ends it). ``SCHEMA`` gives each kind the server
accepts its phases and the type and bound of every field, and ``validate``
checks a payload against it before any handler runs; a handler checks only
what needs session state, before it changes anything. The client session holds
only its channel; a misordered call raises ``ProtocolError`` from the server.

The server performs all quantum actions (remote state preparation rounds, pair
coupling, homomorphic evaluation, the <X x X> readout) and only ever sees
public structure, fresh encryptions, padded amplitudes and the circuits it
runs; the client keeps the trapdoors, the key chain, the data and the trained
model. Each bit row or ciphertext the server takes is in a ``Blob``, canonical
base64 of fixed-width records: packed bit rows, or a leaf table at a level the
frame carries; only the keys a run returns travel as hex. Remote state
preparation runs in batches sized to a key generation's T count, of up to
``RSP_BATCH`` rounds, one request and one reply frame per batch and step. A
key generation's gadgets (their coupling instructions and leaves) and the
rounds to drop travel in its one ``GadgetClassical`` frame, sent at its end; a
rare top-up batch first sends the gadgets built so far in a frame of their
own. The server's gadget queue always holds levels 1..n in order: a frame
continues it, and a homomorphic run takes all of it. A delegated run is one
``RunRequest``, which carries its own padded input (and, for a homomorphic
run, the input's level-0 key pairs) and names the two wires it reads, so no
input waits on the server between requests. A run is one shot: its
``ShotResults`` holds one <X x X> value, the one readout training uses. Each
party sends only what the other reads: Hello carries only the session seed,
and a plaintext training session is Hello and Done.

Two transports share the frame codec byte for byte: an in-process queue pair
and localhost TCP (default port 7913; ``QHEVQA_HOST`` / ``QHEVQA_PORT``
override). All server randomness derives from the session seed sent in Hello,
so a run is replayable and transport-independent.

Simulation seam: states crossing the wire (the padded input register, remotely
prepared qubits held server-side) are simulator objects; the input register
travels as (re, im) amplitude pairs, which a physical protocol
would of course never do. The classical transcript is real wire traffic in
both modes.
"""
from __future__ import annotations

import base64
import json
import math
import os
import queue
import socket
import struct
import threading
from collections import deque, namedtuple
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, count, islice

import numpy as np

from .classical_he import (LEAF_BYTES, HECiphertext, HEError, ct_from_bytes, ct_to_bytes,
                           leaves_from_bytes, leaves_to_bytes)
from .qhe import EVAL_KINDS, SECURITY, CipherState, ClientKeys, keygen, t_count
from .rsp_gadget import (
    GADGET_QUBITS,
    MAX_DRAWS,
    PAIR_COUNT,
    RSP_BATCH,
    RSP_MU,
    RSP_N,
    Gadget,
    GadgetError,
    assemble_gadget_state,
    claw_round,
    rsp_server_commit,
    rsp_server_measure,
)
from .simulator import (
    GATE_KINDS,
    MAX_QUBITS,
    ROTATION_1Q,
    TWO_QUBIT_KINDS,
    Gate,
    StateVector,
    gate,
)
from .skdecomp import BASE_LENGTH, MAX_DEPTH
from .vqa import exact_evaluator, faithful_evaluator, train, xx_run, xx_run_homomorphic

VERSION = 11
MAX_FRAME = 16 * 1024 * 1024
# RSP qubits a session holds, committed or prepared: one gadget's worst-case
# draws plus one batch. A gadget frame couples four held qubits per gadget.
MAX_HELD = 2 * PAIR_COUNT * MAX_DRAWS + RSP_BATCH
MAX_FRAME_GADGETS = MAX_HELD // GADGET_QUBITS
# The top gadget level, and so the queue's bound: the most gadgets the run of
# one synthesized window takes. A depth-0 word has at most BASE_LENGTH ops,
# and a depth-d word is the depth-(d-1) word and four more words of depth
# d-1, so at most 5x as long: at most 12 * 5**5 = 37 500 ops at MAX_DEPTH. H
# separates T syllables after ``fold_t_runs``, so at most half of them
# (rounded up) are T gates, and a window has four rotations: 75 000.
MAX_LEVEL = 4 * math.ceil(BASE_LENGTH * 5**MAX_DEPTH / 2)
HEADER = struct.Struct("<I")  # little-endian payload length
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7913

KINDS = (
    "Hello",
    "RspCommit",
    "RspBasis",
    "RspOutcome",
    "GadgetClassical",
    "RunRequest",
    "ShotResults",
    "EncKeysUpdate",
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
    """``QHEVQA_HOST`` and ``QHEVQA_PORT``, or the defaults. A port that is
    not an integer in 0..65535 is a ValueError."""
    host = os.environ.get("QHEVQA_HOST", DEFAULT_HOST)
    text = os.environ.get("QHEVQA_PORT", str(DEFAULT_PORT))
    port = int(text) if text.strip().isdecimal() else -1
    if not 0 <= port <= 65535:
        raise ValueError(f"QHEVQA_PORT must be an integer in 0..65535, got {text!r}")
    return host, port


def connect_tcp(host: str | None = None, port: int | None = None) -> TcpChannel:
    env_host, env_port = default_endpoint()
    sock = socket.create_connection((host or env_host, port or env_port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return TcpChannel(sock)


# --- JSON <-> simulator conversions ----------------------------------------


def amps_to_json(state: StateVector) -> list[list[float]]:
    return np.ascontiguousarray(state.amplitudes).view(float).reshape(-1, 2).tolist()


def amps_from_json(pairs, num_qubits: int) -> StateVector:
    """The register of (re, im) pairs that ``validate`` has accepted."""
    return StateVector(num_qubits, np.asarray(pairs, dtype=float).view(complex).ravel())


def circuit_to_json(circuit: list[Gate]) -> list[dict]:
    return [{"kind": g.kind, "wires": list(g.wires)} if g.angle is None else
            {"kind": g.kind, "wires": list(g.wires), "angle": float(g.angle)} for g in circuit]


def circuit_from_json(entries) -> list[Gate]:
    """The circuit of gate entries that ``validate`` has accepted."""
    return [gate(e["kind"], *e["wires"], angle=e.get("angle")) for e in entries]


def to_blob(records) -> str:
    """``Blob`` text of a leaf table, or of a bit array's rows packed little-endian."""
    if type(records) is not bytes:
        bits = np.asarray(records, dtype=np.uint8)
        rows = bits.reshape(len(bits), math.prod(bits.shape[1:]))
        records = np.packbits(rows, axis=1, bitorder="little").tobytes()
    return base64.b64encode(records).decode("ascii")


def ct_to_hex(ct: HECiphertext) -> str:
    return ct_to_bytes(ct).hex()


def ct_from_hex(text: str) -> HECiphertext:
    try:
        return ct_from_bytes(bytes.fromhex(text))
    except (ValueError, HEError) as exc:  # bad hex, a bad ciphertext
        raise ProtocolError("payload", f"bad ciphertext encoding: {exc}") from exc


# --- message schema ---------------------------------------------------------

# Field types, read only by ``validate``. A bound given as a string names an
# earlier field of an enclosing message (a list field stands for its length)
# or a request value the client checks a reply against.
Int = namedtuple("Int", "lo hi", defaults=(0, None))  # an int, never a bool
Wire = namedtuple("Wire", "wires")  # an int index below the named wire count, never a bool
Num = namedtuple("Num", ())  # a finite JSON number, never a bool
Enum = namedtuple("Enum", "values")  # a str or bool among the values
Str = namedtuple("Str", ())
Ct = namedtuple("Ct", "level")  # a hex ciphertext whose root sits at the level
Seq = namedtuple("Seq", "item lo hi distinct", defaults=(0, None, False))  # lo..hi items
Amps = namedtuple("Amps", "wires")  # (re, im) pairs of a unit-norm 2**wires register
Blob = namedtuple("Blob", "lo hi shape level", defaults=(None,))  # base64 bit rows or leaves
Opt = namedtuple("Opt", "type default", defaults=(None,))  # absent or null: default
Rec = namedtuple("Rec", "fields")  # an object with no fields but these
Variants = namedtuple("Variants", "tag cases")  # tag None: the one case key present
Entry = namedtuple("Entry", "phases payload")

# A session's phases. Hello, accepted only in handshake, opens it; Done,
# accepted only in handshake or open, ends it.
PHASES = ("handshake", "open", "done")

QID, WIRE, OPEN = Int(), Wire("num_wires"), ("open",)
OK = Rec({"ok": Enum((True,))})  # an acknowledgement
QIDS = Seq(QID, "rows", "rows", True)
# One gadget of a frame: the qids of its two (head, tail) pairs to couple and
# its leaves, built at its level: 8 correction bits and SECURITY key bits.
GADGET = Rec({"pairs": Seq(Seq(QID, 2, 2), 2, 2, True), "level": Int(1, MAX_LEVEL),
              "leaves": Blob(8 + SECURITY, 8 + SECURITY, (), "level")})

# Every reply the client takes, with bounds from the request: ``rows`` RSP
# rounds asked for and a run's key ``level``, its T count.
REPLIES = {
    "RspCommit": Rec({"qids": QIDS, "y": Blob("rows", "rows", (RSP_MU,))}),
    "RspOutcome": Rec({"qids": QIDS, "b": Blob("rows", "rows", (RSP_N - 1,))}),
    "ShotResults": Rec({"value": Num()}),  # a run's one readout
    "EncKeysUpdate": Rec({"enc_keys": Seq(Seq(Seq(Ct("level"), 2, 2), 2, 2), 1, 1)}),  # one shot
    "Hello": OK, "GadgetClassical": OK,
    "Done": Rec({}),
    "Error": Rec({"code": Str(), "text": Opt(Str(), "")}),
}


def _run_request(use_gadgets: bool, kinds) -> Rec:
    """One shot of a circuit over ``kinds`` on its padded input, read out as
    the <X x X> of two distinct ``wires``. A homomorphic run takes Clifford+T
    only and the input's level-0 key pairs."""
    arity = {k: 2 if k in TWO_QUBIT_KINDS else 1 for k in kinds}
    gates = {k: Rec({"kind": Enum((k,)), "wires": Seq(WIRE, arity[k], arity[k], True),
                     **({"angle": Num()} if k in ROTATION_1Q else {})}) for k in kinds}
    keys = {"enc_keys": Blob("num_wires", "num_wires", (2,), 0)} if use_gadgets else {}
    return Rec({
        "num_wires": Int(1, MAX_QUBITS), "amps": Amps("num_wires"),  # bounded before 2**n
        **keys,
        "circuit": Seq(Variants("kind", gates)),
        "wires": Seq(WIRE, 2, 2, True),
        "use_gadgets": Enum((use_gadgets,)),
    })


SCHEMA = {
    "Hello": Entry(("handshake",), Rec({"session_seed": Int()})),
    "RspBasis": Entry(OPEN, Variants(None, {
        "matrix": Rec({"matrix": Blob(1, RSP_BATCH, (RSP_MU, RSP_N))}),
        "alphas": Rec({"qids": Seq(QID, 1, RSP_BATCH, True),
                       "alphas": Blob("qids", "qids", (RSP_N - 1,))}),
    })),
    "GadgetClassical": Entry(OPEN, Rec({"gadgets": Seq(GADGET, 1, MAX_FRAME_GADGETS),
                                        "discard": Seq(QID, 0, MAX_HELD)})),
    "RunRequest": Entry(OPEN, Variants("use_gadgets", {
        False: _run_request(False, GATE_KINDS),
        True: _run_request(True, EVAL_KINDS),
    })),
    "Done": Entry(("handshake", "open"), Rec({})),
}


def _bound(bound, ctx):
    """A bound's value: a named bound resolves in ``ctx``, a list to its length."""
    bound = ctx.get(bound, bound)
    return len(bound) if type(bound) is tuple else bound


def validate(spec, value, ctx):
    """Return ``value`` checked against the field type ``spec`` (else a payload
    error), with lists as tuples, bits and amplitudes as arrays, ciphertexts
    decoded and absent optional fields filled in. ``ctx`` holds named bounds
    and gains each record field that passes."""
    t = type(spec)
    if t is Int:
        lo, hi = _bound(spec.lo, ctx), _bound(spec.hi, ctx)
        if type(value) is int and lo <= value and (hi is None or value <= hi):
            return value
    elif t is Wire:
        if type(value) is int and 0 <= value < ctx[spec.wires]:
            return value
    elif t is Enum:
        if type(value) in (str, bool) and value in spec.values:
            return value
    elif t is Num:
        if type(value) in (int, float) and abs(value) < 1e308:  # NaN and inf fail
            return value
    elif t is Rec:
        if type(value) is not dict or not value.keys() <= spec.fields.keys():
            raise ProtocolError("payload", f"expected an object with fields {list(spec.fields)}")
        out: dict = {}
        for name, field in spec.fields.items():
            try:  # each field joins ctx, as a bound for the fields after it
                out[name] = ctx[name] = validate(field, value.get(name), ctx)
            except ProtocolError as exc:
                raise ProtocolError("payload", f"{name}: {exc.text}") from None
        return out
    elif t is Seq:
        lo, hi = _bound(spec.lo, ctx), _bound(spec.hi, ctx)
        if type(value) is not list or len(value) < lo or (hi is not None and len(value) > hi):
            raise ProtocolError("payload", f"expected a list of {lo} to {hi} entries")
        out = tuple([validate(spec.item, item, ctx) for item in value])
        flat = list(chain.from_iterable(out)) if out and type(out[0]) is tuple else out
        if spec.distinct and len(set(flat)) != len(flat):
            raise ProtocolError("payload", "expected distinct entries")
        return out
    elif t is Variants:  # the tag's value names the case; with no tag, the one case key present
        d = value if type(value) is dict else {}
        keys = [d.get(spec.tag)] if spec.tag else [k for k in spec.cases if k in d]
        if len(keys) != 1 or type(keys[0]) not in (str, bool) or keys[0] not in spec.cases:
            raise ProtocolError("payload", f"expected one of the forms {list(spec.cases)}")
        return validate(spec.cases[keys[0]], value, ctx)
    elif t is Opt:
        return spec.default if value is None else validate(spec.type, value, ctx)
    elif t is Amps:
        n = 2 ** ctx[spec.wires]
        with suppress(TypeError, OverflowError):  # a row with no length, an int past a float
            if type(value) is list and len(value) == n and set(map(len, value)) == {2}:
                flat = list(chain.from_iterable(value))
                if set(map(type, flat)) <= {int, float}:
                    arr = np.array(flat, dtype=float)
                    # One dot product checks finiteness and norm: NaN or inf fails the bound.
                    if abs(arr @ arr - 1) <= 1e-9:
                        return arr
    elif t is Blob:  # rows of the shape's bits, or with a level, of its leaves built there
        lo, hi, width = _bound(spec.lo, ctx), _bound(spec.hi, ctx), math.prod(spec.shape)
        size = -(-width // 8) if spec.level is None else LEAF_BYTES * width
        data = b""  # unless value is decoded: b"" is the text "" only
        if type(value) is str and len(value) <= 4 * -(-hi * size // 3):  # bounded before decoding
            with suppress(ValueError):  # a character outside the alphabet, bad padding
                data = base64.b64decode(value, validate=True)
        rows, part = divmod(len(data), size)
        # One text per value: "AB==" decodes too, to the byte of "AA==".
        if not part and lo <= rows <= hi and base64.b64encode(data).decode() == value:
            if spec.level is None:
                bits = np.unpackbits(np.frombuffer(data, "u1"), bitorder="little")
                bits = bits.reshape(rows, 8 * size)  # bit j of a row: j % 8 of byte j // 8
                if not bits[:, width:].any():  # the unused high bits are zero
                    return bits[:, :width].reshape(rows, *spec.shape).astype(np.int64)
            else:
                with suppress(HEError):  # a masked bit other than 0 and 1
                    leaves = leaves_from_bytes(data, _bound(spec.level, ctx))
                    return tuple(zip(*[iter(leaves)] * width)) if spec.shape else leaves
    elif t is Str:
        if type(value) is str:
            return value
    elif t is Ct:  # the level, checked before any run
        if type(value) is str:
            ct = ct_from_hex(value)
            if ct.level == ctx.get(spec.level, spec.level):
                return ct
    raise ProtocolError("payload", f"expected {spec}")


# --- server role ------------------------------------------------------------


class ServerSession:
    """One server-side session: phase machine plus quantum/HE workloads.

    Between requests it holds only prepared and committed RSP qubits and
    queued gadgets: each run brings its own input. It keeps no record of the
    payloads it takes; a test watches what the server sees at its channel.
    ``phase`` is the whole session state: Done, or an Error the server sends,
    ends the session in ``"done"``.
    """

    audit: deque = deque(maxlen=0)  # always empty: perfbench clears it

    def __init__(self, channel: Channel):
        self.channel = channel
        self.phase = "handshake"
        self.rng: np.random.Generator | None = None
        self.qubits: dict[int, StateVector] = {}  # prepared RSP outputs
        self.pending: dict[int, np.ndarray] = {}  # committed claw states, not yet measured
        self._qids = count()  # the next qid to hand out
        self.gadgets: list[Gadget] = []

    # -- plumbing --

    def run(self) -> None:
        try:
            while self.phase != "done":
                try:
                    self._dispatch(self.channel.recv())
                except ChannelClosed:
                    break
                except ProtocolError as exc:
                    self._fail(exc)
                except Exception as exc:  # noqa: BLE001 - session must not crash
                    self._fail(ProtocolError("internal", str(exc)))
        finally:
            self.channel.close()

    def _fail(self, exc: ProtocolError) -> None:
        try:
            self.channel.send(Message("Error", {"code": exc.code, "text": exc.text}))
        except (ChannelClosed, OSError):
            pass
        self.phase = "done"

    def _reply(self, kind: str, payload: dict) -> None:
        self.channel.send(Message(kind, payload))

    def _dispatch(self, msg: Message) -> None:
        entry = SCHEMA.get(msg.kind)
        if entry is None:
            raise ProtocolError("kind", f"server cannot handle {msg.kind}")
        if self.phase not in entry.phases:
            raise ProtocolError("phase", f"message not allowed in phase {self.phase!r}")
        payload = validate(entry.payload, msg.payload, {})
        getattr(self, f"_on_{msg.kind.lower()}")(payload)

    # -- handlers: each payload has passed ``validate`` --

    def _on_hello(self, p: dict) -> None:
        self.rng = np.random.default_rng(p["session_seed"])
        self.phase = "open"
        self._reply("Hello", {"ok": True})

    def _on_gadgetclassical(self, p: dict) -> None:
        """Queue a frame's gadgets in order: couple each one's two (head, tail)
        pairs and keep its leaves; then drop the frame's discarded rounds.

        The whole frame is checked before any prepared qubit is removed: its
        leaf tables and levels (at most ``MAX_LEVEL``) by ``validate``, and
        here every pair's qid, known and used once across the frame's
        gadgets, and the levels, which continue the queue, so that the queue
        always holds levels 1..n.
        """
        qids = [q for g in p["gadgets"] for pair in g["pairs"] for q in pair]
        if len(set(qids)) != len(qids):
            raise ProtocolError("payload", "a qid repeats across the frame's gadgets")
        if not self.qubits.keys() >= set(qids):
            raise ProtocolError("order", "an unknown prepared qubit in the frame's pairs")
        first = len(self.gadgets) + 1
        if [g["level"] for g in p["gadgets"]] != list(range(first, first + len(p["gadgets"]))):
            raise ProtocolError("order", f"the frame's gadget levels do not run on from {first}")
        for g in p["gadgets"]:
            heads, tails = ([self.qubits.pop(q) for q in side] for side in zip(*g["pairs"]))
            state = assemble_gadget_state(heads, tails)
            self.gadgets.append(Gadget(state, g["leaves"], g["level"]))
        for qid in p["discard"]:
            self.qubits.pop(qid, None)
        self._reply("GadgetClassical", {"ok": True})

    def _on_rspbasis(self, p: dict) -> None:
        """Commit a batch of claw rounds or measure a committed batch; a
        batch's replies list its qids. The server never learns an angle: only
        the client, which drew each round's trapdoor, can recover it."""
        if "alphas" in p:
            qids = list(p["qids"])
            if not self.pending.keys() >= set(qids):
                raise ProtocolError("order", f"no committed round among qids {qids}")
            states = np.array(list(map(self.pending.pop, qids)))
            b, qubits = rsp_server_measure(states, p["alphas"], self.rng)
            self.qubits.update(zip(qids, qubits))
            self._reply("RspOutcome", {"qids": qids, "b": to_blob(b)})
            return
        rows = len(p["matrix"])
        held = len(self.qubits) + len(self.pending)
        if held + rows > MAX_HELD:
            raise ProtocolError("budget", f"{held} RSP qubits held, {rows} more asked")
        qids = list(islice(self._qids, rows))
        y, states = rsp_server_commit(p["matrix"], self.rng)
        self.pending.update(zip(qids, states))
        self._reply("RspCommit", {"qids": qids, "y": to_blob(y)})

    def _on_runrequest(self, p: dict) -> None:
        """Run the circuit on the request's padded input and read out the
        <X x X> of its two wires once. A homomorphic run takes the whole gadget
        queue, which must hold one gadget per T gate (its levels are 1..t, as
        the frames that filled it were checked to be), and also returns the
        two wires' updated (a, b) pairs in ``wires`` order; a
        compensated-circuit run leaves keys with the client."""
        circuit, wires = circuit_from_json(p["circuit"]), p["wires"]
        register = amps_from_json(p["amps"], p["num_wires"])
        if not p["use_gadgets"]:
            self._reply("ShotResults", {"value": xx_run(register, circuit, wires)})
            return
        needed, queued = t_count(circuit), len(self.gadgets)
        if needed != queued:
            raise ProtocolError("budget", f"{needed} gadgets needed, {queued} queued")
        run_gadgets, self.gadgets = tuple(self.gadgets), []
        value, _, keys = xx_run_homomorphic(CipherState(register, p["enc_keys"], 0), circuit,
                                            wires, run_gadgets, self.rng)
        self._reply("ShotResults", {"value": value})
        row = [[ct_to_hex(a), ct_to_hex(b)] for a, b in (keys[w] for w in wires)]
        self._reply("EncKeysUpdate", {"enc_keys": [row]})

    def _on_done(self, p: dict) -> None:
        self.phase = "done"
        self._reply("Done", {})


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
        port = env_port if port is None else port
        try:
            self.listener.bind((self.host, port))
        except OSError as exc:
            self.listener.close()
            detail = f"cannot listen on {self.host}:{port}: {exc.strerror}"
            raise OSError(exc.errno, detail) from exc
        self.port = self.listener.getsockname()[1]
        # Sessions still running and their threads; each leaves when its run returns.
        self.sessions: set[ServerSession] = set()
        self._threads: set[threading.Thread] = set()
        self._lock = threading.Lock()
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
            thread = threading.Thread(target=self._serve, args=(session,), daemon=True)
            with self._lock:
                self.sessions.add(session)
                self._threads.add(thread)
            thread.start()

    def _serve(self, session: ServerSession) -> None:
        try:
            session.run()
        finally:
            with self._lock:
                self.sessions.discard(session)
                self._threads.discard(threading.current_thread())

    def stop(self) -> None:
        self._stopping = True
        # Closing alone does not wake a thread blocked in accept() on Linux;
        # shutting the listener down makes accept() fail. A listener already
        # shut down raises OSError here, which is harmless.
        with suppress(OSError):
            self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5)


# --- client role ------------------------------------------------------------


class ClientSession:
    """Client-side driver: handshake, gadget provisioning, delegated runs.

    It keeps no phase: the server decides what is in order.
    """

    def __init__(self, channel: Channel):
        self.channel = channel

    # -- plumbing --

    def _ask(self, kind: str, payload: dict, *expected: str, **check) -> Message:
        self.channel.send(Message(kind, payload))
        return self._recv(*expected, **check)

    def _recv(self, *expected: str, **bounds) -> Message:
        """The next reply, of an ``expected`` kind or an Error, validated
        against ``REPLIES`` with ``bounds`` naming request values."""
        reply = self.channel.recv()
        if reply.kind != "Error" and reply.kind not in expected:
            raise ProtocolError("kind", f"expected {expected}, got {reply.kind}")
        payload = validate(REPLIES[reply.kind], reply.payload, bounds)
        if reply.kind == "Error":
            raise ProtocolError(payload["code"], payload["text"])
        return Message(reply.kind, payload)

    # -- acknowledged steps --

    def hello(self, session_seed: int, mode: str | None = None) -> None:
        """Open the session; the frame header carries the protocol version.
        ``mode`` is not read: it stays only because perfbench's
        ``open_session`` passes one."""
        self._ask("Hello", {"session_seed": int(session_seed)}, "Hello")

    def open_rsp(self, declared: int = 0) -> None:
        """Send nothing: it stays only because perfbench's ``open_session``
        calls it. The server keeps no declared count."""

    def close_rsp(self) -> None:
        """Send nothing: it stays only because perfbench's ``open_session``
        calls it. Each key generation's last gadget frame drops its spare
        rounds."""

    # -- remote state preparation --

    def _round(self, pool: deque, left, flush):
        """The claw-based RSP round on the server, each yielding
        (theta_index, qid), pooled in batches that ``rsp_rows`` sizes to the
        ``left()`` gadgets still to build, at most ``RSP_BATCH``.
        ``flush()`` runs before each commit."""

        def commit(matrices, _rng):
            flush()
            payload = {"matrix": to_blob(matrices)}
            reply = self._ask("RspBasis", payload, "RspCommit", rows=len(matrices))
            return reply.payload["y"], reply.payload["qids"]

        def measure(qids, alphas, _rng):
            payload = {"qids": qids, "alphas": to_blob(alphas)}
            reply = self._ask("RspBasis", payload, "RspOutcome", rows=len(qids))
            if reply.payload["qids"] != qids:
                raise ProtocolError("payload", "the outcomes are for other qids")
            return reply.payload["b"], qids

        claw = claw_round(commit, measure, left, pool)

        def round_(rng):
            try:
                return claw(rng)
            except GadgetError as exc:  # an image y outside its matrix's image
                raise ProtocolError("payload", str(exc)) from None

        return round_

    def remote_keygen(
        self, num_wires: int, circuit: list[Gate], rng: np.random.Generator
    ) -> tuple[ClientKeys, None]:
        """Run key generation with one run's gadgets provisioned on the server;
        return the client keys and None for the gadgets, which stay with the
        server: the form ``vqa.faithful_evaluator`` takes.

        The gadgets draw from one pool of claw-based RSP rounds, asked for in
        one batch ``rsp_rows`` sizes to the run's T count and topped up only
        if the pool runs dry. One ``GadgetClassical`` frame at the end carries
        every gadget's pairs to couple and leaves, and the rejected and
        spare rounds to drop. A top-up first sends the gadgets built so far
        in a frame of their own, so the server holds at most ``MAX_HELD``
        qubits. A run with no T gate sends nothing.
        """
        frame = {"gadgets": [], "discard": []}

        def send_frame():
            nonlocal frame
            if frame["gadgets"]:
                self._ask("GadgetClassical", frame, "GadgetClassical")
                frame = {"gadgets": [], "discard": []}

        def couple(heads, tails, rejected, gadget):
            frame["discard"] += rejected
            leaves = to_blob(leaves_to_bytes(gadget.leaves, gadget.level))
            frame["gadgets"].append({"pairs": [list(pair) for pair in zip(heads, tails)],
                                     "level": gadget.level, "leaves": leaves})

        pool: deque = deque()
        client_keys, _ = keygen(SECURITY, num_wires, circuit, rng,
                                lambda left: self._round(pool, left, send_frame), couple)
        frame["discard"] += [qid for _, qid in pool]
        send_frame()
        return client_keys, None

    # -- delegated evaluation --

    def request_run(
        self,
        register: StateVector,
        enc_keys: tuple[tuple[HECiphertext, HECiphertext], ...] | None,
        circuit: list[Gate],
        wires: tuple[int, int],
    ) -> tuple[float, tuple | None]:
        """Run ``circuit`` once on the padded ``register`` and read out the
        <X x X> of ``wires``: homomorphically, on the gadgets provisioned for
        it, when ``enc_keys`` holds the register's level-0 key pairs. Returns
        the raw value and, for a homomorphic run, the two wires' updated
        (a, b) key pairs in ``wires`` order, decoded and checked to sit at the
        run's T count."""
        payload = {"num_wires": register.num_qubits, "amps": amps_to_json(register),
                   "circuit": circuit_to_json(circuit), "wires": list(wires),
                   "use_gadgets": enc_keys is not None}
        if enc_keys is not None:
            payload["enc_keys"] = to_blob(leaves_to_bytes([*chain.from_iterable(enc_keys)], 0))
        value = self._ask("RunRequest", payload, "ShotResults").payload["value"]
        if enc_keys is None:
            return value, None
        (row,) = self._recv("EncKeysUpdate", level=t_count(circuit)).payload["enc_keys"]
        return value, row

    def done(self) -> None:
        try:
            self._ask("Done", {}, "Done")
        except (ChannelClosed, ProtocolError):
            pass
        self.channel.close()


# --- delegated training (protocol-level run_client) -------------------------


def make_exact_evaluator(session: ClientSession):
    """Delegated-exact window evaluator whose server step runs over the session.

    Matches the local delegated-exact evaluator value for value: the server
    only ever sees the padded register and the compensated circuit.
    """

    def server_run(register, circuit, wires):
        return session.request_run(register, None, circuit, wires)[0]

    return exact_evaluator(server_run)


def make_faithful_evaluator(session: ClientSession, eps_target: float, rsp_mode: str = "faithful"):
    """Delegated-faithful window evaluator whose server step runs over the session.

    Each evaluation provisions fresh gadgets (one per T gate) for the exact
    circuit it is about to run, so the server's gadget twists always match
    the key flow. Dramatically slower than the compensated mode; intended for
    demonstrations and spot checks, not full training sweeps. Remote RSP is
    claw-based only: ``rsp_mode`` accepts ``"faithful"`` and nothing else.
    """
    if rsp_mode != "faithful":
        raise ProtocolError("mode", f"unknown rsp mode {rsp_mode!r}")

    def server_run(cs, circuit, wires, _ek, _rng):  # the gadgets are the server's
        value, row = session.request_run(cs.register, cs.encrypted_keys, circuit, wires)
        return value, t_count(circuit), dict(zip(wires, row))

    return faithful_evaluator(session.remote_keygen, server_run, eps_target)


def run_client(channel: Channel, dataset, config):
    """Drive a full delegated training session over an open channel.

    Returns (model, metrics) exactly matching a local run with the same seed:
    the delegated modes route every window evaluation through the server;
    plaintext mode trains locally, so its session is the handshake and Done.
    """
    session = ClientSession(channel)
    session.hello(config.seed)

    if config.mode == "plaintext":
        evaluator = None
    elif config.mode == "delegated-exact-gates":
        evaluator = make_exact_evaluator(session)
    else:
        evaluator = make_faithful_evaluator(session, config.eps_target)

    try:
        model, metrics = train(dataset, config, evaluator=evaluator)
    finally:
        session.done()
    return model, metrics
