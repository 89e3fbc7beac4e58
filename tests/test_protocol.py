"""Wire protocol: codec, phase machine, server/client sessions, transports."""
import base64
import functools
import hashlib
import threading
import time
from collections import ChainMap, Counter, deque, namedtuple
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhevqa.classical_he import (
    LEAF_BYTES,
    NONCE_BYTES,
    SUM,
    ct_to_bytes,
    he_const,
    he_enc,
    he_keygen,
    leaves_from_bytes,
    leaves_to_bytes,
)
from qhevqa.protocol import (
    Amps,
    Blob,
    ChannelClosed,
    ClientSession,
    Ct,
    Enum,
    Int,
    KINDS,
    MAX_FRAME,
    MAX_FRAME_GADGETS,
    MAX_HELD,
    Message,
    Num,
    Opt,
    PHASES,
    ProtocolError,
    REPLIES,
    Rec,
    SCHEMA,
    Seq,
    TcpServer,
    VERSION,
    Variants,
    Wire,
    amps_from_json,
    amps_to_json,
    circuit_from_json,
    circuit_to_json,
    connect_tcp,
    ct_from_hex,
    ct_to_hex,
    decode_message,
    encode_message,
    make_exact_evaluator,
    make_faithful_evaluator,
    make_inproc_pair,
    run_client,
    serve_inproc,
    to_blob,
    validate,
)
from qhevqa import classical_he, protocol, vqa
from qhevqa.cli import _random_clifford_t_circuit
from qhevqa.pauli_frame import apply_pad
from qhevqa.qhe import SECURITY, CipherState, decrypt_keys, encrypt, keygen, t_count, xx_sign
from qhevqa.rsp_gadget import (
    RSP_BATCH,
    RSP_MU,
    RSP_N,
    assemble_gadget_state,
    rsp_rows,
    sample_trapdoor,
)
from qhevqa.simulator import (
    ROTATION_1Q,
    StateVector,
    amplitude_encode,
    fidelity,
    gate,
    random_state,
)
from qhevqa.skdecomp import (
    BASE_LENGTH,
    MAX_DEPTH,
    decompose_circuit,
    default_net,
    fold_t_runs,
    sk_decompose,
)
from qhevqa.vqa import (
    REFERENCE_THETA_INIT,
    LabeledDataset,
    ShadowModel,
    TrainConfig,
    build_shadow_circuit,
    load_digits_csv,
    shadow_features,
    train,
    window_evaluator,
    write_metrics_csv,
    xx_run,
)


def broken_ct_decoder(*args):
    raise KeyError("a decoder fault")


GADGET_LEAVES = protocol.GADGET.fields["leaves"].lo  # the leaves of a gadget in a frame


HOSTILE_KEYS = ("above", "order", "repeat", 2, 3, 4, 5)


def hostile_key_hex(level, kind):
    """A key whose root sits at ``level`` in an encoding ``ct_from_bytes``
    refuses: a sum of two leaves, one of them a level above the sum
    ("above"), the two out of order ("order") or one leaf twice ("repeat"),
    or that sum under a removed op byte (2-5 were AND, NOT, CONST and
    KEYSWITCH)."""
    rng = np.random.default_rng(level)
    leaves = sorted(  # each leaf's encoding without its op byte: level, nonce, masked, tag
        ct_to_bytes(he_enc(he_keygen(16, rng, level=lv).pk, 1, rng))[1:]
        for lv in (level, level + (kind == "above"))
    )
    if kind == "order":
        leaves.reverse()
    elif kind == "repeat":
        leaves[1] = leaves[0]
    op = kind if type(kind) is int else SUM
    return (bytes([op, level, 0, 2]) + b"".join(leaves)).hex()


def spoil_first_key(payload, kind):
    """A one-T run's ``EncKeysUpdate`` payload whose first key is a
    ``hostile_key_hex`` at the run's level, 1."""
    (row,) = payload["enc_keys"]
    first = [hostile_key_hex(1, kind), row[0][1]]
    return {**payload, "enc_keys": [[first, *row[1:]]]}


def key_blob(pairs):
    """Level-0 key pairs as a RunRequest carries them: one leaf table."""
    return to_blob(leaves_to_bytes([k for pair in pairs for k in pair], 0))


def blob_leaves(text, level):
    """The leaves of a leaf-table ``Blob``."""
    return leaves_from_bytes(base64.b64decode(text), level)


def remote_xx(client, circuit, state, rng, wires=(0, 1)):
    """One homomorphic <X x X> run of ``circuit`` over the session, as
    ``make_faithful_evaluator`` makes one: keys with the gadgets on the
    server, the padded input, the run, and the sign decrypted from the two
    wires' returned keys. Returns (sign, raw value)."""
    client_keys, _ = client.remote_keygen(state.num_qubits, circuit, rng)
    cs, _ = encrypt(client_keys, state, rng)
    raw, row = client.request_run(cs.register, cs.encrypted_keys, circuit, wires)
    return xx_sign(client_keys, t_count(circuit), dict(zip(wires, row)), wires), raw


def watch(channel):
    """Record the frames crossing ``channel``, decoded: returns the lists of
    the frames it sends and receives, which grow as the session runs. At the
    client end of ``serve_inproc()`` these are byte for byte the frames the
    server receives and sends."""
    sent, received = [], []
    send, recv = channel.send_bytes, channel.recv_bytes

    def send_bytes(data):
        sent.append(decode_message(data))
        send(data)

    def recv_bytes():
        data = recv()
        received.append(decode_message(data))
        return data

    channel.send_bytes, channel.recv_bytes = send_bytes, recv_bytes
    return sent, received


GOLDEN_CIRCUIT = [
    gate("H", 0), gate("T", 0), gate("CNOT", 0, 1), gate("Tdagger", 1), gate("H", 1),
]


def golden_runs(transcript=None):
    """The golden transcript's session: three homomorphic <X x X> runs of
    ``GOLDEN_CIRCUIT`` over claw RSP, reading wires (1, 0), on inputs drawn
    from their own generator. Every frame both ways goes to ``transcript``
    (a hash) if one is given. Returns (input, sign, raw value) per run."""
    inputs = np.random.default_rng(6)
    states = [random_state(2, inputs) for _ in range(3)]
    channel, _session, thread = serve_inproc()
    if transcript is not None:
        send, recv = channel.send_bytes, channel.recv_bytes

        def send_bytes(data):
            transcript.update(data)
            send(data)

        def recv_bytes():
            data = recv()
            transcript.update(data)
            return data

        channel.send_bytes, channel.recv_bytes = send_bytes, recv_bytes
    client = ClientSession(channel)
    client.hello(5)
    rng = np.random.default_rng(5)
    runs = [(psi, *remote_xx(client, GOLDEN_CIRCUIT, psi, rng, (1, 0))) for psi in states]
    client.done()
    thread.join(timeout=5)
    return runs


TOP_UP_CIRCUIT = [gate("H", 0), gate("CNOT", 0, 1)] + [
    gate("T", 0), gate("H", 0), gate("Tdagger", 1), gate("H", 1), gate("CNOT", 1, 0),
] * 50


def top_up_window():
    """One homomorphic run of ``TOP_UP_CIRCUIT``, whose 100 T gates take
    more RSP rounds than one batch. Returns its input, sign and raw value,
    the RSP qubits the server held after each frame, the frames the client
    sent after Hello, a hash of every byte it sent and the server session."""
    channel, session, thread = serve_inproc()
    held, dispatch = [], session._dispatch

    def dispatch_and_count(msg):
        dispatch(msg)
        held.append(len(session.qubits) + len(session.pending))

    session._dispatch = dispatch_and_count
    sent, send = hashlib.sha256(), channel.send_bytes
    channel.send_bytes = lambda data: (sent.update(data), send(data))[1]
    client = ClientSession(channel)
    client.hello(44)
    to_server, _ = watch(channel)
    rng = np.random.default_rng(44)
    psi = random_state(2, rng)
    sign, raw = remote_xx(client, TOP_UP_CIRCUIT, psi, rng)
    client.done()
    thread.join(timeout=30)
    return psi, sign, raw, held, to_server, sent, session


# One claw matrix, rows [1, 0, 1, 0], and one row of basis bits [0, 1, 0].
MATRIX, ALPHAS = [[1, 0, 1, 0]] * 4, [0, 1, 0]


def prepare_rsp(channel, rows):
    """Prepare ``rows`` RSP qubits on the server by one claw batch: a
    ``matrix`` commit, then an ``alphas`` measure. Returns their qids."""
    channel.send(Message("RspBasis", {"matrix": to_blob([MATRIX] * rows)}))
    qids = channel.recv().payload["qids"]
    channel.send(Message("RspBasis", {"qids": qids, "alphas": to_blob([ALPHAS] * rows)}))
    assert channel.recv().kind == "RspOutcome"
    return qids


def commit_rsp(channel, rows=1):
    """Commit ``rows`` claw rounds on the server, left pending. Returns their qids."""
    channel.send(Message("RspBasis", {"matrix": to_blob([MATRIX] * rows)}))
    reply = channel.recv()
    assert reply.kind == "RspCommit"
    return reply.payload["qids"]


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def noncanonical(text):
    """``text``, a Blob whose bytes leave pad bits (its length is not a
    multiple of 3), with the lowest pad bit set: the same bytes decode."""
    i = text.index("=") - 1
    return text[:i] + B64[B64.index(text[i]) + 1] + text[i + 1 :]


class TestCodec:
    def test_round_trip(self):
        msg = Message("Hello", {"session_seed": 7})
        assert decode_message(encode_message(msg)) == msg

    def test_encoding_is_canonical(self):
        a = Message("Hello", {"b": 1, "a": 2})
        b = Message("Hello", {"a": 2, "b": 1})
        assert encode_message(a) == encode_message(b)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ProtocolError):
            Message("Nope", {})

    def test_rejects_non_dict_payload(self):
        with pytest.raises(ProtocolError):
            Message("Hello", [1, 2])

    def test_rejects_wrong_version(self):
        data = bytearray(encode_message(Message("Hello", {})))
        data[4] = VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_message(bytes(data))

    def test_rejects_bad_kind_code(self):
        data = bytearray(encode_message(Message("Hello", {})))
        data[5] = len(KINDS)
        with pytest.raises(ProtocolError, match="kind"):
            decode_message(bytes(data))

    def test_rejects_length_mismatch(self):
        data = encode_message(Message("Hello", {"k": 1}))
        with pytest.raises(ProtocolError, match="framing"):
            decode_message(data + b"x")

    def test_rejects_truncation(self):
        data = encode_message(Message("Hello", {"k": 1}))
        for cut in (0, 3, 5, len(data) - 1):
            with pytest.raises(ProtocolError):
                decode_message(data[:cut])

    def test_rejects_non_object_payload(self):
        import json
        import struct

        body = json.dumps([1, 2]).encode()
        frame = struct.pack("<I", len(body)) + bytes([VERSION, 0]) + body
        with pytest.raises(ProtocolError, match="payload"):
            decode_message(frame)

    @staticmethod
    def raw_frame(body: bytes) -> bytes:
        import struct

        return struct.pack("<I", len(body)) + bytes([VERSION, 0]) + body

    def test_deeply_nested_json_is_a_payload_error(self):
        depth = 200_000
        frame = self.raw_frame(b'{"k":' + b"[" * depth + b"]" * depth + b"}")
        with pytest.raises(ProtocolError, match="payload"):
            decode_message(frame)

    def test_oversized_json_integer_is_a_payload_error(self):
        frame = self.raw_frame(b'{"shots":' + b"9" * 5000 + b"}")
        with pytest.raises(ProtocolError, match="payload"):
            decode_message(frame)

    def test_oversize_rejected_on_encode(self):
        big = {"blob": "x" * (MAX_FRAME + 16)}
        with pytest.raises(ProtocolError, match="oversize"):
            encode_message(Message("RunRequest", big))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=128))
    def test_fuzz_decode_never_crashes(self, data):
        try:
            decode_message(data)
        except ProtocolError:
            pass


class TestPhaseMachine:
    # The live walk over every phase is ``cli.check_protocol``'s (acceptance 9).

    def test_transitions_reference_known_phases(self):
        for entry in SCHEMA.values():
            assert set(entry.phases) <= set(PHASES)

    def test_three_phase_table(self):
        # Only Hello and Done move a session, so their phases are the table.
        assert PHASES == ("handshake", "open", "done")
        assert SCHEMA["Hello"].phases == ("handshake",)
        assert SCHEMA["Done"].phases == ("handshake", "open")


class TestConversions:
    def test_amps_round_trip(self):
        rng = np.random.default_rng(0)
        psi = random_state(3, rng)
        back = amps_from_json(amps_to_json(psi), 3)
        assert fidelity(back, psi) == pytest.approx(1.0, abs=1e-12)

    def test_amps_length_check(self):
        # amps_from_json converts validated pairs; the count is the schema's check.
        run = SCHEMA["RunRequest"].payload.cases[False]
        with pytest.raises(ProtocolError, match="payload: amps"):
            validate(run, {"num_wires": 2, "amps": [[1.0, 0.0]]}, {})

    def test_circuit_round_trip(self):
        circ = [gate("H", 0), gate("RX", 1, angle=0.7), gate("CNOT", 0, 1)]
        back = circuit_from_json(circuit_to_json(circ))
        assert [(g.kind, g.wires, g.angle) for g in back] == [
            (g.kind, g.wires, g.angle) for g in circ
        ]

    def test_circuit_rejects_unknown_gate(self):
        circuit = SCHEMA["RunRequest"].payload.cases[False].fields["circuit"]
        with pytest.raises(ProtocolError, match="payload"):
            validate(circuit, [{"kind": "NOPE", "wires": [0]}], {"num_wires": 1})

    def test_ct_hex_round_trip(self):
        rng = np.random.default_rng(1)
        triple = he_keygen(16, rng)
        ct = he_enc(triple.pk, 1, rng)
        assert ct_to_hex(ct_from_hex(ct_to_hex(ct))) == ct_to_hex(ct)

    def test_ct_hex_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            ct_from_hex("zz")
        with pytest.raises(ProtocolError):
            ct_from_hex("00ff")

    @pytest.mark.parametrize("text", ["zz", "00ff"])  # bad hex, a bad ciphertext
    def test_ct_hex_refusals_are_payload_errors(self, text):
        with pytest.raises(ProtocolError) as info:
            ct_from_hex(text)
        assert info.value.code == "payload"

    def test_ct_decoder_faults_are_not_payload_errors(self, monkeypatch):
        monkeypatch.setattr(protocol, "ct_from_bytes", broken_ct_decoder)
        with pytest.raises(KeyError):
            ct_from_hex("00")


SHAPES = st.sampled_from([(RSP_N - 1,), (RSP_MU,), (RSP_MU, RSP_N), (2, 3, 2)])


@st.composite
def bit_rows(draw, min_rows=0):
    """A (rows, *shape) array of bits and its shape."""
    shape = draw(SHAPES)
    rows = draw(st.integers(min_rows, 6))
    size = rows * int(np.prod(shape))
    bits = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return np.array(bits, dtype=np.int64).reshape(rows, *shape), shape


class TestPackedRows:
    """A row of bits travels as a record of whole bytes of a ``Blob``, bit j
    its j-th bit in C order, little-endian, the unused high bits zero."""

    @settings(max_examples=200, deadline=None)
    @given(bit_rows())
    def test_pack_then_validate_returns_the_bits(self, drawn):
        bits, shape = drawn
        text = to_blob(bits)
        assert len(base64.b64decode(text)) == len(bits) * -(-int(np.prod(shape)) // 8)
        got = validate(Blob(len(bits), len(bits), shape), text, {})
        assert got.shape == bits.shape and got.dtype == np.int64 and np.array_equal(got, bits)

    @settings(max_examples=200, deadline=None)
    @given(bit_rows(min_rows=1),
           st.sampled_from(["short", "long", "wide", "pad", "char", "space", "unpacked"]),
           st.data())
    def test_bad_rows_are_payload_errors(self, drawn, spoil, data):
        bits, shape = drawn
        width, rows = int(np.prod(shape)), len(bits)
        size = -(-width // 8)
        text, raw = to_blob(bits), bytearray(base64.b64decode(to_blob(bits)))
        if spoil == "short":  # a byte cut: a record too few, or a part record
            text = base64.b64encode(raw[:-1]).decode()
        elif spoil == "long":
            text = to_blob([*bits, bits[0]])
        elif spoil == "wide":  # a bit past a row's shape
            assume(width % 8)
            raw[data.draw(st.integers(1, rows)) * size - 1] |= 0x80
            text = base64.b64encode(raw).decode()
        elif spoil == "pad":
            assume(len(raw) % 3)
            text = noncanonical(text)
        elif spoil == "char":
            text = "*" + text[1:]
        elif spoil == "space":
            text = text[:2] + " " + text[2:]
        else:
            text = bits.tolist()
        with pytest.raises(ProtocolError) as exc:
            validate(Blob(rows, rows, shape), text, {})
        assert exc.value.code == "payload"


class TestInProcTransport:
    def test_pair_carries_frames_both_ways(self):
        a, b = make_inproc_pair()
        a.send(Message("Hello", {"x": 1}))
        assert b.recv() == Message("Hello", {"x": 1})
        b.send(Message("Done", {}))
        assert a.recv() == Message("Done", {})

    def test_close_unblocks_peer(self):
        a, b = make_inproc_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv()


class TestServerSession:
    def test_handshake_announce(self):
        # The reply to Hello is an acknowledgement under its own kind, as for
        # a gadget frame: the frame header carries the version, and the
        # version fixes the RSP sizes. Version 10 replied with an Announce.
        channel, session, thread = serve_inproc()
        channel.send(Message("Hello", {"session_seed": 0}))
        assert channel.recv() == Message("Hello", {"ok": True})
        assert "Announce" not in KINDS
        ClientSession(channel).done()
        thread.join(timeout=5)
        assert session.phase == "done"

    def test_a_hello_with_a_mode_is_refused(self):
        # Hello carries only the session seed: version 9's ``mode``, which the
        # server never read, is refused like any unknown field.
        channel, session, thread = serve_inproc()
        channel.send(Message("Hello", {"session_seed": 0, "mode": "plaintext"}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session.phase == "done" and session.rng is None

    def test_version_mismatch_errors(self):
        # The header's version byte is the one version check.
        channel, session, thread = serve_inproc()
        frame = bytearray(encode_message(Message("Hello", {"session_seed": 0})))
        frame[4] = VERSION - 1
        channel.send_bytes(bytes(frame))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "version"
        thread.join(timeout=5)
        assert session.phase == "done"

    def test_out_of_order_message_errors_without_crash(self):
        channel, session, thread = serve_inproc()
        channel.send(Message("RunRequest", {"circuit": []}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "phase"
        thread.join(timeout=5)
        assert session.phase == "done"

    def test_second_hello_is_a_phase_error(self):
        channel, session, thread = serve_inproc()
        ClientSession(channel).hello(0)
        channel.send(Message("Hello", {"session_seed": 1}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "phase"
        thread.join(timeout=5)
        assert session.phase == "done"

    @pytest.mark.parametrize("hello", [False, True])
    def test_an_error_from_the_client_is_refused_and_ends_the_session(self, hello):
        # A client has no Error to send: the server refuses the kind, like any
        # kind it does not take, and the session ends.
        channel, session, thread = serve_inproc()
        if hello:
            ClientSession(channel).hello(0)
        channel.send(Message("Error", {"code": "x", "text": "y"}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "kind"
        thread.join(timeout=5)
        assert session.phase == "done" and not thread.is_alive()

    def test_internal_errors_are_reported_not_raised(self, monkeypatch):
        # A fault inside a handler, after the payload has passed validation,
        # is the server's: reported to the client as ``internal``, and the
        # session ends instead of raising out of its thread.
        def broken(self, p):
            raise RuntimeError("handler fault")

        monkeypatch.setattr(protocol.ServerSession, "_on_runrequest", broken)
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(0)
        with pytest.raises(ProtocolError) as err:
            client.request_run(StateVector(2), None, [], (0, 1))
        assert err.value.code == "internal" and "handler fault" in err.value.text
        thread.join(timeout=5)
        assert session.phase == "done" and not thread.is_alive()


class TestHostilePayloads:
    """Well-formed messages with hostile values: refused before any work."""

    def open_session(self, seed=0):
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(seed)
        return channel, session, thread, client

    @staticmethod
    def run(circuit, wires=(0, 1), enc_keys=None):
        """A RunRequest payload on two qubits in |00> that reads the <X x X>
        of ``wires``, homomorphic when ``enc_keys`` (a ``key_blob``) is given."""
        payload = {"num_wires": 2, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 3, "circuit": circuit,
                   "wires": wires, "use_gadgets": enc_keys is not None}
        return payload if enc_keys is None else {**payload, "enc_keys": enc_keys}

    @staticmethod
    def bundle(level=1, seed=4, leaves=GADGET_LEAVES, bad_leaf=None):
        """A gadget's fields in a frame: the leaf table of ``leaves`` leaves
        at ``level``, and the level. Leaf ``bad_leaf``, if given, has the
        masked byte 2."""
        rng = np.random.default_rng(seed)
        pk = he_keygen(16, rng, level=level).pk
        table = bytearray(leaves_to_bytes(
            [he_enc(pk, int(rng.integers(2)), rng) for _ in range(leaves)], level))
        if bad_leaf is not None:
            table[bad_leaf * LEAF_BYTES + NONCE_BYTES] = 2
        return {"leaves": to_blob(bytes(table)), "level": level}

    @classmethod
    def frame(cls, *pairs, discard=(), first=1):
        """A GadgetClassical frame of one gadget per entry of ``pairs``, its
        two (head, tail) qid pairs, at levels ``first``, ``first + 1``, ...,
        and the qids to drop."""
        return {"gadgets": [{"pairs": p, **cls.bundle(level)}
                            for level, p in enumerate(pairs, first)],
                "discard": list(discard)}

    def test_claw_matrix_of_the_wrong_shape_is_refused(self):
        channel, session, thread, _client = self.open_session()
        matrix = to_blob(bytes(3))  # a batch of one 24-bit row; the claw size is 4x4
        channel.send(Message("RspBasis", {"matrix": matrix}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        assert not session.pending
        thread.join(timeout=5)

    @pytest.mark.parametrize("alphas", [
        to_blob(bytes([8, 0])), "-gA=", to_blob([ALPHAS] * 3), to_blob([ALPHAS]),
        noncanonical(to_blob([ALPHAS] * 2)), [[0, 1, 0]] * 2, to_blob([ALPHAS] * 2) + "\n",
    ], ids=[f"alphas{i}" for i in range(7)])  # the ids of version 10's lists of ints
    def test_bad_alphas_leave_the_round_pending(self, alphas):
        # A row past three bits, a character outside the base64 alphabet, a
        # row count other than the qid count, non-canonical pad bits, the
        # unpacked bit lists or whitespace is refused before the rounds are
        # taken.
        channel, session, thread, _client = self.open_session()
        qids = commit_rsp(channel, 2)
        channel.send(Message("RspBasis", {"qids": qids, "alphas": alphas}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert list(session.pending) == qids

    @pytest.mark.parametrize("num_wires, amps", [(True, 2), ("3", 8)])
    def test_bad_wire_counts_are_refused(self, num_wires, amps):
        # Checked as an int in 1..MAX_QUBITS before 2**num_wires is evaluated.
        channel, _session, thread, client = self.open_session()
        channel.send(Message("RunRequest", {
            **self.run([]),
            "num_wires": num_wires, "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * (amps - 1),
        }))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)

    @pytest.mark.parametrize("enc_keys", [5, [[1, 2, 3]] * 2, [[1, 2]] * 2, [["00", "zz"]] * 2])
    def test_bad_enc_keys_leave_the_register_alone(self, enc_keys):
        # enc_keys is checked and decoded before the register is run and any
        # gadget is taken: a value other than one Blob string, such as
        # version 10's hex pairs, is refused.
        channel, session, thread, _keys = self.gadget_session()
        channel.send(Message("RunRequest", self.run(
            [{"kind": "T", "wires": [0]}], enc_keys=enc_keys)))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    def test_a_ct_decoder_fault_is_internal(self, monkeypatch):
        # A fault in the leaf-table decoder is the server's, not a bad payload's.
        channel, _session, thread, keys = self.gadget_session()
        monkeypatch.setattr(protocol, "leaves_from_bytes", broken_ct_decoder)
        channel.send(Message("RunRequest", self.run([{"kind": "T", "wires": [0]}], enc_keys=keys)))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "internal"
        thread.join(timeout=5)

    @pytest.mark.parametrize("use_gadgets", [True, False])
    def test_keys_come_with_gadgets_and_only_with_them(self, use_gadgets):
        channel, session, thread, keys = self.gadget_session()
        payload = self.run([{"kind": "T", "wires": [0]}], enc_keys=keys)
        if use_gadgets:
            del payload["enc_keys"]  # a homomorphic run without its keys
        else:
            payload["use_gadgets"] = False  # a plain run with keys
        channel.send(Message("RunRequest", payload))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("spec", [["0", 1], [True, 1], [0, 5], [[0, 1]], [0], [0, 0]])
    def test_bad_measure_wires_consume_no_gadget(self, spec):
        # A run reads the <X x X> of two distinct wires: ints (not bools)
        # inside the register. All checked before the queued gadget is taken.
        channel, session, thread, keys = self.gadget_session()
        circ = circuit_to_json([gate("T", 0)])
        channel.send(Message("RunRequest", self.run(circ, spec, enc_keys=keys)))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("shots", [0, -1, 4097, True, 2.0, "3", None])
    def test_bad_shot_counts_are_refused(self, shots):
        # A run is one shot, so no shot count is read: a version-4 peer's
        # ``shots`` field is refused as payload, whatever its value.
        channel, _session, thread, client = self.open_session()
        channel.send(Message("RunRequest", {
            **self.run([]), "shots": shots,
        }))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)

    def test_homomorphic_run_of_two_shots_is_refused_before_any_gadget_is_taken(self):
        # A homomorphic run is one shot: a second would need gadgets built for
        # the first shot's key flow.
        channel, session, thread, keys = self.gadget_session()
        channel.send(Message("RunRequest", {
            **self.run([{"kind": "T", "wires": [0]}], enc_keys=keys), "shots": 2,
        }))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    def test_homomorphic_run_on_more_than_24_wires_is_refused(self):
        # A homomorphic run holds at most 24 wires (``simulator.MAX_QUBITS``),
        # like a plain one: a larger wire count is refused before its
        # amplitudes are read or any gadget is taken.
        channel, session, thread, keys = self.gadget_session()
        pair = blob_leaves(keys, 0)[:2]
        channel.send(Message("RunRequest", {
            **self.run([{"kind": "T", "wires": [0]}], enc_keys=key_blob([pair] * 25)),
            "num_wires": 25,
        }))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload", reply.payload
        assert reply.payload["text"].startswith("num_wires"), reply.payload
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("pairs", [[[0, 1], [2, 99]], [[0, 1], [0, 2]]])
    def test_bad_couple_leaves_prepared_qubits_alone(self, pairs):
        # An unknown tail or a repeated qid in a gadget frame is found before
        # any qubit is taken or discarded.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 3)
        before = dict(session.qubits)
        channel.send(Message("GadgetClassical", self.frame(pairs, discard=[1])))
        reply = channel.recv()
        assert reply.kind == "Error"
        thread.join(timeout=5)
        assert list(session.qubits) == [0, 1, 2] and session.gadgets == []
        assert all(session.qubits[q] is before[q] for q in before)

    def gadget_session(self):
        """An open session with one queued T gadget, and the ``key_blob`` of
        the level-0 key pairs of a 2-qubit input padded for it."""
        channel, session, thread, client = self.open_session()
        rng = np.random.default_rng(9)
        client_keys, _ = client.remote_keygen(2, [gate("T", 0)], rng)
        cs, _ = encrypt(client_keys, StateVector(2), rng)
        assert len(session.gadgets) == 1
        return channel, session, thread, key_blob(cs.encrypted_keys)

    @pytest.mark.parametrize("circuit, spec", [
        ([{"kind": "T", "wires": [5]}], [0, 1]),
        ([{"kind": "T", "wires": ["0"]}], [0, 1]),
        ([{"kind": "T", "wires": [0]}], [0, 2]),
        ([{"kind": "H", "wires": [0, 0]}], [0, 1]),
        ([{"kind": "RX", "wires": [0], "angle": "x"}], [0, 1]),
    ])
    def test_bad_gates_consume_no_gadget(self, circuit, spec):
        # Gate kinds, wires inside the register and angles are checked, like
        # the measured wires ``spec``, before the queued gadget is taken.
        channel, session, thread, keys = self.gadget_session()
        channel.send(Message("RunRequest", self.run(circuit, spec, enc_keys=keys)))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("payload", [
        {"matrix": [[[1, 2], [3]]]},
        {"matrix": "abcd"},
        {"matrix": [10**30]},
        {"qids": [True], "alphas": to_blob([ALPHAS])},
        {"ideal": 1},
        {"matrix": [True]},
        {"matrix": [1.0]},
        {"matrix": to_blob([MATRIX] * (RSP_BATCH + 1))},
        {"matrix": ""},
        {"matrix": to_blob([MATRIX]), "qids": [1], "alphas": to_blob([ALPHAS])},
        {"alphas": to_blob([ALPHAS])},
        {"qids": [1, 1], "alphas": to_blob([ALPHAS] * 2)},
        {"matrix": noncanonical(to_blob([MATRIX]))},
        {"matrix": [[[1, 0, 1, 0]] * 4]},  # the unpacked rows of version 7
    ])
    def test_bad_rsp_basis_changes_nothing(self, payload):
        # Remote RSP is claw-based only: the server draws no angle itself,
        # so a request for ideal rounds is refused like any unknown form.
        # Rows travel as one Blob: a list of rows (version 10's ints, or
        # version 7's bits) is refused, as are a batch of no rows or of one
        # too many and non-canonical pad bits.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 1)
        commit_rsp(channel)
        qubits, pending = dict(session.qubits), dict(session.pending)
        channel.send(Message("RspBasis", payload))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session.qubits == qubits and session.pending == pending

    @pytest.mark.parametrize("payload", [
        {"matrix": to_blob([MATRIX] * 2)}, {"matrix": to_blob([MATRIX] * RSP_BATCH)},
    ])
    def test_rsp_qubits_past_the_held_limit_are_refused(self, payload):
        # One gadget's worst-case draws plus one batch may be held, committed
        # or prepared; a batch past that is refused before any qubit is made.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 1)
        left = MAX_HELD - 2
        while left:
            batch = min(left, RSP_BATCH)
            commit_rsp(channel, batch)
            left -= batch
        qubits, pending = dict(session.qubits), dict(session.pending)
        assert len(qubits) + len(pending) == MAX_HELD - 1
        channel.send(Message("RspBasis", payload))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "budget"
        thread.join(timeout=5)
        assert session.qubits == qubits and session.pending == pending

    @pytest.mark.parametrize("payload", [
        {"pairs": [[0, 2], [1, 3]], "discard": [True]},
        {"pairs": [[0, 2], [True, 3]], "discard": []},
    ])
    def test_bool_qids_are_refused(self, payload):
        # True == 1 as a dict key: taken as an int it would drop or couple qid 1.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 4)
        qubits = dict(session.qubits)
        channel.send(Message("GadgetClassical", self.frame(payload["pairs"],
                                                           discard=payload["discard"])))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session.qubits == qubits

    def test_bool_declared_count_is_refused(self):
        channel, _session, thread, _client = self.open_session()
        channel.send(Message("GadgetClassical", {"declare": True}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)

    def test_a_declare_frame_is_refused(self):
        # A gadget frame is gadgets and discards only: version 9's declared
        # count, which the server acknowledged and dropped, is refused.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 2)
        before = session_view(session)
        channel.send(Message("GadgetClassical", {"declare": 0}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]

    @pytest.mark.parametrize("level", ["3", True, 2.5])
    def test_gadget_level_must_be_an_int(self, level):
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 4)
        qubits = dict(session.qubits)
        frame = self.frame([[0, 1], [2, 3]])
        frame["gadgets"][0]["level"] = level
        channel.send(Message("GadgetClassical", frame))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session.gadgets == [] and session.qubits == qubits

    @pytest.mark.parametrize("spoil", ["level-1", "and", "above", "order", "repeat", 3, 4, 5])
    def test_input_keys_the_run_cannot_use_are_refused(self, spoil):
        # Version 10 sent input keys as hex ciphertexts, each in one of many
        # encodings: a key at another level, a removed op byte (2, the AND,
        # "and", to 5), or a sum with a leaf above its level, or with its
        # leaves out of order or repeated. Version 11's keys are one leaf
        # table read at level 0, in which none of these can be written; the
        # old form is refused whole, before the gadget is taken.
        channel, session, thread, _keys = self.gadget_session()
        rng = np.random.default_rng(5)
        pk = he_keygen(16, rng, level=1 if spoil == "level-1" else 0).pk
        a, b = he_enc(pk, 0, rng), he_enc(pk, 1, rng)
        first = ct_to_hex(a) if spoil == "level-1" else hostile_key_hex(
            0, 2 if spoil == "and" else spoil)
        channel.send(Message("RunRequest", self.run(
            [{"kind": "T", "wires": [0]}], enc_keys=[[first, ct_to_hex(b)]] * 2)))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("spoil", [None, "level", "x_ct", "e_ct", "sk_enc"])
    def test_gadget_ciphertexts_sit_at_the_bundle_level(self, spoil):
        # A leaf table carries no level: the server builds every leaf at its
        # gadget's level, so a table of level-2 leaves sent for level 1 is
        # read at level 1 ("level"). The last leaf of each family (x, e,
        # sk_enc) with the masked byte 2 is refused, and nothing changes.
        channel, session, thread, client = self.open_session()
        prepare_rsp(channel, 5)
        qubits = dict(session.qubits)
        bad_leaf = {"x_ct": 1, "e_ct": 7, "sk_enc": GADGET_LEAVES - 1}.get(spoil)
        bundle = self.bundle(level=2 if spoil == "level" else 1, bad_leaf=bad_leaf)
        frame = self.frame([[0, 1], [2, 3]], discard=[4])
        frame["gadgets"][0].update(bundle, level=1)
        channel.send(Message("GadgetClassical", frame))
        reply = channel.recv()
        if bad_leaf is None:
            assert reply.payload == {"ok": True}
            assert len(session.gadgets) == 1 and not session.qubits
            (gadget,) = session.gadgets
            assert gadget.leaves == blob_leaves(bundle["leaves"], 1)
            assert {leaf.level for leaf in gadget.leaves} == {gadget.level} == {1}
            client.done()
            thread.join(timeout=5)
            return
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session.gadgets == [] and session.qubits == qubits

    @pytest.mark.parametrize("spoil, code", [
        ("ciphertext", "payload"), ("unknown", "order"), ("repeat", "payload"),
        ("level", "order"),
    ])
    def test_a_frame_is_checked_whole_before_anything_changes(self, spoil, code):
        # The last of a frame's two gadgets carries a leaf with a bad masked
        # byte, an unknown qid, a qid of the first gadget or the first
        # gadget's level: the frame is refused, with no gadget queued and no
        # qubit taken or dropped.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 9)
        commit_rsp(channel)
        last = {"unknown": [[4, 5], [6, 99]], "repeat": [[4, 5], [2, 6]]}.get(spoil, [[4, 5], [6, 7]])
        frame = self.frame([[0, 1], [2, 3]], last, discard=[8])
        if spoil == "ciphertext":
            frame["gadgets"][-1].update(self.bundle(level=2, bad_leaf=GADGET_LEAVES - 1))
        elif spoil == "level":
            frame["gadgets"][-1] = {**frame["gadgets"][-1], **self.bundle(level=1)}
        before = session_view(session)
        channel.send(Message("GadgetClassical", frame))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == code, reply.payload
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]

    def test_a_frame_queues_its_gadgets_in_order(self):
        # Each gadget couples its own (head, tail) pairs; the discards go.
        channel, session, thread, client = self.open_session()
        prepare_rsp(channel, 9)
        qubits = dict(session.qubits)
        frame = self.frame([[0, 1], [2, 3]], [[7, 4], [5, 6]], discard=[8])
        channel.send(Message("GadgetClassical", frame))
        assert channel.recv().payload == {"ok": True}
        assert not session.qubits and [g.level for g in session.gadgets] == [1, 2]
        for gadget, (heads, tails) in zip(session.gadgets, [((0, 2), (1, 3)), ((7, 5), (4, 6))]):
            want = assemble_gadget_state([qubits[q] for q in heads], [qubits[q] for q in tails])
            assert all(np.array_equal(g, w) for g, w in zip(gadget.state, want))
        client.done()
        thread.join(timeout=5)

    def test_a_frame_holds_at_most_a_held_budget_of_gadgets(self):
        # Every gadget of a frame couples four held qubits.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 4)
        frame = self.frame([[0, 1], [2, 3]])
        frame["gadgets"] *= MAX_FRAME_GADGETS + 1
        before = session_view(session)
        channel.send(Message("GadgetClassical", frame))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]

    def test_open_rsp_and_close_rsp_send_nothing(self):
        channel, session, thread, client = self.open_session()
        prepare_rsp(channel, 2)
        commit_rsp(channel)
        before = session_view(session)
        to_server, _ = watch(channel)
        client.open_rsp(3)
        client.close_rsp()
        assert to_server == [] and session_view(session)[1] == before[1]
        client.done()
        thread.join(timeout=5)

    def test_gadgets_out_of_slot_order_are_refused_before_any_is_taken(self):
        # The queue holds levels 1..n: a second key generation with no run
        # between the two would queue a second gadget at level 1, so its
        # frame is refused, before any of its qubits is taken.
        channel, session, thread, client = self.open_session()
        views, dispatch = [], session._dispatch

        def dispatch_and_view(msg):
            if msg.kind == "GadgetClassical":
                views.append(session_view(session))
            dispatch(msg)

        session._dispatch = dispatch_and_view
        rng = np.random.default_rng(9)
        client.remote_keygen(2, [gate("T", 0)], rng)
        with pytest.raises(ProtocolError) as err:
            client.remote_keygen(2, [gate("T", 0)], rng)
        assert err.value.code == "order"
        thread.join(timeout=5)
        assert len(views) == 2 and session.qubits
        assert session_view(session)[1] == views[-1][1]
        assert [g.level for g in session.gadgets] == [1]

    def test_a_gadget_past_the_top_level_is_refused(self):
        # No window's run takes more than MAX_LEVEL gadgets, and the queue
        # holds levels 1..n, so the level bound is the queue's bound.
        channel, session, thread, _client = self.open_session()
        prepare_rsp(channel, 4)
        before = session_view(session)
        frame = self.frame([[0, 1], [2, 3]], first=protocol.MAX_LEVEL + 1)
        channel.send(Message("GadgetClassical", frame))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload", reply.payload
        assert reply.payload["text"].startswith("gadgets"), reply.payload
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]

    @pytest.mark.parametrize("case", [
        "matrix-short", "matrix-long", "matrix-char", "matrix-space", "matrix-newline",
        "matrix-int", "alphas-pad", "alphas-wide", "alphas-list", "leaf-masked-2",
        "gadget-23-leaves", "gadget-25-leaves", "keys-for-1-wire", "keys-for-3-wires",
        "keys-in-a-list",
    ])
    def test_hostile_blobs_are_refused_and_change_nothing(self, case):
        # Every kind of Blob the server takes, spoiled: a text a byte short
        # or past its bound, a character outside the base64 alphabet,
        # whitespace, non-canonical pad bits ("AB==" decodes to the byte of
        # "AA=="), a row bit past its shape, a leaf whose masked byte is 2, a
        # gadget of 23 or 25 leaves, key pairs for one wire too few or too
        # many, or a value that is not a string. Each is refused as a bad
        # payload, on a session with a queued gadget, prepared qubits and a
        # committed round, none of which changes.
        channel, session, thread, keys = self.gadget_session()
        held = prepare_rsp(channel, 4)
        (pending,) = commit_rsp(channel)
        matrix, pair, t_run = to_blob([MATRIX]), blob_leaves(keys, 0)[:2], [gate("T", 0)]

        def gadget_frame(**spoil):  # a frame of one gadget, next in the queue, at level 2
            frame = self.frame([held[:2], held[2:]], first=2)
            frame["gadgets"][0].update(self.bundle(level=2, **spoil))
            return frame

        def run(enc_keys):
            return self.run(circuit_to_json(t_run), enc_keys=enc_keys)

        kind, payload = {
            "matrix-short": ("RspBasis", {"matrix": to_blob(bytes(1))}),
            "matrix-long": ("RspBasis", {"matrix": to_blob([MATRIX] * (RSP_BATCH + 1))}),
            "matrix-char": ("RspBasis", {"matrix": "!" + matrix[1:]}),
            "matrix-space": ("RspBasis", {"matrix": matrix[:2] + " " + matrix[2:]}),
            "matrix-newline": ("RspBasis", {"matrix": matrix + "\n"}),
            "matrix-int": ("RspBasis", {"matrix": 5}),
            "alphas-pad": ("RspBasis", {"qids": [pending], "alphas": "AB=="}),
            "alphas-wide": ("RspBasis", {"qids": [pending], "alphas": to_blob(bytes([8]))}),
            "alphas-list": ("RspBasis", {"qids": [pending], "alphas": [ALPHAS]}),
            "leaf-masked-2": ("GadgetClassical", gadget_frame(bad_leaf=0)),
            "gadget-23-leaves": ("GadgetClassical", gadget_frame(leaves=GADGET_LEAVES - 1)),
            "gadget-25-leaves": ("GadgetClassical", gadget_frame(leaves=GADGET_LEAVES + 1)),
            "keys-for-1-wire": ("RunRequest", run(key_blob([pair]))),
            "keys-for-3-wires": ("RunRequest", run(key_blob([pair] * 3))),
            "keys-in-a-list": ("RunRequest", run([keys])),
        }[case]
        assert to_blob(bytes([0])) == "AA==" and base64.b64decode("AB==") == bytes([0])
        before = session_view(session)
        channel.send(Message(kind, payload))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload", reply.payload
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]

    @pytest.mark.parametrize("amps", [
        [[0.0, 0.0], [0.0, 0.0]],
        [[float("nan"), 0.0], [1.0, 0.0]],
        [[float("inf"), 0.0], [0.0, 0.0]],
        [[True, 0.0], [0.0, 0.0]],
        [["1.0", 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [1.0, 0.0]],
    ])
    def test_registers_must_be_finite_with_unit_norm(self, amps):
        channel, _session, thread, client = self.open_session()
        channel.send(Message("RunRequest", {
            **self.run([]), "amps": amps + [[0.0, 0.0]] * 2,
        }))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)

    def test_near_unit_norm_register_is_accepted(self):
        # Honest registers are normalized to float precision, not exactly.
        channel, _session, thread, client = self.open_session()
        psi = StateVector(3, np.full(8, (1 + 1e-10) / np.sqrt(8)))
        value, _ = client.request_run(psi, None, [], (0, 1))
        assert value == pytest.approx(1 + 2e-10, abs=1e-12)
        client.done()
        thread.join(timeout=5)

    @pytest.mark.parametrize("measure", [
        {"type": "bits", "wires": [0], "basis": "X"},
        {"type": "bits", "wires": [0, 1]},
        {"type": "xx", "wires": [0, 1]},
    ], ids=["bits-with-basis", "bits", "xx"])
    def test_version_5_run_requests_are_refused(self, measure):
        # A run names its two <X x X> wires directly. A version-5 ``measure``
        # object, a bits row in a basis or the one-case xx tag, is refused
        # before any gadget, prepared qubit or committed round is taken.
        channel, session, thread, keys = self.gadget_session()
        prepare_rsp(channel, 2)
        commit_rsp(channel)
        before = session_view(session)
        payload = self.run([{"kind": "T", "wires": [0]}], enc_keys=keys)
        del payload["wires"]
        channel.send(Message("RunRequest", {**payload, "measure": measure}))
        reply = channel.recv()
        assert reply.kind == "Error" and reply.payload["code"] == "payload"
        thread.join(timeout=5)
        assert session_view(session)[1] == before[1]


# --- payloads generated from the schema --------------------------------------

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, 10**400]),
    st.lists(st.integers(0, 3), max_size=2),
)
SERVER_REPLIES = {  # the replies an accepted message gets, in order
    "Hello": [{"Hello"}], "RspBasis": [{"RspOutcome", "RspCommit"}],
    "GadgetClassical": [{"GadgetClassical"}],
    "RunRequest": [{"ShotResults"}, {"EncKeysUpdate"}],  # keys for a homomorphic run only
    "Done": [{"Done"}],
}


@functools.lru_cache(maxsize=None)
def ciphertext_pool():
    """Two ciphertexts per level 0..2, and per level each ``hostile_key_hex``:
    only the client takes hex ciphertexts, a run's keys, at level 1 in the
    replies drawn here."""
    rng = np.random.default_rng(17)
    pool = {}
    for lv in range(3):
        pk = he_keygen(16, rng, level=lv).pk
        pool[lv] = tuple(ct_to_hex(he_enc(pk, int(rng.integers(2)), rng)) for _ in range(2))
    return pool, {lv: [hostile_key_hex(lv, kind) for kind in HOSTILE_KEYS] for lv in range(3)}


def draw_blob(draw, spec, lo, hi, bad):
    """A ``Blob`` text of ``spec``'s records, lo..hi of them, or when ``bad``
    one spoiled: a record too few or too many, a cut byte, a character
    outside the alphabet or whitespace, non-canonical pad bits, a set bit
    past a row's shape or a masked byte past 1, or a value not a string."""
    width = int(np.prod(spec.shape))
    rng = np.random.default_rng(draw(st.integers(0, 99)))

    def records(n):
        if spec.level is None:
            return bytearray(base64.b64decode(to_blob(rng.integers(0, 2, (n, *spec.shape)))))
        data = bytearray(rng.bytes(n * width * LEAF_BYTES))
        data[NONCE_BYTES::LEAF_BYTES] = bytes(b & 1 for b in data[NONCE_BYTES::LEAF_BYTES])
        return data

    rows = draw(st.integers(lo, min(hi, lo + 3)))
    data = records(rows)
    text = base64.b64encode(data).decode()
    if not bad:
        return text
    size = -(-width // 8) if spec.level is None else LEAF_BYTES * width  # bytes per record
    high = rows > 0 and (spec.level is not None or width % 8 > 0)  # a record has a spare bit
    spoils = ["many", "char", "type"] + ["few"] * (lo > 0) + ["cut"] * (size > 1) + [
        "pad"] * (len(data) % 3 > 0) + ["high"] * high
    spoil = draw(st.sampled_from(spoils))
    if spoil == "many":
        return base64.b64encode(data + records(hi + 1 - rows)).decode()
    if spoil == "char":
        i = draw(st.integers(0, len(text)))
        return text[:i] + draw(st.sampled_from(" \n!-_.")) + text[i:]
    if spoil == "few":
        return base64.b64encode(data[: (lo - 1) * size]).decode()
    if spoil == "cut":  # a part record
        return base64.b64encode(data[:-1] if data else bytes(size - 1)).decode()
    if spoil == "pad":
        return noncanonical(text)
    if spoil == "high":
        record = draw(st.integers(0, rows - 1))
        if spec.level is None:
            data[(record + 1) * size - 1] |= 0x80
        else:
            data[record * size + NONCE_BYTES] = draw(st.integers(2, 255))
        return base64.b64encode(data).decode()
    return draw(st.one_of(SCALARS, st.just(list(data))))


def draw_value(draw, spec, ctx, bad):
    """A value of the field type ``spec``, well-formed, or with one hostile
    part when ``bad``: a value out of range or of the wrong type, a wrong
    length, a ragged or non-finite register, a spoiled ``Blob`` or a wrong
    variant."""
    t = type(spec)

    def bound(b):  # a named bound (a list: its length); a hostile count stands in as 1
        if not isinstance(b, str):
            return b
        value = len(ctx[b]) if type(ctx[b]) is list else ctx[b]
        return value if type(value) is int and 0 <= value <= 7 else 1

    if t is Rec:
        spoil = draw(st.sampled_from(["field", "missing", "extra", "type"])) if bad else None
        target = draw(st.sampled_from(list(spec.fields))) if spec.fields else None
        out = {}
        for name, field in spec.fields.items():
            hostile = spoil == "field" and name == target
            if type(field) is Opt:
                if not hostile and draw(st.booleans()):
                    continue
                field = field.type
            out[name] = draw_value(draw, field, ChainMap(out, ctx), hostile)
        if spoil == "missing" and target is not None:
            out.pop(target, None)
        elif spoil == "extra" or (spoil == "field" and target is None):
            out["extra"] = draw(SCALARS)
        elif spoil == "type":
            return draw(SCALARS)
        return out
    if t is Variants:
        case = draw(st.sampled_from(sorted(spec.cases)))
        if bad and draw(st.booleans()):  # keys of two forms, or an unknown tag
            other = draw(st.sampled_from(sorted(spec.cases)))
            out = {**draw_value(draw, spec.cases[other], ctx, False),
                   **draw_value(draw, spec.cases[case], ctx, False)}
            if spec.tag is not None:
                out[spec.tag] = draw(st.one_of(st.text(max_size=4), SCALARS))
            return out
        return draw_value(draw, spec.cases[case], ctx, bad)
    if t is Seq:
        lo, hi = bound(spec.lo), bound(spec.hi)
        size = draw(st.integers(lo, lo + 3 if hi is None else min(hi, lo + 3)))
        items = [draw_value(draw, spec.item, ctx, False) for _ in range(size)]
        if spec.distinct:  # well-formed: the ints (qids, wires) a permutation, so none repeats
            ints = iter(draw(st.permutations(range(len(list(chain.from_iterable(
                item if type(item) is list else [item] for item in items)))))))
            items = [[next(ints) for _ in item] if type(item) is list else next(ints)
                     for item in items]
        spoil = draw(st.sampled_from(["item", "short", "long", "type", "repeat"])) if bad else None
        if spoil == "item" and items:
            items[draw(st.integers(0, size - 1))] = draw_value(draw, spec.item, ctx, True)
        elif spoil == "short" and lo > 0:
            items = items[: lo - 1]
        elif spoil == "long" and hi is not None:
            items += [draw_value(draw, spec.item, ctx, False)] * (hi + 1 - size)
        elif spoil == "type":
            return draw(SCALARS)
        elif spoil == "repeat" and items:
            items.append(items[0])
        return items
    if t is Blob:
        return draw_blob(draw, spec, bound(spec.lo), bound(spec.hi), bad)
    if t is Amps:
        n = 2 ** bound(spec.wires)
        v = np.random.default_rng(draw(st.integers(0, 99))).normal(size=(n, 2))
        amps = (v / np.linalg.norm(v)).tolist()
        if bad:
            spoil = draw(st.sampled_from(["zero", "nan", "ragged", "short", "bool", "str"]))
            amps = {
                "zero": [[0.0, 0.0]] * n, "nan": [[float("nan"), 0.0]] + amps[1:],
                "ragged": [[1.0, 0.0, 0.0]] + amps[1:], "short": amps[1:],
                "bool": [[True, 0.0]] + amps[1:], "str": [["1", 0.0]] + amps[1:],
            }[spoil]
        return amps
    if bad:
        if t is Int:  # out of range, or not an int
            hi = bound(spec.hi)
            edges = [bound(spec.lo) - 1] + ([] if hi is None else [hi + 1, hi + 7])
            return draw(st.one_of(st.sampled_from(edges), SCALARS))
        if t is Wire:  # outside the register, or not an int
            return draw(st.one_of(st.sampled_from([-1, bound(spec.wires)]), SCALARS))
        if t is Ct:  # undecodable (bad hex, a hostile encoding), or at another level
            pool, hostile = ciphertext_pool()
            wrong = [ct for lv, cts in pool.items() if lv != bound(spec.level) for ct in cts]
            return draw(st.one_of(
                st.sampled_from(["zz", "00ff", "", *hostile[bound(spec.level)], *wrong]), SCALARS))
        return draw(SCALARS)
    if t is Int:
        lo, hi = bound(spec.lo), bound(spec.hi)
        return draw(st.integers(lo, lo + 6 if hi is None else min(hi, lo + 6)))
    if t is Wire:
        return draw(st.integers(0, max(bound(spec.wires), 1) - 1))
    if t is Num:
        return draw(st.floats(-7.0, 7.0))
    if t is Enum:
        return draw(st.sampled_from(spec.values))
    if t is Ct:
        return draw(st.sampled_from(ciphertext_pool()[0][bound(spec.level)]))
    return draw(st.text(max_size=4))


@st.composite
def server_messages(draw):
    kind = draw(st.sampled_from(sorted(SCHEMA)))
    payload = draw_value(draw, SCHEMA[kind].payload, {}, draw(st.booleans()))
    # A frame's payload is always an object; a hostile non-object goes inside one.
    return kind, payload if isinstance(payload, dict) else {"payload": payload}


def session_view(session):
    """The state a refusal must leave alone, and the ids it is compared by
    (the state is returned too, so that no id is reused while it is held)."""
    state = (list(session.gadgets), dict(session.qubits), dict(session.pending))
    ids = [[id(g) for g in state[0]]]
    return state, ids + [{q: id(v) for q, v in d.items()} for d in state[1:]]


class TestSchemaProperty:
    """Every kind the server accepts, well-formed or hostile, on an open
    session with one queued gadget, four prepared qubits (the key generation
    dropped its pool's spares) and one committed claw round."""

    @staticmethod
    def loaded_session():
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(3)
        client.remote_keygen(2, [gate("T", 0)], np.random.default_rng(3))
        prepare_rsp(channel, 4)
        commit_rsp(channel)
        return channel, session, thread

    @settings(max_examples=300, deadline=None)
    @given(server_messages())
    def test_replies_are_expected_or_refusals_that_change_nothing(self, message):
        kind, payload = message
        channel, session, thread = self.loaded_session()
        before = session_view(session)
        channel.send(Message(kind, payload))
        replies = SERVER_REPLIES[kind]
        if kind == "RunRequest" and payload.get("use_gadgets") is not True:
            replies = replies[:1]  # a plain run gets no keys
        for allowed in replies:
            reply = channel.recv()
            if reply.kind == "Error":
                break
            assert reply.kind in allowed, (kind, reply.kind)
        if reply.kind != "Error":
            ClientSession(channel).done()
            thread.join(timeout=5)
            assert not thread.is_alive()
            return
        assert reply.payload["code"] != "internal", reply.payload
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert session_view(session)[1] == before[1]


class TestDelegatedRuns:
    def test_plain_run_matches_local_simulation(self):
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(5)
        rng = np.random.default_rng(5)
        psi = random_state(2, rng)
        circ = [gate("H", 0), gate("CNOT", 0, 1)]
        value, keys = client.request_run(psi, None, circ, (0, 1))
        assert value == pytest.approx(xx_run(psi, circ, (0, 1)), abs=1e-10)
        assert keys is None
        client.done()
        thread.join(timeout=5)

    def test_every_shot_decrypts_to_the_circuit_output(self):
        # T X T is X up to phase and T T is P. Each run has its own keys:
        # replaying one run's gadget slots with fresh stream bits would
        # misroute later runs, so the two circuits take turns on one session.
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(11)
        rng = np.random.default_rng(11)
        h, t, cnot = gate("H", 0), gate("T", 0), gate("CNOT", 0, 1)
        for circ in [[h, t, gate("X", 0), t, h, cnot], [h, t, t, h, cnot]] * 4:
            psi = random_state(2, rng)
            sign, raw = remote_xx(client, circ, psi, rng)
            assert sign * raw == pytest.approx(xx_run(psi, circ, (0, 1)), abs=1e-9)
        client.done()
        thread.join(timeout=5)

    def test_homomorphic_run_faithful_rsp(self):
        # Seeded random Clifford+T circuits on 2-3 wires (acceptance 2's
        # draw), each one homomorphic run over claw RSP: the sign decrypted
        # from the returned keys times the raw value is the plaintext
        # <X x X> to float rounding, and both signs occur.
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(8)
        rng = np.random.default_rng(8)
        signs = []
        for _ in range(6):
            n = int(rng.integers(2, 4))
            circ = _random_clifford_t_circuit(n, rng)
            psi = random_state(n, rng)
            wires = tuple(int(w) for w in rng.choice(n, 2, replace=False))
            sign, raw = remote_xx(client, circ, psi, rng, wires)
            assert sign * raw == pytest.approx(xx_run(psi, circ, wires), abs=1e-9)
            signs.append(sign)
        client.done()
        thread.join(timeout=5)
        assert set(signs) == {-1, 1}

    def test_key_update_carries_only_measured_wires(self):
        channel, _session, thread = serve_inproc()
        received = []
        recv = channel.recv
        channel.recv = lambda: received.append(recv()) or received[-1]
        client = ClientSession(channel)
        client.hello(7)
        circ = [
            gate("H", 0), gate("T", 0), gate("CNOT", 0, 2),
            gate("H", 2), gate("T", 2), gate("T", 1),
        ]
        rng = np.random.default_rng(7)
        runs = []
        for _ in range(16):
            psi = random_state(3, rng)
            runs.append((psi, *remote_xx(client, circ, psi, rng, (2, 0))))
        client.done()
        thread.join(timeout=5)
        updates = [m.payload for m in received if m.kind == "EncKeysUpdate"]
        assert [len(u["enc_keys"]) for u in updates] == [1] * 16  # one row per run
        assert all(len(u["enc_keys"][0]) == 2 for u in updates)
        # The two returned keys give each run's sign, pinned; sign x value is
        # the plaintext <X x X>. Re-pinned at protocol version 8: RSP batches
        # sized to a run's T count move the client's later draws, its pads.
        for psi, sign, raw in runs:
            assert sign * raw == pytest.approx(xx_run(psi, circ, (2, 0)), abs=1e-9)
        assert [sign for _, sign, _ in runs] == [
            -1, -1, -1, 1, 1, -1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1,
        ]

    def test_golden_faithful_transcript(self):
        # Every frame both ways of a small claw-based RSP session of three
        # <X x X> runs, pinned by a SHA-256 recorded at protocol version 11,
        # and each run's decrypted sign. Re-recorded when RSP batches came to
        # be sized to the run's T count, with their rows packed, and each key
        # generation's gadgets to travel in one frame, with the signs
        # unchanged; again when the three inputs came to be drawn from their
        # own generator, so that a change to how many draws provisioning
        # takes leaves every run's input as it was; and again when Hello lost
        # its version, Announce became an acknowledgement and EncKeysUpdate
        # lost its level, with every sign and raw value unchanged; and again
        # when Hello lost its mode, with every other frame unchanged but for
        # the header's version byte; and again at protocol version 11, when
        # bit rows, gadget leaves and input keys came to travel as Blobs and
        # Hello's reply came under its own kind, with every row, leaf, sign
        # and raw value unchanged. The RunRequest amplitudes carry no -0.0.
        # ``test_values_the_frames_carry_are_pinned`` pins the values apart
        # from the frames.
        transcript = hashlib.sha256()
        runs = golden_runs(transcript)
        for psi, sign, raw in runs:
            assert sign * raw == pytest.approx(xx_run(psi, GOLDEN_CIRCUIT, (1, 0)), abs=1e-9)
        assert [sign for _, sign, _ in runs] == [-1, -1, -1]
        assert transcript.hexdigest() == (
            "67fe6734c6bf05d8e28131625568005ce3bce9e4cfc049318a0e8417825cf899"
        )

    def test_values_the_frames_carry_are_pinned(self):
        # What a change of frame format must keep, apart from the frames: the
        # exact float bytes of sign x raw of the golden transcript's three
        # runs and of the top-up window's run, then the float bytes of three
        # seeded digit rows' delegated-faithful features at epsilon 0.1 over
        # the in-process queue (session seed 4, each row's generator seeded
        # by its row number), all under one SHA-256. Recorded at protocol
        # version 10.
        digest = hashlib.sha256()
        runs = [*golden_runs(), top_up_window()[:3]]
        for _, sign, raw in runs:
            digest.update(np.float64(sign * raw).tobytes())
        data = load_digits_csv()
        model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(data.n - 1), 0.0, data.n)
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(4)
        evaluator = make_faithful_evaluator(client, eps_target=0.1)
        for row in (3, 40, 77):
            psi = amplitude_encode(data.samples[row][0], data.n)
            features = shadow_features(psi, model, "delegated-faithful",
                                       np.random.default_rng(row), 0.1, evaluator)
            digest.update(np.asarray(features, dtype=np.float64).tobytes())
        client.done()
        thread.join(timeout=30)
        assert digest.hexdigest() == (
            "6ed605a0d310d3fefda225e09b15b02870061eaa31a8716bc18bbd9239b78f59"
        )

    def test_unknown_rsp_mode_is_refused(self):
        # Remote RSP is claw-based only; the ideal sampler is local.
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(9)
        with pytest.raises(ProtocolError, match="rsp mode"):
            make_faithful_evaluator(client, eps_target=0.1, rsp_mode="ideal")
        client.done()
        thread.join(timeout=5)
        assert not session.qubits and not session.pending

    def test_budget_enforced(self):
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(9)
        rng = np.random.default_rng(9)
        client.remote_keygen(1, [gate("T", 0)], rng)  # one gadget provisioned
        circ = [gate("T", 0), gate("H", 0), gate("T", 0)]
        client_keys, _ = keygen(SECURITY, 2, circ, rng)
        cs, _ = encrypt(client_keys, StateVector(2), rng)
        with pytest.raises(ProtocolError, match="budget"):
            client.request_run(cs.register, cs.encrypted_keys, circ, (0, 1))
        thread.join(timeout=5)
        assert len(session.gadgets) == 1

    @pytest.mark.parametrize("circ", [[gate("T", 0)], [gate("H", 0)]])
    def test_a_run_takes_the_whole_queue(self, circ):
        # A homomorphic run needs exactly the queue's gadgets: one with fewer
        # T gates than the two queued is refused, and the queue stays whole.
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(9)
        rng = np.random.default_rng(9)
        client.remote_keygen(2, [gate("T", 0), gate("H", 0), gate("T", 0)], rng)
        client_keys, _ = keygen(SECURITY, 2, circ, rng)
        cs, _ = encrypt(client_keys, StateVector(2), rng)
        with pytest.raises(ProtocolError, match="budget"):
            client.request_run(cs.register, cs.encrypted_keys, circ, (0, 1))
        thread.join(timeout=5)
        assert [g.level for g in session.gadgets] == [1, 2]

    def test_exact_evaluator_bitwise_matches_local(self):
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(11)
        evaluator = make_exact_evaluator(client)
        model = ShadowModel(
            np.random.default_rng(3).uniform(0, 2 * np.pi, (2, 4)),
            np.zeros(3),
            0.0,
            4,
        )
        psi = random_state(4, np.random.default_rng(4))
        circ = build_shadow_circuit(model, 2)
        remote = evaluator(psi, circ, (1, 2), np.random.default_rng(42))
        local = window_evaluator("delegated-exact-gates")(
            psi, circ, (1, 2), np.random.default_rng(42)
        )
        assert remote == local  # identical rng draws, identical arithmetic
        client.done()
        thread.join(timeout=5)

    def test_faithful_evaluator_close_to_plaintext(self):
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(12)
        evaluator = make_faithful_evaluator(client, eps_target=3e-2)
        model = ShadowModel(
            np.random.default_rng(5).uniform(0, 2 * np.pi, (2, 4)),
            np.zeros(1),
            0.0,
            2,
        )
        psi = random_state(2, np.random.default_rng(6))
        circ = build_shadow_circuit(model, 1)
        got = evaluator(psi, circ, (0, 1), np.random.default_rng(13))
        want = xx_run(psi, circ, (0, 1))
        assert got == pytest.approx(want, abs=0.15)
        client.done()
        thread.join(timeout=5)

    def test_faithful_features_without_t_gates_match_plaintext(self):
        # At theta = 0 each window is [CNOT, CNOT], so a window sends no RSP
        # and no gadget frame: only its run.
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(15)
        to_server, _ = watch(channel)
        evaluator = make_faithful_evaluator(client, eps_target=0.1)
        model = ShadowModel(np.zeros((2, 4)), np.zeros(2), 0.0, 3)
        psi = random_state(3, np.random.default_rng(15))
        got = shadow_features(
            psi, model, "delegated-faithful", np.random.default_rng(16), 0.1, evaluator
        )
        client.done()
        thread.join(timeout=5)
        assert [m.kind for m in to_server] == ["RunRequest", "RunRequest", "Done"]
        want = shadow_features(psi, model)
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_remote_faithful_features_match_local(self):
        # Claw RSP over the wire and ideal RSP in process run one synthesized
        # circuit per window, so the features agree to float rounding.
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(17)
        evaluator = make_faithful_evaluator(client, eps_target=0.3)
        model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(2), 0.0, 3)
        psi = random_state(3, np.random.default_rng(17))
        got = shadow_features(psi, model, "delegated-faithful", np.random.default_rng(18),
                              0.3, evaluator)
        client.done()
        thread.join(timeout=30)
        want = shadow_features(psi, model, "delegated-faithful", np.random.default_rng(18), 0.3)
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    def test_qhe_runs_without_t_gates_follow_runs_with_them(self):
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(16)
        rng = np.random.default_rng(16)
        for circ in ([gate("H", 0), gate("T", 0)], [gate("X", 0), gate("CNOT", 0, 1)]):
            psi = random_state(2, rng)
            sign, raw = remote_xx(client, circ, psi, rng)
            assert sign * raw == pytest.approx(xx_run(psi, circ, (0, 1)), abs=1e-9)
        client.done()
        thread.join(timeout=5)

    def test_a_leaf_that_arrives_twice_cancels(self):
        # Wires 0 and 1 carry one X-key leaf, hex for hex, so the server
        # decodes two equal leaves. CNOT(0, 1) XORs them into wire 1's X key:
        # compared by value they cancel to the constant 0, which the T on
        # wire 0 switches up a level. Kept apart, they would make a sum with
        # a repeated leaf, an encoding the client refuses.
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(31)
        rng = np.random.default_rng(31)
        circ = [gate("CNOT", 0, 1), gate("T", 0)]
        psi = random_state(2, rng)
        client_keys, _ = client.remote_keygen(2, circ, rng)
        cs, pad = encrypt(client_keys, psi, rng)
        (a0, b0), (_, b1) = cs.encrypted_keys
        pad = [pad[0], (pad[0][0], pad[1][1])]
        raw, row = client.request_run(apply_pad(psi, pad), ((a0, b0), (a0, b1)), circ, (0, 1))
        client.done()
        thread.join(timeout=5)
        assert row[1][0] == he_const(0, 1)  # one T: the keys sit at level 1
        final = decrypt_keys(client_keys, CipherState(StateVector(2), row, 1))
        assert final[1] == (0, pad[1][1])
        sign = xx_sign(client_keys, 1, dict(enumerate(row)), (0, 1))
        assert sign * raw == pytest.approx(xx_run(psi, circ, (0, 1)), abs=1e-9)

    def test_local_and_remote_exact_training_give_identical_csvs(self, tmp_path):
        full = load_digits_csv()
        dataset = LabeledDataset(full.samples[:16], full.n)
        config = TrainConfig(epochs=1, seed=3, mode="delegated-exact-gates")
        _, local = train(dataset, config)
        channel, _session, thread = serve_inproc()
        _, remote = run_client(channel, dataset, config)
        thread.join(timeout=30)
        write_metrics_csv(str(tmp_path / "local.csv"), local)
        write_metrics_csv(str(tmp_path / "remote.csv"), remote)
        assert (tmp_path / "local.csv").read_bytes() == (tmp_path / "remote.csv").read_bytes()

    def test_remote_faithful_training_runs_claw_rsp_and_matches_local(self, tmp_path):
        # The server draws no preparation angle: every RSP request of the
        # session is a claw commit or a claw measurement, and the metrics
        # equal local training's.
        full = load_digits_csv()
        dataset = LabeledDataset(full.samples[:2], full.n)
        config = TrainConfig(epochs=1, seed=0, mode="delegated-faithful", eps_target=0.3)
        _, local = train(dataset, config)
        channel, _session, thread = serve_inproc()
        to_server, _ = watch(channel)
        _, remote = run_client(channel, dataset, config)
        thread.join(timeout=30)
        forms = [set(m.payload) & {"matrix", "alphas"} for m in to_server if m.kind == "RspBasis"]
        assert forms and all(len(form) == 1 for form in forms)
        write_metrics_csv(str(tmp_path / "local.csv"), local)
        write_metrics_csv(str(tmp_path / "remote.csv"), remote)
        assert (tmp_path / "local.csv").read_bytes() == (tmp_path / "remote.csv").read_bytes()


class TestGadgetBudget:
    """A faithful window provisions one gadget per T gate of its folded
    circuit, locally and over the wire."""

    EPS = 0.1

    def window(self):
        model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(1), 0.0, 2)
        circ = build_shadow_circuit(model, 1)
        synthesised = decompose_circuit(circ, self.EPS)[0]
        # The SK output holds T^2 runs, which fold into P.
        assert any(
            g.kind == h.kind == "T" and g.wires == h.wires
            for g, h in zip(synthesised, synthesised[1:])
        )
        budget = t_count(fold_t_runs(synthesised))
        assert budget < t_count(synthesised)
        return circ, budget

    def test_remote_window_sends_one_gadget_per_folded_t(self):
        circ, budget = self.window()
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(18)
        to_server, _ = watch(channel)
        evaluator = make_faithful_evaluator(client, eps_target=self.EPS)
        evaluator(random_state(2, np.random.default_rng(18)), circ, (0, 1), np.random.default_rng(19))
        client.done()
        thread.join(timeout=30)
        frames = [m.payload for m in to_server if m.kind == "GadgetClassical"]
        assert len(frames) == 1 and len(frames[0]["gadgets"]) == budget

    def test_remote_window_frame_counts(self):
        # The window's RSP rounds come in one batch sized to its T count, its
        # gadgets in one frame, and the run carries its input: 9 frames both
        # ways, where 32-round batches and a frame per gadget took 75 on this
        # window, and one claw round per two round trips 867.
        circ, budget = self.window()
        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(18)
        to_server, from_server = watch(channel)
        evaluator = make_faithful_evaluator(client, eps_target=self.EPS)
        evaluator(random_state(2, np.random.default_rng(18)), circ, (0, 1), np.random.default_rng(19))
        client.done()
        thread.join(timeout=30)
        sent = Counter(m.kind for m in to_server)
        assert sent == {"RspBasis": 2, "GadgetClassical": 1, "RunRequest": 1, "Done": 1}
        assert len(to_server) + len(from_server) == 9 + 2

    def test_a_long_window_tops_up_after_sending_its_gadgets(self):
        # 100 T gates on 2 wires need about 800 rounds, more than one batch:
        # the gadgets built from the first batch go out before the second
        # commit, so the server never holds more than MAX_HELD qubits, and
        # the run still decrypts to the plaintext <X x X>.
        assert t_count(TOP_UP_CIRCUIT) == 100 and rsp_rows(100) == RSP_BATCH
        psi, sign, raw, held, to_server, sent, session = top_up_window()
        commits = [i for i, m in enumerate(to_server) if "matrix" in m.payload]
        assert len(commits) >= 2
        assert "GadgetClassical" in [m.kind for m in to_server[commits[0] : commits[1]]]
        frames = [m.payload["gadgets"] for m in to_server if m.kind == "GadgetClassical"]
        assert sum(map(len, frames)) == 100
        assert max(held) <= MAX_HELD and not session.qubits and not session.pending
        assert sign * raw == pytest.approx(xx_run(psi, TOP_UP_CIRCUIT, (0, 1)), abs=1e-9)
        # Every byte the client sent, top-up included, pinned; re-recorded at
        # protocol version 10, whose Hello has no mode, and at version 11,
        # whose rows, gadget leaves and input keys travel as Blobs.
        assert sent.hexdigest() == (
            "6b07acc95c4052390579b883aaa932ad8646c140309c81304be78adf43430618"
        )

    def test_a_deepest_window_fits_under_the_top_level(self):
        # A window whose four rotations are synthesized at MAX_DEPTH: each
        # word is at most BASE_LENGTH * 5**MAX_DEPTH ops, and the folded
        # window takes at most MAX_LEVEL gadgets (34 135 here).
        theta = np.random.default_rng(0).uniform(0, 2 * np.pi, (2, 4))
        circ, words = [], []
        for g in build_shadow_circuit(ShadowModel(theta, np.zeros(1), 0.0, 2), 1):
            if g.kind in ROTATION_1Q:
                words.append(sk_decompose(ROTATION_1Q[g.kind](g.angle), MAX_DEPTH, default_net())[0])
                circ += [gate(op, *g.wires) for op in words[-1]]
            else:
                circ.append(g)
        assert len(words) == 4 and max(map(len, words)) <= BASE_LENGTH * 5**MAX_DEPTH
        assert t_count(fold_t_runs(circ)) <= protocol.MAX_LEVEL

    def test_local_keygen_makes_one_gadget_per_folded_t(self, monkeypatch):
        circ, budget = self.window()
        made, keygen = [], vqa.keygen

        def counting_keygen(*args, **kwargs):
            client, gadgets = keygen(*args, **kwargs)
            made.append(len(gadgets))
            return client, gadgets

        monkeypatch.setattr(vqa, "keygen", counting_keygen)
        evaluate = window_evaluator("delegated-faithful", self.EPS)
        evaluate(random_state(2, np.random.default_rng(20)), circ, (0, 1), np.random.default_rng(21))
        assert made == [budget]


K = rsp_rows(1)  # one gadget's batch
QIDS = list(range(K))
Y, B = [0] * RSP_MU, [1, 0, 1]  # A x = 0 for x = 0
COMMIT = Message("RspCommit", {"qids": QIDS, "y": to_blob([Y] * K)})
OUTCOME = Message("RspOutcome", {"qids": QIDS, "b": to_blob([B] * K)})


def unreachable_image():
    """A y outside the image of the first matrix a client with generator
    seed 0 sends: its trapdoors are the first draws."""
    matrix = sample_trapdoor(K, RSP_N, RSP_MU, np.random.default_rng(0)).matrix[0]
    inputs = (np.arange(2**RSP_N)[:, None] >> np.arange(RSP_N)) & 1
    images = {tuple(row) for row in (inputs @ matrix.T % 2).tolist()}
    return next(list(y) for y in product((0, 1), repeat=RSP_MU) if y not in images)


def send_gadget_frame(client):
    """Send a hand-built frame of two gadgets and take its acknowledgement."""
    return client._ask("GadgetClassical", GADGET_FRAME, "GadgetClassical")


GADGET_FRAME = TestHostilePayloads.frame([[0, 1], [2, 3]], [[4, 5], [6, 7]], discard=[8])


class TestHostileReplies:
    """A malformed reply to a batch of RSP rounds, to Hello or to a run, or a
    malformed Error, reaches the client's caller only as ``ProtocolError``."""

    @staticmethod
    def round_with_replies(*replies):
        """Take one round from a client RSP pool against queued replies (a
        well-formed outcome follows a hostile commit, so that a client that
        lets the commit through does not wait for a reply)."""
        client_end, server_end = make_inproc_pair()
        for reply in replies:
            server_end.send(reply)
        return ClientSession(client_end)._round(deque(), lambda: 1, lambda: None)(
            np.random.default_rng(0))

    @pytest.mark.parametrize("replies", [
        [Message("RspCommit", {"qids": QIDS, "y": "zz"}), OUTCOME],
        [Message("RspCommit", {"y": to_blob([Y] * K)}), OUTCOME],
        [Message("RspCommit", {"qids": QIDS, "y": to_blob([Y] * K)[:-4]}), OUTCOME],
        [COMMIT, Message("RspOutcome", {"qids": [q + 1 for q in QIDS], "b": to_blob([B] * K)})],
        [COMMIT, Message("RspOutcome", {"qids": QIDS, "b": to_blob(bytes([8]) * K)})],
        [COMMIT, Message("RspOutcome", {"qids": QIDS, "theta_index": [1] * K})],
        [Message("RspCommit", {"qids": QIDS, "y": to_blob([unreachable_image()] + [Y] * (K - 1))}),
         OUTCOME],
        [Message("RspCommit", {"qids": QIDS, "y": to_blob([Y] * (K - 1))}), OUTCOME],
        [Message("RspCommit", {"qids": QIDS + [K], "y": to_blob([Y] * K)}), OUTCOME],
        [Message("RspCommit", {"qids": [0] * K, "y": to_blob([Y] * K)}), OUTCOME],
        [Message("RspCommit", {"qids": QIDS, "y": True}), OUTCOME],
        [COMMIT, Message("RspOutcome", {"qids": QIDS, "b": to_blob([B] * (K + 1))})],
        [COMMIT, Message("RspOutcome", {"qids": QIDS[::-1], "b": to_blob([B] * K)})],
        [Message("RspCommit", {"qids": QIDS, "y": to_blob(bytes([1 << RSP_MU]) * K)}), OUTCOME],
        [Message("RspCommit", {"qids": QIDS, "y": "-" + to_blob([Y] * K)[1:]}), OUTCOME],
        [COMMIT, Message("RspOutcome", {"qids": QIDS, "b": 5.0})],
        [COMMIT, Message("RspOutcome", {"qids": QIDS, "b": [B] * K})],
    ], ids=["y-not-bits", "commit-without-qid", "short-y", "outcome-for-another-qid",
            "b-not-bits", "theta-index-for-alphas", "y-without-preimage",
            "commit-missing-a-row", "commit-with-an-extra-qid", "commit-repeating-a-qid",
            "y-with-a-bool", "outcome-with-an-extra-row", "outcome-qids-reordered",
            "y-too-wide", "y-negative", "b-a-float", "b-unpacked"])
    def test_malformed_round_reply_is_a_protocol_error(self, replies):
        with pytest.raises(ProtocolError) as exc:
            self.round_with_replies(*replies)
        assert exc.value.code == "payload"

    def test_well_formed_replies_pass(self):
        idx, qid = self.round_with_replies(COMMIT, OUTCOME)
        assert idx in range(4) and qid == 0

    # Version 8's Announce; the version now fixes what it carried, and the
    # reply to Hello is an acknowledgement under the kind Hello.
    VERSION_8_ANNOUNCE = {"version": 8, "rsp_n": RSP_N, "rsp_mu": RSP_MU, "rsp_batch": RSP_BATCH}

    @pytest.mark.parametrize("spoil", [
        VERSION_8_ANNOUNCE, {**VERSION_8_ANNOUNCE, "ok": True},
        {"ok": True, "version": VERSION}, {"ok": True, "rsp_n": RSP_N},
        {"ok": True, "rsp_mu": RSP_MU}, {"ok": True, "rsp_batch": RSP_BATCH},
        {"ok": True, "max_wires": 20}, {"ok": True, "gate_set": ["H", "T"]},  # of version 5
        {"ok": False}, {"ok": 1},
    ])
    def test_malformed_announce_is_a_protocol_error(self, spoil):
        # Hello's reply is an acknowledgement: one that carries a field of an
        # earlier version's Announce, or a malformed ``ok``, is refused.
        client_end, server_end = make_inproc_pair()
        server_end.send(Message("Hello", spoil))
        with pytest.raises(ProtocolError) as exc:
            ClientSession(client_end).hello(0)
        assert exc.value.code == "payload"

    def test_announce_of_another_version_is_refused(self):
        client_end, server_end = make_inproc_pair()
        frame = bytearray(encode_message(Message("Hello", {"ok": True})))
        frame[4] = VERSION - 1
        server_end.send_bytes(bytes(frame))
        with pytest.raises(ProtocolError) as exc:
            ClientSession(client_end).hello(0)
        assert exc.value.code == "version"

    @pytest.mark.parametrize("payload", [{"code": [1]}, {"code": "x", "text": 7}, {}])
    def test_malformed_error_is_a_protocol_error_with_a_str_code(self, payload):
        client_end, server_end = make_inproc_pair()
        server_end.send(Message("Error", payload))
        with pytest.raises(ProtocolError) as exc:
            send_gadget_frame(ClientSession(client_end))
        assert exc.value.code == "payload"

    ACK_CALLS = {
        "GadgetClassical": send_gadget_frame,
        "Done": lambda client: client._ask("Done", {}, "Done"),
    }

    @pytest.mark.parametrize("kind, payload", [
        ("GadgetClassical", {"ok": True, "budget": 1}),
        ("GadgetClassical", {"ok": False}),
        ("GadgetClassical", {}),
        ("Done", {"ok": True}),
    ], ids=["gadget-ack-with-budget", "gadget-ack-not-ok", "gadget-ack-without-ok",
            "done-with-ok"])
    def test_malformed_ack_is_a_protocol_error(self, kind, payload):
        client_end, server_end = make_inproc_pair()
        server_end.send(Message(kind, payload))
        with pytest.raises(ProtocolError) as exc:
            self.ACK_CALLS[kind](ClientSession(client_end))
        assert exc.value.code == "payload"

    @pytest.mark.parametrize("kind", sorted(ACK_CALLS))
    def test_well_formed_acks_pass(self, kind):
        client_end, server_end = make_inproc_pair()
        server_end.send(Message(kind, {} if kind == "Done" else {"ok": True}))
        self.ACK_CALLS[kind](ClientSession(client_end))

    def test_well_formed_error_keeps_its_code_and_text(self):
        client_end, server_end = make_inproc_pair()
        server_end.send(Message("Error", {"code": "budget", "text": "none queued"}))
        with pytest.raises(ProtocolError) as exc:
            send_gadget_frame(ClientSession(client_end))
        assert (exc.value.code, exc.value.text) == ("budget", "none queued")

    @pytest.mark.parametrize("kind, spoil, run", [
        ("ShotResults", lambda p: {"bits": [0, 1]}, "xx"),
        ("ShotResults", lambda p: {}, "xx"),
        ("ShotResults", lambda p: {"value": "x"}, "xx"),
        ("ShotResults", lambda p: {"bits": []}, "qhe"),
        ("ShotResults", lambda p: {"value": True}, "qhe"),
        ("ShotResults", lambda p: {**p, "bits": [0, 1]}, "qhe"),
        ("EncKeysUpdate", lambda p: {**p, "level": 1}, "qhe"),
        ("EncKeysUpdate", lambda p: {**p, "enc_keys": [p["enc_keys"][0] * 2]}, "qhe"),
        ("EncKeysUpdate", lambda p: {**p, "enc_keys": []}, "qhe"),
        ("EncKeysUpdate", lambda p: spoil_first_key(p, "above"), "qhe"),
        ("EncKeysUpdate", lambda p: spoil_first_key(p, 5), "qhe"),
        ("EncKeysUpdate", lambda p: spoil_first_key(p, "order"), "qhe"),
        ("EncKeysUpdate", lambda p: spoil_first_key(p, "repeat"), "qhe"),
        ("EncKeysUpdate", lambda p: spoil_first_key(p, 4), "qhe"),
    ], ids=["no-values", "no-value", "value-not-a-number", "bit-row-without-the-bit",
            "value-a-bool", "value-and-bits", "level-of-v8",
            "key-row-with-an-extra-pair", "no-key-row", "key-xor-over-two-levels",
            "key-switch-without-key-bits", "key-leaves-out-of-order", "key-leaf-repeated",
            "key-constant-op"])
    def test_malformed_run_reply_is_a_protocol_error(self, kind, spoil, run):
        # A live session whose server sends each ``kind`` reply spoiled, under
        # an exact window or a one-T homomorphic run; a version-5 bits row is
        # one of the spoils.
        channel, session, thread = serve_inproc()
        reply = session._reply
        session._reply = lambda k, p: reply(k, spoil(p) if k == kind else p)
        client = ClientSession(channel)
        client.hello(3)
        rng = np.random.default_rng(3)
        with pytest.raises(ProtocolError) as exc:
            if run == "xx":
                window = [gate("RX", 0, angle=0.3), gate("CNOT", 0, 1)]
                make_exact_evaluator(client)(random_state(2, rng), window, (0, 1), rng)
            else:
                remote_xx(client, [gate("H", 0), gate("T", 0)], StateVector(2), rng)
        assert exc.value.code == "payload"
        client.done()
        thread.join(timeout=5)
        assert not thread.is_alive()


@functools.lru_cache(maxsize=None)
def padded_input():
    """A padded 2-wire input of a one-T run."""
    rng = np.random.default_rng(23)
    client_keys, _ = keygen(SECURITY, 2, [gate("T", 0)], rng)
    return encrypt(client_keys, StateVector(2), rng)[0]


def take_round(client):
    return client._round(deque(), lambda: 1, lambda: None)(np.random.default_rng(0))


def take_qhe_run(client):
    """What ``remote_xx`` reads of a one-T run's replies (it then decrypts)."""
    cs, wires = padded_input(), (1, 0)
    value, row = client.request_run(cs.register, cs.encrypted_keys, [gate("T", 0)], wires)
    return dict(zip(wires, row)), value


def take_exact_window(client):
    rng = np.random.default_rng(2)
    window = [gate("RX", 0, angle=0.3), gate("CNOT", 0, 1)]
    return make_exact_evaluator(client)(random_state(2, rng), window, (0, 1), rng)


# Per reply form: the client call that takes it, the request values its
# bounds name, and well-formed replies that go before and after it.
ReplyTaker = namedtuple("ReplyTaker", "call bounds before after", defaults=((), ()))
REPLY_TAKERS = {
    "Hello": ReplyTaker(lambda client: client.hello(0), {}),
    "GadgetClassical": ReplyTaker(send_gadget_frame, {}),
    "Done": ReplyTaker(TestHostileReplies.ACK_CALLS["Done"], {}),
    "Error": ReplyTaker(send_gadget_frame, {}),
    "RspCommit": ReplyTaker(take_round, {"rows": K}, after=(OUTCOME,)),
    "RspOutcome": ReplyTaker(take_round, {"rows": K}, before=(COMMIT,)),
    "ShotResults": ReplyTaker(take_exact_window, {}),
    "EncKeysUpdate": ReplyTaker(take_qhe_run, {"level": 1}, before=(
        Message("ShotResults", {"value": 0.5}),)),
}


class TestReplyProperty:
    """Every reply form the client checks, well-formed or hostile, sent by a
    fake server to the call that takes it or to another call: the client
    returns, or raises ``ProtocolError`` and nothing else."""

    def test_every_reply_form_is_drawn(self):
        assert set(REPLY_TAKERS) == set(REPLIES)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_client_raises_only_protocol_errors(self, data):
        forms = sorted(REPLY_TAKERS)
        form = data.draw(st.sampled_from(forms))
        taker = REPLY_TAKERS[data.draw(st.one_of(st.just(form), st.sampled_from(forms)))]
        bounds = REPLY_TAKERS[form].bounds
        payload = draw_value(data.draw, REPLIES[form], dict(bounds), data.draw(st.booleans()))
        reply = Message(form, payload if isinstance(payload, dict) else {"payload": payload})
        client_end, server_end = make_inproc_pair()
        for msg in (*taker.before, reply, *taker.after):
            server_end.send(msg)
        try:
            taker.call(ClientSession(client_end))
        except ProtocolError:
            pass


class TestServerBlindness:
    """Everything the server receives is public structure, fresh encryptions
    in leaf tables or padded quantum data: checked on every frame the client
    end of the channel sends, whole gadget frames included."""

    PUBLIC_FIELDS = {
        "Hello": {"session_seed"},
        "GadgetClassical": {"gadgets", "discard"},
        "RspBasis": {"matrix", "qids", "alphas"},
        "RunRequest": {"num_wires", "amps", "enc_keys", "circuit", "wires", "use_gadgets"},
        "Done": set(),
    }
    GADGET_FIELDS = {"pairs", "level", "leaves"}

    def watched_window(self, make_evaluator):
        """Run one delegated 2-wire window; return the frames the server
        received and the gadgets among them."""
        channel, _session, thread = serve_inproc()
        to_server, _ = watch(channel)
        client = ClientSession(channel)
        client.hello(41)
        model = ShadowModel(
            np.random.default_rng(7).uniform(0, 2 * np.pi, (2, 4)), np.zeros(1), 0.0, 2
        )
        psi = random_state(2, np.random.default_rng(8))
        evaluate = make_evaluator(client)
        evaluate(psi, build_shadow_circuit(model, 1), (0, 1), np.random.default_rng(9))
        client.done()
        thread.join(timeout=30)
        for msg in to_server:
            assert set(msg.payload) <= self.PUBLIC_FIELDS[msg.kind], (msg.kind, sorted(msg.payload))
        gadgets = [g for m in to_server if m.kind == "GadgetClassical"
                   for g in m.payload["gadgets"]]
        for gadget in gadgets:
            assert set(gadget) == self.GADGET_FIELDS, sorted(gadget)
        return to_server, gadgets

    def test_exact_session(self):
        to_server, gadgets = self.watched_window(make_exact_evaluator)
        runs = [m.payload for m in to_server if m.kind == "RunRequest"]
        assert runs and not gadgets
        assert all("enc_keys" not in p for p in runs)

    def test_faithful_session_claw_rsp(self):
        to_server, gadgets = self.watched_window(
            lambda client: make_faithful_evaluator(client, eps_target=0.1),
        )
        assert gadgets
        assert any("matrix" in m.payload for m in to_server if m.kind == "RspBasis")
        runs = [m.payload for m in to_server if m.kind == "RunRequest"]
        assert runs
        for p in runs:  # a key pair per wire, leaves at level 0
            assert len(blob_leaves(p["enc_keys"], 0)) == 2 * p["num_wires"] == 4
        for g in gadgets:
            assert len(blob_leaves(g["leaves"], g["level"])) == GADGET_LEAVES


    def test_the_server_decodes_no_variable_length_ciphertext(self, monkeypatch):
        # A whole delegated-faithful window: every ciphertext the server takes
        # is a fixed-width leaf, so ``ct_from_bytes`` runs only on the client
        # thread, for the keys a run returns.
        callers = []

        def recording(data, decode=classical_he.ct_from_bytes):
            callers.append(threading.current_thread())
            return decode(data)

        monkeypatch.setattr(classical_he, "ct_from_bytes", recording)
        monkeypatch.setattr(protocol, "ct_from_bytes", recording)
        _, gadgets = self.watched_window(lambda client: make_faithful_evaluator(client, 0.1))
        assert gadgets and callers
        assert set(callers) == {threading.main_thread()}


class TestServerMemory:
    """A long session or a long-running server keeps bounded state."""

    def test_a_long_exact_session_keeps_no_state_per_payload(self):
        # 300 six-wire delegated-exact windows, each one RunRequest of about
        # 3 KB of frame. The server keeps no record of a payload, so traced
        # memory is flat from window 50 on; a log of the last 256 decoded
        # payloads grew by about 2.5 MB over the same windows.
        import gc
        import tracemalloc

        channel, _session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(0)
        evaluate = make_exact_evaluator(client)
        model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(5), 0.0, 6)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            for i in range(300):
                if i == 50:
                    gc.collect()
                    before = tracemalloc.get_traced_memory()[0]
                v = 1 + i % 5
                evaluate(random_state(6, rng), build_shadow_circuit(model, v), (v - 1, v), rng)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            client.done()
            thread.join(timeout=30)
        assert growth < 200_000

    def test_large_payloads_leave_no_state(self):
        # Twenty runs of a 4096-pair register, each 41 KB of frame and 0.5 MB
        # decoded: a finished session still in hand holds none of them.
        import gc
        import tracemalloc

        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(0)
        register = StateVector(12)
        client.request_run(register, None, [], (0, 1))
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                client.request_run(register, None, [], (0, 1))
            client.done()
            thread.join(timeout=30)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert session.phase == "done"
        assert held < 100_000

    def test_a_faithful_window_leaves_no_rsp_qubits_held(self):
        # The pool's spare rounds go out with the key generation's gadget frame.
        channel, session, thread = serve_inproc()
        client = ClientSession(channel)
        client.hello(42)
        evaluator = make_faithful_evaluator(client, eps_target=0.1)
        model = ShadowModel(REFERENCE_THETA_INIT, np.zeros(1), 0.0, 2)
        circ = build_shadow_circuit(model, 1)
        evaluator(random_state(2, np.random.default_rng(42)), circ, (0, 1), np.random.default_rng(43))
        assert not session.qubits and not session.pending
        client.done()
        thread.join(timeout=30)

    def test_tcp_server_drops_finished_sessions(self):
        server = TcpServer(port=0).start()
        try:
            for seed in range(3):
                client = ClientSession(connect_tcp("127.0.0.1", server.port))
                client.hello(seed)
                client.done()
            deadline = time.monotonic() + 10
            while (server.sessions or server._threads) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server.sessions and not server._threads
        finally:
            server.stop()

    def test_tcp_stop_ends_the_accept_thread_at_once(self):
        server = TcpServer(port=0).start()
        client = ClientSession(connect_tcp("127.0.0.1", server.port))
        client.hello(0)
        client.done()
        t0 = time.monotonic()
        server.stop()
        assert time.monotonic() - t0 < 1.0
        assert not server._accept_thread.is_alive()


class TestTcpTransport:
    def test_session_over_tcp(self):
        server = TcpServer(port=0).start()
        try:
            channel = connect_tcp("127.0.0.1", server.port)
            client = ClientSession(channel)
            client.hello(21)
            rng = np.random.default_rng(21)
            circ = [gate("H", 0), gate("T", 0), gate("H", 0), gate("CNOT", 0, 1)]
            for _ in range(3):
                psi = random_state(2, rng)
                sign, raw = remote_xx(client, circ, psi, rng)
                assert sign * raw == pytest.approx(xx_run(psi, circ, (0, 1)), abs=1e-9)
            client.done()
        finally:
            server.stop()

    def test_concurrent_clients(self):
        server = TcpServer(port=0).start()
        errors = []

        def one(seed):
            try:
                client = ClientSession(connect_tcp("127.0.0.1", server.port))
                client.hello(seed)
                psi = random_state(2, np.random.default_rng(seed))
                want = xx_run(psi, [gate("H", 0)], (0, 1))
                for _ in range(5):
                    value, _ = client.request_run(psi, None, [gate("H", 0)], (0, 1))
                    assert value == pytest.approx(want, abs=1e-12)
                client.done()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        try:
            threads = [threading.Thread(target=one, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert errors == []
        finally:
            server.stop()

    def test_transport_determinism(self):
        # Same session seed, same client draws: inproc and TCP transcripts
        # must produce identical homomorphic signs and raw values.
        def run(channel):
            client = ClientSession(channel)
            client.hello(33)
            rng = np.random.default_rng(33)
            circ = [gate("H", 0), gate("T", 0), gate("H", 0), gate("CNOT", 0, 1)]
            out = [remote_xx(client, circ, random_state(2, rng), rng) for _ in range(5)]
            client.done()
            return out

        channel, _session, thread = serve_inproc()
        inproc_runs = run(channel)
        thread.join(timeout=5)

        server = TcpServer(port=0).start()
        try:
            tcp_runs = run(connect_tcp("127.0.0.1", server.port))
        finally:
            server.stop()
        assert inproc_runs == tcp_runs
