"""Modeled bit-level homomorphic encryption: correctness, levels, wire format."""
import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhevqa.classical_he import (
    CONST,
    KEYSWITCH,
    LEAF,
    NONCE_BYTES,
    TAG_BYTES,
    XOR,
    HECiphertext,
    HEError,
    _dec,
    _topological,
    ct_from_bytes,
    ct_to_bytes,
    encrypt_seed,
    he_const,
    he_dec,
    he_enc,
    he_enc_bits,
    he_keygen,
    he_xor,
    key_switch,
    public_masked_parity,
)


@pytest.fixture(scope="module")
def triple():
    return he_keygen(16, np.random.default_rng(0))


def seal(pk, nonce):
    """A leaf's stream bit and tag: byte 0's low bit and bytes 1-8 of one digest."""
    digest = hashlib.sha256(pk.stream_seed + nonce + b"seal").digest()
    return digest[0] & 1, digest[1 : 1 + TAG_BYTES]


def stream_bit(pk, nonce):
    return seal(pk, nonce)[0]


class CountingRng:
    """A generator whose ``bytes`` calls are recorded, or served from ``pools``
    first: a list of byte strings handed out, one per call, before ``rng``'s."""

    def __init__(self, rng, pools=()):
        self.rng, self.pools, self.calls = rng, list(pools), []

    def bytes(self, n):
        self.calls.append(n)
        return self.pools.pop(0)[:n] if self.pools else self.rng.bytes(n)


def reference_pinned_nonces(pk, keystream_bits, rng):
    """The pooled rule, one nonce at a time: each pool holds two nonces per
    empty slot, and a nonce fills the first empty slot that wants its stream
    bit or is dropped. Returns each slot's nonce."""
    nonces = [None] * len(keystream_bits)
    while None in nonces:
        pool = rng.bytes(2 * NONCE_BYTES * nonces.count(None))
        for start in range(0, len(pool), NONCE_BYTES):
            nonce = pool[start : start + NONCE_BYTES]
            for i, k in enumerate(keystream_bits):
                if nonces[i] is None and k == stream_bit(pk, nonce):
                    nonces[i] = nonce
                    break
    return nonces


class TestEncDec:
    def test_round_trip(self, triple):
        rng = np.random.default_rng(1)
        for bit in (0, 1):
            for _ in range(20):
                ct = he_enc(triple.pk, bit, rng)
                assert he_dec(triple.sk, ct) == bit

    def test_rejects_non_bits(self, triple):
        rng = np.random.default_rng(2)
        with pytest.raises(HEError):
            he_enc(triple.pk, 2, rng)
        with pytest.raises(HEError):
            he_enc_bits(triple.pk, [0, 1], rng, [0, 2])
        with pytest.raises(HEError):
            he_enc_bits(triple.pk, [0, 1], rng, [0])

    def test_wrong_key_detected(self, triple):
        rng = np.random.default_rng(3)
        other = he_keygen(16, rng)
        ct = he_enc(triple.pk, 1, rng)
        with pytest.raises(HEError):
            he_dec(other.sk, ct)

    def test_keystream_bit_pinning(self, triple):
        rng = np.random.default_rng(4)
        for want in (0, 1):
            (ct,) = he_enc_bits(triple.pk, [1], rng, [want])
            assert stream_bit(triple.pk, ct.nonce) == want
            assert he_dec(triple.sk, ct) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=24),
        pinned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_encrypted_bits_are_sealed_leaves(self, triple, pairs, pinned, seed):
        bits = [b for b, _ in pairs]
        keystream = [k for _, k in pairs] if pinned else None
        cts = he_enc_bits(triple.pk, bits, np.random.default_rng(seed), keystream)
        assert len(cts) == len(bits)
        assert len({ct.nonce for ct in cts}) == len(cts)
        assert _dec(triple.sk, *cts) == bits
        for i, ct in enumerate(cts):
            stream, tag = seal(triple.pk, ct.nonce)
            assert (ct.op, ct.level, len(ct.nonce)) == (LEAF, triple.pk.level, NONCE_BYTES)
            assert (ct.masked, ct.tag) == (bits[i] ^ stream, tag)
            if pinned:
                assert stream == keystream[i]

    @pytest.mark.parametrize("seed", range(8))
    def test_pinned_bits_draw_pooled_nonces(self, triple, seed):
        keystream = [int(k) for k in np.random.default_rng(100 + seed).integers(2, size=8)]
        rng = CountingRng(np.random.default_rng(seed))
        cts = he_enc_bits(triple.pk, [1] * 8, rng, keystream)
        twin = CountingRng(np.random.default_rng(seed))
        assert [ct.nonce for ct in cts] == reference_pinned_nonces(triple.pk, keystream, twin)
        assert rng.calls == twin.calls
        assert rng.calls[0] == 2 * NONCE_BYTES * 8
        pool = np.random.default_rng(seed).bytes(2 * NONCE_BYTES * 8)
        streams = [stream_bit(triple.pk, pool[i : i + NONCE_BYTES])
                   for i in range(0, len(pool), NONCE_BYTES)]
        suffices = all(streams.count(k) >= keystream.count(k) for k in (0, 1))
        assert (len(rng.calls) == 1) == suffices

    def test_pinned_bits_draw_again_when_the_pool_misses(self, triple):
        # A first pool of 8 nonces whose stream bits are all 1, for 4 slots that want 0.
        candidates = (i.to_bytes(NONCE_BYTES, "little") for i in range(10**4))
        wrong = [n for n in candidates if stream_bit(triple.pk, n) == 1][:8]
        rng = CountingRng(np.random.default_rng(6), [b"".join(wrong)])
        cts = he_enc_bits(triple.pk, [0, 1, 1, 0], rng, [0] * 4)
        assert rng.calls[:2] == [8 * NONCE_BYTES, 8 * NONCE_BYTES]
        assert not {ct.nonce for ct in cts} & set(wrong)
        assert [stream_bit(triple.pk, ct.nonce) for ct in cts] == [0] * 4
        assert _dec(triple.sk, *cts) == [0, 1, 1, 0]

    def test_ciphertexts_of_same_bit_differ(self, triple):
        rng = np.random.default_rng(5)
        a = he_enc(triple.pk, 1, rng)
        b = he_enc(triple.pk, 1, rng)
        assert a.nonce != b.nonce


class TestHomomorphics:
    def test_gate_identities(self, triple):
        rng = np.random.default_rng(6)
        for x in (0, 1):
            for y in (0, 1):
                cx, cy = he_enc(triple.pk, x, rng), he_enc(triple.pk, y, rng)
                assert he_dec(triple.sk, he_xor(cx, cy)) == x ^ y
                assert he_dec(triple.sk, he_xor(cx, he_const(y, triple.pk.level))) == x ^ y
                assert he_dec(triple.sk, he_xor(cx, cx)) == 0

    def test_random_circuits_against_plaintext(self, triple):
        rng = np.random.default_rng(7)
        for _ in range(50):
            bits = [int(rng.integers(2)) for _ in range(4)]
            cts = [he_enc(triple.pk, b, rng) for b in bits]
            vals = list(bits)
            nodes = list(cts)
            for _step in range(6):
                i, j = rng.integers(len(nodes)), rng.integers(len(nodes))
                if rng.integers(2):
                    nodes.append(he_xor(nodes[i], nodes[j]))
                    vals.append(vals[i] ^ vals[j])
                else:  # a NOT
                    nodes.append(he_xor(nodes[i], he_const(1, triple.pk.level)))
                    vals.append(1 ^ vals[i])
            assert he_dec(triple.sk, nodes[-1]) == vals[-1]

    def test_mixed_levels_rejected(self, triple):
        rng = np.random.default_rng(9)
        upper = he_keygen(16, rng, level=1)
        a = he_enc(triple.pk, 0, rng)
        b = he_enc(upper.pk, 1, rng)
        with pytest.raises(HEError):
            he_xor(a, b)


class TestKeySwitch:
    def test_switch_chain(self):
        rng = np.random.default_rng(10)
        levels = [he_keygen(16, rng, level=i) for i in range(4)]
        ct = he_enc(levels[0].pk, 1, rng)
        for i in range(3):
            sk_enc = encrypt_seed(levels[i + 1].pk, levels[i].sk, rng)
            ct = key_switch(ct, sk_enc)
            assert ct.level == i + 1
            assert he_dec(levels[i + 1].sk, ct) == 1

    def test_switch_requires_adjacent_level(self):
        rng = np.random.default_rng(11)
        l0 = he_keygen(16, rng, level=0)
        l2 = he_keygen(16, rng, level=2)
        with pytest.raises(HEError):
            encrypt_seed(l2.pk, l0.sk, rng)
        l1 = he_keygen(16, rng, level=1)
        sk_enc = encrypt_seed(l1.pk, l0.sk, rng)
        ct = he_enc(l1.pk, 0, rng)
        with pytest.raises(HEError):
            key_switch(ct, sk_enc)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("before", ["none", "random", "one_uint32"])
    def test_seed_encryption_is_one_he_enc_per_bit(self, seed, before):
        # encrypt_seed draws every nonce at once; that must give the bytes of
        # one he_enc per seed bit, and leave the generator where they would.
        # One uint32 drawn before leaves half a 64-bit output buffered.
        rng = np.random.default_rng(seed)
        l0, l1 = he_keygen(16, rng, level=0), he_keygen(16, rng, level=1)
        if before == "random":
            rng.random(3)
        elif before == "one_uint32":
            rng.integers(0, 2**32, dtype=np.uint32)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        got = encrypt_seed(l1.pk, l0.sk, rng)
        bits = [(byte >> j) & 1 for byte in l0.sk.seed for j in range(8)]
        want = [he_enc(l1.pk, bit, twin) for bit in bits]
        assert len(got) == len(want) == 16
        assert [ct_to_bytes(ct) for ct in got] == [ct_to_bytes(ct) for ct in want]
        assert rng.random() == twin.random()

    def test_homomorphics_after_switch(self):
        rng = np.random.default_rng(12)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        sk_enc = encrypt_seed(l1.pk, l0.sk, rng)
        for x in (0, 1):
            for y in (0, 1):
                cx = key_switch(he_enc(l0.pk, x, rng), sk_enc)
                cy = he_enc(l1.pk, y, rng)
                assert he_dec(l1.sk, he_xor(cx, cy)) == x ^ y


class TestMaskedParity:
    def test_parity_is_plaintext_xor_keystream(self, triple):
        rng = np.random.default_rng(13)
        for bit in (0, 1):
            zero, one = he_enc_bits(triple.pk, [bit, bit], rng, [0, 1])
            assert public_masked_parity(zero) == bit
            assert public_masked_parity(one) == 1 ^ bit

    def test_parity_linear_over_xor(self, triple):
        rng = np.random.default_rng(14)
        a = he_enc(triple.pk, 1, rng)
        b = he_enc(triple.pk, 0, rng)
        assert public_masked_parity(he_xor(a, b)) == (
            public_masked_parity(a) ^ public_masked_parity(b)
        )


class TestWireFormat:
    def test_round_trip(self, triple):
        rng = np.random.default_rng(16)
        a = he_enc(triple.pk, 1, rng)
        b = he_enc(triple.pk, 0, rng)
        ct = he_xor(he_xor(a, b), he_xor(a, he_const(1, triple.pk.level)))
        back = ct_from_bytes(ct_to_bytes(ct))
        assert he_dec(triple.sk, back) == he_dec(triple.sk, ct)
        assert ct_to_bytes(back) == ct_to_bytes(ct)

    def test_keyswitch_round_trip(self):
        rng = np.random.default_rng(17)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        sk_enc = encrypt_seed(l1.pk, l0.sk, rng)
        ct = key_switch(he_enc(l0.pk, 1, rng), sk_enc)
        back = ct_from_bytes(ct_to_bytes(ct))
        assert he_dec(l1.sk, back) == 1

    def test_shared_dag_encoding_is_linear(self, triple):
        # A balanced XOR tower over one shared leaf would be exponential as a
        # tree; the node-table format must stay linear in distinct nodes.
        rng = np.random.default_rng(18)
        ct = he_enc(triple.pk, 1, rng)
        for _ in range(40):
            ct = he_xor(ct, ct)
        data = ct_to_bytes(ct)
        assert len(data) < 2000
        assert he_dec(triple.sk, ct_from_bytes(data)) == 0

    def test_truncation_rejected(self, triple):
        rng = np.random.default_rng(19)
        data = ct_to_bytes(he_enc(triple.pk, 1, rng))
        for cut in (0, 1, len(data) // 2, len(data) - 1):
            with pytest.raises(HEError):
                ct_from_bytes(data[:cut])

    def test_overlong_varints_refused(self, triple):
        # A count of 81 00, a level of 80 00 or a child reference of 80 00
        # spells the value of one byte in two: a second encoding.
        rng = np.random.default_rng(39)
        leaf = ct_to_bytes(he_enc(triple.pk, 1, rng))
        flipped = ct_to_bytes(he_xor(he_enc(triple.pk, 1, rng), he_const(1, 0)))
        assert leaf[:2] == bytes([1, LEAF]) and flipped.endswith(bytes([XOR, 0, 2, 0, 1, 0]))
        for data in (
            b"\x81\x00" + leaf[1:],
            leaf[:2] + b"\x80\x00" + leaf[3:],
            flipped[:-1] + b"\x80\x00",
        ):
            assert ct_to_bytes(reference_ct_from_bytes(data)) in (leaf, flipped)
            with pytest.raises(HEError, match="overlong varint"):
                ct_from_bytes(data)

    def test_unreferenced_nodes_refused(self, triple):
        # Only the root may go unreferenced: a node no later node points to
        # pads the table without changing the ciphertext.
        rng = np.random.default_rng(40)
        a, b = (ct_to_bytes(he_enc(triple.pk, bit, rng)) for bit in (0, 1))
        flipped = ct_to_bytes(he_xor(he_enc(triple.pk, 1, rng), he_const(1, 0)))
        for data, size in (
            (b"\x02" + a[1:] + b[1:], 28),  # a leaf before the root leaf
            (b"\x04" + flipped[1:] + b[1:], 28),  # an XOR, its constant and leaf before it
            (b"\x03" + a[1:] + b[1:] + bytes([XOR, 0, 2, 0, 1, 1]), 34),  # a, then b XOR b
        ):
            assert len(ct_to_bytes(reference_ct_from_bytes(data))) == size
            with pytest.raises(HEError, match="unreferenced node"):
                ct_from_bytes(data)

    def test_self_and_forward_references_refused(self, triple):
        leaf = ct_to_bytes(he_enc(triple.pk, 1, np.random.default_rng(41)))
        for ref in (1, 2, 200):  # itself, the next node, a two-byte reference
            data = b"\x02" + leaf[1:] + bytes([XOR, 0, 2, 0, 0]) + reference_varint(ref)
            with pytest.raises(HEError, match="forward or dangling"):
                reference_ct_from_bytes(data)
            with pytest.raises(HEError, match="forward or dangling"):
                ct_from_bytes(data)

    def test_removed_ops_refused(self, triple):
        # Op bytes 2 and 3 were AND and NOT; both decoders refuse them.
        leaf = ct_to_bytes(he_enc(triple.pk, 1, np.random.default_rng(45)))
        for op in (2, 3):
            data = b"\x02" + leaf[1:] + bytes([op, 0, 2, 0, 0, 0])
            for decode in (reference_ct_from_bytes, ct_from_bytes):
                with pytest.raises(HEError, match=f"unknown ciphertext tag {op}"):
                    decode(data)

    def test_levels_the_constructors_refuse_are_refused(self):
        # Each table below decodes by the reference decoder, passes a root
        # level check and fails only at decryption; he_xor and key_switch
        # refuse to build any of them.
        rng = np.random.default_rng(43)
        low, low2, high, high2 = (ct_to_bytes(he_enc(CHAIN[lv].pk, 1, rng))[1:]
                                  for lv in (0, 0, 1, 1))
        for data, message in (
            (b"\x03" + high + low + bytes([XOR, 0, 2, 0, 1, 0]), "misleveled XOR child"),
            (b"\x03" + low2 + low + bytes([XOR, 1, 2, 0, 1, 0]), "misleveled XOR child"),
            (b"\x02" + low + bytes([KEYSWITCH, 1, 1, 0, 0]),  # no key bits
             "misleveled key switch"),
            (b"\x03" + high2 + high + bytes([KEYSWITCH, 1, 1, 1, 1, 0]),  # child at its level
             "misleveled key switch"),
            (b"\x03" + low2 + low + bytes([KEYSWITCH, 1, 1, 1, 1, 0]),  # key bit a level down
             "misleveled key switch"),
        ):
            assert ct_to_bytes(reference_ct_from_bytes(data)) == data
            with pytest.raises(HEError, match=message):
                ct_from_bytes(data)

    def test_non_canonical_order_refused(self, triple):
        # The XOR of two leaves, listed with its leaves swapped and its
        # references swapped to match: the same ciphertext in a second order.
        rng = np.random.default_rng(44)
        a, b = he_enc(triple.pk, 1, rng), he_enc(triple.pk, 0, rng)
        data = ct_to_bytes(he_xor(a, b))
        swapped = b"\x03" + ct_to_bytes(a)[1:] + ct_to_bytes(b)[1:] + bytes([XOR, 0, 2, 0, 0, 1])
        assert len(swapped) == len(data) and swapped != data
        assert ct_to_bytes(reference_ct_from_bytes(swapped)) == data
        assert ct_to_bytes(ct_from_bytes(data)) == data
        with pytest.raises(HEError, match="non-canonical node order"):
            ct_from_bytes(swapped)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_fuzz_never_crashes(self, data):
        try:
            ct_from_bytes(data)
        except HEError:
            pass


class TestDeepChains:
    def test_deep_keyswitch_chain_decrypts_fast(self):
        # Levels stack up during long evaluations; decryption must stay
        # polynomial (memoized traversal) even with heavy subterm sharing.
        rng = np.random.default_rng(20)
        levels = [he_keygen(16, rng, level=i) for i in range(30)]
        ct = he_enc(levels[0].pk, 1, rng)
        for i in range(29):
            sk_enc = encrypt_seed(levels[i + 1].pk, levels[i].sk, rng)
            ct = key_switch(he_xor(ct, he_const(0, ct.level)), sk_enc)
        assert he_dec(levels[29].sk, ct) == 1


# --- the one DAG walker: stored parity, decryption, wire format --------------

_CHAIN_RNG = np.random.default_rng(30)
CHAIN = [he_keygen(16, _CHAIN_RNG, level=i) for i in range(3)]
SK_ENC = [encrypt_seed(CHAIN[i + 1].pk, CHAIN[i].sk, _CHAIN_RNG) for i in range(2)]
_LOW = key_switch(
    he_xor(
        he_enc(CHAIN[0].pk, 1, _CHAIN_RNG),
        he_xor(he_enc(CHAIN[0].pk, 0, _CHAIN_RNG), he_const(1, 0)),
    ),
    SK_ENC[0],
)
KEYSWITCHED_BYTES = ct_to_bytes(key_switch(he_xor(_LOW, _LOW), SK_ENC[1]))

# (op, operand index, operand index, bit); indices wrap around the node list.
DAG_PROGRAMS = st.lists(
    st.tuples(
        st.sampled_from(["LEAF", "CONST", "XOR", "KEYSWITCH"]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=24,
)


def lift(node, level):
    """Key-switch a built node up to ``level``."""
    while node[0].level < level:
        ct, plain, stream = node
        node = (key_switch(ct, SK_ENC[ct.level]), plain, stream)
    return node


def build_dag(program, seed):
    """Build a random DAG; each node is (ct, plaintext, stream parity).

    Returns every node built, the last one being the program's output."""
    rng = np.random.default_rng(seed)
    nodes = []
    for op, i, j, bit in program:
        if op == "LEAF" or not nodes:
            ct = he_enc(CHAIN[0].pk, bit, rng)
            nodes.append((ct, bit, stream_bit(CHAIN[0].pk, ct.nonce)))
            continue
        x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "CONST":
            nodes.append((he_const(bit, x[0].level), bit, 0))
        elif op == "KEYSWITCH":
            nodes.append(lift(x, min(x[0].level + 1, len(CHAIN) - 1)))
        else:
            level = max(x[0].level, y[0].level)
            x, y = lift(x, level), lift(y, level)
            nodes.append((he_xor(x[0], y[0]), x[1] ^ y[1], x[2] ^ y[2]))
    return nodes


class TestDagWalker:
    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, st.integers(0, 2**32 - 1))
    def test_stored_parity_matches_plaintext_and_keystream(self, program, seed):
        for ct, plain, stream in build_dag(program, seed):
            for node in (ct, ct_from_bytes(ct_to_bytes(ct))):
                assert he_dec(CHAIN[node.level].sk, node) == plain
                assert public_masked_parity(node) == plain ^ stream

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, len(KEYSWITCHED_BYTES) - 1), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        )
    )
    def test_mutated_keyswitched_bytes_raise_only_heerror(self, edits):
        data = bytearray(KEYSWITCHED_BYTES)
        for pos, value in edits:
            data[pos] = value
        try:
            ct = ct_from_bytes(bytes(data))
        except HEError:
            return
        sk = CHAIN[min(ct.level, len(CHAIN) - 1)].sk
        clean = ct_from_bytes(KEYSWITCHED_BYTES)
        reads = (
            lambda: [he_dec(sk, ct)],
            lambda: [public_masked_parity(ct)],
            lambda: _dec(sk, ct, clean),
            lambda: _dec(sk, clean, ct),
        )
        for read in reads:
            try:
                assert set(read()) <= {0, 1}
            except HEError:
                pass

    def test_non_leaf_key_bit_rejected(self):
        rng = np.random.default_rng(32)
        bad = list(SK_ENC[0])
        bad[0] = he_xor(bad[0], he_const(1, bad[0].level))
        ct = key_switch(he_enc(CHAIN[0].pk, 1, rng), bad)
        with pytest.raises(HEError, match="not a leaf"):
            he_dec(CHAIN[1].sk, ct)

    def test_golden_linear_keyswitched_encoding(self):
        # Pins the wire format on linear ops only: a fixed seeded DAG with a
        # shared leaf, two constants, a shared key-switched subgraph and two
        # key switches must encode to the same bytes.
        rng = np.random.default_rng(2024)
        levels = [he_keygen(16, rng, level=i) for i in range(3)]
        a = he_enc(levels[0].pk, 1, rng)
        b = he_enc(levels[0].pk, 0, rng)
        low = he_xor(he_xor(a, b), he_xor(a, he_const(1, 0)))
        sk_enc = encrypt_seed(levels[1].pk, levels[0].sk, rng)
        mid = key_switch(he_xor(low, he_const(1, 0)), sk_enc)
        c = he_enc(levels[1].pk, 1, rng)
        sk_enc = encrypt_seed(levels[2].pk, levels[1].sk, rng)
        top = key_switch(he_xor(mid, he_xor(c, mid)), sk_enc)
        data = ct_to_bytes(top)
        assert len(data) == 1030
        assert hashlib.sha256(data).hexdigest() == (
            "55eb62fa4ddd400f7c7fcc2c5708141dfa06d27811e95ad175623328ddced4a7"
        )
        assert he_dec(levels[2].sk, top) == 1

    def test_deep_chain_hashes_and_compares_by_identity(self):
        # Value equality would recurse through all 3000 XOR nodes.
        ct, one = he_enc(CHAIN[0].pk, 1, np.random.default_rng(33)), he_const(1, 0)
        for _ in range(3000):
            ct = he_xor(ct, one)
        back = ct_from_bytes(ct_to_bytes(ct))
        assert hash(ct) == hash(ct) and ct == ct
        assert back != ct
        assert he_dec(CHAIN[0].sk, back) == he_dec(CHAIN[0].sk, ct) == 1

    def test_nodes_are_immutable_and_compare_by_identity(self):
        rng = np.random.default_rng(36)
        leaf = he_enc(CHAIN[0].pk, 1, rng)
        fields = ("op", "level", "nonce", "masked", "tag", "children", "const_value",
                  "sk_enc", "masked_parity")
        for node in (leaf, he_xor(leaf, leaf), key_switch(leaf, SK_ENC[0])):
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(node, name, getattr(node, name))
                with pytest.raises(AttributeError):
                    delattr(node, name)
            twin = HECiphertext(node.op, node.level, node.nonce, node.masked, node.tag,
                                node.children, node.const_value, node.sk_enc)
            for other in (twin, copy.copy(node), pickle.loads(pickle.dumps(node))):
                assert [getattr(other, name) for name in fields[:2] + fields[-1:]] == [
                    getattr(node, name) for name in fields[:2] + fields[-1:]
                ]
                assert ct_to_bytes(other) == ct_to_bytes(node)
            assert twin is not node and twin != node and not twin == node
            assert len({node, twin}) == 2 and node in {node} and twin not in {node}


def reference_topological(ct):
    """The single-root walk ``ct_to_bytes`` has always encoded in: a node's
    unseen dependencies are recomputed each time it is back on top."""
    order, seen, stack = [], set(), [ct]
    while stack:
        node = stack[-1]
        if id(node) in seen:
            stack.pop()
            continue
        deps = [c for c in (*node.children, *node.sk_enc) if id(c) not in seen]
        if deps:
            stack.extend(deps)
            continue
        seen.add(id(node))
        order.append(node)
        stack.pop()
    return order


class TestOnePassDecrypt:
    """``_dec`` decrypts many roots over one walk and one key chain."""

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, st.integers(0, 2**32 - 1), st.data())
    def test_many_roots_equal_one_root_at_a_time(self, program, seed, data):
        nodes = build_dag(program, seed)
        picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=6))
        level = max(nodes[i][0].level for i in picks)
        roots = [lift(nodes[i], level)[0] for i in picks]
        plains = [nodes[i][1] for i in picks]
        sk = CHAIN[level].sk
        for cts in (roots, [ct_from_bytes(ct_to_bytes(r)) for r in roots]):
            assert _dec(sk, *cts) == [he_dec(sk, r) for r in cts] == plains

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, st.integers(0, 2**32 - 1))
    def test_one_root_walk_is_the_encoded_order(self, program, seed):
        nodes = build_dag(program, seed)
        for ct in (nodes[-1][0], ct_from_bytes(ct_to_bytes(nodes[-1][0]))):
            assert list(map(id, _topological(ct))) == list(map(id, reference_topological(ct)))
        # Many roots: every node of the union once, each after its dependencies.
        roots = [node[0] for node in nodes]
        order = _topological(*roots)
        place = {id(node): i for i, node in enumerate(order)}
        union = {id(n) for r in roots for n in reference_topological(r)}
        assert len(place) == len(order) and place.keys() == union
        for node in order:
            for dep in (*node.children, *node.sk_enc):
                assert place[id(dep)] < place[id(node)]

    def test_key_switches_with_different_seeds_are_refused(self):
        # Two switches out of level 0 that carry different seeds: no root
        # order may decide which one holds.
        rng = np.random.default_rng(34)
        other = he_keygen(16, rng, level=0)
        good = key_switch(he_enc(CHAIN[0].pk, 1, rng), SK_ENC[0])
        forged = key_switch(
            he_enc(other.pk, 0, rng), encrypt_seed(CHAIN[1].pk, other.sk, rng)
        )
        assert he_dec(CHAIN[1].sk, good) == 1 and he_dec(CHAIN[1].sk, forged) == 0
        for reads in ((good, forged), (forged, good), (he_xor(good, forged),)):
            with pytest.raises(HEError, match="different seeds"):
                _dec(CHAIN[1].sk, *reads)

    def test_roots_at_another_level_are_refused(self):
        rng = np.random.default_rng(35)
        low, high = he_enc(CHAIN[0].pk, 1, rng), he_enc(CHAIN[1].pk, 1, rng)
        with pytest.raises(HEError, match="does not match"):
            _dec(CHAIN[1].sk, high, low)


# --- the wire codec against its first, plain implementation ------------------


def reference_varint(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        out.append(b | (0x80 if n else 0))
        if not n:
            return bytes(out)


def reference_read_varint(data, pos):
    n = shift = 0
    while True:
        if pos >= len(data):
            raise HEError("truncated varint")
        b = data[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        shift += 7
        if not b & 0x80:
            return n, pos


def reference_ct_to_bytes(ct):
    """The encoder as first written: one bytearray, a varint per value."""
    order = reference_topological(ct)
    index = {id(node): i for i, node in enumerate(order)}
    out = bytearray(reference_varint(len(order)))
    for node in order:
        out.append(node.op)
        out += reference_varint(node.level)
        if node.op == LEAF:
            out += node.nonce + bytes([node.masked]) + node.tag
        elif node.op == CONST:
            out.append(node.const_value)
        else:
            out += reference_varint(len(node.children))
            out += reference_varint(len(node.sk_enc))
            for c in (*node.children, *node.sk_enc):
                out += reference_varint(index[id(c)])
    return bytes(out)


REFERENCE_ARITY = {XOR: 2, KEYSWITCH: 1}


def reference_ct_from_bytes(data):
    """The decoder as first written. It accepts overlong varints, nodes that
    nothing references, tables in another order than ``_topological``'s and
    nodes at levels the constructors refuse, all of which ``ct_from_bytes``
    refuses."""
    count, pos = reference_read_varint(data, 0)
    if count == 0:
        raise HEError("empty ciphertext encoding")
    nodes = []
    for _ in range(count):
        if pos >= len(data):
            raise HEError("truncated ciphertext")
        op = data[pos]
        pos += 1
        level, pos = reference_read_varint(data, pos)
        if op == LEAF:
            end = pos + NONCE_BYTES + 1 + TAG_BYTES
            if end > len(data):
                raise HEError("truncated leaf")
            nonce = data[pos : pos + NONCE_BYTES]
            masked = data[pos + NONCE_BYTES]
            tag = data[pos + NONCE_BYTES + 1 : end]
            if masked not in (0, 1):
                raise HEError("bad masked bit")
            nodes.append(HECiphertext(LEAF, level, nonce=nonce, masked=masked, tag=tag))
            pos = end
        elif op == CONST:
            if pos >= len(data):
                raise HEError("truncated const")
            v = data[pos]
            if v not in (0, 1):
                raise HEError("bad const bit")
            nodes.append(HECiphertext(CONST, level, const_value=v))
            pos += 1
        elif op in REFERENCE_ARITY:
            n_children, pos = reference_read_varint(data, pos)
            n_aux, pos = reference_read_varint(data, pos)
            if n_children != REFERENCE_ARITY[op] or (n_aux and op != KEYSWITCH):
                raise HEError("bad child arity")
            refs = []
            for _ in range(n_children + n_aux):
                ref, pos = reference_read_varint(data, pos)
                if ref >= len(nodes):
                    raise HEError("forward or dangling child reference")
                refs.append(nodes[ref])
            nodes.append(
                HECiphertext(
                    op,
                    level,
                    children=tuple(refs[:n_children]),
                    sk_enc=tuple(refs[n_children:]),
                )
            )
        else:
            raise HEError(f"unknown ciphertext tag {op}")
    if pos != len(data):
        raise HEError("trailing bytes after ciphertext")
    return nodes[-1]


# Key chains whose levels straddle the one- and two-byte varint limits.
_CODEC_RNG = np.random.default_rng(37)
CODEC_CHAINS = {}
for _base in (0, 126, 16382):
    _keys = [he_keygen(16, _CODEC_RNG, level=_base + i) for i in range(3)]
    CODEC_CHAINS[_base] = (
        _keys,
        {_base + i: encrypt_seed(_keys[i + 1].pk, _keys[i].sk, _CODEC_RNG) for i in range(2)},
    )

# Refusals of non-canonical encodings and of levels the constructors refuse,
# which the reference decoder lacks.
CANONICAL_REFUSALS = ("overlong varint", "unreferenced node", "non-canonical node order",
                      "misleveled")


def build_codec_dag(program, base, seed):
    """A random DAG over ``CODEC_CHAINS[base]``; returns its last node.

    Leaves are drawn at any of the chain's three levels, and an operand is
    key-switched up to the other's level, so nodes of three levels mix."""
    keys, sk_enc = CODEC_CHAINS[base]
    rng = np.random.default_rng(seed)
    top = base + len(keys) - 1

    def lift(ct, level):
        while ct.level < level:
            ct = key_switch(ct, sk_enc[ct.level])
        return ct

    nodes = []
    for op, i, j, bit in program:
        if op == "LEAF" or not nodes:
            nodes.append(he_enc(keys[j % len(keys)].pk, bit, rng))
            continue
        x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "CONST":
            nodes.append(he_const(bit, x.level))
        elif op == "KEYSWITCH":
            nodes.append(lift(x, min(x.level + 1, top)))
        else:
            level = max(x.level, y.level)
            nodes.append(he_xor(lift(x, level), lift(y, level)))
    return nodes[-1]


def decoded(decode, data):
    """The node ``decode`` makes of ``data``, or the HEError it raises."""
    try:
        return decode(data)
    except HEError as exc:
        return exc


CODEC_BASES = st.sampled_from(sorted(CODEC_CHAINS))
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


class TestCodecOracle:
    """``ct_to_bytes`` and ``ct_from_bytes`` against the reference codec."""

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, CODEC_BASES, st.integers(0, 2**32 - 1))
    def test_bytes_equal_the_reference_and_round_trip(self, program, base, seed):
        ct = build_codec_dag(program, base, seed)
        data = ct_to_bytes(ct)
        assert data == reference_ct_to_bytes(ct)
        back = ct_from_bytes(data)
        assert ct_to_bytes(back) == reference_ct_to_bytes(back) == data
        assert ct_to_bytes(reference_ct_from_bytes(data)) == data
        assert (back.level, back.masked_parity) == (ct.level, ct.masked_parity)

    @settings(max_examples=300, deadline=None)
    @given(DAG_PROGRAMS, CODEC_BASES, st.integers(0, 2**32 - 1), BYTE_EDITS)
    def test_edited_bytes_decode_as_the_reference_does(self, program, base, seed, edits):
        data = bytearray(ct_to_bytes(build_codec_dag(program, base, seed)))
        for kind, pos, value in edits:
            pos %= len(data) + 1
            if kind == "insert":
                data.insert(pos, value)
            elif pos < len(data):
                if kind == "set":
                    data[pos] = value
                else:
                    del data[pos]
        data = bytes(data)
        want = decoded(reference_ct_from_bytes, data)
        got = decoded(ct_from_bytes, data)
        if isinstance(got, HEError) and str(got).startswith(CANONICAL_REFUSALS):
            return  # the reference may accept it, or refuse it at a later byte
        if isinstance(want, HEError):
            assert isinstance(got, HEError) and str(got) == str(want)
        else:
            assert not isinstance(got, HEError), got
            assert ct_to_bytes(got) == ct_to_bytes(want) == reference_ct_to_bytes(got)

    def test_two_byte_counts(self):
        # A 1024-bit key seed gives a key switch 1024 encrypted key bits, a
        # count that takes two varint bytes.
        rng = np.random.default_rng(42)
        low, high = he_keygen(1024, rng, level=0), he_keygen(1024, rng, level=1)
        ct = key_switch(he_enc(low.pk, 1, rng), encrypt_seed(high.pk, low.sk, rng))
        data = ct_to_bytes(ct)
        assert bytes([KEYSWITCH, 1, 1]) + reference_varint(1024) in data
        assert data == reference_ct_to_bytes(ct)
        assert ct_to_bytes(ct_from_bytes(data)) == data
        assert he_dec(high.sk, ct_from_bytes(data)) == 1

    def test_three_byte_references(self):
        # More than 16 384 nodes: the count and the last references take
        # three varint bytes. Every XOR shares one constant, listed first.
        ct, one = he_enc(CHAIN[0].pk, 1, np.random.default_rng(38)), he_const(1, 0)
        for _ in range(16400):
            ct = he_xor(ct, one)
        data = ct_to_bytes(ct)
        assert data.startswith(reference_varint(16402) + bytes([CONST, 0, 1, LEAF]))
        assert data.endswith(bytes([XOR, 0, 2, 0]) + reference_varint(16400) + bytes([0]))
        assert len(reference_varint(16400)) == 3
        assert data == reference_ct_to_bytes(ct)
        back = ct_from_bytes(data)
        assert ct_to_bytes(back) == data
        assert he_dec(CHAIN[0].sk, back) == 1
