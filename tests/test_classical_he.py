"""Modeled bit-level homomorphic encryption: correctness, levels, wire format."""
import copy
import functools
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhevqa.classical_he import (
    LEAF,
    LEAF_BYTES,
    NONCE_BYTES,
    SUM,
    TAG_BYTES,
    HECiphertext,
    HEError,
    HEPublicKey,
    LeafIndex,
    _dec,
    ct_from_bytes,
    ct_to_bytes,
    encrypt_seed,
    he_const,
    he_dec,
    he_enc,
    he_enc_bits,
    he_keygen,
    he_keygen_chain,
    he_xor,
    key_switch,
    leaves_from_bytes,
    leaves_to_bytes,
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
                assert he_dec([triple.sk], ct) == bit

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
            he_dec([other.sk], ct)

    def test_keystream_bit_pinning(self, triple):
        rng = np.random.default_rng(4)
        for want in (0, 1):
            (ct,) = he_enc_bits(triple.pk, [1], rng, [want])
            assert stream_bit(triple.pk, ct.nonce) == want
            assert he_dec([triple.sk], ct) == 1

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
        assert _dec([triple.sk], *cts) == bits
        for i, ct in enumerate(cts):
            stream, tag = seal(triple.pk, ct.nonce)
            assert (ct.op, ct.level, len(ct.nonce)) == (LEAF, triple.pk.level, NONCE_BYTES)
            assert (ct.masked, ct.tag) == (bits[i] ^ stream, tag)
            assert ct == HECiphertext(LEAF, ct.level, ct.nonce, ct.masked, ct.tag)
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
        assert _dec([triple.sk], *cts) == [0, 1, 1, 0]

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
                assert he_dec([triple.sk], he_xor(cx, cy)) == x ^ y
                assert he_dec([triple.sk], he_xor(cx, he_const(y, triple.pk.level))) == x ^ y
                assert he_dec([triple.sk], he_xor(cx, cx)) == 0

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
            assert he_dec([triple.sk], nodes[-1]) == vals[-1]

    def test_mixed_levels_rejected(self, triple):
        rng = np.random.default_rng(9)
        upper = he_keygen(16, rng, level=1)
        a = he_enc(triple.pk, 0, rng)
        b = he_enc(upper.pk, 1, rng)
        with pytest.raises(HEError):
            he_xor(a, b)


def per_level_encrypt_seed(pk, sk_lower, rng):
    """The per-level form ``encrypt_seed`` replaced: one level's seed bits
    through one unpinned ``he_enc_bits`` call."""
    if pk.level != sk_lower.level + 1:
        raise HEError("seed must be encrypted under the next level's public key")
    return he_enc_bits(pk, [(byte >> j) & 1 for byte in sk_lower.seed for j in range(8)], rng)


def per_level_seeds(security, levels, rng):
    """The per-level form ``he_keygen_chain`` replaced: one ``rng.bytes`` per key."""
    return [rng.bytes(max(2, security // 8)) for _ in range(levels)]


class TestKeyChain:
    @pytest.mark.parametrize("levels", [1, 2, 33])
    @pytest.mark.parametrize("security", range(16, 72, 8))
    def test_chain_seeds_equal_the_per_level_form(self, security, levels):
        # Seeds of 2 to 8 bytes from one draw equal one draw per level, and
        # leave the generator where those would, with half a 64-bit output
        # buffered before.
        rng = np.random.default_rng(security * levels)
        rng.integers(0, 2**32, dtype=np.uint32)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        got = he_keygen_chain(security, range(levels), rng)
        seeds = per_level_seeds(security, levels, twin)
        assert [(t.sk.level, t.sk.seed) for t in got] == list(enumerate(seeds))
        assert [len(seed) for seed in seeds] == [security // 8] * levels
        assert all(t.pk == HEPublicKey(t.sk.level, t.sk.stream_seed) for t in got)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_chain_refuses_a_weak_security_parameter(self):
        with pytest.raises(HEError, match="below minimum"):
            he_keygen_chain(8, range(3), np.random.default_rng(0))


class TestKeySwitch:
    def test_switch_chain(self):
        rng = np.random.default_rng(10)
        levels = [he_keygen(16, rng, level=i) for i in range(4)]
        ct = he_enc(levels[0].pk, 1, rng)
        for i in range(3):
            (sk_enc,) = encrypt_seed(levels[i : i + 2], rng)
            (ct,) = key_switch(sk_enc, ct)
            assert ct.level == i + 1
            assert he_dec([level.sk for level in levels[: i + 2]], ct) == 1

    def test_switch_requires_adjacent_level(self):
        rng = np.random.default_rng(11)
        l0 = he_keygen(16, rng, level=0)
        l2 = he_keygen(16, rng, level=2)
        with pytest.raises(HEError):
            encrypt_seed((l0, l2), rng)
        l1 = he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        ct = he_enc(l1.pk, 0, rng)
        with pytest.raises(HEError):
            key_switch(sk_enc, ct)

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
        (got,) = encrypt_seed((l0, l1), rng)
        bits = [(byte >> j) & 1 for byte in l0.sk.seed for j in range(8)]
        want = [he_enc(l1.pk, bit, twin) for bit in bits]
        assert len(got) == len(want) == 16
        assert [ct_to_bytes(ct) for ct in got] == [ct_to_bytes(ct) for ct in want]
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("levels", [1, 2, 6])
    @pytest.mark.parametrize("security", [16, 24])
    def test_chain_seeds_equal_the_per_level_form(self, security, levels):
        # One draw for the whole chain gives the bytes of one unpinned
        # he_enc_bits call per level, and leaves the generator where they
        # would, half a 64-bit output buffered before included. A one-level
        # chain draws nothing.
        rng = np.random.default_rng(security + levels)
        chain = [he_keygen(security, rng, level=i) for i in range(levels)]
        rng.integers(0, 2**32, dtype=np.uint32)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        got = encrypt_seed(chain, rng)
        want = [per_level_encrypt_seed(chain[i + 1].pk, chain[i].sk, twin)
                for i in range(levels - 1)]
        assert [len(cts) for cts in got] == [security] * (levels - 1)
        assert [list(map(ct_to_bytes, cts)) for cts in got] == [
            list(map(ct_to_bytes, cts)) for cts in want]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_key_switch_checks_sk_enc_once_for_all_its_ciphertexts(self):
        rng = np.random.default_rng(18)
        l0, l1 = he_keygen(16, rng, level=0), he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        low = he_enc_bits(l0.pk, [0, 1, 1], rng)
        ups = key_switch(sk_enc, *low)
        assert [up.level for up in ups] == [1, 1, 1]
        assert [he_dec([l0.sk, l1.sk], up) for up in ups] == [0, 1, 1]
        assert key_switch(sk_enc) == ()
        with pytest.raises(HEError, match="target level"):
            key_switch(sk_enc, low[0], he_enc(l1.pk, 0, rng))
        with pytest.raises(HEError, match="not a leaf at level 1"):
            key_switch((*sk_enc[:-1], he_enc(l0.pk, 0, rng)))

    def test_homomorphics_after_switch(self):
        rng = np.random.default_rng(12)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        for x in (0, 1):
            for y in (0, 1):
                (cx,) = key_switch(sk_enc, he_enc(l0.pk, x, rng))
                cy = he_enc(l1.pk, y, rng)
                assert he_dec([l0.sk, l1.sk], he_xor(cx, cy)) == x ^ y


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


# --- random evaluation DAGs over key chains ----------------------------------

# Key chains whose levels straddle the one- and two-byte varint limits, each
# with its encrypted seeds by the level they lift from.
_CHAIN_RNG = np.random.default_rng(30)
CHAINS = {}
for _base in (0, 126, 16382):
    _keys = [he_keygen(16, _CHAIN_RNG, level=_base + i) for i in range(3)]
    CHAINS[_base] = (
        _keys,
        dict(enumerate(encrypt_seed(_keys, _CHAIN_RNG), _base)),
    )
CHAIN, SK_ENC = CHAINS[0]
SKS = [keys.sk for keys in CHAIN]  # level l's secret key at index l
CHAIN_BASES = st.sampled_from(sorted(CHAINS))
(_LOW,) = key_switch(
    SK_ENC[0],
    he_xor(
        he_enc(CHAIN[0].pk, 1, _CHAIN_RNG),
        he_xor(he_enc(CHAIN[0].pk, 0, _CHAIN_RNG), he_const(1, 0)),
    ),
)
KEYSWITCHED_BYTES = ct_to_bytes(key_switch(SK_ENC[1],
                                           he_xor(_LOW, he_enc(CHAIN[1].pk, 1, _CHAIN_RNG)))[0])

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
SEEDS = st.integers(0, 2**32 - 1)
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0), st.integers(0, 255)),
    min_size=1,
    max_size=4,
)


def leaves(ct):
    """The leaves of odd multiplicity below ``ct``."""
    return ct.children if ct.op == SUM else frozenset((ct,))


def lift(node, level, base=0):
    """Key-switch a built node up to ``level``."""
    sk_enc = CHAINS[base][1]
    while node[0].level < level:
        ct, plain, stream = node
        node = (key_switch(sk_enc[ct.level], ct)[0], plain, stream)
    return node


def build_dag(program, seed, base=0):
    """Build a random evaluation DAG over ``CHAINS[base]``; each node is
    (ct, plaintext, stream parity). Leaves are drawn at any of the chain's
    three levels, and an operand is key-switched up to the other's level.

    Returns every node built, the last one being the program's output."""
    keys = CHAINS[base][0]
    rng = np.random.default_rng(seed)
    nodes = []
    for op, i, j, bit in program:
        if op == "LEAF" or not nodes:
            pk = keys[j % len(keys)].pk
            ct = he_enc(pk, bit, rng)
            nodes.append((ct, bit, stream_bit(pk, ct.nonce)))
            continue
        x, y = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "CONST":
            nodes.append((he_const(bit, x[0].level), bit, 0))
        elif op == "KEYSWITCH":
            nodes.append(lift(x, min(x[0].level + 1, keys[-1].pk.level), base))
        else:
            level = max(x[0].level, y[0].level)
            x, y = lift(x, level, base), lift(y, level, base)
            nodes.append((he_xor(x[0], y[0]), x[1] ^ y[1], x[2] ^ y[2]))
    return nodes


class TestWireFormat:
    def test_round_trip(self, triple):
        rng = np.random.default_rng(16)
        a = he_enc(triple.pk, 1, rng)
        b = he_enc(triple.pk, 0, rng)
        ct = he_xor(he_xor(a, b), he_xor(a, he_const(1, triple.pk.level)))
        back = ct_from_bytes(ct_to_bytes(ct))
        assert he_dec([triple.sk], back) == he_dec([triple.sk], ct)
        assert ct_to_bytes(back) == ct_to_bytes(ct)

    def test_keyswitch_round_trip(self):
        rng = np.random.default_rng(17)
        l0 = he_keygen(16, rng, level=0)
        l1 = he_keygen(16, rng, level=1)
        (sk_enc,) = encrypt_seed((l0, l1), rng)
        (ct,) = key_switch(sk_enc, he_enc(l0.pk, 1, rng))
        back = ct_from_bytes(ct_to_bytes(ct))
        assert he_dec([l0.sk, l1.sk], back) == 1

    def test_shared_dag_encoding_is_linear(self, triple):
        # A balanced XOR tower over one shared leaf would be exponential as a
        # tree; in normal form it is the constant 0, one small node.
        rng = np.random.default_rng(18)
        ct = he_enc(triple.pk, 1, rng)
        for _ in range(40):
            ct = he_xor(ct, ct)
        data = ct_to_bytes(ct)
        assert data == bytes([SUM, 0, 0, 0])
        assert he_dec([triple.sk], ct_from_bytes(data)) == 0

    def test_truncation_rejected(self, triple):
        rng = np.random.default_rng(19)
        data = ct_to_bytes(he_enc(triple.pk, 1, rng))
        for cut in (0, 1, len(data) // 2, len(data) - 1):
            with pytest.raises(HEError):
                ct_from_bytes(data[:cut])

    def test_overlong_varints_refused(self, triple):
        # A level of 80 00, a leaf count of 81 00 or a sum leaf's level of
        # 80 00 spells the value of one byte in two: a second encoding.
        rng = np.random.default_rng(39)
        leaf = ct_to_bytes(he_enc(triple.pk, 1, rng))
        flipped = ct_to_bytes(he_xor(he_enc(triple.pk, 1, rng), he_const(1, 0)))
        assert leaf[:2] == bytes([LEAF, 0]) and flipped[:5] == bytes([SUM, 0, 1, 1, 0])
        for data in (
            leaf[:1] + b"\x80\x00" + leaf[2:],
            flipped[:3] + b"\x81\x00" + flipped[4:],
            flipped[:4] + b"\x80\x00" + flipped[5:],
        ):
            with pytest.raises(HEError, match="overlong varint"):
                ct_from_bytes(data)

    def test_unreferenced_nodes_refused(self, triple):
        # An encoding holds one node: a node after it, or a sum leaf past its
        # count, pads the encoding without changing the ciphertext.
        rng = np.random.default_rng(40)
        a, b = (ct_to_bytes(he_enc(triple.pk, bit, rng)) for bit in (0, 1))
        flipped = ct_to_bytes(he_xor(he_enc(triple.pk, 1, rng), he_const(1, 0)))
        for data in (a + b, flipped + b, flipped + b[1:]):
            with pytest.raises(HEError, match="trailing bytes"):
                ct_from_bytes(data)

    def test_removed_ops_refused(self, triple):
        # Op bytes 2 to 5 were AND, NOT, CONST and KEYSWITCH.
        leaf = ct_to_bytes(he_enc(triple.pk, 1, np.random.default_rng(45)))
        for op in (2, 3, 4, 5):
            with pytest.raises(HEError, match=f"unknown ciphertext tag {op}"):
                ct_from_bytes(bytes([op]) + leaf[1:])

    def test_levels_the_constructors_refuse_are_refused(self):
        # he_xor refuses mixed levels and key_switch a switch to any but the
        # next level, so a sum's leaves sit at or below it: a level-1 sum over
        # leaves at levels 0 and 1, relabelled level 0, is refused.
        rng = np.random.default_rng(43)
        low, high = he_enc(CHAIN[0].pk, 1, rng), he_enc(CHAIN[1].pk, 1, rng)
        with pytest.raises(HEError, match="mixed ciphertext levels"):
            he_xor(low, high)
        with pytest.raises(HEError, match="target level"):
            key_switch(SK_ENC[0], high)
        data = ct_to_bytes(he_xor(key_switch(SK_ENC[0], low)[0], high))
        assert data[:4] == bytes([SUM, 1, 0, 2]) and ct_from_bytes(data).level == 1
        with pytest.raises(HEError, match="above its ciphertext's level"):
            ct_from_bytes(data[:1] + b"\x00" + data[2:])

    def test_non_canonical_order_refused(self, triple):
        # The XOR of two leaves with its leaves swapped or one leaf twice, and
        # a leaf as a one-leaf sum at its own level: the same ciphertext, or
        # none, in a second encoding.
        rng = np.random.default_rng(44)
        a, b = he_enc(triple.pk, 1, rng), he_enc(triple.pk, 0, rng)
        data = ct_to_bytes(he_xor(a, b))
        head, first, second = data[:4], data[4:30], data[30:]
        assert head == bytes([SUM, 0, 0, 2]) and len(second) == 26
        assert ct_to_bytes(ct_from_bytes(data)) == data
        for spoiled in (head + second + first, head + first + first):
            with pytest.raises(HEError, match="out of order or repeated"):
                ct_from_bytes(spoiled)
        with pytest.raises(HEError, match="one leaf at its own level"):
            ct_from_bytes(bytes([SUM, 0, 0, 1]) + ct_to_bytes(a)[1:])

    def test_two_byte_counts(self):
        # A sum of 200 leaves: its leaf count takes two varint bytes.
        rng = np.random.default_rng(42)
        bits = rng.integers(2, size=200).tolist()
        ct = functools.reduce(he_xor, he_enc_bits(CHAIN[0].pk, bits, rng))
        data = ct_to_bytes(ct)
        assert data[:5] == bytes([SUM, 0, 0, 200 & 0x7F | 0x80, 200 >> 7])
        assert len(data) == 5 + 200 * (1 + NONCE_BYTES + 1 + TAG_BYTES)
        assert ct_from_bytes(data) == ct
        assert he_dec(SKS[:1], ct_from_bytes(data)) == sum(bits) % 2

    def test_three_byte_levels(self):
        # A level-16384 sum over leaves at levels 16382 to 16384: two- and
        # three-byte level varints, on the sum and on its leaves.
        keys, sk_enc = CHAINS[16382]
        rng = np.random.default_rng(38)
        ct = he_enc(keys[0].pk, 1, rng)
        for i in (1, 2):
            ct = he_xor(key_switch(sk_enc[ct.level], ct)[0], he_enc(keys[i].pk, 1, rng))
        data = ct_to_bytes(ct)
        assert data[:4] == bytes([SUM, 0x80, 0x80, 0x01])
        assert sorted(leaf.level for leaf in ct.children) == [16382, 16383, 16384]
        back = ct_from_bytes(data)
        assert back == ct and ct_to_bytes(back) == data

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_fuzz_never_crashes(self, data):
        try:
            ct_from_bytes(data)
        except HEError:
            pass


class TestLeafTable:
    """Fresh encryptions at one level as fixed-width records: nonce, masked
    bit and tag, with the level left to the reader."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=30), st.integers(0, 5), st.integers(0, 99))
    def test_round_trip(self, bits, level, seed):
        rng = np.random.default_rng(seed)
        triple = he_keygen(16, rng, level=level)
        leaves = he_enc_bits(triple.pk, bits, rng)
        table = leaves_to_bytes(leaves, level)
        assert len(table) == LEAF_BYTES * len(bits)
        back = leaves_from_bytes(table, level)
        assert back == leaves and type(back) is tuple
        # Each record is the leaf's encoding without its op byte and level
        # (one varint byte below 128).
        assert table == b"".join(ct_to_bytes(leaf)[2:] for leaf in leaves)

    @pytest.mark.parametrize("spoil", ["sum", "constant", "other-level"])
    def test_only_leaves_at_the_level_are_encoded(self, triple, spoil):
        rng = np.random.default_rng(21)
        a, b = he_enc_bits(triple.pk, [0, 1], rng)
        ct = {"sum": he_xor(a, b), "constant": he_const(1, 0),
              "other-level": he_enc(he_keygen(16, rng, level=1).pk, 1, rng)}[spoil]
        with pytest.raises(HEError):
            leaves_to_bytes([a, ct, b], 0)

    def test_truncated_and_bad_tables_are_refused(self, triple):
        rng = np.random.default_rng(22)
        table = leaves_to_bytes(he_enc_bits(triple.pk, [1, 0, 1], rng), 0)
        for cut in (1, LEAF_BYTES - 1, LEAF_BYTES + 1, len(table) - 1):
            with pytest.raises(HEError, match="truncated"):
                leaves_from_bytes(table[:cut], 0)
        bad = bytearray(table)
        bad[LEAF_BYTES + NONCE_BYTES] = 2  # the second leaf's masked bit
        with pytest.raises(HEError, match="masked"):
            leaves_from_bytes(bytes(bad), 0)
        assert leaves_from_bytes(b"", 0) == ()


class TestLeafIndex:
    def test_pack_and_unpack(self):
        # Bit 0 is the masked parity, bit 1 the constant, bit 2 + i leaf i
        # in first-packed order; a leaf is keyed by value, not identity.
        rng = np.random.default_rng(23)
        a, b = he_enc_bits(CHAIN[0].pk, [1, 0], rng)
        index = LeafIndex()
        assert index.pack(a, 0) == 4 | a.masked
        assert index.pack(copy.copy(b), 0) == 8 | b.masked
        assert index.pack(b, 0) == 8 | b.masked
        total = he_xor(he_xor(a, b), he_const(1, 0))
        assert index.pack(total, 0) == 12 | 2 | total.masked_parity
        assert index.pack(he_const(1, 0), 0) == 3 and index.pack(he_const(0, 0), 0) == 0
        for ct in (a, total, he_const(1, 0), he_const(0, 0)):
            assert index.unpack(0, index.pack(ct, 0)) == ct
        assert index.unpack(0, index.pack(a, 0)) is a

    def test_a_lone_leaf_below_the_level_stays_a_sum(self):
        rng = np.random.default_rng(24)
        leaf = he_enc(CHAIN[0].pk, 1, rng)
        (up,) = key_switch(SK_ENC[0], leaf)
        index = LeafIndex()
        assert index.pack(up, 1) == index.pack(leaf, 0)
        back = index.unpack(1, index.pack(up, 1))
        assert back == up and back.op == SUM and ct_to_bytes(back) == ct_to_bytes(up)

    def test_a_ciphertext_at_another_level_is_refused(self):
        rng = np.random.default_rng(25)
        index = LeafIndex()
        with pytest.raises(HEError, match="level 1 packed at level 0"):
            index.pack(he_enc(CHAIN[1].pk, 0, rng), 0)
        assert index.leaves == [] and index.bits == {}

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, CHAIN_BASES, SEEDS, st.data())
    def test_packed_xor_and_key_switch_equal_the_node_ops(self, program, base, seed, data):
        # Over one index, unpacking a packed XOR gives he_xor's node and
        # bytes, and a key switch leaves the packing as it was.
        nodes = build_dag(program, seed, base)
        index = LeafIndex()
        for ct, _, _ in nodes:
            packed = index.pack(ct, ct.level)
            assert packed & 1 == public_masked_parity(ct)
            assert index.unpack(ct.level, packed) == ct
            if ct.level < base + 2:
                (up,) = key_switch(CHAINS[base][1][ct.level], ct)
                assert index.pack(up, ct.level + 1) == packed
        x, y = (nodes[i] for i in data.draw(st.lists(st.integers(0, len(nodes) - 1),
                                                      min_size=2, max_size=2)))
        level = max(x[0].level, y[0].level)
        x, y = lift(x, level, base)[0], lift(y, level, base)[0]
        got = index.unpack(level, index.pack(x, level) ^ index.pack(y, level))
        assert got == he_xor(x, y) and ct_to_bytes(got) == ct_to_bytes(he_xor(x, y))


class TestDeepChains:
    def test_deep_keyswitch_chain_decrypts_fast(self):
        # Levels stack up during long evaluations; a switch only lifts the
        # level, so decryption unseals the one leaf under level 0's key.
        rng = np.random.default_rng(20)
        levels = [he_keygen(16, rng, level=i) for i in range(30)]
        ct = he_enc(levels[0].pk, 1, rng)
        for i in range(29):
            (sk_enc,) = encrypt_seed(levels[i : i + 2], rng)
            (ct,) = key_switch(sk_enc, he_xor(ct, he_const(0, ct.level)))
        assert he_dec([level.sk for level in levels], ct) == 1


class TestNormalForm:
    """A ciphertext is a leaf, or a level, a constant and its odd leaves."""

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, CHAIN_BASES, SEEDS, st.data())
    def test_xor_is_associative_and_self_inverse(self, program, base, seed, data):
        nodes = build_dag(program, seed, base)
        picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=3, max_size=3))
        level = max(nodes[i][0].level for i in picks)
        x, y, z = (lift(nodes[i], level, base)[0] for i in picks)
        assert he_xor(he_xor(x, y), z) == he_xor(x, he_xor(y, z))
        assert he_xor(x, x) == he_const(0, level)
        assert he_xor(he_xor(x, y), y) == x

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, CHAIN_BASES, SEEDS)
    def test_key_switch_passes_the_value_and_parity_through(self, program, base, seed):
        for ct, plain, _ in build_dag(program, seed, base):
            if ct.level == base + 2:
                continue
            (up,) = key_switch(CHAINS[base][1][ct.level], ct)
            assert (up.op, up.level, up.children) == (SUM, ct.level + 1, leaves(ct))
            assert (up.const_value, up.masked_parity) == (ct.const_value, ct.masked_parity)
            if base == 0:
                assert he_dec(SKS[: up.level + 1], up) == plain

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, CHAIN_BASES, SEEDS)
    def test_encodings_round_trip(self, program, base, seed):
        for ct, _, _ in build_dag(program, seed, base):
            data = ct_to_bytes(ct)
            back = ct_from_bytes(data)
            assert back == ct and hash(back) == hash(ct) and ct_to_bytes(back) == data
            assert back.masked_parity == ct.masked_parity

    @settings(max_examples=300, deadline=None)
    @given(DAG_PROGRAMS, CHAIN_BASES, SEEDS, BYTE_EDITS)
    def test_edited_encodings_raise_only_heerror_or_re_encode(self, program, base, seed, edits):
        data = bytearray(ct_to_bytes(build_dag(program, seed, base)[-1][0]))
        for kind, pos, value in edits:
            pos %= len(data) + 1
            if kind == "insert":
                data.insert(pos, value)
            elif pos < len(data):
                if kind == "set":
                    data[pos] = value
                else:
                    del data[pos]
        try:
            ct = ct_from_bytes(bytes(data))
        except HEError:
            return
        assert ct_to_bytes(ct) == data


class TestDagWalker:
    """Random evaluation DAGs: stored parity, decryption, wire format."""

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, SEEDS)
    def test_stored_parity_matches_plaintext_and_keystream(self, program, seed):
        for ct, plain, stream in build_dag(program, seed):
            for node in (ct, ct_from_bytes(ct_to_bytes(ct))):
                assert he_dec(SKS[: node.level + 1], node) == plain
                assert public_masked_parity(node) == plain ^ stream
                streams = [stream_bit(CHAIN[leaf.level].pk, leaf.nonce) for leaf in leaves(node)]
                assert public_masked_parity(node) == plain ^ sum(streams) % 2

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
        assert ct_to_bytes(ct) == data
        keys = SKS[: ct.level + 1]
        clean = ct_from_bytes(KEYSWITCHED_BYTES)
        reads = (
            lambda: [he_dec(keys, ct)],
            lambda: [public_masked_parity(ct)],
            lambda: _dec(keys, ct, clean),
            lambda: _dec(keys, clean, ct),
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
        with pytest.raises(HEError, match="not a leaf"):
            key_switch(bad, he_enc(CHAIN[0].pk, 1, rng))

    def test_golden_linear_keyswitched_encoding(self):
        # Pins the wire format on linear ops only: a fixed seeded program with
        # a shared leaf, constants, a shared key-switched value and key
        # switches must encode to the same bytes. Re-recorded when
        # ciphertexts came to be encoded in normal form: ``top`` reduces to
        # leaf c switched up one level, so ``rest`` (b and c under the
        # constant 1, at level 2) was added.
        rng = np.random.default_rng(2024)
        levels = [he_keygen(16, rng, level=i) for i in range(3)]
        a = he_enc(levels[0].pk, 1, rng)
        b = he_enc(levels[0].pk, 0, rng)
        low = he_xor(he_xor(a, b), he_xor(a, he_const(1, 0)))
        (sk_enc,) = encrypt_seed(levels[:2], rng)
        (mid,) = key_switch(sk_enc, he_xor(low, he_const(1, 0)))
        c = he_enc(levels[1].pk, 1, rng)
        (sk_enc,) = encrypt_seed(levels[1:], rng)
        top, rest = key_switch(sk_enc, he_xor(mid, he_xor(c, mid)),
                               he_xor(he_xor(mid, c), he_const(1, 1)))
        data = ct_to_bytes(top) + ct_to_bytes(rest)
        assert len(data) == 86
        assert hashlib.sha256(data).hexdigest() == (
            "4175aa39dd615cd7005ce25cc9733e8bec806a796b292cbb8fa42eac07b9497c"
        )
        keys = [level.sk for level in levels]
        assert he_dec(keys, top) == 1 and he_dec(keys, rest) == 0

    def test_deep_chain_hashes_and_compares_by_value(self):
        # 3001 XORs with the constant 1 leave one leaf under the constant 1;
        # its decoded copy is another object, equal to it and hashed alike.
        ct, one = he_enc(CHAIN[0].pk, 1, np.random.default_rng(33)), he_const(1, 0)
        for _ in range(3001):
            ct = he_xor(ct, one)
        back = ct_from_bytes(ct_to_bytes(ct))
        assert back is not ct and back == ct and hash(back) == hash(ct)
        assert he_xor(back, ct) == he_const(0, 0)
        assert he_dec(SKS[:1], back) == he_dec(SKS[:1], ct) == 0

    def test_nodes_are_immutable_and_compare_by_value(self):
        rng = np.random.default_rng(36)
        leaf, other = he_enc(CHAIN[0].pk, 1, rng), he_enc(CHAIN[0].pk, 0, rng)
        fields = ("op", "level", "nonce", "masked", "tag", "children", "const_value",
                  "masked_parity", "sk_enc")
        for node in (leaf, he_xor(leaf, other), *key_switch(SK_ENC[0], leaf)):
            assert node.sk_enc == ()
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(node, name, getattr(node, name))
                with pytest.raises(AttributeError):
                    delattr(node, name)
            twin = HECiphertext(node.op, node.level, node.nonce, node.masked, node.tag,
                                node.children, node.const_value)
            for copied in (twin, copy.copy(node), pickle.loads(pickle.dumps(node))):
                assert [getattr(copied, name) for name in fields] == [
                    getattr(node, name) for name in fields
                ]
                assert copied == node and hash(copied) == hash(node)
                assert ct_to_bytes(copied) == ct_to_bytes(node)
            assert twin is not node and len({node, twin}) == 1


class TestOnePassDecrypt:
    """``_dec`` decrypts many roots in one pass over one key chain."""

    @settings(max_examples=150, deadline=None)
    @given(DAG_PROGRAMS, SEEDS, st.data())
    def test_many_roots_equal_one_root_at_a_time(self, program, seed, data):
        nodes = build_dag(program, seed)
        picks = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=6))
        level = max(nodes[i][0].level for i in picks)
        roots = [lift(nodes[i], level)[0] for i in picks]
        plains = [nodes[i][1] for i in picks]
        keys = SKS[: level + 1]
        for cts in (roots, [ct_from_bytes(ct_to_bytes(r)) for r in roots]):
            assert _dec(keys, *cts) == [he_dec(keys, r) for r in cts] == plains

    def test_key_switches_with_different_seeds_are_refused(self):
        # A switch out of level 0 whose leaf is sealed under another level-0
        # key, and which carries that key's seed: each leaf is unsealed under
        # the chain's own key at its level, so no root order lets it through.
        rng = np.random.default_rng(34)
        other = he_keygen(16, rng, level=0)
        (good,) = key_switch(SK_ENC[0], he_enc(CHAIN[0].pk, 1, rng))
        (forged,) = key_switch(
            encrypt_seed((other, CHAIN[1]), rng)[0], he_enc(other.pk, 0, rng)
        )
        assert he_dec(SKS[:2], good) == 1 and he_dec([other.sk, SKS[1]], forged) == 0
        for reads in ((forged,), (good, forged), (forged, good), (he_xor(good, forged),)):
            with pytest.raises(HEError, match="seal verification failed"):
                _dec(SKS[:2], *reads)

    def test_roots_at_another_level_are_refused(self):
        rng = np.random.default_rng(35)
        low, high = he_enc(CHAIN[0].pk, 1, rng), he_enc(CHAIN[1].pk, 1, rng)
        with pytest.raises(HEError, match="does not match"):
            _dec(SKS[:2], high, low)
