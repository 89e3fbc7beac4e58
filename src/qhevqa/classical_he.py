"""Modeled linear classical homomorphic encryption: keygen, encrypt, XOR, decrypt.

This is an API-faithful stand-in, not hardened cryptography. Each leaf (a
fresh encryption) hides its bit as ``masked = bit XOR stream(seed, nonce)``
under a keyed pseudorandom stream. One SHA-256 digest of the stream seed and
the nonce seals a leaf: its stream bit is the low bit of byte 0 and its tag
bytes 1-8, disjoint output bits, so in the random-oracle model the public tag
says nothing about the stream bit. ``he_enc_bits`` encrypts a list of bits
from pooled nonce draws, and can pin each leaf's stream bit (see there);
``encrypt_seed`` encrypts a level chain's seeds from one draw. Both seal a
pool in one loop, ``_seal_pool``, that builds the leaf tuples directly.

Every op is GF(2)-linear, so a ciphertext is kept in normal form: a leaf, or
a sum of a constant bit and the leaves that sit below it an odd number of
times. ``he_xor`` takes the symmetric difference of the leaf sets;
``key_switch`` still requires the next level's encrypted seed, checked once
for all the ciphertexts it lifts one level up with their leaves and
constants. A ``LeafIndex`` packs normal forms as ints over one run's leaves
(parity, constant, one bit per leaf), so a run of XORs and key switches is
int ``^`` and a level counter; ``unpack`` gives back the node. Decryption
unseals each leaf once, under its own level's secret key. Every node stores
its public masked parity. Structural indistinguishability holds
(ciphertexts of 0 and 1 have identical shape and leaf format);
computational security is explicitly not claimed, and the public key
carries the stream seed, so possession of pk suffices to unseal in this
model.

A node is an immutable tuple of its fields (``HECiphertext``), compared and
hashed by value. The wire format is one node with a sum's leaves in strictly
increasing order and minimal varints; ``ct_from_bytes`` refuses any other
encoding in its one forward pass. A leaf table packs leaves in fixed width.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Sequence

import numpy as np

MIN_SECURITY = 16
NONCE_BYTES = 16
TAG_BYTES = 8

LEAF, SUM = 0, 1  # 2-5 were the AND, NOT, constant and key-switch ops; refused as unknown


class HEError(Exception):
    pass


@dataclass(frozen=True)
class HESecretKey:
    level: int
    seed: bytes

    @property
    def stream_seed(self) -> bytes:
        return hashlib.sha256(self.seed + b"enc").digest()


@dataclass(frozen=True)
class HEPublicKey:
    level: int
    stream_seed: bytes


@dataclass(frozen=True)
class HEKeyTriple:
    pk: HEPublicKey
    sk: HESecretKey


def he_keygen_chain(
    security: int, levels: Sequence[int], rng: np.random.Generator
) -> tuple[HEKeyTriple, ...]:
    """One key per level of ``levels``, in order, from one ``rng.bytes`` draw:
    the seeds, and the generator state after, of one ``rng.bytes(w)`` per key.

    ``rng.bytes(w)`` takes ceil(w/4) 32-bit words and keeps their first w
    bytes, so key i's seed opens the i-th stride of 4 ceil(w/4) bytes.
    """
    if security < MIN_SECURITY:
        raise HEError(f"security parameter {security} below minimum {MIN_SECURITY}")
    width = max(2, security // 8)
    stride = 4 * -(-width // 4)
    pool = rng.bytes(stride * len(levels))
    triples = []
    for i, level in enumerate(levels):
        sk = HESecretKey(level, pool[stride * i : stride * i + width])
        triples.append(HEKeyTriple(HEPublicKey(level, sk.stream_seed), sk))
    return tuple(triples)


def he_keygen(security: int, rng: np.random.Generator, level: int = 0) -> HEKeyTriple:
    """One key at ``level``: ``he_keygen_chain`` of that one level."""
    return he_keygen_chain(security, (level,), rng)[0]


_NO_LEAVES = frozenset()


class HECiphertext(tuple):
    """One ciphertext in normal form: a ``LEAF`` or a ``SUM``.

    A tuple of eight fields, in this order: ``op``, ``level``, ``nonce``,
    ``masked``, ``tag``, ``children``, ``const_value`` and ``masked_parity``.
    Each is a read-only property, so assigning to or deleting one raises
    AttributeError. A leaf holds a nonce, a masked bit and a tag. A sum holds
    a constant bit and, as ``children``, the frozenset of its leaves of odd
    multiplicity, each at or below its level; a constant is a sum with no
    leaves. Comparison and hashing are the tuple's, by value: a sum's
    children are leaves, so equality never goes more than two nodes deep.

    ``masked_parity`` is derived, not serialised: a leaf's masked bit, or a
    sum's constant XOR its leaves' masked bits. ``sk_enc`` is always empty:
    a key switch keeps no key material.
    """

    __slots__ = ()
    sk_enc = ()

    def __new__(cls, op: int, level: int, nonce: bytes = b"", masked: int = 0, tag: bytes = b"",
                children=_NO_LEAVES, const_value: int = 0) -> HECiphertext:
        children = frozenset(children)
        parity = masked if op == LEAF else const_value ^ sum(leaf[3] for leaf in children) & 1
        return tuple.__new__(cls, (op, level, nonce, masked, tag, children, const_value, parity))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild the node through __new__
        return self[:7]

    op, level, nonce, masked, tag, children, const_value, masked_parity = map(
        property, map(itemgetter, range(8)))


def _sum(level: int, const: int, leaves: frozenset, parity: int) -> HECiphertext:
    """The sum node, or its one leaf if that leaf is at ``level`` and ``const`` is 0."""
    if len(leaves) == 1 and not const:
        (leaf,) = leaves
        if leaf[1] == level:
            return leaf
    return tuple.__new__(HECiphertext, (SUM, level, b"", 0, b"", leaves, const, parity))


def _leaves(ct: HECiphertext) -> frozenset:
    return ct[5] if ct[0] else frozenset((ct,))


def he_enc(pk: HEPublicKey, bit: int, rng: np.random.Generator) -> HECiphertext:
    """Encrypt one bit under a fresh nonce from one ``rng.bytes`` draw.

    The leaf is sealed by one digest; its stream bit is whatever the nonce
    gives. ``he_enc_bits`` pins stream bits, from pooled draws.
    """
    return he_enc_bits(pk, (bit,), rng)[0]


def _seal_pool(pk: HEPublicKey, bits: Sequence[int], pool: bytes, waiting, leaves: list) -> int:
    """Seal the nonces of one pool into leaves under ``pk``; return how many.

    Each nonce, in draw order, fills the first slot of ``waiting[stream
    bit]`` with the leaf of ``bits[slot]``, or is discarded if no slot wants
    it. A leaf is built as its tuple directly: its fields are in normal form.
    """
    stream_seed, level = pk.stream_seed, pk.level
    filled = 0
    for start in range(0, len(pool), NONCE_BYTES):
        nonce = pool[start : start + NONCE_BYTES]
        digest = hashlib.sha256(stream_seed + nonce + b"seal").digest()
        stream = digest[0] & 1
        if waiting[stream]:
            i = waiting[stream].popleft()
            masked = bits[i] ^ stream
            leaves[i] = tuple.__new__(HECiphertext, (
                LEAF, level, nonce, masked, digest[1 : 1 + TAG_BYTES], _NO_LEAVES, 0, masked))
            filled += 1
            if not (waiting[0] or waiting[1]):
                break
    return filled


def he_enc_bits(
    pk: HEPublicKey,
    bits: Sequence[int],
    rng: np.random.Generator,
    keystream_bits: Sequence[int] | None = None,
) -> tuple[HECiphertext, ...]:
    """Encrypt each bit under its own fresh nonce, the nonces drawn in pools.

    Unpinned, the bits take exactly ``len(bits)`` nonces from one
    ``rng.bytes`` draw, in order: the bytes, and the generator state after,
    of one ``he_enc`` per bit. ``keystream_bits[i]`` pins leaf i's stream bit,
    a client-side choice (the client owns the stream seed) that the gadget
    machinery uses to keep runtime-selectable leaf families aligned. Pinned,
    a pool holds two nonces per empty slot; each nonce, in draw order, fills
    the first still-empty slot that wants its stream bit, or is discarded, and
    a new pool is drawn for the slots still empty. Given its stream bit, each
    leaf's nonce is still uniform. ``_seal_pool`` seals each pool.
    """
    for bit in bits:
        if bit not in (0, 1):
            raise HEError(f"plaintext must be a bit, got {bit!r}")
    if keystream_bits is None:
        slots = deque(range(len(bits)))
        waiting, per_slot = (slots, slots), 1  # any stream bit fills the next slot
    else:
        if len(keystream_bits) != len(bits) or not set(keystream_bits) <= {0, 1}:
            raise HEError("keystream_bits must pin one stream bit per plaintext bit")
        waiting, per_slot = (deque(), deque()), 2
        for i, k in enumerate(keystream_bits):
            waiting[k].append(i)
    leaves: list = [None] * len(bits)
    empty = len(bits)
    while empty:
        empty -= _seal_pool(pk, bits, rng.bytes(per_slot * NONCE_BYTES * empty), waiting, leaves)
    return tuple(leaves)


def he_const(value: int, level: int) -> HECiphertext:
    if value not in (0, 1):
        raise HEError(f"constant must be a bit, got {value!r}")
    return _sum(level, value, _NO_LEAVES, value)


def he_xor(a: HECiphertext, b: HECiphertext) -> HECiphertext:
    """XOR the constants and the parities; the leaves are the symmetric difference."""
    if a[1] != b[1]:
        raise HEError(f"mixed ciphertext levels {sorted((a[1], b[1]))} without a key switch")
    return _sum(a[1], a[6] ^ b[6], _leaves(a) ^ _leaves(b), a[7] ^ b[7])


class LeafIndex:
    """Normal-form ciphertexts packed as ints over one run's leaves.

    Bit 0 of a packing is the masked parity, bit 1 the constant and bit 2 + i
    leaf i of the index, each leaf keyed by value, as a sum's frozenset keys
    it. So ``he_xor`` of two ciphertexts at one level is the int ``^`` of
    their packings, parity included. A packing holds no level: a key switch
    keeps the leaves and the constant, so the caller counts levels.
    """

    def __init__(self):
        self.bits: dict[HECiphertext, int] = {}
        self.leaves: list[HECiphertext] = []

    def pack(self, ct: HECiphertext, level: int) -> int:
        """``ct`` as an int; an HEError unless it sits at ``level``."""
        if ct[1] != level:
            raise HEError(f"a ciphertext at level {ct[1]} packed at level {level}")
        packed = ct[7] | ct[6] << 1
        for leaf in _leaves(ct):
            bit = self.bits.get(leaf)
            if bit is None:
                bit = self.bits[leaf] = 4 << len(self.leaves)
                self.leaves.append(leaf)
            packed |= bit
        return packed

    def unpack(self, level: int, packed: int) -> HECiphertext:
        """The node at ``level`` that ``packed`` packs, built by ``_sum``: a
        lone leaf at ``level`` with constant 0 comes back as that leaf."""
        # bin() reversed reads leaf 0 first; its trailing "b0" selects nothing.
        chosen = compress(self.leaves, map("1".__eq__, reversed(bin(packed >> 2))))
        return _sum(level, packed >> 1 & 1, frozenset(chosen), packed & 1)


def key_switch(sk_enc: Sequence[HECiphertext], *cts: HECiphertext) -> tuple[HECiphertext, ...]:
    """Lift ciphertexts one level using the encryption of their secret key.

    ``sk_enc`` holds bitwise encryptions, leaves under the next level's
    public key, of the current level's secret seed; it is checked once for
    all of ``cts``, which must sit one level below it. Each lifted
    ciphertext keeps the same leaves and constant: decryption unseals each
    leaf under its own level's key, so it never reads ``sk_enc``.
    """
    if not sk_enc:
        raise HEError("key_switch requires the encrypted lower secret key")
    target = sk_enc[0][1]
    for bit in sk_enc:
        if bit[0] != LEAF or bit[1] != target:
            raise HEError(f"malformed key switch: a key bit is not a leaf at level {target}")
    for ct in cts:
        if ct[1] + 1 != target:
            raise HEError(f"key_switch target level {target} != ciphertext level {ct[1]}+1")
    return tuple(tuple.__new__(HECiphertext, (SUM, target, b"", 0, b"", _leaves(ct), ct[6], ct[7]))
                 for ct in cts)


def _dec(keys: Sequence[HESecretKey], *roots: HECiphertext) -> list[int]:
    """Decrypt every root in one pass, each distinct leaf unsealed once.

    ``keys[l]`` is level l's secret key, and every root sits at the chain's
    top level, ``len(keys) - 1``. A root's bit is its masked parity XOR the
    stream bits of its leaves, each leaf unsealed under its own level's key.
    """
    top = len(keys) - 1
    for ct in roots:
        if ct[1] != top:
            raise HEError(f"secret key level {top} does not match ciphertext level {ct[1]}")
    streams: dict[int, bytes] = {}
    ones = set()  # the leaves whose stream bit is 1
    for leaf in set().union(*map(_leaves, roots)):
        level = leaf[1]
        stream_seed = streams.get(level)
        if stream_seed is None:
            stream_seed = streams[level] = keys[level].stream_seed
        digest = hashlib.sha256(stream_seed + leaf[2] + b"seal").digest()  # as _seal_pool seals
        if digest[1 : 1 + TAG_BYTES] != leaf[4]:
            raise HEError("seal verification failed: wrong secret key")
        if digest[0] & 1:
            ones.add(leaf)
    return [ct[7] ^ (len(ones.intersection(_leaves(ct))) & 1) for ct in roots]


def he_dec(keys: Sequence[HESecretKey], ct: HECiphertext) -> int:
    (bit,) = _dec(keys, ct)
    return bit


def encrypt_seed(
    chain: Sequence[HEKeyTriple], rng: np.random.Generator
) -> tuple[tuple[HECiphertext, ...], ...]:
    """The key-switch aids of a level chain: for each level l below the top,
    level l's secret seed encrypted bitwise under level l+1's public key.

    One ``rng.bytes`` draw holds every level's nonces, level by level: the
    bytes, and the generator state after, of one unpinned ``he_enc_bits``
    call per level.
    """
    for lower, upper in zip(chain, chain[1:]):
        if upper.pk.level != lower.sk.level + 1:
            raise HEError("seed must be encrypted under the next level's public key")
    seeds = [[(byte >> j) & 1 for byte in t.sk.seed for j in range(8)] for t in chain[:-1]]
    # No draw for a one-level chain: rng.bytes(0) can still move the generator.
    pool = rng.bytes(NONCE_BYTES * sum(map(len, seeds))) if seeds else b""
    out, end = [], 0
    for bits, upper in zip(seeds, chain[1:]):
        slots, leaves = deque(range(len(bits))), [None] * len(bits)
        start, end = end, end + NONCE_BYTES * len(bits)
        _seal_pool(upper.pk, bits, pool[start:end], (slots, slots), leaves)
        out.append(tuple(leaves))
    return tuple(out)


def public_masked_parity(ct: HECiphertext) -> int:
    """XOR of leaf masked bits and the constant, readable from the public string.

    The plaintext equals this parity XOR the (secret) parity of the leaves'
    stream bits. Each node stores it when built, so this reads one field.
    """
    return ct.masked_parity


# --- canonical byte encoding (wire format) ---------------------------------

_BYTE = [bytes((i,)) for i in range(128)]  # one-byte varints, op codes and bits
LEAF_BYTES = NONCE_BYTES + 1 + TAG_BYTES  # nonce, masked bit, tag
_LEAF_ORDER = itemgetter(1, 2, 3, 4)  # (level, nonce, masked, tag)


def _varint(n: int) -> bytes:
    if n < 128:
        return _BYTE[n]
    if n < 16384:
        return bytes((n & 0x7F | 0x80, n >> 7))
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        out.append(b | (0x80 if n else 0))
        if not n:
            return bytes(out)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    n = shift = 0
    while True:
        if pos >= len(data):
            raise HEError("truncated varint")
        b = data[pos]
        pos += 1
        n |= (b & 0x7F) << shift
        shift += 7
        if not b & 0x80:
            if not b and shift > 7:
                raise HEError("overlong varint")
            return n, pos


def ct_to_bytes(ct: HECiphertext) -> bytes:
    """An op byte and a level varint, then a leaf's nonce, masked bit and tag,
    or a sum's constant, leaf count and leaves (each a level varint, nonce,
    masked bit and tag) in strictly increasing (level, nonce, masked, tag) order."""
    op, level, nonce, masked, tag, leaves, const_value, _ = ct
    if op == LEAF:
        return b"".join((_BYTE[LEAF], _varint(level), nonce, _BYTE[masked], tag))
    parts = [_BYTE[SUM], _varint(level), _BYTE[const_value], _varint(len(leaves))]
    for _, lv, nonce, masked, tag, _, _, _ in sorted(leaves, key=_LEAF_ORDER):
        parts += (_varint(lv), nonce, _BYTE[masked], tag)
    return b"".join(parts)


def _read_leaf(data: bytes, pos: int, level: int) -> tuple[HECiphertext, int]:
    """The leaf at ``level`` whose nonce, masked bit and tag start at ``pos``,
    and the position after them."""
    end = pos + LEAF_BYTES
    if end > len(data):
        raise HEError("truncated leaf")
    masked = data[pos + NONCE_BYTES]
    if masked > 1:
        raise HEError("bad masked bit")
    nonce, tag = data[pos : pos + NONCE_BYTES], data[end - TAG_BYTES : end]
    return HECiphertext(LEAF, level, nonce, masked, tag), end


def leaves_to_bytes(leaves: Sequence[HECiphertext], level: int) -> bytes:
    """The leaf table of ``leaves``, each a leaf at ``level``."""
    if any(leaf[0] != LEAF or leaf[1] != level for leaf in leaves):
        raise HEError(f"a leaf table holds only leaves at level {level}")
    return b"".join(leaf[2] + _BYTE[leaf[3]] + leaf[4] for leaf in leaves)


def leaves_from_bytes(data: bytes, level: int) -> tuple[HECiphertext, ...]:
    """The leaves at ``level`` of a table; a bad masked bit or a cut leaf is an HEError."""
    return tuple(_read_leaf(data, pos, level)[0] for pos in range(0, len(data), LEAF_BYTES))


def ct_from_bytes(data: bytes) -> HECiphertext:
    """Decode a ``ct_to_bytes`` encoding in one forward pass, refusing every
    other: overlong varints, unknown op bytes, bits other than 0 and 1, sum
    leaves above the sum's level, out of order or repeated, a sum that is one
    leaf at its own level with constant 0 (that leaf's second encoding), and
    truncated or trailing bytes."""
    data = bytes(data)
    if not data:
        raise HEError("empty ciphertext encoding")
    op = data[0]
    level, pos = _read_varint(data, 1)
    if op == LEAF:
        ct, pos = _read_leaf(data, pos, level)
    elif op == SUM:
        if pos >= len(data):
            raise HEError("truncated sum")
        const_value = data[pos]
        if const_value > 1:
            raise HEError("bad const bit")
        count, pos = _read_varint(data, pos + 1)
        leaves: list[HECiphertext] = []
        for _ in range(count):
            lv, pos = _read_varint(data, pos)
            if lv > level:
                raise HEError("sum leaf above its ciphertext's level")
            leaf, pos = _read_leaf(data, pos, lv)
            if leaves and _LEAF_ORDER(leaf) <= _LEAF_ORDER(leaves[-1]):
                raise HEError("sum leaves out of order or repeated")
            leaves.append(leaf)
        if count == 1 and not const_value and lv == level:
            raise HEError("non-canonical sum: one leaf at its own level")
        ct = HECiphertext(SUM, level, children=leaves, const_value=const_value)
    else:
        raise HEError(f"unknown ciphertext tag {op}")
    if pos != len(data):
        raise HEError("trailing bytes after ciphertext")
    return ct
