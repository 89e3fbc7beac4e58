"""Modeled linear classical homomorphic encryption: keygen, encrypt, XOR, decrypt.

This is an API-faithful stand-in, not hardened cryptography: evaluation is
deferred (ciphertexts record a GF(2)-affine circuit of XORs, constants and key
switches, all that the QHE key flow needs; decryption replays it on unsealed
leaves), and each leaf hides its bit as ``masked = bit XOR stream(seed,
nonce)`` under a keyed pseudorandom stream. One SHA-256 digest of
the stream seed and the nonce seals a leaf: its stream bit is the low bit of
byte 0 and its tag bytes 1-8, disjoint output bits, so in the random-oracle
model the public tag says nothing about the stream bit. ``he_enc_bits``
encrypts a list of bits from pooled nonce draws, and can pin each leaf's
stream bit (see there). Every node stores its public masked parity when it is
built, and ``_topological`` is the one walk over a ciphertext DAG, shared by
decryption and the wire encoding. Structural
indistinguishability holds (ciphertexts of 0 and 1 have identical shape and
leaf format); computational security is explicitly not claimed, and the
public key carries the stream seed, so possession of pk suffices to unseal in
this model.

A node is an immutable tuple of its fields (``HECiphertext``), read by
position in this module's own loops. The wire format is the ``_topological``
node table with minimal varints; ``ct_from_bytes`` refuses any other table,
and any levels that ``he_xor`` or ``key_switch`` refuse.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

MIN_SECURITY = 16
NONCE_BYTES = 16
TAG_BYTES = 8

LEAF, XOR, CONST, KEYSWITCH = 0, 1, 4, 5  # 2 and 3 were AND and NOT; refused as unknown


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


def he_keygen(security: int, rng: np.random.Generator, level: int = 0) -> HEKeyTriple:
    if security < MIN_SECURITY:
        raise HEError(f"security parameter {security} below minimum {MIN_SECURITY}")
    seed = rng.bytes(max(2, security // 8))
    sk = HESecretKey(level, seed)
    return HEKeyTriple(HEPublicKey(level, sk.stream_seed), sk)


def _seal(stream_seed: bytes, nonce: bytes) -> tuple[int, bytes]:
    """A leaf's stream bit and tag, from one digest."""
    digest = hashlib.sha256(stream_seed + nonce + b"seal").digest()
    return digest[0] & 1, digest[1 : 1 + TAG_BYTES]


class HECiphertext(tuple):
    """One node of a deferred-evaluation DAG.

    A tuple of nine fields, in this order: ``op``, ``level``, ``nonce``,
    ``masked``, ``tag``, ``children``, ``const_value``, ``sk_enc`` and
    ``masked_parity``. Each is a read-only property, so assigning to or
    deleting one raises AttributeError. Comparison and hashing are those of
    ``object``, by identity: a value comparison would recurse through the
    whole DAG.

    ``masked_parity`` is derived, not serialised: the XOR of the masked bits
    and constants below the node, passed through KEYSWITCH (its ``sk_enc`` is
    not part of the value). Every node has one, since every op is linear.
    """

    __slots__ = ()

    def __new__(cls, op: int, level: int, nonce: bytes = b"", masked: int = 0, tag: bytes = b"",
                children: tuple[HECiphertext, ...] = (), const_value: int = 0,
                sk_enc: tuple[HECiphertext, ...] = ()) -> HECiphertext:
        if op == XOR:
            parity = children[0][8] ^ children[1][8]  # the children's masked_parity
        elif op == LEAF:
            parity = masked
        elif op == KEYSWITCH:
            parity = children[0][8]
        else:
            parity = const_value
        return tuple.__new__(cls, (op, level, nonce, masked, tag, children, const_value, sk_enc,
                                   parity))

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild the node through __new__
        return self[:8]

    __hash__ = object.__hash__
    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = (
        object.__eq__, object.__ne__, object.__lt__, object.__le__, object.__gt__, object.__ge__)
    op, level, nonce, masked, tag, children, const_value, sk_enc, masked_parity = map(
        property, map(itemgetter, range(9)))


def he_enc(pk: HEPublicKey, bit: int, rng: np.random.Generator) -> HECiphertext:
    """Encrypt one bit under a fresh nonce from one ``rng.bytes`` draw.

    The leaf is sealed by one digest (``_seal``); its stream bit is whatever
    the nonce gives. ``he_enc_bits`` pins stream bits, from pooled draws.
    """
    return he_enc_bits(pk, (bit,), rng)[0]


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
    leaf's nonce is still uniform.
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
    stream_seed, level = pk.stream_seed, pk.level
    leaves: list = [None] * len(bits)
    empty = len(bits)
    while empty:
        pool = rng.bytes(per_slot * NONCE_BYTES * empty)
        for start in range(0, len(pool), NONCE_BYTES):
            nonce = pool[start : start + NONCE_BYTES]
            stream, tag = _seal(stream_seed, nonce)
            if waiting[stream]:
                i = waiting[stream].popleft()
                leaves[i] = HECiphertext(LEAF, level, nonce, bits[i] ^ stream, tag)
                empty -= 1
                if not empty:
                    break
    return tuple(leaves)


def he_const(value: int, level: int) -> HECiphertext:
    if value not in (0, 1):
        raise HEError(f"constant must be a bit, got {value!r}")
    return HECiphertext(CONST, level, const_value=value)


def _check_same_level(kids: Sequence[HECiphertext]) -> int:
    level = kids[0][1]
    for c in kids:
        if c[1] != level:
            levels = sorted({c.level for c in kids})
            raise HEError(f"mixed ciphertext levels {levels} without KEYSWITCH")
    return level


def he_xor(a: HECiphertext, b: HECiphertext) -> HECiphertext:
    return HECiphertext(XOR, _check_same_level((a, b)), children=(a, b))


def key_switch(ct: HECiphertext, sk_enc: Sequence[HECiphertext]) -> HECiphertext:
    """Lift a ciphertext one level using the encryption of its secret key.

    ``sk_enc`` holds bitwise encryptions (under the next level's public key)
    of the current level's secret seed; decryption under the higher key chain
    replays through it.
    """
    if not sk_enc:
        raise HEError("key_switch requires the encrypted lower secret key")
    target = _check_same_level(sk_enc)
    if target != ct.level + 1:
        raise HEError(f"key_switch target level {target} != ciphertext level {ct.level}+1")
    return HECiphertext(KEYSWITCH, target, children=(ct,), sk_enc=tuple(sk_enc))


_EXPANDED = object()  # on the stack above a node whose dependencies sit above it


def _topological(*roots: HECiphertext) -> list[HECiphertext]:
    """Every node reachable from the roots once: children, then ``sk_enc``, before each parent.

    Ciphertexts are shared DAGs after long evaluations, so each distinct node
    is listed once; roots are walked in turn over one ``seen`` set, so a node
    shared by several roots is listed where the first of them reaches it, and
    one root's order is the order ``ct_to_bytes`` encodes. A node's unseen
    dependencies are pushed once, above an ``_EXPANDED`` marker: when the
    marker comes back to the top they are all listed, and so is the node
    under it. The walk is iterative because key-switch chains nest far
    beyond the recursion limit.
    """
    order: list[HECiphertext] = []
    seen: set[HECiphertext] = set()
    stack: list = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node is _EXPANDED:
            node = stack.pop()
        elif node in seen:
            continue
        else:
            deps = node[5] + node[7]  # children, sk_enc
            if deps:
                deps = [c for c in deps if c not in seen]
                if deps:
                    stack += (node, _EXPANDED, *deps)
                    continue
        seen.add(node)
        order.append(node)
    return order


def _dec(sk: HESecretKey, *roots: HECiphertext) -> list[int]:
    """Decrypt every root in one pass: one walk, each leaf unsealed once, one key chain.

    Level l-1's seed is unsealed from the ``sk_enc`` leaves of the key switches
    out of level l-1, met parents-first, so it is known before any node below
    them is evaluated. Key switches out of one level that unseal different
    seeds are refused, so the order of the roots never picks the seed.
    """
    for ct in roots:
        if ct.level != sk.level:
            raise HEError(
                f"secret key level {sk.level} does not match ciphertext level {ct.level}"
            )
    order = _topological(*roots)
    streams = {sk.level: sk.stream_seed}
    vals: dict[HECiphertext, int] = {}

    def unseal(leaf: HECiphertext) -> int:
        bit = vals.get(leaf)
        if bit is not None:
            return bit
        if leaf.op != LEAF:
            raise HEError("malformed key switch: encrypted key bit is not a leaf")
        stream_seed = streams.get(leaf.level)
        if stream_seed is None:
            raise HEError(f"no secret key for leaf level {leaf.level}")
        stream, tag = _seal(stream_seed, leaf.nonce)
        if tag != leaf.tag:
            raise HEError("seal verification failed: wrong secret key")
        bit = vals[leaf] = leaf.masked ^ stream
        return bit

    switched: set[tuple[HECiphertext, ...]] = set()  # key leaves already unsealed
    for node in reversed(order):
        if node.op != KEYSWITCH or node.sk_enc in switched:
            continue
        switched.add(node.sk_enc)
        bits = [unseal(c) for c in node.sk_enc]
        if len(bits) % 8:
            raise HEError("malformed key switch: seed bit count not byte-aligned")
        seed = bytes(
            sum(bits[i * 8 + j] << j for j in range(8)) for i in range(len(bits) // 8)
        )
        lower = node.level - 1
        stream_seed = HESecretKey(lower, seed).stream_seed
        if streams.setdefault(lower, stream_seed) != stream_seed:
            raise HEError(f"key switches out of level {lower} unseal different seeds")
    for node in order:
        if node in vals:
            continue
        op, _, _, _, _, kids, const_value, _, _ = node
        if op == XOR:
            vals[node] = vals[kids[0]] ^ vals[kids[1]]
        elif op == LEAF:
            unseal(node)
        elif op == KEYSWITCH:
            vals[node] = vals[kids[0]]
        else:
            vals[node] = const_value
    return [vals[ct] for ct in roots]


def he_dec(sk: HESecretKey, ct: HECiphertext) -> int:
    (bit,) = _dec(sk, ct)
    return bit


def encrypt_seed(
    pk: HEPublicKey, sk_lower: HESecretKey, rng: np.random.Generator
) -> tuple[HECiphertext, ...]:
    """Bitwise encryption of a lower-level secret seed (the key-switch aid)."""
    if pk.level != sk_lower.level + 1:
        raise HEError("seed must be encrypted under the next level's public key")
    return he_enc_bits(pk, [(byte >> j) & 1 for byte in sk_lower.seed for j in range(8)], rng)


def public_masked_parity(ct: HECiphertext) -> int:
    """XOR of leaf masked bits and constants, readable from the public string.

    The plaintext equals this parity XOR the (secret) parity of the leaves'
    stream bits. Each node stores it when built, so this reads one field.
    """
    return ct.masked_parity


# --- canonical byte encoding (wire format) ---------------------------------

_BYTE = [bytes((i,)) for i in range(128)]  # one-byte varints, op codes and bits


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
    """Topologically ordered node table (children as back-references).

    Shared subgraphs are emitted once, so the encoding stays linear in the
    number of distinct nodes even for deeply shared evaluation DAGs.
    """
    order = _topological(ct)
    index: dict[HECiphertext, bytes] = {}
    parts = [_varint(len(order))]
    put = parts.append
    for i, node in enumerate(order):
        index[node] = _BYTE[i] if i < 128 else _varint(i)  # how later nodes refer to it
        op, level, nonce, masked, tag, children, const_value, sk_enc, _ = node
        put(_BYTE[op])
        put(_BYTE[level] if level < 128 else _varint(level))
        if op == LEAF:
            parts += (nonce, _BYTE[masked], tag)
        elif op == CONST:
            put(_BYTE[const_value])
        else:
            parts += (_varint(len(children)), _varint(len(sk_enc)))
            parts += map(index.__getitem__, children + sk_enc)
    return b"".join(parts)


_CHILD_ARITY = {XOR: 2, KEYSWITCH: 1}


def ct_from_bytes(data: bytes) -> HECiphertext:
    """Decode a ``ct_to_bytes`` table, checking each node's levels as it is read
    and then, by one ``_topological`` walk, that every node is listed once, in order."""
    count, pos = _read_varint(data, 0)
    if count == 0:
        raise HEError("empty ciphertext encoding")
    size = len(data)
    nodes: list[HECiphertext] = []
    for i in range(count):
        if pos >= size:
            raise HEError("truncated ciphertext")
        op = data[pos]
        pos += 1
        if pos < size and data[pos] < 0x80:
            level = data[pos]
            pos += 1
        else:
            level, pos = _read_varint(data, pos)
        if op == LEAF:
            end = pos + NONCE_BYTES + 1 + TAG_BYTES
            if end > size:
                raise HEError("truncated leaf")
            masked = data[pos + NONCE_BYTES]
            if masked not in (0, 1):
                raise HEError("bad masked bit")
            nonce, tag = data[pos : pos + NONCE_BYTES], data[pos + NONCE_BYTES + 1 : end]
            nodes.append(HECiphertext(LEAF, level, nonce, masked, tag))
            pos = end
        elif op == CONST:
            if pos >= size:
                raise HEError("truncated const")
            v = data[pos]
            if v not in (0, 1):
                raise HEError("bad const bit")
            nodes.append(HECiphertext(CONST, level, const_value=v))
            pos += 1
        elif op in _CHILD_ARITY:
            if pos + 1 < size and data[pos] < 0x80 and data[pos + 1] < 0x80:
                n_children, n_aux = data[pos], data[pos + 1]
                pos += 2
            else:
                n_children, pos = _read_varint(data, pos)
                n_aux, pos = _read_varint(data, pos)
            if n_children != _CHILD_ARITY[op] or (n_aux and op != KEYSWITCH):
                raise HEError("bad child arity")
            refs = []
            for _ in range(n_children + n_aux):
                if pos < size and data[pos] < 0x80:
                    ref = data[pos]
                    pos += 1
                elif pos + 1 < size and 0 < data[pos + 1] < 0x80:  # two bytes
                    ref = data[pos] & 0x7F | data[pos + 1] << 7
                    pos += 2
                else:
                    ref, pos = _read_varint(data, pos)
                if ref >= i:
                    raise HEError("forward or dangling child reference")
                refs.append(nodes[ref])
            if op == XOR:
                if refs[0][1] != level or refs[1][1] != level:
                    raise HEError("misleveled XOR child")
                nodes.append(HECiphertext(XOR, level, children=tuple(refs)))
            elif refs[0][1] != level - 1 or {bit[1] for bit in refs[1:]} != {level}:
                raise HEError("misleveled key switch: needs key bits at its level over a "
                              "child one level down")
            else:
                nodes.append(HECiphertext(KEYSWITCH, level, children=(refs[0],),
                                          sk_enc=tuple(refs[1:])))
        else:
            raise HEError(f"unknown ciphertext tag {op}")
    if pos != size:
        raise HEError("trailing bytes after ciphertext")
    if count > 1:  # a lone node is its own walk
        order = _topological(nodes[-1])
        if len(order) != count:
            raise HEError("unreferenced node before the root")
        if order != nodes:  # element by element, by identity
            raise HEError("non-canonical node order")
    return nodes[-1]
