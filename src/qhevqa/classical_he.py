"""Modeled classical homomorphic encryption with a four-algorithm interface.

This is an API-faithful stand-in, not hardened cryptography: evaluation is
deferred (ciphertexts record the boolean circuit; decryption replays it on
unsealed leaves), and each leaf hides its bit as ``masked = bit XOR
stream(seed, nonce)`` under a keyed pseudorandom stream. Structural
indistinguishability holds (ciphertexts of 0 and 1 have identical shape and
leaf format); computational security is explicitly not claimed, and the
public key carries the stream seed, so possession of pk suffices to unseal in
this model.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_SECURITY = 16
NONCE_BYTES = 16
TAG_BYTES = 8

LEAF, XOR, AND, NOT, CONST, KEYSWITCH = range(6)


class HEError(Exception):
    pass


def _digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


@dataclass(frozen=True)
class HESecretKey:
    level: int
    seed: bytes

    @property
    def stream_seed(self) -> bytes:
        return _digest(self.seed, b"enc")


@dataclass(frozen=True)
class HEPublicKey:
    level: int
    key_id: bytes
    stream_seed: bytes


@dataclass(frozen=True)
class HEEvalKey:
    level: int
    key_id: bytes


@dataclass(frozen=True)
class HEKeyTriple:
    pk: HEPublicKey
    sk: HESecretKey
    evk: HEEvalKey
    level: int


def he_keygen(security: int, rng: np.random.Generator, level: int = 0) -> HEKeyTriple:
    if security < MIN_SECURITY:
        raise HEError(f"security parameter {security} below minimum {MIN_SECURITY}")
    seed = rng.bytes(max(2, security // 8))
    sk = HESecretKey(level, seed)
    key_id = _digest(seed, b"id")[:8]
    pk = HEPublicKey(level, key_id, sk.stream_seed)
    evk = HEEvalKey(level, key_id)
    return HEKeyTriple(pk, sk, evk, level)


def _stream_bit(stream_seed: bytes, nonce: bytes) -> int:
    return _digest(stream_seed, nonce, b"mask")[0] & 1


def _tag(stream_seed: bytes, nonce: bytes) -> bytes:
    return _digest(stream_seed, nonce, b"tag")[:TAG_BYTES]


@dataclass(frozen=True)
class HECiphertext:
    op: int
    level: int
    nonce: bytes = b""
    masked: int = 0
    tag: bytes = b""
    children: tuple["HECiphertext", ...] = ()
    const_value: int = 0
    sk_enc: tuple["HECiphertext", ...] = ()


def he_enc(
    pk: HEPublicKey,
    bit: int,
    rng: np.random.Generator,
    keystream_bit: int | None = None,
) -> HECiphertext:
    """Encrypt one bit under a fresh nonce.

    ``keystream_bit`` pins the leaf's stream bit by nonce rejection sampling;
    it is a client-side choice (the client owns the stream seed) used by the
    gadget machinery to keep runtime-selectable leaf families aligned.
    """
    if bit not in (0, 1):
        raise HEError(f"plaintext must be a bit, got {bit!r}")
    for _ in range(4096):
        nonce = rng.bytes(NONCE_BYTES)
        sb = _stream_bit(pk.stream_seed, nonce)
        if keystream_bit is None or sb == keystream_bit:
            return HECiphertext(
                LEAF,
                pk.level,
                nonce=nonce,
                masked=bit ^ sb,
                tag=_tag(pk.stream_seed, nonce),
            )
    raise HEError("could not hit requested keystream bit")  # pragma: no cover


def he_const(value: int, level: int) -> HECiphertext:
    if value not in (0, 1):
        raise HEError(f"constant must be a bit, got {value!r}")
    return HECiphertext(CONST, level, const_value=value)


def _check_same_level(kids: Sequence[HECiphertext]) -> int:
    levels = {c.level for c in kids}
    if len(levels) != 1:
        raise HEError(f"mixed ciphertext levels {sorted(levels)} without KEYSWITCH")
    return levels.pop()


def he_xor(a: HECiphertext, b: HECiphertext) -> HECiphertext:
    return HECiphertext(XOR, _check_same_level([a, b]), children=(a, b))


def he_and(a: HECiphertext, b: HECiphertext) -> HECiphertext:
    return HECiphertext(AND, _check_same_level([a, b]), children=(a, b))


def he_not(a: HECiphertext) -> HECiphertext:
    return HECiphertext(NOT, a.level, children=(a,))


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


def he_eval(
    evk: HEEvalKey,
    circuit: Sequence[tuple],
    inputs: Sequence[HECiphertext],
) -> HECiphertext:
    """Evaluate a boolean DAG over {XOR, AND, NOT, CONST} on ciphertexts.

    Circuit ops reference operands by index into inputs followed by previous
    nodes; the final node is the output.
    """
    if inputs:
        lvl = _check_same_level(inputs)
    elif not circuit:
        raise HEError("empty circuit")
    else:
        lvl = 0
    if evk.level != lvl and inputs:
        raise HEError(f"evaluation key level {evk.level} != input level {lvl}")
    values: list[HECiphertext] = list(inputs)
    for op in circuit:
        name = op[0]
        if name == "XOR":
            values.append(he_xor(values[op[1]], values[op[2]]))
        elif name == "AND":
            values.append(he_and(values[op[1]], values[op[2]]))
        elif name == "NOT":
            values.append(he_not(values[op[1]]))
        elif name == "CONST":
            values.append(he_const(op[1], lvl))
        else:
            raise HEError(f"unknown circuit op {name!r}")
    if not circuit:
        raise HEError("empty circuit")
    return values[-1]


def _lower_key(sk: HESecretKey, bits: list[int]) -> HESecretKey:
    if len(bits) % 8:
        raise HEError("malformed key switch: seed bit count not byte-aligned")
    seed = bytes(
        sum(bits[i * 8 + j] << j for j in range(8)) for i in range(len(bits) // 8)
    )
    return HESecretKey(sk.level - 1, seed)


def _dec(sk: HESecretKey, ct: HECiphertext) -> int:
    """Replay the deferred circuit iteratively.

    Ciphertext 'trees' are shared DAGs after long evaluations, so traversal is
    memoized per (node, key) and uses an explicit stack (key-switch chains can
    nest far beyond the recursion limit).
    """
    memo: dict[tuple[int, bytes], int] = {}

    def key_of(node: HECiphertext, key: HESecretKey) -> tuple[int, bytes]:
        return (id(node), key.seed)

    stack: list[tuple[HECiphertext, HESecretKey]] = [(ct, sk)]
    while stack:
        node, key = stack[-1]
        mk = key_of(node, key)
        if mk in memo:
            stack.pop()
            continue
        if node.op == CONST:
            memo[mk] = node.const_value
            stack.pop()
        elif node.op == LEAF:
            if node.level != key.level:
                raise HEError(
                    f"secret key level {key.level} does not match leaf level {node.level}"
                )
            if _tag(key.stream_seed, node.nonce) != node.tag:
                raise HEError("seal verification failed: wrong secret key")
            memo[mk] = node.masked ^ _stream_bit(key.stream_seed, node.nonce)
            stack.pop()
        elif node.op in (XOR, AND, NOT):
            missing = [c for c in node.children if key_of(c, key) not in memo]
            if missing:
                stack.extend((c, key) for c in missing)
                continue
            vals = [memo[key_of(c, key)] for c in node.children]
            if node.op == XOR:
                memo[mk] = vals[0] ^ vals[1]
            elif node.op == AND:
                memo[mk] = vals[0] & vals[1]
            else:
                memo[mk] = 1 ^ vals[0]
            stack.pop()
        elif node.op == KEYSWITCH:
            missing = [c for c in node.sk_enc if key_of(c, key) not in memo]
            if missing:
                stack.extend((c, key) for c in missing)
                continue
            lower = _lower_key(key, [memo[key_of(c, key)] for c in node.sk_enc])
            child = node.children[0]
            if key_of(child, lower) in memo:
                memo[mk] = memo[key_of(child, lower)]
                stack.pop()
            else:
                stack.append((child, lower))
        else:
            raise HEError(f"malformed ciphertext node op={node.op}")
    return memo[key_of(ct, sk)]


def he_dec(sk: HESecretKey, ct: HECiphertext) -> int:
    if sk.level != ct.level:
        raise HEError(f"secret key level {sk.level} does not match ciphertext level {ct.level}")
    return _dec(sk, ct)


def encrypt_seed(
    pk: HEPublicKey, sk_lower: HESecretKey, rng: np.random.Generator
) -> tuple[HECiphertext, ...]:
    """Bitwise encryption of a lower-level secret seed (the key-switch aid)."""
    if pk.level != sk_lower.level + 1:
        raise HEError("seed must be encrypted under the next level's public key")
    out = []
    for byte in sk_lower.seed:
        for j in range(8):
            out.append(he_enc(pk, (byte >> j) & 1, rng))
    return tuple(out)


def keystream_bit(sk_or_pk, nonce: bytes) -> int:
    return _stream_bit(sk_or_pk.stream_seed, nonce)


def public_masked_parity(ct: HECiphertext) -> int:
    """XOR of leaf masked bits and constants, readable from the public string.

    Defined for XOR/NOT/KEYSWITCH structures only: for those, the plaintext
    equals this parity XOR the (secret) parity of the leaves' stream bits.
    Iterative with memoization — evaluated ciphertexts are shared DAGs.
    """
    memo: dict[int, int] = {}
    stack = [ct]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if node.op == LEAF:
            memo[id(node)] = node.masked
            stack.pop()
        elif node.op == CONST:
            memo[id(node)] = node.const_value
            stack.pop()
        elif node.op in (XOR, NOT, KEYSWITCH):
            missing = [c for c in node.children if id(c) not in memo]
            if missing:
                stack.extend(missing)
                continue
            vals = [memo[id(c)] for c in node.children]
            if node.op == XOR:
                memo[id(node)] = vals[0] ^ vals[1]
            elif node.op == NOT:
                memo[id(node)] = 1 ^ vals[0]
            else:
                memo[id(node)] = vals[0]
            stack.pop()
        else:
            raise HEError("masked parity undefined for AND nodes")
    return memo[id(ct)]


# --- canonical byte encoding (wire format) ---------------------------------


def _varint(n: int) -> bytes:
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
            return n, pos


def ct_to_bytes(ct: HECiphertext) -> bytes:
    """Topologically ordered node table (children as back-references).

    Shared subgraphs are emitted once, so the encoding stays linear in the
    number of distinct nodes even for deeply shared evaluation DAGs.
    """
    order: list[HECiphertext] = []
    index: dict[int, int] = {}
    stack: list[HECiphertext] = [ct]
    while stack:
        node = stack[-1]
        if id(node) in index:
            stack.pop()
            continue
        deps = [c for c in (*node.children, *node.sk_enc) if id(c) not in index]
        if deps:
            stack.extend(deps)
            continue
        index[id(node)] = len(order)
        order.append(node)
        stack.pop()
    out = bytearray(_varint(len(order)))
    for node in order:
        out.append(node.op)
        out += _varint(node.level)
        if node.op == LEAF:
            out += node.nonce + bytes([node.masked]) + node.tag
        elif node.op == CONST:
            out.append(node.const_value)
        else:
            out += _varint(len(node.children))
            out += _varint(len(node.sk_enc))
            for c in (*node.children, *node.sk_enc):
                out += _varint(index[id(c)])
    return bytes(out)


_CHILD_ARITY = {XOR: 2, AND: 2, NOT: 1, KEYSWITCH: 1}


def ct_from_bytes(data: bytes) -> HECiphertext:
    count, pos = _read_varint(data, 0)
    if count == 0:
        raise HEError("empty ciphertext encoding")
    nodes: list[HECiphertext] = []
    for _ in range(count):
        if pos >= len(data):
            raise HEError("truncated ciphertext")
        op = data[pos]
        pos += 1
        level, pos = _read_varint(data, pos)
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
        elif op in _CHILD_ARITY:
            n_children, pos = _read_varint(data, pos)
            n_aux, pos = _read_varint(data, pos)
            if n_children != _CHILD_ARITY[op] or (n_aux and op != KEYSWITCH):
                raise HEError("bad child arity")
            refs = []
            for _ in range(n_children + n_aux):
                ref, pos = _read_varint(data, pos)
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
