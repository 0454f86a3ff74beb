"""Every hashed byte, pinned: the group id and its hash behind routing,
the cluster ring and the store's key directory, and KMV's unit hash.

Both hashes call ``blake2b`` from the built-in ``_blake2`` module, which
is the very object ``hashlib`` re-exports — taking it from there keeps
``hashlib`` (and the OpenSSL it maps) out of the process without moving a
digest.  The literals below were computed with ``hashlib.blake2b``; a
change to what is hashed, or how, fails here before it can remap a store
directory or a cluster.
"""

from __future__ import annotations

import hashlib

import _blake2
import pytest

from repro.cluster.ring import HashRing
from repro.core.groups import group_hash, group_id
from repro.core.protocol import tag_key
from repro.sketches.kmv import hash_to_unit
from repro.store.segment import canonical_key, key_hash

_ZERO = b"i" + bytes(8)
_ONE = b"i\x01" + bytes(7)

#: key tuple -> (its group id, the id's 64-bit BLAKE2b)
KEY_HASHES = {
    (0,): (_ZERO, 0xD9231905D3E987F2),
    (0.0,): (_ZERO, 0xD9231905D3E987F2),
    (-0.0,): (_ZERO, 0xD9231905D3E987F2),
    (1,): (_ONE, 0xC05C0C4EE869F697),
    (1.0,): (_ONE, 0xC05C0C4EE869F697),
    (True,): (_ONE, 0xC05C0C4EE869F697),
    (-1,): (b"i" + b"\xff" * 8, 0x002CB1D1DAB1D711),
    (2**63,): (b"I\x09\x00\x00\x00" + bytes(7) + b"\x80\x00", 0x45F5A040ADA99791),
    (1.5,): (b"f\x00\x00\x00\x00\x00\x00\xf8?", 0x86CD5672BA3D858C),
    (float("nan"),): (b"f\x00\x00\x00\x00\x00\x00\xf8\x7f", 0x39346D34D32BF162),
    (float("-nan"),): (b"f\x00\x00\x00\x00\x00\x00\xf8\x7f", 0x39346D34D32BF162),
    ("10.0.0.1",): (b"s\x08\x00\x00\x0010.0.0.1", 0xD18F1B583B100F88),
    (17, "10.0.0.1", 443): (
        b"i\x11" + bytes(7) + b"s\x08\x00\x00\x0010.0.0.1i\xbb\x01" + bytes(6),
        0xFB739C35AF370EA9,
    ),
    # UTF-8, never repr: repr of a non-ASCII str follows the
    # interpreter's Unicode tables.
    ("café ∑ 𐀀",): (
        b"s\x0e\x00\x00\x00caf\xc3\xa9 \xe2\x88\x91 \xf0\x90\x80\x80",
        0xE478315ABB27B18B,
    ),
    ("\ud800",): (b"s\x03\x00\x00\x00\xed\xa0\x80", 0x66F39401C315F1E6),
    (): (b"", 0xC3AFFFD8BF4F1B3C),
}

#: Items by their identity bytes (``group_id``; a flat tuple's marked):
#: equal spellings hash alike, a non-ASCII str by its UTF-8, never its repr.
ITEMS = [0, 1, -1, 2**64, 1.5, "", "10.0.0.1", ("ring", "a", 0),
         1.0, True, 0.0, -0.0, "café ∑ 𐀀", "a", ("a",), (1, "a", 2.5)]
#: seed -> float.hex() of hash_to_unit(item, seed) for each of ITEMS
UNIT_HASHES = {
    0: [
        "0x1.b246320ba7d31p-1",
        "0x1.80b8189dd0d3fp-1",
        "0x1.658e8ed58eb88p-11",
        "0x1.1b604127c4c23p-2",
        "0x1.0d9aace5747b1p-1",
        "0x1.438d7659005cdp-1",
        "0x1.a31e36b076202p-1",
        "0x1.08cc7de0ca9ccp-3",
        "0x1.80b8189dd0d3fp-1",
        "0x1.80b8189dd0d3fp-1",
        "0x1.b246320ba7d31p-1",
        "0x1.b246320ba7d31p-1",
        "0x1.c8f062b5764f6p-1",
        "0x1.099802baf3a35p-7",
        "0x1.6eb75ceba868fp-1",
        "0x1.292b1d7ad0deap-2",
    ],
    7: [
        "0x1.5e9582a07f311p-1",
        "0x1.2c574275de563p-1",
        "0x1.2da9754e0f21fp-1",
        "0x1.ca2bd33f8ef83p-1",
        "0x1.e0a670f89aeaep-1",
        "0x1.dc11b026ab023p-2",
        "0x1.41d752274bf8bp-1",
        "0x1.b52b985e9b4e2p-8",
        "0x1.2c574275de563p-1",
        "0x1.2c574275de563p-1",
        "0x1.5e9582a07f311p-1",
        "0x1.5e9582a07f311p-1",
        "0x1.2296b2aabdd3cp-2",
        "0x1.5a9fddd9c082fp-1",
        "0x1.8d18838ca71b4p-1",
        "0x1.b547a949eb5dcp-2",
    ],
    2**64 - 1: [
        "0x1.d0dc7c6066678p-2",
        "0x1.1b6c93dabe09dp-1",
        "0x1.2a8fbb51a8d0fp-3",
        "0x1.2668b8b4ed47ap-2",
        "0x1.80f23ca25d93bp-1",
        "0x1.fde4d19dabf94p-2",
        "0x1.65cf748b05054p-2",
        "0x1.0ee7933954f5ep-3",
        "0x1.1b6c93dabe09dp-1",
        "0x1.1b6c93dabe09dp-1",
        "0x1.d0dc7c6066678p-2",
        "0x1.d0dc7c6066678p-2",
        "0x1.654f6ab8bccccp-2",
        "0x1.46a7bef9abd8cp-1",
        "0x1.820211ff6d2cbp-2",
        "0x1.dccedef0922fdp-1",
    ],
}

#: HashRing(["a", "b", "c"]).node_for((key,)) for key in range(32)
RING_OWNERS = "accaacabbccbccbcaacbbabcacacccac"


def test_the_builtin_blake2_is_hashlibs():
    assert _blake2.blake2b is hashlib.blake2b


@pytest.mark.parametrize("key", list(KEY_HASHES), ids=repr)
def test_key_hash_goldens(key):
    gid, digest = KEY_HASHES[key]
    assert group_id(key) == gid
    assert group_hash(key) == digest
    assert digest == int.from_bytes(
        hashlib.blake2b(gid, digest_size=8, key=bytes(8)).digest(), "big"
    )
    # The record shape's tagged key names the same group.
    named = canonical_key([tag_key(part) for part in key])
    assert repr(named) == repr(key) and key_hash(named) == digest


@pytest.mark.parametrize("seed", list(UNIT_HASHES))
def test_hash_to_unit_goldens(seed):
    assert [hash_to_unit(item, seed).hex() for item in ITEMS] == UNIT_HASHES[seed]


def test_equal_items_hash_alike_by_their_identity_bytes():
    for seed in UNIT_HASHES:
        assert len({hash_to_unit(item, seed) for item in (1, 1.0, True)}) == 1
        assert len({hash_to_unit(item, seed) for item in (0, 0.0, -0.0, False)}) == 1
        assert hash_to_unit("a", seed) != hash_to_unit(("a",), seed)
    # A str's UTF-8 (its group id), never its repr, keyed by the seed.
    digest = hashlib.blake2b(
        group_id(("café ∑ 𐀀",)), digest_size=8, key=(7).to_bytes(8, "little")
    ).digest()
    assert hash_to_unit("café ∑ 𐀀", 7) == int.from_bytes(digest, "big") / 2**64


def test_ring_placement_goldens():
    ring = HashRing(["a", "b", "c"])
    assert "".join(ring.node_for((key,)) for key in range(32)) == RING_OWNERS
