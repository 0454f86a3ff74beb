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

ITEMS = [0, 1, -1, 2**64, 1.5, "", "10.0.0.1", ("ring", "a", 0)]
#: seed -> float.hex() of hash_to_unit(item, seed) for each of ITEMS
UNIT_HASHES = {
    0: [
        "0x1.0ce7dee420684p-1",
        "0x1.a80734b6ba8efp-2",
        "0x1.cb8c05e28eacdp-1",
        "0x1.30dcb712dab3dp-1",
        "0x1.e003026f3e049p-1",
        "0x1.27e14b663fb53p-1",
        "0x1.b74e00079f921p-1",
        "0x1.6d21b4f1b75c5p-3",
    ],
    7: [
        "0x1.375820e645a3bp-1",
        "0x1.532e6e00f398ep-1",
        "0x1.b9c9a3f354b04p-1",
        "0x1.7550c9334f291p-1",
        "0x1.4857968adebd1p-1",
        "0x1.b206aa0e444fap-1",
        "0x1.e90a27a472868p-1",
        "0x1.48ce60ef66c55p-1",
    ],
    2**64 - 1: [
        "0x1.5d6f3e186a191p-8",
        "0x1.4f3d34967c926p-4",
        "0x1.33a1fc52c8522p-3",
        "0x1.8d2cd5221333cp-1",
        "0x1.ea6ac2bec7d6ep-1",
        "0x1.9f34f9f355e15p-1",
        "0x1.b1e41e66c9ed2p-1",
        "0x1.f00d6a8eeb03bp-2",
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


def test_ring_placement_goldens():
    ring = HashRing(["a", "b", "c"])
    assert "".join(ring.node_for((key,)) for key in range(32)) == RING_OWNERS
