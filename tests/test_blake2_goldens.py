"""Every hashed byte, pinned: the store's key hash, the unit hash behind
KMV / count-min / routing, and the cluster ring's placement.

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
from repro.core.protocol import tag_key
from repro.sketches.kmv import hash_to_unit
from repro.store.segment import canonical_key, key_hash

#: key tuple -> (canonical key string, its 64-bit key hash)
KEY_HASHES = {
    (0,): ('[["int",0]]', 0xA9AE9C993D34502E),
    (1,): ('[["int",1]]', 0x3A7C69A5657E3051),
    (-1,): ('[["int",-1]]', 0xE6E03ACBA9F140FC),
    (2**63,): ('[["int",9223372036854775808]]', 0xD024D1422FFACCD4),
    (1.5,): ('[["float",1.5]]', 0x16FEC89D9D57DDDE),
    ("10.0.0.1",): ('[["str","10.0.0.1"]]', 0x076FDE6810A96578),
    (17, "10.0.0.1", 443): (
        '[["int",17],["str","10.0.0.1"],["int",443]]',
        0xD5E500426A24B7E6,
    ),
    (None, True, ("nested", -0.0)): (
        '[["literal",null],["literal",true],'
        '["tuple",[["str","nested"],["float",-0.0]]]]',
        0x195DE71486CF485C,
    ),
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

#: HashRing(["a", "b", "c"]).node_for(key) for key in range(32)
RING_OWNERS = "cabbcaabbcaccbccccccbcacbbcbabbb"


def test_the_builtin_blake2_is_hashlibs():
    assert _blake2.blake2b is hashlib.blake2b


@pytest.mark.parametrize("key", list(KEY_HASHES), ids=repr)
def test_key_hash_goldens(key):
    canonical, digest = KEY_HASHES[key]
    assert canonical_key([tag_key(part) for part in key]) == canonical
    assert key_hash(canonical) == digest


@pytest.mark.parametrize("seed", list(UNIT_HASHES))
def test_hash_to_unit_goldens(seed):
    assert [hash_to_unit(item, seed).hex() for item in ITEMS] == UNIT_HASHES[seed]


def test_ring_placement_goldens():
    ring = HashRing(["a", "b", "c"])
    assert "".join(ring.node_for(key) for key in range(32)) == RING_OWNERS
