"""Hash-ring placement: determinism, balance, and minimal movement."""

from __future__ import annotations

import collections

import pytest

from repro.cluster import HashRing, ring as ring_module
from repro.core.errors import ParameterError

KEYS = [(f"key-{i}",) for i in range(2000)]


class TestDeterminism:
    def test_same_membership_routes_identically(self):
        a = HashRing(["n0", "n1", "n2"])
        b = HashRing(["n2", "n0", "n1"])  # insertion order is irrelevant
        assert [a.node_for(k) for k in KEYS] == [b.node_for(k) for k in KEYS]

    def test_tuple_and_scalar_keys_route(self):
        ring = HashRing(["n0", "n1"])
        for key in [("a", 1), (42,), (3.5,), ("x",), (True,), ()]:
            assert ring.node_for(key) in ("n0", "n1")

    def test_every_spelling_of_a_group_has_one_node(self):
        ring = HashRing(["n0", "n1", "n2"])
        for spellings in [[(0.0,), (-0.0,), (0,), (False,)], [(1,), (1.0,), (True,)]]:
            assert len({ring.node_for(key) for key in spellings}) == 1

    def test_a_bare_value_is_not_a_group_key(self):
        with pytest.raises(ParameterError, match="tuple"):
            HashRing(["n0"]).node_for("k")


class TestBalance:
    def test_vnodes_spread_load_roughly_evenly(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        counts = collections.Counter(map(ring.node_for, KEYS))
        fair = len(KEYS) / 4
        for name, count in counts.items():
            assert 0.5 * fair < count < 1.6 * fair, (name, count)

    @pytest.mark.parametrize("vnodes", [1, 64])
    def test_each_node_places_the_constant_number_of_points(
        self, monkeypatch, vnodes
    ):
        monkeypatch.setattr(ring_module, "_VNODES", vnodes)
        ring = HashRing(["n0", "n1", "n2"])
        assert len(ring._points) == 3 * vnodes
        ring.remove("n1")
        assert len(ring._points) == 2 * vnodes

    def test_single_node_owns_everything(self):
        ring = HashRing(["only"])
        assert collections.Counter(map(ring.node_for, KEYS)) == {"only": len(KEYS)}


class TestMinimalMovement:
    def test_adding_a_node_only_moves_keys_to_it(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.add("n3")
        moved = stayed = 0
        for k in KEYS:
            after = ring.node_for(k)
            if after != before[k]:
                # every remapped key lands on the new node, never on a
                # reshuffled old one
                assert after == "n3", (k, before[k], after)
                moved += 1
            else:
                stayed += 1
        # an expected 1/4 of keys move; allow generous slack
        assert 0.10 * len(KEYS) < moved < 0.45 * len(KEYS)
        assert stayed > moved

    def test_removing_a_node_only_moves_its_keys(self):
        ring = HashRing(["n0", "n1", "n2", "n3"])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.remove("n1")
        for k in KEYS:
            if before[k] != "n1":
                assert ring.node_for(k) == before[k], k
            else:
                assert ring.node_for(k) != "n1"

    def test_add_then_remove_restores_placement(self):
        ring = HashRing(["n0", "n1", "n2"])
        before = {k: ring.node_for(k) for k in KEYS}
        ring.add("n3")
        ring.remove("n3")
        assert {k: ring.node_for(k) for k in KEYS} == before


class TestMembership:
    def test_nodes_are_sorted(self):
        ring = HashRing(["b", "a", "c"])
        assert ring.nodes == ("a", "b", "c")
        assert len(ring) == 3
        assert "a" in ring and "z" not in ring

    def test_duplicate_add_rejected(self):
        ring = HashRing(["n0"])
        with pytest.raises(ParameterError):
            ring.add("n0")

    def test_remove_unknown_rejected(self):
        ring = HashRing(["n0"])
        with pytest.raises(ParameterError):
            ring.remove("n1")

    def test_empty_ring_cannot_route(self):
        ring = HashRing()
        with pytest.raises(ParameterError):
            ring.node_for(("k",))

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            HashRing([""])
