"""Consistent hashing over named nodes (the cluster's placement function).

Generalizes :func:`repro.parallel.routing.stable_route` from "key modulo
``n`` shards" to a hash ring with virtual nodes: every node owns
``_VNODES`` points on the unit circle, and a key belongs to the first
point at or after its own hash position (wrapping).  Two properties make
this the right placement for a fleet:

* **Determinism.**  Positions come from :func:`~repro.sketches.kmv.
  hash_to_unit` (blake2b over ``repr``), so the same membership routes
  the same keys identically across processes, runs, and hosts — the
  coordinator can be restarted without remapping anything.
* **Minimal movement.**  Adding or removing one node reassigns only the
  keys in that node's arcs (an expected ``1/n`` fraction); everything
  else keeps its owner.  Since Section VI-B partial states merge
  exactly, the keys that *do* move need no state migration at all —
  merge-at-query combines the old and new owners' contributions.

``_VNODES`` trades balance for ring size: more points smooth the
per-node load spread (64 keeps the worst node within a few percent of
fair for small fleets).
"""

from __future__ import annotations

import bisect

from repro.core.errors import ParameterError
from repro.sketches.kmv import hash_to_unit

__all__ = ["HashRing"]

#: Points each node places on the ring.
_VNODES = 64

#: The BLAKE2 key every position is hashed under.
_SEED = 0


class HashRing:
    """A consistent-hash ring mapping keys to named nodes.

    Nodes are identified by string name; positions are derived from
    ``(name, replica)`` so a node's arcs are a pure function of its name
    (and of ``_VNODES`` / ``_SEED``, read once when the ring is built).
    """

    def __init__(self, nodes=()):
        self.vnodes = _VNODES
        self.seed = _SEED
        self._points: list[tuple[float, str]] = []
        self._positions: list[float] = []
        self._names: set[str] = set()
        for name in nodes:
            self.add(name)

    def _rebuild(self) -> None:
        self._points.sort()
        self._positions = [position for position, __ in self._points]

    def add(self, name: str) -> None:
        """Place ``name``'s virtual nodes on the ring."""
        if not isinstance(name, str) or not name:
            raise ParameterError(f"node name must be a non-empty str, got {name!r}")
        if name in self._names:
            raise ParameterError(f"node {name!r} is already on the ring")
        self._names.add(name)
        for replica in range(self.vnodes):
            position = hash_to_unit(("ring", name, replica), seed=self.seed)
            self._points.append((position, name))
        self._rebuild()

    def remove(self, name: str) -> None:
        """Take ``name`` off the ring; its arcs fall to their successors."""
        if name not in self._names:
            raise ParameterError(f"node {name!r} is not on the ring")
        self._names.remove(name)
        self._points = [p for p in self._points if p[1] != name]
        self._rebuild()

    def node_for(self, key: object) -> str:
        """The node owning ``key``: first ring point at or after its hash."""
        if not self._points:
            raise ParameterError("ring has no nodes")
        position = hash_to_unit(key, seed=self.seed)
        index = bisect.bisect_left(self._positions, position)
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    @property
    def nodes(self) -> tuple[str, ...]:
        """Current membership, sorted by name."""
        return tuple(sorted(self._names))

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    def spread(self, keys) -> dict[str, int]:
        """How many of ``keys`` each node owns (diagnostic, not hot path)."""
        counts = {name: 0 for name in self._names}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
