"""Consistent hashing over named nodes (the cluster's placement function).

Generalizes :func:`repro.parallel.routing.stable_route` from "key modulo
``n`` shards" to a hash ring with virtual nodes: every node owns
``_VNODES`` points on a circle of ``2**64`` positions, and a group key
belongs to the first point at or after its own position (wrapping).  Two
properties make this the right placement for a fleet:

* **Determinism.**  A position is a :func:`~repro.core.groups.group_hash`
  (a key's, or ``("ring", name, replica)``'s for a node point), so one
  membership routes every spelling of a group to one node in every
  process, run and host: a coordinator restarts without remapping.
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
from repro.core.groups import group_hash

__all__ = ["HashRing"]

#: Points each node places on the ring.
_VNODES = 64


class HashRing:
    """A consistent-hash ring mapping keys to named nodes.

    Nodes are identified by string name; positions are derived from
    ``(name, replica)`` so a node's arcs are a pure function of its name
    (and of ``_VNODES``, read when a node is added).
    """

    def __init__(self, nodes=()):
        #: ``(position, name)`` of every node point, in ring order.
        self._points: list[tuple[int, str]] = []
        self._positions: list[int] = []
        self._names: set[str] = set()
        for name in nodes:
            self.add(name)

    def _place(self, points) -> None:
        self._points = sorted(points)
        self._positions = [position for position, _name in self._points]

    def add(self, name: str) -> None:
        """Place ``name``'s virtual nodes on the ring."""
        if not isinstance(name, str) or not name:
            raise ParameterError(f"node name must be a non-empty str, got {name!r}")
        if name in self._names:
            raise ParameterError(f"node {name!r} is already on the ring")
        self._names.add(name)
        self._place(self._points + [
            (group_hash(("ring", name, replica)), name)
            for replica in range(_VNODES)
        ])

    def remove(self, name: str) -> None:
        """Take ``name`` off the ring; its arcs fall to their successors."""
        if name not in self._names:
            raise ParameterError(f"node {name!r} is not on the ring")
        self._names.remove(name)
        self._place(p for p in self._points if p[1] != name)

    def node_for(self, key: tuple) -> str:
        """The node owning group ``key``: first ring point at or after its
        group hash."""
        if not self._points:
            raise ParameterError("ring has no nodes")
        index = bisect.bisect_left(self._positions, group_hash(key))
        return self._points[index % len(self._points)][1]

    @property
    def nodes(self) -> tuple[str, ...]:
        """Current membership, sorted by name."""
        return tuple(sorted(self._names))

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)
