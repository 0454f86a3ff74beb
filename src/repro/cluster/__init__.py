"""Multi-node cluster tier: the router over a ``StreamServer`` fleet.

A :class:`~repro.cluster.coordinator.Coordinator` consistent-hashes
group keys across serving nodes (:class:`~repro.cluster.ring.HashRing`)
and answers byte-identically to one in-process engine by folding their
partial states; nodes run in-process (:class:`~repro.cluster.nodes.
LocalNode`) or as ``repro serve`` processes (:class:`~repro.cluster.
nodes.ProcessNode`).  From the shell: ``python -m repro cluster "<query>"
--nodes 3``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".coordinator": ("Coordinator",),
        ".ring": ("HashRing",),
        ".nodes": ("LocalNode", "ProcessNode"),
    },
)
