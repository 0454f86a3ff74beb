"""Multi-node cluster tier: a coordinator-routed ``StreamServer`` fleet.

The distributed deployment of the Section VI-B merge property.  A
:class:`~repro.cluster.coordinator.Coordinator` consistent-hashes group
keys across N serving nodes (:class:`~repro.cluster.ring.HashRing`),
forwards batches over the serve wire protocol under credit-window
backpressure, and answers queries by folding every node's partial-state
blobs with :func:`~repro.dsms.engine.fold_partials` — byte-identical to one
in-process engine, because fixed-numerator partial states merge exactly
regardless of placement.

Nodes run in-process (:class:`~repro.cluster.nodes.LocalNode`) or as
real ``repro serve`` OS processes (:class:`~repro.cluster.nodes.
ProcessNode`); a SIGKILLed node is respawned from its last checkpoint
with exact lost-row accounting, and membership changes move either no
state (``add_node``) or one node's blobs (``decommission`` + ``ADOPT``).

Try it from the shell: ``python -m repro cluster "<query>" --nodes 3``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".coordinator": ("Coordinator", "NodeFailure"),
        ".ring": ("HashRing",),
        ".nodes": ("LocalNode", "ProcessNode"),
    },
)
