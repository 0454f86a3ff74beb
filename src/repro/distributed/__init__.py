"""Distributed execution of forward-decayed aggregation.

Operationalizes Section VI-B (multi-site merging) and the Section IX
outlook (MapReduce-style processing):

* :mod:`repro.distributed.simulation` — per-site summaries with hash or
  round-robin partitioning and snapshot merging;
* :mod:`repro.distributed.mapreduce` — decayed aggregation as a simulated
  map / combine / shuffle / reduce job.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".simulation": (
            "DistributedAggregation", "hash_partitioner", "round_robin_partitioner",
        ),
        ".mapreduce": (
            "decayed_map_reduce", "decayed_map_reduce_by_name", "MapReduceResult",
        ),
    },
)
