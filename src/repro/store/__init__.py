"""Tiered group-state storage: hot RAM tier + cold on-disk segments.

The millions-of-groups answer to the paper's fixed-numerator observation
(Sections IV, VI-B): because a group's partial state under forward decay
is a mergeable, location-independent blob, cold groups can live on disk
and fault back in exactly — tiered query results are byte-identical to
the all-RAM engine.

* :class:`TieredStore` — attach to one
  :class:`~repro.dsms.engine.QueryEngine` via its ``store=`` argument;
  bounds hot groups, spills by decayed touch weight, checkpoints via
  segment references.
* :class:`SegmentWriter` / :class:`SegmentReader` — the append-only,
  CRC-checked segment format itself: column-packed pages of groups
  (version 8, the only one read: an older file is refused).
* :func:`describe_store` — the ``repro store inspect`` report of one
  store directory: its manifest, read as recovery reads it, and every
  segment's pages, rows and column encodings.
* :class:`StoreError` — structured corruption/inconsistency failures,
  carrying the offending segment and offset.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".tiered": (
            "TieredStore", "MANIFEST_NAME", "MANIFEST_VERSION", "describe_store",
        ),
        ".directory": ("KeyDirectory",),
        ".segment": (
            "SegmentReader", "SegmentWriter", "SEGMENT_VERSION", "canonical_key",
            "read_record_at",
        ),
        "repro.core.errors": ("StoreError",),
    },
)
