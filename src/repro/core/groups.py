"""The group batch: N groups' keys and aggregate states as columns.

One packing of "the state of some groups", shared by the two places that
hold it as bytes: :meth:`repro.dsms.engine.QueryEngine.partial_state_bytes`
(one batch with every live group) and a :mod:`repro.store.segment` page
(one batch per eviction batch).  Because both go through
:func:`group_columns` / :func:`group_states`, a cold group on disk and the
same group in a shipped blob are the same column bytes — the Section VI-B
point that fixed numerators make partial state location-independent.

A batch is a list of **slot codes**, one per aggregate, and the columns of
one :mod:`repro.core.cols` batch with a row per group: the key-part
columns first, then each aggregate's state columns.  A slot code is the
aggregate's state arity (that many scalar columns), or
:data:`SUMMARY_SLOT` (one ``bytes`` column of
:meth:`~repro.core.protocol.StreamSummary.to_bytes` buffers) or
:data:`RAGGED_SLOT` (one column of scalar lists, when arity differs
between groups).  Callers pack the two with ``pack_column(slots)`` and
``pack_cols(cols)`` inside framing of their own.
"""

from __future__ import annotations

from repro.core.protocol import StreamSummary

__all__ = ["SUMMARY_SLOT", "RAGGED_SLOT", "group_columns", "group_states"]

#: Slot codes for aggregates whose state is not a fixed-arity scalar list.
SUMMARY_SLOT = -1
RAGGED_SLOT = -2


def group_columns(
    keys: list[tuple], rows: list[list], aggregates: int
) -> tuple[list[int], list]:
    """``(slot codes, columns)`` of a batch of groups.

    ``rows[i]`` holds group ``keys[i]``'s states, one per aggregate: a
    scalar list, a live :class:`StreamSummary`, or a summary already
    serialized (a cold group read back from a page).  A batch without
    groups has no slots and no columns.
    """
    cols: list = list(zip(*keys))
    slots: list[int] = []
    for index in range(aggregates if rows else 0):
        states = [row[index] for row in rows]
        if isinstance(states[0], (StreamSummary, bytes)):
            slots.append(SUMMARY_SLOT)
            cols.append(
                [s if type(s) is bytes else s.to_bytes() for s in states]
            )
            continue
        try:
            cols.extend(list(zip(*states, strict=True)))
            slots.append(len(states[0]))
        except ValueError:  # arity differs between groups
            slots.append(RAGGED_SLOT)
            cols.append([list(state) for state in states])
    return slots, cols


def group_states(
    slots: list, cols: list, key_parts: int, groups: int
) -> tuple[list[tuple], list[list]]:
    """Inverse of :func:`group_columns`: ``(keys, states per aggregate)``.

    ``cols`` are the unpacked columns of ``groups`` rows.  The result's
    second half is aggregate-major — ``states[a][i]`` is group ``i``'s
    state for aggregate ``a``: a fresh scalar list, or the summary's
    ``to_bytes`` buffer, left serialized.  Slot codes that are not slot
    codes, or that do not account for exactly the columns present, raise
    :class:`ValueError`.
    """
    widths = [code if code >= 0 else 1 for code in slots if type(code) is int]
    if (
        len(widths) != len(slots)
        or min(slots, default=0) < RAGGED_SLOT
        or len(cols) != (key_parts + sum(widths) if groups else 0)
    ):
        raise ValueError("slot codes do not match the batch's columns")
    keys = list(zip(*cols[:key_parts])) if key_parts else [()] * groups
    states = []
    at = key_parts
    for code, width in zip(slots, widths):
        if code == SUMMARY_SLOT:
            decoded = cols[at]
        elif code == RAGGED_SLOT:
            decoded = [list(state) for state in cols[at]]
        elif code:
            decoded = list(map(list, zip(*cols[at:at + code])))
        else:
            decoded = [[] for _ in range(groups)]
        states.append(decoded)
        at += width
    return keys, states
