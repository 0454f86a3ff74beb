"""What a group is: its one identity, and N groups' state as columns.

:func:`group_id` names a group on the engine table's equality classes;
:func:`group_hash`, its 64-bit BLAKE2b, is the one input of every
placement (:func:`~repro.parallel.routing.stable_route`, the cluster's
:class:`~repro.cluster.ring.HashRing`) and of the store's key directory.

A dict finds a NaN key only by identity, so wherever keys are built or
read back every NaN part is filed as one object (:func:`shared_nans`).

The group batch packs "the state of some groups" for the two places that
hold it as bytes, :meth:`repro.dsms.engine.QueryEngine.partial_state_bytes`
(every live group) and a :mod:`repro.store.segment` page (an eviction
batch), so a cold group on disk and the same group in a shipped blob are
the same column bytes.  A batch is a list of **slot codes**, one per
aggregate, and the columns of one :mod:`repro.core.cols` batch with a row
per group: the key-part columns first, then each aggregate's state
columns.  A slot code is the aggregate's state arity (that many scalar
columns), :data:`SUMMARY_SLOT` (one ``bytes`` column of
:meth:`~repro.core.protocol.StreamSummary.to_bytes` buffers) or
:data:`RAGGED_SLOT` (one column of scalar lists, when arity differs
between groups).  Callers pack the two with ``pack_column(slots)`` and
``pack_cols(cols)`` inside framing of their own.
"""

from __future__ import annotations

import struct
from operator import ne

# The built-in BLAKE2 that ``hashlib.blake2b`` is; importing it from here
# keeps ``hashlib`` — and the OpenSSL it maps — out of the process.
from _blake2 import blake2b

from repro.core.errors import ParameterError
from repro.core.protocol import StreamSummary

__all__ = [
    "SUMMARY_SLOT", "RAGGED_SLOT", "group_columns", "group_states", "group_id",
    "group_hash", "shared_nans",
]

#: Slot codes for aggregates whose state is not a fixed-arity scalar list.
SUMMARY_SLOT = -1
RAGGED_SLOT = -2

_INT = struct.Struct("<cq").pack  # b"i", an int in [-2**63, 2**63)
_FLOAT = struct.Struct("<cd").pack  # b"f", a float no int equals
_SIZED = struct.Struct("<cI").pack  # b"s" / b"I", then that many bytes
_NAN = b"f" + struct.pack("<Q", 0x7FF8_0000_0000_0000)  # one NaN for all
_INT_LIMIT = 1 << 63

#: The NaN every NaN key part is filed as.
NAN = float("nan")


def shared_nans(column):
    """``column`` (key parts) with every NaN the shared :data:`NAN`; the
    column itself when it holds no NaN (one C pass: only NaN != itself)."""
    if not any(map(ne, column, column)):
        return column
    return [NAN if part != part else part for part in column]


def group_id(key: tuple) -> bytes:
    """The bytes naming the group of key tuple ``key``, equal exactly for
    keys the engine's table holds as one group (DESIGN.md §5.1): ``1``,
    ``1.0`` and ``True`` pack as one int, every NaN as one float, a
    ``str`` as UTF-8 (``surrogatepass``), never its Unicode-table ``repr``."""
    if type(key) is not tuple:
        raise ParameterError(f"a group key is a tuple, got {type(key).__name__!r}")
    out = []
    add = out.append
    for part in key:
        kind = type(part)
        if kind is str:
            data = part.encode("utf-8", "surrogatepass")
            add(_SIZED(b"s", len(data)) + data)
        elif kind is float and not part.is_integer():
            add(_FLOAT(b"f", part) if part == part else _NAN)
        elif kind is int or kind is bool or kind is float:
            if kind is float:
                part = int(part)
            if -_INT_LIMIT <= part < _INT_LIMIT:
                add(_INT(b"i", part))
            else:
                data = part.to_bytes(part.bit_length() // 8 + 1, "little", signed=True)
                add(_SIZED(b"I", len(data)) + data)
        else:
            raise ParameterError(
                f"a group key part is int, float, str or bool, not {kind.__name__!r}"
            )
    return b"".join(out)


#: BLAKE2b keyed by eight zero bytes: a copy costs less than keying anew.
_HASHER = blake2b(digest_size=8, key=bytes(8))


def group_hash(key: tuple) -> int:
    """Where a group lives: the 64-bit BLAKE2b of its :func:`group_id`."""
    digest = _HASHER.copy()
    digest.update(group_id(key))
    return int.from_bytes(digest.digest(), "big")


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
    key_cols = map(shared_nans, cols[:key_parts])
    keys = list(zip(*key_cols)) if key_parts else [()] * groups
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
