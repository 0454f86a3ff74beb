"""One hostile-input sweep for every decoder (rows: tests/test_hostile.py).

:func:`sweep` feeds a :class:`Row`'s decoder every mutant of its bytes —
each truncation (which must be refused), each XOR mask and overwrite
value at every byte (or at ``positions``), the ``refuse`` mutants (which
must be refused) and the ``extra`` ones.  A refusal must raise the row's
one ``error``, pass ``refusal`` and leave a ``fresh`` target
``untouched``; a decoded mutant must equal the reference decode, or for
a codec without a checksum satisfy ``accept``.  ``refused_share`` bounds
the refusals from below, ``ceiling`` what mutants allocate under
tracemalloc (which slows a decoder tenfold: a traced row sets ``cuts``
false and leaves its truncations to a sibling row).  ``headroom`` is the
cheap, coarser ceiling: the address space the mutants may add to the
process, an ``RLIMIT_AS`` the kernel enforces at no cost per allocation
(a mutant past it raises ``MemoryError``; tracemalloc where there is no
``/proc``).
"""

from __future__ import annotations

import os
import resource
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Iterable

BITS = tuple(1 << bit for bit in range(8))  # every single-bit flip
BYTE_MASKS = (0x01, 0x80, 0xFF)  # low bit, high bit, whole byte


def bit_flips(data: bytes):
    """``data`` once per bit, that bit flipped, in bit order."""
    for index in range(len(data)):
        for mask in BITS:
            damaged = bytearray(data)
            damaged[index] ^= mask
            yield bytes(damaged)


def any_value(value, reference) -> bool:
    """``accept`` for a codec without a checksum: any value it decodes."""
    return True


@dataclass
class Row:
    data: bytes
    decode: Callable
    error: type
    masks: tuple = BITS
    values: tuple = ()
    refuse: Iterable[bytes] = ()
    extra: Iterable[bytes] = ()
    accept: Callable | None = None
    refusal: Callable | None = None
    fresh: Callable | None = None
    untouched: Callable | None = None
    refused_share: float = 0.0
    ceiling: int | None = None
    headroom: int | None = None
    cuts: bool = True
    positions: list | None = None


def _mutants(row: Row):
    """``(must be refused, mutant, label)`` for each mutant."""
    data = row.data
    positions = range(len(data)) if row.positions is None else row.positions
    for cut in positions if row.cuts else ():
        yield True, data[:cut], ("cut", cut)
    for index in positions:
        for byte in [data[index] ^ mask for mask in row.masks] + list(row.values):
            damaged = bytearray(data)
            damaged[index] = byte
            yield False, bytes(damaged), ("byte", index, byte)
    for number, mutant in enumerate(row.refuse):
        yield True, mutant, ("refuse", number)
    for number, mutant in enumerate(row.extra):
        yield False, mutant, ("extra", number)


def _cap_address_space(headroom: int):
    """Cap this process's address space ``headroom`` bytes above its size;
    the limits to restore, or None where there is no ``/proc``."""
    if not os.path.exists("/proc/self/statm"):
        return None
    limits = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as handle:
        size = int(handle.read().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (size + headroom, limits[1]))
    return limits


def sweep(row: Row) -> None:
    """Judge every mutant of ``row``; see the module docstring."""
    decode, fresh = row.decode, row.fresh
    reference = decode(row.data) if fresh is None else decode(fresh(), row.data)
    refused = total = 0
    ceiling, limits = row.ceiling, None
    if row.headroom is not None:
        limits = _cap_address_space(row.headroom)
        ceiling = row.headroom if limits is None else ceiling
    if ceiling is not None:
        tracemalloc.start()
    try:
        for must_refuse, mutant, label in _mutants(row):
            total += 1
            target = None if fresh is None else fresh()
            try:
                value = decode(mutant) if fresh is None else decode(target, mutant)
            except row.error as error:
                refused += 1
                assert row.refusal is None or row.refusal(error), (label, error)
                assert row.untouched is None or row.untouched(target), label
                continue
            except MemoryError:
                raise AssertionError(f"{label} allocated past the headroom") from None
            assert not must_refuse, f"{label} was not refused"
            assert (
                value == reference if row.accept is None
                else row.accept(value, reference)
            ), f"{label} decoded to a different value"
        if ceiling is not None:
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < ceiling, f"a mutant allocated {peak >> 20} MiB"
    finally:
        if ceiling is not None:
            tracemalloc.stop()
        if limits is not None:
            resource.setrlimit(resource.RLIMIT_AS, limits)
    assert refused >= row.refused_share * total, (refused, total)
