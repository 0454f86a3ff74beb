"""The ``StreamSummary`` protocol: one interface for every decayed summary.

The paper's central decomposition (Theorem 1, Section IV) makes *every*
forward-decayed aggregate the same kind of object: static-weighted state
plus one query-time normalization, mergeable across substreams
(Section VI-B).  This module captures that observation as an abstract base
class shared by all three summary families in the library:

* the constant-space decayed aggregates (:mod:`repro.core.aggregates`) and
  the holistic decayed front-ends (heavy hitters, quantiles, distinct);
* the weighted sketches (:mod:`repro.sketches`);
* the decayed samplers (:mod:`repro.sampling`).

The contract:

``update(*args)``
    Fold one stream item.  The arity and meaning of the positional
    arguments is family-specific (``(timestamp, value)`` for aggregates,
    ``(item, weight)`` for weighted sketches, ``(item, timestamp)`` for
    decayed holistic summaries and samplers, a single argument for unary
    structures); the registry records each class's ``input_kind`` so
    generic drivers can build argument tuples.

``update_many(first, second=None)``
    Batch ingest of one or two equal-length columns.  The base-class
    default is a plain loop over :meth:`update` — semantically identical,
    so sketches and samplers accept batches with no extra code — while
    subclasses with closed-form reductions (the linear aggregates, the
    weight-engine front-ends) override it with vectorized paths.

``merge(other)``
    Absorb a summary built over a disjoint substream (Section VI-B).  The
    base-class default raises :class:`~repro.core.errors.MergeError`, and
    every incompatibility (wrong type, mismatched decay function or
    parameters) must raise ``MergeError`` too — never a bare ``ValueError``
    or an assert.

``query(*args)``
    The summary's primary answer (decayed count, quantile, heavy-hitter
    list, current sample, ...).

``to_bytes()`` / ``from_bytes(data)``
    Uniform binary serde: the version byte ``SERDE_VERSION``, the
    summary's registered type name, then its state payload packed by
    :mod:`repro.core.tree`.  Subclasses implement the payload hooks
    ``_state_payload`` / ``_from_payload`` — a JSON-compatible tree, so
    no class writes a layout — and randomized summaries capture their
    generator (two ints, see :mod:`repro.core.keyed_random`) so a restored
    sampler continues the exact random sequence of the original.
    A buffer of any other version is refused, never converted.
"""

from __future__ import annotations

import math
from abc import ABC
from typing import TYPE_CHECKING, Any, ClassVar, Sequence

from repro.core.errors import MergeError, ParameterError
from repro.core.tree import pack_tree, unpack_tree

if TYPE_CHECKING:
    from repro.core.keyed_random import KeyedRandom

__all__ = [
    "StreamSummary",
    "summary_type_of",
    "encode_number",
    "decode_number",
    "tag_key",
    "untag_key",
]


# -- JSON helpers shared by every summary's payload --------------------------------


def encode_number(value: float) -> object:
    """JSON has no inf/nan literals; encode them as tagged strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": repr(value)}
    return value


def decode_number(value: object) -> float:
    """Inverse of :func:`encode_number`."""
    if isinstance(value, dict) and "__float__" in value:
        return float(value["__float__"])
    return value  # type: ignore[return-value]


def tag_key(key: Any) -> list:
    """Encode a hashable stream item, preserving its Python type.

    JSON collapses ints/floats/strings used as dict keys; the tag keeps
    enough type information to reconstruct the original item exactly for
    the common hashable kinds (int, float, str, bool, None, flat tuples).
    """
    if isinstance(key, bool) or key is None:
        return ["literal", key]
    if isinstance(key, int):
        return ["int", key]
    if isinstance(key, float):
        return ["float", encode_number(key)]
    if isinstance(key, str):
        return ["str", key]
    if isinstance(key, tuple):
        return ["tuple", [tag_key(part) for part in key]]
    raise ParameterError(
        f"cannot serialize stream item of type {type(key).__name__!r}; "
        "supported item types: int, float, str, bool, None, tuple"
    )


def untag_key(tag: Sequence) -> Any:
    """Inverse of :func:`tag_key`."""
    kind, value = tag
    if kind == "literal":
        return value
    if kind == "int":
        return int(value)
    if kind == "float":
        return float(decode_number(value))
    if kind == "str":
        return value
    if kind == "tuple":
        return tuple(untag_key(part) for part in value)
    raise ParameterError(f"unknown key tag {kind!r}")


def dump_rng_state(rng: KeyedRandom) -> list:
    """A sampler's generator as its whole state: ``[key, words drawn]``."""
    return [rng.key, rng.words]


def load_rng_state(data: Sequence) -> KeyedRandom:
    """Inverse of :func:`dump_rng_state`; any other shape is a
    :class:`ParameterError`."""
    from repro.core.keyed_random import KeyedRandom  # samplers load it first

    if not isinstance(data, list) or len(data) != 2:
        raise ParameterError(
            f"a generator state is [key, words], got {str(data)[:40]}"
        )
    return KeyedRandom(*data)


# -- the protocol ------------------------------------------------------------------


def summary_type_of(data) -> str:
    """The registry name a ``to_bytes`` buffer declares.

    Read from the buffer's head alone — nothing is unpacked, looked up or
    instantiated — so an inspector can label a summary slot it only holds
    the bytes of.  Anything but a version-2 head is a
    :class:`ParameterError`.
    """
    head = bytes(data[:2 + 255])
    if not head:
        raise ParameterError("cannot deserialize an empty buffer")
    if head[0] != StreamSummary.SERDE_VERSION:
        raise ParameterError(
            f"unsupported summary serde version {head[0]} (this build reads "
            f"{StreamSummary.SERDE_VERSION})"
        )
    if len(head) < 2 or len(head) < 2 + head[1]:
        raise ParameterError("summary buffer ends inside its type name")
    try:
        return head[2:2 + head[1]].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"malformed summary type name: {exc}") from exc


class StreamSummary(ABC):
    """Abstract base for every decayed summary, sketch, and sampler.

    See the module docstring for the contract.  Concrete classes are
    registered under a stable name in :mod:`repro.core.registry`, which is
    what :meth:`to_bytes`/:meth:`from_bytes` use to dispatch.
    """

    #: Layout version of :meth:`to_bytes` buffers, their first byte.  One
    #: for every summary: the payload codec is generic.
    SERDE_VERSION: ClassVar[int] = 2

    # -- ingestion ---------------------------------------------------------------

    def update(self, *args: Any) -> None:
        """Fold one stream item (family-specific argument meaning)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement update()"
        )

    def update_many(self, first: Sequence, second: Sequence | None = None) -> None:
        """Batch ingest: fold one or two equal-length columns of arguments.

        Default implementation is a loop over :meth:`update` — exactly
        equivalent semantics (including RNG consumption order for
        randomized summaries).  Subclasses with closed-form or vectorized
        batch paths override this.
        """
        if second is None:
            for x in first:
                self.update(x)
            return
        if len(first) != len(second):
            raise ParameterError(
                f"column lengths differ: {len(first)} != {len(second)}"
            )
        for x, y in zip(first, second):
            self.update(x, y)

    # -- querying ----------------------------------------------------------------

    def query(self, *args: Any, **kwargs: Any):
        """Return the summary's primary answer."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement query()"
        )

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "StreamSummary") -> None:
        """Absorb ``other`` (a summary of a disjoint substream) into self.

        Summaries without a merge rule inherit this default, so *every*
        merge failure in the library — unsupported operation or
        incompatible operands — surfaces as ``MergeError``.
        """
        raise MergeError(
            f"{type(self).__name__} does not support merging"
        )

    # -- accounting --------------------------------------------------------------

    def state_size_bytes(self) -> int:
        """Approximate in-memory footprint of the summary state."""
        return 0

    # -- serde -------------------------------------------------------------------

    def _state_payload(self) -> dict:
        """Return a JSON-compatible dict capturing the full summary state."""
        raise ParameterError(
            f"{type(self).__name__} does not support serialization"
        )

    @classmethod
    def _from_payload(cls, payload: dict) -> "StreamSummary":
        """Rebuild a summary from :meth:`_state_payload` output."""
        raise ParameterError(
            f"{cls.__name__} does not support serialization"
        )

    def to_bytes(self) -> bytes:
        """Serialize: ``SERDE_VERSION``, name length, name, packed payload.

        ::

            | 2: u8 | n: u8 | registry name: n bytes | tree: to the end |

        The tree is :func:`repro.core.tree.pack_tree` of
        :meth:`_state_payload`.
        """
        from repro.core.registry import summary_name_of

        name = summary_name_of(type(self)).encode("utf-8")
        return b"".join((
            bytes((self.SERDE_VERSION, len(name))),
            name,
            pack_tree(self._state_payload()),
        ))

    @classmethod
    def from_bytes(cls, data: bytes | bytearray) -> "StreamSummary":
        """Restore any registered summary from :meth:`to_bytes` output.

        Callable on the base class (dispatches on the embedded type name)
        or on a concrete class (additionally checks the payload matches).
        Whatever is wrong with the buffer — its version, its framing, its
        tree, or a well-formed tree that is not this type's payload —
        raises :class:`ParameterError`.
        """
        data = bytes(data)
        name = summary_type_of(data)
        return cls._restore_payload(name, unpack_tree(data[2 + data[1]:]))

    @classmethod
    def _restore_payload(cls, name: str, payload) -> "StreamSummary":
        """The registered summary ``name`` rebuilt from ``payload`` (its
        :meth:`_state_payload` tree), where the name must be ``cls`` or a
        subclass.  Any defect is a :class:`ParameterError` naming the type."""
        from repro.core.registry import get_summary

        target = get_summary(name).cls
        if not issubclass(target, cls):
            raise ParameterError(
                f"buffer holds a {target.__name__}, not a {cls.__name__}"
            )
        try:
            return target._from_payload(payload)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError,
                ArithmeticError) as exc:
            raise ParameterError(
                f"malformed {name} summary buffer: its payload is not that "
                f"of a {target.__name__}: {type(exc).__name__}: {exc}"
            ) from exc
