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
    :mod:`repro.core.tree`.  A buffer of any other version is refused,
    never converted.

Declared state
    Each summary declares its state once, as ``_FIELDS``: one
    :class:`Field` per payload key, with a shape whose values each have a
    role — a ``weight`` is multiplied by a landmark shift's factor
    (Section VI-A), a ``log_weight`` shifted by its log, an ``exact``
    value never changes.  :class:`DeclaredState` derives the rest: the
    payload tree and its checked restore, the initial state,
    ``state_size_bytes``, ``scale`` and the merge of folded fields.
    Samplers declare their generator (two ints), so a restored sampler
    continues the exact random sequence of the original.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from abc import ABC
from functools import reduce
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Sequence

from repro.core.errors import MergeError, ParameterError
from repro.core.tree import pack_tree, unpack_tree

if TYPE_CHECKING:
    from repro.core.decay import ForwardDecay
    from repro.core.keyed_random import KeyedRandom

__all__ = [
    "StreamSummary",
    "DeclaredState",
    "Field",
    "summary_type_of",
    "encode_number",
    "decode_number",
    "tag_key",
    "untag_key",
]


# -- tagged values: the RESULT body and the segment record shape --------------------


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


#: The ``g`` classes of :mod:`repro.core.functions` that round-trip.  A
#: server loads this module without them, so the decay model is imported
#: by the function that rebuilds one.
_G_CLASSES = (
    "NoDecayG",
    "PolynomialG",
    "GeneralPolynomialG",
    "ExponentialG",
    "LandmarkWindowG",
    "LogarithmicG",
)


def dump_decay(decay: ForwardDecay) -> dict:
    """Serialize a :class:`ForwardDecay` (function class + parameters)."""
    g = decay.g
    name = type(g).__name__
    if name not in _G_CLASSES:
        raise ParameterError(
            f"cannot serialize custom decay function {name!r}; "
            "register it with the library's function classes"
        )
    return {"g": name, "params": dataclasses.asdict(g), "landmark": decay.landmark}


def load_decay(data: dict) -> ForwardDecay:
    """Inverse of :func:`dump_decay`."""
    from repro.core import functions
    from repro.core.decay import ForwardDecay

    if data["g"] not in _G_CLASSES:
        raise ParameterError(f"unknown decay function class {data['g']!r}")
    cls = getattr(functions, data["g"])
    return ForwardDecay(cls(**data["params"]), landmark=data["landmark"])


# -- declared state ----------------------------------------------------------------

#: What a landmark shift by ``factor`` (Section VI-A) does to a value.
WEIGHT = "weight"  # multiplied by the factor
LOG_WEIGHT = "log_weight"  # shifted by ln(factor)
EXACT = "exact"  # unchanged


def _fresh(initial):
    """``initial`` with each type in it called for a fresh instance."""
    if isinstance(initial, tuple):
        return tuple(map(_fresh, initial))
    return initial() if isinstance(initial, type) else initial


class Shape:
    """How stored values travel, scale and count.  A shape answers each
    call for one value or, in its ``_all`` form, for a column of them;
    a subclass implements one form of each and inherits the other."""

    #: The roles of the values inside.
    roles = frozenset((EXACT,))

    @property
    def scales(self) -> bool:
        """Whether a landmark shift changes anything held here."""
        return not self.roles <= {EXACT}

    def dump(self, value):
        """``value`` as a payload tree."""
        return self.dump_all((value,))[0]

    def dump_all(self, values) -> list:
        """:meth:`dump` of each of ``values``."""
        return [self.dump(value) for value in values]

    def load(self, tree, payload: dict, what: str):
        """The value ``tree`` holds, checked; ``payload`` is the whole
        payload and ``what`` the field's key, for errors."""
        return self.load_all((tree,), payload, what)[0]

    def load_all(self, trees, payload: dict, what: str) -> list:
        """:meth:`load` of each of ``trees``."""
        return [self.load(tree, payload, what) for tree in trees]

    def scale(self, value, factor: float):
        """``value`` after a landmark shift by ``factor``."""
        return self.scale_all((value,), factor)[0]

    def scale_all(self, values, factor: float) -> list:
        """:meth:`scale` of each of ``values``."""
        return [self.scale(value, factor) for value in values]

    def size(self, value, entry_bytes: int) -> int:
        """What ``state_size_bytes`` counts: ``entry_bytes`` per entry,
        plus what nested summaries hold."""
        return entry_bytes


class Value(Shape):
    """One stored value: its role, its ``(dump, load)`` codec for an object
    (``None``: the value as itself, :mod:`repro.core.tree` keeps its type)
    and its domain — ``nonneg`` refuses a negative or NaN value on restore,
    for a weight ``update`` never stores negative."""

    def __init__(self, role: str = EXACT, codec: tuple = (None, None), *,
                 nonneg: bool = False):
        self.roles = frozenset((role,))
        self._dump, self._load = codec
        self.nonneg = nonneg

    def dump_all(self, values) -> list:
        return list(values if self._dump is None else map(self._dump, values))

    def load_all(self, trees, payload: dict, what: str) -> list:
        values = trees if self._load is None else list(map(self._load, trees))
        if self.nonneg and not all(map(operator.le, repeat(0.0), values)):
            bad = next(value for value in values if not 0 <= value)
            raise ParameterError(f"{what} holds {bad!r}, not a weight >= 0")
        return values

    def scale_all(self, values, factor: float) -> list:
        if WEIGHT in self.roles:
            return [value * factor for value in values]
        if LOG_WEIGHT in self.roles:
            shift = math.log(factor)
            return [value + shift for value in values]
        return list(values)


RAW = Value()
GENERATOR = Value(codec=(dump_rng_state, load_rng_state))


class ListOf(Shape):
    """A list of ``inner`` shapes — a set, written sorted, with
    ``kind=set`` — whose length another field may fix (``length``: its
    key, or a function of the payload) or cap (``most``: its key)."""

    def __init__(self, inner: Shape, *, kind: type = list,
                 length: str | Callable | None = None, most: str | None = None):
        self.inner = inner
        self.kind = kind
        self.length = length
        self.most = most
        self.roles = inner.roles

    def _entries(self, tree, payload: dict, what: str) -> list:
        # ``tree``, refused unless it is a list of a length its bounds allow.
        if type(tree) is not list:
            raise ParameterError(f"{what} is a {type(tree).__name__}, not a list")
        if self.length is not None:
            named = isinstance(self.length, str)
            want = payload[self.length] if named else self.length(payload)
            if len(tree) != want:
                raise ParameterError(f"{self.length if named else 'its grid'} is "
                                     f"{want!r} but the payload carries {len(tree)} {what}")
        if self.most is not None and len(tree) > payload[self.most]:
            raise ParameterError(f"{len(tree)} {what}, over {self.most} = {payload[self.most]!r}")
        return tree

    def dump(self, value):
        return self.inner.dump_all(sorted(value) if self.kind is set else value)

    def load(self, tree, payload: dict, what: str):
        entries = self._entries(tree, payload, what)
        return self.kind(self.inner.load_all(entries, payload, what))

    def scale(self, value, factor: float):
        return self.inner.scale_all(value, factor)

    def size(self, value, entry_bytes: int) -> int:
        if isinstance(self.inner, Value):
            return entry_bytes * len(value)
        return sum(self.inner.size(entry, entry_bytes) for entry in value)


class Records(ListOf):
    """A list of rows, one shape per column: tuples, or instances of
    ``row``, whose ``__slots__`` name the columns.  ``heap`` refuses rows
    that are not in :mod:`heapq` order."""

    def __init__(self, *columns: Shape, row: type | None = None,
                 heap: bool = False, **bounds):
        super().__init__(RAW, **bounds)
        self.columns = columns
        self.row = row
        self.heap = heap
        self.roles = frozenset().union(*(column.roles for column in columns))

    def _columns(self, value) -> list:  # value as one sequence per column
        if self.row is None:
            return list(zip(*value)) or [()] * len(self.columns)
        return [list(map(operator.attrgetter(name), value))
                for name in self.row.__slots__]

    def _rows(self, columns: list):  # inverse of _columns
        return list(zip(*columns) if self.row is None else map(self.row, *columns))

    def dump(self, value):
        return list(map(list, zip(*(
            column.dump_all(cells)
            for column, cells in zip(self.columns, self._columns(value))
        ))))

    def load(self, tree, payload: dict, what: str):
        entries = self._entries(tree, payload, what)
        if set(map(len, entries)) - {len(self.columns)}:
            raise ParameterError(f"a {what} row is not {len(self.columns)} values")
        rows = self._rows([
            column.load_all(cells, payload, what)
            for column, cells in zip(self.columns, zip(*entries) if entries
                                     else [()] * len(self.columns))
        ])
        if self.heap and any(rows[(i - 1) >> 1] > rows[i] for i in range(1, len(rows))):
            raise ParameterError(f"{what} rows are not in heap order")
        return rows

    def scale(self, value, factor: float):
        return self._rows([
            column.scale_all(cells, factor)
            for column, cells in zip(self.columns, self._columns(value))
        ])


class Table(Records):
    """Dicts sharing their keys, as ``[key, value, ...]`` rows: one dict
    per value column (a tuple of them when there are several), in
    insertion order or, with ``sort``, key order.  A key written twice is
    refused."""

    def __init__(self, key: Value, *columns: Shape, sort: bool = False,
                 **bounds):
        super().__init__(key, *columns, **bounds)
        self.sort = sort

    def _tables(self, value) -> tuple:
        return value if len(self.columns) > 2 else (value,)

    def _columns(self, value) -> list:
        tables = self._tables(value)
        keys = sorted(tables[0]) if self.sort else list(tables[0])
        return [keys, *(list(map(table.__getitem__, keys)) for table in tables)]

    def _rows(self, columns: list):
        keys, *values = columns
        tables = tuple(dict(zip(keys, cells)) for cells in values)
        if len(tables[0]) != len(keys):
            raise ParameterError(f"a key is written twice among {len(keys)}")
        return tables if len(tables) > 1 else tables[0]

    def size(self, value, entry_bytes: int) -> int:
        tables = self._tables(value)
        return entry_bytes * len(tables[0]) + sum(
            column.size(cell, 0) for column, table in zip(self.columns[1:], tables)
            if isinstance(column, Nested) for cell in table.values()
        )


class Nested(Shape):
    """A summary inside another, in its own declared state: ``summary``
    is its class, or a function of the outer payload that picks one."""

    def __init__(self, summary: type | Callable, role: str = EXACT):
        self.summary = summary
        self.roles = frozenset((role,))

    def dump(self, value):
        return value._state_payload()

    def load(self, tree, payload: dict, what: str):
        summary = self.summary
        if not isinstance(summary, type):  # a function of the outer payload
            summary = summary(payload)
        return summary._from_payload(tree)

    def scale(self, value, factor: float):
        value.scale(factor)
        return value

    def size(self, value, entry_bytes: int) -> int:
        return value.state_size_bytes()


class Field:
    """One payload key — ``outer.inner`` for a key of a nested dict — with
    its shape, where it lives, how it starts, merges and counts.

    ``attr`` is the attribute holding it: ``_`` + key by default, the key
    itself when ``init`` (the constructor takes it, by that name), a
    dotted path, or a tuple of attributes for a several-dict
    :class:`Table`.  ``initial`` is its value in a new summary (a type
    stands for a fresh instance), ``fold(mine, theirs)`` joins it with a
    merged peer's (scaled) value, and ``entry_bytes`` is what
    ``state_size_bytes`` counts per entry.
    """

    __slots__ = ("key", "path", "shape", "attr", "init", "initial", "fold",
                 "entry_bytes", "_get", "_holder", "_name")

    def __init__(self, key: str, shape: Shape = RAW, *, attr=None,
                 init: bool = False, initial=None, fold: Callable | None = None,
                 entry_bytes: int = 0):
        if attr is None:
            attr = key if init else "_" + key
        self.key = key
        self.path = tuple(key.split("."))
        self.shape = shape
        self.attr = attr
        self.init = init
        self.initial = initial
        self.fold = fold
        self.entry_bytes = entry_bytes
        if isinstance(attr, tuple):
            self._get = self._holder = self._name = None
        else:
            holder, _dot, self._name = attr.rpartition(".")
            self._get = operator.attrgetter(attr)
            self._holder = operator.attrgetter(holder) if holder else None

    def read(self, owner):
        """The value ``owner`` holds."""
        if self._get is None:
            return tuple(getattr(owner, name) for name in self.attr)
        return self._get(owner)

    def assign(self, owner, value) -> None:
        """Set the value ``owner`` holds."""
        if self._get is None:
            for name, part in zip(self.attr, value):
                setattr(owner, name, part)
        else:
            setattr(owner if self._holder is None else self._holder(owner),
                    self._name, value)


#: The fields a forward-decayed summary keeps beside its weights: its
#: decay model, its engine's internal landmark, the items it has folded
#: and the largest timestamp among them.
DECAY = Field("decay", Value(codec=(dump_decay, load_decay)), init=True)
LANDMARK = Field("internal_landmark", attr="_engine.internal_landmark")
ITEMS = Field("items", initial=0, fold=operator.add)
MAX_TIME = Field("max_time", initial=-math.inf, fold=max)


class DeclaredState:
    """State declared once, as ``_FIELDS``, and everything derived from it.

    A subclass lists its fields in payload order and, where it keeps an
    index derived from them (a heap, a sorted key list, a cached
    minimum), rebuilds it in :meth:`_reindex`.
    """

    #: The state, in payload order.
    _FIELDS: ClassVar[tuple[Field, ...]] = ()

    def __init__(self) -> None:
        """Start each field that declares an ``initial`` value at it."""
        for field in self._FIELDS:
            if field.initial is not None:
                field.assign(self, _fresh(field.initial))

    def _state_payload(self) -> dict:
        """The :mod:`repro.core.tree` tree of the declared fields."""
        payload: dict = {}
        for field in self._FIELDS:
            node = payload
            for part in field.path[:-1]:
                node = node.setdefault(part, {})
            node[field.path[-1]] = field.shape.dump(field.read(self))
        return payload

    @classmethod
    def _from_payload(cls, payload: dict):
        """Rebuild from :meth:`_state_payload` output.  Every field is
        read and checked before the constructor runs, so a field that
        breaks a bound is refused before it sizes anything."""
        values = [field.shape.load(reduce(operator.getitem, field.path, payload),
                                   payload, field.key)
                  for field in cls._FIELDS]
        restored = cls(**{field.key: value
                          for field, value in zip(cls._FIELDS, values) if field.init})
        for field, value in zip(cls._FIELDS, values):
            if not field.init:
                field.assign(restored, value)
        restored._reindex()
        return restored

    def _reindex(self) -> None:
        """Rebuild what is derived from the fields after a restore or a
        scale, and check what their shapes cannot."""

    def state_size_bytes(self) -> int:
        """Approximate footprint: each field's bytes per entry, plus what
        nested summaries hold."""
        return sum(field.shape.size(field.read(self), field.entry_bytes)
                   for field in self._FIELDS)

    def scale(self, factor: float) -> None:
        """Re-anchor the state at a landmark ``ln(1 / factor) / alpha``
        later (Section VI-A): every ``weight`` times ``factor``, every
        ``log_weight`` plus its log.  No answer changes."""
        if not factor > 0:
            raise ParameterError(f"scale factor must be > 0, got {factor!r}")
        fields = [field for field in self._FIELDS if field.shape.scales]
        if not fields:
            raise ParameterError(f"{type(self).__name__} stores no weights to scale")
        for field in fields:
            field.assign(self, field.shape.scale(field.read(self), factor))
        self._reindex()

    def _check_merge(self, other, *names: str) -> None:
        """Refuse ``other`` unless it is one of this type that agrees on
        each named parameter."""
        if not isinstance(other, type(self)):
            raise MergeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for name in names:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise MergeError(f"{name} mismatch: {mine!r} vs {theirs!r}")

    def _merge_scaled(self, other, factor: float) -> None:
        """Fold each field that declares a ``fold`` with ``other``'s, its
        weights scaled by ``factor`` (the peer's landmark alignment)."""
        for field in self._FIELDS:
            if field.fold is not None:
                theirs = field.shape.scale(field.read(other), factor)
                field.assign(self, field.fold(field.read(self), theirs))


# -- the protocol ------------------------------------------------------------------


def summary_type_of(data) -> str:
    """The registry name a ``to_bytes`` buffer declares.

    Read from the buffer's head alone — nothing is unpacked, looked up or
    instantiated — so an inspector can label a summary slot it only holds
    the bytes of.  Anything but a version-4 head is a
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


class StreamSummary(DeclaredState, ABC):
    """Abstract base for every decayed summary, sketch, and sampler.

    See the module docstring for the contract.  Concrete classes are
    registered under a stable name in :mod:`repro.core.registry`, which is
    what :meth:`to_bytes`/:meth:`from_bytes` use to dispatch.
    """

    #: Layout version of :meth:`to_bytes` buffers, their first byte.  One
    #: for every summary: the payload codec is generic.
    SERDE_VERSION: ClassVar[int] = 4

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

    # -- serde -------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: ``SERDE_VERSION``, name length, name, packed payload.

        ::

            | 4: u8 | n: u8 | registry name: n bytes | tree: to the end |

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
