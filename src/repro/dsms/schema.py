"""Stream schemas for the GS-style query engine.

GS (Gigascope) exposes network feeds as typed streams queried with an
SQL-like language.  A :class:`Schema` names and types the fields of one
stream; tuples are plain Python tuples positionally aligned with the
schema (the cheapest faithful representation for a per-tuple-cost study).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.core.cols import block_type
from repro.core.errors import SchemaError

__all__ = ["FieldType", "Field", "Schema"]


class FieldType(Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    STR = "str"

    def python_type(self) -> type:
        """The Python type values of this column must have."""
        return {"int": int, "float": float, "str": str}[self.value]


@dataclass(frozen=True)
class Field:
    """One named, typed column of a stream."""

    name: str
    type: FieldType

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"field name must be an identifier, got {self.name!r}")


class Schema:
    """An ordered collection of fields with O(1) name lookup."""

    def __init__(self, fields: Sequence[Field]):
        if not fields:
            raise SchemaError("a schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in {names}")
        self.fields = tuple(fields)
        self._index = {f.name: i for i, f in enumerate(fields)}

    def index_of(self, name: str) -> int:
        """Position of the named field; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown field {name!r}; schema has {list(self._index)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.fields)

    def names(self) -> list[str]:
        """Field names in schema order."""
        return [f.name for f in self.fields]

    def validate(self, row: tuple) -> None:
        """Check a tuple's arity and types against the schema.

        Meant for ingest boundaries and tests; the hot engine path skips
        validation, as a production DSMS would after parse time.  Types
        are checked by :meth:`validate_cols` on the row's one-value
        columns, so a row and a batch obey one rule.
        """
        if len(row) != len(self.fields):
            raise SchemaError(
                f"arity mismatch: schema has {len(self.fields)} fields, "
                f"row has {len(row)}"
            )
        self.validate_cols([[value] for value in row])

    def validate_cols(self, cols: list, kinds=None) -> int:
        """Check a columnar batch against the schema; returns the row count.

        The one type rule (:meth:`validate` runs it on a single row): one
        arity check for the whole batch, one length check and one type sweep per column —
        O(fields + values) with no per-row tuple in sight.  Raises
        :class:`SchemaError` naming the first offending field.

        ``kinds`` — the :mod:`repro.core.cols` kind byte of the block each
        column was decoded from — replaces the sweep of a typed column by
        one comparison: every value of such a block has its type by
        construction.  Only ``tagged`` columns (mixed, empty, beyond-int64,
        bool) are swept; the verdict is the sweep's.
        """
        if len(cols) != len(self.fields):
            raise SchemaError(
                f"arity mismatch: schema has {len(self.fields)} fields, "
                f"batch has {len(cols)} columns"
            )
        count = len(cols[0]) if cols else 0
        for index, (column, field) in enumerate(zip(cols, self.fields)):
            if len(column) != count:
                raise SchemaError(
                    f"ragged batch: column {field.name!r} has {len(column)} "
                    f"rows, column {self.fields[0].name!r} has {count}"
                )
            expected = field.type.python_type()
            accepted = (int, float) if expected is float else expected
            # Sweep the (tiny) set of distinct value types instead of
            # isinstance-checking every value: C-level map/set makes this
            # O(values) with a constant ~10x smaller, and issubclass keeps
            # the same semantics (bool still passes an int field).
            typed = block_type(kinds[index]) if kinds is not None else None
            types = {typed} if typed and column else set(map(type, column))
            if all(issubclass(t, accepted) for t in types):
                continue
            bad = next(v for v in column if not isinstance(v, accepted))
            if expected is float:
                raise SchemaError(
                    f"field {field.name!r} expects a number, got {bad!r}"
                )
            raise SchemaError(
                f"field {field.name!r} expects {expected.__name__}, "
                f"got {bad!r}"
            )
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{f.name} {f.type.value}" for f in self.fields)
        return f"Schema({cols})"
