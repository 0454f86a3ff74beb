"""Scalar expression AST for the GSQL-like dialect.

Expressions cover what the paper's queries use: column references, integer
and float literals, arithmetic (``+ - * / %``), comparisons, boolean
connectives, and a few scalar functions (``exp``, ``log``, ``sqrt``,
``pow``, ``abs``).  Notably, integer division and modulo are what GSQL
decay queries are built from — ``time/60 as tb`` forms the time bucket and
``time % 60`` the offset from the bucket's landmark, as in the paper's
quadratic-decay example::

    select tb, destIP, destPort,
           sum(len*(time % 60)*(time % 60))/3600 from TCP
    group by time/60 as tb, destIP, destPort

For per-tuple speed every expression compiles to a Python closure over the
schema's field positions (:meth:`Expression.compile`); the tree-walking
:meth:`Expression.evaluate` exists for clarity and tests.

Expressions that can be evaluated a *column at a time* additionally
compile to a columnar closure ``(cols, n) -> column``
(:meth:`Expression.compile_cols`) — a plain column reference returns the
input column itself with no copy, and arithmetic maps elementwise.  The
engine's :meth:`~repro.dsms.engine.QueryEngine.insert_cols` uses these to
skip materializing row tuples entirely.  Each element goes through the
same scalar operation as the row path, so results are bit-identical.
AND/OR, whose row form short-circuits, evaluate *masked*: operand *k*
runs only on the rows operands *< k* left undecided, so a guard such as
``size != 0 and len / size > 1`` never divides on the guarded rows.

A query names the same sub-expression many times (``exp((time % 60) *
0.1)`` in four aggregates); :func:`compile_shared` compiles several
expressions through one table keyed by the expression node, so a
sub-tree that occurs twice is evaluated once per batch.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.errors import QueryError
from repro.dsms.schema import Schema

__all__ = [
    "compile_shared",
    "named",
    "Expression",
    "Column",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "Comparison",
    "BooleanOp",
    "FunctionCall",
]

Row = tuple
Evaluator = Callable[[Row], object]

#: Columnar closure: ``(columns, row_count) -> column`` (a list of values).
ColsEvaluator = Callable[[list, int], list]

#: :func:`compile_shared`'s table, shared sub-tree -> its index in the
#: batch's working column list; None when an expression compiles alone.
Slots = Optional[dict["Expression", int]]

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": None,  # handled specially: integer / integer -> floor division (GSQL)
    "%": operator.mod,
}

_COMPARISONS = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_FUNCTIONS: dict[str, Callable] = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "pow": math.pow,
    "abs": abs,
}


def _gsql_divide(left, right):
    """GSQL division: integer operands floor-divide (so ``time/60`` buckets)."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


class Expression(ABC):
    """Base class of all scalar expressions."""

    @abstractmethod
    def evaluate(self, row: Row, schema: Schema) -> object:
        """Tree-walking evaluation (reference semantics)."""

    @abstractmethod
    def compile(self, schema: Schema) -> Evaluator:
        """Compile to a closure ``row -> value`` resolved against ``schema``."""

    @abstractmethod
    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        """Compile to a columnar closure ``(cols, n) -> column``.

        The closure applies the very same scalar operation per element as
        :meth:`compile`, to exactly the elements the row form would have
        evaluated, so the two paths produce identical values and raise on
        the same inputs.  ``slots`` is :func:`compile_shared`'s table of
        the sub-trees it shares; a stand-alone compile passes none.
        """

    def children(self) -> tuple[Expression, ...]:
        """The direct sub-expressions, in evaluation order."""
        return ()

    def columns(self) -> set[str]:
        """Names of all columns referenced."""
        names: set[str] = set()
        for operand in self.children():
            names |= operand.columns()
        return names

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.sql()

    @abstractmethod
    def sql(self) -> str:
        """Render back to (normalized) query text."""


@dataclass(frozen=True)
class Column(Expression):
    """A reference to a stream field by name."""

    name: str

    def evaluate(self, row: Row, schema: Schema) -> object:
        return row[schema.index_of(self.name)]

    def compile(self, schema: Schema) -> Evaluator:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        index = schema.index_of(self.name)
        # The input column *is* the result — no per-element work at all.
        return lambda cols, n: cols[index]

    def columns(self) -> set[str]:
        return {self.name}

    def sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant (int, float, or string)."""

    value: object

    # Nodes key the shared-column table, and ``1``, ``1.0`` and ``True``
    # (or ``0.0`` and ``-0.0``) are different constants to arithmetic.
    def _typed(self) -> tuple:
        return type(self.value), repr(self.value)

    def __eq__(self, other: object) -> bool:
        return type(other) is Literal and other._typed() == self._typed()

    def __hash__(self) -> int:
        return hash(self._typed())

    def evaluate(self, row: Row, schema: Schema) -> object:
        return self.value

    def compile(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        value = self.value
        return lambda cols, n: [value] * n

    def sql(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic: ``left op right`` for op in ``+ - * / %``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Row, schema: Schema) -> object:
        left = self.left.evaluate(row, schema)
        right = self.right.evaluate(row, schema)
        if self.op == "/":
            return _gsql_divide(left, right)
        return _ARITHMETIC[self.op](left, right)

    def compile(self, schema: Schema) -> Evaluator:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        if self.op == "/":
            return lambda row: _gsql_divide(left(row), right(row))
        fn = _ARITHMETIC[self.op]
        return lambda row: fn(left(row), right(row))

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        fn = _gsql_divide if self.op == "/" else _ARITHMETIC[self.op]
        return _pairwise_cols(fn, self.left, self.right, schema, slots)

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus."""

    op: str
    operand: Expression

    def __post_init__(self) -> None:
        if self.op != "-":
            raise QueryError(f"unknown unary operator {self.op!r}")

    def evaluate(self, row: Row, schema: Schema) -> object:
        return -self.operand.evaluate(row, schema)  # type: ignore[operator]

    def compile(self, schema: Schema) -> Evaluator:
        operand = self.operand.compile(schema)
        return lambda row: -operand(row)  # type: ignore[operator]

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        operand = _operand_cols(self.operand, schema, slots)
        return lambda cols, n: [-v for v in operand(cols, n)]

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def sql(self) -> str:
        return f"(-{self.operand.sql()})"


@dataclass(frozen=True)
class Comparison(Expression):
    """``left cmp right`` for cmp in ``= != <> < <= > >=``."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Row, schema: Schema) -> object:
        return _COMPARISONS[self.op](
            self.left.evaluate(row, schema), self.right.evaluate(row, schema)
        )

    def compile(self, schema: Schema) -> Evaluator:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        fn = _COMPARISONS[self.op]
        return lambda row: fn(left(row), right(row))

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        return _pairwise_cols(
            _COMPARISONS[self.op], self.left, self.right, schema, slots
        )

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class BooleanOp(Expression):
    """``AND`` / ``OR`` / ``NOT`` over boolean sub-expressions."""

    op: str
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or", "not"):
            raise QueryError(f"unknown boolean operator {self.op!r}")
        if self.op == "not" and len(self.operands) != 1:
            raise QueryError("NOT takes exactly one operand")
        if self.op in ("and", "or") and len(self.operands) < 2:
            raise QueryError(f"{self.op.upper()} needs at least two operands")

    def evaluate(self, row: Row, schema: Schema) -> object:
        if self.op == "not":
            return not self.operands[0].evaluate(row, schema)
        if self.op == "and":
            return all(e.evaluate(row, schema) for e in self.operands)
        return any(e.evaluate(row, schema) for e in self.operands)

    def compile(self, schema: Schema) -> Evaluator:
        compiled = [e.compile(schema) for e in self.operands]
        if self.op == "not":
            inner = compiled[0]
            return lambda row: not inner(row)
        if self.op == "and":
            return lambda row: all(fn(row) for fn in compiled)
        return lambda row: any(fn(row) for fn in compiled)

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        if self.op == "not":
            inner = _operand_cols(self.operands[0], schema, slots)
            return lambda cols, n: [not v for v in inner(cols, n)]
        # No slots below AND/OR: an operand sees a masked copy of the
        # batch, so what it computes is no other user's column.
        compiled = [e.compile_cols(schema) for e in self.operands]
        # Masked evaluation reproduces short-circuit: a row stays live
        # while no operand has settled it (a falsy one settles AND, a
        # truthy one OR), and each operand sees the live rows only — the
        # very rows on which the row form's all()/any() reaches it.
        settles = self.op == "or"
        needs = [[schema.index_of(c) for c in e.columns()] for e in self.operands]

        def evaluate(cols: list, n: int) -> list:
            live: list | range = range(n)
            for fn, need in zip(compiled, needs):
                if len(live) == n:
                    values = fn(cols, n)
                else:
                    part: list = [None] * len(cols)
                    for index in need:
                        column = cols[index]
                        part[index] = [column[i] for i in live]
                    values = fn(part, len(live))
                live = [i for i, v in zip(live, values) if bool(v) != settles]
                if not live:
                    break
            result = [settles] * n
            for i in live:
                result[i] = not settles
            return result

        return evaluate

    def children(self) -> tuple[Expression, ...]:
        return self.operands

    def sql(self) -> str:
        if self.op == "not":
            return f"(NOT {self.operands[0].sql()})"
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(e.sql() for e in self.operands) + ")"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar builtin: ``exp``, ``log``, ``sqrt``, ``pow``, ``abs``."""

    name: str
    args: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise QueryError(
                f"unknown scalar function {self.name!r}; "
                f"available: {sorted(_FUNCTIONS)}"
            )

    def evaluate(self, row: Row, schema: Schema) -> object:
        fn = _FUNCTIONS[self.name]
        return fn(*(a.evaluate(row, schema) for a in self.args))

    def compile(self, schema: Schema) -> Evaluator:
        fn = _FUNCTIONS[self.name]
        compiled = [a.compile(schema) for a in self.args]
        if len(compiled) == 1:
            single = compiled[0]
            return lambda row: fn(single(row))
        return lambda row: fn(*(c(row) for c in compiled))

    def compile_cols(self, schema: Schema, slots: Slots = None) -> ColsEvaluator:
        fn = _FUNCTIONS[self.name]
        compiled = [_operand_cols(a, schema, slots) for a in self.args]
        if len(compiled) == 1:
            single = compiled[0]
            return lambda cols, n: [fn(v) for v in single(cols, n)]
        return lambda cols, n: [
            fn(*args) for args in zip(*(c(cols, n) for c in compiled))
        ]

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


# ---------------------------------------------------------------------------
# The shared batch plan
# ---------------------------------------------------------------------------


def _operand_cols(node: Expression, schema: Schema, slots: Slots) -> ColsEvaluator:
    """``node``'s columnar closure.  A sub-tree the plan shares is computed
    by whichever user reaches it first and read from its slot by the rest."""
    fn = node.compile_cols(schema, slots)
    slot = slots.get(node) if slots else None
    if slot is None:
        return fn

    def once(cols: list, n: int) -> list:
        column = cols[slot]
        if column is None:
            column = cols[slot] = fn(cols, n)
        return column

    return once


def _pairwise_cols(
    fn: Callable, left: Expression, right: Expression, schema: Schema, slots: Slots
) -> ColsEvaluator:
    """Element-wise ``fn(left, right)``; a literal side is bound, not
    broadcast to a column and zipped."""
    if isinstance(right, Literal):
        value = right.value
        operand = _operand_cols(left, schema, slots)
        return lambda cols, n: [fn(a, value) for a in operand(cols, n)]
    if isinstance(left, Literal):
        value = left.value
        operand = _operand_cols(right, schema, slots)
        return lambda cols, n: [fn(value, b) for b in operand(cols, n)]
    lhs = _operand_cols(left, schema, slots)
    rhs = _operand_cols(right, schema, slots)
    return lambda cols, n: [fn(a, b) for a, b in zip(lhs(cols, n), rhs(cols, n))]


def _count_subtrees(node: Expression, counts: dict[Expression, int]) -> None:
    if isinstance(node, (Column, Literal)):
        return  # a column is free and a literal is bound into its user
    counts[node] = counts.get(node, 0) + 1
    if counts[node] > 1 or (isinstance(node, BooleanOp) and node.op != "not"):
        return  # reached through the shared node / masked, never shared
    for child in node.children():
        _count_subtrees(child, counts)


#: The :class:`QueryError` an arithmetic failure becomes, per its type:
#: still an instance of that type, so a caller catching it is unaffected.
_NAMED_ERRORS = {
    kind: type(f"Query{kind.__name__}", (QueryError, kind), {})
    for kind in (ArithmeticError, FloatingPointError, OverflowError, ZeroDivisionError)
}


def labelled(error: Exception, label: str) -> QueryError:
    """An arithmetic or math-domain failure (``exp`` out of range, ``log``
    / ``sqrt`` of a negative, ``/`` or ``%`` by zero) as a
    :class:`QueryError` that names ``label``."""
    return _NAMED_ERRORS.get(type(error), QueryError)(f"{label}: {error}")


def named(fn: ColsEvaluator, label: str) -> ColsEvaluator:
    """``fn`` with its failures raised :func:`labelled` by ``label``."""

    def evaluate(cols: list, n: int) -> list:
        try:
            return fn(cols, n)
        except (ArithmeticError, ValueError) as error:
            raise labelled(error, label) from error

    return evaluate


def compile_shared(
    expressions: Sequence[Expression],
    schema: Schema,
    labels: Sequence[str] | None = None,
) -> Callable[[list, int], list[list]]:
    """Compile ``expressions`` to one closure ``(cols, n) -> [column, ...]``
    that evaluates each distinct sub-expression once per batch.

    A sub-tree occurring more than once (nodes are frozen and hashable:
    the node is the table key) gets a slot past the schema's columns in a
    working list built per call.  The closures are ``compile_cols``'s own
    and run in the same order, a repeat read from its slot instead of
    recomputed — it could only have raised what its first evaluation did,
    so values and the first error are those of compiling each expression
    alone.  Nothing is kept between calls.  With ``labels`` (one per
    expression) an arithmetic failure names its expression's label
    (:func:`named`).
    """
    counts: dict[Expression, int] = {}
    for expression in expressions:
        _count_subtrees(expression, counts)
    width = len(schema)
    shared = (node for node, uses in counts.items() if uses > 1)
    slots = {node: width + k for k, node in enumerate(shared)}
    fns = [_operand_cols(e, schema, slots) for e in expressions]
    if labels is not None:
        fns = [named(fn, label) for fn, label in zip(fns, labels)]
    spare = [None] * len(slots)

    def evaluate(cols: list, n: int) -> list[list]:
        if len(cols) != width:
            raise QueryError(f"batch has {len(cols)} columns, schema has {width}")
        work = [*cols, *spare]
        return [fn(work, n) for fn in fns]

    return evaluate
