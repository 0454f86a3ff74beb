"""Parser for the GSQL-like query dialect.

Covers the constructs the paper's experiments use::

    SELECT tb, destIP, destPort, count(*) FROM TCP
    GROUP BY time/60 AS tb, destIP, destPort

    SELECT tb, destIP, destPort,
           sum(len*(time % 60)*(time % 60))/3600 FROM TCP
    GROUP BY time/60 AS tb, destIP, destPort

    SELECT tb, PRISAMP(srcIP, exp(time % 60)) FROM TCP
    GROUP BY time/60 AS tb

i.e. SELECT / FROM / WHERE / GROUP BY with arithmetic expressions, scalar
functions, builtin aggregates and registered UDAFs.  Aggregate calls may be
wrapped in further arithmetic (the ``sum(...)/3600`` normalization of the
paper's quadratic-decay query).

Grammar (recursive descent)::

    query      := SELECT select_list FROM ident [WHERE or_expr]
                  [GROUP BY group_list]
    select_list:= select_item ("," select_item)*
    select_item:= or_expr [AS ident]
    group_list := group_item ("," group_item)*
    group_item := or_expr [AS ident]
    or_expr    := and_expr (OR and_expr)*
    and_expr   := not_expr (AND not_expr)*
    not_expr   := NOT not_expr | cmp_expr
    cmp_expr   := add_expr [("="|"!="|"<>"|"<"|"<="|">"|">=") add_expr]
    add_expr   := mul_expr (("+"|"-") mul_expr)*
    mul_expr   := unary (("*"|"/"|"%") unary)*
    unary      := "-" unary | primary
    primary    := NUMBER | STRING | ident ["(" [args] ")"] | "(" or_expr ")"

An identifier followed by ``(`` parses as an aggregate call when its name
is in the :class:`~repro.dsms.udaf.UdafRegistry`, as a scalar function when
it's a builtin scalar (``exp`` etc.), and is an error otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.errors import QueryError
from repro.dsms.expressions import (
    BinaryOp,
    BooleanOp,
    Column,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.dsms.udaf import Udaf, UdafRegistry

__all__ = ["AggregateCall", "SelectItem", "GroupItem", "OrderKey", "Query",
           "parse_query"]

_SCALAR_FUNCTIONS = {"exp", "log", "sqrt", "pow", "abs"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|<=|>=|!=|==|[=<>+\-*/%(),.])
  | (?P<star>\*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "group", "by", "as", "and", "or", "not",
             "having", "order", "asc", "desc", "limit"}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | ident | op | keyword | star | eof
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise QueryError(f"cannot tokenize query at position {position}: "
                             f"{text[position:position + 20]!r}")
        position = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "ident" and value.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", value.lower(), match.start()))
        elif kind == "op" and value == "*":
            tokens.append(_Token("star", value, match.start()))
        else:
            assert kind is not None
            tokens.append(_Token(kind, value, match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate invocation in the SELECT list."""

    udaf: Udaf
    args: tuple[Expression, ...]
    star: bool = False  # count(*) form

    def sql(self) -> str:
        """Render back to query text."""
        inner = "*" if self.star else ", ".join(a.sql() for a in self.args)
        return f"{self.udaf.name}({inner})"


@dataclass(frozen=True)
class SelectItem:
    """One output column: an expression or an aggregate, optionally wrapped.

    ``post`` holds arithmetic applied *around* an aggregate (the paper's
    ``sum(...)/3600``): it is an :class:`Expression` over the single
    pseudo-column ``__agg__`` standing for the aggregate's value, or None.
    """

    alias: str
    expression: Expression | None = None
    aggregate: AggregateCall | None = None
    post: Expression | None = None

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass(frozen=True)
class GroupItem:
    """One GROUP BY key expression with its alias."""

    expression: Expression
    alias: str


@dataclass(frozen=True)
class OrderKey:
    """One ORDER BY key: an output-alias expression plus direction."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Query:
    """A parsed GSQL-like query."""

    select: tuple[SelectItem, ...]
    stream: str
    where: Expression | None = None
    group_by: tuple[GroupItem, ...] = field(default=())
    having: Expression | None = None
    order_by: tuple[OrderKey, ...] = field(default=())
    limit: int | None = None

    def columns(self) -> set[str]:
        """Stream columns the plan reads from a tuple: those WHERE, GROUP
        BY and aggregate arguments name.  (A plain select item is
        evaluated from the group key, HAVING / ORDER BY from output rows.)"""
        expressions = [g.expression for g in self.group_by]
        if self.where is not None:
            expressions.append(self.where)
        for item in self.select:
            if item.aggregate is not None:
                expressions.extend(item.aggregate.args)
        return set().union(*(e.columns() for e in expressions))

    def sql(self) -> str:
        """Render the whole query back to normalized text."""
        parts = ["SELECT "]
        rendered = []
        for item in self.select:
            if item.aggregate is not None:
                text = item.aggregate.sql()
                if item.post is not None:
                    text = item.post.sql().replace("__agg__", text)
            else:
                assert item.expression is not None
                text = item.expression.sql()
            rendered.append(f"{text} AS {item.alias}")
        parts.append(", ".join(rendered))
        parts.append(f" FROM {self.stream}")
        if self.where is not None:
            parts.append(f" WHERE {self.where.sql()}")
        if self.group_by:
            keys = ", ".join(
                f"{g.expression.sql()} AS {g.alias}" for g in self.group_by
            )
            parts.append(f" GROUP BY {keys}")
        if self.having is not None:
            parts.append(f" HAVING {self.having.sql()}")
        if self.order_by:
            keys = ", ".join(
                f"{k.expression.sql()}{' DESC' if k.descending else ''}"
                for k in self.order_by
            )
            parts.append(f" ORDER BY {keys}")
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return "".join(parts)


class _Parser:
    def __init__(self, tokens: list[_Token], registry: UdafRegistry):
        self._tokens = tokens
        self._registry = registry
        self._index = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = f"{kind}:{text}" if text else kind
            raise QueryError(
                f"expected {want} at position {token.position}, "
                f"got {token.kind}:{token.text!r}"
            )
        return self._advance()

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        token = self._peek()
        if token.kind == kind and (text is None or token.text == text):
            return self._advance()
        return None

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Query:
        self._expect("keyword", "select")
        select_items = self._select_list()
        self._expect("keyword", "from")
        stream = self._expect("ident").text
        where = None
        if self._accept("keyword", "where"):
            where = self._or_expr()
        group_by: tuple[GroupItem, ...] = ()
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by = self._group_list()
        having = None
        if self._accept("keyword", "having"):
            having = self._or_expr()
            self._forbid_aggregates([having], "HAVING")
        order_by: tuple[OrderKey, ...] = ()
        if self._accept("keyword", "order"):
            self._expect("keyword", "by")
            order_by = self._order_list()
        limit = None
        if self._accept("keyword", "limit"):
            token = self._expect("number")
            if "." in token.text:
                raise QueryError("LIMIT takes an integer")
            limit = int(token.text)
            if limit < 1:
                raise QueryError(f"LIMIT must be >= 1, got {limit}")
        self._expect("eof")
        return Query(
            select=tuple(select_items),
            stream=stream,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
        )

    def _order_list(self) -> tuple[OrderKey, ...]:
        keys = [self._order_key()]
        while self._accept("op", ","):
            keys.append(self._order_key())
        return tuple(keys)

    def _order_key(self) -> OrderKey:
        expression = self._or_expr()
        self._forbid_aggregates([expression], "ORDER BY")
        descending = False
        if self._accept("keyword", "desc"):
            descending = True
        else:
            self._accept("keyword", "asc")
        return OrderKey(expression=expression, descending=descending)

    def _select_list(self) -> list[SelectItem]:
        items = [self._select_item(0)]
        while self._accept("op", ","):
            items.append(self._select_item(len(items)))
        return items

    def _select_item(self, position: int) -> SelectItem:
        node = self._or_expr()
        alias = None
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        expression, aggregate, post = self._split_aggregate(node)
        if alias is None:
            alias = self._default_alias(node, position)
        return SelectItem(
            alias=alias, expression=expression, aggregate=aggregate, post=post
        )

    @staticmethod
    def _default_alias(node: object, position: int) -> str:
        if isinstance(node, Column):
            return node.name
        if isinstance(node, AggregateCall):
            return node.udaf.name
        return f"col{position}"

    def _split_aggregate(
        self, node: object
    ) -> tuple[Expression | None, AggregateCall | None, Expression | None]:
        """Separate a select expression into (plain, aggregate, post-map).

        A select item is either aggregate-free, a bare aggregate, or
        arithmetic around exactly one aggregate (``sum(...)/3600``); nested
        or multiple aggregates are rejected.
        """
        aggregates: list[AggregateCall] = []
        self._collect_aggregates(node, aggregates)
        if not aggregates:
            assert isinstance(node, Expression)
            return node, None, None
        if len(aggregates) > 1:
            raise QueryError("at most one aggregate per select item")
        if isinstance(node, AggregateCall):
            return None, node, None
        post = self._replace_aggregate(node, aggregates[0])
        return None, aggregates[0], post

    def _collect_aggregates(self, node: object, out: list[AggregateCall]) -> None:
        if isinstance(node, AggregateCall):
            out.append(node)
            for arg in node.args:
                inner: list[AggregateCall] = []
                self._collect_aggregates(arg, inner)
                if inner:
                    raise QueryError("aggregates cannot be nested")
            return
        if isinstance(node, (BinaryOp, Comparison)):
            self._collect_aggregates(node.left, out)
            self._collect_aggregates(node.right, out)
        elif isinstance(node, UnaryOp):
            self._collect_aggregates(node.operand, out)
        elif isinstance(node, BooleanOp):
            for operand in node.operands:
                self._collect_aggregates(operand, out)
        elif isinstance(node, FunctionCall):
            for arg in node.args:
                self._collect_aggregates(arg, out)

    def _replace_aggregate(self, node: object, target: AggregateCall) -> Expression:
        """Rewrite the aggregate inside ``node`` as the ``__agg__`` column."""
        if node is target:
            return Column("__agg__")
        if isinstance(node, BinaryOp):
            return BinaryOp(
                node.op,
                self._replace_aggregate(node.left, target),
                self._replace_aggregate(node.right, target),
            )
        if isinstance(node, Comparison):
            return Comparison(
                node.op,
                self._replace_aggregate(node.left, target),
                self._replace_aggregate(node.right, target),
            )
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, self._replace_aggregate(node.operand, target))
        if isinstance(node, FunctionCall):
            return FunctionCall(
                node.name,
                tuple(self._replace_aggregate(a, target) for a in node.args),
            )
        assert isinstance(node, Expression)
        return node

    def _group_list(self) -> tuple[GroupItem, ...]:
        items = [self._group_item(0)]
        while self._accept("op", ","):
            items.append(self._group_item(len(items)))
        return tuple(items)

    def _group_item(self, position: int) -> GroupItem:
        expression = self._or_expr()
        if not isinstance(expression, Expression):
            raise QueryError("aggregates are not allowed in GROUP BY")
        if self._accept("keyword", "as"):
            alias = self._expect("ident").text
        elif isinstance(expression, Column):
            alias = expression.name
        else:
            alias = f"key{position}"
        return GroupItem(expression=expression, alias=alias)

    # expression levels ------------------------------------------------------

    def _or_expr(self):
        node = self._and_expr()
        operands = [node]
        while self._accept("keyword", "or"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return node
        self._forbid_aggregates(operands, "OR")
        return BooleanOp("or", tuple(operands))

    def _and_expr(self):
        node = self._not_expr()
        operands = [node]
        while self._accept("keyword", "and"):
            operands.append(self._not_expr())
        if len(operands) == 1:
            return node
        self._forbid_aggregates(operands, "AND")
        return BooleanOp("and", tuple(operands))

    def _not_expr(self):
        if self._accept("keyword", "not"):
            operand = self._not_expr()
            self._forbid_aggregates([operand], "NOT")
            return BooleanOp("not", (operand,))
        return self._cmp_expr()

    def _cmp_expr(self):
        node = self._add_expr()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._add_expr()
            self._forbid_aggregates([node, right], token.text)
            return Comparison(token.text, node, right)
        return node

    def _add_expr(self):
        node = self._mul_expr()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._advance()
                right = self._mul_expr()
                node = self._arith(token.text, node, right)
            else:
                return node

    def _mul_expr(self):
        node = self._unary()
        while True:
            token = self._peek()
            if (token.kind == "op" and token.text in ("/", "%")) or token.kind == "star":
                self._advance()
                op = "*" if token.kind == "star" else token.text
                right = self._unary()
                node = self._arith(op, node, right)
            else:
                return node

    def _arith(self, op: str, left, right):
        """Build arithmetic, keeping AggregateCall operands symbolic."""
        if isinstance(left, AggregateCall) or isinstance(right, AggregateCall):
            # Defer: wrap sides so _split_aggregate can rewrite later.  The
            # AggregateCall is embedded directly; Expression operations on
            # the node are only performed after _replace_aggregate.
            return BinaryOp(op, left, right)  # type: ignore[arg-type]
        return BinaryOp(op, left, right)

    def _unary(self):
        if self._accept("op", "-"):
            operand = self._unary()
            if isinstance(operand, AggregateCall):
                return BinaryOp("-", Literal(0), operand)  # type: ignore[arg-type]
            return UnaryOp("-", operand)
        return self._primary()

    def _forbid_aggregates(self, nodes, where: str) -> None:
        for node in nodes:
            found: list[AggregateCall] = []
            self._collect_aggregates(node, found)
            if found:
                raise QueryError(f"aggregates are not allowed inside {where}")

    def _primary(self):
        token = self._peek()
        if token.kind == "number":
            self._advance()
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.kind == "string":
            self._advance()
            return Literal(token.text[1:-1].replace("''", "'"))
        if token.kind == "ident":
            self._advance()
            if self._accept("op", "("):
                return self._call(token.text)
            return Column(token.text)
        if self._accept("op", "("):
            node = self._or_expr()
            self._expect("op", ")")
            return node
        raise QueryError(
            f"unexpected token {token.kind}:{token.text!r} at {token.position}"
        )

    def _call(self, name: str):
        lowered = name.lower()
        if self._peek().kind == "star":
            self._advance()
            self._expect("op", ")")
            if lowered in self._registry:
                udaf = self._registry.get(lowered)
                if udaf.arity != -1:
                    raise QueryError(f"{name}(*) is only valid for count-style UDAFs")
                return AggregateCall(udaf=udaf, args=(), star=True)
            raise QueryError(f"{name}(*) is not a registered aggregate")
        args: list[Expression] = []
        if not self._accept("op", ")"):
            args.append(self._require_expression())
            while self._accept("op", ","):
                args.append(self._require_expression())
            self._expect("op", ")")
        if lowered in self._registry:
            udaf = self._registry.get(lowered)
            if udaf.arity >= 0 and len(args) != udaf.arity:
                raise QueryError(
                    f"aggregate {name} expects {udaf.arity} argument(s), "
                    f"got {len(args)}"
                )
            return AggregateCall(udaf=udaf, args=tuple(args))
        if lowered in _SCALAR_FUNCTIONS:
            return FunctionCall(lowered, tuple(args))
        raise QueryError(f"unknown function or aggregate {name!r}")

    def _require_expression(self) -> Expression:
        node = self._or_expr()
        if isinstance(node, AggregateCall):
            raise QueryError("aggregates cannot appear as function arguments")
        return node


def parse_query(text: str, registry: UdafRegistry) -> Query:
    """Parse GSQL-like ``text`` against the given aggregate registry."""
    return _Parser(_tokenize(text), registry).parse()
