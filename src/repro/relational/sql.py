"""A SQL-subset frontend.

The paper reuses MonetDB's SQL parser; this module provides the same role
for the reproduction on a useful subset:

    SELECT expr [AS name], ...
    FROM table
    [WHERE predicate]
    [GROUP BY col, ...]
    [ORDER BY name [DESC], ...]
    [LIMIT n]

Expressions support arithmetic, comparisons, AND/OR/NOT, BETWEEN, IN
(value lists), parentheses, numeric and ``'string'`` literals (resolved to
dictionary codes against the referenced column), ``:name`` bind
parameters (prepared-query literal slots, see
:mod:`repro.relational.prepared`), and the aggregates
SUM/MIN/MAX/AVG/COUNT(*).  Joins and subqueries are built with the plan
API (:mod:`repro.relational.algebra`) — mirroring the paper's hand-built
plans for the evaluation queries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SQLError
from repro.relational import algebra as ra
from repro.relational import expressions as ex
from repro.storage.columnstore import ColumnStore

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<str>'(?:[^']|'')*')"
    r"|(?P<param>:[A-Za-z_][A-Za-z0-9_]*)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\+|-|/))"
)

_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "limit", "and", "or",
    "not", "between", "in", "as", "desc", "asc", "sum", "min", "max", "avg",
    "count",
}


@dataclass
class _Token:
    kind: str  # num | str | id | op | kw
    text: str


def tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            if sql[pos:].strip() == "":
                break
            raise SQLError(f"cannot tokenize at: {sql[pos:pos+20]!r}")
        pos = match.end()
        if match.group("num") is not None:
            tokens.append(_Token("num", match.group("num")))
        elif match.group("str") is not None:
            tokens.append(_Token("str", match.group("str")[1:-1].replace("''", "'")))
        elif match.group("param") is not None:
            tokens.append(_Token("param", match.group("param")[1:]))
        elif match.group("id") is not None:
            word = match.group("id")
            kind = "kw" if word.lower() in _KEYWORDS else "id"
            tokens.append(_Token(kind, word.lower() if kind == "kw" else word))
        else:
            tokens.append(_Token("op", match.group("op")))
    return tokens


class Parser:
    """Recursive-descent parser producing a :class:`ra.Query`."""

    def __init__(self, sql: str, store: ColumnStore):
        self.tokens = tokenize(sql)
        self.pos = 0
        self.store = store
        self.table: str | None = None

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLError("unexpected end of statement")
        self.pos += 1
        return token

    def _accept_kw(self, *words: str) -> bool:
        token = self._peek()
        if token and token.kind == "kw" and token.text in words:
            self.pos += 1
            return True
        return False

    def _expect_kw(self, word: str) -> None:
        if not self._accept_kw(word):
            raise SQLError(f"expected {word.upper()!r} near token {self.pos}")

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token and token.kind == "op" and token.text == op:
            self.pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            raise SQLError(f"expected {op!r} near token {self.pos}")

    # -- grammar ------------------------------------------------------------------

    def parse(self) -> ra.Query:
        self._expect_kw("select")
        items = self._select_list()
        self._expect_kw("from")
        table_tok = self._next()
        if table_tok.kind != "id":
            raise SQLError(f"expected table name, got {table_tok.text!r}")
        self.table = table_tok.text

        predicate = None
        if self._accept_kw("where"):
            predicate = self._disjunction()

        group_cols: list[str] = []
        if self._accept_kw("group"):
            self._expect_kw("by")
            group_cols = self._name_list()

        order_by: list[tuple[str, bool]] = []
        if self._accept_kw("order"):
            self._expect_kw("by")
            while True:
                name = self._next().text
                desc = False
                if self._accept_kw("desc"):
                    desc = True
                else:
                    self._accept_kw("asc")
                order_by.append((name, desc))
                if not self._accept_op(","):
                    break

        limit = None
        if self._accept_kw("limit"):
            token = self._next()
            if token.kind != "num" or not token.text.isdigit():
                raise SQLError(f"LIMIT takes a non-negative integer, got {token.text!r}")
            limit = int(token.text)

        if self._peek() is not None:
            raise SQLError(f"trailing tokens starting at {self._peek().text!r}")
        return self._build_query(items, predicate, group_cols, order_by, limit)

    def _select_list(self):
        items: list[tuple[str, object]] = []  # (name, Expr|AggSpec)
        index = 0
        while True:
            item = self._select_item(index)
            items.append(item)
            index += 1
            if not self._accept_op(","):
                break
        return items

    def _select_item(self, index: int):
        token = self._peek()
        if token and token.kind == "kw" and token.text in ("sum", "min", "max", "avg", "count"):
            fn = self._next().text
            self._expect_op("(")
            if fn == "count" and self._accept_op("*"):
                spec = ra.AggSpec("count")
            else:
                spec = ra.AggSpec(fn, self._additive())
            self._expect_op(")")
            name = self._alias() or f"{fn}_{index}"
            return name, spec
        expr = self._additive()
        name = self._alias()
        if name is None:
            if isinstance(expr, ex.Col):
                name = expr.name
            else:
                name = f"col_{index}"
        return name, expr

    def _alias(self) -> str | None:
        if self._accept_kw("as"):
            return self._next().text
        return None

    def _name_list(self) -> list[str]:
        names = [self._next().text]
        while self._accept_op(","):
            names.append(self._next().text)
        return names

    # -- expressions ---------------------------------------------------------------

    def _disjunction(self) -> ex.Expr:
        node = self._conjunction()
        while self._accept_kw("or"):
            node = ex.Or(node, self._conjunction())
        return node

    def _conjunction(self) -> ex.Expr:
        node = self._negation()
        while self._accept_kw("and"):
            node = ex.And(node, self._negation())
        return node

    def _negation(self) -> ex.Expr:
        if self._accept_kw("not"):
            return ex.Not(self._negation())
        return self._predicate()

    def _predicate(self) -> ex.Expr:
        left = self._additive()
        if self._accept_kw("between"):
            low = self._additive()
            self._expect_kw("and")
            high = self._additive()
            return left.between(self._resolve(left, low), self._resolve(left, high))
        if self._accept_kw("in"):
            self._expect_op("(")
            values = [self._literal_value(left)]
            while self._accept_op(","):
                values.append(self._literal_value(left))
            self._expect_op(")")
            return ex.InSet(left, tuple(values))
        token = self._peek()
        if token and token.kind == "op" and token.text in ("<", ">", "<=", ">=", "=", "<>", "!="):
            op = self._next().text
            right = self._resolve(left, self._additive())
            mapping = {"<": "lt", ">": "gt", "<=": "le", ">=": "ge", "=": "eq",
                       "<>": "ne", "!=": "ne"}
            return ex.Cmp(mapping[op], left, right)
        return left

    def _additive(self) -> ex.Expr:
        node = self._multiplicative()
        while True:
            if self._accept_op("+"):
                node = ex.Arith("add", node, self._multiplicative())
            elif self._accept_op("-"):
                node = ex.Arith("sub", node, self._multiplicative())
            else:
                return node

    def _multiplicative(self) -> ex.Expr:
        node = self._primary()
        while True:
            if self._accept_op("*"):
                node = ex.Arith("mul", node, self._primary())
            elif self._accept_op("/"):
                node = ex.Arith("div", node, self._primary())
            else:
                return node

    def _primary(self) -> ex.Expr:
        if self._accept_op("("):
            node = self._disjunction()
            self._expect_op(")")
            return node
        token = self._next()
        if token.kind == "num":
            return ex.Lit(float(token.text) if "." in token.text else int(token.text))
        if token.kind == "str":
            return _PendingString(token.text)
        if token.kind == "param":
            return ex.Param(token.text)
        if token.kind == "id":
            return ex.Col(token.text)
        raise SQLError(f"unexpected token {token.text!r} in expression")

    # -- string literal resolution -----------------------------------------------------

    def _resolve(self, anchor: ex.Expr, operand: ex.Expr) -> ex.Expr:
        """Resolve a string literal against the dictionary of the anchor column."""
        if isinstance(operand, _PendingString):
            return ex.Lit(self._code_for(anchor, operand.text))
        return operand

    def _literal_value(self, anchor: ex.Expr):
        token = self._next()
        if token.kind == "num":
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "str":
            return self._code_for(anchor, token.text)
        raise SQLError(f"expected literal, got {token.text!r}")

    def _code_for(self, anchor: ex.Expr, text: str) -> int:
        if not isinstance(anchor, ex.Col):
            raise SQLError("string literals require a plain column on the other side")
        return self.store.table(self.table).dictionary(anchor.name).code(text)

    # -- query assembly ------------------------------------------------------------------

    def _build_query(self, items, predicate, group_cols, order_by, limit) -> ra.Query:
        plan: ra.Plan = ra.Scan(self.table)
        if predicate is not None:
            plan = ra.Filter(plan, _strip_pending(predicate))

        select: list[str] = [name for name, _ in items]
        aggs = {name: item for name, item in items if isinstance(item, ra.AggSpec)}
        plain = [(name, item) for name, item in items if not isinstance(item, ra.AggSpec)]

        decode: dict[str, tuple[str, str]] = {}
        if aggs:
            keys = []
            for col in group_cols:
                stats = self.store.stats(self.table, col)
                domain = stats.domain_size
                if domain is None:
                    raise SQLError(f"cannot derive a group domain for column {col!r}")
                offset = 0 if stats.dictionary_size is not None else int(stats.min)
                keys.append(ra.KeySpec(col, ex.Col(col), card=domain, offset=offset))
            carry = [name for name, item in plain if isinstance(item, ex.Col)]
            plan = ra.GroupBy(plan, keys=keys, aggs=aggs, carry=carry)
        elif group_cols:
            raise SQLError("GROUP BY without aggregates is not supported")

        for name, item in plain:
            if isinstance(item, ex.Col):
                column = self.store.table(self.table).column(item.name)
                if column.dictionary is not None:
                    decode[name] = (self.table, item.name)
                if name != item.name and not aggs:
                    plan = ra.Map(plan, {name: item})
            elif not aggs:
                plan = ra.Map(plan, {name: _strip_pending(item)})
            else:
                raise SQLError("non-column select items with GROUP BY are not supported")

        return ra.Query(plan=plan, select=select, order_by=order_by, limit=limit,
                        decode=decode)


@dataclass(frozen=True, eq=False)
class _PendingString(ex.Expr):
    """A string literal awaiting dictionary resolution."""

    text: str


def _strip_pending(expr: ex.Expr) -> ex.Expr:
    """Fail fast if an unresolved string literal survived parsing."""
    def visit(e):
        if isinstance(e, _PendingString):
            raise SQLError(
                f"string literal {e.text!r} could not be resolved against a column"
            )
        for attr in getattr(e, "__dataclass_fields__", {}):
            value = getattr(e, attr)
            if isinstance(value, ex.Expr):
                visit(value)
    visit(expr)
    return expr


def parse_sql(sql: str, store: ColumnStore) -> ra.Query:
    """Parse a SQL statement into a relational :class:`~repro.relational.algebra.Query`."""
    return Parser(sql, store).parse()
