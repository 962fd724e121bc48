"""Recursive-descent parser for the SQL subset.

Grammar (informally)::

    statement   := select | update | delete | insert
    select      := SELECT [DISTINCT] [TOP (n)] items FROM ref join* [WHERE e]
                   [GROUP BY exprs] [ORDER BY order_items] [LIMIT n]
    join        := [INNER] JOIN ref ON e
    update      := UPDATE [TOP (n)] name SET col = e (, col = e)* [WHERE e]
    delete      := DELETE [TOP (n)] FROM name [WHERE e]
    insert      := INSERT INTO name [(cols)] VALUES (e, ...)(, (e, ...))*

    e           := or_e
    or_e        := and_e (OR and_e)*
    and_e       := not_e (AND not_e)*
    not_e       := NOT not_e | predicate
    predicate   := additive [BETWEEN additive AND additive
                            | IN (literal, ...) | cmp additive]
    additive    := multiplicative ((+|-) multiplicative)*
    multiplicative := unary ((*|/) unary)*
    unary       := - unary | primary
    primary     := literal | DATE 'yyyy-mm-dd' | DATEADD(DAY, e, e)
                 | agg ( [*|e] ) | qualified_name | ( e ) | ?

Parsing is split in two so its result can be reused.
:func:`parse_template` turns tokens into a :class:`Template`: the
statement with a *slot* node at every parameter position (each ``?``,
and on request each number and string literal). :func:`instantiate`
fills the slots from a value list, rebuilding only the nodes above a
slot and sharing every other subtree with the template, which is why a
template and the statements made from it must never be mutated.
:func:`parse` is the two composed: ``?`` markers are replaced by the
positional parameters supplied, so workloads can reuse one statement
text with different constants (the paper's ``{1}`` placeholders).
"""

from __future__ import annotations

import datetime as _dt
import numbers
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import SqlError
from repro.core.types import date_to_int
from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.sql.ast import (
    AggregateCall,
    Assignment,
    DeleteStmt,
    InsertStmt,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStmt,
    Star,
    TableRef,
    UpdateStmt,
)
from repro.sql.lexer import (
    COMMA,
    DOT,
    EOF,
    IDENT,
    KEYWORD,
    LPAREN,
    NUMBER,
    OP,
    PARAM,
    RPAREN,
    STAR,
    STRING,
    Token,
    tokenize,
)

_AGG_KEYWORDS = ("sum", "count", "avg", "min", "max")

_TOO_FEW_PARAMS = "not enough parameters supplied for '?' markers"
_TOO_MANY_PARAMS = "more parameters supplied than the text has '?' markers"


# Slot nodes exist only inside a Template; ``index`` is the position of
# the slot's value in the list given to ``instantiate``, which is the
# order the parameter tokens appear in the text.
@dataclass(frozen=True)
class _Slot(Expr):
    """A parameter where an expression stands: becomes ``Literal(value)``."""
    index: int


def slot_index(node) -> Optional[int]:
    """The value index of ``node`` when it is a template's expression slot
    (a ``?`` or literal standing where an expression does), else None."""
    return node.index if node.__class__ is _Slot else None


@dataclass(frozen=True)
class _ValueSlot:
    """A parameter inside an IN list: becomes the bare value."""
    index: int


@dataclass(frozen=True)
class _CountSlot:
    """A parameter after TOP: becomes the value as a row count (see
    :func:`_top_count`), capped by the statement's LIMIT when it has
    one. ``param`` is the ``?``'s position in the text, None where the
    slot stands for a literal."""
    index: int
    param: Optional[int]
    limit: Optional[int] = None


def _top_count(value: object, param: Optional[int]) -> int:
    """``value`` as a TOP row count: a Python or numpy integer >= 0, else
    a SqlError naming the ``?`` at position ``param`` or the literal."""
    if isinstance(value, numbers.Integral) and value >= 0:
        return int(value)
    what = f"TOP {value!r}" if param is None else \
        f"parameter {param} is {value!r}"
    raise SqlError(f"{what}: a TOP count must be an integer >= 0")


@dataclass(frozen=True)
class _Negated(Expr):
    """Unary minus over a slot: whether it folds into the literal depends
    on the value, so the fold waits for ``instantiate``."""
    operand: Expr


def _negate(operand: Expr) -> Expr:
    if isinstance(operand, Literal) and isinstance(
            operand.value, (int, float)):
        return Literal(-operand.value)
    return Arithmetic("-", Literal(0), operand)


class _Parser:
    def __init__(self, tokens: List[Token], slot_literals: bool):
        self.tokens = tokens
        self.pos = 0
        #: Whether number and string literals become slots like ``?``.
        self.slot_literals = slot_literals
        self.n_slots = 0
        #: ``?`` markers consumed so far.
        self.n_params = 0

    # ----------------------------------------------------------- plumbing
    def peek(self, offset: int = 0) -> Token:
        """Look at the token ``offset`` positions ahead without consuming."""
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.tokens[self.pos]
        if token.type != EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *words: str) -> Optional[str]:
        """Consume the next token if it is one of the given keywords."""
        token = self.peek()
        if token.type == KEYWORD and token.value in words:
            self.advance()
            return token.value
        return None

    def expect_keyword(self, word: str) -> None:
        """Consume the given keyword or raise SqlError."""
        if not self.accept_keyword(word):
            raise SqlError(f"expected {word.upper()}, got {self.peek()!r}")

    def accept(self, token_type: str) -> Optional[Token]:
        """Consume the next token if it has the given type."""
        if self.peek().type == token_type:
            return self.advance()
        return None

    def expect(self, token_type: str) -> Token:
        """Consume a token of the given type or raise SqlError."""
        token = self.accept(token_type)
        if token is None:
            raise SqlError(f"expected {token_type}, got {self.peek()!r}")
        return token

    # --------------------------------------------------------- statements
    def parse_statement(self):
        """Parse one complete statement."""
        if self.accept_keyword("select"):
            stmt = self.parse_select()
        elif self.accept_keyword("update"):
            stmt = self.parse_update()
        elif self.accept_keyword("delete"):
            stmt = self.parse_delete()
        elif self.accept_keyword("insert"):
            stmt = self.parse_insert()
        else:
            raise SqlError(f"expected a statement, got {self.peek()!r}")
        if self.peek().type != EOF:
            raise SqlError(f"trailing tokens after statement: {self.peek()!r}")
        return stmt

    def parse_select(self) -> SelectStmt:
        """Parse a SELECT statement body."""
        distinct = bool(self.accept_keyword("distinct"))
        top = self._parse_top()
        items = self._parse_select_items()
        self.expect_keyword("from")
        from_table = self._parse_table_ref()
        joins: List[JoinClause] = []
        while True:
            if self.accept_keyword("inner"):
                self.expect_keyword("join")
            elif not self.accept_keyword("join"):
                break
            table = self._parse_table_ref()
            self.expect_keyword("on")
            condition = self.parse_expr()
            joins.append(JoinClause(table, condition))
        where = self.parse_expr() if self.accept_keyword("where") else None
        group_by: List[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept(COMMA):
                group_by.append(self.parse_expr())
        order_by: List[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self.accept(COMMA):
                order_by.append(self._parse_order_item())
        if self.accept_keyword("limit"):
            limit_token = self.expect(NUMBER)
            limit = int(limit_token.value)
            if isinstance(top, _CountSlot):
                top = _CountSlot(top.index, top.param, limit)
            else:
                top = limit if top is None else min(top, limit)
        return SelectStmt(
            items=items, from_table=from_table, joins=joins, where=where,
            group_by=group_by, order_by=order_by, top=top, distinct=distinct,
        )

    def parse_update(self) -> UpdateStmt:
        """Parse an UPDATE statement body."""
        top = self._parse_top()
        table = self._parse_table_ref(allow_alias=False)
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept(COMMA):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return UpdateStmt(table=table, assignments=assignments, where=where,
                          top=top)

    def parse_delete(self) -> DeleteStmt:
        """Parse a DELETE statement body."""
        top = self._parse_top()
        self.expect_keyword("from")
        table = self._parse_table_ref(allow_alias=False)
        where = self.parse_expr() if self.accept_keyword("where") else None
        return DeleteStmt(table=table, where=where, top=top)

    def parse_insert(self) -> InsertStmt:
        """Parse an INSERT statement body."""
        self.expect_keyword("into")
        table = self._parse_table_ref(allow_alias=False)
        columns: List[str] = []
        if self.accept(LPAREN):
            columns.append(self.expect(IDENT).value)
            while self.accept(COMMA):
                columns.append(self.expect(IDENT).value)
            self.expect(RPAREN)
        self.expect_keyword("values")
        rows = [self._parse_value_row()]
        while self.accept(COMMA):
            rows.append(self._parse_value_row())
        return InsertStmt(table=table, columns=columns, rows=rows)

    # ------------------------------------------------------------- pieces
    def _parse_top(self):
        if not self.accept_keyword("top"):
            return None
        parenthesized = self.accept(LPAREN) is not None
        token = self.accept(PARAM) or self.expect(NUMBER)
        index = self._slot_index(token)
        value = _top_count(token.value, None) if index is None else \
            _CountSlot(index, self.n_params if token.type == PARAM else None)
        if parenthesized:
            self.expect(RPAREN)
        return value

    def _slot_index(self, token: Token) -> Optional[int]:
        """The next slot index when the just-consumed PARAM, NUMBER or
        STRING ``token`` is a parameter position, else None."""
        if token.type == PARAM:
            self.n_params += 1
        elif not self.slot_literals:
            return None
        index = self.n_slots
        self.n_slots += 1
        return index

    def _parse_select_items(self) -> List[SelectItem]:
        items = [self._parse_select_item()]
        while self.accept(COMMA):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self.peek().type == STAR:
            self.advance()
            return SelectItem(Star())
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect(IDENT).value
        elif self.peek().type == IDENT:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _parse_table_ref(self, allow_alias: bool = True) -> TableRef:
        name = self.expect(IDENT).value
        alias = None
        if allow_alias:
            if self.accept_keyword("as"):
                alias = self.expect(IDENT).value
            elif self.peek().type == IDENT:
                alias = self.advance().value
        return TableRef(name, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderItem(expr, descending)

    def _parse_assignment(self) -> Assignment:
        column = self.expect(IDENT).value
        op_token = self.expect(OP)
        if op_token.value == "=":
            value = self.parse_expr()
        elif op_token.value in ("+", "-") and self.peek().type == OP \
                and self.peek().value == "=":
            # 'col += expr' compound assignment (used by the paper's Q4).
            self.advance()
            rhs = self.parse_expr()
            value = Arithmetic(op_token.value, ColumnRef(column), rhs)
        else:
            raise SqlError(f"bad assignment operator at {op_token!r}")
        return Assignment(column, value)

    def _parse_value_row(self) -> List[Expr]:
        self.expect(LPAREN)
        values = [self.parse_expr()]
        while self.accept(COMMA):
            values.append(self.parse_expr())
        self.expect(RPAREN)
        return values

    # -------------------------------------------------------- expressions
    def parse_expr(self) -> Expr:
        """Parse an expression at the lowest (OR) precedence level."""
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        operands = [left]
        while self.accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return left
        return Or(tuple(operands))

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        operands = [left]
        while self.accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return left
        return And(tuple(operands))

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high)
        if self.accept_keyword("in"):
            self.expect(LPAREN)
            values = [self._parse_literal_value()]
            while self.accept(COMMA):
                values.append(self._parse_literal_value())
            self.expect(RPAREN)
            return InList(left, tuple(values))
        token = self.peek()
        if token.type == OP and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self._parse_additive()
            return Comparison(token.value, left, right)
        return left

    def _parse_literal_value(self) -> object:
        token = self.peek()
        if token.type in (NUMBER, STRING, PARAM):
            self.advance()
            index = self._slot_index(token)
            return token.value if index is None else _ValueSlot(index)
        if token.type == KEYWORD and token.value == "null":
            self.advance()
            return None
        raise SqlError(f"expected literal in IN list, got {token!r}")

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.type == OP and token.value in ("+", "-"):
                self.advance()
                right = self._parse_multiplicative()
                left = Arithmetic(token.value, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if (token.type == OP and token.value == "/") or token.type == STAR:
                op = "/" if token.type == OP else "*"
                self.advance()
                right = self._parse_unary()
                left = Arithmetic(op, left, right)
            else:
                return left

    def _parse_unary(self) -> Expr:
        token = self.peek()
        if token.type == OP and token.value == "-":
            self.advance()
            operand = self._parse_unary()
            if isinstance(operand, (_Slot, _Negated)):
                return _Negated(operand)
            return _negate(operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token.type in (NUMBER, STRING, PARAM):
            self.advance()
            index = self._slot_index(token)
            return Literal(token.value) if index is None else _Slot(index)
        if token.type == LPAREN:
            self.advance()
            expr = self.parse_expr()
            self.expect(RPAREN)
            return expr
        if token.type == KEYWORD:
            return self._parse_keyword_primary(token)
        if token.type == IDENT:
            return self._parse_name()
        raise SqlError(f"unexpected token in expression: {token!r}")

    def _parse_keyword_primary(self, token: Token) -> Expr:
        if token.value == "null":
            self.advance()
            return Literal(None)
        if token.value == "date":
            self.advance()
            text = self.expect(STRING).value
            return Literal(_parse_date_literal(text))
        if token.value == "dateadd":
            self.advance()
            self.expect(LPAREN)
            self.expect_keyword("day")
            self.expect(COMMA)
            amount = self.parse_expr()
            self.expect(COMMA)
            base = self.parse_expr()
            self.expect(RPAREN)
            # Dates are day numbers, so DATEADD(DAY, n, d) is d + n.
            return Arithmetic("+", base, amount)
        if token.value in _AGG_KEYWORDS:
            self.advance()
            self.expect(LPAREN)
            if self.peek().type == STAR:
                self.advance()
                argument = None
                if token.value != "count":
                    raise SqlError(f"{token.value}(*) is not valid")
            else:
                argument = self.parse_expr()
            self.expect(RPAREN)
            return AggregateCall(token.value, argument)
        raise SqlError(f"unexpected keyword in expression: {token!r}")

    def _parse_name(self) -> Expr:
        first = self.expect(IDENT).value
        if self.accept(DOT):
            second = self.expect(IDENT).value
            return ColumnRef(f"{first}.{second}")
        return ColumnRef(first)


def _parse_date_literal(text: str) -> int:
    try:
        return date_to_int(_dt.date.fromisoformat(text))
    except ValueError:
        raise SqlError(f"bad DATE literal {text!r}") from None


# Literals that stay part of a normalised key instead of becoming a
# slot, by the keyword before them: the parser reads ``DATE 'text'`` and
# ``LIMIT n`` as one unit (the text is converted while parsing, the
# count folds into TOP), so neither is a parameter position.
_KEPT_AFTER = {STRING: "date", NUMBER: "limit"}
_NUMBER_SLOT = (NUMBER,)
_STRING_SLOT = (STRING,)
#: Stands in :func:`normalise`'s values for a ``?`` the caller fills.
UNBOUND = object()


def normalise(tokens: Sequence[Token]) -> Tuple[tuple, tuple]:
    """The text's template key and the values its slots take.

    The key is the token stream without positions and with every number
    and string literal that ``parse_template(tokens, slot_literals=True)``
    turns into a slot replaced by a marker of its type, so texts that
    differ only in such literals share one key. The second result has
    one entry per slot, in slot order: the literal's value, or
    :data:`UNBOUND` where the text has a ``?`` (see :func:`fill`).
    """
    key = []
    values = []
    previous = tokens[-1]       # EOF: no literal follows it
    for token in tokens:
        type_ = token.type
        if type_ == NUMBER or type_ == STRING:
            if (previous.type == KEYWORD
                    and previous.value == _KEPT_AFTER[type_]):
                key.append((type_, token.value))
            else:
                key.append(_NUMBER_SLOT if type_ == NUMBER else _STRING_SLOT)
                values.append(token.value)
        else:
            key.append(token.value)
            if type_ == PARAM:
                values.append(UNBOUND)
        previous = token
    return tuple(key), tuple(values)


def fill(values: Sequence[object], params: Sequence[object]
         ) -> Sequence[object]:
    """``values`` with each :data:`UNBOUND` entry replaced by the next of
    ``params``: the literals of a text interleaved, in token order, with
    the caller's values for its ``?`` markers, of which there must be
    exactly as many as ``params`` has values."""
    if UNBOUND not in values:
        if len(params):
            raise SqlError(_TOO_MANY_PARAMS)
        return values
    for position, value in enumerate(params, 1):
        _check_param(position, value)
    remaining = iter(params)
    try:
        filled = [next(remaining) if value is UNBOUND else value
                  for value in values]
    except StopIteration:
        raise SqlError(_TOO_FEW_PARAMS) from None
    if next(remaining, UNBOUND) is not UNBOUND:
        raise SqlError(_TOO_MANY_PARAMS)
    return filled


def _check_param(position: int, value: object) -> None:
    """Refuse a ``?`` value that is not a number other than NaN, a
    string, a date or None. A NaN compares false with everything, and
    whether a design's seek, range bound or filter then answers some rows
    or none depends on which comparison it makes; ``sqlite3`` binds NaN
    as NULL."""
    if value is None or isinstance(value, (str, _dt.date)):
        return
    if isinstance(value, numbers.Real) and value == value:
        return
    raise SqlError(f"parameter {position} is {value!r}: a '?' value must "
                   f"be a number (not NaN), a string, a date or NULL")


class Template:
    """A parsed statement with slots at its parameter positions."""

    __slots__ = ("statement", "n_slots", "_build", "plans")

    def __init__(self, statement, n_slots: int):
        #: The statement with its slot nodes; only ``instantiate`` turns
        #: it into one the binder can take.
        self.statement = statement
        self.n_slots = n_slots
        self._build = _builder(statement) if n_slots else None
        #: What plan reuse knows of the template
        #: (:mod:`repro.optimizer.reuse`): None until a SELECT made from
        #: it first binds, then False or its cached plans.
        self.plans = None

    @property
    def read_only(self) -> bool:
        """Whether the statement is a SELECT."""
        return isinstance(self.statement, SelectStmt)


_LEAF_CLASSES = frozenset((str, int, float, bool, type(None)))


def _builder(node) -> Optional[Callable[[Sequence[object]], object]]:
    """A function from the slot values to ``node`` with its slots filled,
    or None when ``node`` holds no slot and can be shared as it is."""
    cls = node.__class__
    if cls in _LEAF_CLASSES:
        return None
    if cls is _Slot:
        index = node.index
        return lambda values: Literal(values[index])
    if cls is _ValueSlot:
        index = node.index
        return lambda values: values[index]
    if cls is _CountSlot:
        index, param, limit = node.index, node.param, node.limit
        if limit is None:
            return lambda values: _top_count(values[index], param)
        return lambda values: min(_top_count(values[index], param), limit)
    if cls is _Negated:
        operand = _builder(node.operand)
        return lambda values: _negate(operand(values))
    sequence = cls is list or cls is tuple
    # Otherwise an AST dataclass; field order is constructor order.
    items = node if sequence else [
        getattr(node, name) for name in node.__dataclass_fields__]
    # Plain loops, here and in ``build``: one frame per level of the
    # tree, so a long chain of operators nests as deep as it does in
    # the binder and no deeper.
    parts = []
    shared = True
    for item in items:
        part = _builder(item)
        parts.append((item, part))
        shared = shared and part is None
    if shared:
        return None

    def build(values):
        built = []
        for item, part in parts:
            built.append(item if part is None else part(values))
        return cls(built) if sequence else cls(*built)
    return build


def parse_template(tokens: Sequence[Token],
                   slot_literals: bool = False) -> Template:
    """Parse one statement's tokens into a :class:`Template`.

    Every ``?`` becomes a slot; with ``slot_literals`` so does every
    number and string literal except those :func:`normalise` keeps in
    the key, so the template serves any text with the same key.
    """
    parser = _Parser(tokens, slot_literals)
    return Template(parser.parse_statement(), parser.n_slots)


def instantiate(template: Template, values: Sequence[object]):
    """The template's statement with slot ``i`` filled from ``values[i]``,
    one value per slot."""
    if len(values) < template.n_slots:
        raise SqlError(_TOO_FEW_PARAMS)
    if len(values) > template.n_slots:
        raise SqlError(_TOO_MANY_PARAMS)
    if template._build is None:
        return template.statement
    return template._build(values)


def parse(sql: str, params: Sequence[object] = ()):
    """Parse one SQL statement, substituting ``?`` markers from ``params``."""
    return instantiate(parse_template(tokenize(sql)), params)
