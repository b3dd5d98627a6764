"""Recursive-descent SQL parser producing :mod:`repro.sql.ast` trees.

Grammar (informally)::

    statement   := (select | insert | update | delete) [';']
    select      := SELECT [DISTINCT | ALL] items [FROM table_ref join*]
                   [WHERE expr] [GROUP BY expr_list [HAVING expr]]
                   [ORDER BY order_list] [LIMIT expr [OFFSET expr]]
    join        := ',' table_ref | [INNER] JOIN table_ref ON expr
                 | LEFT [OUTER] JOIN table_ref ON expr
    insert      := INSERT INTO name ['(' cols ')'] (VALUES rows | select)
                 | INSERT INTO name ['(' cols ')'] VALUES row upsert
    upsert      := ON CONFLICT '(' cols ')' DO UPDATE SET assignments
                   [RETURNING cols]
    update      := UPDATE name SET assignments [WHERE expr]
    delete      := DELETE FROM name [WHERE expr]

``CONFLICT``, ``DO`` and ``RETURNING`` are read as plain identifiers in
those positions, so no column name is reserved by them.  The utility
statement ``ANALYZE [table]`` is read by :func:`statement_head`, not
parsed here.

Expression precedence (loosest to tightest): OR, AND, NOT, comparison /
IN / BETWEEN / LIKE / IS, additive, multiplicative, unary, primary.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from ..common.errors import LexError, ParseError
from .ast import (
    Assignment,
    Between,
    Binary,
    Case,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    InList,
    Insert,
    IsNull,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    Param,
    Select,
    SelectItem,
    Statement,
    TableRef,
    Unary,
    Update,
)
from .lexer import Token, TokenType, tokenize

_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})


def parse(sql: str) -> Statement:
    """Parse one SQL statement (a single trailing ``;`` is allowed)."""
    return _Parser(sql).parse_statement()


def parse_expression(sql: str) -> Expr:
    """Parse a standalone expression (used by tests and the REPL)."""
    parser = _Parser(sql)
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


@lru_cache(maxsize=256)
def statement_head(sql: str) -> tuple[str, Optional[str]]:
    """``(verb, table)``: the statement's first word, lower-cased (``""``
    when it starts with none), read from the lexer so a leading comment
    cannot hide it; ``table`` is the operand of the utility statement
    ``ANALYZE [table]``, else None.  Text the lexer rejects has no verb:
    preparing it raises the lexer's error."""
    try:
        tokens = tokenize(sql)  # never empty: EOF terminates it
    except LexError:
        return "", None
    first = tokens[0]
    head = first.value if first.type in (TokenType.KEYWORD, TokenType.IDENT) else ""
    if head != "analyze":
        return head, None
    rest = tokens[1:-1]
    if rest and rest[-1].type is TokenType.OP and rest[-1].value == ";":
        rest = rest[:-1]
    if len(rest) > 1 or (rest and rest[0].type is not TokenType.IDENT):
        raise ParseError(f"expected ANALYZE [table], got {sql!r}")
    return head, rest[0].value if rest else None


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self._param_counter = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *names: str) -> Optional[Token]:
        if self.peek().is_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, *names: str) -> Token:
        token = self.peek()
        if not token.is_keyword(*names):
            raise ParseError(
                f"expected {'/'.join(n.upper() for n in names)} but found "
                f"{token.value!r} at position {token.position}",
                token.position,
            )
        return self.advance()

    def accept_word(self, word: str) -> Optional[Token]:
        """A contextual word, lexed as an identifier (not reserved)."""
        token = self.peek()
        if token.type is TokenType.IDENT and token.value == word:
            return self.advance()
        return None

    def expect_word(self, word: str) -> Token:
        token = self.accept_word(word)
        if token is None:
            token = self.peek()
            raise ParseError(
                f"expected {word.upper()} but found {token.value!r} at position "
                f"{token.position}",
                token.position,
            )
        return token

    def accept_op(self, *ops: str) -> Optional[Token]:
        token = self.peek()
        if token.type is TokenType.OP and token.value in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.type is not TokenType.OP or token.value != op:
            raise ParseError(
                f"expected {op!r} but found {token.value!r} at position {token.position}",
                token.position,
            )
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        # permit non-reserved keywords used as identifiers in benchmarks
        if token.type is TokenType.KEYWORD and token.value in ("count", "sum", "min", "max", "avg", "key", "all"):
            self.advance()
            return token.value
        raise ParseError(
            f"expected identifier but found {token.value!r} at position {token.position}",
            token.position,
        )

    def expect_eof(self) -> None:
        self.accept_op(";")
        token = self.peek()
        if token.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.value!r} at position {token.position}",
                token.position,
            )

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self.peek()
        if token.is_keyword("select"):
            stmt: Statement = self.parse_select()
        elif token.is_keyword("insert"):
            stmt = self.parse_insert()
        elif token.is_keyword("update"):
            stmt = self.parse_update()
        elif token.is_keyword("delete"):
            stmt = self.parse_delete()
        else:
            raise ParseError(
                f"expected a statement but found {token.value!r} at position {token.position}",
                token.position,
            )
        self.expect_eof()
        return stmt

    def parse_select(self) -> Select:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct") is not None
        self.accept_keyword("all")
        items = self._parse_select_items()

        table: Optional[TableRef] = None
        joins: list[JoinClause] = []
        if self.accept_keyword("from"):
            table = self._parse_table_ref()
            while True:
                if self.accept_op(","):
                    joins.append(JoinClause(self._parse_table_ref(), on=None, kind="cross"))
                    continue
                kind = None
                if self.accept_keyword("join") or (
                    self.accept_keyword("inner") and self.expect_keyword("join")
                ):
                    kind = "inner"
                elif self.peek().is_keyword("left"):
                    self.advance()
                    self.accept_keyword("outer") if self.peek().is_keyword("outer") else None
                    self.expect_keyword("join")
                    kind = "left"
                if kind is None:
                    break
                ref = self._parse_table_ref()
                self.expect_keyword("on")
                on = self.parse_expr()
                joins.append(JoinClause(ref, on=on, kind=kind))

        where = self.parse_expr() if self.accept_keyword("where") else None

        group_by: tuple = ()
        having = None
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            exprs = [self.parse_expr()]
            while self.accept_op(","):
                exprs.append(self.parse_expr())
            group_by = tuple(exprs)
            if self.accept_keyword("having"):
                having = self.parse_expr()

        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self.accept_keyword("limit"):
            limit = self.parse_expr()
            if self.accept_keyword("offset"):
                offset = self.parse_expr()

        return Select(
            items=items,
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_items(self) -> tuple[SelectItem, ...]:
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        if self.accept_op("*"):
            return SelectItem(expr=Literal(None), star=True)
        # qualified star: ident '.' '*'
        token = self.peek()
        if (
            token.type is TokenType.IDENT
            and self.peek(1).type is TokenType.OP
            and self.peek(1).value == "."
            and self.peek(2).type is TokenType.OP
            and self.peek(2).value == "*"
        ):
            self.advance()
            self.advance()
            self.advance()
            return SelectItem(expr=Literal(None), star=True, star_qualifier=token.value)
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        else:
            self.accept_keyword("asc")
        return OrderItem(expr=expr, descending=descending)

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def parse_insert(self) -> Insert:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = TableRef(name=self.expect_ident())
        token = self.peek()
        opens = token.type is TokenType.OP and token.value == "("
        columns = self._parse_column_list() if opens else ()
        if self.accept_keyword("values"):
            rows = [self._parse_value_row()]
            while self.accept_op(","):
                rows.append(self._parse_value_row())
            if not self.accept_keyword("on"):
                return Insert(table=table, columns=columns, rows=tuple(rows))
            self.expect_word("conflict")
            conflict = self._parse_column_list()
            self.expect_word("do")
            self.expect_keyword("update")
            assignments = self._parse_assignments()
            returning = self._parse_names() if self.accept_word("returning") else ()
            if len(rows) != 1:
                raise ParseError("ON CONFLICT takes exactly one VALUES row")
            return Insert(table=table, columns=columns, rows=tuple(rows),
                          conflict=conflict, on_conflict=assignments, returning=returning)
        if self.peek().is_keyword("select"):
            return Insert(table=table, columns=columns, select=self.parse_select_only())
        token = self.peek()
        raise ParseError(
            f"expected VALUES or SELECT at position {token.position}", token.position
        )

    def _parse_column_list(self) -> tuple[str, ...]:
        self.expect_op("(")
        cols = self._parse_names()
        self.expect_op(")")
        return cols

    def _parse_names(self) -> tuple[str, ...]:
        names = [self.expect_ident()]
        while self.accept_op(","):
            names.append(self.expect_ident())
        return tuple(names)

    def parse_select_only(self) -> Select:
        """Parse a SELECT without the trailing-EOF check (subquery position)."""
        return self.parse_select()

    def _parse_value_row(self) -> tuple[Expr, ...]:
        self.expect_op("(")
        exprs = [self.parse_expr()]
        while self.accept_op(","):
            exprs.append(self.parse_expr())
        self.expect_op(")")
        return tuple(exprs)

    def parse_update(self) -> Update:
        self.expect_keyword("update")
        table = TableRef(name=self.expect_ident())
        assignments = self._parse_assignments()
        where = self.parse_expr() if self.accept_keyword("where") else None
        return Update(table=table, assignments=assignments, where=where)

    def _parse_assignments(self) -> tuple[Assignment, ...]:
        self.expect_keyword("set")
        assignments = [self._parse_assignment()]
        while self.accept_op(","):
            assignments.append(self._parse_assignment())
        return tuple(assignments)

    def _parse_assignment(self) -> Assignment:
        column = self.expect_ident()
        self.expect_op("=")
        return Assignment(column=column, value=self.parse_expr())

    def parse_delete(self) -> Delete:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = TableRef(name=self.expect_ident())
        where = self.parse_expr() if self.accept_keyword("where") else None
        return Delete(table=table, where=where)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = Binary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = Binary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return Unary("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        token = self.peek()

        if token.type is TokenType.OP and token.value in _COMPARISON_OPS:
            op = self.advance().value
            return Binary(op, left, self._parse_additive())

        negated = False
        if token.is_keyword("not"):
            nxt = self.peek(1)
            if nxt.is_keyword("in", "between", "like"):
                self.advance()
                negated = True
                token = self.peek()

        if token.is_keyword("in"):
            self.advance()
            self.expect_op("(")
            items = [self.parse_expr()]
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.expect_op(")")
            return InList(left, tuple(items), negated=negated)

        if token.is_keyword("between"):
            self.advance()
            low = self._parse_additive()
            self.expect_keyword("and")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)

        if token.is_keyword("like"):
            self.advance()
            return Like(left, self._parse_additive(), negated=negated)

        if token.is_keyword("is"):
            self.advance()
            is_negated = self.accept_keyword("not") is not None
            self.expect_keyword("null")
            return IsNull(left, negated=is_negated)

        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self.accept_op("+", "-")
            if token is None:
                return left
            left = Binary(token.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self.accept_op("*", "/", "%")
            if token is None:
                return left
            left = Binary(token.value, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        token = self.accept_op("-", "+")
        if token is not None:
            operand = self._parse_unary()
            if token.value == "-" and isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ):
                return Literal(-operand.value)
            return Unary(token.value, operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()

        if token.type is TokenType.NUMBER or token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)

        if token.type is TokenType.PARAM:
            self.advance()
            param = Param(self._param_counter)
            self._param_counter += 1
            return param

        if token.is_keyword("null"):
            self.advance()
            return Literal(None)
        if token.is_keyword("true"):
            self.advance()
            return Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return Literal(False)

        if token.is_keyword("case"):
            return self._parse_case()

        if token.is_keyword("count", "sum", "avg", "min", "max"):
            return self._parse_function_call(self.advance().value)

        if token.type is TokenType.OP and token.value == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr

        if token.type is TokenType.IDENT:
            name = self.advance().value
            nxt = self.peek()
            if nxt.type is TokenType.OP and nxt.value == "(":
                return self._parse_function_call(name)
            if nxt.type is TokenType.OP and nxt.value == ".":
                self.advance()
                column = self.expect_ident()
                return ColumnRef(name=column, qualifier=name)
            return ColumnRef(name=name)

        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}",
            token.position,
        )

    def _parse_case(self) -> Expr:
        self.expect_keyword("case")
        whens: list[tuple[Expr, Expr]] = []
        while self.accept_keyword("when"):
            cond = self.parse_expr()
            self.expect_keyword("then")
            whens.append((cond, self.parse_expr()))
        if not whens:
            token = self.peek()
            raise ParseError(
                f"CASE requires at least one WHEN at position {token.position}",
                token.position,
            )
        else_ = self.parse_expr() if self.accept_keyword("else") else None
        self.expect_keyword("end")
        return Case(tuple(whens), else_)

    def _parse_function_call(self, name: str) -> Expr:
        self.expect_op("(")
        if self.accept_op("*"):
            self.expect_op(")")
            return FuncCall(name=name, args=(), star=True)
        if self.accept_op(")"):
            return FuncCall(name=name, args=())
        distinct = self.accept_keyword("distinct") is not None
        args = [self.parse_expr()]
        while self.accept_op(","):
            args.append(self.parse_expr())
        self.expect_op(")")
        return FuncCall(name=name, args=tuple(args), distinct=distinct)
