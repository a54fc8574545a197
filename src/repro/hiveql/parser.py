"""Recursive-descent parser for the HiveQL subset."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import HiveQLSyntaxError
from repro.hiveql import ast
from repro.hiveql.lexer import Token, tokenize


def parse(text: str) -> ast.Statement:
    """Parse one statement (a trailing ``;`` is allowed)."""
    parser = _Parser(text)
    stmt = parser.statement()
    parser.accept_symbol(";")
    parser.expect_eof()
    return stmt


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and index properties)."""
    parser = _Parser(text)
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------- utilities
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        self.pos += 1
        return token

    def error(self, message: str) -> HiveQLSyntaxError:
        return HiveQLSyntaxError(message, self.current.position, self.text)

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if any(self.current.is_keyword(w) for w in words):
            return self.advance()
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.accept_keyword(word)
        if token is None:
            raise self.error(f"expected {word}, got {self.current.text!r}")
        return token

    def accept_symbol(self, sym: str) -> Optional[Token]:
        if self.current.is_symbol(sym):
            return self.advance()
        return None

    def expect_symbol(self, sym: str) -> Token:
        token = self.accept_symbol(sym)
        if token is None:
            raise self.error(f"expected {sym!r}, got {self.current.text!r}")
        return token

    def expect_ident(self) -> str:
        if self.current.kind != "IDENT":
            raise self.error(f"expected identifier, got {self.current.text!r}")
        return self.advance().text

    def expect_string(self) -> str:
        if self.current.kind != "STRING":
            raise self.error(
                f"expected string literal, got {self.current.text!r}")
        return self.advance().text

    def expect_eof(self) -> None:
        if self.current.kind != "EOF":
            raise self.error(f"unexpected trailing input {self.current.text!r}")

    # ------------------------------------------------------------ statements
    def statement(self) -> ast.Statement:
        if self.accept_keyword("EXPLAIN"):
            analyze = self.accept_keyword("ANALYZE") is not None
            query = self.statement()
            if not isinstance(query, ast.SelectStmt):
                raise self.error("EXPLAIN supports SELECT statements only")
            return ast.ExplainStmt(query=query, analyze=analyze)
        if self.current.is_keyword("SELECT"):
            return self.select_statement()
        if self.current.is_keyword("INSERT"):
            return self.insert_statement()
        if self.current.is_keyword("CREATE"):
            return self.create_statement()
        if self.current.is_keyword("DROP"):
            return self.drop_statement()
        if self.current.is_keyword("SHOW"):
            return self.show_statement()
        if self.accept_keyword("DESCRIBE"):
            return ast.DescribeStmt(table=self.expect_ident())
        raise self.error(f"unknown statement start {self.current.text!r}")

    def insert_statement(self) -> ast.SelectStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("OVERWRITE")
        self.expect_keyword("DIRECTORY")
        directory = self.expect_string()
        select = self.select_statement()
        return ast.SelectStmt(
            items=select.items, table=select.table, joins=select.joins,
            where=select.where, group_by=select.group_by,
            order_by=select.order_by, limit=select.limit,
            insert_directory=directory)

    def select_statement(self) -> ast.SelectStmt:
        self.expect_keyword("SELECT")
        items = self.select_items()
        self.expect_keyword("FROM")
        table = self.table_ref()
        joins: List[ast.Join] = []
        while self.accept_keyword("JOIN") or (
                self.current.is_keyword("INNER")
                and self.advance() and self.expect_keyword("JOIN")):
            join_table = self.table_ref()
            self.expect_keyword("ON")
            condition = self.expression()
            joins.append(ast.Join(table=join_table, condition=condition))
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        group_by: Tuple[ast.Expr, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by = tuple(self.expression_list())
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expr = self.expression()
                ascending = True
                if self.accept_keyword("DESC"):
                    ascending = False
                else:
                    self.accept_keyword("ASC")
                order_by.append(ast.OrderItem(expr=expr, ascending=ascending))
                if not self.accept_symbol(","):
                    break
        limit = None
        if self.accept_keyword("LIMIT"):
            if self.current.kind != "NUMBER":
                raise self.error("LIMIT expects a number")
            limit = int(self.advance().text)
        return ast.SelectStmt(items=tuple(items), table=table,
                              joins=tuple(joins), where=where,
                              group_by=group_by, order_by=tuple(order_by),
                              limit=limit)

    def select_items(self) -> List[ast.SelectItem]:
        items = []
        while True:
            if self.accept_symbol("*"):
                items.append(ast.SelectItem(expr=ast.Star()))
            else:
                expr = self.expression()
                alias = None
                if self.accept_keyword("AS"):
                    alias = self.expect_ident()
                elif self.current.kind == "IDENT":
                    alias = self.advance().text
                items.append(ast.SelectItem(expr=expr, alias=alias))
            if not self.accept_symbol(","):
                return items

    def table_ref(self) -> ast.TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.advance().text
        return ast.TableRef(name=name, alias=alias)

    def expression_list(self) -> List[ast.Expr]:
        exprs = [self.expression()]
        while self.accept_symbol(","):
            exprs.append(self.expression())
        return exprs

    # ----------------------------------------------------------- expressions
    def expression(self) -> ast.Expr:
        return self.or_expr()

    def or_expr(self) -> ast.Expr:
        left = self.and_expr()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp(op="OR", left=left, right=self.and_expr())
        return left

    def and_expr(self) -> ast.Expr:
        left = self.not_expr()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp(op="AND", left=left, right=self.not_expr())
        return left

    def not_expr(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp(op="NOT", operand=self.not_expr())
        return self.comparison()

    def comparison(self) -> ast.Expr:
        left = self.additive()
        if self.accept_keyword("BETWEEN"):
            low = self.additive()
            self.expect_keyword("AND")
            high = self.additive()
            return ast.Between(operand=left, low=low, high=high)
        if self.accept_keyword("IN"):
            self.expect_symbol("(")
            options = tuple(self.expression_list())
            self.expect_symbol(")")
            return ast.InList(operand=left, options=options)
        if self.accept_keyword("LIKE"):
            return ast.BinaryOp(op="LIKE", left=left,
                                right=self.additive())
        for sym in ("<=", ">=", "<>", "!=", "=", "<", ">"):
            if self.accept_symbol(sym):
                op = "!=" if sym == "<>" else sym
                return ast.BinaryOp(op=op, left=left, right=self.additive())
        return left

    def additive(self) -> ast.Expr:
        left = self.multiplicative()
        while True:
            if self.accept_symbol("+"):
                left = ast.BinaryOp(op="+", left=left,
                                    right=self.multiplicative())
            elif self.accept_symbol("-"):
                left = ast.BinaryOp(op="-", left=left,
                                    right=self.multiplicative())
            else:
                return left

    def multiplicative(self) -> ast.Expr:
        left = self.unary()
        while True:
            if self.accept_symbol("*"):
                left = ast.BinaryOp(op="*", left=left, right=self.unary())
            elif self.accept_symbol("/"):
                left = ast.BinaryOp(op="/", left=left, right=self.unary())
            elif self.accept_symbol("%"):
                left = ast.BinaryOp(op="%", left=left, right=self.unary())
            else:
                return left

    def unary(self) -> ast.Expr:
        if self.accept_symbol("-"):
            operand = self.unary()
            if isinstance(operand, ast.Literal) \
                    and isinstance(operand.value, (int, float)):
                # Fold negative numeric literals so predicate analysis sees
                # them as plain literals (e.g. ``x > -1``).
                return ast.Literal(value=-operand.value)
            return ast.UnaryOp(op="-", operand=operand)
        return self.primary()

    def primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "NUMBER":
            value = int(token.text) if token.text.isdigit() \
                else float(token.text)
            if value == math.inf:
                raise self.error("numeric literal out of range")
            self.advance()
            return ast.Literal(value=value)
        if token.kind == "STRING":
            self.advance()
            return ast.Literal(value=token.text)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(value=None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(value=True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(value=False)
        if self.accept_symbol("("):
            expr = self.expression()
            self.expect_symbol(")")
            return expr
        if token.kind == "IDENT":
            return self.identifier_expr()
        raise self.error(f"unexpected token {token.text!r} in expression")

    def identifier_expr(self) -> ast.Expr:
        name = self.expect_ident()
        if self.accept_symbol("("):  # function call
            distinct = bool(self.accept_keyword("DISTINCT"))
            args: List[ast.Expr] = []
            if self.accept_symbol("*"):
                args.append(ast.Star())
            elif not self.current.is_symbol(")"):
                args = self.expression_list()
            self.expect_symbol(")")
            return ast.FuncCall(name=name.lower(), args=tuple(args),
                                distinct=distinct)
        if self.accept_symbol("."):
            column = self.expect_ident()
            return ast.ColumnRef(name=column, table=name)
        return ast.ColumnRef(name=name)

    # ------------------------------------------------------------ create/drop
    def create_statement(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            return self.create_table()
        if self.accept_keyword("INDEX"):
            return self.create_index()
        raise self.error("expected TABLE or INDEX after CREATE")

    def create_table(self) -> ast.CreateTableStmt:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident()
        self.expect_symbol("(")
        columns = [self.column_def()]
        while self.accept_symbol(","):
            columns.append(self.column_def())
        self.expect_symbol(")")
        partitioned: List[ast.ColumnDef] = []
        if self.accept_keyword("PARTITIONED"):
            self.expect_keyword("BY")
            self.expect_symbol("(")
            partitioned.append(self.column_def())
            while self.accept_symbol(","):
                partitioned.append(self.column_def())
            self.expect_symbol(")")
        stored_as = "TEXTFILE"
        if self.accept_keyword("STORED"):
            self.expect_keyword("AS")
            stored_as = self.expect_ident().upper()
        return ast.CreateTableStmt(name=name, columns=tuple(columns),
                                   stored_as=stored_as,
                                   partitioned_by=tuple(partitioned),
                                   if_not_exists=if_not_exists)

    def column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_name = self.expect_ident().lower()
        return ast.ColumnDef(name=name, type_name=type_name)

    def create_index(self) -> ast.CreateIndexStmt:
        name = self.expect_ident()
        self.expect_keyword("ON")
        self.expect_keyword("TABLE")
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = [self.expect_ident()]
        while self.accept_symbol(","):
            columns.append(self.expect_ident())
        self.expect_symbol(")")
        self.expect_keyword("AS")
        handler = self.expect_string()
        deferred = False
        if self.accept_keyword("WITH"):
            self.expect_keyword("DEFERRED")
            self.expect_keyword("REBUILD")
            deferred = True
        properties: Dict[str, str] = {}
        if self.accept_keyword("IDXPROPERTIES"):
            self.expect_symbol("(")
            while True:
                key = self.expect_string()
                self.expect_symbol("=")
                properties[key] = self.expect_string()
                if not self.accept_symbol(","):
                    break
            self.expect_symbol(")")
        return ast.CreateIndexStmt(name=name, table=table,
                                   columns=tuple(columns), handler=handler,
                                   properties=properties,
                                   deferred_rebuild=deferred)

    def drop_statement(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            return ast.DropTableStmt(name=self.expect_ident(),
                                     if_exists=if_exists)
        if self.accept_keyword("INDEX"):
            name = self.expect_ident()
            self.expect_keyword("ON")
            return ast.DropIndexStmt(name=name, table=self.expect_ident())
        raise self.error("expected TABLE or INDEX after DROP")

    def show_statement(self) -> ast.Statement:
        self.expect_keyword("SHOW")
        if self.accept_keyword("TABLES"):
            return ast.ShowTablesStmt()
        if self.accept_keyword("INDEXES"):
            self.expect_keyword("ON")
            return ast.ShowIndexesStmt(table=self.expect_ident())
        raise self.error("expected TABLES or INDEXES after SHOW")
