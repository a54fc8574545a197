"""Tests for the HiveQL lexer and parser."""

import pytest

from repro.errors import HiveQLSyntaxError
from repro.hiveql import ast, parse, parse_expression, tokenize


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_preserve_case(self):
        tokens = tokenize("powerConsumed")
        assert tokens[0].kind == "IDENT"
        assert tokens[0].text == "powerConsumed"

    def test_numbers(self):
        tokens = tokenize("42 3.14 0.5")
        assert [t.text for t in tokens[:-1]] == ["42", "3.14", "0.5"]

    def test_numbers_with_exponent(self):
        tokens = tokenize("1e-05 2.5E+16 5e-324 7e2 1 e")
        assert [t.text for t in tokens[:-1]] \
            == ["1e-05", "2.5E+16", "5e-324", "7e2", "1", "e"]

    def test_strings_both_quotes(self):
        tokens = tokenize("'abc' \"xy z\"")
        assert [t.text for t in tokens[:-1]] == ["abc", "xy z"]

    def test_unterminated_string(self):
        with pytest.raises(HiveQLSyntaxError):
            tokenize("'oops")

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "1"]

    def test_two_char_operators(self):
        tokens = tokenize("a >= b <= c <> d != e")
        ops = [t.text for t in tokens if t.kind == "SYMBOL"]
        assert ops == [">=", "<=", "<>", "!="]

    def test_unknown_character(self):
        with pytest.raises(HiveQLSyntaxError):
            tokenize("a @ b")

    def test_error_carries_position(self):
        try:
            tokenize("abc @")
        except HiveQLSyntaxError as error:
            assert error.position == 4


class TestExpressions:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, ast.BinaryOp)
        assert expr.right.op == "AND"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_comparison(self):
        expr = parse_expression("userid >= 100")
        assert expr.op == ">="
        assert isinstance(expr.left, ast.ColumnRef)
        assert expr.left.name == "userid"
        assert expr.right.value == 100

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, ast.Between)
        assert expr.low.value == 1 and expr.high.value == 5

    def test_in_list(self):
        expr = parse_expression("r IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.options) == 3

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "NOT"

    def test_unary_minus_folds_literals(self):
        expr = parse_expression("-5")
        assert isinstance(expr, ast.Literal) and expr.value == -5

    def test_exponent_literals_are_floats(self):
        for text, value in (("1e-05", 1e-05), ("1e+16", 1e16),
                            ("-5e-324", -5e-324), ("7e2", 700.0)):
            expr = parse_expression(text)
            assert isinstance(expr, ast.Literal)
            assert type(expr.value) is float and expr.value == value

    def test_overflowing_literal_rejected(self):
        with pytest.raises(HiveQLSyntaxError, match="out of range"):
            parse_expression("x < 1e999")
        # integers stay exact, however long
        assert parse_expression("1" + "0" * 400).value == 10 ** 400

    def test_unary_minus_on_column(self):
        expr = parse_expression("-a")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "-"

    def test_function_call(self):
        expr = parse_expression("sum(powerConsumed)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "sum"

    def test_count_star(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        expr = parse_expression("count(DISTINCT userid)")
        assert expr.distinct

    def test_qualified_column(self):
        expr = parse_expression("t1.userid")
        assert expr.table == "t1" and expr.name == "userid"

    def test_null_true_false(self):
        assert parse_expression("NULL").value is None
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False

    def test_neq_normalized(self):
        assert parse_expression("a <> 1").op == "!="

    def test_trailing_garbage(self):
        with pytest.raises(HiveQLSyntaxError):
            parse_expression("1 + 2 extra junk (")


class TestSelect:
    def test_simple(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStmt)
        assert len(stmt.items) == 2
        assert stmt.table.name == "t"

    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_alias(self):
        stmt = parse("SELECT sum(c) AS total FROM t")
        assert stmt.items[0].alias == "total"
        assert stmt.items[0].output_name() == "total"

    def test_where(self):
        stmt = parse("SELECT a FROM t WHERE a > 1 AND b < 2")
        assert stmt.where.op == "AND"

    def test_group_by(self):
        stmt = parse("SELECT ts, sum(p) FROM t GROUP BY ts")
        assert len(stmt.group_by) == 1

    def test_order_by_desc_limit(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC LIMIT 5")
        assert not stmt.order_by[0].ascending
        assert stmt.limit == 5

    def test_join(self):
        stmt = parse("SELECT t2.n FROM md t1 JOIN ui t2 "
                     "ON t1.uid = t2.uid WHERE t1.uid > 3")
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table.alias == "t2"
        assert stmt.joins[0].condition.op == "="

    def test_insert_overwrite_directory(self):
        stmt = parse("INSERT OVERWRITE DIRECTORY '/tmp/out' "
                     "SELECT a FROM t")
        assert stmt.insert_directory == "/tmp/out"

    def test_paper_listing_2(self):
        """The paper's running example parses."""
        stmt = parse("SELECT SUM(C) FROM Table1 WHERE A>=5 AND A<12 "
                     "AND B>=12 AND B<16;")
        assert stmt.is_plain_aggregation

    def test_is_plain_aggregation_flags(self):
        assert parse("SELECT sum(a) FROM t").is_plain_aggregation
        assert not parse("SELECT a, sum(b) FROM t "
                         "GROUP BY a").is_plain_aggregation
        assert not parse("SELECT a FROM t").is_plain_aggregation

    def test_has_aggregates(self):
        assert parse("SELECT sum(a) FROM t").has_aggregates
        assert not parse("SELECT a FROM t").has_aggregates


class TestDDL:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a int, b double, c string) "
                     "STORED AS RCFILE")
        assert stmt.name == "t"
        assert [c.type_name for c in stmt.columns] \
            == ["int", "double", "string"]
        assert stmt.stored_as == "RCFILE"

    def test_create_table_default_format(self):
        assert parse("CREATE TABLE t (a int)").stored_as == "TEXTFILE"

    def test_create_table_partitioned(self):
        stmt = parse("CREATE TABLE t (a int) PARTITIONED BY (dt date)")
        assert stmt.partitioned_by[0].name == "dt"

    def test_create_table_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a int)").if_not_exists

    def test_create_index_listing_3(self):
        """The paper's Listing 3 syntax parses completely."""
        stmt = parse("CREATE INDEX idx_a_b ON TABLE Table1(A,B) "
                     "AS 'org.apache.dgf.DgfIndexHandler' "
                     "IDXPROPERTIES ('A'='1_3', 'B'='11_2', "
                     "'precompute'='sum(C)')")
        assert stmt.columns == ("A", "B")
        assert stmt.properties["A"] == "1_3"
        assert stmt.properties["precompute"] == "sum(C)"

    def test_create_index_deferred(self):
        stmt = parse("CREATE INDEX i ON TABLE t(a) AS 'compact' "
                     "WITH DEFERRED REBUILD")
        assert stmt.deferred_rebuild

    def test_drop_statements(self):
        assert parse("DROP TABLE t").name == "t"
        assert parse("DROP TABLE IF EXISTS t").if_exists
        drop_index = parse("DROP INDEX i ON t")
        assert drop_index.name == "i" and drop_index.table == "t"

    def test_show_and_describe(self):
        assert isinstance(parse("SHOW TABLES"), ast.ShowTablesStmt)
        assert parse("SHOW INDEXES ON t").table == "t"
        assert parse("DESCRIBE t").table == "t"

    def test_explain(self):
        stmt = parse("EXPLAIN SELECT a FROM t")
        assert isinstance(stmt, ast.ExplainStmt)

    def test_explain_non_select_rejected(self):
        with pytest.raises(HiveQLSyntaxError):
            parse("EXPLAIN DROP TABLE t")

    def test_unknown_statement(self):
        with pytest.raises(HiveQLSyntaxError):
            parse("UPDATE t SET a = 1")


class TestAstHelpers:
    def test_collect_column_refs(self):
        expr = parse_expression("a > 1 AND t.b < c + 2")
        names = [r.render() for r in ast.collect_column_refs(expr)]
        assert names == ["a", "t.b", "c"]

    def test_render_roundtrips_through_parser(self):
        text = "((a >= 5) AND (sum((b * c)) > 2.5))"
        expr = parse_expression(text)
        again = parse_expression(expr.render())
        assert expr.render() == again.render()

    def test_contains_aggregate_nested(self):
        assert ast.contains_aggregate(parse_expression("1 + sum(a)"))
        assert not ast.contains_aggregate(parse_expression("1 + a"))
