"""Property tests: batch kernels == the row evaluator, lane for lane.

Hypothesis generates typed expression trees (comparisons, Kleene
AND/OR/NOT, arithmetic, BETWEEN, IN) over column batches seeded with the
values that break naive vectorization — NaN, ``±0.0``, infinities,
int64-boundary integers (``±2**31``, ``2**53``, ``-2**63``), integers
beyond int64, empty strings, empty batches and single-row batches — and
asserts that whenever :func:`repro.vector.kernels.compile_kernel`
produces a kernel *and* the kernel accepts the batch, its lanes equal
:func:`repro.hiveql.evaluator.compile_expr` applied row by row,
bit-for-bit (NaN is NaN, ``-0.0`` keeps its sign, bool stays bool).
A kernel may instead *decline* — return ``None`` at compile time or
raise ``KernelFallback``/``ArrayUnavailable`` on a hostile batch — but
it may never disagree.

The aggregate folds get the same treatment: float ``sum``/``avg`` must
replicate the row engine's strictly sequential merge chain (pairwise
``np.sum`` rounds differently and is asserted to differ on the
regression vector), ``min``/``max`` its order-dependent NaN/``-0.0``
tie-breaking, int ``sum`` Python's exact arithmetic.

NULLs enter through expressions (``NULL`` literals, ``x / 0``) and
through aggregate null masks, exactly as in production: stored columns
never contain ``None``.
"""

import math
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hive.aggregates import CompiledAggregate
from repro.hiveql import ast
from repro.hiveql.evaluator import (ColumnResolver, compile_expr,
                                    predicate_fn)
from repro.storage.schema import Column, DataType, Schema
from repro.vector import runtime
from repro.vector.aggfold import fold_array, fold_python_values
from repro.vector.batch import ArrayUnavailable, ColumnBatch
from repro.vector.kernels import (KernelFallback, compile_kernel,
                                  is_true_mask)
from repro.vector.plan import _select_python

np = runtime.numpy_module()
pytestmark = pytest.mark.skipif(np is None, reason="NumPy unavailable")

SCHEMA = Schema([Column("a", DataType.BIGINT), Column("b", DataType.INT),
                 Column("x", DataType.DOUBLE), Column("y", DataType.DOUBLE),
                 Column("s", DataType.STRING)])
RESOLVER = ColumnResolver.for_schema(SCHEMA)

_FALLBACK = (KernelFallback, ArrayUnavailable)


# ------------------------------------------------------------------- values
#: int64 boundaries plus values past them (the latter force
#: ``ArrayUnavailable``), mixed with small everyday integers.
INTS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([2 ** 31, -(2 ** 31), 2 ** 53, -(2 ** 53) - 1,
                     2 ** 62, -(2 ** 63), 2 ** 63, 2 ** 70]),
    st.integers(-2 ** 40, 2 ** 40))

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                     1e16, -1e16, 5e-324, 0.1, 0.2]),
    st.floats(width=64))

STRINGS = st.text(alphabet="ab-0é", max_size=3)

INT_LITERALS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 53, 2 ** 60]))
FLOAT_LITERALS = st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e16, math.inf])


@st.composite
def batches(draw):
    num_rows = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 10)))
    columns = [draw(st.lists(values, min_size=num_rows, max_size=num_rows))
               for values in (INTS, INTS, FLOATS, FLOATS, STRINGS)]
    return ColumnBatch(SCHEMA, num_rows, columns)


# -------------------------------------------------------------- expressions
def _col(name):
    return ast.ColumnRef(name)


@st.composite
def numeric_exprs(draw, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.one_of(
            st.sampled_from([_col("a"), _col("b"), _col("x"), _col("y")]),
            INT_LITERALS.map(ast.Literal),
            FLOAT_LITERALS.map(ast.Literal),
            st.just(ast.Literal(None))))
    op = draw(st.sampled_from(["+", "-", "*", "/", "neg"]))
    if op == "neg":
        return ast.UnaryOp("-", draw(numeric_exprs(depth=depth - 1)))
    return ast.BinaryOp(op, draw(numeric_exprs(depth=depth - 1)),
                        draw(numeric_exprs(depth=depth - 1)))


@st.composite
def string_exprs(draw):
    return draw(st.one_of(st.just(_col("s")), STRINGS.map(ast.Literal)))


@st.composite
def bool_exprs(draw, depth=2):
    kind = draw(st.sampled_from(
        ["cmp", "cmp", "between", "in"]
        + (["and", "or", "not"] if depth > 0 else [])))
    if kind in ("and", "or"):
        return ast.BinaryOp(kind.upper(),
                            draw(bool_exprs(depth=depth - 1)),
                            draw(bool_exprs(depth=depth - 1)))
    if kind == "not":
        return ast.UnaryOp("NOT", draw(bool_exprs(depth=depth - 1)))
    stringy = draw(st.booleans())
    operand = string_exprs() if stringy else numeric_exprs(depth=1)
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        return ast.BinaryOp(op, draw(operand), draw(operand))
    if kind == "between":
        return ast.Between(draw(operand), draw(operand), draw(operand))
    options = tuple(draw(st.lists(operand, min_size=1, max_size=3)))
    if draw(st.booleans()):
        options = options + (ast.Literal(None),)
    return ast.InList(draw(operand), options)


# ------------------------------------------------------------- equivalence
def same_scalar(got, expected):
    """Bit-level scalar equality: NaN == NaN, ``-0.0 != 0.0``, bool is
    not int."""
    if got is None or expected is None:
        return got is None and expected is None
    if type(got) is not type(expected):
        return False
    if isinstance(got, float):
        if math.isnan(got) or math.isnan(expected):
            return math.isnan(got) and math.isnan(expected)
        return (got == expected
                and math.copysign(1.0, got) == math.copysign(1.0, expected))
    return got == expected


def check_kernel_against_rows(expr, batch):
    """Run ``expr`` both ways over ``batch``; return True when the kernel
    path actually produced lanes (False = declined, which is always
    legal).  Any disagreement asserts."""
    kernel = compile_kernel(expr, RESOLVER, SCHEMA, np)
    if kernel is None:
        return False
    try:
        value = kernel(batch)
        lanes = _select_python(np, value, np.arange(batch.num_rows))
    except _FALLBACK:
        return False
    rowfn = compile_expr(expr, RESOLVER)
    expected = [rowfn(row) for row in batch.rows()]
    assert len(lanes) == batch.num_rows
    for i, (got, want) in enumerate(zip(lanes, expected)):
        assert same_scalar(got, want), (
            f"{expr.render()} row {i} {batch.rows()[i]!r}: "
            f"kernel={got!r} row-engine={want!r}")
    return True


@settings(max_examples=400, deadline=None)
@given(expr=bool_exprs(), batch=batches())
def test_bool_kernels_match_row_evaluator(expr, batch):
    check_kernel_against_rows(expr, batch)


@settings(max_examples=400, deadline=None)
@given(expr=numeric_exprs(), batch=batches())
def test_numeric_kernels_match_row_evaluator(expr, batch):
    check_kernel_against_rows(expr, batch)


@settings(max_examples=200, deadline=None)
@given(expr=bool_exprs(), batch=batches())
def test_where_mask_matches_predicate_fn(expr, batch):
    """The WHERE coercion (TRUE keeps, FALSE/NULL drops) must agree with
    ``predicate_fn``'s ``is True`` row filter."""
    kernel = compile_kernel(expr, RESOLVER, SCHEMA, np)
    if kernel is None:
        return
    try:
        mask = is_true_mask(np, kernel(batch), batch.num_rows)
    except _FALLBACK:
        return
    keep = predicate_fn(expr, RESOLVER)
    assert mask.tolist() == [keep(row) for row in batch.rows()]


def test_every_supported_operator_actually_vectorizes():
    """One expression per supported operator class must compile to a
    kernel and agree on a batch exercising NaN, ``-0.0`` and NULL-making
    division — guarding against the property tests silently degrading
    into all-declined runs."""
    batch = ColumnBatch(SCHEMA, 4, [
        [1, -3, 6, 0], [2, 2, 2, 2],
        [0.0, -0.0, math.nan, 1e16], [1.0, -0.0, 2.5, math.inf],
        ["ab", "", "b-", "a"]])
    supported = [
        ast.BinaryOp("<", _col("a"), ast.Literal(2)),
        ast.BinaryOp("=", _col("x"), _col("y")),
        ast.BinaryOp(">=", _col("s"), ast.Literal("a")),
        ast.BinaryOp("AND",
                     ast.BinaryOp(">", _col("x"), ast.Literal(0.0)),
                     ast.BinaryOp("OR",
                                  ast.BinaryOp("=", _col("b"),
                                               ast.Literal(2)),
                                  ast.Literal(None))),
        ast.UnaryOp("NOT", ast.BinaryOp("!=", _col("a"), _col("b"))),
        ast.UnaryOp("-", _col("x")),
        ast.BinaryOp("+", _col("a"), _col("b")),
        ast.BinaryOp("-", _col("x"), _col("y")),
        ast.BinaryOp("*", _col("a"), ast.Literal(3)),
        ast.BinaryOp("/", _col("x"), _col("y")),
        ast.BinaryOp("/", _col("a"), ast.Literal(0)),  # NULL lanes
        ast.Between(_col("a"), ast.Literal(0), ast.Literal(5)),
        ast.Between(_col("s"), ast.Literal("a"), ast.Literal("b")),
        ast.InList(_col("b"), (ast.Literal(2), ast.Literal(9))),
        ast.InList(_col("s"), (ast.Literal("ab"), ast.Literal(None))),
    ]
    for expr in supported:
        assert check_kernel_against_rows(expr, batch), expr.render()
    for empty_rows in (ColumnBatch(SCHEMA, 0, [[], [], [], [], []]),
                       ColumnBatch(SCHEMA, 1,
                                   [[0], [1], [-0.0], [math.nan], [""]])):
        for expr in supported:
            assert check_kernel_against_rows(expr, empty_rows)


def test_unsupported_expressions_do_not_compile():
    """The deliberately row-only classes must decline at compile time."""
    row_only = [
        ast.BinaryOp("%", _col("a"), ast.Literal(7)),
        ast.BinaryOp("LIKE", _col("s"), ast.Literal("a%")),
        ast.FuncCall("abs", (_col("x"),)),
        ast.BinaryOp("=", _col("s"), ast.Literal(3)),      # str vs int
        ast.BinaryOp("<", _col("a"), ast.Literal(2 ** 60)),  # huge literal
        ast.BinaryOp("+", _col("s"), ast.Literal("a")),
    ]
    for expr in row_only:
        assert compile_kernel(expr, RESOLVER, SCHEMA, np) is None, \
            expr.render()


def test_int64_hostile_batches_fall_back_not_wrap():
    """Columns holding ``-2**63`` (negation wraps, and ``np.abs`` wraps
    inside a naive guard) or values past int64 must raise a fallback,
    never return wrapped lanes."""
    minint = ColumnBatch(SCHEMA, 2, [[-(2 ** 63), 1], [2, 2],
                                     [0.0, 0.0], [0.0, 0.0], ["", ""]])
    for expr in (ast.UnaryOp("-", _col("a")),
                 ast.BinaryOp("*", _col("a"), ast.Literal(2)),
                 ast.BinaryOp("+", _col("a"), _col("b"))):
        kernel = compile_kernel(expr, RESOLVER, SCHEMA, np)
        assert kernel is not None
        with pytest.raises(_FALLBACK):
            kernel(minint)
    beyond = ColumnBatch(SCHEMA, 1, [[2 ** 70], [1], [0.0], [0.0], [""]])
    kernel = compile_kernel(ast.BinaryOp("<", _col("a"), ast.Literal(0)),
                            RESOLVER, SCHEMA, np)
    with pytest.raises(ArrayUnavailable):
        kernel(beyond)


def test_null_between_bound_falls_back():
    """The row engine raises TypeError on a NULL BETWEEN bound.  A
    *literal* NULL bound is declined at compile time; a bound that only
    evaluates to NULL at runtime (``y / 0``) compiles but must hand the
    batch back instead of guessing."""
    assert compile_kernel(
        ast.Between(_col("x"), ast.Literal(None), ast.Literal(1.0)),
        RESOLVER, SCHEMA, np) is None
    batch = ColumnBatch(SCHEMA, 1, [[1], [1], [0.5], [0.5], ["a"]])
    kernel = compile_kernel(
        ast.Between(_col("x"),
                    ast.BinaryOp("/", _col("y"), ast.Literal(0)),
                    ast.Literal(1.0)),
        RESOLVER, SCHEMA, np)
    assert kernel is not None
    with pytest.raises(KernelFallback):
        kernel(batch)


# --------------------------------------------------------- aggregate folds
def _agg(name, column="x"):
    args = (ast.Star(),) if column is None else (_col(column),)
    return CompiledAggregate.compile(ast.FuncCall(name, args), RESOLVER)


def _bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def _states_equal(left, right):
    if isinstance(left, tuple) and isinstance(right, tuple):
        return (len(left) == len(right)
                and all(_states_equal(a, b) for a, b in zip(left, right)))
    return type(left) is type(right) and _bits(left) == _bits(right)


def _fold_in_chunks(agg, values, split, nulls=None):
    """Fold ``values`` through ``fold_array`` as two batches split at
    ``split`` (the cross-batch state-continuation path)."""
    state = agg.function.initial()
    for lo, hi in ((0, split), (split, len(values))):
        chunk = values[lo:hi]
        data = np.array(chunk, dtype=np.float64)
        null = None
        if nulls is not None and any(nulls[lo:hi]):
            null = np.array(nulls[lo:hi], dtype=bool)
        state = fold_array(np, agg, state, data, null)
    return state


@settings(max_examples=300, deadline=None)
@given(values=st.lists(FLOATS, max_size=24),
       nulls=st.lists(st.booleans(), max_size=24),
       split=st.integers(0, 24),
       name=st.sampled_from(["sum", "avg", "min", "max", "count"]))
# The chain overflows to inf, silently in Python: NumPy must not warn.
@example(values=[8.988465674311579e+307, 8.98846567431158e+307], nulls=[],
         split=0, name="sum")
@example(values=[8.988465674311579e+307, 8.98846567431158e+307], nulls=[],
         split=0, name="avg")
def test_float_folds_replicate_row_merge_chain(values, nulls, split, name):
    nulls = (nulls + [False] * len(values))[:len(values)]
    split = min(split, len(values))
    agg = _agg(name)
    reference = fold_python_values(
        agg, agg.function.initial(),
        [None if is_null else v for v, is_null in zip(values, nulls)])
    state = _fold_in_chunks(agg, values, split, nulls)
    assert _states_equal(state, reference), (name, values, nulls, split)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(INTS.filter(lambda v: abs(v) < 2 ** 63),
                       max_size=20),
       split=st.integers(0, 20))
def test_int_sum_folds_exactly(values, split):
    split = min(split, len(values))
    agg = _agg("sum", "a")
    state = agg.function.initial()
    for chunk in (values[:split], values[split:]):
        state = fold_array(np, agg, state,
                           np.array(chunk, dtype=np.int64), None)
    assert _states_equal(
        state, fold_python_values(agg, agg.function.initial(), values))


def test_float_sum_is_sequential_not_pairwise():
    """The regression vector where fold order is visible: sequentially,
    ``1e16 + 1.0`` rounds away every time (the row engine's answer);
    NumPy's pairwise ``np.sum`` accumulates the 1.0s first and differs.
    The vector fold must produce the row engine's answer."""
    values = [1e16] + [1.0] * 255
    agg = _agg("sum")
    sequential = fold_python_values(agg, agg.function.initial(), values)
    assert sequential == 1e16
    pairwise = float(np.sum(np.array(values, dtype=np.float64)))
    assert pairwise != sequential  # fold order is genuinely observable
    for split in (0, 1, 128, 255):
        assert _fold_in_chunks(agg, values, split) == sequential


def test_avg_fold_matches_minus_zero_shift():
    """``avg`` accumulates ``0.0 + value``: a lone ``-0.0`` makes the
    total ``+0.0`` in the row engine, and the fold must match bit-wise."""
    agg = _agg("avg")
    reference = fold_python_values(agg, agg.function.initial(), [-0.0])
    state = _fold_in_chunks(agg, [-0.0], 0)
    assert _states_equal(state, reference)
    assert math.copysign(1.0, state[0]) == 1.0


def test_minmax_fold_keeps_nan_and_zero_sign_order():
    """builtin ``min``/``max`` are order-dependent under NaN and ``±0.0``
    ties; the fold iterates scalars in row order to match exactly."""
    for name in ("min", "max"):
        agg = _agg(name)
        for values in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0],
                       [0.0, -0.0], [-0.0, 0.0]):
            for split in range(len(values) + 1):
                assert _states_equal(
                    _fold_in_chunks(agg, values, split),
                    fold_python_values(agg, agg.function.initial(), values))


def test_empty_and_all_null_chunks_leave_state_untouched():
    agg = _agg("sum")
    state = fold_array(np, agg, agg.function.initial(),
                       np.array([], dtype=np.float64), None)
    assert state is agg.function.initial()
    state = fold_array(np, agg, 3.5, np.array([1.0, 2.0]),
                       np.array([True, True]))
    assert state == 3.5
