"""SELECT execution: compiles a parsed statement onto the MapReduce engine.

Physical strategies (all used by the paper's workloads):

* plain projection scan — map-only job;
* aggregation without GROUP BY — map emits per-row partial states, combiner
  merges per task, a single reducer merges; the session finalizes (after
  merging DGFIndex header states, when the index rewrote the query);
* GROUP BY — same, keyed by the group tuple, several reducers;
* equi-JOIN — broadcast hash join: small side is read fully into a hash
  table (Hive's map-side join), probe side streams through the mappers.

Index handlers run before the job: they shrink the split list, swap in a
slice-skipping input format, and/or supply pre-computed header states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError, SemanticError
from repro.hdfs.metrics import task_io_scope
from repro.hive import formats
from repro.hive.aggregates import CompiledAggregate
from repro.hive.metastore import TableInfo
from repro.hiveql import ast
from repro.hiveql.evaluator import ColumnResolver, compile_expr
from repro.hiveql.predicates import RangeExtraction, extract_ranges
from repro.mapreduce.cost import JobStats, TimeBreakdown
from repro.mapreduce.job import Job
from repro.mapreduce.splits import FileSplit, InputFormat
from repro.storage.schema import DataType

#: group key used for aggregation without GROUP BY
_GLOBAL_KEY = 0

#: the comparisons Python refuses between a number and a string
_ORDERINGS = frozenset(("<", "<=", ">", ">="))
_NUMERIC = frozenset((DataType.INT, DataType.BIGINT, DataType.DOUBLE))


@dataclass
class JoinStep:
    """One broadcast hash-join stage."""

    table: TableInfo
    binding: str
    probe_key_fn: Callable          # over the accumulated row
    build_key_fn: Callable          # over the new table's row
    #: rows of the build table, hashed by join key (loaded lazily)
    hash_table: Optional[Dict[Any, List[Tuple]]] = None
    build_stats: JobStats = field(default_factory=JobStats)


@dataclass
class AnalyzedSelect:
    """Everything the physical run needs, produced by :func:`analyze`."""

    stmt: ast.SelectStmt
    table: TableInfo
    resolver: ColumnResolver          # over the combined (joined) row
    probe_resolver: ColumnResolver    # over the base-table row only
    joins: List[JoinStep]
    probe_filter: Callable[[Sequence[Any]], bool]
    combined_filter: Callable[[Sequence[Any]], bool]
    ranges: RangeExtraction
    is_group_query: bool
    group_exprs: List[ast.Expr]
    group_fns: List[Callable]
    aggregates: List[CompiledAggregate]
    #: for each select item: ("group", group_index) or ("agg", agg_index)
    item_slots: List[Tuple[str, int]]
    project_fns: List[Callable]       # plain (non-group) projection
    output_names: List[str]
    referenced_columns: List[str]     # base-table columns the query touches


def analyze(metastore, stmt: ast.SelectStmt) -> AnalyzedSelect:
    table = metastore.get_table(stmt.table.name)
    probe_resolver = ColumnResolver.for_schema(table.schema,
                                               stmt.table.binding)
    resolver = ColumnResolver.for_schema(table.schema, stmt.table.binding)
    joins: List[JoinStep] = []
    offset = len(table.schema)
    for join in stmt.joins:
        join_table = metastore.get_table(join.table.name)
        probe_key, build_key = _split_join_condition(
            join.condition, resolver, join_table, join.table.binding)
        build_resolver = ColumnResolver.for_schema(join_table.schema,
                                                   join.table.binding)
        joins.append(JoinStep(
            table=join_table, binding=join.table.binding,
            probe_key_fn=compile_expr(probe_key, resolver),
            build_key_fn=compile_expr(build_key, build_resolver)))
        resolver.add_schema(join_table.schema, join.table.binding, offset)
        offset += len(join_table.schema)

    items = _expand_stars(stmt, table, joins)
    if stmt.where is not None:
        _check_comparisons(stmt.where, resolver, [
            c.dtype for t in (table, *(j.table for j in joins))
            for c in t.schema.columns])
    ranges = extract_ranges(stmt.where)
    probe_pred, combined_pred = _split_filter(stmt.where, probe_resolver)
    probe_filter = _filter_fn(probe_pred, probe_resolver)
    combined_filter = _filter_fn(combined_pred, resolver)

    group_exprs = list(stmt.group_by)
    has_aggs = any(ast.contains_aggregate(item.expr) for item in items)
    is_group_query = bool(group_exprs) or has_aggs

    aggregates: List[CompiledAggregate] = []
    item_slots: List[Tuple[str, int]] = []
    project_fns: List[Callable] = []
    if is_group_query:
        rendered_groups = [_canon(e) for e in group_exprs]
        for item in items:
            if ast.is_aggregate_call(item.expr):
                aggregates.append(
                    CompiledAggregate.compile(item.expr, resolver))
                item_slots.append(("agg", len(aggregates) - 1))
            elif ast.contains_aggregate(item.expr):
                raise SemanticError(
                    f"expressions over aggregates are not supported: "
                    f"{item.expr.render()}")
            else:
                slot = _match_group(item.expr, rendered_groups)
                if slot is None:
                    raise SemanticError(
                        f"{item.expr.render()} is neither an aggregate nor "
                        "in GROUP BY")
                item_slots.append(("group", slot))
    else:
        project_fns = [compile_expr(item.expr, resolver) for item in items]

    group_fns = [compile_expr(e, resolver) for e in group_exprs]
    referenced = _referenced_columns(stmt, items, table)
    return AnalyzedSelect(
        stmt=stmt, table=table, resolver=resolver,
        probe_resolver=probe_resolver, joins=joins,
        probe_filter=probe_filter, combined_filter=combined_filter,
        ranges=ranges, is_group_query=is_group_query,
        group_exprs=group_exprs, group_fns=group_fns,
        aggregates=aggregates, item_slots=item_slots,
        project_fns=project_fns,
        output_names=[item.output_name() for item in items],
        referenced_columns=referenced)


def _check_comparisons(expr: ast.Expr, resolver: ColumnResolver,
                       dtypes: Sequence[DataType]) -> None:
    """Reject a column ordered against a literal its type cannot compare
    with (``x >= 'abc'`` on INT, ``d >= 5`` on DATE), which the row
    evaluator would only meet mid-scan as a ``TypeError``.  Equality and
    IN never raise there, so they are left alone."""
    children = ast.expr_children(expr)
    if isinstance(expr, ast.Between) \
            or isinstance(expr, ast.BinaryOp) and expr.op in _ORDERINGS:
        literals = [c.value for c in children
                    if isinstance(c, ast.Literal) and c.value is not None]
        for column in children:
            if not isinstance(column, ast.ColumnRef):
                continue
            numeric = dtypes[resolver.resolve(column)] in _NUMERIC
            for value in literals:
                if numeric == isinstance(value, str):
                    raise SemanticError(f"column {column.name!r} cannot be "
                                        f"compared with {value!r}")
    for child in children:
        _check_comparisons(child, resolver, dtypes)


def _canon(expr: ast.Expr) -> str:
    return expr.render().lower().replace(" ", "")


def _match_group(expr: ast.Expr, rendered_groups: List[str]) -> Optional[int]:
    canon = _canon(expr)
    for i, group in enumerate(rendered_groups):
        if canon == group:
            return i
        # allow unqualified select item to match a qualified group expr
        if canon == group.split(".")[-1] or group == canon.split(".")[-1]:
            return i
    return None


def _expand_stars(stmt: ast.SelectStmt, table: TableInfo,
                  joins: List[JoinStep]) -> List[ast.SelectItem]:
    items: List[ast.SelectItem] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            for column in table.schema.columns:
                items.append(ast.SelectItem(
                    expr=ast.ColumnRef(name=column.name,
                                       table=stmt.table.binding)))
            for step in joins:
                for column in step.table.schema.columns:
                    items.append(ast.SelectItem(
                        expr=ast.ColumnRef(name=column.name,
                                           table=step.binding)))
        else:
            items.append(item)
    return items


def _split_join_condition(condition: ast.Expr, probe_resolver: ColumnResolver,
                          build_table: TableInfo, build_binding: str
                          ) -> Tuple[ast.Expr, ast.Expr]:
    """Return (probe-side expr, build-side expr) of an equi-join condition."""
    if not (isinstance(condition, ast.BinaryOp) and condition.op == "="):
        raise SemanticError(
            f"only equi-joins are supported, got {condition.render()}")
    build_resolver = ColumnResolver.for_schema(build_table.schema,
                                               build_binding)

    def side_of(expr: ast.Expr) -> str:
        refs = ast.collect_column_refs(expr)
        if not refs:
            raise SemanticError(
                f"join condition side {expr.render()} references no column")
        if all(build_resolver.try_resolve(r) is not None for r in refs):
            return "build"
        if all(probe_resolver.try_resolve(r) is not None for r in refs):
            return "probe"
        raise SemanticError(
            f"cannot attribute {expr.render()} to one join side")

    left_side = side_of(condition.left)
    right_side = side_of(condition.right)
    if {left_side, right_side} != {"probe", "build"}:
        raise SemanticError(
            f"join condition {condition.render()} must compare the two sides")
    if left_side == "probe":
        return condition.left, condition.right
    return condition.right, condition.left


def _split_filter(where: Optional[ast.Expr], probe_resolver: ColumnResolver
                  ) -> Tuple[Optional[ast.Expr], Optional[ast.Expr]]:
    """Split WHERE into (probe-only conjunction, remainder conjunction) so
    rows are filtered before the join whenever possible."""
    if where is None:
        return None, None
    probe_parts: List[ast.Expr] = []
    rest_parts: List[ast.Expr] = []
    for conjunct in _conjuncts(where):
        refs = ast.collect_column_refs(conjunct)
        if refs and all(probe_resolver.try_resolve(r) is not None
                        for r in refs):
            probe_parts.append(conjunct)
        else:
            rest_parts.append(conjunct)
    return _conjoin(probe_parts), _conjoin(rest_parts)


def _conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjoin(parts: List[ast.Expr]) -> Optional[ast.Expr]:
    if not parts:
        return None
    out = parts[0]
    for part in parts[1:]:
        out = ast.BinaryOp(op="AND", left=out, right=part)
    return out


def _filter_fn(pred: Optional[ast.Expr],
               resolver: ColumnResolver) -> Callable:
    if pred is None:
        return lambda row: True
    compiled = compile_expr(pred, resolver)
    return lambda row: compiled(row) is True


def _referenced_columns(stmt: ast.SelectStmt, items: List[ast.SelectItem],
                        table: TableInfo) -> List[str]:
    refs: List[ast.ColumnRef] = []
    for item in items:
        refs.extend(ast.collect_column_refs(item.expr))
    if stmt.where is not None:
        refs.extend(ast.collect_column_refs(stmt.where))
    for expr in stmt.group_by:
        refs.extend(ast.collect_column_refs(expr))
    for order in stmt.order_by:
        refs.extend(ast.collect_column_refs(order.expr))
    for join in stmt.joins:
        refs.extend(ast.collect_column_refs(join.condition))
    seen = []
    for ref in refs:
        if table.schema.has_column(ref.name):
            name = table.schema.column(ref.name).name
            if name not in seen:
                seen.append(name)
    if not seen:  # e.g. SELECT count(*): still must read something
        seen.append(table.schema.columns[0].name)
    return seen


# --------------------------------------------------------------------- jobs
def build_job(analysis: AnalyzedSelect, splits: List[FileSplit],
              input_format: InputFormat, job_name: str,
              num_group_reducers: int = 8, vector_plan=None) -> Job:
    """Assemble the MapReduce job implementing the analysed SELECT.

    ``vector_plan`` (a :class:`repro.vector.plan.VectorSelectPlan`) makes
    the engine run map tasks columnar; the row mapper built here remains
    the job's reference implementation and still serves crash-injected
    attempts.
    """
    probe_filter = analysis.probe_filter
    combined_filter = analysis.combined_filter
    joins = analysis.joins
    group_fns = analysis.group_fns
    aggregates = analysis.aggregates

    def expand(row):
        """Apply the join pipeline: one probe row -> 0+ combined rows."""
        rows = [row]
        for step in joins:
            matched = []
            for current in rows:
                key = step.probe_key_fn(current)
                for build_row in step.hash_table.get(key, ()):
                    matched.append(tuple(current) + build_row)
            rows = matched
            if not rows:
                return rows
        return rows

    if analysis.is_group_query:
        functions = [agg.function for agg in aggregates]

        def mapper(key, value, ctx):
            if not probe_filter(value):
                return
            for row in (expand(value) if joins else (value,)):
                if not combined_filter(row):
                    continue
                ctx.counter("query", "matched")
                group_key = (tuple(fn(row) for fn in group_fns)
                             if group_fns else _GLOBAL_KEY)
                states = tuple(
                    agg.accumulate_row(agg.function.initial(), row)
                    for agg in aggregates)
                ctx.emit(group_key, states)

        def combiner(key, values, ctx):
            ctx.emit(key, _merge_states(functions, values))

        def reducer(key, values, ctx):
            ctx.emit(key, _merge_states(functions, values))

        return Job(name=job_name, input_format=input_format, mapper=mapper,
                   splits=splits, combiner=combiner, reducer=reducer,
                   num_reducers=(num_group_reducers if group_fns else 1),
                   vector_plan=vector_plan)

    project_fns = analysis.project_fns

    def plain_mapper(key, value, ctx):
        if not probe_filter(value):
            return
        for row in (expand(value) if joins else (value,)):
            if not combined_filter(row):
                continue
            ctx.counter("query", "matched")
            ctx.emit(None, tuple(fn(row) for fn in project_fns))

    return Job(name=job_name, input_format=input_format,
               mapper=plain_mapper, splits=splits, num_reducers=0,
               vector_plan=vector_plan)


def _merge_states(functions, values):
    merged = list(values[0])
    for value in values[1:]:
        for i, function in enumerate(functions):
            merged[i] = function.merge(merged[i], value[i])
    return tuple(merged)


def finalize_group_output(analysis: AnalyzedSelect,
                          grouped: Dict[Any, Tuple]) -> List[Tuple]:
    """Turn reduced ``group_key -> states`` into output rows in select-item
    order (group keys sorted for determinism)."""
    rows: List[Tuple] = []
    for key in sorted(grouped, key=_sort_key):
        states = grouped[key]
        out = []
        for kind, slot in analysis.item_slots:
            if kind == "group":
                out.append(key[slot] if isinstance(key, tuple) else key)
            else:
                agg = analysis.aggregates[slot]
                out.append(agg.function.finalize(states[slot]))
        rows.append(tuple(out))
    return rows


def _sort_key(key):
    # None sorts first; mixed types are kept stable via type name.
    if isinstance(key, tuple):
        return tuple(_sort_key(k) for k in key)
    return (key is not None, type(key).__name__, key)


def apply_order_and_limit(analysis: AnalyzedSelect,
                          rows: List[Tuple]) -> List[Tuple]:
    stmt = analysis.stmt
    if stmt.order_by:
        names = [n.lower() for n in analysis.output_names]
        for order in reversed(stmt.order_by):
            idx = _output_index(order.expr, names, analysis)
            rows.sort(key=lambda r, i=idx: _sort_key(r[i]),
                      reverse=not order.ascending)
    if stmt.limit is not None:
        rows = rows[:stmt.limit]
    return rows


def _output_index(expr: ast.Expr, names: List[str],
                  analysis: AnalyzedSelect) -> int:
    canon = _canon(expr)
    if canon in names:
        return names.index(canon)
    bare = canon.split(".")[-1]
    if bare in names:
        return names.index(bare)
    for i, item in enumerate(analysis.stmt.items):
        if _canon(item.expr) == canon:
            return i
    raise SemanticError(
        f"ORDER BY {expr.render()} must reference a select item")


def load_join_hash_tables(fs, analysis: AnalyzedSelect) -> JobStats:
    """Read each build-side table fully and hash it (Hive's local map-join
    task).  Returns the combined measured read stats."""
    total = JobStats()
    for step in analysis.joins:
        if step.hash_table is not None:
            continue
        # Per-thread I/O scope (not a global snapshot/delta): the measured
        # bytes are exactly this build's reads even when other statements
        # run concurrently under the query service.
        with task_io_scope() as scope:
            table: Dict[Any, List[Tuple]] = {}
            count = 0
            for row in formats.scan_table_rows(fs, step.table):
                count += 1
                table.setdefault(step.build_key_fn(row), []).append(row)
            step.hash_table = table
            captured = scope.captured(fs.io)
        step.build_stats = JobStats(map_tasks=1, map_input_records=count,
                                    map_input_bytes=captured.bytes_read)
        total.merge(step.build_stats)
    return total
