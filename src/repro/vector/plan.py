"""VectorSelectPlan: a columnar drop-in for the row engine's map task.

:func:`compile_select` inspects an analysed SELECT and, when the scan is
vectorizable at all (NumPy importable, no joins, batch-decodable input
format), returns a plan the engine runs *instead of* the per-record
mapper loop.  Everything the row map task observably produces is
reproduced exactly:

* ``emits`` — the post-combine ``sorted(key)`` list for aggregation jobs
  (the vector fold maintains per-key states directly, which is what the
  row path's mapper+combiner pair nets out to), or per-row projection
  tuples in row order for map-only jobs;
* ``input_records`` / ``output_records`` / the ``query.matched`` counter
  — identical values, with ``output_records`` counting *pre-combine*
  emits exactly like the row path;
* filesystem reads — the batch decoders issue the row readers' pread
  sequences (see :mod:`repro.vector.decode`).

Fallback is **per top-level expression** (each filter conjunct stage,
each group key, each aggregate argument, each projection item): if its
kernel did not compile — or raises
:class:`~repro.vector.kernels.KernelFallback` /
:class:`~repro.vector.batch.ArrayUnavailable` on some batch — that
expression is evaluated by its row-engine function over exactly the rows
the row engine would evaluate it on (filters see only rows that passed
the preceding stage).  ``fallback_rows`` counts those row evaluations
for the ``vector.fallback_rows`` trace counter.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hive import exec as hexec
from repro.hive.aggregates import CompiledAggregate
from repro.mapreduce.splits import FileSplit
from repro.vector import decode, runtime
from repro.vector.aggfold import (fold_array, fold_count_star,
                                  fold_python_values, per_row_state)
from repro.vector.batch import ArrayUnavailable, ColumnBatch
from repro.vector.kernels import (KernelFallback, compile_kernel,
                                  is_true_mask)

_FALLBACK_ERRORS = (KernelFallback, ArrayUnavailable)


class MapTaskReport:
    """What one vectorized map task hands back to the engine."""

    __slots__ = ("emits", "input_records", "output_records", "matched",
                 "batches", "fallback_rows")

    def __init__(self):
        self.emits: List[Tuple[Any, Any]] = []
        self.input_records = 0
        self.output_records = 0
        self.matched = 0
        self.batches = 0
        self.fallback_rows = 0


class _FilterStage:
    """One WHERE conjunction stage (probe predicate, then the remainder)."""

    def __init__(self, kernel, row_filter: Callable):
        self.kernel = kernel
        self.row_filter = row_filter  # row -> bool (``is True`` semantics)

    def apply(self, np, batch: ColumnBatch, mask) -> Tuple[Any, int]:
        """Narrow ``mask``; returns ``(new_mask, rows_evaluated_by_row_fn)``."""
        if self.kernel is not None:
            try:
                value = self.kernel(batch)
            except _FALLBACK_ERRORS:
                return self._apply_rowwise(np, batch, mask)
            stage = is_true_mask(np, value, batch.num_rows)
            return np.logical_and(mask, stage), 0
        return self._apply_rowwise(np, batch, mask)

    def _apply_rowwise(self, np, batch: ColumnBatch, mask):
        rows = batch.rows()
        passes = self.row_filter
        out = mask.copy()
        alive = np.flatnonzero(mask).tolist()
        for i in alive:
            if not passes(rows[i]):
                out[i] = False
        return out, len(alive)


class _ValueStage:
    """One value-producing expression (group key / agg arg / projection)."""

    def __init__(self, kernel, row_fn: Callable):
        self.kernel = kernel
        self.row_fn = row_fn

    def vector_value(self, np, batch: ColumnBatch):
        """The kernel's VectorValue for the whole batch, or ``None`` when
        this batch must go through the row function."""
        if self.kernel is None:
            return None
        try:
            return self.kernel(batch)
        except _FALLBACK_ERRORS:
            return None

    def python_values(self, np, batch: ColumnBatch, index
                      ) -> Tuple[List[Any], int]:
        """Values (Python scalars, ``None`` for NULL lanes) for the matched
        rows, plus the number of row-function evaluations performed."""
        value = self.vector_value(np, batch)
        if value is None:
            rows = batch.rows()
            fn = self.row_fn
            picked = index.tolist()
            return [fn(rows[i]) for i in picked], len(picked)
        return _select_python(np, value, index), 0


def _select_python(np, value, index) -> List[Any]:
    """Matched-row lanes of a VectorValue as pure Python scalars."""
    data = value.data
    count = int(index.size)
    if isinstance(data, np.ndarray):
        values = data[index].tolist()
    else:
        scalar = data.item() if hasattr(data, "item") else data
        values = [scalar] * count
    null = value.null
    if null is not None:
        if isinstance(null, np.ndarray):
            picked = null[index].tolist()
        else:
            picked = [bool(null)] * count
        values = [None if is_null else v
                  for v, is_null in zip(values, picked)]
    return values


def _select_array(np, value, index):
    """Matched-row lanes as ``(data_array, null_array_or_None)``."""
    data = value.data
    if isinstance(data, np.ndarray):
        data = data[index]
    else:
        data = np.full(int(index.size), data)
    null = value.null
    if null is not None:
        if isinstance(null, np.ndarray):
            null = null[index]
        elif not bool(null):
            null = None
        else:
            null = np.ones(int(index.size), dtype=bool)
    return data, null


class _AggSpec:
    """One aggregate: fast array folding with per-batch row fallback."""

    def __init__(self, aggregate: CompiledAggregate, stage: Optional[_ValueStage]):
        self.aggregate = aggregate
        self.stage = stage  # None for count(*)

    def fold_batch(self, np, batch: ColumnBatch, index, state
                   ) -> Tuple[Any, int]:
        """Fold the matched rows of ``batch`` into ``state`` (global
        aggregation path).  Returns ``(state, fallback_rows)``."""
        if self.stage is None:  # count(*)
            return fold_count_star(self.aggregate, state,
                                   int(index.size)), 0
        value = self.stage.vector_value(np, batch)
        if value is None:
            rows = batch.rows()
            fn = self.stage.row_fn
            picked = index.tolist()
            values = [fn(rows[i]) for i in picked]
            return (fold_python_values(self.aggregate, state, values),
                    len(picked))
        try:
            data, null = _select_array(np, value, index)
        except OverflowError:  # e.g. a literal beyond int64
            rows = batch.rows()
            fn = self.stage.row_fn
            picked = index.tolist()
            values = [fn(rows[i]) for i in picked]
            return (fold_python_values(self.aggregate, state, values),
                    len(picked))
        return fold_array(np, self.aggregate, state, data, null), 0

    def fold_one(self, state, value) -> Any:
        """Fold a single row's evaluated argument (GROUP BY path)."""
        return self.aggregate.function.merge(
            state, per_row_state(self.aggregate, value))


class VectorSelectPlan:
    """The compiled columnar map task for one SELECT job."""

    def __init__(self, np, analysis: hexec.AnalyzedSelect, reader):
        self.np = np
        self.reader = reader
        self.is_group = analysis.is_group_query
        self.has_group_keys = bool(analysis.group_fns)
        self.aggregates = analysis.aggregates
        schema = analysis.table.schema
        resolver = analysis.resolver

        def kernel_for(expr):
            return compile_kernel(expr, resolver, schema, np)

        probe_pred, combined_pred = hexec._split_filter(
            analysis.stmt.where, analysis.probe_resolver)
        self.filter_stages: List[_FilterStage] = []
        if probe_pred is not None:
            self.filter_stages.append(
                _FilterStage(kernel_for(probe_pred), analysis.probe_filter))
        if combined_pred is not None:
            self.filter_stages.append(
                _FilterStage(kernel_for(combined_pred),
                             analysis.combined_filter))

        self.group_stages = [
            _ValueStage(kernel_for(expr), fn)
            for expr, fn in zip(analysis.group_exprs, analysis.group_fns)]
        self.agg_specs = [
            _AggSpec(agg, None if agg.count_star else
                     _ValueStage(kernel_for(agg.call.args[0]), agg.arg_fn))
            for agg in analysis.aggregates]
        items = hexec._expand_stars(analysis.stmt, analysis.table,
                                    analysis.joins)
        self.project_stages = [
            _ValueStage(kernel_for(item.expr), fn)
            for item, fn in zip(items, analysis.project_fns)]

    # ------------------------------------------------------------- execution
    def run_map_task(self, fs, split: FileSplit) -> MapTaskReport:
        return self.consume_batches(self.reader.read_batches(fs, split))

    def consume_batches(self, batches) -> MapTaskReport:
        """Run the per-batch pipeline (filter masks, folds, projection)
        over already-decoded batches.  ``run_map_task`` is this plus the
        batch decoder; the speedup benchmark calls it directly to time the
        scan hot path on pre-built batches."""
        np = self.np
        report = MapTaskReport()
        groups: Dict[Any, List[Any]] = {}
        global_states: Optional[List[Any]] = None
        for batch in batches:
            rows_in_batch = batch.num_rows
            report.input_records += rows_in_batch
            if rows_in_batch == 0:
                continue
            report.batches += 1
            mask = np.ones(rows_in_batch, dtype=bool)
            for stage in self.filter_stages:
                mask, fell_back = stage.apply(np, batch, mask)
                report.fallback_rows += fell_back
                if not mask.any():
                    break
            index = np.flatnonzero(mask)
            matched = int(index.size)
            if matched == 0:
                continue
            report.matched += matched
            if not self.is_group:
                self._project_batch(np, batch, index, report)
            elif self.has_group_keys:
                self._fold_grouped(np, batch, index, groups, report)
            else:
                if global_states is None:
                    global_states = [agg.function.initial()
                                     for agg in self.aggregates]
                for i, spec in enumerate(self.agg_specs):
                    global_states[i], fell_back = spec.fold_batch(
                        np, batch, index, global_states[i])
                    report.fallback_rows += fell_back

        if self.is_group:
            if self.has_group_keys:
                # the row path's task output after its combiner: one emit
                # per key, keys in sorted() order (mapreduce._combine)
                report.emits = [(key, tuple(groups[key]))
                                for key in sorted(groups)]
            elif global_states is not None:
                report.emits = [(hexec._GLOBAL_KEY, tuple(global_states))]
            report.output_records = report.matched
        else:
            report.output_records = len(report.emits)
        return report

    def _project_batch(self, np, batch, index, report) -> None:
        columns = []
        for stage in self.project_stages:
            values, fell_back = stage.python_values(np, batch, index)
            report.fallback_rows += fell_back
            columns.append(values)
        report.emits.extend(
            (None, row) for row in zip(*columns))

    def _fold_grouped(self, np, batch, index, groups, report) -> None:
        components = []
        for stage in self.group_stages:
            values, fell_back = stage.python_values(np, batch, index)
            report.fallback_rows += fell_back
            components.append(values)
        keys = list(zip(*components))
        argument_lists: List[Optional[List[Any]]] = []
        for spec in self.agg_specs:
            if spec.stage is None:
                argument_lists.append(None)
                continue
            values, fell_back = spec.stage.python_values(np, batch, index)
            report.fallback_rows += fell_back
            argument_lists.append(values)
        for j, key in enumerate(keys):
            states = groups.get(key)
            if states is None:
                states = [agg.function.initial() for agg in self.aggregates]
                groups[key] = states
            for a, spec in enumerate(self.agg_specs):
                value = None if argument_lists[a] is None \
                    else argument_lists[a][j]
                states[a] = spec.fold_one(states[a], value)


def compile_select(analysis: hexec.AnalyzedSelect,
                   input_format) -> Optional[VectorSelectPlan]:
    """A vector plan for this SELECT, or ``None`` when the scan itself
    cannot be vectorized (NumPy absent/disabled, joins, or an input
    format without a batch decoder)."""
    np = runtime.numpy_module()
    if np is None:
        return None
    if analysis.joins:
        return None
    reader = decode.batch_reader_for(input_format)
    if reader is None:
        return None
    return VectorSelectPlan(np, analysis, reader)
