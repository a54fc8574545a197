"""Aggregate folding that is *bit-identical* to the row engine.

The row engine emits one per-row state per matched row
(``CompiledAggregate.accumulate_row(initial(), row)``) and the task
combiner folds them left-to-right in row order
(``hive.exec._merge_states``).  Floating-point addition is not
associative, so the vector folds below replicate that exact merge chain
instead of using ``np.sum`` (whose pairwise summation rounds
differently):

* float ``sum`` uses ``np.add.accumulate`` — strictly sequential
  (``out[i] = out[i-1] + a[i]``) and therefore the same operation
  sequence as the row fold, continued across batches by prepending the
  running state;
* ``avg`` folds ``0.0 + value`` terms the same way (the ``0.0 +`` is the
  row engine's ``AvgAgg.accumulate`` on a fresh ``(0.0, 0)`` state, and
  turns ``-0.0`` into ``0.0`` exactly like it);
* integer ``sum`` folds in Python (exact, overflow-free);
* ``min``/``max`` fold with the builtins the row merge uses — NaN and
  ``±0.0`` tie behaviour included — over Python scalars;
* everything else (string sums, ``count(DISTINCT …)``) goes through
  :func:`fold_python_values`, the literal merge chain.

Seeding with ``function.initial()`` is exact because ``merge(initial(),
s) == s`` for every aggregate in :mod:`repro.hive.aggregates` — the avg
case holds because a per-row total ``0.0 + v`` can never be ``-0.0``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.hive.aggregates import (AvgAgg, CompiledAggregate, CountAgg,
                                   CountDistinctAgg, MaxAgg, MinAgg, SumAgg)


def per_row_state(aggregate: CompiledAggregate, value: Any) -> Any:
    """``accumulate_row(initial(), row)`` given the already-evaluated
    argument value — the exact per-row state the row mapper emits."""
    function = aggregate.function
    if aggregate.count_star:
        return function.accumulate(function.initial(), 1)
    if value is None:
        if isinstance(function, (CountAgg, CountDistinctAgg)):
            return function.initial()
        return function.accumulate(function.initial(), value)
    if isinstance(function, CountAgg):
        return function.accumulate(function.initial(), 1)
    return function.accumulate(function.initial(), value)


def fold_python_values(aggregate: CompiledAggregate, state: Any,
                       values: List[Any]) -> Any:
    """The reference fold: merge per-row states left-to-right."""
    function = aggregate.function
    for value in values:
        state = function.merge(state, per_row_state(aggregate, value))
    return state


def fold_count_star(aggregate: CompiledAggregate, state: Any,
                    matched: int) -> Any:
    return state + matched


def _chain_sum(np, chain) -> float:
    """Left-to-right float sum of ``chain`` (the row engine's merge
    order).  Python's ``inf + -inf`` (``nan``) and overflow (``inf``) are
    silent, so NumPy's warnings for the same bits are suppressed."""
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.add.accumulate(chain)[-1])


def fold_array(np, aggregate: CompiledAggregate, state: Any, data,
               null) -> Any:
    """Fold a NumPy column (``data`` plus optional NULL mask) of matched
    rows into ``state``, bit-identically to :func:`fold_python_values`."""
    function = aggregate.function
    if null is not None:
        keep = np.logical_not(
            np.broadcast_to(np.asarray(null, dtype=bool), data.shape))
        data = data[keep]  # boolean indexing preserves row order
    if isinstance(function, CountAgg):
        return state + int(data.shape[0])
    if data.dtype.kind not in ("i", "f"):
        return fold_python_values(aggregate, state, data.tolist())
    if isinstance(function, SumAgg):
        if data.dtype.kind == "i":
            # Python int addition is exact and associative; int64 is not.
            total = sum(data.tolist())
            if data.shape[0] == 0:
                return state
            return total if state is None else state + total
        if data.shape[0] == 0:
            return state
        if state is None:
            return _chain_sum(np, data)
        return _chain_sum(np, np.concatenate(
            (np.array([state], dtype=np.float64), data)))
    if isinstance(function, AvgAgg):
        total, count = state
        if data.shape[0] == 0:
            return state
        shifted = np.add(0.0, data)  # the row engine's ``0.0 + value``
        chain = np.concatenate((np.array([total], dtype=np.float64),
                                shifted))
        return _chain_sum(np, chain), count + int(data.shape[0])
    if isinstance(function, (MinAgg, MaxAgg)):
        # NaN ordering and ±0.0 ties are fold-order-dependent: replicate
        # the row merge (builtin min/max) over Python scalars.
        pick = min if isinstance(function, MinAgg) else max
        for value in data.tolist():
            state = value if state is None else pick(state, value)
        return state
    return fold_python_values(aggregate, state, data.tolist())
