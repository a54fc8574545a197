"""Predicate analysis: extract per-column range intervals from WHERE clauses.

Index handlers consume this: the Compact Index matches index-table rows
against the intervals, and DGFIndex maps intervals onto grid-file cells.
Extraction is *conservative*: intervals always over-approximate the
predicate, and ``exact`` reports whether the predicate is precisely the
conjunction of the extracted intervals (required for DGFIndex's
answer-from-headers path, where inner cells are never re-checked).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.hiveql import ast


@dataclass(frozen=True)
class Interval:
    """A one-dimensional interval; ``None`` bounds are unbounded.

    >>> Interval(low=1, high=5).contains(3)
    True
    >>> Interval(low=1, high=5, high_inclusive=True).contains(5)
    True
    """

    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = False

    @classmethod
    def point(cls, value: Any) -> "Interval":
        return cls(low=value, high=value, low_inclusive=True,
                   high_inclusive=True)

    @property
    def is_point(self) -> bool:
        return (self.low is not None and self.low == self.high
                and self.low_inclusive and self.high_inclusive)

    @property
    def is_empty(self) -> bool:
        if self.low is None or self.high is None:
            return False
        if self.low > self.high:
            return True
        return (self.low == self.high
                and not (self.low_inclusive and self.high_inclusive))

    def contains(self, value: Any) -> bool:
        if value is None:
            return False
        if self.low is not None:
            if value < self.low:
                return False
            if value == self.low and not self.low_inclusive:
                return False
        if self.high is not None:
            if value > self.high:
                return False
            if value == self.high and not self.high_inclusive:
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        low, low_inc = self.low, self.low_inclusive
        if other.low is not None and (low is None or other.low > low
                                      or (other.low == low
                                          and not other.low_inclusive)):
            low, low_inc = other.low, other.low_inclusive
        high, high_inc = self.high, self.high_inclusive
        if other.high is not None and (high is None or other.high < high
                                       or (other.high == high
                                           and not other.high_inclusive)):
            high, high_inc = other.high, other.high_inclusive
        return Interval(low=low, high=high, low_inclusive=low_inc,
                        high_inclusive=high_inc)


@dataclass
class RangeExtraction:
    """Result of analysing a WHERE clause."""

    intervals: Dict[str, Interval]
    #: True when the predicate is exactly the conjunction of ``intervals``.
    exact: bool
    #: Conjuncts that could not be turned into intervals (still must be
    #: applied as a residual row filter).
    residual: List[ast.Expr]

    def interval_for(self, column: str) -> Optional[Interval]:
        return self.intervals.get(column.lower())


def extract_ranges(where: Optional[ast.Expr]) -> RangeExtraction:
    """Analyse a WHERE clause into per-column intervals.

    Column qualifiers (``t1.userid``) are dropped: the paper's queries only
    range-restrict the fact table, and handlers verify column names against
    their own table's schema anyway.
    """
    if where is None:
        return RangeExtraction(intervals={}, exact=True, residual=[])
    conjuncts = _split_and(where)
    intervals: Dict[str, Interval] = {}
    residual: List[ast.Expr] = []
    for conjunct in conjuncts:
        extracted = _conjunct_interval(conjunct)
        if extracted is None:
            residual.append(conjunct)
            continue
        name, interval = extracted
        existing = intervals.get(name)
        intervals[name] = interval if existing is None \
            else existing.intersect(interval)
    return RangeExtraction(intervals=intervals, exact=not residual,
                           residual=residual)


def _split_and(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _split_and(expr.left) + _split_and(expr.right)
    return [expr]


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _conjunct_interval(expr: ast.Expr) -> Optional[Tuple[str, Interval]]:
    if isinstance(expr, ast.Between):
        if (isinstance(expr.operand, ast.ColumnRef)
                and isinstance(expr.low, ast.Literal)
                and isinstance(expr.high, ast.Literal)):
            return expr.operand.name.lower(), Interval(
                low=expr.low.value, high=expr.high.value,
                low_inclusive=True, high_inclusive=True)
        return None
    if not isinstance(expr, ast.BinaryOp):
        return None
    op, left, right = expr.op, expr.left, expr.right
    if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
        left, right = right, left
        op = _FLIP.get(op)
        if op is None:
            return None
    if not (isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal)):
        return None
    name = left.name.lower()
    value = right.value
    if value is None:
        return None
    if op == "=":
        return name, Interval.point(value)
    if op == "<":
        return name, Interval(high=value, high_inclusive=False)
    if op == "<=":
        return name, Interval(high=value, high_inclusive=True)
    if op == ">":
        return name, Interval(low=value, low_inclusive=False)
    if op == ">=":
        return name, Interval(low=value, low_inclusive=True)
    return None
