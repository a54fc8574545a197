"""Splitting policies: the grid geometry of a DGFIndex.

A policy gives every index dimension an *origin* and an *interval size*.
Cells are left-closed/right-open, matching the paper's ``[1, 4)`` example.

Coordinates are handled in an internal numeric space: numeric columns map
to themselves, DATE columns map to proleptic ordinal days, so "1 day"
intervals are exact integer arithmetic.

One membership rule decides which cell holds a value:
:meth:`DimensionPolicy.cell_of`, the largest cell whose start is at or
below it.  It places rows at build and append time, parses GFUKey labels
back to cells, and :meth:`DimensionPolicy.cell_ranges` classifies
predicate endpoints with it, so the cells a query reads are exactly the
cells its rows were written to.  Discrete dimensions (INT, BIGINT, DATE)
hold only integers, so an equality predicate (``time = '2012-12-30'``
with 1-day cells, the paper's partial-specified query) covers a whole
cell and benefits from pre-computed headers.  Their origins and
intervals must be integers, so distinct cells have distinct labels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import DGFError, SemanticError
from repro.hiveql.predicates import Interval
from repro.storage.schema import (DataType, Schema, date_to_ordinal,
                                  ordinal_to_date)

#: rows and origins lie within this many intervals of zero, where a cell
#: start rounds by under half a cell and so no two starts coincide
_REACH = 2 ** 50

#: GFUKey segment separator (the paper's ``7_13`` style keys)
KEY_SEPARATOR = "_"

#: inclusive cell-index range of one dimension; ``lo > hi`` means empty
CellRange = Tuple[int, int]

_EMPTY: CellRange = (0, -1)


@dataclass(frozen=True)
class DimensionPolicy:
    """Origin + interval size of one index dimension."""

    name: str
    dtype: DataType
    origin: Any          # raw domain value (number, or ISO date string)
    interval: float      # cell width (days for DATE)

    def __post_init__(self):
        if self.interval <= 0:
            raise DGFError(f"dimension {self.name!r}: interval must be > 0")
        if self.dtype is DataType.DATE:
            try:
                date_to_ordinal(self.origin)
            except (ValueError, TypeError) as error:
                raise DGFError(
                    f"dimension {self.name!r}: origin must be an ISO date, "
                    f"got {self.origin!r}") from error
        elif not isinstance(self.origin, (int, float)):
            raise DGFError(
                f"dimension {self.name!r}: numeric origin required, "
                f"got {self.origin!r}")
        if self.is_discrete and self.interval != int(self.interval):
            raise DGFError(
                f"dimension {self.name!r}: discrete dimensions need an "
                f"integer interval, got {self.interval}")
        if self.dtype in (DataType.INT, DataType.BIGINT) \
                and not float(self.origin).is_integer():
            raise DGFError(
                f"dimension {self.name!r}: integer dimensions need an "
                f"integer origin, got {self.origin}")
        self.place(self.origin)

    # ------------------------------------------------------- coordinate space
    @property
    def is_discrete(self) -> bool:
        return self.dtype in (DataType.INT, DataType.BIGINT, DataType.DATE)

    def to_coord(self, raw: Any) -> float:
        if self.dtype is DataType.DATE:
            return float(date_to_ordinal(raw))
        return float(raw)

    def from_coord(self, coord: float) -> Any:
        if self.dtype is DataType.DATE:
            return ordinal_to_date(int(round(coord)))
        if self.dtype in (DataType.INT, DataType.BIGINT):
            return int(round(coord))
        return coord

    @cached_property
    def _origin_coord(self) -> float:
        return self.to_coord(self.origin)

    # ---------------------------------------------------------------- cells
    def cell_of(self, raw: Any) -> int:
        """Grid cell index containing ``raw``."""
        return self._cell(self.to_coord(raw))

    def place(self, raw: Any) -> int:
        """:meth:`cell_of` of a row value (or the origin), refusing one too
        far out for its cell's label to parse back to the cell."""
        coord = self.to_coord(raw)
        if abs(coord) > self.interval * _REACH:
            raise DGFError(
                f"dimension {self.name!r}: {raw!r} lies over 2**50 "
                f"intervals from 0, where cell starts round together")
        return self._cell(coord)

    def _cell(self, coord: float) -> int:
        """The largest ``k`` with ``origin + k * interval <= coord``.  The
        floored quotient is corrected by at most one step; starts and the
        quotient are both monotone, so the result is too, and it is exact
        within :data:`_REACH`."""
        origin = self._origin_coord
        interval = self.interval
        try:
            k = math.floor((coord - origin) / interval)
        except OverflowError:  # past the double range: saturate, monotone
            k = math.floor(math.copysign(sys.float_info.max, coord - origin))
        if origin + k * interval > coord:
            return k - 1
        if origin + (k + 1) * interval <= coord:
            return k + 1
        return k

    def cell_start(self, k: int) -> Any:
        return self.from_coord(self._origin_coord + k * self.interval)

    def extent(self, k_min: int, k_max: int) -> Tuple[float, float]:
        """Coordinate extent ``[low, high)`` of cells ``k_min .. k_max``."""
        origin = self._origin_coord
        return (origin + k_min * self.interval,
                origin + (k_max + 1) * self.interval)

    def label(self, k: int) -> str:
        """GFUKey segment for cell ``k``."""
        start = self.cell_start(k)
        if isinstance(start, float) and start == int(start):
            return str(int(start))
        return str(start)

    # ------------------------------------------------------------ intervals
    def literal_coord(self, raw: Any) -> Any:
        """Coordinate of a predicate literal: exact ints on INT/BIGINT,
        ordinal days on DATE, floats on DOUBLE.  A literal the dimension
        cannot compare with raises :class:`SemanticError`; so does a DATE
        literal not in ``YYYY-MM-DD`` form, as rows compare as strings."""
        try:
            if self.dtype is DataType.DATE:
                ordinal = date_to_ordinal(raw)
                if ordinal_to_date(ordinal) == raw:
                    return ordinal
            elif isinstance(raw, (int, float)) and math.isfinite(raw):
                return raw if self.is_discrete else float(raw)
        except (TypeError, ValueError, OverflowError):
            pass
        raise SemanticError(
            f"column {self.name!r} cannot be compared with {raw!r}")

    def _end(self, raw: Any, inclusive: bool,
             step: int) -> Tuple[float, float]:
        """Coordinates of the value the dimension can hold nearest inside
        one predicate end, and of its neighbour just outside; ``step`` is
        +1 for a low end, -1 for a high end."""
        value = self.literal_coord(raw)
        if self.is_discrete:
            inside = math.ceil(value) if step > 0 else math.floor(value)
            if not inclusive and inside == value:
                inside += step
            return float(inside), float(inside - step)
        if not inclusive:
            value = math.nextafter(value, step * math.inf)
        return value, math.nextafter(value, -step * math.inf)

    def cell_ranges(self, interval: Optional[Interval], k_min: int,
                    k_max: int) -> Tuple[CellRange, CellRange]:
        """The cells of ``[k_min, k_max]`` that ``interval`` overlaps, and
        the sub-range it covers (None = unconstrained).

        Each end moves inward to the nearest value the dimension can hold,
        and :meth:`cell_of` of that value bounds the overlapped range.  An
        end cell is covered only when the value just outside the end falls
        in another cell.  ``cell_of`` is monotone, so overlapped cells hold
        every matching value and covered cells hold only matching values.
        """
        if interval is None:
            return (k_min, k_max), (k_min, k_max)
        lo = in_lo = k_min
        hi = in_hi = k_max
        low, high = -math.inf, math.inf
        if interval.low is not None:
            low, outside = self._end(interval.low, interval.low_inclusive, 1)
            k = self._cell(low)
            lo = max(lo, k)
            in_lo = max(in_lo, k if self._cell(outside) < k else k + 1)
        if interval.high is not None:
            high, outside = self._end(interval.high,
                                      interval.high_inclusive, -1)
            k = self._cell(high)
            hi = min(hi, k)
            in_hi = min(in_hi, k if self._cell(outside) > k else k - 1)
        if lo > hi or low > high:
            return _EMPTY, _EMPTY
        if in_lo > in_hi:
            return (lo, hi), (lo, lo - 1)
        return (lo, hi), (in_lo, in_hi)

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "dtype": self.dtype.value,
                "origin": self.origin, "interval": self.interval}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DimensionPolicy":
        return cls(name=data["name"], dtype=DataType(data["dtype"]),
                   origin=data["origin"], interval=data["interval"])

    @classmethod
    def from_spec(cls, name: str, dtype: DataType,
                  spec: str) -> "DimensionPolicy":
        """Parse the ``IDXPROPERTIES`` value, e.g. ``'1_3'`` (origin 1,
        interval 3) or ``'2012-12-01_7d'`` (weekly cells from Dec 1)."""
        if KEY_SEPARATOR not in spec:
            raise DGFError(
                f"dimension {name!r}: spec {spec!r} must be "
                f"'<origin>{KEY_SEPARATOR}<interval>'")
        origin_text, interval_text = spec.rsplit(KEY_SEPARATOR, 1)
        if dtype is DataType.DATE:
            if not interval_text.endswith("d"):
                raise DGFError(
                    f"dimension {name!r}: date intervals use day units, "
                    f"e.g. '1d'; got {interval_text!r}")
            return cls(name=name, dtype=dtype, origin=origin_text,
                       interval=float(interval_text[:-1]))
        origin = float(origin_text)
        if origin == int(origin):
            origin = int(origin)
        return cls(name=name, dtype=dtype, origin=origin,
                   interval=float(interval_text))


class SplittingPolicy:
    """The full grid: one :class:`DimensionPolicy` per index dimension,
    in index-column order."""

    def __init__(self, dimensions: Sequence[DimensionPolicy]):
        if not dimensions:
            raise DGFError("a splitting policy needs at least one dimension")
        names = [d.name.lower() for d in dimensions]
        if len(set(names)) != len(names):
            raise DGFError(f"duplicate dimensions in policy: {names}")
        self.dimensions: Tuple[DimensionPolicy, ...] = tuple(dimensions)

    def __len__(self) -> int:
        return len(self.dimensions)

    def __iter__(self):
        return iter(self.dimensions)

    def dimension(self, name: str) -> DimensionPolicy:
        for dim in self.dimensions:
            if dim.name.lower() == name.lower():
                return dim
        raise DGFError(f"policy has no dimension {name!r}")

    @property
    def names(self) -> List[str]:
        return [d.name for d in self.dimensions]

    # ------------------------------------------------------------------ keys
    def key_of_cells(self, cells: Sequence[int]) -> str:
        """GFUKey for a cell-index vector (the lower-left coordinate)."""
        return KEY_SEPARATOR.join(
            dim.label(k) for dim, k in zip(self.dimensions, cells))

    def key_of_row(self, values: Sequence[Any]) -> str:
        """GFUKey of the row whose index-dimension values are ``values``."""
        return self.key_of_cells(self.cells_of_row(values))

    def cells_of_row(self, values: Sequence[Any]) -> Tuple[int, ...]:
        return tuple(dim.place(v) for dim, v in zip(self.dimensions, values))

    def cells_of_key(self, key: str) -> Tuple[int, ...]:
        """Cell-index vector of a GFUKey — the inverse of
        :meth:`key_of_cells`.  Date labels contain no separator and
        numeric labels never do, so a plain split works; the segment
        count is validated against the policy."""
        labels = key.split(KEY_SEPARATOR)
        if len(labels) != len(self.dimensions):
            raise DGFError(
                f"GFUKey {key!r} has {len(labels)} segments, policy has "
                f"{len(self.dimensions)} dimensions")
        return tuple(dim.cell_of(label)
                     for dim, label in zip(self.dimensions, labels))

    # --------------------------------------------------------------- regions
    def region_spans(self, bounds: Dict[str, Tuple[int, int]],
                     intervals: Dict[str, Optional[Interval]]
                     ) -> Dict[str, Optional[Tuple[float, float]]]:
        """Per-dimension coordinate span of a query region.

        ``bounds`` are the built cell bounds; ``intervals`` the
        per-dimension predicate intervals (lower-case names, None =
        unconstrained).  Returns, per dimension, ``(low, high)`` in
        coordinate space clamped to the data extent, or None for
        unconstrained dimensions.
        """
        spans: Dict[str, Optional[Tuple[float, float]]] = {}
        for dim in self.dimensions:
            key = dim.name.lower()
            interval = intervals.get(key)
            if interval is None:
                spans[key] = None
                continue
            data_low, data_high = dim.extent(*bounds[key])
            low = float(dim.literal_coord(interval.low)) \
                if interval.low is not None else data_low
            high = float(dim.literal_coord(interval.high)) \
                if interval.high is not None else data_high
            low = min(max(low, data_low), data_high)
            high = min(max(high, data_low), data_high)
            spans[key] = (low, max(high, low))
        return spans

    # -------------------------------------------------------- serialization
    @classmethod
    def from_properties(cls, schema: Schema, columns: Sequence[str],
                        properties: Dict[str, str]) -> "SplittingPolicy":
        """Build the policy from ``CREATE INDEX`` properties (Listing 3)."""
        lowered = {k.lower(): v for k, v in properties.items()}
        dims = []
        for column in columns:
            spec = lowered.get(column.lower())
            if spec is None:
                raise DGFError(
                    f"IDXPROPERTIES is missing the splitting spec for "
                    f"dimension {column!r}")
            dims.append(DimensionPolicy.from_spec(
                column, schema.dtype_of(column), spec))
        return cls(dims)

    def to_dict(self) -> Dict[str, Any]:
        return {"dimensions": [d.to_dict() for d in self.dimensions]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SplittingPolicy":
        return cls([DimensionPolicy.from_dict(d)
                    for d in data["dimensions"]])
