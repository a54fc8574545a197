"""Grid search: the query region as a box of cells (Algorithm 3's core).

Overlap and coverage are separable per dimension, so the query-related
cells are the Cartesian product of each dimension's overlapping cell
range, and a cell is *inner* exactly when it is covered in every
dimension: the related cells form a box and the inner cells a sub-box.
:func:`search_grid` therefore returns one :class:`GridRegion` — two
inclusive cell ranges per dimension — and never enumerates cells.  The
region answers counts, the inner box and membership in O(dims); GFUKey
strings are an encoding detail it produces on demand, for exactly the
cells a caller is about to fetch from the KV store.

Each dimension is classified by ``DimensionPolicy.cell_ranges``: one
``cell_of`` lookup per predicate endpoint, the function that placed the
rows.  Dimensions missing from the predicate use the min/max cells
recorded at construction time (the paper's partial-specified query
handling), which arrive here as the ``bounds`` clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.dgf.policy import KEY_SEPARATOR, CellRange, SplittingPolicy
from repro.hiveql.predicates import Interval


def _volume(ranges: Sequence[CellRange]) -> int:
    return prod(max(0, hi - lo + 1) for lo, hi in ranges)


def _shell(labels: Sequence[List[str]], cuts: Sequence[slice],
           stem: Tuple[str, ...] = ()) -> Iterator[Tuple[str, ...]]:
    """Label vectors of the cells outside the covered sub-box, in
    ``itertools.product`` order, without visiting the cells inside it.
    ``cuts[d]`` is the covered slice of ``labels[d]``."""
    head, *rest = labels
    cut = cuts[0]

    def outside(part):
        return (stem + (label,) + tail
                for label in part for tail in product(*rest))

    yield from outside(head[:cut.start])
    if rest:
        for label in head[cut]:
            yield from _shell(rest, cuts[1:], stem + (label,))
    yield from outside(head[cut.stop:])


@dataclass(frozen=True)
class GridRegion:
    """The query-related cells of one grid: per dimension, the cell range
    the query *overlaps* and its sub-range the query *covers*.

    Inner cells are the product of the covered ranges, boundary cells
    the rest of the overlapped box.  The key lists come out in the
    lexicographic ``itertools.product`` order of the cell vectors —
    header floats fold in ``multi_get`` order, so the order is part of
    the contract.
    """

    policy: SplittingPolicy
    overlapped: Tuple[CellRange, ...]
    covered: Tuple[CellRange, ...]

    # ---------------------------------------------------------------- counts
    @property
    def num_cells(self) -> int:
        return _volume(self.overlapped)

    @property
    def inner_count(self) -> int:
        return _volume(self.covered)

    @property
    def boundary_count(self) -> int:
        return self.num_cells - self.inner_count

    @property
    def empty(self) -> bool:
        """True when some dimension has no query-related cell."""
        return self.num_cells == 0

    # ------------------------------------------------------------- inner box
    @property
    def inner_box(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Inclusive ``(lo, hi)`` corners of the inner sub-box (only
        meaningful when ``inner_count`` is non-zero)."""
        return (tuple(lo for lo, _hi in self.covered),
                tuple(hi for _lo, hi in self.covered))

    @property
    def inner_cells(self) -> Iterator[Tuple[int, ...]]:
        """The inner cell vectors, in :attr:`inner_keys` order."""
        return product(*(range(lo, hi + 1) for lo, hi in self.covered))

    def is_inner(self, cells: Sequence[int]) -> bool:
        return all(lo <= k <= hi
                   for k, (lo, hi) in zip(cells, self.covered))

    # ------------------------------------------------------------------ keys
    def _labels(self, ranges: Sequence[CellRange]) -> List[List[str]]:
        return [[dim.label(k) for k in range(lo, hi + 1)]
                for dim, (lo, hi) in zip(self.policy.dimensions, ranges)]

    @property
    def inner_keys(self) -> List[str]:
        return [KEY_SEPARATOR.join(labels)
                for labels in product(*self._labels(self.covered))]

    @property
    def boundary_keys(self) -> List[str]:
        cuts = [slice(in_lo - lo, in_hi - lo + 1)
                for (lo, _hi), (in_lo, in_hi)
                in zip(self.overlapped, self.covered)]
        return [KEY_SEPARATOR.join(labels)
                for labels in _shell(self._labels(self.overlapped), cuts)]

    @property
    def all_keys(self) -> List[str]:
        return self.inner_keys + self.boundary_keys


def search_grid(policy: SplittingPolicy,
                intervals: Dict[str, Optional[Interval]],
                bounds: Dict[str, Tuple[int, int]],
                force_all_boundary: bool = False) -> GridRegion:
    """Classify the query-related cells of ``policy``.

    ``intervals``: per dimension (lower-case name), the predicate interval
    or None when the dimension is unconstrained.
    ``bounds``: per dimension, the inclusive (min, max) cell indexes
    observed at build time.
    ``force_all_boundary``: treat every cell as boundary — used when the
    header path cannot be applied (non-aggregation queries, Figure 17's
    no-precompute ablation) and every query cell's slice must be read.
    """
    overlapped: List[CellRange] = []
    covered: List[CellRange] = []
    for dim in policy.dimensions:
        name = dim.name.lower()
        (lo, hi), inner = dim.cell_ranges(intervals.get(name),
                                          *bounds[name])
        overlapped.append((lo, hi))
        covered.append((lo, lo - 1) if force_all_boundary else inner)
    return GridRegion(policy, tuple(overlapped), tuple(covered))
