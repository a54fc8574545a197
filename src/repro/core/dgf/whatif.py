"""What-if layout pricing: cost a logged workload against a candidate
grid **without building it**.

The replica-fleet router (:meth:`DgfIndexHandler._route_layout`) chooses
between *built* layouts by measuring a real grid search against each
layout's stored per-GFU statistics and pricing the result with
:meth:`CostModel.layout_route_seconds`.  The advisor has to make the same
choice for layouts that do not exist yet, so this module estimates what
that grid search *would* return from pure geometry:

* ``overlapped_i`` — how many cells of a ``n_i``-cell dimension a query
  of width ``W_i`` overlaps: ``floor(W_i / cell_i) + 1``, clamped to
  ``[1, n_i]`` (a range of width ``W`` straddles at most one extra cell
  boundary beyond ``W / cell`` whole cells).
* index probes = ``prod(overlapped_i)`` — every query-related cell costs
  one KV get for its header or slice locations.
* on the aggregation path, inner cells answer from pre-computed headers,
  so only the boundary shell pays data reads:
  ``scan_cells = probes - prod(inner_i)`` where ``inner_i`` is
  ``max(0, overlapped_i - 2)`` for a partially-covered dimension and
  ``overlapped_i`` for a fully-covered one (a query spanning a whole
  dimension has no boundary shell along it — every overlapped cell is
  fully contained, exactly as ``search_grid`` classifies them).  Without
  the header path every cell's slice is read (``scan_cells = probes``),
  mirroring ``force_all_boundary``.
* read volume = ``scan_cells / prod(n_i)`` of the table's total records
  and bytes — the builder spreads rows over the grid, so cells
  approximate equal shares at advisory precision.

Those estimates feed :meth:`CostModel.layout_route_seconds`, the very
formula the router calls — by construction, a grid this module scores as
cheapest is the grid the router will route to once built.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core.dgf.advisor import DimensionStats, QueryProfile
from repro.core.dgf.policy import SplittingPolicy
from repro.mapreduce.cost import CostModel

__all__ = ["WhatIfEvaluator", "stats_from_policy"]


def stats_from_policy(policy: SplittingPolicy,
                      bounds: Dict[str, Tuple[int, int]]
                      ) -> Dict[str, DimensionStats]:
    """Dimension extents from a built index's policy + cell bounds.

    The builder records, per dimension, the inclusive ``(k_min, k_max)``
    cell-index range actually occupied by data.  The cell-aligned data
    extent ``[origin + k_min * interval, origin + (k_max + 1) * interval)``
    over-states the true min/max by at most one cell per edge — fine at
    advisory precision, and it means the advisor needs no data sample.
    """
    stats: Dict[str, DimensionStats] = {}
    for dim in policy.dimensions:
        key = dim.name.lower()
        low, high = dim.extent(*bounds[key])
        stats[key] = DimensionStats(name=dim.name, dtype=dim.dtype,
                                    low=low, high=high)
    return stats


class WhatIfEvaluator:
    """Prices :class:`QueryProfile` workloads against hypothetical grids.

    ``total_records`` / ``total_bytes`` are the table-wide totals (e.g.
    from :func:`repro.core.dgf.fleet.refresh_stats`); per-query read
    volume is the estimated scanned-cell fraction of those totals.
    """

    def __init__(self, cost_model: CostModel,
                 stats: Dict[str, DimensionStats],
                 total_records: float, total_bytes: float,
                 pyramid_fanout: Optional[int] = None):
        self.cost_model = cost_model
        self.stats = stats
        self.total_records = max(float(total_records), 1.0)
        self.total_bytes = max(float(total_bytes), 0.0)
        #: when set, inner regions are priced with the aggregation
        #: pyramid's logarithmic probe count instead of one get per inner
        #: cell — fine grids stop being penalized for probe volume their
        #: pyramid would never pay.  None prices flat header probes.
        self.pyramid_fanout = pyramid_fanout

    def query_seconds(self, profile: QueryProfile,
                      cell_counts: Dict[str, int]) -> float:
        """Modelled seconds for one query on a ``cell_counts`` grid."""
        probes = 1.0
        inner = 1.0
        grid_cells = 1.0
        inner_extents = []
        for key, count in cell_counts.items():
            dim = self.stats[key]
            count = max(1, int(count))
            cell_width = dim.span / count
            width = profile.widths.get(key)
            if width is None:
                width = dim.span
            overlapped = min(float(count),
                             max(1.0, float(int(width / cell_width)) + 1.0))
            probes *= overlapped
            if width >= dim.span:
                # full coverage: no boundary shell along this dimension
                inner *= overlapped
                inner_extents.append(overlapped)
            else:
                inner *= max(0.0, overlapped - 2.0)
                inner_extents.append(max(0.0, overlapped - 2.0))
            grid_cells *= count
        if profile.agg_path:
            scan_cells = probes - inner
        else:
            scan_cells = probes
        if self.pyramid_fanout and profile.agg_path and inner >= 1.0:
            # The pyramid answers the inner box from summarized nodes:
            # replace its one-get-per-cell term with the planner's cover
            # of a worst-case box misaligned to origin 1 (an aligned box
            # covers with fewer nodes; never under-price a layout).
            from repro.pyramid import decompose_region, levels_for_extent
            levels = max(levels_for_extent(max(1, int(c)),
                                           self.pyramid_fanout)
                         for c in cell_counts.values())
            probes = (probes - inner) + decompose_region(
                (1,) * len(inner_extents), tuple(map(int, inner_extents)),
                (), self.pyramid_fanout, levels).probes
        fraction = min(1.0, scan_cells / grid_cells)
        return self.cost_model.layout_route_seconds(
            probes,
            fraction * self.total_records,
            fraction * self.total_bytes)

    def workload_seconds(self, profiles: Sequence[QueryProfile],
                         cell_counts: Dict[str, int]) -> float:
        """Weighted total seconds for a whole logged workload."""
        return sum(p.weight * self.query_seconds(p, cell_counts)
                   for p in profiles)
