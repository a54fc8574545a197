"""DgfIndexHandler: DGFIndex's integration with the Hive planner.

Paper mapping: Sec. 4.3 ("Query in DGFIndex"), Algorithm 3 — the MDRQ
decomposition step.  Build and drop delegate to Sec. 4.2's construction
job (:mod:`repro.core.dgf.builder`); split filtering and slice-skipping
reads are Sec. 4.3's Algorithm 4 (:mod:`repro.core.dgf.inputformat`).

``plan_access`` extracts the per-dimension intervals from the predicate
(completing missing dimensions with the stored min/max standardized
values — the Sec. 4.4 partial-specification rule), decomposes the query
region into inner and boundary GFUs, and either

* **aggregation path** — answer the inner region from pre-computed headers
  and hand Hive only the boundary slices to scan with the exact predicate,
  or
* **slice path** — hand Hive the slice locations of *all* query-related
  GFUs so ``getSplits`` can filter splits and the record reader can skip
  unrelated slices inside each split.

Observability: when the owning session traces a query, the handler opens
``dgf.route`` (fleets only) / ``dgf.search_grid`` / ``delta:merge``
(resident deltas only) / ``dgf.pyramid`` (pyramid covers only) /
``dgf.inner_headers`` / ``dgf.boundary_slices`` / ``dgf.filter_splits``
spans under the session's ``plan`` span, so ``EXPLAIN ANALYZE`` shows the
decomposition (inner vs. boundary GFU counts) and the KV-store ops each
step issued.  See ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.dgf import builder, fleet
from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.grid import GridRegion, search_grid
from repro.core.dgf.inputformat import DgfSliceInputFormat, slices_to_splits
from repro.core.dgf.store import DgfStore
from repro.errors import DGFError
from repro.hive.aggregates import (AggFunction, AvgAgg, CountAgg, MaxAgg,
                                   MinAgg, SumAgg)
from repro.hive.indexhandler import (BuildReport, IndexAccessPlan,
                                     IndexHandler, QueryIndexContext)
from repro.hive.metastore import IndexInfo, TableInfo
from repro.mapreduce.cost import KVStats


def merge_function_for(key: str) -> AggFunction:
    """The additive function behind a canonical header key."""
    name = key.split("(", 1)[0]
    functions = {"sum": SumAgg, "count": CountAgg, "min": MinAgg,
                 "max": MaxAgg}
    if name not in functions:
        raise DGFError(f"no additive merge function for header {key!r}")
    return functions[name]()


def _avg_components(key: str) -> Optional[Tuple[str, str]]:
    """``avg(x)`` is derivable from ``sum(x)`` and ``count(*)``."""
    if not key.startswith("avg("):
        return None
    arg = key[4:-1]
    return f"sum({arg})", "count(*)"


def demote_suppressed_cells(region: GridRegion,
                            overlay) -> List[Tuple[int, ...]]:
    """The tombstone-suppressed inner cells of ``region``, sorted.

    An inner cell with tombstones can no longer be answered from its
    pre-computed header (the header still counts suppressed rows), so it
    moves to the boundary scan, where the exact predicate plus the
    overlay's tombstone filter produce the surviving rows.  Pending-only
    cells keep their headers — their delta rows arrive via synthetic
    splits and merge additively.  When *every* inner cell is suppressed
    the plan degenerates to the pure slice path: no headers are folded
    and it reports ``inner_gfus == 0``.  Off the aggregation path the
    region has no inner cells, so nothing is demoted.

    The demoted cells also feed the aggregation pyramid, which must not
    cover them with any node.
    """
    if overlay is None or not overlay.has_suppression:
        return []
    return sorted(cell for cell in overlay.suppress if region.is_inner(cell))


def pyramid_cover(index: IndexInfo, layout_name: Optional[str],
                  region: GridRegion, blocked=()):
    """The pyramid cover of ``region``'s inner box on one layout, with the
    ``blocked`` cells kept out of every node; ``None`` when that layout
    has no pyramid or the box is empty (always so off the agg path)."""
    from repro import pyramid as pyr
    levels = pyr.pyramid_levels(index, layout_name)
    if not (levels and region.inner_count):
        return None
    return pyr.decompose_region(*region.inner_box, blocked,
                                pyr.pyramid_fanout(index), levels)


class DgfIndexHandler(IndexHandler):
    handler_name = "dgf"

    # ------------------------------------------------------------------ build
    def build(self, session, index: IndexInfo) -> BuildReport:
        return builder.build_dgf_index(session, index)

    def drop(self, session, index: IndexInfo) -> None:
        fleet.drop_layouts(session,
                           session.metastore.get_table(index.table), index)
        DgfStore(session.kvstore, index.table, index.name).clear()
        from repro.pyramid import PYRAMID_STATE_KEY, drop_pyramid
        drop_pyramid(session, index.table, index.name)
        index.state.pop(PYRAMID_STATE_KEY, None)

    # ------------------------------------------------------------------ query
    def plan_access(self, session, table: TableInfo, index: IndexInfo,
                    ctx: QueryIndexContext) -> Optional[IndexAccessPlan]:
        store = session.dgf_store(table.name, index.name)
        policy = store.load_policy()
        bounds = store.load_bounds()

        intervals = {}
        constrained = False
        for dim in policy.dimensions:
            interval = ctx.ranges.interval_for(dim.name)
            intervals[dim.name.lower()] = interval
            if interval is not None:
                constrained = True
        if not constrained:
            return None  # nothing to filter on; a full scan is as good

        precomputed: Set[str] = set(store.get_meta("precompute"))
        agg_path = self._aggregation_path_applies(ctx, policy, precomputed)
        tracer = session.tracer

        binding = session.delta_binding(table.name)
        if binding is not None and not binding.serves(index.name):
            binding = None

        # Advisor query-log capture: note the query's region in *primary*
        # grid coordinates before any routing, so the logged profile
        # describes the query, not whichever layout served it.  Sessions
        # without an attached log skip this entirely.
        if getattr(session, "query_log", None) is not None:
            session.note_query_region(
                table.name, index.name,
                policy.region_spans(bounds, intervals), agg_path)

        # Replica-fleet routing: when the index has layout replicas, cost
        # every surviving layout for this query's region and read from the
        # cheapest (HAIL).  The ``dgf.route`` span, the plan's ``layout``
        # field and the description suffix only exist when a fleet does,
        # so fleetless plans stay byte-identical to the pre-fleet engine.
        layout_name: Optional[str] = None
        read_table = table
        layouts = fleet.registered_layouts(index)
        if not layouts and ctx.force_layout is not None:
            # No fleet: forcing the primary is a harmless no-op (the
            # differential harnesses pin it on fleetless baselines), but
            # any other name must fail at plan time, not fall through to
            # a silent primary scan.
            from repro.hdfs.layout import PRIMARY_LAYOUT
            if ctx.force_layout != PRIMARY_LAYOUT:
                raise DGFError(
                    f"cannot force layout {ctx.force_layout!r}: index "
                    f"{index.name!r} has no replica fleet "
                    f"(live: [{PRIMARY_LAYOUT!r}])")
        # A scored route hands over the winner's region and cover; only
        # unscored plans (fleetless, forced, delta-pinned) search here.
        scored = None
        if layouts:
            layout_name, store, policy, bounds, read_table, scored = \
                self._route_layout(session, table, index, ctx, layouts,
                                   intervals, agg_path, binding,
                                   (store, policy, bounds))

        with tracer.span("dgf.search_grid") as search_span:
            region, cover = scored or (
                search_grid(policy, intervals, bounds,
                            force_all_boundary=not agg_path), None)
            search_span.add("inner_keys", region.inner_count)
            search_span.add("boundary_keys", region.boundary_count)

        # Merge-on-read: resident streaming deltas overlapping the query
        # region become tombstone filters + synthetic delta splits.  The
        # span (and the plan's delta fields) only appears when a candidate
        # cell is resident, so delta-free queries trace byte-identically
        # to the pre-streaming engine.
        overlay = binding.merge_on_read(intervals) \
            if binding is not None else None

        suppressed = demote_suppressed_cells(region, overlay)
        inner_count = region.inner_count - len(suppressed)

        # Aggregation pyramid (src/repro/pyramid/): when the chosen layout
        # has a built pyramid, answer the inner region from O(polylog)
        # node reads instead of one header probe per cell.  Strictly a
        # *physical* accelerator: the decomposition below is pure
        # geometry, the node fetches live in a strippable ``dgf.pyramid``
        # span, and the logical accounting (``kv.gets``, ``gfus``,
        # ``probes`` and the simulated index time) is replayed exactly as
        # the flat path records it.
        pyramid_values = None
        pyramid_stats: Dict[str, int] = {}
        if ctx.use_pyramid and inner_count:
            if scored is None or suppressed:  # routed covers block nothing
                cover = pyramid_cover(index, layout_name, region, suppressed)
            if cover is not None:
                from repro import pyramid as pyr
                pstore = pyr.pyramid_store(session, table.name,
                                           index.name, layout_name)
                with tracer.span("dgf.pyramid") as pyr_span:
                    pyramid_values, pyramid_stats = pyr.resolve_cover(
                        pstore, store, policy, cover,
                        pyr.pyramid_fanout(index))
                    pyr_span.add("pyramid.levels", pyramid_stats["levels"])
                    pyr_span.add("pyramid.nodes", pyramid_stats["nodes"])
                    pyr_span.add("pyramid.leaves", pyramid_stats["leaves"])

        header_states: Optional[Dict[str, Any]] = None
        slices: List[SliceLocation] = []
        inner_hits = 0
        if agg_path:
            with tracer.span("dgf.inner_headers") as inner_span:
                if pyramid_values is not None:
                    # Replay the flat path's logical accounting: one get
                    # per inner cell, hit count equal to the present
                    # cells the nodes summarize.  The physical reads
                    # already happened inside the ``dgf.pyramid`` span.
                    session.kvstore.note_cached_gets(inner_count)
                    inner_hits = pyramid_stats["inner_hits"]
                    header_states = self._merge_headers(ctx.agg_keys,
                                                        pyramid_values)
                else:
                    inner_keys = region.inner_keys
                    if suppressed:
                        inner_keys = [
                            key for key, cell in zip(inner_keys,
                                                     region.inner_cells)
                            if cell not in overlay.suppress]
                    inner_values = store.multi_get(inner_keys)
                    inner_hits = len(inner_values)
                    header_states = self._merge_headers(
                        ctx.agg_keys, inner_values.values())
                inner_span.add("gfus", inner_hits)
                inner_span.add("headers_merged", len(header_states))
        # Off the aggregation path every query cell is a boundary cell.
        with tracer.span("dgf.boundary_slices") as boundary_span:
            boundary_values = store.multi_get(
                region.boundary_keys
                + [policy.key_of_cells(cell) for cell in suppressed])
            boundary_hits = len(boundary_values)
            for value in boundary_values.values():
                slices.extend(value.locations)
            boundary_span.add("gfus", boundary_hits)
            boundary_span.add("slices", len(slices))

        with tracer.span("dgf.filter_splits") as split_span:
            splits, total_splits = slices_to_splits(session.fs, read_table,
                                                    slices)
            split_span.add("splits_kept", len(splits))
            split_span.add("splits_total", total_splits)
        # Logical index-access cost: one get per GFU probed by Algorithm 3
        # (present or not).  A deterministic function of the grid search —
        # not a physical-op delta — so the simulated time is identical
        # whether the metadata came from the KV store or the GFU cache,
        # and concurrent queries cannot pollute each other's accounting.
        # The overlay adds its own deterministic probe count (delta cell +
        # base watermark per candidate cell).
        probes = region.num_cells
        input_format = DgfSliceInputFormat(read_table)
        description = (f"dgf({index.name}) "
                       f"mode={'agg-headers' if agg_path else 'slices'} "
                       f"inner={inner_hits} boundary={boundary_hits} "
                       f"splits={len(splits)}/{total_splits}")
        if layout_name is not None:
            description += f" layout={layout_name}"
        delta_cells = delta_rows = 0
        if overlay is not None:
            from repro.delta.overlay import DeltaOverlayInputFormat
            probes += overlay.probes
            input_format = DeltaOverlayInputFormat(input_format, overlay)
            splits = splits + overlay.synthetic_splits()
            delta_cells = overlay.num_cells
            delta_rows = overlay.num_rows
            description += f" delta={overlay.num_cells}"
        kv_logical = KVStats(gets=probes)
        index_time = session.cost_model.kv_seconds(kv_logical)

        mode = "agg-headers" if agg_path else "slices"
        return IndexAccessPlan(
            description=description,
            splits=splits,
            input_format=input_format,
            index_time=index_time,
            header_states=header_states,
            handler=self.handler_name,
            mode=mode,
            inner_gfus=inner_hits,
            boundary_gfus=boundary_hits,
            total_splits=total_splits,
            index_kv_gets=probes,
            delta_cells=delta_cells,
            delta_rows=delta_rows,
            layout=layout_name,
            pyramid_levels=pyramid_stats.get("levels", 0),
            pyramid_nodes=pyramid_stats.get("nodes", 0),
            pyramid_leaves=pyramid_stats.get("leaves", 0))

    # ---------------------------------------------------------------- routing
    def _route_layout(self, session, table: TableInfo, index: IndexInfo,
                      ctx: QueryIndexContext, layouts, intervals,
                      agg_path: bool, binding, primary):
        """Pick the layout this query reads: the cheapest surviving
        member of the replica fleet (HAIL routing).

        Each candidate is costed by running the grid search against its
        own policy/bounds (pure CPU) and feeding the resulting probe and
        boundary-cell counts, scaled by the layout's stored per-GFU
        record/byte statistics, to
        :meth:`~repro.mapreduce.cost.CostModel.layout_route_seconds`.
        Ties break primary-first, then by name — fully deterministic.
        Queries with resident streaming deltas pin to the primary (the
        overlay is built against the primary grid); ``ctx.force_layout``
        overrides the choice for differential harnesses.

        Returns ``(name, store, policy, bounds, read_table, scored)``;
        ``scored`` is the winner's ``(region, cover)``, None if unscored.
        """
        from repro.hdfs.layout import PRIMARY_LAYOUT
        store, policy, bounds = primary
        with session.tracer.span("dgf.route") as span:
            candidates = {PRIMARY_LAYOUT: (store, policy, bounds, table)}
            dead = []
            for name, descriptor in layouts.items():
                if not session.fs.layout_alive(name):
                    dead.append(name)
                    continue
                lstore = session.dgf_store(
                    table.name, fleet.layout_index_name(index.name, name))
                candidates[name] = (
                    lstore, lstore.load_policy(), lstore.load_bounds(),
                    fleet.layout_table_view(table, descriptor))
            span.set("candidates", ",".join(sorted(candidates)))
            if dead:
                span.set("dead", ",".join(sorted(dead)))

            resident = binding is not None and binding.has_resident_cells
            forced = ctx.force_layout
            scored = {}
            if forced is not None:
                if forced not in candidates:
                    raise DGFError(
                        f"cannot force layout {forced!r}: not a live "
                        f"layout of {index.name!r} "
                        f"(live: {sorted(candidates)}, dead: {sorted(dead)})")
                if resident and forced != PRIMARY_LAYOUT:
                    raise DGFError(
                        f"cannot force layout {forced!r}: resident "
                        "streaming deltas pin queries to the primary")
                span.set("forced", forced)
                chosen = forced
            elif resident:
                # The delta overlay merges against the primary grid only.
                span.set("pinned", "delta")
                chosen = PRIMARY_LAYOUT
            else:
                scores = {}
                for name in sorted(candidates):
                    cstore, cpolicy, cbounds, _view = candidates[name]
                    region = search_grid(cpolicy, intervals, cbounds,
                                         force_all_boundary=not agg_path)
                    # A layout with a built pyramid answers its inner
                    # region in O(polylog) probes, so fine grids are
                    # costed honestly (priced even under
                    # ``dgf_pyramid=False``, which only the plan obeys).
                    cover = pyramid_cover(index, name, region)
                    scored[name] = region, cover
                    probes = region.num_cells if cover is None \
                        else region.boundary_count + cover.probes
                    stats = cstore.get_meta(fleet.STATS_META)
                    per_gfu = max(1, stats["gfus"])
                    scan_cells = region.boundary_count
                    scores[name] = session.cost_model.layout_route_seconds(
                        probes,
                        scan_cells * stats["records"] / per_gfu,
                        scan_cells * stats["bytes"] / per_gfu)
                    span.set(f"score.{name}", round(scores[name], 6))
                chosen = min(scores, key=lambda n: (scores[n],
                                                    n != PRIMARY_LAYOUT, n))
            span.set("chosen", chosen)
        cstore, cpolicy, cbounds, view = candidates[chosen]
        return chosen, cstore, cpolicy, cbounds, view, scored.get(chosen)

    # ----------------------------------------------------------------- pieces
    def _aggregation_path_applies(self, ctx: QueryIndexContext, policy,
                                  precomputed: Set[str]) -> bool:
        """Headers may replace inner-region scans only when (a) the query is
        a plain aggregation whose aggregates are all pre-computed (or
        derivable), and (b) the predicate is *exactly* a conjunction of
        ranges over index dimensions — otherwise inner cells could contain
        non-matching rows."""
        if not (ctx.is_plain_aggregation and ctx.use_precompute
                and ctx.agg_keys):
            return False
        if not ctx.ranges.exact:
            return False
        dims = {d.name.lower() for d in policy.dimensions}
        if not set(ctx.ranges.intervals) <= dims:
            return False
        for key in ctx.agg_keys:
            if key in precomputed:
                continue
            avg = _avg_components(key)
            if avg is not None and all(c in precomputed for c in avg):
                continue
            return False
        return True

    def _merge_headers(self, agg_keys: List[str],
                       values) -> Dict[str, Any]:
        """Fold the inner GFUs' header states per requested aggregate."""
        values = list(values)
        merged: Dict[str, Any] = {}
        for key in agg_keys:
            avg = _avg_components(key)
            if avg is None:
                function = merge_function_for(key)
                state = None
                for value in values:
                    part = value.header.get(key)
                    if part is None:
                        continue
                    state = part if state is None \
                        else function.merge(state, part)
                if state is not None:
                    merged[key] = state
            else:
                sum_key, count_key = avg
                total = None
                count = 0
                for value in values:
                    part_sum = value.header.get(sum_key)
                    if part_sum is not None:
                        total = part_sum if total is None \
                            else total + part_sum
                    count += value.header.get(count_key, 0)
                if count:
                    # AvgAgg state is the additive (sum, count) pair.
                    merged[key] = (total if total is not None else 0.0,
                                   count)
        return merged
