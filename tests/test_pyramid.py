"""Unit tests for the hierarchical GFU aggregation pyramid (ISSUE 10).

Covers the pyramid package itself (key codec, level math, greedy cover
geometry, fold determinism), its maintenance hooks (build, incremental
append refresh, delta demotion, compaction repair, fleet layouts, drop),
the planner integration (EXPLAIN line, plan fields, forced-off knob, the
extracted tombstone-demotion helper including the all-demoted edge), the
metadata-cache coherence of pyramid nodes, and the cost-model / what-if
pyramid probe estimates the router and advisor consume.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro import pyramid as pyr
from repro.core.dgf.grid import search_grid
from repro.core.dgf.handler import demote_suppressed_cells
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.errors import IndexError_
from repro.hive.session import HiveSession, QueryOptions
from repro.hiveql.predicates import Interval
from repro.mapreduce.cost import CostModel
from repro.pyramid import (DEFAULT_FANOUT, PyramidNode, PyramidStore,
                           cover_box, decompose_region, fold_children,
                           levels_for_extent, node_key, parse_node_key,
                           pyramid_levels, pyramid_store, rebuild_pyramid,
                           resolve_cover)
from repro.pyramid.build import children_of
from repro.storage.schema import DataType

TABLE = "meterdata"
INDEX = "idx"

DDL = (f"CREATE TABLE {TABLE} (userid bigint, regionid int, ts date, "
       "powerconsumed double)")
INDEX_SQL = (f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
             "IDXPROPERTIES ('userid'='0_2', 'ts'='2012-12-01_1d', "
             "'precompute'='sum(powerconsumed),count(powerconsumed)')")
QUERY = ("SELECT sum(powerconsumed), count(powerconsumed) FROM "
         f"{TABLE} WHERE userid >= 2 AND userid < 60 "
         "AND ts >= '2012-12-02' AND ts < '2012-12-15'")


def rows(users=64, days=16):
    """Dyadic-valued rows (exact binary fractions; folds are bit-stable
    regardless of association)."""
    return [(u, u % 2, f"2012-12-{t + 1:02d}", ((u * 7 + t) % 640) / 64.0)
            for u in range(users) for t in range(days)]


def make_session(load=True, **kw):
    session = HiveSession(**kw)
    session.execute(DDL)
    if load:
        session.load_rows(TABLE, rows())
    session.execute(INDEX_SQL)
    return session


def pyramid_nodes(session):
    """All (node_id, node) pairs in the primary pyramid namespace."""
    store = pyramid_store(session, TABLE, INDEX)
    return dict(store.iter_nodes())


# ---------------------------------------------------------------- geometry
def test_node_key_roundtrip():
    assert node_key(3, (5, -2)) == "3:5_-2"
    assert parse_node_key("3:5_-2") == (3, (5, -2))
    assert parse_node_key(node_key(1, (0,))) == (1, (0,))


def test_levels_for_extent():
    assert levels_for_extent(1, 2) == 1
    assert levels_for_extent(2, 2) == 1
    assert levels_for_extent(3, 2) == 2
    assert levels_for_extent(100, 2) == 7   # 2**7 = 128 >= 100
    assert levels_for_extent(100, 4) == 4   # 4**4 = 256 >= 100


def test_cover_box_aligned_is_one_node():
    # A box exactly spanning one level-2 region collapses to one node.
    nodes, leaves = cover_box((0, 0), (3, 3), frozenset(), 2, 2)
    assert nodes == [(2, (0, 0))]
    assert leaves == []


def test_cover_box_misaligned_mixes_levels():
    nodes, leaves = cover_box((1, 1), (6, 6), frozenset(), 2, 3)
    covered = set(leaves)
    for level, block in nodes:
        size = 2 ** level
        for dx in range(size):
            for dy in range(size):
                covered.add((block[0] * size + dx, block[1] * size + dy))
    assert covered == {(x, y) for x in range(1, 7) for y in range(1, 7)}
    # Strictly better than one probe per cell, and at least one real node.
    assert len(nodes) + len(leaves) < 36
    assert any(level >= 1 for level, _ in nodes)


def test_cover_box_blocked_cells_are_excluded():
    blocked = frozenset({(2, 2)})
    nodes, leaves = cover_box((0, 0), (3, 3), blocked, 2, 2)
    covered = set(leaves)
    for level, block in nodes:
        size = 2 ** level
        for dx in range(size):
            for dy in range(size):
                covered.add((block[0] * size + dx, block[1] * size + dy))
    assert (2, 2) not in covered
    assert covered == {(x, y) for x in range(4) for y in range(4)
                       if (x, y) != (2, 2)}


def visit_every_child_cover(lo, hi, blocked, fanout, levels):
    """Reference cover: visit every child of a partial block, then reject
    the ones outside the box.  ``cover_box`` must emit the same nodes and
    leaves in the same order while descending only into intersecting
    children."""
    nodes, leaves = [], []

    def recurse(level, block):
        size = fanout ** level
        region_lo = tuple(b * size for b in block)
        region_hi = tuple(b * size + size - 1 for b in block)
        if any(rlo > h or rhi < l for rlo, rhi, l, h
               in zip(region_lo, region_hi, lo, hi)):
            return
        if level == 0:
            if block not in blocked:
                leaves.append(block)
            return
        inside = all(l <= rlo and rhi <= h for rlo, rhi, l, h
                     in zip(region_lo, region_hi, lo, hi))
        if inside and not any(
                all(rlo <= b <= rhi for rlo, rhi, b
                    in zip(region_lo, region_hi, cell))
                for cell in blocked):
            nodes.append((level, block))
            return
        for child in children_of(block, fanout):
            recurse(level - 1, child)

    top = fanout ** levels
    for block in product(*[range(l // top, h // top + 1)
                           for l, h in zip(lo, hi)]):
        recurse(levels, tuple(block))
    return nodes, leaves


@st.composite
def cover_cases(draw):
    dims = draw(st.integers(1, 3))
    fanout = draw(st.integers(2, 4))
    levels = draw(st.integers(0, 4))
    lo, hi = [], []
    for _ in range(dims):
        a = draw(st.integers(0, 20))
        lo.append(a)
        hi.append(a + draw(st.integers(-1, 12 if dims < 3 else 5)))
    cells = list(product(*[range(l, h + 1) for l, h in zip(lo, hi)]))
    blocked = draw(st.sets(st.sampled_from(cells), max_size=4)) \
        if cells else set()
    return tuple(lo), tuple(hi), frozenset(blocked), fanout, levels, cells


@settings(max_examples=300, deadline=None)
@given(cover_cases())
def test_cover_box_is_exact_and_matches_reference(case):
    lo, hi, blocked, fanout, levels, cells = case
    nodes, leaves = cover_box(lo, hi, blocked, fanout, levels)
    assert (nodes, leaves) == visit_every_child_cover(lo, hi, blocked,
                                                      fanout, levels)
    covered = list(leaves)
    for level, block in nodes:
        assert 1 <= level <= levels
        size = fanout ** level
        covered.extend(product(*[range(b * size, b * size + size)
                                 for b in block]))
    # Disjoint, inside the box, free of blocked cells, and together the
    # box minus the blocked cells.
    assert len(covered) == len(set(covered))
    assert set(covered) == set(cells) - blocked


def test_fold_children_merges_headers_and_counts():
    a = PyramidNode(header={"sum(x)": 1.5, "count(x)": 2}, cells=3,
                    records=10)
    b = PyramidNode(header={"sum(x)": 2.25}, cells=1, records=4)
    folded = fold_children([a, b])
    assert folded.header["sum(x)"] == 3.75
    assert folded.header["count(x)"] == 2   # missing key: carried through
    assert folded.cells == 4
    assert folded.records == 14


# ------------------------------------------------------------------- build
def test_build_pyramid_records_state_and_nodes():
    session = make_session()
    summary = session.build_pyramid(TABLE, INDEX)
    index = session.metastore.get_index(TABLE, INDEX)
    state = index.state[pyr.PYRAMID_STATE_KEY]
    assert state["fanout"] == DEFAULT_FANOUT
    assert summary["primary"]["levels"] == state["layouts"]["primary"]
    assert pyramid_levels(index, None) == summary["primary"]["levels"]
    nodes = pyramid_nodes(session)
    assert len(nodes) == summary["primary"]["nodes"]
    # Level-1 nodes summarize exactly the base GFU population.
    store = session.dgf_store(TABLE, INDEX)
    base = dict(store.iter_entries())
    total = sum(node.cells for (level, _b), node in nodes.items()
                if level == 1)
    assert total == len(base)
    top = [n for (level, _b), n in nodes.items()
           if level == summary["primary"]["levels"]]
    assert sum(n.records for n in top) == sum(v.records
                                              for v in base.values())


def test_build_pyramid_validates():
    session = make_session(load=False)
    with pytest.raises(IndexError_):
        session.build_pyramid(TABLE, INDEX, fanout=1)
    other = HiveSession()
    other.execute(DDL)
    other.execute(f"CREATE INDEX cidx ON TABLE {TABLE}(userid) "
                  "AS 'compact'")
    with pytest.raises(IndexError_):
        other.build_pyramid(TABLE, "cidx")


def test_append_refreshes_incrementally():
    incremental = make_session()
    incremental.build_pyramid(TABLE, INDEX)
    from repro.core.dgf.builder import append_with_dgf
    extra = [(200, 0, "2012-12-07", 1.25), (7, 1, "2012-12-03", 0.5)]
    append_with_dgf(incremental, TABLE, INDEX, extra)

    rebuilt = make_session()
    append_with_dgf(rebuilt, TABLE, INDEX, extra)
    rebuilt.build_pyramid(TABLE, INDEX)

    assert pyramid_nodes(incremental) == pyramid_nodes(rebuilt)


def test_index_rebuild_regenerates_pyramid():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    before = pyramid_nodes(session)
    session.rebuild_index(TABLE, INDEX)
    assert pyramid_nodes(session) == before


def test_drop_pyramid_clears_namespace_and_path():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    assert pyramid_nodes(session)
    session.drop_pyramid(TABLE, INDEX)
    assert not pyramid_nodes(session)
    index = session.metastore.get_index(TABLE, INDEX)
    assert pyr.PYRAMID_STATE_KEY not in index.state
    result = session.execute(QUERY)
    assert "pyramid:" not in result.description


def test_drop_index_clears_pyramid_keys():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    session.execute(f"DROP INDEX {INDEX} ON {TABLE}")
    remaining = list(session.kvstore.scan("dgfpyr:",
                                          "dgfpyr:\U0010ffff"))
    assert remaining == []


# ------------------------------------------------------------ query path
def test_query_uses_pyramid_and_matches_flat():
    flat_session = make_session()
    flat = flat_session.execute(QUERY)
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    result = session.execute(QUERY)
    assert result.rows == flat.rows
    access = result.plan.access
    assert access.pyramid_nodes > 0
    assert access.pyramid_levels >= 1
    # Logical accounting replays the flat path exactly.
    assert result.stats.index_kv_gets == flat.stats.index_kv_gets
    assert f"pyramid: levels={access.pyramid_levels}" in result.description
    off = session.execute(QUERY, QueryOptions(dgf_pyramid=False))
    assert off.rows == flat.rows
    assert off.plan.access.pyramid_nodes == 0
    assert "pyramid:" not in off.description


def test_pyramid_reduces_physical_gets():
    session = make_session(cache=False)
    session.build_pyramid(TABLE, INDEX)
    before = session.kvstore.snapshot_stats()
    on = session.execute(QUERY)
    with_pyramid = session.kvstore.stats_delta(before).gets
    before = session.kvstore.snapshot_stats()
    off = session.execute(QUERY, QueryOptions(dgf_pyramid=False))
    without = session.kvstore.stats_delta(before).gets
    assert on.rows == off.rows
    assert with_pyramid < without


def test_explain_shows_pyramid_line():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    plan_text = session.execute(f"EXPLAIN {QUERY}").description
    assert "  pyramid: levels=" in plan_text
    assert "nodes=" in plan_text and "leaves=" in plan_text


def test_trace_has_pyramid_span_and_counters():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    result = session.execute(QUERY)
    root = result.trace.normalized()["root"]

    def find(node, name):
        if node["name"] == name:
            return node
        for child in node.get("children", []):
            hit = find(child, name)
            if hit is not None:
                return hit
        return None

    span = find(root, "dgf.pyramid")
    assert span is not None
    counters = span["counters"]
    assert counters["pyramid.nodes"] == result.plan.access.pyramid_nodes
    assert counters["pyramid.leaves"] == result.plan.access.pyramid_leaves


# --------------------------------------------------- demotion and deltas
def test_delta_ingest_demotes_and_resolve_recurses():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    flat = session.execute(QUERY, QueryOptions(dgf_pyramid=False))
    binding = session.attach_delta(TABLE, INDEX,
                                   key_columns=["userid", "ts"])
    binding.ingest([("delete", (10, "2012-12-05"))])
    store = pyramid_store(session, TABLE, INDEX)
    demoted = [nid for nid, node in store.iter_nodes() if node.demoted]
    assert demoted, "ingest must demote ancestor chains"
    mid = session.execute(QUERY)
    mid_off = session.execute(QUERY, QueryOptions(dgf_pyramid=False))
    assert mid.rows == mid_off.rows
    assert mid.rows != flat.rows  # the tombstone is visible

    from repro.delta.compact import Compactor
    Compactor(binding).run()
    repaired = pyramid_store(session, TABLE, INDEX)
    assert not [nid for nid, node in repaired.iter_nodes()
                if node.demoted], "compaction must repair demotions"
    post = session.execute(QUERY)
    assert post.rows == mid.rows


def test_partial_compaction_keeps_resident_demoted():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    binding = session.attach_delta(TABLE, INDEX,
                                   key_columns=["userid", "ts"])
    binding.ingest([("delete", (10, "2012-12-05")),
                    ("insert", (300, 0, "2012-12-30", 2.0))])
    from repro.delta.compact import Compactor
    partial = list(binding.resident_cells)[:1]
    Compactor(binding).run(partial)
    assert binding.resident_cells  # something is still unfolded
    store = pyramid_store(session, TABLE, INDEX)
    still = [nid for nid, node in store.iter_nodes() if node.demoted]
    assert still, "cells still resident must stay demoted"
    on = session.execute(QUERY)
    off = session.execute(QUERY, QueryOptions(dgf_pyramid=False))
    assert on.rows == off.rows


def test_demote_suppressed_cells_helper():
    class FakeOverlay:
        def __init__(self, suppress):
            self.suppress = suppress

        @property
        def has_suppression(self):
            return bool(self.suppress)

    policy = SplittingPolicy([
        DimensionPolicy(name="a", dtype=DataType.BIGINT, origin=0,
                        interval=10),
        DimensionPolicy(name="b", dtype=DataType.BIGINT, origin=0,
                        interval=1)])
    intervals = {"a": Interval(low=5, high=40), "b": Interval.point(3)}
    bounds = {"a": (0, 9), "b": (0, 9)}
    region = search_grid(policy, intervals, bounds)
    assert region.inner_keys == ["10_3", "20_3", "30_3"]
    assert region.boundary_keys == ["0_3"]
    # No overlay / nothing suppressed: nothing demoted.
    assert demote_suppressed_cells(region, None) == []
    assert demote_suppressed_cells(region, FakeOverlay({})) == []
    # Only *inner* cells demote: a tombstoned boundary or unrelated
    # cell is scanned (or skipped) anyway.
    overlay = FakeOverlay({(2, 3): frozenset({(1,)}), (0, 3): frozenset(),
                           (2, 4): frozenset()})
    assert demote_suppressed_cells(region, overlay) == [(2, 3)]
    # Off the aggregation path no cell is inner.
    scan = search_grid(policy, intervals, bounds, force_all_boundary=True)
    assert demote_suppressed_cells(scan, overlay) == []
    # All-demoted edge: every inner cell suppressed -> pure slice path,
    # demoted in cell order whatever order the overlay lists them in.
    overlay = FakeOverlay({(3, 3): frozenset(), (1, 3): frozenset(),
                           (2, 3): frozenset()})
    demoted = demote_suppressed_cells(region, overlay)
    assert [policy.key_of_cells(cell) for cell in demoted] \
        == region.inner_keys
    assert region.inner_count - len(demoted) == 0


def test_all_demoted_query_has_zero_inner_gfus():
    """Every inner cell tombstoned: the plan degrades to the pure slice
    path (inner_gfus == 0) and still answers correctly, pyramid on/off."""
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    binding = session.attach_delta(TABLE, INDEX,
                                   key_columns=["userid", "ts"])
    # A 1-cell inner region: userid in [2,4) x ts in [2012-12-03..05)
    # has exactly one fully-covered cell; tombstone a row inside it.
    small = ("SELECT sum(powerconsumed), count(powerconsumed) FROM "
             f"{TABLE} WHERE userid >= 0 AND userid < 6 "
             "AND ts >= '2012-12-02' AND ts < '2012-12-06'")
    baseline = session.execute(small)
    assert baseline.plan.access.inner_gfus >= 1
    doomed = [(u, f"2012-12-{t:02d}")
              for u in range(0, 6) for t in range(2, 6)]
    binding.ingest([("delete", key) for key in doomed])
    result = session.execute(small)
    assert result.plan.access.inner_gfus == 0
    assert result.plan.access.pyramid_nodes == 0
    off = session.execute(small, QueryOptions(dgf_pyramid=False))
    assert result.rows == off.rows
    assert result.rows[0][1] == baseline.rows[0][1] - len(doomed)


# ----------------------------------------------------------------- fleet
def test_fleet_layout_gets_its_own_pyramid():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    session.add_layout(TABLE, INDEX, "fine", grid={"userid": "0_1"})
    index = session.metastore.get_index(TABLE, INDEX)
    state = index.state[pyr.PYRAMID_STATE_KEY]
    assert "fine" in state["layouts"]
    fine = pyramid_store(session, TABLE, INDEX, layout_name="fine")
    assert fine.count_nodes() > 0
    # Pinning the router to the layout answers through its pyramid.
    routed = session.execute(QUERY, QueryOptions(dgf_layout="fine"))
    flat = make_session().execute(QUERY)
    assert routed.rows == flat.rows
    assert routed.plan.access.layout == "fine"
    assert routed.plan.access.pyramid_nodes > 0
    session.drop_layout(TABLE, INDEX, "fine")
    assert "fine" not in index.state[pyr.PYRAMID_STATE_KEY]["layouts"]
    assert fine.count_nodes() == 0


# ----------------------------------------------------------------- cache
def test_cache_serves_and_invalidates_pyramid_nodes():
    session = make_session(cache=True)
    session.build_pyramid(TABLE, INDEX)
    cache = session.metadata_cache
    session.execute(QUERY)
    assert any(k.startswith("dgfpyr:") for k in cache_keys(session
                                                           .metadata_cache))
    first_hits = cache.stats.hits
    session.execute(QUERY)
    assert cache.stats.hits > first_hits
    from repro.service.cache import _kind_of
    assert _kind_of("dgfpyr:meterdata:idx:2:0_1") == "pyramid"
    # Writing one node evicts exactly that entry (write listener).
    store = PyramidStore(session.kvstore, TABLE, INDEX)
    nid, node = next(iter(store.iter_nodes()))
    resident = len(cache)
    store.put_node(nid[0], nid[1], node)
    assert len(cache) <= resident
    hits, missing = cache.lookup([store.full_key(nid[0], nid[1])])
    assert missing == [store.full_key(nid[0], nid[1])]


def test_invalidate_index_covers_pyramid_prefix():
    session = make_session(cache=True)
    session.build_pyramid(TABLE, INDEX)
    session.execute(QUERY)
    assert any(k.startswith("dgfpyr:")
               for k in cache_keys(session.metadata_cache))
    session._invalidate_index_cache(TABLE, INDEX)
    assert not any(k.startswith("dgfpyr:")
                   for k in cache_keys(session.metadata_cache))


def cache_keys(cache):
    with cache._lock:
        return list(cache._entries)


# ------------------------------------------------------- cost and what-if
def test_pyramid_probe_count_beats_flat():
    # The what-if evaluator's worst case: a box misaligned by one cell.
    for extent in (10, 50, 100, 200):
        flat = extent * extent
        levels = levels_for_extent(extent, 2)
        probes = decompose_region((1, 1), (extent, extent), (), 2,
                                  levels).probes
        assert probes < flat
        if extent >= 100:
            assert flat / probes >= 10


def test_whatif_prices_fine_grids_cheaper_with_pyramid():
    from repro.core.dgf.advisor import DimensionStats, QueryProfile
    from repro.core.dgf.whatif import WhatIfEvaluator
    model = CostModel()
    stats = {"a": DimensionStats(name="a", dtype=None, low=0.0,
                                 high=1000.0),
             "b": DimensionStats(name="b", dtype=None, low=0.0,
                                 high=1000.0)}
    profile = QueryProfile(widths={"a": 800.0, "b": 800.0}, weight=1.0,
                           agg_path=True)
    fine = {"a": 500, "b": 500}
    flat_cost = WhatIfEvaluator(model, stats, 1e6, 1e8).query_seconds(
        profile, fine)
    pyr_cost = WhatIfEvaluator(model, stats, 1e6, 1e8,
                               pyramid_fanout=2).query_seconds(
        profile, fine)
    assert pyr_cost < flat_cost
    # Without an inner region (non-agg), the pyramid changes nothing.
    scan = QueryProfile(widths={"a": 800.0, "b": 800.0}, weight=1.0,
                        agg_path=False)
    assert WhatIfEvaluator(model, stats, 1e6, 1e8,
                           pyramid_fanout=2).query_seconds(scan, fine) \
        == WhatIfEvaluator(model, stats, 1e6, 1e8).query_seconds(scan,
                                                                 fine)


def test_decompose_region_degenerate_inputs():
    """An empty box covers with nothing; a depth-0 "pyramid" has only
    leaves, so the cover is the box's cells (the flat path)."""
    empty = decompose_region((3, 5), (7, 4), (), 2, 5)
    assert empty.probes == 0
    flat = decompose_region((3, 5), (4, 6), (), 2, 0)
    assert flat.nodes == []
    assert flat.leaves == [(3, 5), (3, 6), (4, 5), (4, 6)]
    blocked = decompose_region((0, 0), (3, 3), [(1, 1)], 2, 2)
    assert (1, 1) not in blocked.leaves
    assert sorted(blocked.nodes) == [(1, (0, 1)), (1, (1, 0)), (1, (1, 1))]


def test_resolve_cover_matches_flat_fold():
    session = make_session()
    session.build_pyramid(TABLE, INDEX)
    store = session.dgf_store(TABLE, INDEX)
    policy = store.load_policy()
    keys = sorted(key for key, _v in store.iter_entries())
    inner = [k for k in keys
             if 1 <= policy.cells_of_key(k)[0] <= 20
             and 2 <= policy.cells_of_key(k)[1] <= 11]
    index = session.metastore.get_index(TABLE, INDEX)
    cover = decompose_region((1, 2), (20, 11), (), 2,
                             pyramid_levels(index, None))
    pstore = pyramid_store(session, TABLE, INDEX)
    values, stats = resolve_cover(pstore, store, policy, cover, 2)
    flat = store.multi_get(inner)
    merged = sum(v.header["sum(powerconsumed)"] for v in flat.values())
    pyramid_sum = sum(v.header["sum(powerconsumed)"] for v in values)
    assert pyramid_sum == merged
    assert stats["inner_hits"] == len(flat)
    assert stats["nodes"] + stats["leaves"] < len(inner)
