"""Complexity contracts: deterministic call counts the planner must keep.

Wall-clock time cannot gate CI, but how often a query runs an expensive
planner step is deterministic, so it can be a contract.

Route once: Algorithm 3 decomposes a query region once.  With a replica
fleet and an aggregation pyramid, the router grid-searches and covers
each live layout to score it, and the winner's region and cover *are*
the plan — ``plan_access`` runs no second search and no second cover.
Unscored paths (no fleet, a forced layout, a delta-pinned query) search
exactly once and cover at most once.

Cell-native deltas: inside the process a grid cell is its coordinate
tuple, and a GFU key is formatted only where a KV key is read or
written.  So merge-on-read formats no key per scanned row — ``label()``
calls per query do not grow with the rows scanned — and planning parses
no resident key, however many cells are resident.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.core.dgf import grid
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.delta import StreamingWriter
from repro.hive.session import HiveSession, QueryOptions
from repro.mapreduce.cluster import ExecutionConfig
from repro.pyramid import decompose
from tests.harness import streaming

TABLE = "meter"
INDEX = "idx"
DDL = (f"CREATE TABLE {TABLE} (userid bigint, regionid int, ts bigint, "
       "powerconsumed double)")
INDEX_SQL = (f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
             "IDXPROPERTIES ('userid'='0_2', 'ts'='0_1', "
             "'precompute'='sum(powerconsumed),count(*)')")
#: two replicas: finer and coarser than the primary.
LAYOUTS = {"fine": {"userid": "0_1"}, "coarse": {"userid": "0_8", "ts": "0_4"}}
AGG = (f"SELECT sum(powerconsumed), count(*) FROM {TABLE} "
       "WHERE userid >= 3 AND userid < 60 AND ts >= 1 AND ts < 15")
GROUPBY = (f"SELECT regionid, sum(powerconsumed) FROM {TABLE} "
           "WHERE userid >= 3 AND userid < 60 GROUP BY regionid")


def make_session(layouts=LAYOUTS) -> HiveSession:
    session = HiveSession()
    session.execute(DDL)
    session.load_rows(TABLE, [(u, u % 2, t, ((u * 7 + t) % 640) / 64.0)
                              for u in range(64) for t in range(16)])
    session.execute(INDEX_SQL)
    for name, layout_grid in layouts.items():
        session.add_layout(TABLE, INDEX, name, grid=layout_grid)
    session.build_pyramid(TABLE, INDEX)
    return session


@contextmanager
def counting(*functions):
    """Count calls to each function through every ``repro`` module that
    holds it (``from x import f`` copies it into the importer)."""
    counts = {fn.__name__: 0 for fn in functions}
    patched = []
    for fn in functions:
        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attribute, wrapper)
                    patched.append((module, attribute, fn))
    try:
        yield counts
    finally:
        for module, attribute, fn in patched:
            setattr(module, attribute, fn)


def planner_calls(session, sql, options=None):
    """``(search_grid calls, decompose_region calls)`` for one query."""
    with counting(grid.search_grid, decompose.decompose_region) as counts:
        session.execute(sql, options)
    return counts["search_grid"], counts["decompose_region"]


@pytest.fixture(scope="module")
def fleet():
    return make_session()


def test_routed_aggregation_searches_and_covers_each_candidate_once(fleet):
    result = fleet.execute(AGG)
    route = result.trace.root.find("dgf.route")
    assert route.attrs["candidates"] == "coarse,fine,primary"
    access = result.plan.access
    assert access.pyramid_nodes + access.pyramid_leaves > 0  # cover used
    # Three live candidates, each with a pyramid and a non-empty inner
    # box: one search and one cover apiece, none repeated for the winner.
    assert planner_calls(fleet, AGG) == (3, 3)


def test_routed_aggregation_skips_dead_candidates():
    session = make_session()
    session.add_layout(TABLE, INDEX, "pinned", grid={"userid": "0_4"},
                       datanodes=[3])
    session.fs.kill_datanode(3)
    assert planner_calls(session, AGG) == (3, 3)


@pytest.mark.parametrize("choice", ["primary", "fine", "coarse"])
def test_forced_layout_searches_and_covers_once(fleet, choice):
    assert planner_calls(fleet, AGG, QueryOptions(dgf_layout=choice)) \
        == (1, 1)


def test_fleetless_index_searches_and_covers_once():
    assert planner_calls(make_session(layouts={}), AGG) == (1, 1)


def test_delta_pinned_query_searches_and_covers_once():
    session = make_session()
    binding = session.attach_delta(TABLE, INDEX,
                                   key_columns=["userid", "ts"])
    writer = StreamingWriter(binding)
    writer.insert([(70, 0, 3, 0.5)])
    writer.delete([(10, 5)])  # a tombstone inside the inner box
    writer.flush()
    result = session.execute(AGG)
    assert result.trace.root.find("dgf.route").attrs["pinned"] == "delta"
    assert result.plan.access.delta_cells > 0
    assert planner_calls(session, AGG) == (1, 1)


def test_dgf_pyramid_off_still_routes_once(fleet):
    # The router prices pyramids regardless; the plan ignores the cover.
    assert planner_calls(fleet, AGG, QueryOptions(dgf_pyramid=False)) \
        == (3, 3)


def test_groupby_slice_path_never_covers(fleet):
    assert planner_calls(fleet, GROUPBY) == (3, 0)
    assert planner_calls(fleet, GROUPBY,
                         QueryOptions(dgf_layout="fine")) == (1, 0)


# ------------------------------------------------------- cell-native deltas
def streamed_session(vectorized, row_copies=1, extra_cells=0):
    """The streaming harness's table after its op script, with each base
    row loaded ``row_copies`` times (same cells, more rows to scan) and
    ``extra_cells`` more resident cells from inserts past the grid."""
    session = HiveSession(execution=ExecutionConfig(vectorized=vectorized))
    session.execute(streaming.DDL.format(fmt="TEXTFILE"))
    session.load_rows(streaming.TABLE, [
        (u, (r + copy) % 4, t, v) for u, r, t, v in streaming.base_rows()
        for copy in range(row_copies)])
    session.execute(streaming.INDEX_SQL)
    writer = streaming.apply_stream(session)
    writer.insert([(100 + 10 * i, 0, 100, 1.0) for i in range(extra_cells)])
    writer.flush()
    return session


def battery_calls(monkeypatch, session):
    """Per query of the streaming battery: ``(label calls, cells_of_key
    calls)``."""
    counts = {"label": 0, "cells_of_key": 0}
    for cls, name in ((DimensionPolicy, "label"),
                      (SplittingPolicy, "cells_of_key")):
        def wrapper(*args, _fn=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cls, name, wrapper)
    calls = []
    for sql in streaming.QUERIES:
        before = dict(counts)
        session.execute(sql.format(t=streaming.TABLE))
        calls.append((counts["label"] - before["label"],
                      counts["cells_of_key"] - before["cells_of_key"]))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("vectorized", [False, True])
def test_merge_on_read_formats_no_key_per_row(monkeypatch, vectorized):
    session = streamed_session(vectorized)
    resident = len(session.delta_binding(streaming.TABLE).resident_cells)
    base = battery_calls(monkeypatch, session)
    more_rows = battery_calls(monkeypatch,
                              streamed_session(vectorized, row_copies=4))
    more_cells = battery_calls(monkeypatch, streamed_session(
        vectorized, extra_cells=3 * resident))
    # Labels come from the keys of fetched cells only: the same region
    # formats the same labels at 4x the rows and at 4x resident cells.
    assert more_rows == base
    assert more_cells == base
    # Planning parses no resident key: the registry holds coordinates.
    assert [parsed for _labels, parsed in base] == [0] * len(base)
