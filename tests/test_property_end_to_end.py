"""End-to-end property tests: every indexed plan must return exactly the
full-scan answer, for arbitrary generated data and arbitrary range
predicates.  This is the reproduction's master invariant — the paper's
performance claims are only meaningful because the index is exact.
"""

import datetime
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dgf.builder import append_with_dgf
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.errors import DGFError
from repro.hive.session import HiveSession, QueryOptions
from repro.hiveql.predicates import Interval
from repro.storage.schema import DataType
from tests.conftest import SCAN, make_session

DAYS = [(datetime.date(2012, 12, 1)
         + datetime.timedelta(days=d)).isoformat() for d in range(8)]

row_strategy = st.tuples(
    st.integers(min_value=0, max_value=60),            # userid
    st.integers(min_value=0, max_value=4),             # regionid
    st.sampled_from(DAYS),                             # ts
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, width=32).map(lambda f: round(f, 2)),
)

dataset_strategy = st.lists(row_strategy, min_size=1, max_size=120)

predicate_strategy = st.fixed_dictionaries({
    "u_lo": st.integers(-5, 60),
    "u_width": st.integers(0, 40),
    "r_lo": st.integers(0, 4),
    "r_width": st.integers(0, 4),
    "d_lo": st.integers(0, 7),
    "d_width": st.integers(0, 7),
})


def build_sql(agg, predicate):
    day_lo = DAYS[predicate["d_lo"]]
    day_hi_index = min(predicate["d_lo"] + predicate["d_width"], 7)
    day_hi = DAYS[day_hi_index]
    return (
        f"SELECT {agg} FROM meterdata "
        f"WHERE userid >= {predicate['u_lo']} "
        f"AND userid < {predicate['u_lo'] + predicate['u_width']} "
        f"AND regionid >= {predicate['r_lo']} "
        f"AND regionid <= {predicate['r_lo'] + predicate['r_width']} "
        f"AND ts >= '{day_lo}' AND ts <= '{day_hi}'")


def load_session(rows, stored_as="TEXTFILE"):
    session = make_session(block_size=2048)
    session.execute(
        "CREATE TABLE meterdata (userid bigint, regionid int, ts date, "
        f"powerconsumed double) STORED AS {stored_as}")
    # rows arrive time-sorted, like real meter data
    session.load_rows("meterdata", sorted(rows, key=lambda r: r[2]))
    return session


def assert_rows_match(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(sorted(expected), sorted(actual)):
        assert left == pytest.approx(right)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=dataset_strategy, predicate=predicate_strategy,
       interval=st.sampled_from([3, 10, 25]))
def test_dgf_equals_scan(rows, predicate, interval):
    """DGF header path, slice path and no-precompute path all equal the
    full scan, on arbitrary data and predicates."""
    session = load_session(rows)
    session.execute(
        "CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ('userid'='0_{interval}', "
        "'regionid'='0_1', 'ts'='2012-12-01_2d', "
        "'precompute'='sum(powerconsumed),count(*)')")

    agg_sql = build_sql("sum(powerconsumed), count(*)", predicate)
    scan = session.execute(agg_sql, SCAN)
    headers = session.execute(agg_sql)
    noprecompute = session.execute(
        agg_sql, QueryOptions(dgf_use_precompute=False))
    assert headers.rows[0][1] == scan.rows[0][1]
    assert noprecompute.rows[0][1] == scan.rows[0][1]
    if scan.rows[0][0] is None:
        assert headers.rows[0][0] is None
        assert noprecompute.rows[0][0] is None
    else:
        assert headers.rows[0][0] == pytest.approx(scan.rows[0][0])
        assert noprecompute.rows[0][0] == pytest.approx(scan.rows[0][0])

    group_sql = build_sql("ts, sum(powerconsumed)", predicate) \
        + " GROUP BY ts"
    scan_group = session.execute(group_sql, SCAN)
    indexed_group = session.execute(group_sql)
    assert [k for k, _ in scan_group.rows] \
        == [k for k, _ in indexed_group.rows]
    for (_, left), (_, right) in zip(scan_group.rows, indexed_group.rows):
        assert left == pytest.approx(right)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=dataset_strategy, predicate=predicate_strategy)
def test_compact_and_bitmap_equal_scan(rows, predicate):
    session = load_session(rows, stored_as="RCFILE")
    session.execute("CREATE INDEX c ON TABLE meterdata"
                    "(regionid, ts) AS 'compact'")
    sql = build_sql("sum(powerconsumed), count(*)", predicate)
    scan = session.execute(sql, SCAN)
    compact = session.execute(sql, QueryOptions(index_name="c"))
    assert_rows_match(scan.rows, compact.rows)

    session.execute("DROP INDEX c ON meterdata")
    session.execute("CREATE INDEX b ON TABLE meterdata"
                    "(regionid, ts) AS 'bitmap'")
    bitmap = session.execute(sql, QueryOptions(index_name="b"))
    assert_rows_match(scan.rows, bitmap.rows)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=dataset_strategy, predicate=predicate_strategy)
def test_hadoopdb_equals_scan(rows, predicate):
    from repro.hadoopdb.engine import HadoopDB, HadoopDBConfig
    from repro.hiveql.parser import parse_expression
    from repro.hiveql.predicates import extract_ranges
    from repro.storage.schema import DataType, Schema

    schema = Schema.of(("userid", DataType.BIGINT),
                       ("regionid", DataType.INT),
                       ("ts", DataType.DATE),
                       ("powerconsumed", DataType.DOUBLE))
    db = HadoopDB(schema, ["userid", "regionid", "ts"],
                  partition_column="userid",
                  config=HadoopDBConfig(num_nodes=3, chunks_per_node=2))
    db.load(sorted(rows, key=lambda r: r[2]))

    sql = build_sql("sum(powerconsumed)", predicate)
    where = sql.split("WHERE", 1)[1]
    intervals = extract_ranges(parse_expression(where)).intervals
    result = db.aggregate(intervals, value_position=3)

    session = load_session(rows)
    scan = session.execute(sql, SCAN)
    if scan.rows[0][0] is None:
        assert result.rows[0][0] is None
    else:
        assert result.rows[0][0] == pytest.approx(scan.rows[0][0])


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=dataset_strategy,
       append_rows=st.lists(row_strategy, min_size=1, max_size=30),
       predicate=predicate_strategy)
def test_dgf_append_preserves_equivalence(rows, append_rows, predicate):
    """After appends through the no-rebuild path, indexed answers still
    equal a scan over the combined data."""
    session = load_session(rows)
    session.execute(
        "CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
        "AS 'dgf' IDXPROPERTIES ('userid'='0_10', 'regionid'='0_1', "
        "'ts'='2012-12-01_2d', 'precompute'='sum(powerconsumed)')")
    append_with_dgf(session, "meterdata", "d",
                    sorted(append_rows, key=lambda r: r[2]))
    sql = build_sql("sum(powerconsumed)", predicate)
    scan = session.execute(sql, SCAN)
    indexed = session.execute(sql)
    if scan.rows[0][0] is None:
        assert indexed.rows[0][0] is None
    else:
        assert indexed.rows[0][0] == pytest.approx(scan.rows[0][0])


# ------------------------------------------- master invariant, policy space
EPOCH = datetime.date(2012, 12, 1).toordinal()


def _iso(ordinal):
    return datetime.date.fromordinal(ordinal).isoformat()


@st.composite
def policy_dimension(draw):
    """``(sql_type, origin, interval, values)``: one dimension with a
    negative or (on DOUBLE, and sometimes refused on INT/BIGINT)
    fractional origin, and a pool of values on, beside and one float
    step from its cell boundaries."""
    sql_type = draw(st.sampled_from(["int", "bigint", "date", "double"]))
    base = draw(st.integers(-40, 40))
    if sql_type == "double":
        origin = draw(st.floats(-1e3, 1e3))
        interval = draw(st.floats(1e-3, 1e3))
        values = []
        for k in range(base - 2, base + 3):
            edge = origin + k * interval
            values += [edge, math.nextafter(edge, -math.inf),
                       math.nextafter(edge, math.inf),
                       edge + interval * draw(st.floats(0, 1))]
        return sql_type, origin, interval, values
    interval = draw(st.integers(1, 1000 if sql_type != "date" else 400))
    origin = draw(st.integers(-1000, 1000))
    edges = [origin + k * interval for k in range(base - 2, base + 3)]
    values = sorted({e + d for e in edges for d in (-1, 0, 1)}
                    | {e + draw(st.integers(0, interval - 1))
                       for e in edges})
    if sql_type == "date":
        return (sql_type, _iso(EPOCH + origin), interval,
                [_iso(EPOCH + v) for v in values])
    if draw(st.integers(0, 9)) == 0:
        origin += 0.5  # labels would collide: CREATE INDEX refuses it
    return sql_type, origin, interval, values


@st.composite
def endpoint_predicate(draw, values):
    """``(low, low_inclusive, high, high_inclusive)`` over the pool:
    closed, open, half-open, one-sided, point or empty; None = no
    constraint on the dimension."""
    shape = draw(st.sampled_from(["none", "range", "range", "point",
                                  "low", "high", "empty"]))
    if shape == "none":
        return None
    low, high = sorted(draw(st.sampled_from(values)) for _ in range(2))
    if shape == "point":
        return low, True, low, True
    if shape == "empty":
        return high, True, low, low == high and draw(st.booleans())
    return (low if shape != "high" else None, draw(st.booleans()),
            high if shape != "low" else None, draw(st.booleans()))


@st.composite
def policy_case(draw):
    dims = draw(st.lists(policy_dimension(), min_size=1, max_size=3))

    def rows(count, first_id):
        return [(first_id + i,)
                + tuple(draw(st.sampled_from(v)) for *_d, v in dims)
                + (float(draw(st.integers(1, 9))),)
                for i in range(count)]
    base = rows(draw(st.integers(1, 30)), 0)
    return {"dims": [d[:3] for d in dims],
            "rows": base,
            "append": rows(draw(st.integers(0, 8)), 1000),
            "stream": {"upsert": draw(st.lists(st.sampled_from(base),
                                               max_size=4)),
                       "delete": draw(st.lists(st.sampled_from(base),
                                               max_size=4)),
                       "insert": rows(draw(st.integers(0, 4)), 2000)},
            "predicates": [[draw(endpoint_predicate(v)) for *_d, v in dims]
                           for _ in range(3)]}


def _literal(value):
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _where(predicate):
    terms = []
    for i, bounds in enumerate(predicate):
        if bounds is None:
            continue
        low, low_inc, high, high_inc = bounds
        if low is not None:
            terms.append(f"d{i} {'>=' if low_inc else '>'} {_literal(low)}")
        if high is not None:
            terms.append(f"d{i} {'<=' if high_inc else '<'} "
                         f"{_literal(high)}")
    return " AND ".join(terms) or "id >= 0"


def _assert_aligned_ends_inner(dims, predicate):
    """A DOUBLE range ``[start(a), start(b))`` that sits on the grid
    covers cells ``a .. b-1``: its end cells are inner, answered from
    headers, and nothing past them is read."""
    for (sql_type, origin, interval), bounds in zip(dims, predicate):
        if sql_type != "double" or bounds is None:
            continue
        low, low_inclusive, high, high_inclusive = bounds
        if low is None or high is None or not low_inclusive \
                or high_inclusive:
            continue
        dim = DimensionPolicy("x", DataType.DOUBLE, origin, interval)
        a, b = dim.cell_of(low), dim.cell_of(high)
        if a < b and dim.cell_start(a) == low and dim.cell_start(b) == high:
            assert dim.cell_ranges(Interval(low=low, high=high),
                                   a - 2, b + 2) == ((a, b - 1), (a, b - 1))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@example(case={"dims": [("double", -1.5, 0.25)],
               "rows": [(0, -1.0, 1.0), (1, -0.25, 2.0), (2, 0.25, 4.0),
                        (3, 0.5, 8.0), (4, math.nextafter(-1.0, -2), 16.0)],
               "append": [], "stream": {"upsert": [], "delete": [],
                                        "insert": []},
               "predicates": [[(-1.0, True, 0.5, False)]]})
@example(case={"dims": [("int", -0.5, 1)],
               "rows": [(i, x, 1.0) for i, x in enumerate(range(-3, 6))],
               "append": [], "stream": {"upsert": [], "delete": [],
                                        "insert": []},
               "predicates": [[(-2, True, 4, True)]]})
@example(case={"dims": [("double", 0.025, 0.003)],
               "rows": [(0, 0.001, 3.0), (1, 0.004, 1.0)],
               "append": [(1000, 0.001, 2.0)],
               "stream": {"upsert": [(0, 0.001, 5.0)], "delete": [],
                          "insert": []},
               "predicates": [[(0.001, True, 0.001, True)]]})
@given(case=policy_case())
def test_dgf_equals_scan_over_policy_space(case):
    """The master invariant over splitting policies: INT/BIGINT/DATE/
    DOUBLE dimensions with negative and fractional origins, rows and
    predicate ends on, beside and one float step from cell boundaries,
    through an append and a streamed upsert/delete/insert.  Aggregation
    and GROUP BY equal the full scan at every stage, and a DOUBLE range
    aligned to the grid has inner end cells.  The first pinned example is
    such a range; the other two are the cases where the grid search once
    disagreed with row placement (the fractional INT origin is now
    refused outright)."""
    dims = case["dims"]
    names = [f"d{i}" for i in range(len(dims))]
    session = make_session(block_size=1024)
    session.execute(
        "CREATE TABLE t (id bigint, "
        + "".join(f"{n} {sql_type}, " for n, (sql_type, *_r)
                  in zip(names, dims))
        + "v double)")
    session.load_rows("t", case["rows"])
    specs = ", ".join(
        f"'{n}'='{origin}_{interval}{'d' if sql_type == 'date' else ''}'"
        for n, (sql_type, origin, interval) in zip(names, dims))
    index_sql = (f"CREATE INDEX i ON TABLE t({', '.join(names)}) AS 'dgf' "
                 f"IDXPROPERTIES ({specs}, 'precompute'='sum(v),count(*)')")
    if any(sql_type in ("int", "bigint") and origin != int(origin)
           for sql_type, origin, _i in dims):
        with pytest.raises(DGFError, match="integer origin"):
            session.execute(index_sql)
        return
    session.execute(index_sql)

    def check():
        for predicate in case["predicates"]:
            _assert_aligned_ends_inner(dims, predicate)
            where = _where(predicate)
            for sql in (f"SELECT sum(v), count(*) FROM t WHERE {where}",
                        f"SELECT d0, sum(v), count(*) FROM t WHERE {where} "
                        "GROUP BY d0"):
                assert sorted(session.execute(sql).rows) \
                    == sorted(session.execute(sql, SCAN).rows), sql

    check()
    if case["append"]:
        append_with_dgf(session, "t", "i", case["append"])
        check()
    stream = case["stream"]
    binding = session.attach_delta("t", "i", key_columns=["id"] + names)
    binding.ingest([("upsert", row[:-1] + (row[-1] + 0.5,))
                    for row in stream["upsert"]]
                   + [("delete", row[:-1]) for row in stream["delete"]]
                   + [("insert", row) for row in stream["insert"]])
    check()


# ------------------------------------------------- exact cell placement
#: rows may lie this many intervals from zero (the policy's refusal bound)
REACH = 2 ** 50


@st.composite
def far_dimension(draw):
    """A DOUBLE dimension whose origin is near zero or anywhere up to the
    refusal bound, and sorted values on, beside and one float step from
    cell starts, near zero, at the bound and just past it."""
    interval = draw(st.floats(1e-3, 1e3))
    reach = interval * REACH
    origin = draw(st.one_of(st.floats(-1e3, 1e3),
                            st.floats(-1, 1).map(lambda f: f * reach)))
    dim = DimensionPolicy("x", DataType.DOUBLE, origin, interval)
    values = [reach, -reach, math.nextafter(reach, math.inf),
              math.nextafter(-reach, -math.inf)]
    for _ in range(6):
        k = draw(st.one_of(st.integers(-40, 40),
                           st.integers(-2 * REACH, 2 * REACH)))
        edge = origin + k * interval
        values += [edge, math.nextafter(edge, -math.inf),
                   math.nextafter(edge, math.inf)]
    values += draw(st.lists(st.floats(-1, 1).map(lambda f: f * reach),
                            max_size=6))
    return dim, sorted(values)


@settings(max_examples=300, deadline=None)
@example(case=(DimensionPolicy("x", DataType.DOUBLE, 0.025, 0.003),
               [0.001, 0.003 * REACH, 0.025 + 1e16 * 0.003]))
@given(case=far_dimension())
def test_property_rows_and_labels_place_exactly(case):
    """``cell_of`` is monotone over sorted doubles, also far out.  Every
    row within the refusal bound lands in the largest cell whose start is
    at or below it, and that cell's label parses back to the cell; a row
    past the bound is refused."""
    dim, values = case
    policy = SplittingPolicy([dim])
    cells = [dim.cell_of(v) for v in values]
    assert cells == sorted(cells)
    for value, k in zip(values, cells):
        if abs(value) > dim.interval * REACH:
            with pytest.raises(DGFError, match="'x'"):
                dim.place(value)
            continue
        assert dim.place(value) == k
        assert dim.cell_start(k) <= value < dim.cell_start(k + 1)
        assert dim.cell_of(dim.label(k)) == k
        assert policy.cells_of_key(policy.key_of_row([value])) == (k,)


def test_row_beyond_reach_is_refused():
    """A row or origin whose neighbouring cell starts round together is
    refused with DGFError naming the dimension: at CREATE INDEX (which
    then registers nothing), on append, and on streamed ingest.  A
    predicate endpoint out there is not a row; it still clamps."""
    far = 0.25 * REACH * 4
    index_sql = ("CREATE INDEX i ON TABLE t(x) AS 'dgf' IDXPROPERTIES "
                 "('x'='0_0.25', 'precompute'='sum(v),count(*)')")
    session = make_session()
    session.execute("CREATE TABLE t (id bigint, x double, v double)")
    session.load_rows("t", [(0, 1.0, 1.0), (1, far, 2.0)])
    with pytest.raises(DGFError, match=f"'x': {int(far)}.* lies over 2"):
        session.execute(index_sql)
    assert session.execute("SHOW INDEXES ON t").rows == []

    session = make_session()
    session.execute("CREATE TABLE t (id bigint, x double, v double)")
    session.load_rows("t", [(0, 1.0, 1.0), (1, 2.5, 2.0)])
    with pytest.raises(DGFError, match=f"'x': {int(far)}.* lies over 2"):
        session.execute(index_sql.replace("0_0.25", f"{far}_0.25"))
    session.execute(index_sql)
    with pytest.raises(DGFError, match="'x'"):
        append_with_dgf(session, "t", "i", [(2, 3.0, 4.0), (3, -far, 8.0)])
    binding = session.attach_delta("t", "i", key_columns=["id", "x"])
    with pytest.raises(DGFError, match="'x'"):
        binding.ingest([("insert", (4, far, 16.0))])
    for where in ("x >= 1.0", f"x <= {far}", f"x >= {-far}"):
        sql = f"SELECT sum(v), count(*) FROM t WHERE {where}"
        assert session.execute(sql).rows == session.execute(sql, SCAN).rows
    assert session.execute("SELECT count(*) FROM t").scalar() == 2
