"""Tests for DGFIndex query processing: both paths of Algorithm 3,
split/slice filtering, and the partial-specified behaviour."""

import re

import pytest

from repro.errors import SemanticError
from repro.hive.session import QueryOptions
from tests.conftest import SCAN, make_session, meter_rows

MDRQ = ("SELECT sum(powerconsumed) FROM meterdata "
        "WHERE userid >= 30 AND userid < 90 "
        "AND regionid >= 1 AND regionid <= 3 "
        "AND ts >= '2012-12-02' AND ts < '2012-12-05'")


class TestAggregationPath:
    def test_equivalence_with_scan(self, dgf_session):
        scan = dgf_session.execute(MDRQ, SCAN)
        indexed = dgf_session.execute(MDRQ)
        assert indexed.scalar() == pytest.approx(scan.scalar())
        assert "mode=agg-headers" in indexed.stats.index_used

    def test_reads_only_boundary(self, dgf_session):
        indexed = dgf_session.execute(MDRQ)
        scan = dgf_session.execute(MDRQ, SCAN)
        assert indexed.stats.records_read < scan.stats.records_read

    def test_cell_aligned_query_reads_nothing(self, dgf_session):
        """userid [25, 50) aligns with the 25-wide grid; region/ts are
        discrete-covered: the whole answer comes from headers."""
        sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
               "WHERE userid >= 25 AND userid < 50 "
               "AND regionid >= 0 AND regionid <= 4 "
               "AND ts >= '2012-12-01' AND ts < '2012-12-03'")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.rows[0] == pytest.approx(scan.rows[0])
        assert indexed.stats.records_read == 0
        assert indexed.stats.records_matched == 0

    def test_count_and_avg_derivation(self, dgf_session):
        sql = ("SELECT count(*), avg(powerconsumed) FROM meterdata "
               "WHERE userid >= 10 AND userid < 180")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.rows[0][0] == scan.rows[0][0]
        assert indexed.rows[0][1] == pytest.approx(scan.rows[0][1])

    def test_unprecomputed_aggregate_uses_slice_path(self, dgf_session):
        sql = ("SELECT max(powerconsumed) FROM meterdata "
               "WHERE userid >= 30 AND userid < 90")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.scalar() == scan.scalar()
        assert "mode=slices" in indexed.stats.index_used

    def test_residual_predicate_disables_headers(self, dgf_session):
        """A predicate on a non-index column must force re-checking every
        record — headers would silently include non-matching rows."""
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE userid >= 30 AND userid < 90 "
               "AND powerconsumed > 25.0")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.scalar() == pytest.approx(scan.scalar())
        assert "mode=slices" in indexed.stats.index_used

    def test_empty_region(self, dgf_session):
        sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
               "WHERE userid >= 5000 AND userid < 6000")
        indexed = dgf_session.execute(sql)
        assert indexed.rows == [(None, 0)]
        assert indexed.stats.records_read == 0

    def test_point_query_reads_covering_cell(self, dgf_session):
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE userid = 42 AND ts = '2012-12-03'")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.scalar() == pytest.approx(scan.scalar())
        # no inner GFU for a point: it reads the covering cell's slice,
        # i.e. more than the matching record but far less than the table
        assert 1 <= indexed.stats.records_matched
        assert indexed.stats.records_matched \
            <= indexed.stats.records_read < 1200


class TestSlicePath:
    def test_group_by(self, dgf_session):
        sql = ("SELECT ts, sum(powerconsumed) FROM meterdata "
               "WHERE userid >= 30 AND userid < 90 GROUP BY ts")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert [(t, pytest.approx(v)) for t, v in scan.rows] \
            == [(t, v) for t, v in indexed.rows]
        assert indexed.stats.records_read < scan.stats.records_read

    def test_projection_query(self, dgf_session):
        sql = ("SELECT userid, powerconsumed FROM meterdata "
               "WHERE userid >= 30 AND userid < 35 AND ts = '2012-12-02'")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert sorted(indexed.rows) == sorted(scan.rows)

    def test_join_through_index(self, dgf_session):
        dgf_session.execute(
            "CREATE TABLE userinfo (userid bigint, username string)")
        dgf_session.load_rows("userinfo",
                              [(u, f"user{u}") for u in range(200)])
        sql = ("SELECT t2.username, t1.powerconsumed FROM meterdata t1 "
               "JOIN userinfo t2 ON t1.userid = t2.userid "
               "WHERE t1.userid >= 30 AND t1.userid < 33 "
               "AND t1.ts = '2012-12-02'")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert sorted(indexed.rows) == sorted(scan.rows)

    def test_noprecompute_option(self, dgf_session):
        scan = dgf_session.execute(MDRQ, SCAN)
        nopre = dgf_session.execute(
            MDRQ, QueryOptions(dgf_use_precompute=False))
        pre = dgf_session.execute(MDRQ)
        assert nopre.scalar() == pytest.approx(scan.scalar())
        assert "mode=slices" in nopre.stats.index_used
        assert pre.stats.records_read <= nopre.stats.records_read

    def test_slice_skipping_reads_less_than_chosen_splits(self, dgf_session):
        """The record reader skips unrelated slices inside chosen splits:
        it parses only the slice records, and reads fewer bytes than the
        whole table (at this tiny scale per-range read slack dominates, so
        the record count is the sharp assertion)."""
        indexed = dgf_session.execute(
            MDRQ, QueryOptions(dgf_use_precompute=False))
        table = dgf_session.metastore.get_table("meterdata")
        total = dgf_session.fs.total_size(table.data_location)
        assert 0 < indexed.stats.bytes_read < total
        assert indexed.stats.records_read < 1200 / 4


class TestPartialSpecified:
    def test_missing_dimension_completed_from_bounds(self, dgf_session):
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE regionid = 2 AND ts = '2012-12-04'")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.scalar() == pytest.approx(scan.scalar())
        assert "dgf" in indexed.stats.index_used

    def test_precompute_helps_partial_query(self, dgf_session):
        """A predicate that covers whole cells (regionid equality with
        interval 1, a full 2-day ts cell) is answered from headers with no
        data I/O (Figure 17's mechanism)."""
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE regionid = 2 AND ts >= '2012-12-03' "
               "AND ts < '2012-12-05'")
        pre = dgf_session.execute(sql)
        nopre = dgf_session.execute(sql,
                                    QueryOptions(dgf_use_precompute=False))
        assert pre.scalar() == pytest.approx(nopre.scalar())
        assert pre.stats.records_read == 0
        assert nopre.stats.records_read > 0

    def test_sub_cell_equality_stays_boundary(self, dgf_session):
        """ts equality on one day inside a 2-day cell cannot use the
        header (the cell is not covered) but still answers correctly from
        the boundary slice."""
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE regionid = 2 AND ts = '2012-12-04'")
        scan = dgf_session.execute(sql, SCAN)
        pre = dgf_session.execute(sql)
        assert pre.scalar() == pytest.approx(scan.scalar())
        assert pre.stats.records_read > 0

    def test_extra_nonindexed_dimension(self, dgf_session):
        sql = ("SELECT count(*) FROM meterdata "
               "WHERE userid >= 30 AND userid < 90 "
               "AND powerconsumed >= 0.0")
        scan = dgf_session.execute(sql, SCAN)
        indexed = dgf_session.execute(sql)
        assert indexed.scalar() == scan.scalar()

    def test_no_indexed_predicate_falls_back_to_scan(self, dgf_session):
        result = dgf_session.execute(
            "SELECT count(*) FROM meterdata WHERE powerconsumed > 25")
        assert result.stats.index_used is None


class TestStatsAndKV:
    def test_kv_gets_accounted(self, dgf_session):
        result = dgf_session.execute(MDRQ)
        assert result.stats.index_kv_gets > 0
        assert result.stats.time.read_index_and_other \
            > dgf_session.cluster.job_launch_seconds

    def test_more_cells_more_gets(self, meter_session):
        """A finer grid needs more key-value gets for the same query —
        the paper's Figure 12/13 'read index' growth."""
        meter_session.execute(
            "CREATE INDEX dgf_idx ON TABLE meterdata"
            "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
            "'userid'='0_5', 'regionid'='0_1', 'ts'='2012-12-01_1d', "
            "'precompute'='sum(powerconsumed)')")
        fine = meter_session.execute(MDRQ)
        coarse_session = make_session()
        coarse_session.execute(
            "CREATE TABLE meterdata (userid bigint, regionid int, "
            "ts date, powerconsumed double)")
        coarse_session.load_rows("meterdata", meter_rows())
        coarse_session.execute(
            "CREATE INDEX dgf_idx ON TABLE meterdata"
            "(userid, regionid, ts) AS 'dgf' IDXPROPERTIES ("
            "'userid'='0_50', 'regionid'='0_2', 'ts'='2012-12-01_3d', "
            "'precompute'='sum(powerconsumed)')")
        coarse = coarse_session.execute(MDRQ)
        assert fine.stats.index_kv_gets > coarse.stats.index_kv_gets
        assert fine.scalar() == pytest.approx(coarse.scalar())


class TestUnconvertibleLiterals:
    """A literal an index dimension cannot compare with is a semantic
    error naming the column, not a builtin exception from planning."""

    @pytest.mark.parametrize("where, column, literal", [
        ("x >= 'abc'", "x", "'abc'"),
        ("y <= 'zz'", "y", "'zz'"),
        ("d >= 5", "d", "5"),
        ("d >= '2012-13-45'", "d", "'2012-13-45'"),
        # ISO basic format: the scan compares date strings, so only the
        # extended form orders like the dates it names
        ("d >= '20121205'", "d", "'20121205'"),
    ])
    def test_literal_raises_semantic_error(self, where, column, literal):
        session = make_session()
        session.execute("CREATE TABLE t (x int, d date, y double, v double)")
        session.load_rows("t", [(1, "2012-12-01", 0.5, 1.0),
                                (7, "2012-12-09", 2.5, 2.0)])
        session.execute(
            "CREATE INDEX i ON TABLE t(x, d, y) AS 'dgf' IDXPROPERTIES "
            "('x'='0_2', 'd'='2012-12-01_3d', 'y'='0_1', "
            "'precompute'='sum(v)')")
        with pytest.raises(SemanticError,
                           match=f"'{column}'.*{re.escape(literal)}"):
            session.execute(f"SELECT sum(v), count(*) FROM t WHERE {where}")

    @pytest.mark.parametrize("where, column, literal", [
        ("x >= 'abc'", "x", "'abc'"),
        ("y <= 'zz'", "y", "'zz'"),
        ("d >= 5", "d", "5"),
        ("5 <= d", "d", "5"),
        ("s < 3 OR x = 1", "s", "3"),
        ("x BETWEEN 'a' AND 'b'", "x", "'a'"),
    ])
    def test_type_mismatch_raises_with_and_without_index(self, where,
                                                          column, literal):
        """The scan path meets a mismatched literal before any row, as
        the index path does, instead of as a TypeError mid-scan."""
        session = make_session()
        session.execute("CREATE TABLE t (x int, d date, y double, "
                        "s string, v double)")
        session.load_rows("t", [(1, "2012-12-01", 0.5, "a", 1.0)])
        session.execute(
            "CREATE INDEX i ON TABLE t(x, d, y) AS 'dgf' IDXPROPERTIES "
            "('x'='0_2', 'd'='2012-12-01_3d', 'y'='0_1', "
            "'precompute'='sum(v)')")
        sql = f"SELECT sum(v), count(*) FROM t WHERE {where}"
        for options in (None, SCAN):
            with pytest.raises(SemanticError,
                               match=f"'{column}'.*{re.escape(literal)}"):
                session.execute(sql, options)
