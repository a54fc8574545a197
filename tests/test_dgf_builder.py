"""Tests for DGFIndex construction: reorganization, slices, headers,
metadata, and the no-rebuild append path."""

import pytest

from repro.core.dgf.builder import (append_with_dgf, parse_precompute_spec,
                                    compile_precompute)
from repro.core.dgf.store import DgfStore
from repro.errors import DGFError
from repro.hive import formats
from repro.hive.session import QueryOptions
from tests.conftest import SCAN, make_session, meter_rows


class TestPrecomputeSpec:
    def test_parse_multiple(self):
        calls = parse_precompute_spec("sum(powerConsumed), count(*)")
        assert [c.name for c in calls] == ["sum", "count"]

    def test_parse_expression_argument(self):
        calls = parse_precompute_spec("sum(num * price)")
        assert len(calls) == 1

    def test_empty_spec(self):
        assert parse_precompute_spec("") == []

    def test_non_aggregate_rejected(self):
        with pytest.raises(DGFError):
            parse_precompute_spec("powerconsumed + 1")

    def test_non_additive_rejected(self, meter_session):
        table = meter_session.metastore.get_table("meterdata")
        calls = parse_precompute_spec("count(DISTINCT userid)")
        with pytest.raises(DGFError):
            compile_precompute(table, calls)


class TestBuild:
    def test_build_report_details(self, dgf_session):
        report = dgf_session.build_report("meterdata", "dgf_idx")
        assert report.handler == "dgf"
        assert report.details["gfus"] > 0
        assert report.details["slices"] >= report.details["gfus"]
        assert report.index_size_bytes > 0
        assert "sum(powerconsumed)" in report.details["precompute"]

    def test_table_reorganized(self, dgf_session):
        table = dgf_session.metastore.get_table("meterdata")
        assert table.data_location.endswith("__dgf")
        assert dgf_session.fs.exists(table.data_location)
        # original files were moved out
        assert dgf_session.fs.list_files(table.location) == []

    def test_no_rows_lost_by_reorganization(self, dgf_session):
        assert dgf_session.table_row_count("meterdata") == 1200

    def test_slices_tile_files_without_overlap(self, dgf_session):
        """Every byte of every reorganized file belongs to exactly one
        slice."""
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        by_file = {}
        for _key, value in store.iter_entries():
            for location in value.locations:
                by_file.setdefault(location.file, []).append(
                    (location.start, location.end))
        assert by_file
        for path, ranges in by_file.items():
            ranges.sort()
            assert ranges[0][0] == 0
            for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
                assert e1 == s2, f"gap or overlap in {path}"
            assert ranges[-1][1] == dgf_session.fs.file_length(path)

    def test_records_in_slice_belong_to_gfu(self, dgf_session):
        """All records in a slice standardize to the slice's GFUKey."""
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        policy = store.load_policy()
        table = dgf_session.metastore.get_table("meterdata")
        from repro.storage.textfile import TextFileReader
        checked = 0
        for key, value in store.iter_entries():
            location = value.locations[0]
            with dgf_session.fs.open(location.file) as stream:
                reader = TextFileReader(stream, table.schema)
                for _off, row in reader.iter_rows(location.start,
                                                  location.end):
                    assert policy.key_of_row(row[:3]) == key
                    checked += 1
            if checked > 300:
                break
        assert checked > 0

    def test_headers_match_recomputation(self, dgf_session):
        """Pre-computed sum/count per GFU equal recomputing from the slice
        contents — the core header-correctness invariant."""
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        table = dgf_session.metastore.get_table("meterdata")
        from repro.storage.textfile import TextFileReader
        for key, value in list(store.iter_entries())[:50]:
            rows = []
            for location in value.locations:
                with dgf_session.fs.open(location.file) as stream:
                    reader = TextFileReader(stream, table.schema)
                    rows.extend(r for _, r in reader.iter_rows(
                        location.start, location.end))
            assert value.header["count(*)"] == len(rows)
            assert value.header["sum(powerconsumed)"] \
                == pytest.approx(sum(r[3] for r in rows))
            assert value.records == len(rows)

    def test_bounds_cover_data(self, dgf_session):
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        bounds = store.load_bounds()
        policy = store.load_policy()
        assert bounds["userid"] == (0, 199 // 25)
        assert bounds["ts"][0] == 0
        assert policy.dimension("ts").cell_start(bounds["ts"][1]) \
            <= "2012-12-06"

    def test_missing_policy_property(self, meter_session):
        with pytest.raises(DGFError):
            meter_session.execute(
                "CREATE INDEX bad ON TABLE meterdata(userid, regionid) "
                "AS 'dgf' IDXPROPERTIES ('userid'='0_25')")

    def test_rebuild_after_build(self, dgf_session):
        """Rebuilding an already-reorganized table works (alt directory)."""
        before = dgf_session.table_row_count("meterdata")
        report = dgf_session.rebuild_index("meterdata", "dgf_idx")
        assert dgf_session.table_row_count("meterdata") == before
        assert report.details["gfus"] > 0

    def test_drop_clears_store(self, dgf_session):
        dgf_session.execute("DROP INDEX dgf_idx ON meterdata")
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        assert store.count_entries() == 0


class TestAppend:
    def test_append_extends_time_dimension(self, dgf_session):
        new_rows = [(u, u % 5, "2012-12-08", 1.5) for u in range(200)]
        report = append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                                 new_rows)
        assert report.details["appended_rows"] == 200
        assert dgf_session.table_row_count("meterdata") == 1400
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        bounds = store.load_bounds()
        policy = store.load_policy()
        top_cell = policy.dimension("ts").cell_of("2012-12-08")
        assert bounds["ts"][1] == top_cell

    def test_append_never_rewrites_existing_files(self, dgf_session):
        table = dgf_session.metastore.get_table("meterdata")
        before = {path: dgf_session.fs.read_bytes(path)
                  for path in dgf_session.fs.list_files(
                      table.data_location)}
        append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                        [(1, 1, "2012-12-09", 2.0)])
        for path, content in before.items():
            assert dgf_session.fs.read_bytes(path) == content

    def test_append_queryable_without_rebuild(self, dgf_session):
        append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                        [(7, 2, "2012-12-09", 10.0),
                         (8, 2, "2012-12-09", 20.0)])
        result = dgf_session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE ts = '2012-12-09'")
        assert result.scalar() == pytest.approx(30.0)
        scan = dgf_session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE ts = '2012-12-09'", SCAN)
        assert scan.scalar() == pytest.approx(30.0)

    def test_append_merges_headers_for_existing_cells(self, dgf_session):
        """Appending into an existing day's cell merges headers additively
        and appends a second slice location."""
        sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
               "WHERE ts = '2012-12-03'")
        before = dgf_session.execute(sql, SCAN).rows[0]
        append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                        [(3, 0, "2012-12-03", 5.0)])
        after = dgf_session.execute(sql)
        assert after.rows[0][1] == before[1] + 1
        assert after.rows[0][0] == pytest.approx(before[0] + 5.0)

    def test_empty_append_is_a_noop(self, dgf_session):
        """Zero rows: no job, no new files, no generation bump."""
        table = dgf_session.metastore.get_table("meterdata")
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        files = sorted(dgf_session.fs.list_files(table.data_location))
        generation = store.get_meta("generation")
        jobs = dgf_session.engine.jobs_run
        report = append_with_dgf(dgf_session, "meterdata", "dgf_idx", [])
        assert report.details["appended_rows"] == 0
        assert sorted(dgf_session.fs.list_files(table.data_location)) \
            == files
        assert store.get_meta("generation") == generation
        assert dgf_session.engine.jobs_run == jobs
        assert dgf_session.table_row_count("meterdata") == 1200

    def test_append_creates_brand_new_gfu_cell(self, dgf_session):
        """Rows standardizing to a cell no existing GFU covers create a
        fresh entry (header, one slice, records) and extend the bounds."""
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        policy = store.load_policy()
        row = (250, 9, "2012-12-20", 4.5)
        cell = policy.key_of_row(row[:3])
        assert store.get_value(cell) is None
        append_with_dgf(dgf_session, "meterdata", "dgf_idx", [row])
        value = store.get_value(cell)
        assert value is not None
        assert value.records == 1
        assert value.header["count(*)"] == 1
        assert value.header["sum(powerconsumed)"] == pytest.approx(4.5)
        bounds = store.load_bounds()
        assert bounds["userid"][1] >= policy.dimension("userid").cell_of(250)
        result = dgf_session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE userid >= 250 AND userid < 251")
        assert result.scalar() == pytest.approx(4.5)

    def test_two_appends_into_same_boundary_gfu(self, dgf_session):
        """Two consecutive appends into one cell stack a third and fourth
        slice location while headers stay additive — and a boundary query
        (exact predicate over the slices) agrees with a full scan."""
        store = DgfStore(dgf_session.kvstore, "meterdata", "dgf_idx")
        policy = store.load_policy()
        cell = policy.key_of_row((3, 0, "2012-12-03"))
        before = store.get_value(cell)
        # snapshot plain values: the store hands back live objects that
        # merge_value mutates in place
        locations, records = len(before.locations), before.records
        count, total = (before.header["count(*)"],
                        before.header["sum(powerconsumed)"])
        append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                        [(3, 0, "2012-12-03", 5.0)])
        append_with_dgf(dgf_session, "meterdata", "dgf_idx",
                        [(3, 0, "2012-12-03", 7.0)])
        value = store.get_value(cell)
        assert len(value.locations) == locations + 2
        assert value.records == records + 2
        assert value.header["count(*)"] == count + 2
        assert value.header["sum(powerconsumed)"] == pytest.approx(
            total + 12.0)
        # generation advanced once per append
        assert store.get_meta("generation") >= 2
        sql = ("SELECT sum(powerconsumed), count(*) FROM meterdata "
               "WHERE userid >= 3 AND userid < 4 AND regionid >= 0 "
               "AND regionid < 1 AND ts >= '2012-12-03' "
               "AND ts < '2012-12-04'")
        indexed = dgf_session.execute(sql)
        scan = dgf_session.execute(sql, SCAN)
        assert indexed.rows == scan.rows

    def test_append_requires_built_index(self, meter_session):
        meter_session.execute(
            "CREATE INDEX d ON TABLE meterdata(userid) AS 'dgf' "
            "WITH DEFERRED REBUILD "
            "IDXPROPERTIES ('userid'='0_25')")
        with pytest.raises(DGFError):
            append_with_dgf(meter_session, "meterdata", "d", [(1, 1,
                            "2012-12-01", 1.0)])


def test_fine_double_grid_far_from_origin_matches_scan():
    """~8e9 cells from the origin, a cell's parsed label used to floor one
    cell low: the stored bounds stopped a cell short of the top row, and
    the indexed answer dropped it."""
    session = make_session()
    session.execute("CREATE TABLE t (x double, v double)")
    session.load_rows("t", [(8357516.169016641, 1.0), (8357516.0, 2.0),
                            (8357515.5, 4.0)])
    session.execute(
        "CREATE INDEX d ON TABLE t(x) AS 'dgf' IDXPROPERTIES "
        "('x'='246035.5799588035_0.001', 'precompute'='sum(v),count(*)')")
    store = DgfStore(session.kvstore, "t", "d")
    top_cell = store.load_policy().cells_of_row([8357516.169016641])[0]
    assert store.load_bounds()["x"][1] == top_cell
    sql = ("SELECT sum(v), count(*) FROM t "
           "WHERE x >= 8357515.0 AND x <= 8357517.0")
    assert session.execute(sql).rows == session.execute(sql, SCAN).rows \
        == [(7.0, 3)]


class TestAllBaseFormats:
    """DGFIndex works over TextFile, RCFile and SequenceFile base tables
    (the paper ships TextFile only and calls the rest 'easy to extend')."""

    @pytest.mark.parametrize("stored_as", ["TEXTFILE", "RCFILE",
                                           "SEQUENCEFILE"])
    def test_build_and_query(self, stored_as):
        session = make_session()
        session.execute(
            "CREATE TABLE meterdata (userid bigint, regionid int, "
            f"ts date, powerconsumed double) STORED AS {stored_as}")
        session.load_rows("meterdata", meter_rows(num_users=80,
                                                  num_days=4))
        session.execute(
            "CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
            "AS 'dgf' IDXPROPERTIES ('userid'='0_10', 'regionid'='0_1', "
            "'ts'='2012-12-01_1d', 'precompute'='sum(powerconsumed)')")
        sql = ("SELECT sum(powerconsumed) FROM meterdata "
               "WHERE userid >= 12 AND userid < 47 "
               "AND ts >= '2012-12-02' AND ts < '2012-12-04'")
        scan = session.execute(sql, SCAN)
        indexed = session.execute(sql)
        assert indexed.scalar() == pytest.approx(scan.scalar())
        assert indexed.stats.records_read < scan.stats.records_read
        assert "dgf" in indexed.stats.index_used
