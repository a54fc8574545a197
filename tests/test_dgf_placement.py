"""Tests for Z-order slice placement (the paper's future-work problem)."""

import pytest

from repro.core.dgf.placement import (morton_code, resolve_placement,
                                      zorder_partitioner)
from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.errors import DGFError
from repro.hive.session import QueryOptions
from repro.storage.schema import DataType
from tests.conftest import SCAN, make_session, meter_rows


class TestMortonCode:
    def test_interleaving(self):
        # x=0b11, y=0b00 -> bits x0,y0,x1,y1 = 1,0,1,0 -> 0b0101 = 5?
        # bit layout: bit*ndims + d with d=0 for x: positions 0 and 2
        assert morton_code([0b11, 0b00]) == 0b0101
        assert morton_code([0b00, 0b11]) == 0b1010

    def test_single_dimension_is_identity(self):
        for value in (0, 1, 5, 100):
            assert morton_code([value]) == value

    def test_negative_clamped(self):
        assert morton_code([-3, 2]) == morton_code([0, 2])

    def test_locality(self):
        """Adjacent cells have closer codes than distant cells, on
        average — the property placement exploits."""
        near = abs(morton_code([10, 10]) - morton_code([10, 11]))
        far = abs(morton_code([10, 10]) - morton_code([200, 200]))
        assert near < far


class TestHelpers:
    @pytest.fixture
    def policy(self):
        return SplittingPolicy([
            DimensionPolicy(name="a", dtype=DataType.BIGINT, origin=0,
                            interval=5),
            DimensionPolicy(name="ts", dtype=DataType.DATE,
                            origin="2012-12-01", interval=1),
        ])

    def test_cells_of_key_arity(self, policy):
        with pytest.raises(DGFError):
            policy.cells_of_key("1_2_3")

    def test_partitioner_stable_and_in_range(self, policy):
        partition = zorder_partitioner(policy, 4)
        key = policy.key_of_cells([2, 1])
        assert partition(key) == partition(key)
        for a in range(6):
            for t in range(4):
                assert 0 <= partition(policy.key_of_cells([a, t])) < 4

    def test_resolve_placement(self):
        assert resolve_placement({}) == "hash"
        assert resolve_placement({"placement": "ZORDER"}) == "zorder"
        with pytest.raises(DGFError):
            resolve_placement({"placement": "hilbert"})


def build_session(placement):
    session = make_session(block_size=4096)
    session.execute("CREATE TABLE meterdata (userid bigint, regionid int, "
                    "ts date, powerconsumed double)")
    session.load_rows("meterdata", meter_rows(num_users=150, num_days=6))
    session.execute(
        "CREATE INDEX d ON TABLE meterdata(userid, regionid, ts) "
        f"AS 'dgf' IDXPROPERTIES ('userid'='0_10', 'regionid'='0_1', "
        f"'ts'='2012-12-01_1d', 'placement'='{placement}', "
        "'precompute'='sum(powerconsumed)')")
    return session


QUERY = ("SELECT ts, sum(powerconsumed) FROM meterdata "
         "WHERE userid >= 38 AND userid < 71 "
         "AND ts >= '2012-12-02' AND ts < '2012-12-05' GROUP BY ts")


class TestEndToEnd:
    def test_zorder_build_is_equivalent(self):
        hash_session = build_session("hash")
        zorder_session = build_session("zorder")
        scan = hash_session.execute(QUERY, SCAN)
        for session in (hash_session, zorder_session):
            indexed = session.execute(QUERY)
            assert [k for k, _ in indexed.rows] \
                == [k for k, _ in scan.rows]
            for (_, left), (_, right) in zip(indexed.rows, scan.rows):
                assert left == pytest.approx(right)
            assert session.table_row_count("meterdata") == 900

    def test_zorder_touches_no_more_splits(self):
        """Clustering grid-adjacent slices can only reduce (never grow)
        the number of splits a range query touches at identical data and
        grid; usually it strictly reduces it."""
        hash_splits = build_session("hash").execute(
            QUERY).stats.splits_processed
        zorder_splits = build_session("zorder").execute(
            QUERY).stats.splits_processed
        assert zorder_splits <= hash_splits

    def test_appends_respect_placement(self):
        from repro.core.dgf.builder import append_with_dgf
        session = build_session("zorder")
        append_with_dgf(session, "meterdata", "d",
                        [(10, 1, "2012-12-08", 3.0)])
        result = session.execute(
            "SELECT sum(powerconsumed) FROM meterdata "
            "WHERE ts = '2012-12-08'")
        assert result.scalar() == pytest.approx(3.0)
