"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import settings

from repro.hdfs.filesystem import HDFS
from repro.hive.session import HiveSession, QueryOptions
from repro.storage.schema import DataType, Schema

# ``pytest --hypothesis-profile=ci``: a chance failure prints the blob
# that replays it (``@reproduce_failure``).
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def fs() -> HDFS:
    """A small filesystem with tiny blocks so files span several blocks."""
    return HDFS(num_datanodes=4, block_size=1024)


@pytest.fixture
def simple_schema() -> Schema:
    return Schema.of(("a", DataType.INT), ("b", DataType.DOUBLE),
                     ("c", DataType.STRING))


def make_session(block_size: int = 64 * 1024,
                 execution=None) -> HiveSession:
    """Fresh session; ``execution`` is an optional
    :class:`~repro.mapreduce.cluster.ExecutionConfig` (None = sequential)."""
    session = HiveSession(num_datanodes=4, execution=execution)
    session.fs.block_size = block_size
    return session


METER_DDL = ("CREATE TABLE meterdata (userid bigint, regionid int, "
             "ts date, powerconsumed double)")


def meter_rows(num_users: int = 200, num_days: int = 6,
               seed: int = 7, num_regions: int = 5):
    """Small deterministic meter-like rows, time-sorted like real data."""
    rng = random.Random(seed)
    regions = [rng.randrange(num_regions) for _ in range(num_users)]
    rows = []
    start = datetime.date(2012, 12, 1)
    for day in range(num_days):
        date_text = (start + datetime.timedelta(days=day)).isoformat()
        for user in range(num_users):
            rows.append((user, regions[user], date_text,
                         round(rng.uniform(0.0, 50.0), 2)))
    return rows


@pytest.fixture
def meter_session() -> HiveSession:
    """A session with a small loaded meterdata table (TextFile)."""
    session = make_session()
    session.execute(METER_DDL)
    rows = meter_rows()
    # two files, as data accumulates over collection periods
    half = len(rows) // 2
    session.load_rows("meterdata", rows[:half])
    session.load_rows("meterdata", rows[half:])
    return session


@pytest.fixture
def dgf_session(meter_session) -> HiveSession:
    meter_session.execute(
        "CREATE INDEX dgf_idx ON TABLE meterdata(userid, regionid, ts) "
        "AS 'dgf' IDXPROPERTIES ('userid'='0_25', 'regionid'='0_1', "
        "'ts'='2012-12-01_2d', "
        "'precompute'='sum(powerconsumed),count(*)')")
    return meter_session


SCAN = QueryOptions(use_index=False)
