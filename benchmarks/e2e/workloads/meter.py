"""The smart-grid meter table shared by ``agg-warm`` and ``scan-heavy``.

Generates the paper's 17-field meter records (Section 5.2) from the
seed, keeps the four columns queries touch as NumPy arrays, and answers
every query shape directly from those arrays — the oracle never goes
through ``repro``.  ``powerconsumed`` is a multiple of 1/64, so sums are
exact in any fold order.
"""

from __future__ import annotations

import datetime

import numpy as np

import repro

from harness import Op
from workloads.base import Workload

NUM_REGIONS = 11
START_DATE = datetime.date(2012, 12, 1)

METER_DDL = (
    "CREATE TABLE meterdata (userid bigint, regionid int, ts date, "
    "powerconsumed double, pate_rate1 double, pate_rate2 double, "
    "pate_rate3 double, pate_rate4 double, rate_rate1 double, "
    "rate_rate2 double, rate_rate3 double, rate_rate4 double, "
    "voltage double, current double, powerfactor double, "
    "meterstatus int, collectorid int) STORED AS TEXTFILE")
USERINFO_DDL = (
    "CREATE TABLE userinfo (userid bigint, username string, regionid int, "
    "address string, tariffclass int, installdate date) STORED AS TEXTFILE")

_FULL = ("regionid >= ? AND regionid <= ? AND userid >= ? AND userid < ? "
         "AND ts >= ? AND ts < ?")
SQL_POINT = ("SELECT sum(powerconsumed) FROM meterdata WHERE regionid >= 0 "
             f"AND regionid <= {NUM_REGIONS - 1} AND userid = ? AND ts = ?")
SQL_AGG = f"SELECT sum(powerconsumed) FROM meterdata WHERE {_FULL}"
#: partial-specified (Section 4.4): regionid left to the index's bounds
SQL_AGG_PARTIAL = ("SELECT sum(powerconsumed) FROM meterdata WHERE "
                   "userid >= ? AND userid < ? AND ts >= ? AND ts < ?")
SQL_GROUPBY = ("SELECT ts, sum(powerconsumed) FROM meterdata "
               f"WHERE {_FULL} GROUP BY ts")
SQL_JOIN = (
    "INSERT OVERWRITE DIRECTORY '/tmp/join-out' "
    "SELECT t2.username, t1.powerconsumed FROM meterdata t1 "
    "JOIN userinfo t2 ON t1.userid = t2.userid "
    "WHERE t1.regionid >= ? AND t1.regionid <= ? AND t1.userid >= ? "
    "AND t1.userid < ? AND t1.ts >= ? AND t1.ts < ?")
SQL_SCAN = ("SELECT regionid, sum(powerconsumed), count(*) FROM meterdata "
            "WHERE ts >= ? AND ts < ? GROUP BY regionid")
NO_INDEX = {"use_index": False}


def iso(day):
    return (START_DATE + datetime.timedelta(days=day)).isoformat()


def username(user):
    return f"user_{user:08d}"


class MeterWorkload(Workload):
    """Builds the meter table and holds its oracle."""

    connect_kwargs = {}
    with_userinfo = False

    # ---------------------------------------------------------------- build
    def build(self):
        scale = self.scale
        users, days = scale["users"], scale["days"]
        readings = scale["readings"]
        gen = np.random.default_rng(self.seed)
        self.users, self.days = users, days
        # Every run of 11 consecutive users covers the 11 regions, so a
        # window's region mix does not depend on where the seed puts it.
        user_region = np.arange(users) * 7 % NUM_REGIONS
        per_day = users * readings
        # collection order: by day, then reading, then meter
        self.col_user = np.tile(np.arange(users), days * readings)
        self.col_region = user_region[self.col_user]
        self.col_day = np.repeat(np.arange(days), per_day)
        self.col_power = gen.integers(0, 4096, days * per_day) / 64.0
        dates = [iso(day) for day in range(days)]
        rows = [
            (user, region, dates[day], power,
             power * 0.5, power * 0.25, power * 0.125, power * 0.125,
             0.25, 0.5, 0.125, 0.0625, 230.5, 12.25, 0.875, 0, user % 977)
            for user, region, day, power in zip(
                self.col_user.tolist(), self.col_region.tolist(),
                self.col_day.tolist(), self.col_power.tolist())]

        self.conn = conn = repro.connect(**self.connect_kwargs)
        conn.execute(METER_DDL)
        # one file per third of the period, as collection days accumulate
        per_file = max(1, days // 3) * per_day
        for first in range(0, len(rows), per_file):
            conn.load_rows("meterdata", rows[first:first + per_file])
        if self.with_userinfo:
            conn.execute(USERINFO_DDL)
            conn.load_rows("userinfo", [
                (user, username(user), region,
                 f"{user % 997 + 1} Grid Road, District {region}",
                 user % 4 + 1, "2010-06-01")
                for user, region in enumerate(user_region.tolist())])
        conn.execute(
            "CREATE INDEX dgf_idx ON TABLE meterdata(userid, regionid, ts) "
            "AS 'dgf' IDXPROPERTIES ("
            f"'userid'='0_{scale['user_interval']}', "
            f"'regionid'='0_1', 'ts'='{START_DATE.isoformat()}_1d', "
            "'precompute'='sum(powerconsumed),count(*)')")

    # --------------------------------------------------------------- oracle
    def _mask(self, u_lo, u_hi, d_lo, d_hi, r_lo=0, r_hi=NUM_REGIONS - 1):
        """Rows with user in [u_lo, u_hi), day in [d_lo, d_hi), region in
        [r_lo, r_hi]."""
        return ((self.col_user >= u_lo) & (self.col_user < u_hi)
                & (self.col_day >= d_lo) & (self.col_day < d_hi)
                & (self.col_region >= r_lo) & (self.col_region <= r_hi))

    def _sum(self, mask):
        return float(self.col_power[mask].sum()) if mask.any() else None

    # ------------------------------------------------------------------ ops
    def point_op(self, user, day):
        mask = self._mask(user, user + 1, day, day + 1)
        return Op("point", sql=SQL_POINT, params=(user, iso(day)),
                  expected=[(self._sum(mask),)])

    def agg_op(self, u_lo, u_hi, d_lo, d_hi, regions=None):
        if regions is None:
            mask = self._mask(u_lo, u_hi, d_lo, d_hi)
            return Op("agg", tag="partial", sql=SQL_AGG_PARTIAL,
                      params=(u_lo, u_hi, iso(d_lo), iso(d_hi)),
                      expected=[(self._sum(mask),)])
        mask = self._mask(u_lo, u_hi, d_lo, d_hi, *regions)
        return Op("agg", sql=SQL_AGG,
                  params=(*regions, u_lo, u_hi, iso(d_lo), iso(d_hi)),
                  expected=[(self._sum(mask),)])

    def groupby_op(self, u_lo, u_hi, d_lo, d_hi, regions):
        mask = self._mask(u_lo, u_hi, d_lo, d_hi, *regions)
        sums = np.bincount(self.col_day[mask], self.col_power[mask],
                           minlength=self.days)
        present = np.bincount(self.col_day[mask], minlength=self.days)
        expected = [(iso(day), float(sums[day]))
                    for day in range(self.days) if present[day]]
        return Op("groupby", sql=SQL_GROUPBY,
                  params=(*regions, u_lo, u_hi, iso(d_lo), iso(d_hi)),
                  expected=expected)

    def join_op(self, u_lo, u_hi, d_lo, d_hi, regions):
        mask = self._mask(u_lo, u_hi, d_lo, d_hi, *regions)
        expected = sorted(zip(map(username, self.col_user[mask].tolist()),
                              self.col_power[mask].tolist()))
        return Op("join", sql=SQL_JOIN,
                  params=(*regions, u_lo, u_hi, iso(d_lo), iso(d_hi)),
                  expected=expected)

    def scan_op(self, d_lo, d_hi):
        mask = (self.col_day >= d_lo) & (self.col_day < d_hi)
        sums = np.bincount(self.col_region[mask], self.col_power[mask],
                           minlength=NUM_REGIONS)
        counts = np.bincount(self.col_region[mask], minlength=NUM_REGIONS)
        expected = [(region, float(sums[region]), int(counts[region]))
                    for region in range(NUM_REGIONS) if counts[region]]
        return Op("scan", sql=SQL_SCAN, params=(iso(d_lo), iso(d_hi)),
                  options=NO_INDEX, expected=expected)
