"""``fine-grid``: a working set far larger than the GFU cache, with the
pyramid and the replica router doing real work on every query.

A users x slots two-dimensional grid at interval 1 with one row per cell
(full scale: 256 x 128 = 32 768 GFUs + 10 923 pyramid nodes against an
8 192-entry cache), the aggregation pyramid built, and one replica layout
coarse in ``userid`` only, pinned to a datanode.  ``agg`` windows cover
thousands of inner cells (pyramid cover, header path); ``groupby``
windows are either narrow and tall (the router keeps them on the
primary, slices mode over every cell) or wide and short (the router
picks the replica).
"""

from __future__ import annotations

import statistics

import numpy as np

import repro

from harness import Op, timed_read
from workloads.base import Workload

TABLE, INDEX, LAYOUT = "meterbig", "bigidx", "wide"
FIRST_SLOT = 100
REGIONS = 3

_WINDOW = "userid >= ? AND userid < ? AND ts >= ? AND ts < ?"
SQL_POINT = (f"SELECT sum(powerconsumed), count(*) FROM {TABLE} "
             "WHERE userid = ? AND ts = ?")
SQL_AGG = f"SELECT sum(powerconsumed), count(*) FROM {TABLE} WHERE {_WINDOW}"
SQL_GROUPBY = (f"SELECT regionid, sum(powerconsumed), count(*) FROM {TABLE} "
               f"WHERE {_WINDOW} GROUP BY regionid")

#: One block's windows as (share of users, share of slots).  Four of the
#: six aggregations cover about 5 800 cells in different aspect ratios,
#: so the class median sits among similar windows and not between two
#: far-apart sizes; one is smaller, one is short and nearly full-width.
AGG_WINDOWS = ((0.23, 0.40), (0.39, 0.44), (0.25, 0.70), (0.45, 0.40),
               (0.31, 0.59), (0.97, 0.16))
WIDE_GROUPBY = ((0.25, 0.0625), (0.5, 0.03125), (0.78, 0.016),
                (0.375, 0.047), (0.625, 0.024), (0.31, 0.055))
#: narrow and tall: (users, share of slots)
NARROW_GROUPBY = ((1, 0.78), (2, 0.62), (1, 0.94))
POINTS = 4
RATIO_SAMPLE = 30


class FineGrid(Workload):
    name = "fine-grid"
    SCALES = {
        "full": {"users": 256, "slots": 128, "replica_interval": 32},
        "smoke": {"users": 64, "slots": 32, "replica_interval": 8},
    }
    SELFCHECK_BLOCKS = 18

    # ---------------------------------------------------------------- build
    def build(self):
        users, slots = self.scale["users"], self.scale["slots"]
        self.users, self.slots = users, slots
        gen = np.random.default_rng(self.seed)
        self.power = gen.integers(0, 1024, (users, slots)) / 64.0
        self.region = np.arange(users) % REGIONS
        self.conn = conn = repro.connect()
        conn.execute(f"CREATE TABLE {TABLE} (userid bigint, regionid int, "
                     "ts bigint, powerconsumed double)")
        power = self.power.tolist()
        conn.load_rows(TABLE, [
            (user, user % REGIONS, FIRST_SLOT + slot, power[user][slot])
            for user in range(users) for slot in range(slots)])
        conn.execute(
            f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
            f"IDXPROPERTIES ('userid'='0_1', 'ts'='{FIRST_SLOT}_1', "
            "'precompute'='sum(powerconsumed),count(*)')")
        conn.session.build_pyramid(TABLE, INDEX)
        conn.session.add_layout(
            TABLE, INDEX, LAYOUT,
            grid={"userid": f"0_{self.scale['replica_interval']}",
                  "ts": f"{FIRST_SLOT}_1"},
            datanodes=[3])

    # ------------------------------------------------------------------ ops
    def _place(self, rng, width, height):
        """A ``width`` x ``height`` window at a seeded offset that never
        touches cell 0 (an aligned corner would flatter the pyramid)."""
        width = max(1, min(width, self.users - 1))
        height = max(1, min(height, self.slots - 1))
        u_lo = rng.randrange(1, self.users - width + 1)
        s_lo = rng.randrange(1, self.slots - height + 1)
        return u_lo, u_lo + width, s_lo, s_lo + height

    @staticmethod
    def _params(u_lo, u_hi, s_lo, s_hi):
        return u_lo, u_hi, FIRST_SLOT + s_lo, FIRST_SLOT + s_hi

    def point_op(self, rng):
        user, slot = rng.randrange(self.users), rng.randrange(self.slots)
        return Op("point", sql=SQL_POINT, params=(user, FIRST_SLOT + slot),
                  expected=[(float(self.power[user, slot]), 1)])

    def agg_op(self, window):
        u_lo, u_hi, s_lo, s_hi = window
        box = self.power[u_lo:u_hi, s_lo:s_hi]
        return Op("agg", sql=SQL_AGG, params=self._params(*window),
                  expected=[(float(box.sum()), int(box.size))])

    def groupby_op(self, window, tag):
        u_lo, u_hi, s_lo, s_hi = window
        per_user = self.power[u_lo:u_hi, s_lo:s_hi].sum(axis=1)
        regions = self.region[u_lo:u_hi]
        expected = [
            (region, float(per_user[regions == region].sum()),
             int((regions == region).sum()) * (s_hi - s_lo))
            for region in range(REGIONS) if (regions == region).any()]
        return Op("groupby", tag=tag, sql=SQL_GROUPBY,
                  params=self._params(*window), expected=expected)

    def _shares(self, rng, share):
        return self._place(rng, round(share[0] * self.users),
                           round(share[1] * self.slots))

    def block(self, k):
        rng = self.rng("block", k)
        ops = [self.point_op(rng) for _ in range(POINTS)]
        ops += [self.agg_op(self._shares(rng, share))
                for share in AGG_WINDOWS]
        ops += [self.groupby_op(self._shares(rng, share), "wide")
                for share in WIDE_GROUPBY]
        ops += [self.groupby_op(
                    self._place(rng, users, round(share * self.slots)),
                    "narrow")
                for users, share in NARROW_GROUPBY]
        rng.shuffle(ops)
        return ops

    # ---------------------------------------------------------- traced run
    def ratio_samples(self):
        """p50 ratios on seeded samples of ``RATIO_SAMPLE`` queries: the
        flat header path over the pyramid path, and the forced primary
        over the router's replica choice."""
        rng = self.rng("ratios")
        flat, pyramid = [], []
        for i in range(RATIO_SAMPLE):
            op = self.agg_op(self._shares(rng,
                                          AGG_WINDOWS[i % len(AGG_WINDOWS)]))
            pyramid.append(timed_read(self.conn, op)[0])
            flat.append(timed_read(self.conn, op,
                                   {"dgf_pyramid": False})[0])
        forced, routed = [], []
        i = 0
        while len(routed) < RATIO_SAMPLE and i < 4 * RATIO_SAMPLE:
            op = self.groupby_op(
                self._shares(rng, WIDE_GROUPBY[i % len(WIDE_GROUPBY)]),
                "wide")
            i += 1
            ns, result = timed_read(self.conn, op)
            if result.plan.access.layout != LAYOUT:
                continue
            routed.append(ns)
            forced.append(timed_read(self.conn, op,
                                     {"dgf_layout": "primary"})[0])
        return {
            "pyramid.flat_over_pyramid":
                statistics.median(flat) / statistics.median(pyramid),
            "fleet.primary_over_routed":
                (statistics.median(forced) / statistics.median(routed)
                 if routed else 0.0),
        }
