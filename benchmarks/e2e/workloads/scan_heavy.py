"""``scan-heavy``: the same meter data where the engines do the work.

Coarse grid and ``connect(vectorized=True)``: few cells per query, many
records per cell, so ``mapreduce`` / ``vector`` / ``storage`` / ``hdfs``
dominate and the planner is a small share.  GROUP BY (Listing 5) and the
unindexed scan run on the vectorized engine, the JOIN (Listing 6, with
``INSERT OVERWRITE DIRECTORY``) falls back to the row engine, so both
engines are on the clock in one run, each in its own class.
"""

from __future__ import annotations

from workloads.meter import MeterWorkload

#: share of the table's records each query's predicate selects
GROUPBY_SELECTIVITY = (0.05, 0.064, 0.078, 0.092, 0.106, 0.12)
JOIN_SELECTIVITY = (0.02, 0.03, 0.04, 0.05)
AGG_SELECTIVITY = (0.05, 0.08, 0.12, 0.16)
POINTS = 3
SCANS = 3
#: the paper's predicate keeps 6 of 11 regions and half of the days
REGIONS = (2, 7)
REGION_SHARE = 6 / 11
DAY_SHARE = 0.5


class ScanHeavy(MeterWorkload):
    name = "scan-heavy"
    SCALES = {
        "full": {"users": 1000, "days": 10, "readings": 2,
                 "user_interval": 100},
        "smoke": {"users": 120, "days": 6, "readings": 1,
                  "user_interval": 20},
    }
    SELFCHECK_BLOCKS = 24
    connect_kwargs = {"vectorized": True}
    with_userinfo = True

    def _window(self, rng, selectivity):
        """User range and day window selecting about ``selectivity`` of
        the table together with the region range, at a seeded offset."""
        span = max(1, round(DAY_SHARE * self.days))
        share = min(0.95, selectivity / (REGION_SHARE * span / self.days))
        width = max(1, round(share * self.users))
        u_lo = rng.randrange(0, self.users - width + 1)
        d_lo = rng.randrange(0, self.days - span + 1)
        return u_lo, u_lo + width, d_lo, d_lo + span

    def block(self, k):
        rng = self.rng("block", k)
        ops = []
        for _ in range(POINTS):
            ops.append(self.point_op(rng.randrange(self.users),
                                     rng.randrange(self.days)))
        for selectivity in AGG_SELECTIVITY:
            ops.append(self.agg_op(*self._window(rng, selectivity), REGIONS))
        for selectivity in GROUPBY_SELECTIVITY:
            ops.append(self.groupby_op(*self._window(rng, selectivity),
                                       REGIONS))
        for selectivity in JOIN_SELECTIVITY:
            ops.append(self.join_op(*self._window(rng, selectivity),
                                    REGIONS))
        for _ in range(SCANS):
            d_lo = rng.randrange(0, self.days - 1)
            ops.append(self.scan_op(d_lo,
                                    rng.randrange(d_lo + 1, self.days + 1)))
        rng.shuffle(ops)
        return ops
