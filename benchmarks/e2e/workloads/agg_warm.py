"""``agg-warm``: the paper's headline query on a working set that fits
the GFU cache.

Meter table under the paper's 3-D index at the small interval, default
row engine.  Every query stays inside a *hot band* of users whose cells
(band cells x 11 regions x days, about 5 600 at full scale) fit the
8 192-entry GFU-metadata cache, and the priming read touches all of
them, so the timed pass runs at hit rate 1.0 with no evictions: what is
left on the clock is parse + analyze + grid search + header folding, with
MapReduce only scanning boundary slices.
"""

from __future__ import annotations

from workloads.meter import NUM_REGIONS, MeterWorkload

#: One block's windows as (share of the hot band's users, share of the
#: loaded days, region range).  Each class has a dense core of similar
#: windows, which is where its median sits, flanked by as many cheaper as
#: dearer ones, which spread the tail: a median that fell between two
#: far-apart sizes would move with the seed.
SIX_REGIONS = ((2, 7), (3, 8), (1, 6), (4, 9))
AGG_WINDOWS = (
    [(0.36 + 0.015 * i, 0.5, SIX_REGIONS[i % 4]) for i in range(12)]
    + [(0.08, 0.3, (2, 7)), (0.12, 0.4, (0, 10)), (0.16, 0.3, (1, 5)),
       (0.24, 0.5, (4, 9)), (0.28, 0.4, (3, 8))]
    + [(0.60, 0.6, (0, 10)), (0.68, 0.7, (2, 7)), (0.76, 0.6, (0, 6)),
       (0.84, 0.7, (0, 10)), (0.64, 0.6, (1, 6))])
#: partial-specified: regionid omitted, so all 11 regions
PARTIAL_WINDOWS = ((0.10, 0.3), (0.20, 0.5), (0.45, 0.6), (0.60, 0.4))
GROUPBY_WINDOWS = [(0.22 + 0.01 * i, 0.5, SIX_REGIONS[i % 4])
                   for i in range(7)]
POINTS = 8


class AggWarm(MeterWorkload):
    name = "agg-warm"
    SCALES = {
        "full": {"users": 1000, "days": 10, "readings": 2,
                 "user_interval": 2, "band": 100},
        "smoke": {"users": 120, "days": 6, "readings": 1,
                  "user_interval": 2, "band": 40},
    }
    SELFCHECK_BLOCKS = 24

    def build(self):
        super().build()
        band = self.scale["band"]
        self.band_lo = self.rng("band").randrange(0, self.users - band)
        self.band_hi = self.band_lo + band

    def priming_ops(self):
        # every cell of the band, positive or empty, enters the cache
        return [self.agg_op(self.band_lo, self.band_hi, 0, self.days,
                            (0, NUM_REGIONS - 1))]

    def _window(self, rng, users_share, days_share):
        """A user range inside the band and a day window of the given
        shares, both at seeded, unaligned offsets."""
        band = self.band_hi - self.band_lo
        width = max(1, round(users_share * band))
        span = max(1, round(days_share * self.days))
        u_lo = self.band_lo + rng.randrange(0, band - width + 1)
        d_lo = rng.randrange(0, self.days - span + 1)
        return u_lo, u_lo + width, d_lo, d_lo + span

    def block(self, k):
        rng = self.rng("block", k)
        ops = [self.point_op(rng.randrange(self.band_lo, self.band_hi),
                             rng.randrange(self.days))
               for _ in range(POINTS)]
        ops += [self.agg_op(*self._window(rng, users, days), regions)
                for users, days, regions in AGG_WINDOWS]
        ops += [self.agg_op(*self._window(rng, users, days))
                for users, days in PARTIAL_WINDOWS]
        ops += [self.groupby_op(*self._window(rng, users, days), regions)
                for users, days, regions in GROUPBY_WINDOWS]
        rng.shuffle(ops)
        return ops
