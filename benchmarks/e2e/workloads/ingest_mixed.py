"""``ingest-mixed``: writes beside reads.

A users x slots table under a 2-D index with the aggregation pyramid and a
streaming delta binding.  Opening the streaming writer starts the
connection's query service, so this is also the one workload whose reads
cross ``QueryService`` (one worker; the client thread only waits).

One block is one round of the write/read cycle, always the same shape:

    burst -> reads -> append -> reads -> burst -> reads -> compact
          -> append -> reads

A *burst* streams inserts of a new time slot, upserts and deletes over
recent slots (60/30/10 %) through ``StreamingWriter``; an *append* loads
the next slot for every user through ``append_with_dgf``.  Three read
phases of four see delta-resident state and one sees compacted state, so
the class medians sit in the resident mode and ``query_p95_ms`` carries
its spikes.  Every write invalidates cache entries and demotes or
refreshes pyramid nodes; a read-side gain bought with write-side cost
(or the reverse) shows here and nowhere else.

The oracle is a model keyed by ``(userid, slot)`` replayed through the
same op stream while the block is generated; each read's answer is taken
from the model as it stands at that point of the stream.
"""

from __future__ import annotations

import numpy as np

import repro
import repro.core.dgf.builder as dgf_builder

from harness import Op
from workloads.base import Workload

TABLE, INDEX = "meterstream", "idxstream"
KEY_COLUMNS = ("userid", "ts")
FIRST_SLOT = 100
REGIONS = 4

_WINDOW = "userid >= ? AND userid < ? AND ts >= ? AND ts < ?"
SQL_POINT = (f"SELECT sum(powerconsumed), count(*) FROM {TABLE} "
             "WHERE userid = ? AND ts = ?")
SQL_AGG = f"SELECT sum(powerconsumed), count(*) FROM {TABLE} WHERE {_WINDOW}"
SQL_GROUPBY = (f"SELECT regionid, sum(powerconsumed), count(*) FROM {TABLE} "
               f"WHERE {_WINDOW} GROUP BY regionid")

#: reads look at the most recent slots, so their cost does not grow with
#: the table
READ_SLOTS = 10
#: upserts and deletes land in the most recent slots
WRITE_SLOTS = 8
#: each read phase: user-range widths as shares of the users; points
#: look up keys the latest burst wrote (read your writes), so in the
#: resident phases they all hit delta-resident cells
AGG_WIDTHS = (0.24, 0.25, 0.26, 0.27)
GROUPBY_WIDTHS = (0.09, 0.10, 0.11)
POINTS = 4
#: a burst is this many interleaved (insert, upsert, delete) chunks
CHUNKS = 6


class IngestMixed(Workload):
    name = "ingest-mixed"
    SCALES = {
        "full": {"users": 400, "slots": 24, "user_interval": 10,
                 "burst": 600},
        "smoke": {"users": 100, "slots": 12, "user_interval": 10,
                  "burst": 100},
    }
    SELFCHECK_BLOCKS = 15
    # Every round appends files and slots, and appends, compactions and
    # split filtering get slower with them (seed commit: a round takes
    # 1.8 times as long after 40 rounds), so the round count is frozen:
    # 15 rounds took about 12 s of timed calls on the seed commit.
    BLOCKS_PER_SECOND = 1.25

    # ---------------------------------------------------------------- build
    def build(self):
        users, slots = self.scale["users"], self.scale["slots"]
        self.users = users
        self.top = slots          # first slot not yet written
        gen = np.random.default_rng(self.seed)
        self.present = np.zeros((users, 4 * slots), dtype=bool)
        self.value = np.zeros((users, 4 * slots))
        self.present[:, :slots] = True
        self.value[:, :slots] = gen.integers(0, 640, (users, slots)) / 64.0
        self.region = np.arange(users) % REGIONS

        self.conn = conn = repro.connect()
        conn.execute(f"CREATE TABLE {TABLE} (userid bigint, regionid int, "
                     "ts bigint, powerconsumed double) STORED AS TEXTFILE")
        conn.load_rows(TABLE, [row for slot in range(slots)
                               for row in self._slot_rows(slot)])
        conn.execute(
            f"CREATE INDEX {INDEX} ON TABLE {TABLE}(userid, ts) AS 'dgf' "
            f"IDXPROPERTIES ('userid'='0_{self.scale['user_interval']}', "
            f"'ts'='{FIRST_SLOT}_1', "
            "'precompute'='sum(powerconsumed),count(*)')")
        conn.session.build_pyramid(TABLE, INDEX)
        self.writer = conn.service.streaming_writer(
            TABLE, INDEX, key_columns=KEY_COLUMNS)

    def close(self):
        if self.conn is not None:
            self.writer.close()
        super().close()

    # ---------------------------------------------------------------- model
    def _row(self, user, slot):
        return (user, user % REGIONS, FIRST_SLOT + slot,
                float(self.value[user, slot]))

    def _slot_rows(self, slot):
        return [self._row(user, slot) for user in range(self.users)]

    def _set(self, user, slot, power):
        self.present[user, slot] = True
        self.value[user, slot] = power

    def _open_slot(self):
        """Claim the next time slot, growing the model when needed."""
        slot = self.top
        self.top += 1
        if self.top > self.present.shape[1]:
            grow = self.present.shape[1]
            self.present = np.pad(self.present, ((0, 0), (0, grow)))
            self.value = np.pad(self.value, ((0, 0), (0, grow)))
        return slot

    # --------------------------------------------------------------- writes
    def _burst(self, rng):
        """Inserts of a new slot, upserts and deletes over recent slots,
        as interleaved chunks; the model is updated in stream order."""
        size = self.scale["burst"] // CHUNKS
        inserts, upserts = size * 6 // 10, size * 3 // 10
        deletes = size - inserts - upserts
        slot = self._open_slot()
        newcomers = rng.sample(range(self.users), inserts * CHUNKS)
        recent = range(max(0, slot - WRITE_SLOTS), slot)
        payload = []
        self.written = written = []
        for chunk in range(CHUNKS):
            rows = []
            for user in newcomers[chunk * inserts:(chunk + 1) * inserts]:
                self._set(user, slot, rng.randrange(640) / 64.0)
                rows.append(self._row(user, slot))
                written.append((user, slot))
            payload.append(("insert", rows))
            rows = []
            for _ in range(upserts):
                user, target = rng.randrange(self.users), rng.choice(recent)
                self._set(user, target, rng.randrange(640) / 64.0)
                rows.append(self._row(user, target))
                written.append((user, target))
            payload.append(("upsert", rows))
            keys = []
            while len(keys) < deletes:
                user, target = rng.randrange(self.users), rng.choice(recent)
                if self.present[user, target]:
                    self.present[user, target] = False
                    self.value[user, target] = 0.0
                    keys.append((user, FIRST_SLOT + target))
            payload.append(("delete", keys))
        return Op("ingest", payload=payload)

    def _append(self, rng):
        slot = self._open_slot()
        self.present[:, slot] = True
        self.value[:, slot] = [rng.randrange(640) / 64.0
                               for _ in range(self.users)]
        return Op("append", payload=self._slot_rows(slot))

    def write_units(self, op):
        if op.kind == "ingest":
            return sum(len(rows) for _kind, rows in op.payload)
        return len(op.payload) if op.kind == "append" else 1

    def apply_write(self, op):
        if op.kind == "ingest":
            for kind, rows in op.payload:
                getattr(self.writer, kind)(rows)
            self.writer.flush()
        elif op.kind == "append":
            dgf_builder.append_with_dgf(self.conn.session, TABLE, INDEX,
                                        op.payload)
        else:
            return self.writer.compact().rewritten_cells

    # ---------------------------------------------------------------- reads
    def _box(self, u_lo, u_hi, s_lo, s_hi):
        present = self.present[u_lo:u_hi, s_lo:s_hi]
        return present, np.where(present, self.value[u_lo:u_hi, s_lo:s_hi],
                                 0.0)

    @staticmethod
    def _answer(present, value):
        count = int(present.sum())
        return (float(value.sum()) if count else None, count)

    def _reads(self, rng, tag):
        s_hi = self.top
        s_lo = max(0, s_hi - READ_SLOTS)
        slots = (FIRST_SLOT + s_lo, FIRST_SLOT + s_hi)
        ops = []
        for _ in range(POINTS):
            user, slot = rng.choice(self.written)
            ops.append(Op("point", tag=tag, sql=SQL_POINT,
                          params=(user, FIRST_SLOT + slot),
                          expected=[self._answer(
                              *self._box(user, user + 1, slot, slot + 1))]))
        for share in AGG_WIDTHS:
            width = max(1, round(share * self.users))
            u_lo = rng.randrange(1, self.users - width)
            ops.append(Op("agg", tag=tag, sql=SQL_AGG,
                          params=(u_lo, u_lo + width, *slots),
                          expected=[self._answer(
                              *self._box(u_lo, u_lo + width, s_lo, s_hi))]))
        for share in GROUPBY_WIDTHS:
            width = max(1, round(share * self.users))
            u_lo = rng.randrange(1, self.users - width)
            present, value = self._box(u_lo, u_lo + width, s_lo, s_hi)
            regions = self.region[u_lo:u_lo + width]
            expected = []
            for region in range(REGIONS):
                rows = regions == region
                answer = self._answer(present[rows], value[rows])
                if answer[1]:
                    expected.append((region, *answer))
            ops.append(Op("groupby", tag=tag, sql=SQL_GROUPBY,
                          params=(u_lo, u_lo + width, *slots),
                          expected=expected))
        rng.shuffle(ops)
        return ops

    def block(self, k):
        rng = self.rng("block", k)
        ops = [self._burst(rng)]
        ops += self._reads(rng, "resident")
        ops.append(self._append(rng))
        ops += self._reads(rng, "resident")
        ops.append(self._burst(rng))
        ops += self._reads(rng, "resident")
        ops.append(Op("compact"))
        ops.append(self._append(rng))
        ops += self._reads(rng, "compacted")
        return ops
