"""The closed loop: one client, one thread, one public call at a time.

A workload hands the harness *blocks* of operations generated from the
seed, each read carrying the answer an independent oracle computed for it
before any timing started.  The harness times each public call with
``perf_counter_ns``, keeps only what the metrics need, and checks every
read against its oracle answer after the block's last timed call.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
from time import perf_counter_ns

READ_KINDS = ("point", "agg", "groupby", "join", "scan")
WRITE_KINDS = ("ingest", "append", "compact")

#: relative tolerance for float aggregates (values are exact binary
#: fractions, so a correct program matches to the last bit)
FLOAT_RTOL = 1e-9


class Op:
    """One public call.  Reads carry SQL text, qmark parameters, options
    and the oracle's ``expected`` rows; writes carry a ``payload`` their
    workload knows how to apply."""

    __slots__ = ("kind", "tag", "sql", "params", "options", "expected",
                 "payload")

    def __init__(self, kind, *, tag="", sql=None, params=None, options=None,
                 expected=None, payload=None):
        self.kind = kind
        self.tag = tag
        self.sql = sql
        self.params = params
        self.options = options
        self.expected = expected
        self.payload = payload


class Sample:
    """What one timed call left behind."""

    __slots__ = ("kind", "tag", "block", "ns", "units", "ok", "sim_s",
                 "facts", "info", "store")

    def __init__(self, kind, tag, block):
        self.kind = kind
        self.tag = tag
        self.block = block
        self.ns = 0
        self.units = 1
        self.ok = True
        self.sim_s = 0.0
        self.facts = None   # read_facts() of a read
        self.info = None    # what a write reported about itself
        self.store = None   # change of store_counters() over the call


# ------------------------------------------------------------------ oracle
def _values_match(got, want):
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0)
    return type(got) is type(want) and got == want


def rows_match(got_rows, expected_rows):
    """Order-insensitive comparison of result rows with oracle rows:
    keys, counts and NULLs exact, float aggregates to ``FLOAT_RTOL``."""
    if len(got_rows) != len(expected_rows):
        return False
    try:
        got_rows = sorted(tuple(row) for row in got_rows)
    except TypeError:  # a NULL where the oracle has a value, or the reverse
        return False
    for got, want in zip(got_rows, expected_rows):
        if len(got) != len(want):
            return False
        if not all(_values_match(g, w) for g, w in zip(got, want)):
            return False
    return True


# -------------------------------------------------------------------- facts
def read_facts(result):
    """Counts the product reports on a finished read (``QueryResult``
    fields only; read outside the timed interval)."""
    stats = result.stats
    plan = result.plan
    access = plan.access if plan is not None else None
    return {
        "kv_logical": stats.index_kv_gets,
        "jobs": stats.jobs,
        "splits": stats.splits_processed,
        "records_read": stats.records_read,
        "records_matched": stats.records_matched,
        "bytes_read": stats.bytes_read,
        "dgf": access is not None and access.handler == "dgf",
        "cells": (access.inner_gfus + access.boundary_gfus
                  if access is not None else 0),
        "layout": access.layout if access is not None else None,
        "pyramid_probes": (access.pyramid_nodes + access.pyramid_leaves
                           if access is not None else 0),
        "vectorized": bool(plan is not None and plan.vectorized),
    }


def store_counters(conn):
    """Physical KV and GFU-cache counters, from the public snapshots."""
    kv = conn.session.kvstore.snapshot_stats()
    cache = conn.cache.snapshot() if conn.cache is not None else {}
    return (kv.gets, kv.puts, cache.get("hits", 0), cache.get("misses", 0),
            cache.get("evictions", 0), cache.get("invalidations", 0))


STORE_FIELDS = ("kv_gets", "kv_puts", "cache_hits", "cache_misses",
                "cache_evictions", "cache_invalidations")


def timed_read(conn, op, options=None):
    """One read outside any pass: ``(wall ns, QueryResult)``."""
    start = perf_counter_ns()
    result = conn.execute(op.sql, op.params,
                          options=options if options is not None
                          else op.options)
    return perf_counter_ns() - start, result


# ------------------------------------------------------------------ the loop
class PassResult:
    def __init__(self):
        self.samples = []
        self.blocks = 0
        self.failures = []   # short messages, for stderr

    def of(self, *kinds):
        return [s for s in self.samples if s.kind in kinds]

    @property
    def reads(self):
        return self.of(*READ_KINDS)

    @staticmethod
    def _operations(sample):
        """A streaming burst counts one operation per row."""
        return sample.units if sample.kind == "ingest" else 1

    @property
    def attempted(self):
        return sum(map(self._operations, self.samples))

    @property
    def failed(self):
        return sum(self._operations(s) for s in self.samples if not s.ok)


def run_block(workload, ops, block, out, *, facts=False, recorder=None):
    """Execute one block's operations in order, timing each public call,
    then check every read against the oracle; returns the ns spent in
    timed calls.  ``facts`` also keeps the counts the product reports
    about each call (all read outside the timed interval); ``recorder``
    opens a root span around each call."""
    conn = workload.conn
    pending = []
    spent = 0
    for op in ops:
        sample = Sample(op.kind, op.tag, block)
        error = None
        result = None
        is_read = op.kind in READ_KINDS
        if not is_read:
            sample.units = workload.write_units(op)
        if facts:
            before = store_counters(conn)
        if recorder is not None:
            recorder.begin_op(len(out.samples))
        start = perf_counter_ns()
        try:
            if is_read:
                result = conn.execute(op.sql, op.params, options=op.options)
            else:
                result = workload.apply_write(op)
        except Exception as exc:  # the boundary that must keep running
            error = exc
        sample.ns = perf_counter_ns() - start
        if recorder is not None:
            recorder.end_op()
        if facts:
            sample.store = dict(zip(STORE_FIELDS, (
                after - earlier for after, earlier
                in zip(store_counters(conn), before))))
        spent += sample.ns
        if error is not None:
            sample.ok = False
            out.failures.append(
                f"{op.kind} raised {type(error).__name__}: {error}")
        elif is_read:
            sample.sim_s = result.stats.simulated_seconds
            if facts:
                sample.facts = read_facts(result)
            pending.append((sample, op, result.rows))
        else:
            sample.info = result
        out.samples.append(sample)
    for sample, op, rows in pending:
        if not rows_match(rows, op.expected):
            sample.ok = False
            out.failures.append(
                f"{op.kind} {op.params}: got {_clip(rows)} "
                f"want {_clip(op.expected)}")
    out.blocks += 1
    return spent


def _clip(rows, limit=3):
    text = repr(list(rows[:limit]))
    return text if len(rows) <= limit else f"{text[:-1]}, ... {len(rows)} rows]"


def run_pass(workload, first_block, *, seconds=None, blocks=None,
             facts=False, recorder=None):
    """Run whole blocks from ``first_block`` on: exactly ``blocks`` of
    them, or (``blocks`` is None) as many as ``seconds`` buys — counted
    in timed-call time, or at the workload's frozen rate when its state
    grows with every block."""
    if blocks is None and workload.BLOCKS_PER_SECOND is not None:
        blocks = max(1, round(seconds * workload.BLOCKS_PER_SECOND))
    out = PassResult()
    budget_ns = None if blocks is not None else int(seconds * 1e9)
    spent = 0
    gc.collect()
    block = first_block
    while True:
        spent += run_block(workload, workload.block(block), block, out,
                           facts=facts, recorder=recorder)
        block += 1
        if (out.blocks >= blocks if blocks is not None
                else spent >= budget_ns):
            return out


# ------------------------------------------------------------------- numbers
def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def p50_ms(samples):
    return statistics.median(s.ns for s in samples) / 1e6 if samples else 0.0


def block_wall_ms(result):
    per_block = {}
    for s in result.samples:
        per_block[s.block] = per_block.get(s.block, 0) + s.ns
    return [ns / 1e6 for ns in per_block.values()]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(result, setup_s):
    reads = result.reads
    read_s = sum(s.ns for s in reads) / 1e9
    return {
        "setup_s": setup_s,
        "queries_per_s": len(reads) / read_s,
        "query_p95_ms": percentile([s.ns for s in reads], 95) / 1e6,
        "point_p50_ms": p50_ms(result.of("point")),
        "agg_p50_ms": p50_ms(result.of("agg")),
        "groupby_p50_ms": p50_ms(result.of("groupby")),
        "round_ms": statistics.median(block_wall_ms(result)),
        "sim_s_per_query": statistics.fmean(s.sim_s for s in reads),
        "peak_rss_mb": peak_rss_mb(),
    }


def report_failures(result, limit=5):
    for message in result.failures[:limit]:
        print("FAILED:", message, file=sys.stderr)
    if len(result.failures) > limit:
        print(f"... and {len(result.failures) - limit} more",
              file=sys.stderr)
