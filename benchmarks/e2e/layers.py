"""Per-layer metrics of the traced run.

Two passes over the same blocks, each on a fresh set-up, feed this
module: pass A untraced (class latencies, and every count the product
reports about itself: ``QueryResult`` fields and public snapshot deltas),
pass B with the span probes installed (wall time per layer).  ``*_ms`` metrics are mean wall
milliseconds per timed read of pass B, self time unless the README marks
them inclusive; a metric whose layer the workload never enters, or whose
probe no longer resolves, reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import READ_KINDS, WRITE_KINDS, p50_ms, percentile
from probes import END, FOLDED, ID, NAME, QID, START, self_times

READ = "read"


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


class SpanTotals:
    """Span and fold totals of pass B, grouped by the kind of public call
    they ran under (all read classes together as ``read``)."""

    def __init__(self, spans, samples):
        self.incl = defaultdict(int)     # (group, probe) -> ns
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.fold_ns = defaultdict(int)
        self.fold_calls = defaultdict(int)
        self.fold_value = defaultdict(int)
        self.dispatch_ns = 0
        own = self_times(spans)
        first = {}                       # (qid, probe) -> earliest span
        for span in spans:
            qid = span[QID]
            if not 0 <= qid < len(samples):
                continue
            kind = samples[qid].kind
            group = READ if kind in READ_KINDS else kind
            key = (group, span[NAME])
            self.incl[key] += span[END] - span[START]
            self.self_ns[key] += own[span[ID]]
            self.calls[key] += 1
            for name, (calls, total, value) in (span[FOLDED] or {}).items():
                self.fold_ns[group, name] += total
                self.fold_calls[group, name] += calls
                self.fold_value[group, name] += value
            seen = first.get((qid, span[NAME]))
            if seen is None or span[START] < seen[START]:
                first[qid, span[NAME]] = span
        # service.dispatch: end of parameter binding (or entry of the
        # public call) to entry of HiveSession.execute, reads only
        for (qid, name), root in first.items():
            if name != "op" or samples[qid].kind not in READ_KINDS:
                continue
            session = first.get((qid, "hive.session"))
            if session is None:
                continue
            bind = first.get((qid, "api.bind"))
            entered = bind[END] if bind is not None else root[START]
            self.dispatch_ns += max(0, session[START] - entered)

    def self_by_probe(self, group):
        """``{probe: self ns}`` incl. folded leaves: partitions the wall
        time of the group's public calls."""
        out = {name: ns for (g, name), ns in self.self_ns.items()
               if g == group}
        for (g, name), ns in self.fold_ns.items():
            if g == group:
                out[name] = out.get(name, 0) + ns
        return out


def layer_metrics(a, b, recorder, ratios):
    """``{metric name: value}`` from untraced pass ``a``, traced pass
    ``b`` and the workload's ratio samples."""
    totals = SpanTotals(recorder.spans, b.samples)
    reads_a, reads_b = a.reads, b.reads
    n_a, n_b = len(reads_a), len(reads_b)

    def self_ms(*probes):
        return sum(totals.self_ns[READ, p] for p in probes) / n_b / 1e6

    def incl_ms(probe, group=READ, per=n_b):
        return _ratio(totals.incl[group, probe] / 1e6, per)

    def fold_ms(probe):
        return totals.fold_ns[READ, probe] / n_b / 1e6

    def fact(name):
        return sum(s.facts[name] for s in reads_a if s.facts is not None)

    def store(samples, name):
        return sum(s.store[name] for s in samples if s.store is not None)

    def units(result, *kinds):
        return sum(s.units for s in result.of(*kinds))

    def per_second(result, kind):
        samples = result.of(kind)
        return _ratio(sum(s.units for s in samples),
                      sum(s.ns for s in samples) / 1e9)

    writes_a = a.of(*WRITE_KINDS)
    row_writes_a = units(a, "ingest", "append")
    row_writes_b = units(b, "ingest", "append")
    appends_b = len(b.of("append"))
    compactions = a.of("compact")
    # a compaction that raised reported nothing about itself
    rewritten = [s.info for s in compactions if s.ok]
    jobs_run = [s for s in reads_a if s.facts and s.facts["jobs"]]
    lookups = store(reads_a, "cache_hits") + store(reads_a, "cache_misses")
    root_self = totals.self_ns[READ, "op"]
    resident = [s for s in a.of("agg") if s.tag == "resident"]
    compacted = [s for s in a.of("agg") if s.tag == "compacted"]
    qps_a = _ratio(n_a, sum(s.ns for s in reads_a) / 1e9)
    qps_b = _ratio(n_b, sum(s.ns for s in reads_b) / 1e9)

    metrics = {
        # api / service
        "api.bind_ms": self_ms("api.bind"),
        "api.self_ms": (root_self - totals.dispatch_ns) / n_b / 1e6,
        "service.dispatch_ms": totals.dispatch_ns / n_b / 1e6,
        # hiveql
        "hiveql.parse_ms": self_ms("hiveql.parse"),
        "hiveql.extract_ranges_ms": self_ms("hiveql.extract_ranges"),
        # hive
        "hive.analyze_ms": self_ms("hive.analyze"),
        "hive.session_self_ms": self_ms("hive.session"),
        "hive.build_job_ms": self_ms("hive.build_job"),
        "hive.finalize_ms": self_ms("hive.finalize_group",
                                    "hive.order_limit"),
        "hive.join_build_ms": self_ms("hive.join_build"),
        # core.dgf
        "dgf.plan_access_ms": incl_ms("dgf.plan_access"),
        "dgf.plan_self_ms": self_ms("dgf.plan_access"),
        "dgf.search_grid_ms": self_ms("dgf.search_grid"),
        "dgf.search_grid_calls_per_query": _ratio(
            totals.calls[READ, "dgf.search_grid"],
            totals.calls[READ, "dgf.plan_access"]),
        "dgf.cells_per_query": _ratio(fact("cells"), n_a),
        "dgf.header_fetch_ms": incl_ms("dgf.header_fetch"),
        "dgf.filter_splits_ms": self_ms("dgf.filter_splits"),
        "dgf.read_amplification": _ratio(fact("records_read"),
                                         fact("records_matched")),
        "dgf.append_ms": incl_ms("dgf.append", "append", appends_b),
        "fleet.routed_share": _ratio(
            sum(1 for s in reads_a if s.facts
                and s.facts["layout"] not in (None, "primary")), n_a),
        "fleet.primary_over_routed":
            ratios.get("fleet.primary_over_routed", 0.0),
        # pyramid
        "pyramid.decompose_ms": self_ms("pyramid.decompose"),
        "pyramid.resolve_ms": self_ms("pyramid.resolve"),
        "pyramid.probes_per_query": _ratio(fact("pyramid_probes"), n_a),
        "pyramid.flat_over_pyramid":
            ratios.get("pyramid.flat_over_pyramid", 0.0),
        "pyramid.refresh_ms_per_append":
            incl_ms("pyramid.refresh", "append", appends_b),
        # service.cache
        "cache.lookup_ms": fold_ms("cache.lookup"),
        "cache.fill_ms": self_ms("cache.fill"),
        "cache.hit_rate": _ratio(store(reads_a, "cache_hits"), lookups),
        "cache.evictions_per_query":
            _ratio(store(reads_a, "cache_evictions"), n_a),
        "cache.invalidations_per_write_op":
            _ratio(store(writes_a, "cache_invalidations"), row_writes_a),
        # kvstore
        "kv.multi_get_ms": self_ms("kv.multi_get"),
        "kv.physical_gets_per_query":
            _ratio(store(reads_a, "kv_gets"), n_a),
        "kv.logical_gets_per_query": _ratio(fact("kv_logical"), n_a),
        "kv.puts_per_write_op":
            _ratio(store(writes_a, "kv_puts"), row_writes_a),
        # mapreduce
        "mr.run_ms": incl_ms("mr.run"),
        "mr.self_ms": self_ms("mr.run"),
        "mr.jobs_per_query": _ratio(fact("jobs"), n_a),
        "mr.splits_per_query": _ratio(fact("splits"), n_a),
        "mr.records_read_per_query": _ratio(fact("records_read"), n_a),
        # vector
        "vector.compile_ms": self_ms("vector.compile"),
        "vector.map_task_ms": incl_ms("vector.map_task"),
        "vector.used_share": _ratio(
            sum(1 for s in jobs_run if s.facts["vectorized"]),
            len(jobs_run)),
        # hdfs / storage
        "hdfs.pread_ms": fold_ms("hdfs.pread"),
        "hdfs.read_ops_per_query":
            totals.fold_calls[READ, "hdfs.pread"] / n_b,
        "hdfs.bytes_read_per_query": _ratio(fact("bytes_read"), n_a),
        "hdfs.bytes_written_per_write_op": _ratio(
            sum(totals.fold_value[kind, "hdfs.write"]
                for kind in WRITE_KINDS),
            row_writes_b),
        # delta
        "delta.ingest_ms_per_op":
            incl_ms("delta.ingest", "ingest", units(b, "ingest")),
        "delta.overlay_ms": incl_ms("delta.overlay"),
        "delta.resident_over_compacted":
            _ratio(p50_ms(resident), p50_ms(compacted)),
        "delta.compact_ms":
            incl_ms("delta.compact", "compact", len(b.of("compact"))),
        "delta.rewritten_cells_per_compaction":
            statistics.fmean(rewritten) if rewritten else 0.0,
        # classes and writes only some workloads have (untraced pass)
        "join_p50_ms": p50_ms(a.of("join")),
        "scan_p50_ms": p50_ms(a.of("scan")),
        "ingest_ops_per_s": per_second(a, "ingest"),
        "append_rows_per_s": per_second(a, "append"),
        "compact_s": (statistics.fmean(s.ns for s in compactions) / 1e9
                      if compactions else 0.0),
        # run level
        "query_p99_ms": percentile([s.ns for s in reads_a], 99) / 1e6,
        "trace.overhead_share": 1.0 - _ratio(qps_b, qps_a),
        "probes_missing": len(recorder.missing),
    }
    summary = {
        "read_wall_ms": sum(s.ns for s in reads_b) / n_b / 1e6,
        "read_self_ms": {name: ns / n_b / 1e6 for name, ns
                         in sorted(totals.self_by_probe(READ).items())},
    }
    return metrics, summary
