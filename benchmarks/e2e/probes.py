"""Span probes the benchmark installs around the program's layer entry points.

Only the traced pass uses this module.  The probe table names every
layer boundary by dotted path; names are resolved when the probes are
installed, and one that no longer resolves is reported in ``missing``
instead of raising — a rename inside the program costs a per-layer
number, never the benchmark.

A *span* probe records ``[id, parent, qid, name, start_ns, end_ns, folded]``
in memory.  A *fold* probe (hot leaves called thousands of times per
query) records no span: it adds ``(calls, total_ns, value)`` to its
parent span's ``folded`` dict.  A layer's self time is its span minus
the part its child spans and folded leaves cover.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from time import perf_counter_ns

SPAN = "span"
FOLD = "fold"

#: probe name -> (module, attribute path inside it, kind)
PROBE_TABLE = {
    "api.bind": ("repro.api", "bind_parameters", SPAN),
    "hiveql.parse": ("repro.hiveql.parser", "parse", SPAN),
    "hiveql.extract_ranges":
        ("repro.hiveql.predicates", "extract_ranges", SPAN),
    "hive.analyze": ("repro.hive.exec", "analyze", SPAN),
    "hive.build_job": ("repro.hive.exec", "build_job", SPAN),
    "hive.join_build": ("repro.hive.exec", "load_join_hash_tables", SPAN),
    "hive.finalize_group":
        ("repro.hive.exec", "finalize_group_output", SPAN),
    "hive.order_limit": ("repro.hive.exec", "apply_order_and_limit", SPAN),
    "hive.session": ("repro.hive.session", "HiveSession.execute", SPAN),
    "dgf.plan_access":
        ("repro.core.dgf.handler", "DgfIndexHandler.plan_access", SPAN),
    "dgf.search_grid": ("repro.core.dgf.grid", "search_grid", SPAN),
    "dgf.header_fetch": ("repro.core.dgf.store", "DgfStore.multi_get", SPAN),
    "dgf.filter_splits":
        ("repro.core.dgf.inputformat", "slices_to_splits", SPAN),
    "dgf.append": ("repro.core.dgf.builder", "append_with_dgf", SPAN),
    "pyramid.decompose":
        ("repro.pyramid.decompose", "decompose_region", SPAN),
    "pyramid.resolve": ("repro.pyramid.decompose", "resolve_cover", SPAN),
    "pyramid.refresh": ("repro.pyramid.build", "refresh_cells", SPAN),
    "cache.lookup":
        ("repro.service.cache", "GfuMetadataCache.lookup", FOLD),
    "cache.fill": ("repro.service.cache", "GfuMetadataCache.fill", SPAN),
    "kv.multi_get": ("repro.kvstore.hbase", "KVStore.multi_get", SPAN),
    "kv.get": ("repro.kvstore.hbase", "KVStore.get", FOLD),
    "kv.put": ("repro.kvstore.hbase", "KVStore.put", FOLD),
    "mr.run": ("repro.mapreduce.engine", "MapReduceEngine.run", SPAN),
    "vector.compile": ("repro.vector.plan", "compile_select", SPAN),
    "vector.map_task":
        ("repro.vector.plan", "VectorSelectPlan.run_map_task", SPAN),
    "hdfs.pread": ("repro.hdfs.filesystem", "HDFSReader.pread", FOLD),
    "hdfs.write": ("repro.hdfs.filesystem", "HDFSWriter.write", FOLD),
    "delta.ingest": ("repro.delta.store", "DeltaBinding.ingest", SPAN),
    "delta.overlay": ("repro.delta.store", "DeltaBinding.build_overlay",
                      SPAN),
    "delta.compact": ("repro.delta.compact", "Compactor.run", SPAN),
}

#: fold probes that also sum a value per call (here: bytes written)
FOLD_VALUES = {"hdfs.write": lambda args: len(args[1])}

# span list layout
ID, PARENT, QID, NAME, START, END, FOLDED = range(7)


class Recorder:
    """In-memory span store shared by every installed probe."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.root = None      # span of the public call in flight
        self.qid = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []    # (owner, attribute, original)

    # -------------------------------------------------------------- spans
    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin_op(self, qid):
        """Open the root span of one public call (the ``api`` layer)."""
        self.qid = qid
        self.root = [next(self._ids), -1, qid, "op", 0, 0, None]
        self.root[START] = perf_counter_ns()
        return self.root

    def end_op(self):
        root = self.root
        root[END] = perf_counter_ns()
        self.spans.append(root)
        self.root = None
        self.qid = -1

    def _span_wrapper(self, name, fn):
        ids, spans, stack_of = self._ids, self.spans, self._stack

        def probe(*args, **kwargs):
            stack = stack_of()
            # A worker thread's first span hangs off the call in flight:
            # one client, so there is exactly one.
            parent = stack[-1] if stack else self.root
            span = [next(ids), parent[ID] if parent is not None else -1,
                    self.qid, name, 0, 0, None]
            stack.append(span)
            span[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                spans.append(span)

        probe.__wrapped__ = fn
        return probe

    def _fold_wrapper(self, name, fn):
        stack_of = self._stack
        value_of = FOLD_VALUES.get(name)

        def probe(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack = stack_of()
                parent = stack[-1] if stack else self.root
                if parent is not None:
                    folded = parent[FOLDED]
                    if folded is None:
                        folded = parent[FOLDED] = {}
                    calls, total, value = folded.get(name, (0, 0, 0))
                    if value_of is not None:
                        value += value_of(args)
                    folded[name] = (calls + 1, total + elapsed, value)

        probe.__wrapped__ = fn
        return probe

    # ------------------------------------------------------------ install
    def install(self):
        """Wrap every resolvable probe target; collect the rest in
        ``missing``."""
        for name, (module_name, path, kind) in PROBE_TABLE.items():
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(original, (staticmethod, classmethod)):
                self.missing.append(name)  # would need descriptor re-wrap
                continue
            make = self._span_wrapper if kind == SPAN else self._fold_wrapper
            wrapper = make(name, original)
            if parents:
                setattr(owner, attribute, wrapper)
                self._patched.append((owner, attribute, original))
            else:
                # ``from x import f`` copies the function into the
                # importer's namespace: rebind every copy under repro.
                _rebind_everywhere(original, wrapper)
                self._patched.append((None, wrapper, original))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if owner is None:
                # also reaches modules first imported while installed,
                # which copied the wrapper
                _rebind_everywhere(attribute, original)
            else:
                setattr(owner, attribute, original)


def _rebind_everywhere(old, new):
    """Point every ``repro.*`` module attribute that *is* ``old`` at
    ``new``."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attribute, value in list(vars(module).items()):
            if value is old:
                setattr(module, attribute, new)


def self_times(spans):
    """``{span id: self ns}``: duration minus the part covered by direct
    children (clipped to the parent's interval) and folded leaves."""
    covered = {}
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is None:
            continue
        overlap = (min(span[END], parent[END])
                   - max(span[START], parent[START]))
        if overlap > 0:
            covered[parent[ID]] = covered.get(parent[ID], 0) + overlap
    out = {}
    for span in spans:
        folded = sum(total for _c, total, _v in (span[FOLDED] or {}).values())
        out[span[ID]] = (span[END] - span[START]
                         - covered.get(span[ID], 0) - folded)
    return out
