"""Compactor: fold resident deltas back into base slices, as a Workflow.

DualTable's background merge, expressed as a
:class:`~repro.workflow.dag.Workflow` so it runs under the same bounded
retry / fault-injection machinery as every other multi-step job:

``snapshot`` — capture the resident ops up to a watermark and classify
cells: *fold* cells hold only inserts, *rewrite* cells hold tombstones.

``fold`` — stage the fold cells' rows (global sequence order, exactly the
order :func:`~repro.core.dgf.builder.append_with_dgf` would have written
them) and run the append build job at the next generation.  The reducer
writes each cell's merged GFUValue with ``compacted_seq = watermark`` in
a single put, and the engine's reduce tasks only ever crash before their
first side effect, so this step is chaos-safe without its own retry.

``rewrite`` — every base file holding a slice of a tombstoned cell is
rewritten *in place*, whole: suppressed keys dropped, surviving delta
rows appended at the cell's first slice, co-resident cells' slices
copied verbatim at their new offsets.  Whole-file rewrite is not
optional: the table's files ARE the logical table (a full scan reads
every byte of every file), so superseded rows cannot stay behind as
dead space.  Each touched cell's GFUValue is swapped in one put (new
header and locations; tombstoned cells also take the watermark), and
the reclaimed bytes are reported.  Source rows are read once and staged
on the workflow context, so bounded action retry replays identical
writes even after a partial failure.

``commit`` — recompute bounds, bump the generation, prune every
snapshotted op (``seq <= watermark``) from the delta cells.  Cache
coherence rides the KV write listeners — every put/delete above evicts
exactly its own entry, never a table namespace.

Correctness protocol with concurrent readers: merge-on-read loads delta
cells *before* base values; this workflow writes watermarked base values
*before* pruning.  Whatever the interleaving, an op is applied exactly
once — still in the delta and gated by the watermark, or folded into the
base and pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.core.dgf.builder import (_SliceWriter, compile_precompute,
                                    compute_bounds, parse_precompute_spec,
                                    run_build_job, PRECOMPUTE_PROPERTY)
from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.inputformat import SLICES_META_KEY, DgfSliceInputFormat
from repro.delta.overlay import resolve_ops
from repro.delta.store import DeltaBinding, INSERT
from repro.errors import DeltaError
from repro.hive import formats
from repro.mapreduce.splits import FileSplit
from repro.workflow.dag import Workflow, WorkflowRun


@dataclass
class CompactionReport:
    """What one compaction folded (also mirrored to ``delta:compact``
    span counters and the session metrics registry)."""

    table: str
    index: str
    watermark: int = 0
    generation: Optional[int] = None
    folded_cells: int = 0
    rewritten_cells: int = 0
    folded_rows: int = 0
    suppressed_rows: int = 0
    pruned_ops: int = 0
    dead_bytes: int = 0
    run: Optional[WorkflowRun] = None

    @property
    def compacted_cells(self) -> int:
        return self.folded_cells + self.rewritten_cells


#: stand-in GFUValue for tombstoned cells with no base entry at all.
_NO_VALUE = GFUValue(header={}, locations=[], records=0)


class Compactor:
    """Folds a binding's resident deltas into fresh base slices."""

    def __init__(self, binding: DeltaBinding, rewrite_attempts: int = 3):
        self.binding = binding
        self.rewrite_attempts = rewrite_attempts

    def _stage_rewrite(self, rewrite_cells: Dict[str, list]
                       ) -> Dict[str, Any]:
        """Read-once staging for the rewrite action.

        Resolves each tombstoned cell's suppressed keys and surviving
        rows against its *current* watermark, snapshots every GFU entry,
        and reads the full slice layout and rows of every affected file
        (any file holding a slice of a tombstoned cell).  Staged on the
        workflow context so a retried rewrite replays identical writes
        instead of re-reading offsets it may already have moved.
        """
        binding = self.binding
        session = binding.session
        store = binding.dgf_store
        reader = DgfSliceInputFormat(binding.table)

        resolved = {}
        for cell in sorted(rewrite_cells):
            base = store.get_value(cell)
            watermark = base.compacted_seq if base is not None else 0
            resolved[cell] = resolve_ops(rewrite_cells[cell], watermark,
                                         binding.row_key)

        cell_values = dict(store.iter_entries())
        affected_paths = sorted({
            location.file for cell in resolved
            for location in cell_values.get(cell, _NO_VALUE).locations})
        affected: Dict[str, list] = {}
        for path in affected_paths:
            slices = sorted(
                (location.start, location.end, cell)
                for cell, value in cell_values.items()
                for location in value.locations if location.file == path)
            length = session.fs.file_length(path)
            staged = []
            for start, end, cell in slices:
                split = FileSplit(path=path, start=0, length=length)
                split.meta[SLICES_META_KEY] = [(start, end)]
                rows = [tuple(row) for _off, row
                        in reader.read_split(session.fs, split)]
                staged.append(((start, end, cell), rows))
            affected[path] = staged
        return {"resolved": resolved, "values": cell_values,
                "affected": affected}

    def run(self, cells: Optional[Sequence[str]] = None
            ) -> CompactionReport:
        """Compact ``cells`` (default: every resident cell).  Restricting
        the cell set yields reproducible mid-compaction states — the
        differential suite queries between two such partial runs."""
        binding = self.binding
        session = binding.session
        # Compaction folds delta ops into the *primary* copy only; any
        # replica-fleet layouts would be missing the folded rows once the
        # ops are pruned.  Drop the fleet up front (re-add layouts after
        # compacting) rather than ever serving a stale copy.
        from repro.core.dgf import fleet
        fleet.drop_layouts(session, binding.table, binding.index)
        report = CompactionReport(table=binding.table.name,
                                  index=binding.index.name)
        with session.tracer.span("delta:compact") as span:
            workflow = self._workflow(cells, report)
            report.run = workflow.run(context={})
            if not report.run.succeeded:
                failed = [r for r in report.run.results.values()
                          if r.error is not None]
                raise DeltaError(
                    f"compaction of {binding.table.name!r} failed: "
                    + "; ".join(f"{r.name}: {r.error}" for r in failed))
            span.add("delta.folded_cells", report.folded_cells)
            span.add("delta.rewritten_cells", report.rewritten_cells)
            span.add("delta.folded_rows", report.folded_rows)
            span.add("delta.suppressed_rows", report.suppressed_rows)
            span.add("delta.pruned_ops", report.pruned_ops)
            span.add("delta.dead_bytes", report.dead_bytes)
        metrics = session.metrics
        metrics.counter("delta_compactions_total",
                        "streaming compactions completed").inc()
        metrics.counter("delta_folded_rows_total",
                        "delta rows folded into base slices").inc(
                            report.folded_rows)
        metrics.gauge("delta_resident_ops",
                      "delta ops resident (unfolded) in the KV store").set(
                          binding.resident_ops)
        return report

    # ----------------------------------------------------------- the actions
    def _workflow(self, cells: Optional[Sequence[str]],
                  report: CompactionReport) -> Workflow:
        binding = self.binding
        session = binding.session
        table = binding.table
        store = binding.dgf_store
        policy = binding.policy
        calls = parse_precompute_spec(
            binding.index.properties.get(PRECOMPUTE_PROPERTY, ""))
        aggregates = compile_precompute(table, calls)
        shared: Dict[str, Any] = {}

        def snapshot(_ctx):
            watermark, snap = binding.snapshot(cells)
            report.watermark = watermark
            shared["snapshot"] = snap
            shared["fold"] = {
                cell: ops for cell, ops in snap.items()
                if all(op[1] == INSERT for op in ops)}
            shared["rewrite"] = {
                cell: ops for cell, ops in snap.items()
                if cell not in shared["fold"]}
            if snap:
                shared["generation"] = store.get_meta("generation") + 1
                report.generation = shared["generation"]
            return {"cells": len(snap), "watermark": watermark}

        def fold(_ctx):
            fold_cells = shared["fold"]
            if not fold_cells:
                return {"rows": 0}
            # Global sequence order across cells reproduces the order an
            # equivalent append_with_dgf would have staged these rows, so
            # an insert-only compaction is byte-identical to the append.
            staged = sorted(
                (op[0], op[3]) for ops in fold_cells.values()
                for op in ops)
            generation = shared["generation"]
            staging = (f"/tmp/dgf-compact/{table.name.lower()}"
                       f"/g{generation:03d}")
            if session.fs.exists(staging):
                session.fs.delete(staging, recursive=True)
            session.fs.mkdirs(staging)
            with formats.open_row_writer(session.fs, f"{staging}/data_0",
                                         table) as writer:
                for _seq, row in staged:
                    writer.write_row(row)
            output_dir = table.properties["dgf_data_location"]
            run_build_job(session, table, binding.index, policy,
                          aggregates, [staging], output_dir,
                          generation=generation,
                          compacted_seq=report.watermark)
            session.fs.delete(staging, recursive=True)
            report.folded_cells = len(fold_cells)
            report.folded_rows += len(staged)
            return {"rows": len(staged)}

        def rewrite(_ctx):
            rewrite_cells = shared["rewrite"]
            if not rewrite_cells:
                return {"cells": 0}
            generation = shared["generation"]
            output_dir = table.properties["dgf_data_location"]
            fs = session.fs
            suppressed = rows_written = dead = 0

            if "rewrite_staged" not in shared:
                shared["rewrite_staged"] = self._stage_rewrite(rewrite_cells)
            staged = shared["rewrite_staged"]
            resolved = staged["resolved"]
            cell_values = staged["values"]
            affected = staged["affected"]

            # Where each tombstoned cell's surviving delta rows land: right
            # after the kept rows of its first existing slice.
            pending_at = {cell: (value.locations[0].file,
                                 value.locations[0].start)
                          for cell, value in cell_values.items()
                          if cell in resolved and value.locations}

            states: Dict[str, Dict[str, Any]] = {
                cell: {agg.key: agg.function.initial()
                       for agg in aggregates} for cell in resolved}
            counts = {cell: 0 for cell in resolved}
            new_locs: Dict[Any, Optional[SliceLocation]] = {}

            for path in sorted(affected):
                old_length = fs.file_length(path)
                plan = []
                for (start, _end, cell), rows in affected[path]:
                    if cell in resolved:
                        doomed, pending = resolved[cell]
                        kept = []
                        for row in rows:
                            if binding.row_key(row) in doomed:
                                suppressed += 1
                            else:
                                kept.append(row)
                        if pending_at.get(cell) == (path, start):
                            kept = kept + list(pending)
                        rows = kept
                    plan.append((start, cell, rows))
                if not any(rows for _s, _c, rows in plan):
                    # Every slice in the file emptied out; an empty file
                    # would still be enumerated by full scans, so drop it.
                    fs.delete(path)
                    for start, cell, _rows in plan:
                        new_locs[(cell, path, start)] = None
                    dead += old_length
                    continue
                writer = _SliceWriter(
                    formats.open_row_writer(fs, path, table,
                                            overwrite=True), path)
                for start, cell, rows in plan:
                    if not rows:
                        new_locs[(cell, path, start)] = None
                        continue
                    new_start = writer.boundary()
                    for row in rows:
                        writer.write_row(row)
                        if cell in resolved:
                            cell_states = states[cell]
                            for agg in aggregates:
                                cell_states[agg.key] = agg.accumulate_row(
                                    cell_states[agg.key], row)
                    new_end = writer.boundary()
                    new_locs[(cell, path, start)] = SliceLocation(
                        path, new_start, new_end)
                    if cell in resolved:
                        counts[cell] += len(rows)
                writer.close()
                dead += old_length - fs.file_length(path)

            # Swap every touched cell's GFUValue: rewritten slices take
            # their new offsets, slices in untouched files carry over.
            touched = sorted({cell for slices in affected.values()
                              for (_s, _e, cell), _rows in slices})
            for cell in touched:
                value = cell_values[cell]
                locations = []
                for location in value.locations:
                    key = (cell, location.file, location.start)
                    if key in new_locs:
                        if new_locs[key] is not None:
                            locations.append(new_locs[key])
                    else:
                        locations.append(location)
                if cell in resolved:
                    if not locations:
                        session.kvstore.delete(store.gfu_key(cell))
                        continue
                    store.put_value(cell, GFUValue(
                        header=dict(states[cell]),
                        locations=locations,
                        records=counts[cell],
                        compacted_seq=report.watermark))
                    rows_written += counts[cell]
                else:
                    store.put_value(cell, GFUValue(
                        header=value.header,
                        locations=locations,
                        records=value.records,
                        compacted_seq=value.compacted_seq))

            # Tombstoned cells with no base slices at all (a streamed
            # insert later deleted, or an insert+delete to a brand-new
            # cell): any surviving rows get a fresh slice file.
            baseless = [cell for cell in sorted(resolved)
                        if not cell_values.get(cell,
                                               _NO_VALUE).locations]
            for i, cell in enumerate(baseless):
                _doomed, pending = resolved[cell]
                if not pending:
                    if cell in cell_values:
                        session.kvstore.delete(store.gfu_key(cell))
                    continue
                path = f"{output_dir}/c{generation:03d}-{i:05d}_0"
                writer = _SliceWriter(
                    formats.open_row_writer(fs, path, table,
                                            overwrite=True), path)
                new_start = writer.boundary()
                cell_states = states[cell]
                for row in pending:
                    writer.write_row(row)
                    for agg in aggregates:
                        cell_states[agg.key] = agg.accumulate_row(
                            cell_states[agg.key], row)
                new_end = writer.boundary()
                writer.close()
                store.put_value(cell, GFUValue(
                    header=dict(cell_states),
                    locations=[SliceLocation(path, new_start, new_end)],
                    records=len(pending),
                    compacted_seq=report.watermark))
                rows_written += len(pending)

            report.rewritten_cells = len(rewrite_cells)
            report.folded_rows += rows_written
            report.suppressed_rows = suppressed
            report.dead_bytes = dead
            return {"cells": len(rewrite_cells), "rows": rows_written}

        def commit(_ctx):
            snap = shared["snapshot"]
            if not snap:
                return {"pruned": 0}
            store.put_meta("bounds", compute_bounds(store, policy))
            store.put_meta("generation", shared["generation"])
            report.pruned_ops = binding.prune(list(snap),
                                              report.watermark)
            # Repair the demoted ancestor chains of every folded cell.
            # Cells still resident after a partial compaction must keep
            # their demotion markers (keep_demoted), so summarized nodes
            # never cover an unfolded op.
            from repro.pyramid import PYRAMID_STATE_KEY, refresh_cells
            if PYRAMID_STATE_KEY in binding.index.state:
                refresh_cells(session, binding.index,
                              map(policy.cells_of_key, snap),
                              keep_demoted=map(policy.cells_of_key,
                                               binding.resident_cells))
            return {"pruned": report.pruned_ops}

        workflow = Workflow(f"delta-compact-{table.name.lower()}")
        workflow.add("snapshot", snapshot)
        # The fold's MapReduce job retries failed task attempts itself and
        # its reducer side effects are exactly-once, so a whole-action
        # retry (which would double-merge) is wrong here: one attempt.
        workflow.add("fold", fold, after=("snapshot",))
        workflow.add("rewrite", rewrite, after=("snapshot",),
                     max_attempts=self.rewrite_attempts)
        workflow.add("commit", commit, after=("fold", "rewrite"),
                     max_attempts=self.rewrite_attempts)
        return workflow
