"""DGFIndex construction (Sec. 4.2, Algorithms 1-2) and no-rebuild appends.

Paper mapping: Sec. 4.2 ("Construct DGFIndex") — Algorithm 1 is the map
side (standardize each record's index dimensions into a GFUKey, emit
``<GFUKey, record>``), Algorithm 2 the reduce side (write each key's
records contiguously as a *Slice* into the reorganized table files,
compute the pre-aggregation header, put the ``<GFUKey, GFUValue>`` pair
into the key-value store).  Afterwards the table's data location points
at the reorganized directory, so every later query — indexed or not —
reads the reorganized layout.

Appends (:func:`append_with_dgf`) run the same job over only the new rows,
writing *new* files; existing slices are never rewritten — the paper's
argument (Sec. 4.2, "update DGFIndex") for why DGFIndex does not hurt
write throughput.  The build runs under the session's tracer like any
other MapReduce job, so ``mr_job`` spans and HDFS/KV counters cover index
construction too; see ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.policy import SplittingPolicy
from repro.core.dgf.store import DgfStore
from repro.errors import DGFError
from repro.hive import formats
from repro.hive.aggregates import CompiledAggregate
from repro.hive.indexhandler import BuildReport
from repro.hive.metastore import IndexInfo, TableInfo
from repro.hiveql import ast, parse_expression
from repro.hiveql.evaluator import ColumnResolver
from repro.mapreduce.cost import JobStats, TimeBreakdown
from repro.mapreduce.job import Job
from repro.storage.rcfile import RCFileWriter

PRECOMPUTE_PROPERTY = "precompute"


def parse_precompute_spec(spec: str) -> List[ast.FuncCall]:
    """Parse ``'sum(powerConsumed),count(*)'`` into aggregate calls,
    splitting only on top-level commas."""
    calls: List[ast.FuncCall] = []
    depth = 0
    current = []
    for ch in spec + ",":
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            text = "".join(current).strip()
            if text:
                expr = parse_expression(text)
                if not ast.is_aggregate_call(expr):
                    raise DGFError(
                        f"precompute entry {text!r} is not an aggregate")
                calls.append(expr)
            current = []
        else:
            current.append(ch)
    return calls


def compile_precompute(table: TableInfo,
                       calls: Sequence[ast.FuncCall]
                       ) -> List[CompiledAggregate]:
    resolver = ColumnResolver.for_schema(table.schema, table.name)
    compiled = []
    for call in calls:
        agg = CompiledAggregate.compile(call, resolver)
        if not agg.function.additive:
            raise DGFError(
                f"precompute function {agg.key!r} is not additive; DGF "
                "headers require additive functions (paper Section 4.1)")
        compiled.append(agg)
    return compiled


class _SliceWriter:
    """Wraps a row writer, tracking slice boundaries.

    For RCFile the writer is flushed at each boundary so that slices align
    with row groups; for TextFile/SequenceFile positions are exact anyway.
    """

    def __init__(self, writer, path: str):
        self._writer = writer
        self.path = path

    def boundary(self) -> int:
        if isinstance(self._writer, RCFileWriter):
            self._writer.flush()
        return self._writer.pos

    def write_row(self, row) -> None:
        self._writer.write_row(row)

    def close(self) -> None:
        self._writer.close()


def reorganized_location(table: TableInfo) -> str:
    return f"{table.location}__dgf"


def run_build_job(session, table: TableInfo, index: IndexInfo,
                  policy: SplittingPolicy,
                  aggregates: List[CompiledAggregate],
                  input_paths: List[str], output_dir: str,
                  generation: int,
                  compacted_seq: int = 0,
                  write_table: Optional[TableInfo] = None
                  ) -> Tuple[JobStats, int]:
    """The reorganization MapReduce job.  Returns (job stats, #slices).

    ``compacted_seq`` is the streaming compactor's fold watermark: it is
    written on the reducer's GFUValue *in the same put* as the merged
    header and slice locations, so a concurrent reader can never observe
    folded rows without the watermark that suppresses their delta ops.

    ``write_table`` lets the reducers write a different storage format
    than the input (replica-fleet layouts, :mod:`repro.core.dgf.fleet`);
    it defaults to ``table`` — read and write the table's own format.
    """
    store = DgfStore(session.kvstore, table.name, index.name)
    out_table = write_table if write_table is not None else table
    dim_positions = [table.schema.index_of(name) for name in policy.names]
    merge_fns = {agg.key: agg.function for agg in aggregates}

    def mapper(offset, row, ctx):
        values = [row[p] for p in dim_positions]
        ctx.emit(policy.key_of_row(values), row)

    def reduce_setup(ctx):
        path = f"{output_dir}/g{generation:03d}-{ctx.task_id:05d}_0"
        ctx.state["writer"] = _SliceWriter(
            formats.open_row_writer(session.fs, path, out_table,
                                    overwrite=True), path)

    def reducer(gfu_key, rows, ctx):
        writer: _SliceWriter = ctx.state["writer"]
        start = writer.boundary()
        header: Dict[str, Any] = {}
        states = {agg.key: agg.function.initial() for agg in aggregates}
        for row in rows:
            writer.write_row(row)
            for agg in aggregates:
                states[agg.key] = agg.accumulate_row(states[agg.key], row)
        end = writer.boundary()
        header.update(states)
        value = GFUValue(header=header,
                         locations=[SliceLocation(writer.path, start, end)],
                         records=len(rows),
                         compacted_seq=compacted_seq)
        store.merge_value(gfu_key, value, merge_fns)
        # Task-local counter (merged at the reduce barrier): safe under the
        # parallel engine, unlike a shared closure cell.
        ctx.counter("dgf", "slices_written")

    def reduce_cleanup(ctx):
        ctx.state["writer"].close()

    from repro.core.dgf.placement import (resolve_placement,
                                          zorder_partitioner)
    num_reducers = min(session.cluster.total_reduce_slots, 8)
    partitioner = None
    if resolve_placement(index.properties) == "zorder":
        partitioner = zorder_partitioner(policy, num_reducers)
    job = Job(name=f"build-dgf-{index.name}-g{generation}",
              input_format=formats.input_format_for(table),
              input_paths=input_paths,
              mapper=mapper, reducer=reducer,
              num_reducers=num_reducers,
              partitioner=partitioner,
              reduce_setup=reduce_setup, reduce_cleanup=reduce_cleanup)
    result = session.engine.run(job)
    return result.stats, result.counters.get("dgf", "slices_written")


def compute_bounds(store: DgfStore,
                   policy: SplittingPolicy) -> Dict[str, Tuple[int, int]]:
    """Per-dimension (min, max) cell indexes over all stored GFUs — the
    paper's "minimum and maximum standardized values in every index
    dimension" used to complete partial-specified predicates."""
    bounds: Dict[str, Tuple[int, int]] = {}
    for cell_key, _value in store.iter_entries():
        for dim, k in zip(policy.dimensions, policy.cells_of_key(cell_key)):
            name = dim.name.lower()
            if name not in bounds:
                bounds[name] = (k, k)
            else:
                lo, hi = bounds[name]
                bounds[name] = (min(lo, k), max(hi, k))
    return bounds


def build_dgf_index(session, index: IndexInfo) -> BuildReport:
    """Full build: reorganize the table, populate the store, record meta."""
    table = session.metastore.get_table(index.table)
    # A rebuild invalidates every replica layout (they were derived from
    # the previous reorganization); drop the fleet rather than serve
    # stale copies.  Re-add layouts after the rebuild.
    from repro.core.dgf import fleet
    fleet.drop_layouts(session, table, index)
    policy = SplittingPolicy.from_properties(table.schema, index.columns,
                                             index.properties)
    calls = parse_precompute_spec(
        index.properties.get(PRECOMPUTE_PROPERTY, ""))
    aggregates = compile_precompute(table, calls)

    store = DgfStore(session.kvstore, table.name, index.name)
    store.clear()
    output_dir = reorganized_location(table)
    if output_dir == table.data_location:
        # Rebuild over an already-reorganized table: write to the alternate
        # directory so the job never reads and writes the same files.
        output_dir = f"{table.location}__dgf_alt"
    if session.fs.exists(output_dir):
        session.fs.delete(output_dir, recursive=True)
    session.fs.mkdirs(output_dir)

    input_root = table.data_location
    input_paths = [input_root] if session.fs.exists(input_root) else []
    kv_before = session.kvstore.snapshot_stats()
    stats = JobStats()
    num_slices = 0
    if input_paths:
        stats, num_slices = run_build_job(
            session, table, index, policy, aggregates, input_paths,
            output_dir, generation=0)

    bounds = compute_bounds(store, policy)
    store.put_meta("policy", policy.to_dict())
    store.put_meta("bounds", bounds)
    store.put_meta("precompute", [agg.key for agg in aggregates])
    store.put_meta("generation", 0)

    # The reorganized directory replaces the original data (the paper moves
    # the data; future appends go through append_with_dgf).
    old_location = table.data_location
    table.properties["dgf_data_location"] = output_dir
    if old_location != output_dir and session.fs.exists(old_location):
        for path in session.fs.list_files(old_location):
            session.fs.delete(path)

    # A rebuilt base invalidates every pyramid node derived from the old
    # headers; regenerate from scratch (the fleet — and its per-layout
    # pyramids — was dropped above, so only the primary remains).
    from repro.pyramid import PYRAMID_STATE_KEY, rebuild_pyramid
    if PYRAMID_STATE_KEY in index.state:
        index.state[PYRAMID_STATE_KEY]["layouts"] = {}
        rebuild_pyramid(session, index)

    kv_delta = session.kvstore.stats_delta(kv_before)
    build_time = (session.cost_model.job_seconds(stats)
                  + session.cost_model.kv_seconds(kv_delta))
    index.built = True
    return BuildReport(
        index_name=index.name, handler="dgf",
        index_size_bytes=store.size_bytes(),
        build_time=build_time, job_stats=stats,
        details={"gfus": store.count_entries(), "slices": num_slices,
                 "reorganized_location": output_dir,
                 "precompute": [agg.key for agg in aggregates]})


def add_precompute(session, table_name: str, index_name: str,
                   spec: str) -> BuildReport:
    """Dynamically add pre-computed UDFs to a deployed DGFIndex.

    The paper (Section 4.1): "Once a DGFIndex is deployed, users can still
    add more UDFs dynamically to DGFIndex on demand."  One pass over the
    reorganized table computes the new additive states per slice and folds
    them into the existing GFU headers — no reorganization, no change to
    the already pre-computed functions.
    """
    table = session.metastore.get_table(table_name)
    index = session.metastore.get_index(table_name, index_name)
    if not index.built:
        raise DGFError(f"index {index_name!r} must be built before adding "
                       "pre-computed functions")
    store = DgfStore(session.kvstore, table.name, index.name)
    existing = list(store.get_meta("precompute"))
    calls = parse_precompute_spec(spec)
    aggregates = [agg for agg in compile_precompute(table, calls)
                  if agg.key not in existing]
    if not aggregates:
        return BuildReport(index_name=index.name, handler="dgf",
                           index_size_bytes=store.size_bytes(),
                           build_time=TimeBreakdown(),
                           details={"added": []})

    from repro.storage.textfile import TextFileReader
    from repro.storage.rcfile import RCFileReader
    from repro.storage.sequencefile import SequenceFileReader
    from repro.core.dgf.inputformat import DgfSliceInputFormat
    from repro.mapreduce.splits import FileSplit

    reader_format = DgfSliceInputFormat(table)
    kv_before = session.kvstore.snapshot_stats()
    io_before = session.fs.io.snapshot()
    stats = JobStats(map_tasks=1)
    for cell_key, value in list(store.iter_entries()):
        states = {agg.key: agg.function.initial() for agg in aggregates}
        for location in value.locations:
            split = FileSplit(path=location.file, start=0,
                              length=session.fs.file_length(location.file))
            split.meta["slices"] = [(location.start, location.end)]
            for _offset, row in reader_format.read_split(session.fs,
                                                         split):
                stats.map_input_records += 1
                for agg in aggregates:
                    states[agg.key] = agg.accumulate_row(states[agg.key],
                                                         row)
        value.header.update(states)
        store.put_value(cell_key, value)
    stats.map_input_bytes = session.fs.io.delta(io_before).bytes_read
    store.put_meta("precompute",
                   existing + [agg.key for agg in aggregates])
    # The new per-GFU states must appear in every summarized ancestor too;
    # only the primary headers changed, so layout pyramids stay as-is.
    from repro.pyramid import PYRAMID_STATE_KEY, rebuild_pyramid
    if PYRAMID_STATE_KEY in index.state:
        rebuild_pyramid(session, index)

    kv_delta = session.kvstore.stats_delta(kv_before)
    build_time = (session.cost_model.job_seconds(stats)
                  + session.cost_model.kv_seconds(kv_delta))
    index.properties[PRECOMPUTE_PROPERTY] = ",".join(
        existing + [agg.key for agg in aggregates])
    return BuildReport(index_name=index.name, handler="dgf",
                       index_size_bytes=store.size_bytes(),
                       build_time=build_time, job_stats=stats,
                       details={"added": [agg.key for agg in aggregates]})


def append_with_dgf(session, table_name: str, index_name: str,
                    rows: Iterable[Sequence[Any]]) -> BuildReport:
    """Load new (verified) data through the DGF reorganization path.

    New rows land in *new* files; existing slices and their GFU entries are
    untouched (entries gaining data get extra slice locations and merged
    headers).  This reproduces the paper's claim that appends never force
    an index rebuild.
    """
    table = session.metastore.get_table(table_name)
    index = session.metastore.get_index(table_name, index_name)
    if not index.built:
        raise DGFError(f"index {index_name!r} must be built before appends")
    store = DgfStore(session.kvstore, table.name, index.name)
    policy = store.load_policy()
    calls = parse_precompute_spec(
        index.properties.get(PRECOMPUTE_PROPERTY, ""))
    aggregates = compile_precompute(table, calls)
    generation = store.get_meta("generation") + 1

    # Stage the new data in temporary files (the paper's temporary files
    # for newly collected, not-yet-verified meter data).
    staging = f"/tmp/dgf-append/{table.name.lower()}/g{generation:03d}"
    if session.fs.exists(staging):
        session.fs.delete(staging, recursive=True)
    session.fs.mkdirs(staging)
    dim_positions = [table.schema.index_of(name) for name in policy.names]
    touched: set = set()
    with formats.open_row_writer(session.fs, f"{staging}/data_0",
                                 table) as writer:
        count = 0
        for row in rows:
            table.schema.validate_row(row)
            writer.write_row(row)
            touched.add(policy.cells_of_row([row[p] for p in dim_positions]))
            count += 1

    if count == 0:
        # Nothing to reorganize: no job, no new files, no generation bump.
        session.fs.delete(staging, recursive=True)
        return BuildReport(
            index_name=index.name, handler="dgf",
            index_size_bytes=store.size_bytes(),
            build_time=session.cost_model.job_seconds(JobStats()),
            details={"appended_rows": 0, "new_slices": 0,
                     "generation": generation - 1})

    kv_before = session.kvstore.snapshot_stats()
    output_dir = table.properties["dgf_data_location"]
    stats, num_slices = run_build_job(
        session, table, index, policy, aggregates, [staging], output_dir,
        generation=generation)
    store.put_meta("bounds", compute_bounds(store, policy))
    store.put_meta("generation", generation)
    # Incremental pyramid maintenance: appends touch few cells (new data
    # arrives along the time dimension), so only the touched cells'
    # ancestor chains are recomputed — no full pyramid rebuild.
    from repro.pyramid import PYRAMID_STATE_KEY, refresh_cells
    if PYRAMID_STATE_KEY in index.state:
        refresh_cells(session, index, touched)
    # Replica layouts ingest the same staged rows before staging is
    # deleted — a fleet member is either current or dropped, never stale.
    from repro.core.dgf import fleet
    fleet.append_to_layouts(session, table, index, [staging])
    session.fs.delete(staging, recursive=True)

    kv_delta = session.kvstore.stats_delta(kv_before)
    build_time = (session.cost_model.job_seconds(stats)
                  + session.cost_model.kv_seconds(kv_delta))
    return BuildReport(
        index_name=index.name, handler="dgf",
        index_size_bytes=store.size_bytes(), build_time=build_time,
        job_stats=stats,
        details={"appended_rows": count, "new_slices": num_slices,
                 "generation": generation})
