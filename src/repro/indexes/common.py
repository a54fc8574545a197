"""Shared machinery for index-table based handlers (Compact family)."""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

from repro.hive import formats
from repro.hive.metastore import IndexInfo, TableInfo
from repro.hiveql.predicates import RangeExtraction
from repro.mapreduce.cost import TimeBreakdown
from repro.mapreduce.splits import FileSplit
from repro.storage.schema import Column, DataType, Schema


def index_table_name(index: IndexInfo) -> str:
    """Hive's generated index-table name."""
    return f"default__{index.table.lower()}_{index.name.lower()}__"


def index_table_schema(base: TableInfo, index: IndexInfo,
                       extra: Sequence[Column] = ()) -> Schema:
    """Indexed dimensions + ``_bucketname`` + ``_offsets`` (+ extras)."""
    columns: List[Column] = [base.schema.column(c) for c in index.columns]
    columns.append(Column("_bucketname", DataType.STRING))
    columns.append(Column("_offsets", DataType.STRING))
    columns.extend(extra)
    return Schema(columns)


def matches_ranges(dim_values: Sequence, dim_names: Sequence[str],
                   ranges: RangeExtraction) -> bool:
    """Does an index-table row's dimension tuple satisfy every interval?"""
    for name, value in zip(dim_names, dim_values):
        interval = ranges.interval_for(name)
        if interval is not None and not interval.contains(value):
            return False
    return True


def constrains_some_dimension(index: IndexInfo,
                              ranges: RangeExtraction) -> bool:
    return any(ranges.interval_for(c) is not None for c in index.columns)


def splits_for_offsets(fs, table: TableInfo,
                       offsets_by_file: Dict[str, List[int]]
                       ) -> Tuple[List[FileSplit], int]:
    """Hive's getSplits filtering: keep the splits of the mentioned files
    that contain at least one offset.  Returns (chosen, total) split counts
    so callers can report the filtering ratio."""
    fmt = formats.input_format_for(table)
    root = table.data_location
    if not fs.exists(root):
        return [], 0
    all_splits = fmt.get_splits(fs, [root])
    chosen: List[FileSplit] = []
    for split in all_splits:
        offsets = offsets_by_file.get(split.path)
        if not offsets:
            continue
        idx = bisect.bisect_left(offsets, split.start)
        if idx < len(offsets) and offsets[idx] < split.end:
            chosen.append(split)
    return chosen, len(all_splits)


def index_scan_cost(session, index_table: TableInfo,
                    records: int) -> TimeBreakdown:
    size = session.fs.total_size(index_table.data_location) \
        if session.fs.exists(index_table.data_location) else 0
    return session.cost_model.index_table_scan_seconds(size, records)
