"""Merge-on-read: compose base slices with resident delta ops in-scan.

DualTable reads are the union of the HDFS base and the KV delta; here
that composition happens inside the scan pipeline so everything
downstream (filters, aggregation, vectorized kernels, tracing) is
unchanged:

* **Tombstone filtering** — base rows whose primary key was upserted or
  deleted after the cell's ``compacted_seq`` watermark are suppressed as
  the record reader yields them.  Tombstones are keyed by cell tuple and
  each row is routed to its own cell with ``cells_of_row``: no GFU key is
  formatted per row (keys only address the KV store and name splits).
* **Synthetic delta splits** — each resident cell overlapping the query
  region contributes one extra :class:`FileSplit` (``delta://`` path, no
  bytes on HDFS) carrying its surviving delta rows in sequence order, so
  delta rows flow through the same mapper/combiner machinery as base
  rows and every engine observable stays deterministic.

The vectorized path has a matching batch reader
(:func:`repro.vector.decode.batch_reader_for`): overlays without
tombstones delegate base splits to the underlying columnar decoder
(identical preads); overlays with tombstones and all synthetic splits
materialize row-path output into :class:`ColumnBatch` columns — the
strict fallback, still pread-identical to the row engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TYPE_CHECKING)

from repro.mapreduce.splits import FileSplit, InputFormat
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.delta.store import DeltaBinding

#: split metadata key marking a synthetic delta split; its value is the
#: tuple of surviving delta rows the mapper must read.
DELTA_ROWS_META_KEY = "delta_rows"


def resolve_ops(ops: Sequence[tuple], watermark: int,
                key_of_row: Callable[[Sequence[Any]], Optional[Tuple]]
                ) -> Tuple[set, List[tuple]]:
    """Collapse one cell's op log into ``(tombstone keys, pending rows)``.

    Ops at or below ``watermark`` are already folded into the base and
    skipped.  An upsert is delete(key) + insert(row): it tombstones every
    base row with that key and replaces any still-pending delta row with
    the same key; pending rows keep ingest (sequence) order.
    """
    doomed: set = set()
    pending: List[Tuple[int, tuple]] = []
    for seq, kind, key, row in ops:
        if seq <= watermark:
            continue
        if kind == "i":
            pending.append((seq, row))
        else:  # upsert or delete
            doomed.add(key)
            pending = [(s, r) for s, r in pending if key_of_row(r) != key]
            if kind == "u":
                pending.append((seq, row))
    return doomed, [row for _seq, row in pending]


@dataclass
class DeltaOverlay:
    """The resolved merge-on-read view of one query region.

    Built by :meth:`~repro.delta.store.DeltaBinding.build_overlay`;
    immutable for the duration of one query plan."""

    table: str
    schema: Schema
    binding: "DeltaBinding"
    #: cell coordinates -> frozen set of primary keys to suppress
    suppress: Dict[Tuple[int, ...], frozenset] = field(default_factory=dict)
    #: GFU key -> surviving delta rows in sequence order
    pending: Dict[str, List[tuple]] = field(default_factory=dict)
    #: resident cells probed for this region (>= the affected cells)
    num_cells: int = 0
    #: logical KV gets charged to the plan for the probe
    probes: int = 0

    @property
    def num_rows(self) -> int:
        return sum(len(rows) for rows in self.pending.values())

    @property
    def num_suppressed(self) -> int:
        return sum(len(keys) for keys in self.suppress.values())

    @property
    def has_suppression(self) -> bool:
        return bool(self.suppress)

    def row_suppressed(self, row: Sequence[Any]) -> bool:
        """Is this base row tombstoned?  Routes the row to its grid cell
        first, so only its own cell's tombstones apply."""
        binding = self.binding
        doomed = self.suppress.get(binding.policy.cells_of_row(
            [row[p] for p in binding.dim_positions]))
        return bool(doomed) and binding.row_key(row) in doomed

    def synthetic_splits(self) -> List[FileSplit]:
        """One zero-byte split per cell with pending rows, sorted by cell
        key for determinism; appended after the base splits."""
        splits = []
        for cell in sorted(self.pending):
            rows = self.pending[cell]
            split = FileSplit(path=f"delta://{self.table.lower()}/{cell}",
                              start=0, length=0)
            split.meta[DELTA_ROWS_META_KEY] = tuple(rows)
            splits.append(split)
        return splits


class DeltaOverlayInputFormat(InputFormat):
    """Wraps the base input format with tombstone filtering and synthetic
    delta splits.  ``schema`` mirrors the inner format's so downstream
    consumers (job builder, vector compiler) are oblivious."""

    def __init__(self, inner: InputFormat, overlay: DeltaOverlay):
        self.inner = inner
        self.overlay = overlay
        self.schema: Schema = inner.schema

    def get_splits(self, fs, paths) -> List[FileSplit]:
        return (self.inner.get_splits(fs, paths)
                + self.overlay.synthetic_splits())

    def read_split(self, fs, split: FileSplit
                   ) -> Iterator[Tuple[Any, tuple]]:
        rows = split.meta.get(DELTA_ROWS_META_KEY)
        if rows is not None:
            for i, row in enumerate(rows):
                yield i, row
            return
        if not self.overlay.has_suppression:
            yield from self.inner.read_split(fs, split)
            return
        for offset, row in self.inner.read_split(fs, split):
            if not self.overlay.row_suppressed(row):
                yield offset, row
