"""DeltaStore + DeltaBinding: GFU-keyed streamed writes in the KV store.

DualTable's hybrid model keeps the base table in HDFS files and the
mutable tail in the KV store.  Here the tail is keyed by the *same*
GFUKeys the DGF grid uses for base slices:

* ``delta:<table>:<index>:<gfukey>``   -> list of delta ops (seq order)
* ``deltameta:<table>:<index>:state``  -> sequence counter + resident
  cells + key-column configuration

so Algorithm 3's inner/boundary pruning applies to streamed rows exactly
as it does to base slices: a query region only ever loads the delta
cells it overlaps.

One delta *op* is a plain tuple ``(seq, kind, key, row)`` — ``kind`` is
``"i"``/``"u"``/``"d"`` for insert/upsert/delete, ``key`` the primary-key
values (None for keyless inserts), ``row`` the full row (None for
deletes).  ``seq`` is a monotonically increasing per-binding sequence;
the compactor stamps the folded watermark into the base
:class:`~repro.core.dgf.gfu.GFUValue` (``compacted_seq``), and
merge-on-read applies only ops newer than that watermark.  Readers load
the delta cell *before* the base value while the compactor writes the
new base value *before* pruning the delta cell, so every interleaving of
a query with a concurrent compaction sees each op exactly once.

Upserts and deletes require ``key_columns`` that include every index
dimension: the primary key then pins a row to one grid cell, so an
upsert can never silently move a row between cells and tombstones route
to the cell holding the doomed base rows.

Reads used by the query planner go through the session's
:class:`~repro.service.cache.GfuMetadataCache` with the same
logical-get replay as base GFU metadata (see
:func:`repro.core.dgf.store.cached_fetch`), so traces are byte-identical
cache on/off.  Writer read-modify-write cycles bypass the cache and run
under the binding's lock.
"""

from __future__ import annotations

import threading
from typing import (Any, Dict, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.core.dgf.policy import SplittingPolicy
from repro.core.dgf.store import cached_fetch
from repro.errors import DeltaError
from repro.hiveql.predicates import Interval
from repro.kvstore.hbase import KVStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.delta.overlay import DeltaOverlay
    from repro.hive.metastore import IndexInfo, TableInfo
    from repro.service.cache import GfuMetadataCache

#: name of the single metadata entry holding a binding's durable state.
STATE_META = "state"

INSERT = "i"
UPSERT = "u"
DELETE = "d"


class DeltaStore:
    """Typed access to one (table, index) pair's delta namespace."""

    def __init__(self, kvstore: KVStore, table: str, index: str,
                 cache: Optional["GfuMetadataCache"] = None):
        self.kvstore = kvstore
        self.cache = cache
        self._prefix = f"delta:{table.lower()}:{index.lower()}:"
        self._meta_prefix = f"deltameta:{table.lower()}:{index.lower()}:"

    # ------------------------------------------------------------- cell keys
    def cell_key(self, cell: str) -> str:
        return self._prefix + cell

    @property
    def state_key(self) -> str:
        return self._meta_prefix + STATE_META

    # ------------------------------------------------------ planner read path
    def load_state(self) -> Optional[Dict[str, Any]]:
        """The durable binding state, via the metadata cache."""
        found = cached_fetch(self.kvstore, self.cache, [self.state_key])
        return found.get(self.state_key)

    def load_cells(self, cells: Sequence[str]) -> Dict[str, List[tuple]]:
        """Batch-load delta cells (probe order preserved, only present
        cells returned, by bare cell key)."""
        full_keys = [self.cell_key(cell) for cell in cells]
        found = cached_fetch(self.kvstore, self.cache, full_keys)
        return {key[len(self._prefix):]: value
                for key, value in found.items()}

    # ------------------------------------------------------- writer RMW path
    def get_cell(self, cell: str) -> Optional[List[tuple]]:
        return self.kvstore.get(self.cell_key(cell))

    def put_cell(self, cell: str, ops: List[tuple]) -> None:
        self.kvstore.put(self.cell_key(cell), ops)

    def delete_cell(self, cell: str) -> None:
        self.kvstore.delete(self.cell_key(cell))

    def put_state(self, state: Dict[str, Any]) -> None:
        self.kvstore.put(self.state_key, state)

    def clear(self) -> None:
        stop = self._prefix + "\U0010ffff"
        for key, _value in list(self.kvstore.scan(self._prefix, stop)):
            self.kvstore.delete(key)
        self.kvstore.delete(self.state_key)


class DeltaBinding:
    """One table's attachment to the streaming delta path.

    Owned by the session (``session.attach_delta``); the binding caches
    the grid policy, the sequence counter and the resident-cell registry
    in memory (synced to :data:`STATE_META` on every mutation), so query
    planning checks residency without touching the KV store and a table
    with no resident deltas plans byte-identically to one never attached.
    """

    def __init__(self, session, table: "TableInfo", index: "IndexInfo",
                 key_columns: Optional[Sequence[str]] = None):
        if index.handler != "dgf":
            raise DeltaError(
                f"streaming deltas require a DGF index; {index.name!r} "
                f"uses handler {index.handler!r}")
        if not index.built:
            raise DeltaError(
                f"index {index.name!r} must be built before attaching a "
                "streaming delta")
        self.session = session
        self.table = table
        self.index = index
        self.delta_store = DeltaStore(session.kvstore, table.name,
                                      index.name,
                                      cache=session.metadata_cache)
        self.dgf_store = session.dgf_store(table.name, index.name)
        self.policy: SplittingPolicy = self.dgf_store.load_policy()
        self.dim_positions = [table.schema.index_of(name)
                              for name in self.policy.names]
        state = self.delta_store.load_state()
        if key_columns is None and state is not None:
            key_columns = state.get("key_columns")
        self.key_columns: Optional[Tuple[str, ...]] = None
        self.key_positions: Optional[List[int]] = None
        self._dims_in_key: Optional[List[int]] = None
        if key_columns is not None:
            names = [table.schema.column(c).name for c in key_columns]
            self.key_columns = tuple(names)
            self.key_positions = [table.schema.index_of(n) for n in names]
            lowered = [n.lower() for n in names]
            missing = [d for d in self.policy.names
                       if d.lower() not in lowered]
            if missing:
                raise DeltaError(
                    f"key_columns must include every index dimension so a "
                    f"key pins its row to one grid cell; missing {missing}")
            self._dims_in_key = [lowered.index(d.lower())
                                 for d in self.policy.names]
        self._lock = threading.RLock()
        # The resident registry maps each GFU key to its cell tuple,
        # parsed once here; the keys only name KV entries.
        state = state or {"seq": 0, "cells": []}
        self._seq = state["seq"]
        self._resident: Dict[str, Tuple[int, ...]] = {
            key: self.policy.cells_of_key(key) for key in state["cells"]}
        self._resident_ops = state.get("ops", 0)

    # ------------------------------------------------------------ inspection
    @property
    def resident_cells(self) -> Tuple[str, ...]:
        """Sorted cells currently holding unfolded ops (empty tuple when
        everything has been compacted away)."""
        with self._lock:
            return tuple(sorted(self._resident))

    @property
    def has_resident_cells(self) -> bool:
        """The query path's residency check (no sort, no parse)."""
        return bool(self._resident)

    @property
    def resident_ops(self) -> int:
        with self._lock:
            return self._resident_ops

    @property
    def current_seq(self) -> int:
        with self._lock:
            return self._seq

    def serves(self, index_name: str) -> bool:
        return self.index.name.lower() == index_name.lower()

    @property
    def required_columns(self) -> List[str]:
        """Columns merge-on-read must see in every scanned row (grid
        dimensions for cell routing, key columns for tombstones) — used
        to widen RCFile column pruning on delta-resident full scans."""
        names = list(self.policy.names)
        if self.key_columns:
            names.extend(c for c in self.key_columns if c not in names)
        return names

    # -------------------------------------------------------------- routing
    def row_key(self, row: Sequence[Any]) -> Optional[Tuple]:
        if self.key_positions is None:
            return None
        return tuple(row[p] for p in self.key_positions)

    # --------------------------------------------------------------- ingest
    def ingest(self, ops: Sequence[Tuple[str, Sequence[Any]]]) -> int:
        """Apply a batch of ``("insert"|"upsert"|"delete", payload)`` ops.

        Payloads are full rows for insert/upsert and key-column values
        for delete.  The batch is sequenced, grouped per grid cell, and
        written with one read-modify-write per touched cell plus one
        state update — all under the binding lock, so concurrent
        writers serialize like any other single-logical-writer DDL.
        """
        if not ops:
            return 0
        schema = self.table.schema
        with self._lock:
            grouped: Dict[Tuple[int, ...], List[tuple]] = {}
            for kind, payload in ops:
                self._seq += 1
                if kind in ("insert", "upsert"):
                    if kind == "upsert":
                        self._require_keys(kind)
                    schema.validate_row(payload)
                    row = tuple(payload)
                    op = (self._seq, INSERT if kind == "insert" else UPSERT,
                          self.row_key(row), row)
                    dims = [row[p] for p in self.dim_positions]
                elif kind == "delete":
                    self._require_keys(kind)
                    key = tuple(payload)
                    if len(key) != len(self.key_columns):
                        raise DeltaError(
                            f"delete key has {len(key)} values; "
                            f"key_columns is {list(self.key_columns)}")
                    op = (self._seq, DELETE, key, None)
                    dims = [key[p] for p in self._dims_in_key]
                else:
                    raise DeltaError(f"unknown delta op kind {kind!r}")
                grouped.setdefault(self.policy.cells_of_row(dims),
                                   []).append(op)
            for key, cell in sorted((self.policy.key_of_cells(cell), cell)
                                    for cell in grouped):
                existing = self.delta_store.get_cell(key) or []
                self.delta_store.put_cell(key, list(existing) + grouped[cell])
                self._resident[key] = cell
            self._resident_ops += len(ops)
            self._save_state()
            # Delta-resident cells can no longer be answered from any
            # summarized ancestor: demote the touched cells' chains so
            # pyramid readers fall back to exact per-cell handling (the
            # markers are recomputed at compaction).
            from repro.pyramid import PYRAMID_STATE_KEY, demote_cells
            if PYRAMID_STATE_KEY in self.index.state:
                demote_cells(self.session, self.index, grouped)
        return len(ops)

    def _require_keys(self, kind: str) -> None:
        if self.key_columns is None:
            raise DeltaError(
                f"{kind} requires the binding to be attached with "
                "key_columns (inserts are the only keyless op)")

    def _save_state(self) -> None:
        self.delta_store.put_state({
            "seq": self._seq,
            "cells": sorted(self._resident),
            "ops": self._resident_ops,
            "key_columns": list(self.key_columns)
            if self.key_columns else None,
        })

    # ------------------------------------------------------------ compaction
    def snapshot(self, cells: Optional[Sequence[str]] = None
                 ) -> Tuple[int, Dict[str, List[tuple]]]:
        """Consistent view for the compactor: ``(watermark, cell -> ops)``.

        ``watermark`` is the current sequence number; every snapshotted
        op has ``seq <= watermark`` and ops ingested after the snapshot
        stay resident through :meth:`prune`.
        """
        with self._lock:
            chosen = sorted(self._resident) if cells is None \
                else [c for c in sorted(set(cells)) if c in self._resident]
            snapshot = {}
            for cell in chosen:
                ops = self.delta_store.get_cell(cell)
                if ops:
                    snapshot[cell] = list(ops)
            return self._seq, snapshot

    def prune(self, cells: Sequence[str], watermark: int) -> int:
        """Drop every op with ``seq <= watermark`` from ``cells`` (the
        compactor's final step, after the folded base values carry the
        watermark).  Returns the number of ops removed."""
        removed = 0
        with self._lock:
            for cell in sorted(set(cells)):
                ops = self.delta_store.get_cell(cell) or []
                keep = [op for op in ops if op[0] > watermark]
                removed += len(ops) - len(keep)
                if keep:
                    self.delta_store.put_cell(cell, keep)
                else:
                    self.delta_store.delete_cell(cell)
                    self._resident.pop(cell, None)
            self._resident_ops = max(0, self._resident_ops - removed)
            self._save_state()
        return removed

    def clear(self) -> None:
        """Drop every delta op and the durable state (DROP TABLE path)."""
        with self._lock:
            self.delta_store.clear()
            self._resident.clear()
            self._resident_ops = 0
            self._seq = 0

    # ---------------------------------------------------------- merge-on-read
    def overlapping_cells(self, intervals: Optional[Dict[str, Optional[
            Interval]]] = None) -> List[Tuple[str, Tuple[int, ...]]]:
        """Resident ``(key, cell)`` pairs overlapping a query region, in
        key order.  Unlike the base grid search this is *not* clamped to
        build-time bounds, so delta cells outside the base grid still
        surface.  ``None`` means the whole table (full scans)."""
        with self._lock:
            cells = list(self._resident.items())
        if intervals is not None and cells:
            # One overlapped range per dimension, clamped only to the
            # resident cells' own extent.
            ranges = [dim.cell_ranges(intervals.get(dim.name.lower()),
                                      min(axis), max(axis))[0]
                      for dim, axis in zip(self.policy.dimensions,
                                           zip(*(c for _k, c in cells)))]
            cells = [(key, cell) for key, cell in cells
                     if all(lo <= k <= hi
                            for k, (lo, hi) in zip(cell, ranges))]
        return sorted(cells)

    def merge_on_read(self, intervals: Optional[Dict[str, Optional[
            Interval]]] = None) -> Optional["DeltaOverlay"]:
        """A plan's ``delta:merge`` step: one overlap test, then the
        overlay's KV reads inside the span.  None, and no span, when no
        resident cell overlaps the region."""
        cells = self.overlapping_cells(intervals)
        if not cells:
            return None
        with self.session.tracer.span("delta:merge") as span:
            overlay = self.build_overlay(cells)
            span.add("delta.cells", overlay.num_cells)
            span.add("delta.rows", overlay.num_rows)
            span.add("delta.suppressed", overlay.num_suppressed)
        return overlay

    def build_overlay(self, cells: Sequence[Tuple[str, Tuple[int, ...]]]
                      ) -> "DeltaOverlay":
        """The resolved merge-on-read view of the ``(key, cell)`` pairs
        :meth:`overlapping_cells` returned.

        Ordering contract with the compactor: the delta cells are read
        *before* the base values whose ``compacted_seq`` watermarks gate
        them, while the compactor writes the watermarked base value
        before pruning — so a concurrently folded op is either still in
        the delta (and then skipped by the watermark) or already in the
        base, never both and never neither.
        """
        from repro.delta.overlay import DeltaOverlay, resolve_ops
        keys = [key for key, _cell in cells]
        delta_cells = self.delta_store.load_cells(keys)
        base_values = self.dgf_store.multi_get(keys)
        suppress: Dict[Tuple[int, ...], frozenset] = {}
        pending: Dict[str, List[tuple]] = {}
        for key, cell in cells:
            base = base_values.get(key)
            watermark = base.compacted_seq if base is not None else 0
            doomed, rows = resolve_ops(delta_cells.get(key, []), watermark,
                                       self.row_key)
            if doomed:
                suppress[cell] = frozenset(doomed)
            if rows:
                pending[key] = rows
        return DeltaOverlay(table=self.table.name,
                            schema=self.table.schema,
                            binding=self,
                            suppress=suppress,
                            pending=pending,
                            num_cells=len(cells),
                            probes=2 * len(cells))
