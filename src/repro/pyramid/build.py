"""Building and maintaining the GFU aggregation pyramid.

The pyramid is derived state: every node is the fold of its children
with the *same* canonical merge functions the handler uses to fold
inner-GFU headers (``merge_function_for`` / ``AvgAgg``), applied in
canonical child-coordinate order so floating-point folds are
deterministic and independent of build concurrency.

Enablement is recorded in ``IndexInfo.state[PYRAMID_STATE_KEY]``::

    {"fanout": 2, "layouts": {"primary": 7, "timefine": 8}}

so plan time learns the built depth per layout with **zero** extra KV
reads, exactly like the replica fleet's ``layouts`` registry.  The
registry maps each layout (the primary included) to its built level
count; a missing entry means "no pyramid" and queries stay on the flat
header path.

Maintenance entry points (all traced under ``pyramid:*`` spans so the
differential harness can normalize them away):

* :func:`rebuild_pyramid` — full rebuild from the base GFU entries
  (index build/rebuild, precompute changes, layout builds, compaction
  catch-up).
* :func:`refresh_cells` — incremental bottom-up recompute of the
  ancestor chains of a touched cell set (appends along the time
  dimension, post-compaction repair).
* :func:`demote_cells` — write ``demoted`` markers on the ancestor
  chains of cells that can no longer be summarized (streaming-delta
  residency, tombstones).
"""

from __future__ import annotations

from itertools import product
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.dgf.gfu import GFUValue
from repro.errors import DGFError
from repro.hive.aggregates import AggFunction, AvgAgg
from repro.pyramid.store import PyramidNode, PyramidStore

#: ``IndexInfo.state`` key holding the pyramid registry.
PYRAMID_STATE_KEY = "pyramid"
#: children folded per dimension at each level (2**dims per node).
DEFAULT_FANOUT = 2


# --------------------------------------------------------------------- state
def pyramid_state(index) -> Optional[Dict[str, Any]]:
    """The index's pyramid registry, or ``None`` when never enabled."""
    return index.state.get(PYRAMID_STATE_KEY)


def pyramid_fanout(index) -> int:
    state = pyramid_state(index)
    if not state:
        return DEFAULT_FANOUT
    return int(state.get("fanout", DEFAULT_FANOUT))


def pyramid_levels(index, layout_name: Optional[str]) -> int:
    """Built pyramid depth for ``layout_name`` (``None`` = primary);
    0 when the layout has no pyramid."""
    state = pyramid_state(index)
    if not state:
        return 0
    if layout_name is None:
        from repro.hdfs.layout import PRIMARY_LAYOUT
        layout_name = PRIMARY_LAYOUT
    return int(state.get("layouts", {}).get(layout_name, 0))


def storage_index_name(index_name: str,
                       layout_name: Optional[str]) -> str:
    """KV namespace alias of ``(index, layout)`` — the primary uses the
    bare index name, replicas their ``<index>@<layout>`` alias."""
    from repro.hdfs.layout import PRIMARY_LAYOUT
    if layout_name is None or layout_name == PRIMARY_LAYOUT:
        return index_name
    from repro.core.dgf import fleet
    return fleet.layout_index_name(index_name, layout_name)


def pyramid_store(session, table_name: str, index_name: str,
                  layout_name: Optional[str] = None) -> PyramidStore:
    """A :class:`PyramidStore` wired to the session's metadata cache."""
    return PyramidStore(session.kvstore, table_name,
                        storage_index_name(index_name, layout_name),
                        cache=session.metadata_cache)


# ------------------------------------------------------------------ geometry
def levels_for_extent(extent: int, fanout: int) -> int:
    """Smallest depth whose top-level blocks span ``extent`` cells."""
    levels, size = 1, fanout
    while size < max(1, extent):
        size *= fanout
        levels += 1
    return levels


def _levels_for(coords: Iterable[Tuple[int, ...]], fanout: int) -> int:
    coords = list(coords)
    if not coords:
        return 1
    best = 1
    for axis in range(len(coords[0])):
        values = [c[axis] for c in coords]
        best = max(best,
                   levels_for_extent(max(values) - min(values) + 1, fanout))
    return best


def children_of(block: Sequence[int],
                fanout: int) -> List[Tuple[int, ...]]:
    """Child blocks (or, below level 1, cells) of ``block``, in canonical
    ascending coordinate order."""
    return [tuple(child) for child in
            product(*[range(b * fanout, b * fanout + fanout)
                      for b in block])]


# --------------------------------------------------------------------- folds
def _merge_fn(key: str) -> AggFunction:
    from repro.core.dgf.handler import merge_function_for
    try:
        return merge_function_for(key)
    except DGFError:
        if key.startswith("avg("):
            # AvgAgg's (sum, count) state is additive too.
            return AvgAgg()
        raise


def fold_children(children: Sequence[Any],
                  fns: Optional[Dict[str, AggFunction]] = None
                  ) -> PyramidNode:
    """Fold header-bearing children (GFUValues or PyramidNodes), already
    in canonical coordinate order, into one parent node."""
    if fns is None:
        fns = {}
    header: Dict[str, Any] = {}
    cells = records = 0
    for child in children:
        for key, state in child.header.items():
            if key in header:
                fn = fns.get(key)
                if fn is None:
                    fn = fns[key] = _merge_fn(key)
                header[key] = fn.merge(header[key], state)
            else:
                header[key] = state
        if isinstance(child, PyramidNode):
            cells += child.cells
            records += child.records
        else:
            cells += 1
            records += child.records
    return PyramidNode(header=header, cells=cells, records=records)


# --------------------------------------------------------------- maintenance
def rebuild_pyramid(session, index,
                    layout_name: Optional[str] = None) -> Dict[str, int]:
    """Full rebuild of one (index, layout) pyramid from its base GFUs.

    Clears the namespace, folds bottom-up level by level (children in
    sorted coordinate order), and records the built depth in the
    index's pyramid registry.  Returns ``{"levels": .., "nodes": ..}``.
    """
    from repro.hdfs.layout import PRIMARY_LAYOUT
    table_name = index.table
    store = session.dgf_store(table_name,
                              storage_index_name(index.name, layout_name))
    pstore = pyramid_store(session, table_name, index.name, layout_name)
    policy = store.load_policy()
    fanout = pyramid_fanout(index)
    fns: Dict[str, AggFunction] = {}
    with session.tracer.span("pyramid:build") as span:
        pstore.clear()
        base: Dict[Tuple[int, ...], Any] = {}
        for cell_key, value in store.iter_entries():
            base[policy.cells_of_key(cell_key)] = value
        levels = _levels_for(base.keys(), fanout)
        nodes_written = 0
        level_data: Dict[Tuple[int, ...], Any] = base
        for level in range(1, levels + 1):
            groups: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
            for coords in sorted(level_data):
                groups.setdefault(tuple(c // fanout for c in coords),
                                  []).append(coords)
            parents: Dict[Tuple[int, ...], PyramidNode] = {}
            for block in sorted(groups):
                node = fold_children(
                    [level_data[c] for c in sorted(groups[block])], fns)
                pstore.put_node(level, block, node)
                parents[block] = node
                nodes_written += 1
            level_data = parents
        span.set("layout", layout_name or PRIMARY_LAYOUT)
        span.set("levels", levels)
        span.add("pyramid.nodes_built", nodes_written)
    state = index.state.setdefault(
        PYRAMID_STATE_KEY, {"fanout": fanout, "layouts": {}})
    state.setdefault("layouts", {})[layout_name or PRIMARY_LAYOUT] = levels
    return {"levels": levels, "nodes": nodes_written}


def refresh_cells(session, index, cells: Iterable[Tuple[int, ...]],
                  layout_name: Optional[str] = None,
                  keep_demoted: Iterable[Tuple[int, ...]] = ()) -> int:
    """Bottom-up recompute of the ancestor chains of ``cells`` (cell
    coordinates on the layout's grid).

    Used after appends (the touched cells advance along the time
    dimension) and after compaction folds deltas into the base GFUs.
    Blocks still covering a ``keep_demoted`` cell — or a child that is
    itself a demotion marker — get a fresh ``demoted`` marker instead
    of a recomputed value, so a partially compacted index never
    presents a summarizable node over an unsummarizable cell.  Empty
    blocks (no surviving child) are deleted, propagating emptiness
    upward.  Returns the number of nodes written or deleted.
    """
    levels = pyramid_levels(index, layout_name)
    if not levels:
        return 0
    fanout = pyramid_fanout(index)
    table_name = index.table
    store = session.dgf_store(table_name,
                              storage_index_name(index.name, layout_name))
    pstore = pyramid_store(session, table_name, index.name, layout_name)
    policy = store.load_policy()
    coords = sorted(set(cells))
    if not coords:
        return 0
    demoted_coords = set(keep_demoted)
    # A touched cell outside the built extent deepens the pyramid; the
    # new super-levels fold *all* existing blocks, so incremental repair
    # cannot stay local — escalate to a rebuild (rare: only when an
    # append outruns the grid the index was built over).
    needed = max(levels_for_extent(hi - lo + 1, fanout)
                 for lo, hi in store.load_bounds().values())
    if needed > levels:
        summary = rebuild_pyramid(session, index, layout_name)
        if demoted_coords:
            demote_cells(session, index, demoted_coords, layout_name)
        return summary["nodes"]
    fns: Dict[str, AggFunction] = {}
    touched = 0
    with session.tracer.span("pyramid:refresh") as span:
        for level in range(1, levels + 1):
            size = fanout ** level
            blocks = sorted({tuple(c // size for c in coord)
                             for coord in coords})
            for block in blocks:
                if any(all(b * size <= d < (b + 1) * size
                           for b, d in zip(block, dcoord))
                       for dcoord in demoted_coords):
                    pstore.put_node(level, block, PyramidNode(demoted=True))
                    touched += 1
                    continue
                children = children_of(block, fanout)
                if level == 1:
                    keys = [policy.key_of_cells(child)
                            for child in children]
                    present = store.multi_get(keys)
                    values = [present[key] for key in keys
                              if key in present]
                    poisoned = False
                else:
                    fetched = pstore.multi_get(
                        [(level - 1, child) for child in children])
                    ordered = [fetched[(level - 1, child)]
                               for child in children
                               if (level - 1, child) in fetched]
                    poisoned = any(node.demoted for node in ordered)
                    values = [node for node in ordered if not node.demoted]
                if poisoned:
                    pstore.put_node(level, block, PyramidNode(demoted=True))
                elif values:
                    pstore.put_node(level, block,
                                    fold_children(values, fns))
                else:
                    pstore.delete_node(level, block)
                touched += 1
        span.set("layout", layout_name or _primary_name())
        span.add("pyramid.nodes_refreshed", touched)
    return touched


def demote_cells(session, index, cells: Iterable[Tuple[int, ...]],
                 layout_name: Optional[str] = None) -> int:
    """Mark the ancestor chains of ``cells`` (cell coordinates) as demoted.

    Called when streaming deltas land on (or tombstone) a cell: its
    pre-computed summaries are stale until compaction, so every node
    above it becomes a marker that readers recurse through.  Returns
    the number of markers written.
    """
    levels = pyramid_levels(index, layout_name)
    if not levels:
        return 0
    pstore = pyramid_store(session, index.table, index.name, layout_name)
    coords = set(cells)
    if not coords:
        return 0
    fanout = pyramid_fanout(index)
    marked = 0
    with session.tracer.span("pyramid:demote") as span:
        for level in range(1, levels + 1):
            size = fanout ** level
            for block in sorted({tuple(c // size for c in coord)
                                 for coord in coords}):
                pstore.put_node(level, block, PyramidNode(demoted=True))
                marked += 1
        span.add("pyramid.nodes_demoted", marked)
    return marked


def drop_pyramid(session, table_name: str, index_name: str,
                 layout_name: Optional[str] = None) -> None:
    """Delete one (index, layout) pyramid namespace."""
    PyramidStore(session.kvstore, table_name,
                 storage_index_name(index_name, layout_name)).clear()


def _primary_name() -> str:
    from repro.hdfs.layout import PRIMARY_LAYOUT
    return PRIMARY_LAYOUT
