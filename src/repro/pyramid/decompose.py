"""Greedy decomposition of an inner region into maximal pyramid nodes.

Algorithm 3 gives the query's inner region as an axis-aligned box of
grid cells, and the grid search hands it over as exactly that — two
corner vectors, never a key list.  :func:`cover_box` covers that box with the largest aligned
pyramid blocks that fit entirely inside it (k²-tree style), dropping to
level-0 cells only at the misaligned fringe — O(polylog) probes instead
of one probe per inner cell.  :func:`resolve_cover` then fetches the
cover, recursing through ``demoted`` markers down to base GFU entries,
and returns the header-bearing values in canonical coordinate order so
the handler's float folds stay deterministic.

Both halves are pure geometry plus batched KV reads; neither mutates
anything, so the same code prices hypothetical pyramids for the layout
router and the what-if evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, FrozenSet, Iterable, List, Tuple

from repro.core.dgf.policy import SplittingPolicy
from repro.pyramid.build import children_of
from repro.pyramid.store import NodeId, PyramidNode, PyramidStore

Coords = Tuple[int, ...]


@dataclass
class PyramidCover:
    """A disjoint cover of the inner box: internal nodes + fringe cells."""

    nodes: List[NodeId] = field(default_factory=list)
    leaves: List[Coords] = field(default_factory=list)
    #: built pyramid depth the cover was computed against.
    levels: int = 0

    @property
    def probes(self) -> int:
        return len(self.nodes) + len(self.leaves)


def cover_box(lo: Coords, hi: Coords, blocked: FrozenSet[Coords],
              fanout: int, levels: int) -> Tuple[List[NodeId],
                                                 List[Coords]]:
    """Maximal aligned cover of the inclusive cell box ``[lo, hi]``.

    A block is emitted as a node only when it lies entirely inside the
    box and contains no ``blocked`` cell (cells whose summaries may not
    be used — tombstone-demoted inner cells); everything else recurses
    into its box-intersecting children (aggregated k²-tree range search)
    down to level-0 ``leaves``.  Traversal order is canonical (sorted
    blocks, children ascending), so the cover — and therefore every
    downstream float fold — is deterministic.
    """
    nodes: List[NodeId] = []
    leaves: List[Coords] = []

    def recurse(level: int, block: Coords) -> None:
        if level == 0:
            if block not in blocked:
                leaves.append(block)
            return
        size = fanout ** level
        region_lo = tuple(b * size for b in block)
        region_hi = tuple(b * size + size - 1 for b in block)
        inside = all(l <= rlo and rhi <= h for rlo, rhi, l, h
                     in zip(region_lo, region_hi, lo, hi))
        if inside and not any(
                all(rlo <= b <= rhi for rlo, rhi, b
                    in zip(region_lo, region_hi, cell))
                for cell in blocked):
            nodes.append((level, block))
            return
        child = size // fanout
        for sub in product(*[range(max(b * fanout, l // child),
                                   min(b * fanout + fanout - 1,
                                       h // child) + 1)
                             for b, l, h in zip(block, lo, hi)]):
            recurse(level - 1, sub)

    top = fanout ** levels
    for block in product(*[range(l // top, h // top + 1)
                           for l, h in zip(lo, hi)]):
        recurse(levels, tuple(block))
    return nodes, leaves


def decompose_region(lo: Coords, hi: Coords, blocked: Iterable[Coords],
                     fanout: int, levels: int) -> PyramidCover:
    """Cover the inner box ``[lo, hi]`` of a grid search (the region's
    ``inner_box``: the full box, *before* tombstone demotion) with
    maximal pyramid nodes, keeping the ``blocked`` cells out of every
    node.  An empty box yields an empty cover; ``levels == 0`` one leaf
    per cell.
    """
    nodes, leaves = cover_box(lo, hi, frozenset(blocked), fanout, levels)
    return PyramidCover(nodes=nodes, leaves=leaves, levels=levels)


def resolve_cover(pstore: PyramidStore, store, policy: SplittingPolicy,
                  cover: PyramidCover,
                  fanout: int) -> Tuple[List[Any], Dict[str, int]]:
    """Fetch a cover's nodes and fringe cells from the KV store.

    Demoted markers expand into their children and are re-fetched,
    level by level, until everything resolves to either a summarizable
    node or a base GFU entry.  Returns the header-bearing values sorted
    by region origin (canonical fold order) plus the probe statistics
    surfaced in ``EXPLAIN`` / the ``dgf.pyramid`` span:

    * ``nodes`` — internal nodes whose summaries were used,
    * ``leaves`` — level-0 header probes issued,
    * ``levels`` — highest node level used (0 when the fringe covered
      everything),
    * ``gets`` — physical KV probes issued by the pyramid path,
    * ``inner_hits`` — present base GFUs represented, which equals the
      flat path's inner-GFU hit count by construction.
    """
    contributions: List[Tuple[Coords, Any]] = []
    nodes_used = 0
    top_level = 0
    gets = 0
    leaves: List[Coords] = list(cover.leaves)
    pending: List[NodeId] = sorted(cover.nodes)
    while pending:
        fetched = pstore.multi_get(pending)
        gets += len(pending)
        next_pending: List[NodeId] = []
        for level, block in pending:
            node = fetched.get((level, block))
            if node is None:
                continue  # empty region: no GFU exists under this block
            if node.demoted:
                if level == 1:
                    leaves.extend(children_of(block, fanout))
                else:
                    next_pending.extend(
                        (level - 1, child)
                        for child in children_of(block, fanout))
            else:
                size = fanout ** level
                contributions.append(
                    (tuple(b * size for b in block), node))
                nodes_used += 1
                top_level = max(top_level, level)
        pending = sorted(next_pending)
    leaves = sorted(set(leaves))
    leaf_keys = [policy.key_of_cells(cell) for cell in leaves]
    found = store.multi_get(leaf_keys)
    gets += len(leaf_keys)
    leaf_hits = 0
    for cell, key in zip(leaves, leaf_keys):
        value = found.get(key)
        if value is not None:
            contributions.append((cell, value))
            leaf_hits += 1
    contributions.sort(key=lambda item: item[0])
    inner_hits = leaf_hits + sum(
        obj.cells for _, obj in contributions
        if isinstance(obj, PyramidNode))
    stats = {"nodes": nodes_used, "leaves": len(leaf_keys),
             "levels": top_level, "gets": gets, "inner_hits": inner_hits}
    return [obj for _, obj in contributions], stats
