"""KV persistence of the GFU aggregation pyramid.

A pyramid is a multi-resolution tree of additive header aggregates over
the GFU grid (k²-tree style, after *Aggregated 2D Range Queries on
Clustered Points*, Brisaboa et al.).  Level 0 is the existing GFU
entries themselves (``dgf:<table>:<index>:<gfukey>``); every higher
level stores one :class:`PyramidNode` per aligned block of ``fanout``
children along each dimension:

* ``dgfpyr:<table>:<index>:<level>:<b1>_<b2>...`` -> PyramidNode

where ``b_i = floor(k_i / fanout**level)`` is the block coordinate of
grid cell ``k_i``.  The namespace is per (table, index) exactly like
:class:`~repro.core.dgf.store.DgfStore`; replica-fleet layouts get
their own pyramids under their ``<index>@<layout>`` alias names.

An **absent** node means "no GFU exists in this block" — the builder
materializes every ancestor of every present cell, so readers treat a
miss as an empty region.  A node with ``demoted=True`` is a marker
written when some cell under it can no longer be summarized (resident
streaming deltas, tombstones): its header is meaningless and readers
must recurse into the block's children instead.

Reads go through :func:`~repro.core.dgf.store.cached_fetch`, so the
:class:`~repro.service.cache.GfuMetadataCache` caches pyramid nodes
with the same exact-key write-listener invalidation as GFU entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.core.dgf.policy import KEY_SEPARATOR
from repro.core.dgf.store import cached_fetch
from repro.kvstore.hbase import KVStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.cache import GfuMetadataCache

#: KV key namespace of pyramid nodes (sibling of ``dgf:`` / ``dgfmeta:``).
PYRAMID_PREFIX = "dgfpyr"

#: ``(level, block coordinates)`` — the identity of one pyramid node.
NodeId = Tuple[int, Tuple[int, ...]]


@dataclass
class PyramidNode:
    """The additive fold of one aligned block of GFU cells.

    ``header`` carries the same canonical aggregate states as
    :class:`~repro.core.dgf.gfu.GFUValue.header` (so the handler's
    header-merge fold accepts nodes and GFU values interchangeably);
    ``cells`` counts the *present* level-0 GFUs under the node — the
    query path uses it to report the same ``inner GFU`` hit count the
    flat header probe would have seen.
    """

    header: Dict[str, Any] = field(default_factory=dict)
    cells: int = 0
    records: int = 0
    #: a cell under this node cannot be summarized (tombstones or
    #: resident streaming deltas); readers recurse into the children.
    demoted: bool = False


def node_key(level: int, block: Sequence[int]) -> str:
    """Bare (un-namespaced) KV key of node ``(level, block)``."""
    return f"{level}:" + KEY_SEPARATOR.join(str(b) for b in block)


def parse_node_key(key: str) -> NodeId:
    """Inverse of :func:`node_key`."""
    level_text, block_text = key.split(":", 1)
    return (int(level_text),
            tuple(int(b) for b in block_text.split(KEY_SEPARATOR)))


class PyramidStore:
    """Typed access to one index's pyramid slice of the KV store."""

    def __init__(self, kvstore: KVStore, table: str, index: str,
                 cache: Optional["GfuMetadataCache"] = None):
        self.kvstore = kvstore
        self.cache = cache
        self._prefix = f"{PYRAMID_PREFIX}:{table.lower()}:{index.lower()}:"

    # ------------------------------------------------------------------ keys
    def full_key(self, level: int, block: Sequence[int]) -> str:
        return self._prefix + node_key(level, block)

    # ------------------------------------------------------------------- ops
    def put_node(self, level: int, block: Sequence[int],
                 node: PyramidNode) -> None:
        self.kvstore.put(self.full_key(level, block), node)

    def delete_node(self, level: int, block: Sequence[int]) -> bool:
        return self.kvstore.delete(self.full_key(level, block))

    def multi_get(self, node_ids: Sequence[NodeId]) -> Dict[NodeId,
                                                            PyramidNode]:
        """Batch node fetch; absent nodes (empty regions) are omitted.

        Served through :func:`cached_fetch` so cache state never changes
        the logical per-query accounting.
        """
        full_keys = [self.full_key(level, block)
                     for level, block in node_ids]
        found = cached_fetch(self.kvstore, self.cache, full_keys)
        return {parse_node_key(key[len(self._prefix):]): value
                for key, value in found.items()}

    def iter_nodes(self) -> Iterator[Tuple[NodeId, PyramidNode]]:
        stop = self._prefix + "\U0010ffff"
        for key, value in self.kvstore.scan(self._prefix, stop):
            yield parse_node_key(key[len(self._prefix):]), value

    def count_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def clear(self) -> None:
        for (level, block), _value in list(self.iter_nodes()):
            self.kvstore.delete(self.full_key(level, block))
