"""Hierarchical GFU aggregation pyramid (k²-tree-style pre-aggregation).

Makes fine grid granularity free at query time: the aggregation path
answers an inner region of N cells from O(polylog N) pyramid nodes
instead of N flat header probes, with byte-identical results, stats and
normalized traces.  See ``docs/pyramid.md``.
"""

from repro.pyramid.build import (DEFAULT_FANOUT, PYRAMID_STATE_KEY,
                                 demote_cells, drop_pyramid,
                                 fold_children, levels_for_extent,
                                 pyramid_fanout, pyramid_levels,
                                 pyramid_state, pyramid_store,
                                 rebuild_pyramid, refresh_cells,
                                 storage_index_name)
from repro.pyramid.decompose import (PyramidCover, cover_box,
                                     decompose_region, resolve_cover)
from repro.pyramid.store import (PYRAMID_PREFIX, NodeId, PyramidNode,
                                 PyramidStore, node_key, parse_node_key)

__all__ = [
    "DEFAULT_FANOUT", "PYRAMID_PREFIX", "PYRAMID_STATE_KEY", "NodeId",
    "PyramidCover", "PyramidNode", "PyramidStore", "cover_box", "decompose_region", "demote_cells", "drop_pyramid",
    "fold_children", "levels_for_extent", "node_key", "parse_node_key",
    "pyramid_fanout", "pyramid_levels", "pyramid_state", "pyramid_store",
    "rebuild_pyramid", "refresh_cells", "resolve_cover",
    "storage_index_name",
]
