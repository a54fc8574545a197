"""Slice placement: the paper's second stated future-work problem.

"The optimal placement of Slices will also be our next step research
problem."  (Section 8.)

The default build partitions GFUKeys across reducers by hash, so slices
that a range query touches together are scattered across many output
files (and therefore many splits).  Z-order placement instead routes keys
to reducers by the Morton code of their cell-index vector: cells that are
close in the grid land in the same reducer's file, contiguously, which
shrinks the number of splits a query must touch and lengthens sequential
runs inside them.

Enable it per index with ``IDXPROPERTIES ('placement'='zorder')``; the
default remains ``'placement'='hash'``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.core.dgf.policy import SplittingPolicy
from repro.errors import DGFError

PLACEMENT_PROPERTY = "placement"
PLACEMENTS = ("hash", "zorder")

#: bits of each dimension's cell index interleaved into the Morton code
_BITS_PER_DIMENSION = 16


def morton_code(cells: Sequence[int]) -> int:
    """Interleave the bits of a cell-index vector (Z-order curve).

    Negative indexes (possible when data sits below a dimension's origin)
    are clamped to zero: such cells are rare edge cells and perfect
    placement for them does not matter.

    >>> morton_code([0b11, 0b00])
    10
    >>> morton_code([1]) == 1
    True
    """
    code = 0
    ndims = len(cells)
    for bit in range(_BITS_PER_DIMENSION):
        for d, cell in enumerate(cells):
            cell = max(0, int(cell))
            if cell & (1 << bit):
                code |= 1 << (bit * ndims + d)
    return code


def zorder_partitioner(policy: SplittingPolicy,
                       num_reducers: int) -> Callable[[str], int]:
    """A build-job partitioner mapping GFUKeys to reducers by contiguous
    Z-order blocks, so grid-adjacent cells co-locate in one output file."""
    if num_reducers < 1:
        raise DGFError("num_reducers must be >= 1")
    # Contiguous blocks of the Z-curve map to the same reducer: drop the
    # low bits so each reducer owns runs of nearby cells rather than an
    # interleaved sprinkle.
    block_bits = max(2, _BITS_PER_DIMENSION * len(policy) // 8)

    def partition(gfu_key: str) -> int:
        cells = policy.cells_of_key(gfu_key)
        return (morton_code(cells) >> block_bits) % num_reducers

    return partition


def resolve_placement(properties: Dict[str, str]) -> str:
    """Validate and return the index's placement strategy."""
    placement = properties.get(PLACEMENT_PROPERTY, "hash").lower()
    if placement not in PLACEMENTS:
        raise DGFError(
            f"unknown placement {placement!r}; choose one of {PLACEMENTS}")
    return placement
