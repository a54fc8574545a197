"""DGFIndex: a distributed grid-file multidimensional range index.

The index divides the key space into grid-file units (GFUs) using a
user-specified :class:`~repro.core.dgf.policy.SplittingPolicy`, physically
reorganizes the table so each GFU's records form one contiguous *Slice* on
HDFS, and stores per-GFU key-value pairs (pre-computed additive aggregate
headers + slice locations) in the key-value store.

Public surface:

* :class:`~repro.core.dgf.policy.SplittingPolicy` /
  :class:`~repro.core.dgf.policy.DimensionPolicy` — grid geometry;
* :class:`~repro.core.dgf.handler.DgfIndexHandler` — the Hive index handler
  (register once per session; done automatically by ``HiveSession``);
* :func:`~repro.core.dgf.builder.append_with_dgf` — the no-rebuild append
  path for newly collected (time-extended) data;
* :class:`~repro.core.dgf.advisor.PolicyAdvisor` — chooses interval sizes
  from a data sample and a query history (the paper's future work).
"""

from repro.core.dgf.policy import DimensionPolicy, SplittingPolicy
from repro.core.dgf.gfu import GFUValue, SliceLocation
from repro.core.dgf.grid import GridRegion, search_grid
from repro.core.dgf.handler import DgfIndexHandler
from repro.core.dgf.builder import add_precompute, append_with_dgf
from repro.core.dgf.advisor import PolicyAdvisor

__all__ = [
    "add_precompute",
    "DimensionPolicy",
    "SplittingPolicy",
    "GFUValue",
    "SliceLocation",
    "GridRegion",
    "search_grid",
    "DgfIndexHandler",
    "append_with_dgf",
    "PolicyAdvisor",
]
