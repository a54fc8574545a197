"""The benchmark's four workloads, by their permanent names."""

from workloads.agg_warm import AggWarm
from workloads.fine_grid import FineGrid
from workloads.ingest_mixed import IngestMixed
from workloads.scan_heavy import ScanHeavy

WORKLOADS = {cls.name: cls
             for cls in (AggWarm, ScanHeavy, FineGrid, IngestMixed)}
