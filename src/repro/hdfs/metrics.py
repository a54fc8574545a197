"""I/O accounting shared by the filesystem, MapReduce engine and cost model.

Thread model: :class:`IOStats` instances are plain integer accumulators with
no lock on the hot path.  Concurrent task execution (the parallel MapReduce
engine) is made safe by :func:`task_io_scope`: inside a scope, every
``record_read``/``record_write`` issued by the *current thread* lands in a
private per-instance buffer, and the buffers are folded into the real
instances exactly once, at task completion, under a short module lock.  A
task therefore observes its own exact I/O delta (``scope.captured``) and the
shared totals stay race-free without serializing reads.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: guards the (rare) buffer -> shared-instance merge at task completion.
_MERGE_LOCK = threading.Lock()
#: per-thread active capture scope (None outside any task).
_ACTIVE = threading.local()


@dataclass
class IOStats:
    """Running totals of I/O operations.

    Instances form a tree: each :class:`~repro.hdfs.datanode.DataNode` owns
    one, and the filesystem owns a global one; updates go to both.  The cost
    model reads the global instance after a job to convert byte counts into
    simulated seconds.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0
    seeks: int = 0

    def record_read(self, nbytes: int, seek: bool = False) -> None:
        target = _sink_for(self)
        target.bytes_read += int(nbytes)
        target.read_ops += 1
        if seek:
            target.seeks += 1

    def record_write(self, nbytes: int) -> None:
        target = _sink_for(self)
        target.bytes_written += int(nbytes)
        target.write_ops += 1

    def snapshot(self) -> "IOStats":
        """Return a copy of the current counters.

        Inside a :func:`task_io_scope`, this reads the *shared* totals; the
        calling task's still-buffered updates are excluded until the scope
        exits (the engine reads per-task deltas via ``scope.captured``).
        """
        return IOStats(self.bytes_read, self.bytes_written,
                       self.read_ops, self.write_ops, self.seeks)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` (an older snapshot)."""
        return IOStats(
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.read_ops - earlier.read_ops,
            self.write_ops - earlier.write_ops,
            self.seeks - earlier.seeks,
        )

    def merge(self, other: "IOStats") -> None:
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.read_ops += other.read_ops
        self.write_ops += other.write_ops
        self.seeks += other.seeks


class TaskIOScope:
    """Collects one thread's IOStats updates into per-instance buffers."""

    def __init__(self):
        # id(stats) -> (stats, buffer); holding the stats object keeps it
        # alive so the id cannot be recycled while the scope runs.
        self._buffers: Dict[int, Tuple[IOStats, IOStats]] = {}

    def _buffer(self, stats: IOStats) -> IOStats:
        entry = self._buffers.get(id(stats))
        if entry is None:
            entry = (stats, IOStats())
            self._buffers[id(stats)] = entry
        return entry[1]

    def captured(self, stats: IOStats) -> IOStats:
        """This task's accumulated updates against ``stats`` (a copy)."""
        entry = self._buffers.get(id(stats))
        if entry is None:
            return IOStats()
        return entry[1].snapshot()

    def _flush(self, parent: Optional["TaskIOScope"]) -> None:
        if parent is not None:
            for stats, buffer in self._buffers.values():
                parent._buffer(stats).merge(buffer)
            return
        with _MERGE_LOCK:
            for stats, buffer in self._buffers.values():
                stats.merge(buffer)


@contextmanager
def task_io_scope() -> Iterator[TaskIOScope]:
    """Capture the current thread's IOStats updates until the scope exits.

    The merge into the shared instances happens once per scope (per task),
    so concurrent tasks never race on the bare ``+=`` hot path.  Scopes
    nest: an inner scope flushes into its parent's buffers.
    """
    scope = TaskIOScope()
    parent = getattr(_ACTIVE, "scope", None)
    _ACTIVE.scope = scope
    try:
        yield scope
    finally:
        _ACTIVE.scope = parent
        scope._flush(parent)


def _sink_for(stats: IOStats) -> IOStats:
    scope = getattr(_ACTIVE, "scope", None)
    if scope is None:
        return stats
    return scope._buffer(stats)
