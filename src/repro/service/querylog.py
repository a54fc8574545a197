"""Bounded query log: the advisor's view of the served workload.

The serving layer already sees every query; this module gives it a place
to remember them.  Each executed DGF range query becomes one compact
:class:`LoggedQuery` — per-dimension coordinate spans of the query
region (in *primary*-grid coordinates, recorded before replica routing),
whether the pre-computed-header path applied, which layout served it,
and the measured simulated cost.  :class:`QueryLog` keeps a bounded,
thread-safe window of them, serializable to JSON for on-disk retention.

Capture is strictly observational: sessions without an attached log pay
nothing, and attaching one changes no query observable (proven by
``tests/test_advisor_differential.py``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["LoggedQuery", "QueryLog"]


@dataclass(frozen=True)
class LoggedQuery:
    """One executed range query, compact enough to keep thousands of."""

    table: str
    index: str
    #: per-dimension coordinate span, None = unconstrained
    spans: Dict[str, Optional[Tuple[float, float]]]
    #: did the pre-computed-header (aggregation) path apply?
    agg_path: bool = True
    #: replica layout that served the query (None = no fleet)
    layout: Optional[str] = None
    #: measured simulated seconds (QueryStats.time.total)
    seconds: float = 0.0
    records_read: int = 0
    records_matched: int = 0
    output_records: int = 0
    weight: float = 1.0

    @property
    def widths(self) -> Dict[str, Optional[float]]:
        """Per-dimension range widths — :class:`QueryProfile` shape."""
        return {key: None if span is None else span[1] - span[0]
                for key, span in self.spans.items()}

    def to_dict(self) -> Dict[str, Any]:
        return {"table": self.table, "index": self.index,
                "spans": {key: None if span is None else list(span)
                          for key, span in self.spans.items()},
                "agg_path": self.agg_path, "layout": self.layout,
                "seconds": self.seconds,
                "records_read": self.records_read,
                "records_matched": self.records_matched,
                "output_records": self.output_records,
                "weight": self.weight}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoggedQuery":
        return cls(table=data["table"], index=data["index"],
                   spans={key: None if span is None
                          else (float(span[0]), float(span[1]))
                          for key, span in data["spans"].items()},
                   agg_path=bool(data.get("agg_path", True)),
                   layout=data.get("layout"),
                   seconds=float(data.get("seconds", 0.0)),
                   records_read=int(data.get("records_read", 0)),
                   records_matched=int(data.get("records_matched", 0)),
                   output_records=int(data.get("output_records", 0)),
                   weight=float(data.get("weight", 1.0)))


class QueryLog:
    """Thread-safe bounded log of :class:`LoggedQuery` entries.

    Keeps the newest ``capacity`` entries (oldest dropped, counted in
    :attr:`dropped`); ``total`` counts every record ever seen, so drift
    detectors can tell "quiet" from "recycled".
    """

    def __init__(self, capacity: int = 1024):
        if capacity <= 0:
            raise ValueError("QueryLog capacity must be positive")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total = 0
        self.dropped = 0

    def record(self, entry: LoggedQuery) -> None:
        with self._lock:
            if len(self._entries) == self.capacity:
                self.dropped += 1
            self._entries.append(entry)
            self.total += 1

    def entries(self) -> List[LoggedQuery]:
        with self._lock:
            return list(self._entries)

    def window(self, n: int) -> List[LoggedQuery]:
        """The newest ``n`` entries, oldest first."""
        with self._lock:
            entries = list(self._entries)
        return entries[-n:] if n > 0 else []

    def for_index(self, table: str, index: str,
                  window: Optional[int] = None) -> List[LoggedQuery]:
        """Entries for one index, optionally only the newest ``window``."""
        entries = self.entries() if window is None else self.window(window)
        return [e for e in entries
                if e.table.lower() == table.lower()
                and e.index.lower() == index.lower()]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        with self._lock:
            entries = list(self._entries)
            state = {"schema": "dgf-repro/querylog", "version": 1,
                     "capacity": self.capacity, "total": self.total,
                     "dropped": self.dropped,
                     "entries": [e.to_dict() for e in entries]}
        return json.dumps(state, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryLog":
        state = json.loads(text)
        log = cls(capacity=state["capacity"])
        for entry in state["entries"]:
            log._entries.append(LoggedQuery.from_dict(entry))
        log.total = state.get("total", len(log._entries))
        log.dropped = state.get("dropped", 0)
        return log

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "QueryLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
