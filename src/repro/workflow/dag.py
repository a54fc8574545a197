"""Workflow DAGs of HiveQL actions (Oozie work flows, as in the paper).

A stored procedure from the legacy RDBMS becomes a :class:`Workflow`: each
SQL statement is an :class:`Action`, and control dependencies become DAG
edges.  Actions are either HiveQL text (executed through the workflow's
:class:`~repro.hive.session.HiveSession`) or arbitrary Python callables
(for the archive-synchronization / ETL steps that talk to the "RDBMS").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError


class WorkflowError(ReproError):
    """Invalid workflow definitions or execution failures."""


class ActionStatus(enum.Enum):
    PENDING = "pending"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SKIPPED = "skipped"  # an upstream dependency failed


@dataclass
class Action:
    """One node of the DAG.

    ``payload`` is HiveQL text, or a callable receiving the workflow's
    context dict and returning a result.  ``after`` lists the names of
    actions that must succeed first.
    """

    name: str
    payload: Any
    after: Sequence[str] = ()
    #: total attempts before the action counts as FAILED (bounded retry
    #: for transient mid-DAG failures; 1 = no retry).
    max_attempts: int = 1

    def is_hiveql(self) -> bool:
        return isinstance(self.payload, str)


@dataclass
class ActionResult:
    name: str
    status: ActionStatus
    result: Any = None
    error: Optional[str] = None
    #: attempts actually executed (0 for SKIPPED actions).
    attempts: int = 0


@dataclass
class WorkflowRun:
    """Outcome of one workflow execution."""

    workflow: str
    results: Dict[str, ActionResult] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        return all(r.status is ActionStatus.SUCCEEDED
                   for r in self.results.values())

    def status_of(self, name: str) -> ActionStatus:
        return self.results[name].status

    def result_of(self, name: str) -> Any:
        return self.results[name].result


class Workflow:
    """A named DAG of actions executed in topological order."""

    def __init__(self, name: str):
        self.name = name
        self._actions: Dict[str, Action] = {}
        self._order: List[str] = []

    # ------------------------------------------------------------ definition
    def add(self, name: str, payload: Any,
            after: Sequence[str] = (),
            max_attempts: int = 1) -> "Workflow":
        """Add an action; returns self so definitions chain."""
        if name in self._actions:
            raise WorkflowError(
                f"workflow {self.name!r}: duplicate action {name!r}")
        if max_attempts < 1:
            raise WorkflowError(
                f"workflow {self.name!r}: action {name!r} max_attempts "
                "must be >= 1")
        for dep in after:
            if dep not in self._actions:
                raise WorkflowError(
                    f"workflow {self.name!r}: action {name!r} depends on "
                    f"unknown action {dep!r} (define dependencies first)")
        self._actions[name] = Action(name=name, payload=payload,
                                     after=tuple(after),
                                     max_attempts=max_attempts)
        self._order.append(name)
        return self

    def add_hiveql(self, name: str, sql: str,
                   after: Sequence[str] = ()) -> "Workflow":
        if not isinstance(sql, str):
            raise WorkflowError(f"action {name!r}: HiveQL must be text")
        return self.add(name, sql, after)

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, stable with respect to definition order.

        Because ``add`` only accepts already-defined dependencies the DAG
        is acyclic by construction; this still validates and gives the
        canonical order.
        """
        indegree = {name: len(action.after)
                    for name, action in self._actions.items()}
        children: Dict[str, List[str]] = {name: [] for name in self._actions}
        for action in self._actions.values():
            for dep in action.after:
                children[dep].append(action.name)
        ready = [name for name in self._order if indegree[name] == 0]
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for child in children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self._actions):  # pragma: no cover - guarded
            raise WorkflowError(f"workflow {self.name!r} has a cycle")
        return order

    # ------------------------------------------------------------- execution
    def run(self, session=None,
            context: Optional[Dict[str, Any]] = None) -> WorkflowRun:
        """Execute the DAG.  HiveQL actions need ``session``; callables get
        the ``context`` dict (which also accumulates results under
        ``context['results']``)."""
        run = WorkflowRun(workflow=self.name)
        context = dict(context or {})
        context.setdefault("results", {})
        for name in self.topological_order():
            action = self._actions[name]
            failed_dep = any(
                run.results[dep].status is not ActionStatus.SUCCEEDED
                for dep in action.after)
            if failed_dep:
                run.results[name] = ActionResult(
                    name=name, status=ActionStatus.SKIPPED, attempts=0)
                continue
            # Bounded retry: each attempt is a fresh execution of the
            # payload; the action fails only when every attempt raised
            # (and its failure still only SKIPs downstream actions — a
            # mid-DAG failure never strands the rest of the run).
            attempts = 0
            error: Optional[str] = None
            while attempts < action.max_attempts:
                attempts += 1
                try:
                    if action.is_hiveql():
                        if session is None:
                            raise WorkflowError(
                                f"action {name!r} is HiveQL but the workflow "
                                "was run without a session")
                        result = session.execute(action.payload)
                    else:
                        result = action.payload(context)
                except Exception as exc:  # noqa: BLE001 - report, don't hide
                    error = f"{type(exc).__name__}: {exc}"
                    continue
                context["results"][name] = result
                run.results[name] = ActionResult(
                    name=name, status=ActionStatus.SUCCEEDED,
                    result=result, attempts=attempts)
                break
            else:
                run.results[name] = ActionResult(
                    name=name, status=ActionStatus.FAILED,
                    error=error, attempts=attempts)
        return run
