"""Runtime trace validation against the declarative schema + lifecycles.

Where the static rules (:mod:`.trace_rules`) check the *call sites*, this
module checks *recorded runs*: every record's category and payload are
validated against :mod:`.schema`, and each entity's event sequence is
replayed through the state machines in :mod:`.lifecycle`.  Used by
``jets lint-trace RUN.jsonl`` and directly on live
:class:`~repro.simkernel.Trace` objects in tests.

Validation codes:

* **TV001** — unknown trace category.
* **TV002** — payload schema violation (missing/unknown key, a value of
  the wrong kind, not a dict).
* **TV003** — non-monotonic record timestamps.
* **TV004** — illegal lifecycle transition for a job/worker/proxy.  A
  job record attributed to a worker after that worker's ``worker.lost``
  comes from a zombie (a partitioned pilot still running a stale
  attempt), not from the job's lifecycle, and is not replayed until the
  worker registers again.
* **TV005** — lifecycle record without a usable entity id (missing, or
  a value such as a list that is not an id); it is not replayed.

TV001, TV002 and TV005 come from the one record judge,
:func:`repro.analysis.schema.record_problems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional

from ..simkernel import TraceRecord
from .lifecycle import MACHINES, StateMachine
from .schema import lookup, record_problems

__all__ = [
    "TraceIssue",
    "TraceValidator",
    "validate_records",
    "validate_trace",
]


@dataclass(frozen=True)
class TraceIssue:
    """One invalid aspect of a recorded run."""

    index: int
    time: float
    category: str
    code: str
    message: str

    def render(self) -> str:
        return (
            f"record {self.index} @ {self.time:.6f} [{self.category}] "
            f"{self.code}: {self.message}"
        )


class _Replay:
    """Per-entity lifecycle replay for one state machine."""

    def __init__(self, machine: StateMachine):
        self.machine = machine
        self.states: dict[object, str] = {}

    def apply(self, entity: object, state: str) -> Optional[str]:
        """Advance ``entity`` into ``state``; returns a violation message."""
        machine = self.machine
        current = self.states.get(entity)
        if machine.can(current, state):
            self.states[entity] = state
            return None
        # Entities may be reincarnated after a terminal state (e.g. the
        # proxies of a resubmitted MPI job attempt reuse their ids), and
        # an entity stuck at an *initial* state may be relaunched (a
        # proxy killed before it ever registered).
        if (
            current is not None
            and state in machine.initial
            and (machine.is_terminal(current) or current in machine.initial)
        ):
            self.states[entity] = state
            return None
        origin = current if current is not None else "<entry>"
        return (
            f"illegal {machine.entity} transition {origin} -> {state} "
            f"for {machine.entity} {entity!r}"
        )


class TraceValidator:
    """Incremental trace validation: feed records as they stream.

    The subscriber form of :func:`validate_records`: attach :meth:`feed`
    to a live :class:`~repro.simkernel.Trace` (bounded or not) or call
    it per record while replaying a JSONL dump.  Validation state is the
    per-entity lifecycle replay plus the previous timestamp — bounded by
    entity count, never by record count — so a trace with a retention
    window gets the exact verdicts a post-hoc full scan would produce.

    Everything that depends only on the category (its judge, its
    lifecycle machine, event and target state) is routed once, the
    first time the category is seen; issue text is built only for a
    record that fails a check.
    """

    def __init__(self, check_schema: bool = True, check_lifecycle: bool = True):
        self.check_schema = check_schema
        self.check_lifecycle = check_lifecycle
        self.issues: list[TraceIssue] = []
        self._replays = {prefix: _Replay(m) for prefix, m in MACHINES.items()}
        #: category -> (judge, replay, event, state); replay is None
        #: for a category that moves no lifecycle.
        self._routes: dict[str, tuple] = {}
        #: Workers declared lost and not registered since.
        self._zombies: set[object] = set()
        self._last_time: Optional[float] = None
        self._index = 0

    @property
    def records_seen(self) -> int:
        """How many records have been fed so far."""
        return self._index

    def _route(self, cat: str) -> tuple:
        """The category's judge and lifecycle replay (computed once)."""
        spec = lookup(cat)
        judge = spec.problems if spec is not None else partial(
            record_problems, cat
        )
        if "." in cat:
            prefix, event = cat.split(".", 1)
            replay = self._replays.get(prefix)
            if replay is not None:
                machine = replay.machine
                state = machine.state_for_event(event)
                # Ignored events move no state; an unknown event is
                # reported as TV001 by the judge.
                if event not in machine.ignored_events and state is not None:
                    return judge, replay, event, state
        return judge, None, None, None

    def feed(self, rec: TraceRecord) -> None:
        """Validate one record (subscriber entry point)."""
        index = self._index
        self._index = index + 1
        time = rec.time
        last = self._last_time
        if last is not None and time < last:
            self._issue(
                index, rec, "TV003",
                f"timestamp {time} precedes previous record "
                f"({last}); trace is not in event order",
            )
        self._last_time = time

        cat = rec.category
        route = self._routes.get(cat)
        if route is None:
            route = self._routes[cat] = self._route(cat)
        judge, replay, event, state = route
        data = rec.data

        problems = judge(data)
        for code, message in problems:
            if code == "TV005" and self.check_lifecycle or (
                code != "TV005" and self.check_schema
            ):
                self._issue(index, rec, code, message)
        if replay is None or not self.check_lifecycle:
            return
        if problems and problems[-1][0] == "TV005":
            return  # a TV005 record is not replayed (the judge lists it last)
        prefix = replay.machine.entity
        # The judge passed the ids, so they are present and hashable;
        # proxy ids are scoped per job.
        entity = data[replay.machine.id_key]
        if prefix == "proxy":
            entity = (data.get("job"), entity)
        if prefix == "worker":
            if event == "lost":
                self._zombies.add(entity)
            elif event == "registered":
                self._zombies.discard(entity)
        elif prefix == "job" and data.get("worker") in self._zombies:
            return
        problem = replay.apply(entity, state)
        if problem is not None:
            self._issue(index, rec, "TV004", problem)

    def _issue(
        self, index: int, rec: TraceRecord, code: str, message: str
    ) -> None:
        self.issues.append(
            TraceIssue(index, rec.time, rec.category, code, message)
        )


def validate_records(
    records: Iterable[TraceRecord],
    check_schema: bool = True,
    check_lifecycle: bool = True,
) -> list[TraceIssue]:
    """All validation issues for one run's records, in record order."""
    validator = TraceValidator(
        check_schema=check_schema, check_lifecycle=check_lifecycle
    )
    feed = validator.feed
    for rec in records:
        feed(rec)
    return validator.issues


def validate_trace(
    trace: Iterable[TraceRecord],
    **kwargs,
) -> list[TraceIssue]:
    """Validate a trace that kept every record (or any record iterable).

    A :class:`~repro.simkernel.Trace` whose window evicted records
    refuses iteration with :class:`ValueError`, because a lifecycle
    replay of the retained tail would report false TV004s; subscribe
    :meth:`TraceValidator.feed` to such a trace before the run instead.
    """
    return validate_records(trace, **kwargs)
