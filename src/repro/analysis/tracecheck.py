"""Runtime trace validation against the declarative schema + lifecycles.

Where the static rules (:mod:`.trace_rules`) check the *call sites*, this
module checks *recorded runs*: every record's category and payload are
validated against :mod:`.schema`, and each entity's event sequence is
replayed through the state machines in :mod:`.lifecycle`.  Used by
``jets lint-trace RUN.jsonl`` and directly on live
:class:`~repro.simkernel.Trace` objects in tests.

Validation codes:

* **TV001** — unknown trace category.
* **TV002** — payload schema violation (missing/unknown key, not a dict).
* **TV003** — non-monotonic record timestamps.
* **TV004** — illegal lifecycle transition for a job/worker/proxy.  A
  job record attributed to a worker after that worker's ``worker.lost``
  comes from a zombie (a partitioned pilot still running a stale
  attempt), not from the job's lifecycle, and is not replayed until the
  worker registers again.
* **TV005** — lifecycle record without its entity id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..simkernel import Trace, TraceRecord
from .lifecycle import MACHINES, StateMachine
from .schema import lookup

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

    def apply(self, entity: object, event: str) -> Optional[str]:
        """Advance ``entity`` by ``event``; returns a violation message."""
        machine = self.machine
        if event in machine.ignored_events:
            return None
        state = machine.state_for_event(event)
        if state is None:
            # Unknown event suffix — reported as TV001 via the registry.
            return None
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


def _entity_id(machine: StateMachine, data) -> object:
    """The replay key for one record (proxies are scoped per job)."""
    if not isinstance(data, dict):
        return None
    ident = data.get(machine.id_key)
    if ident is None:
        return None
    if machine.entity == "proxy":
        return (data.get("job"), ident)
    return ident


class TraceValidator:
    """Incremental trace validation: feed records as they stream.

    The subscriber form of :func:`validate_records`: attach :meth:`feed`
    to a live :class:`~repro.simkernel.TraceSink` (in-RAM or streaming)
    or call it per record while replaying a JSONL dump.  Validation
    state is the per-entity lifecycle replay plus the previous timestamp
    — bounded by entity count, never by record count — so a windowed
    streaming sink gets the exact verdicts a post-hoc full scan would
    produce.
    """

    def __init__(self, check_schema: bool = True, check_lifecycle: bool = True):
        self.check_schema = check_schema
        self.check_lifecycle = check_lifecycle
        self.issues: list[TraceIssue] = []
        self._replays = {prefix: _Replay(m) for prefix, m in MACHINES.items()}
        #: Workers declared lost and not registered since.
        self._zombies: set[object] = set()
        self._last_time: Optional[float] = None
        self._index = 0

    @property
    def records_seen(self) -> int:
        """How many records have been fed so far."""
        return self._index

    def feed(self, rec: TraceRecord) -> None:
        """Validate one record (subscriber entry point)."""
        index = self._index
        self._index = index + 1
        cat, data = rec.category, rec.data
        issues = self.issues

        def issue(code: str, message: str) -> None:
            issues.append(TraceIssue(index, rec.time, cat, code, message))

        if self._last_time is not None and rec.time < self._last_time:
            issue(
                "TV003",
                f"timestamp {rec.time} precedes previous record "
                f"({self._last_time}); trace is not in event order",
            )
        self._last_time = rec.time

        if self.check_schema:
            spec = lookup(cat)
            if spec is None:
                issue("TV001", f"unknown trace category {cat!r}")
            else:
                for problem in spec.payload_problems(data):
                    issue("TV002", problem)

        if self.check_lifecycle and "." in cat:
            prefix, event = cat.split(".", 1)
            replay = self._replays.get(prefix)
            if replay is None:
                return
            machine = replay.machine
            if event in machine.ignored_events:
                return
            if machine.state_for_event(event) is None:
                return  # unknown event — TV001 covers it
            entity = _entity_id(machine, data)
            if entity is None:
                issue(
                    "TV005",
                    f"lifecycle record lacks its {machine.id_key!r} id key",
                )
                return
            if prefix == "worker":
                if event == "lost":
                    self._zombies.add(entity)
                elif event == "registered":
                    self._zombies.discard(entity)
            elif prefix == "job" and data.get("worker") in self._zombies:
                return
            problem = replay.apply(entity, event)
            if problem is not None:
                issue("TV004", problem)


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
    trace: Union[Trace, Iterable[TraceRecord]],
    **kwargs,
) -> list[TraceIssue]:
    """Validate a live trace (or any record iterable)."""
    records = trace.records if isinstance(trace, Trace) else trace
    return validate_records(records, **kwargs)
