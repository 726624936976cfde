"""Central trace schema registry: every legal trace category, declared.

Every reported metric in this reproduction is derived from trace records
(paper Section 6.1.5), so a typo'd category, a missing payload key or a
value of the wrong kind silently drops data from spans, timelines and
Eq. (1) utilization.  This registry declares the full category
vocabulary, the payload keys each category must / may carry and the kind
of value each holds; the static pass (:mod:`.trace_rules`) checks
``trace.log(...)`` call sites against it, and :func:`record_problems` is
the one judge of a recorded record.

Lifecycle categories (``job.*``, ``worker.*``, ``proxy.*``) are *derived*
from the state machines in :mod:`.lifecycle` so the two views cannot
drift apart.

Call sites should log through the exported category constants (e.g.
:data:`WORKER_IDLE`) rather than building category strings dynamically —
a dynamic category escapes both the registry and the static checker.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Optional

from .lifecycle import JOB_MACHINE, PROXY_MACHINE, WORKER_MACHINE

__all__ = [
    "CategorySpec",
    "REGISTRY",
    "PREFIX_FAMILIES",
    "lookup",
    "known_category",
    "record_problems",
    # category constants (the ones components log directly)
    "RUN_ALLOCATION",
    "ALLOCATION_START",
    "ALLOCATION_END",
    "FAULT_KILL",
    "FAULT_PROXY_KILL",
    "FAULT_STRAGGLER",
    "FAULT_NET_DROP",
    "FAULT_NET_DELAY",
    "FAULT_PARTITION",
    "FAULT_HEAL",
    "FAULT_STAGING",
    "FAULT_DISPATCHER_CRASH",
    "RESUME_BEGIN",
    "RESUME_SKIP",
    "RESUME_RESUBMIT",
    "JOURNAL_RUN_BEGIN",
    "JOURNAL_RUN_END",
    "JOURNAL_JOB_SUBMITTED",
    "JOURNAL_JOB_LAUNCHED",
    "JOURNAL_JOB_DONE",
    "JOURNAL_JOB_FAILED",
    "JOURNAL_JOB_RETRY",
    "JOURNAL_WORKER_REGISTERED",
    "JOURNAL_WORKER_LOST",
    "RECOVER_BACKOFF",
    "RECOVER_HUNG",
    "RECOVER_GANG_TEARDOWN",
    "RECOVER_RECONCILE",
    "RECOVER_ZOMBIE",
    "RECOVER_QUARANTINE",
    "RECOVER_READMIT",
    "RECOVER_RESPAWN",
    "DISPATCHER_REGISTER",
    "PROTOCOL_ERROR",
    "COASTERS_BLOCK_REQUESTED",
    "COASTERS_BLOCK_READY",
    "WORKER_IDLE",
    "WORKER_BUSY",
    "JOB_DONE",
    "JOB_FAILED",
    "OBS_PROGRESS",
    "COUNTER_PREFIX",
]


_FLOAT_MAX = sys.float_info.max


class Kind(NamedTuple):
    """What a payload value may be: one of ``types`` exactly (so a bool
    is not an int); a map kind's every value is one of ``values``.  An
    int where a float may stand must fit in a float, as a record's
    ``t`` must: a reader formats it as one."""

    name: str
    types: frozenset
    values: frozenset = frozenset()

    def admits(self, value: Any) -> bool:
        if not _fits(value, self.types):
            return False
        return not self.values or all(
            _fits(item, self.values) for item in value.values()
        )


def _fits(value: Any, types: frozenset) -> bool:
    kind = type(value)
    return kind in types and (
        kind is not int or float not in types or abs(value) <= _FLOAT_MAX
    )



ID = Kind("an id (int or str)", frozenset({int, str}))
INT = Kind("an int", frozenset({int}))
NUMBER = Kind("a number", frozenset({int, float}))
STR = Kind("a str", frozenset({str}))
STR_OR_NULL = Kind("a str or null", frozenset({str, type(None)}))
LIST = Kind("a list", frozenset({list}))
INT_MAP = Kind("an object of ints", frozenset({dict}), INT.types)
NUMBER_MAP = Kind("an object of numbers", frozenset({dict}), NUMBER.types)

#: The kind of every payload key, by name; :data:`_CATEGORY_KINDS` holds
#: the few keys whose kind depends on the category.
_KINDS: dict[str, Kind] = {
    key: kind
    for kind, keys in (
        (ID, "job worker proxy"),
        (INT, "attempt attempts completed cores_per_node events failed "
              "failures jobs max_attempts node nodes outstanding ppn "
              "priority records seed segment size slots status"),
        (NUMBER, "at crash_time delay duration duration_hint factor "
                 "last_seen nominal probability until value walltime"),
        # A job that fails before its application ran has no phase stamps.
        (Kind("a number or null", frozenset({int, float, type(None)})),
         "app_end app_start"),
        (STR, "cause channel command counter detail error grouping journal "
              "kind machine outcome phase policy reason"),
        (Kind("a bool", frozenset({bool})),
         "mpi ok resume serial spectrum stage"),
        (LIST, "blocks node_ids workers"),
    )
    for key in keys.split()
}


@dataclass(frozen=True)
class CategorySpec:
    """Declared schema of one trace category."""

    name: str
    required: frozenset[str] = field(default_factory=frozenset)
    optional: frozenset[str] = field(default_factory=frozenset)
    description: str = ""
    #: Declared key -> the kind of value it holds.
    kinds: Mapping[str, Kind] = field(default_factory=dict, compare=False)
    #: Keys a lifecycle replay keys on, entity id first; empty for a
    #: category that moves no lifecycle.
    ids: tuple[str, ...] = ()

    @cached_property
    def keys(self) -> frozenset[str]:
        """Every declared key (required or optional), built once."""
        return self.required | self.optional

    @cached_property
    def _types(self) -> dict[str, frozenset]:
        """The pass path's kinds.  A map never passes there, nor an int
        where a float may stand: :meth:`Kind.admits` checks it fits."""
        return {
            k: kind.types - ({dict, int} if float in kind.types else {dict})
            for k, kind in self.kinds.items()
        }

    def problems(self, data: Any) -> list[tuple[str, str]]:
        """``(code, message)`` for every way ``data`` breaks this spec:
        TV002 when the payload is not an object or a key is missing,
        unknown or of the wrong kind, then TV005 when a lifecycle id the
        replay keys on is missing (the entity id) or is not an id."""
        # Pass path: an exact dict carrying every required key and only
        # declared ones, each of its kind.  Anything else (None, dict
        # subclasses, non-str or unknown keys) falls through to the
        # message builder below.
        if type(data) is dict:
            keys = data.keys()
            if keys >= self.required and keys <= self.keys:
                types = self._types
                for key, value in data.items():
                    if type(value) not in types[key]:
                        break
                else:
                    return []
        if not self.required and data is None:
            return []
        if isinstance(data, dict):
            found = [f"missing required key {k!r}"
                     for k in sorted(self.required - data.keys())]
            found += [f"unknown key {k!r}" for k in sorted(
                k for k in data if isinstance(k, str) and k not in self.keys
            )]
            found += [f"{k!r} must be {self.kinds[k].name}, got {data[k]!r}"
                      for k in sorted(self.keys & data.keys())
                      if not self.kinds[k].admits(data[k])]
        else:
            found = [f"payload must be a dict, got {type(data).__name__}"]
            data = {}
        problems = [("TV002", message) for message in found]
        if self.ids and self.ids[0] not in data:
            problems.append(
                ("TV005", f"lifecycle record lacks its {self.ids[0]!r} id key")
            )
        problems += [
            ("TV005", f"lifecycle id {k!r} is not an id: {data[k]!r}")
            for k in self.ids if k in data and not ID.admits(data[k])
        ]
        return problems


def _spec(
    name: str, required=(), optional=(), description: str = "", ids=()
) -> CategorySpec:
    kinds = _CATEGORY_KINDS.get(name, {})
    return CategorySpec(
        name=name,
        required=frozenset(required),
        optional=frozenset(optional),
        description=description,
        kinds={
            key: kinds.get(key) or _KINDS[key]
            for key in (*required, *optional)
        },
        ids=tuple(ids),
    )


# -- category constants --------------------------------------------------------

RUN_ALLOCATION = "run.allocation"
ALLOCATION_START = "allocation.start"
ALLOCATION_END = "allocation.end"
FAULT_KILL = "fault.kill"
FAULT_PROXY_KILL = "fault.proxy_kill"
FAULT_STRAGGLER = "fault.straggler"
FAULT_NET_DROP = "fault.net_drop"
FAULT_NET_DELAY = "fault.net_delay"
FAULT_PARTITION = "fault.partition"
FAULT_HEAL = "fault.heal"
FAULT_STAGING = "fault.staging"
FAULT_DISPATCHER_CRASH = "fault.dispatcher_crash"
RESUME_BEGIN = "resume.begin"
RESUME_SKIP = "resume.skip"
RESUME_RESUBMIT = "resume.resubmit"
JOURNAL_RUN_BEGIN = "journal.run_begin"
JOURNAL_RUN_END = "journal.run_end"
JOURNAL_JOB_SUBMITTED = "journal.job_submitted"
JOURNAL_JOB_LAUNCHED = "journal.job_launched"
JOURNAL_JOB_DONE = "journal.job_done"
JOURNAL_JOB_FAILED = "journal.job_failed"
JOURNAL_JOB_RETRY = "journal.job_retry"
JOURNAL_WORKER_REGISTERED = "journal.worker_registered"
JOURNAL_WORKER_LOST = "journal.worker_lost"
RECOVER_BACKOFF = "recover.backoff"
RECOVER_HUNG = "recover.hung"
RECOVER_GANG_TEARDOWN = "recover.gang_teardown"
RECOVER_RECONCILE = "recover.reconcile"
RECOVER_ZOMBIE = "recover.zombie"
RECOVER_QUARANTINE = "recover.quarantine"
RECOVER_READMIT = "recover.readmit"
RECOVER_RESPAWN = "recover.respawn"
DISPATCHER_REGISTER = "dispatcher.register"
PROTOCOL_ERROR = "protocol.error"
COASTERS_BLOCK_REQUESTED = "coasters.block_requested"
COASTERS_BLOCK_READY = "coasters.block_ready"
WORKER_IDLE = "worker.idle"
WORKER_BUSY = "worker.busy"
JOB_DONE = "job.done"
JOB_FAILED = "job.failed"
OBS_PROGRESS = "obs.progress"

#: Dynamic family for instrument mirroring (``counter.<name>``); the one
#: sanctioned dynamic-category funnel, validated at Counter.connect time.
COUNTER_PREFIX = "counter."

#: The keys whose kind depends on the category.
_CATEGORY_KINDS: dict[str, dict[str, Kind]] = {
    # An MPI dispatch names its attempt by id ("<job>a<n>").
    "job.dispatch": {"attempt": STR},
    FAULT_PARTITION: {"nodes": LIST},
    FAULT_HEAL: {"nodes": LIST},
    # A network window with no channel covers every channel.
    FAULT_NET_DROP: {"channel": STR_OR_NULL},
    FAULT_NET_DELAY: {"channel": STR_OR_NULL},
    # ``jets top`` formats the heartbeat's tallies and gauge levels.
    OBS_PROGRESS: {"jobs": INT_MAP, "counts": INT_MAP, "gauges": NUMBER_MAP},
}

# -- lifecycle-derived payload schemas ----------------------------------------

#: Extra payload keys individual lifecycle events carry beyond the
#: machine's id key: event suffix -> (required, optional).
_JOB_EVENT_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "submitted": (("mpi", "nodes", "ppn"), ()),
    "queued": (("attempt",), ()),
    "grouped": (("attempt", "workers"), ()),
    "dispatch": (("nodes",), ("attempt", "worker", "workers", "node_ids")),
    "mpiexec_spawned": (("attempt",), ()),
    "pmi_wireup": ((), ()),
    "app_running": ((), ("worker", "serial")),
    "retry": (("attempt", "error"), ("reason",)),
    "done": (
        ("attempt", "nodes", "ppn", "duration_hint", "nominal"),
        ("error", "app_start", "app_end"),
    ),
    "failed": (
        ("attempt", "nodes", "ppn", "duration_hint", "nominal"),
        ("error", "app_start", "app_end"),
    ),
}

_WORKER_EVENT_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "start": (("node",), ()),
    "registered": (("node",), ()),
    "ready": ((), ()),
    "idle": ((), ()),
    "busy": ((), ()),
    "heartbeat_missed": (("last_seen",), ()),
    "lost": (("reason",), ()),
    "killed": (("cause",), ()),
    "stop": ((), ()),
}

_PROXY_EVENT_KEYS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "launched": (("job", "worker", "node"), ()),
    "registered": (("job",), ("node",)),
    "wired": (("job",), ()),
    "exited": (("job", "status"), ()),
}

#: Keys a lifecycle replay keys on, per entity: the entity id, then the
#: worker a job record names (zombie filtering) and the job a proxy
#: belongs to (proxy ids are scoped per job).
_REPLAY_KEYS = {
    "job": ("job", "worker"), "worker": ("worker",), "proxy": ("proxy", "job")
}


def _lifecycle_specs() -> list[CategorySpec]:
    specs: list[CategorySpec] = []
    for machine, event_keys in (
        (JOB_MACHINE, _JOB_EVENT_KEYS),
        (WORKER_MACHINE, _WORKER_EVENT_KEYS),
        (PROXY_MACHINE, _PROXY_EVENT_KEYS),
    ):
        events = set(machine.events) | set(machine.ignored_events)
        for event in sorted(events):
            required, optional = event_keys.get(event, ((), ()))
            specs.append(
                _spec(
                    f"{machine.entity}.{event}",
                    required=(machine.id_key, *required),
                    optional=optional,
                    description=(
                        f"{machine.entity} lifecycle event "
                        f"({machine.events.get(event, 'no state change')})"
                    ),
                    ids=(
                        _REPLAY_KEYS[machine.entity]
                        if event in machine.events
                        else ()
                    ),
                )
            )
    return specs


# -- non-lifecycle categories --------------------------------------------------

_STATIC_SPECS = [
    _spec(
        RUN_ALLOCATION,
        required=("machine", "nodes"),
        optional=("cores_per_node", "slots", "walltime", "blocks", "spectrum"),
        description="run metadata logged once the allocation is up",
    ),
    _spec(
        ALLOCATION_START,
        required=("nodes", "walltime"),
        description="batch scheduler granted an allocation",
    ),
    _spec(
        ALLOCATION_END,
        required=("nodes", "reason"),
        description="allocation released or expired",
    ),
    _spec(
        FAULT_KILL,
        required=("worker",),
        description="fault injector killed a pilot",
    ),
    _spec(
        FAULT_PROXY_KILL,
        required=("worker", "job"),
        description="fault injector crashed a Hydra proxy mid-wire-up",
    ),
    _spec(
        FAULT_STRAGGLER,
        required=("node", "factor", "duration"),
        description="fault injector rate-scaled a node's compute",
    ),
    _spec(
        FAULT_NET_DROP,
        required=("channel", "probability", "until"),
        description="fault injector opened a lossy-link window",
    ),
    _spec(
        FAULT_NET_DELAY,
        required=("channel", "delay", "until"),
        description="fault injector opened an added-latency window",
    ),
    _spec(
        FAULT_PARTITION,
        required=("nodes", "until"),
        description="fault injector partitioned a node set off the fabric",
    ),
    _spec(
        FAULT_HEAL,
        required=("nodes",),
        description="a partition or straggler window ended",
    ),
    _spec(
        FAULT_STAGING,
        required=("node", "until"),
        description="fault injector failed staging I/O on a node",
    ),
    _spec(
        FAULT_DISPATCHER_CRASH,
        required=("at",),
        description=(
            "fault injector killed the dispatcher process mid-run; "
            "recovery is a fresh process resuming from the run journal"
        ),
    ),
    _spec(
        RESUME_BEGIN,
        required=("journal", "segment"),
        optional=("crash_time", "outstanding"),
        description=(
            "resume engine rebuilt dispatcher state from a run journal "
            "and is restarting the interrupted run as a new segment"
        ),
    ),
    _spec(
        RESUME_SKIP,
        required=("job", "outcome"),
        description=(
            "journal replay found this job already settled (done/failed) "
            "before the crash; it is not resubmitted"
        ),
    ),
    _spec(
        RESUME_RESUBMIT,
        required=("job", "attempt"),
        description=(
            "journal replay found this job in flight at the crash; it is "
            "resubmitted with its attempt counter preserved"
        ),
    ),
    # -- write-ahead run journal records (repro/core/journal.py).  These
    # are written to the journal file, not the trace, but registering
    # them keeps journals valid under `jets lint-trace` (each journal
    # segment is one monotone run tagged with its segment index).
    _spec(
        JOURNAL_RUN_BEGIN,
        required=("machine", "nodes", "seed"),
        optional=(
            "jobs", "policy", "grouping", "slots", "cores_per_node",
            "stage", "resume",
        ),
        description="durable run header (flushed before any job record)",
    ),
    _spec(
        JOURNAL_RUN_END,
        required=("ok",),
        optional=("completed", "failed"),
        description="run drained (or was capped) and shut down cleanly",
    ),
    _spec(
        JOURNAL_JOB_SUBMITTED,
        required=("job", "mpi", "nodes", "ppn"),
        optional=(
            "command", "max_attempts", "attempts", "duration_hint",
            "priority",
        ),
        description="dispatcher accepted a job (replay re-specs from this)",
    ),
    _spec(
        JOURNAL_JOB_LAUNCHED,
        required=("job", "attempt"),
        description="job placed on workers; in flight until done/failed",
    ),
    _spec(
        JOURNAL_JOB_DONE,
        required=("job", "attempt"),
        description="job completed successfully (replay skips it)",
    ),
    _spec(
        JOURNAL_JOB_FAILED,
        required=("job", "attempt"),
        optional=("error",),
        description="job failed permanently (replay skips it)",
    ),
    _spec(
        JOURNAL_JOB_RETRY,
        required=("job", "attempt"),
        optional=("error", "reason"),
        description="attempt failed and was requeued; attempt counter bumped",
    ),
    _spec(
        JOURNAL_WORKER_REGISTERED,
        required=("worker", "node"),
        description="pilot registered with the dispatcher",
    ),
    _spec(
        JOURNAL_WORKER_LOST,
        required=("worker",),
        optional=("reason",),
        description="dispatcher declared a pilot lost",
    ),
    _spec(
        RECOVER_BACKOFF,
        required=("job", "attempt", "delay"),
        description="retry held back by exponential backoff before requeue",
    ),
    _spec(
        RECOVER_HUNG,
        required=("job", "attempt", "phase"),
        description="hung-job deadline fired; the attempt is aborted",
    ),
    _spec(
        RECOVER_GANG_TEARDOWN,
        required=("job", "attempt", "workers"),
        description=(
            "surviving members of a partially-launched MPI group "
            "cancelled so their slots return to the aggregator"
        ),
    ),
    _spec(
        RECOVER_RECONCILE,
        required=("worker",),
        description=(
            "idle worker recycled after its ready credits stayed "
            "inconsistent past the reconciliation timeout"
        ),
    ),
    _spec(
        RECOVER_ZOMBIE,
        required=("worker", "node"),
        description=(
            "pilot keeper reaped a live agent the dispatcher no longer "
            "knows (a dropped close left a zombie connection)"
        ),
    ),
    _spec(
        RECOVER_QUARANTINE,
        required=("node", "failures", "until"),
        description="node blacklisted after repeated pilot failures",
    ),
    _spec(
        RECOVER_READMIT,
        required=("node",),
        description="quarantined node re-admitted on probation",
    ),
    _spec(
        RECOVER_RESPAWN,
        required=("node", "worker"),
        description="pilot keeper respawned a fresh worker on a node",
    ),
    _spec(
        DISPATCHER_REGISTER,
        required=("worker", "node"),
        description="dispatcher-side registration bookkeeping",
    ),
    _spec(
        PROTOCOL_ERROR,
        required=("channel", "kind"),
        optional=("worker", "job", "detail"),
        description=(
            "endpoint received a message violating the wire protocol; "
            "the offending peer is torn down, the service keeps running"
        ),
    ),
    _spec(
        COASTERS_BLOCK_REQUESTED,
        required=("size",),
        description="Coasters block provisioning requested",
    ),
    _spec(
        COASTERS_BLOCK_READY,
        required=("size",),
        description="Coasters block came up",
    ),
    _spec(
        OBS_PROGRESS,
        required=("events", "records"),
        optional=("jobs", "counts", "gauges"),
        description=(
            "live-progress heartbeat folded from the trace stream "
            "(kernel events, record/family counts, job tallies, gauge "
            "levels) — all seed-deterministic, emitted every N sim-"
            "seconds when progress tracking is enabled"
        ),
    ),
]

#: name -> spec for every exactly-named category.
REGISTRY: dict[str, CategorySpec] = {
    spec.name: spec for spec in (*_lifecycle_specs(), *_STATIC_SPECS)
}

#: Dynamic prefix families: prefix -> spec template applied to members.
PREFIX_FAMILIES: dict[str, CategorySpec] = {
    COUNTER_PREFIX: _spec(
        COUNTER_PREFIX + "*",
        required=("counter", "value"),
        description="traced Counter increments (one member per counter)",
    ),
}


def lookup(category: str) -> Optional[CategorySpec]:
    """The spec for ``category``, via exact name or prefix family."""
    spec = REGISTRY.get(category)
    if spec is not None:
        return spec
    for prefix, family in PREFIX_FAMILIES.items():
        if category.startswith(prefix) and len(category) > len(prefix):
            return family
    return None


def known_category(category: str) -> bool:
    """Whether ``category`` is declared (exactly or via a family)."""
    return lookup(category) is not None


def record_problems(category: str, data: Any) -> list[tuple[str, str]]:
    """The record contract's one judge: ``(code, message)`` for every way
    one record breaks its category's schema (TV001 for an unknown
    category, else :meth:`CategorySpec.problems`); empty passes it."""
    spec = lookup(category)
    if spec is None:
        return [("TV001", f"unknown trace category {category!r}")]
    return spec.problems(data)
