"""Declarative wire-protocol registry for the JETS control plane.

JETS correctness hinges on a three-party message protocol (paper Fig. 4):
pilot workers ``register``/``ready`` with the dispatcher, which ships
``run_task``/``run_proxy``/``shutdown`` back; Hydra proxies ``register``
with their ``mpiexec``, which drives ``start``/``commit``/``abort`` and
collects ``pmi_put``/``exit``.  Until now that protocol existed only
implicitly as string-tuple ``socket.send((...))`` sites and ``kind ==``
ladders.  This module is the single source of truth:

* every message **kind** (exported as a constant so call sites never
  spell raw strings — see rule PR006),
* its **payload shape** (field names; arity is checked statically by
  PR002 and at runtime by :func:`validate_sessions`),
* its **direction** on its channel (worker→dispatcher, dispatcher→worker,
  proxy→mpiexec, mpiexec→proxy),
* its **wire size** discipline (:func:`wire_size` — fixed bytes or
  derived from the owning config's ``ctrl_msg_bytes``, rule PR005),
* a per-channel **session state machine** in the style of
  :mod:`.lifecycle` (``register`` before ``ready`` before ``run_*``;
  ``commit`` only after every proxy registered), replayed over recorded
  wire traffic by :func:`validate_sessions` and the bounded schedule
  explorer (:mod:`.explore`).

The static rules live in :mod:`.protocol_rules` (PR001–PR006).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .lifecycle import StateMachine

__all__ = [
    "MessageSpec",
    "WireMessage",
    "CHANNEL_JETS",
    "CHANNEL_HYDRA",
    "CHANNELS",
    "KIND_CONSTANTS",
    "ROLE_MODULES",
    "JETS_SESSION",
    "HYDRA_SESSION",
    "SESSION_MACHINES",
    "lookup_kind",
    "lookup_message",
    "known_kind",
    "wire_size",
    "channel_for_service",
    "wire_message",
    "SessionValidator",
    "validate_sessions",
    # message-kind constants (use these at call sites, never raw strings)
    "REGISTER",
    "READY",
    "READY_ALL",
    "HEARTBEAT",
    "DONE",
    "RUN_TASK",
    "RUN_PROXY",
    "CANCEL",
    "SHUTDOWN",
    "START",
    "PMI_PUT",
    "COMMIT",
    "EXIT",
    "ABORT",
    "CLOSED",
    "EXTERNAL_ABORT",
    "PROTOCOL_ERROR",
]

# -- channels ------------------------------------------------------------------

#: Worker agent ⇄ JETS dispatcher (service ``"jets"``).
CHANNEL_JETS = "jets"
#: Hydra proxy ⇄ background mpiexec (services ``"mpiexec-*"``).
CHANNEL_HYDRA = "hydra"

# -- message kinds -------------------------------------------------------------

REGISTER = "register"
READY = "ready"
READY_ALL = "ready_all"
HEARTBEAT = "heartbeat"
DONE = "done"
RUN_TASK = "run_task"
RUN_PROXY = "run_proxy"
CANCEL = "cancel"
SHUTDOWN = "shutdown"
START = "start"
PMI_PUT = "pmi_put"
COMMIT = "commit"
EXIT = "exit"
ABORT = "abort"
#: Internal mpiexec queue marks — never legal on the wire.
CLOSED = "closed"
EXTERNAL_ABORT = "external_abort"
PROTOCOL_ERROR = "protocol_error"

#: Constant name -> kind value; :mod:`.protocol_rules` resolves references
#: to these names at call sites (PR006 demands them over raw strings).
KIND_CONSTANTS: dict[str, str] = {
    "REGISTER": REGISTER,
    "READY": READY,
    "READY_ALL": READY_ALL,
    "HEARTBEAT": HEARTBEAT,
    "DONE": DONE,
    "RUN_TASK": RUN_TASK,
    "RUN_PROXY": RUN_PROXY,
    "CANCEL": CANCEL,
    "SHUTDOWN": SHUTDOWN,
    "START": START,
    "PMI_PUT": PMI_PUT,
    "COMMIT": COMMIT,
    "EXIT": EXIT,
    "ABORT": ABORT,
    "CLOSED": CLOSED,
    "EXTERNAL_ABORT": EXTERNAL_ABORT,
    "PROTOCOL_ERROR": PROTOCOL_ERROR,
}


@dataclass(frozen=True)
class MessageSpec:
    """Declared schema of one protocol message kind on one channel.

    Attributes:
        kind: the wire tag (payload tuple head).
        channel: :data:`CHANNEL_JETS` or :data:`CHANNEL_HYDRA`.
        sender: sending role (``worker``/``dispatcher``/``proxy``/
            ``mpiexec``; ``internal`` marks local queue sentinels).
        receiver: receiving role.
        fields: payload element names *after* the kind tag.
        base_bytes: fixed wire size, or ``None`` when the size derives
            from the sending side's ``ctrl_msg_bytes`` (PR005 discipline).
        variable: True when a staging/data payload may ride along
            (``extra`` bytes are legal in :func:`wire_size`).
        internal: local queue mark, never legal on the wire.
    """

    kind: str
    channel: str
    sender: str
    receiver: str
    fields: tuple[str, ...] = ()
    base_bytes: Optional[int] = None
    variable: bool = False
    internal: bool = False

    @cached_property
    def arity(self) -> int:
        """Full payload tuple length, kind tag included."""
        return len(self.fields) + 1


def _msg(kind, channel, sender, receiver, fields=(), base=None,
         variable=False, internal=False) -> MessageSpec:
    return MessageSpec(
        kind=kind,
        channel=channel,
        sender=sender,
        receiver=receiver,
        fields=tuple(fields),
        base_bytes=base,
        variable=variable,
        internal=internal,
    )


#: channel -> kind -> spec.  The whole wire vocabulary.
CHANNELS: dict[str, dict[str, MessageSpec]] = {
    CHANNEL_JETS: {
        spec.kind: spec
        for spec in (
            _msg(REGISTER, CHANNEL_JETS, "worker", "dispatcher",
                 ("worker", "node", "slots"), base=256),
            _msg(READY, CHANNEL_JETS, "worker", "dispatcher",
                 ("worker",), base=64),
            _msg(READY_ALL, CHANNEL_JETS, "worker", "dispatcher",
                 ("worker",), base=64),
            _msg(HEARTBEAT, CHANNEL_JETS, "worker", "dispatcher",
                 ("worker",), base=32),
            _msg(DONE, CHANNEL_JETS, "worker", "dispatcher",
                 ("worker", "job", "status", "value"), base=128,
                 variable=True),
            _msg(RUN_TASK, CHANNEL_JETS, "dispatcher", "worker",
                 ("job",), base=None, variable=True),
            _msg(RUN_PROXY, CHANNEL_JETS, "dispatcher", "worker",
                 ("command", "program"), base=None, variable=True),
            _msg(CANCEL, CHANNEL_JETS, "dispatcher", "worker",
                 ("job", "mpi"), base=None),
            _msg(SHUTDOWN, CHANNEL_JETS, "dispatcher", "worker",
                 (), base=None),
        )
    },
    CHANNEL_HYDRA: {
        spec.kind: spec
        for spec in (
            _msg(REGISTER, CHANNEL_HYDRA, "proxy", "mpiexec",
                 ("proxy",), base=512),
            _msg(PMI_PUT, CHANNEL_HYDRA, "proxy", "mpiexec",
                 ("rank", "key", "value"), base=256),
            _msg(EXIT, CHANNEL_HYDRA, "proxy", "mpiexec",
                 ("proxy", "status", "value"), base=512),
            _msg(START, CHANNEL_HYDRA, "mpiexec", "proxy",
                 (), base=None),
            _msg(COMMIT, CHANNEL_HYDRA, "mpiexec", "proxy",
                 ("comm",), base=0, variable=True),
            _msg(ABORT, CHANNEL_HYDRA, "mpiexec", "proxy",
                 (), base=None),
            _msg(CLOSED, CHANNEL_HYDRA, "internal", "mpiexec",
                 (), base=0, internal=True),
            _msg(EXTERNAL_ABORT, CHANNEL_HYDRA, "internal", "mpiexec",
                 ("reason",), base=0, internal=True),
            _msg(PROTOCOL_ERROR, CHANNEL_HYDRA, "internal", "mpiexec",
                 ("payload",), base=0, internal=True),
        )
    },
}

#: channel -> path suffixes of the modules implementing its endpoints.
#: PR003/PR004 treat a lint set as a closed world only when it contains
#: all (or none — fixture mode) of a channel's declared modules.
ROLE_MODULES: dict[str, tuple[str, ...]] = {
    CHANNEL_JETS: ("repro/core/dispatcher.py", "repro/core/worker.py"),
    CHANNEL_HYDRA: ("repro/mpi/hydra.py",),
}


_NO_KINDS: dict[str, MessageSpec] = {}


def lookup_message(channel: str, kind: str) -> Optional[MessageSpec]:
    """The spec of ``kind`` on ``channel`` (None if undeclared)."""
    return CHANNELS.get(channel, _NO_KINDS).get(kind)


def lookup_kind(kind: str) -> tuple[MessageSpec, ...]:
    """All specs named ``kind`` across channels (``register`` has two)."""
    return tuple(
        channel[kind] for channel in CHANNELS.values() if kind in channel
    )


def known_kind(kind: str) -> bool:
    """Whether any channel declares ``kind``."""
    return bool(lookup_kind(kind))


def wire_size(
    channel: str,
    kind: str,
    ctrl: Optional[int] = None,
    extra: int = 0,
) -> int:
    """The declared wire size of one message, in bytes.

    ``ctrl`` supplies the sending side's ``ctrl_msg_bytes`` for kinds
    whose size derives from it; ``extra`` adds a data payload (staging
    bytes, KVS commit bytes) and is only legal on ``variable`` kinds.
    Every protocol ``socket.send`` must compute its size through here so
    the static checker (PR005) can verify the discipline.
    """
    spec = lookup_message(channel, kind)
    if spec is None:
        raise ValueError(f"unknown protocol message {channel}:{kind}")
    if spec.internal:
        raise ValueError(f"{channel}:{kind} is internal; it has no wire size")
    if spec.base_bytes is None:
        if ctrl is None:
            raise ValueError(
                f"{channel}:{kind} derives its size from ctrl_msg_bytes; "
                "pass ctrl="
            )
        base = ctrl
    else:
        base = spec.base_bytes
    if extra:
        if not spec.variable:
            raise ValueError(
                f"{channel}:{kind} carries no data payload; extra bytes "
                "are not legal"
            )
        if extra < 0:
            raise ValueError(f"negative extra bytes {extra}")
        base += extra
    return base


def channel_for_service(service: str) -> Optional[str]:
    """Map a socket service name to its protocol channel (None: unknown)."""
    if service == "jets":
        return CHANNEL_JETS
    if service.startswith("mpiexec-"):
        return CHANNEL_HYDRA
    return None


# -- per-channel session state machines ----------------------------------------

def _graph(**edges: tuple[str, ...]):
    return {state: frozenset(nxt) for state, nxt in edges.items()}


#: One worker⇄dispatcher connection: ``register`` first and exactly once,
#: nothing dispatched before a ``ready`` credit.  ``heartbeat`` and
#: ``cancel`` carry no session state (a cancel's effect shows up as the
#: worker's own ``done``/``ready`` response, which restores the credit the
#: original dispatch consumed).  After ``shutdown`` a worker may still
#: flush completions for in-flight work (``done``/``ready`` crossing the
#: shutdown on the wire), but nothing new may be dispatched.  A session
#: may truncate anywhere (worker loss) — only illegal *transitions* are
#: violations, never incompleteness.
JETS_SESSION = StateMachine(
    entity="jets-session",
    states=("registered", "ready", "dispatched", "done", "shutdown"),
    initial=frozenset({"registered"}),
    transitions=_graph(
        registered=("ready", "shutdown"),
        ready=("ready", "dispatched", "done", "shutdown"),
        dispatched=("dispatched", "ready", "done", "shutdown"),
        done=("done", "ready", "dispatched", "shutdown"),
        shutdown=("done", "ready"),
    ),
    events={
        REGISTER: "registered",
        READY: "ready",
        READY_ALL: "ready",
        RUN_TASK: "dispatched",
        RUN_PROXY: "dispatched",
        DONE: "done",
        SHUTDOWN: "shutdown",
    },
    ignored_events=frozenset({HEARTBEAT, CANCEL}),
    id_key="conn",
)

#: One proxy⇄mpiexec connection: PMI wire-up order (``register`` →
#: ``start`` → puts → ``commit`` → ``exit``); ``abort`` is legal from any
#: live state, and an ``abort``/``exit`` pair may cross in flight.
HYDRA_SESSION = StateMachine(
    entity="hydra-session",
    states=("registered", "started", "wiring", "committed", "exited",
            "aborted"),
    initial=frozenset({"registered"}),
    transitions=_graph(
        registered=("started", "aborted"),
        started=("wiring", "aborted"),
        wiring=("wiring", "committed", "aborted"),
        committed=("exited", "aborted"),
        # aborted -> wiring: sessions are replayed in send order, and a
        # proxy keeps forwarding PMI puts until mpiexec's ABORT (already
        # in flight, possibly delayed by an injected net fault) reaches
        # it — the same crossing-traffic allowance as abort/exit.
        aborted=("exited", "aborted", "wiring"),
        exited=("aborted",),
    ),
    events={
        REGISTER: "registered",
        START: "started",
        PMI_PUT: "wiring",
        COMMIT: "committed",
        EXIT: "exited",
        ABORT: "aborted",
    },
    id_key="conn",
)

#: channel -> session machine.
SESSION_MACHINES: dict[str, StateMachine] = {
    CHANNEL_JETS: JETS_SESSION,
    CHANNEL_HYDRA: HYDRA_SESSION,
}


# -- recorded-traffic validation ------------------------------------------------

@dataclass(frozen=True)
class WireMessage:
    """One observed send, in global send order (netsim-tap agnostic)."""

    conn: object
    channel: str
    kind: str
    payload: tuple
    nbytes: int = 0
    sender: str = ""
    service: str = ""
    time: float = 0.0


def wire_message(ev) -> Optional[WireMessage]:
    """Adapt one tapped :class:`~repro.netsim.sockets.WireEvent` to a
    :class:`WireMessage` (None for services outside the registry)."""
    channel = channel_for_service(ev.service)
    if channel is None:
        return None
    payload = ev.payload if isinstance(ev.payload, tuple) else (ev.payload,)
    return WireMessage(
        conn=ev.conn_id,
        channel=channel,
        kind=payload[0] if payload else "",
        payload=payload,
        nbytes=ev.nbytes,
        sender=ev.sender,
        service=ev.service,
        time=ev.time,
    )


class SessionValidator:
    """Incremental protocol conformance: feed each send as it happens.

    The streaming form of :func:`validate_sessions`: register
    :meth:`tap` directly as a ``Network.add_tap`` observer (it counts
    every wire event and checks registry-known channels) or call
    :meth:`feed` per :class:`WireMessage`; both run one core.
    Per-message checks (declared kind, arity, ready-credit accounting)
    are appended as the stream flows; per-connection session-machine
    replay advances one transition at a time, so state is bounded by
    live connections rather than total traffic.  :meth:`finish` merges
    everything in the same order the post-hoc scan reports.  A
    connection label is formatted only when it is stored or reported.
    """

    def __init__(self):
        #: Per-message problems, in send order.
        self.problems: list[str] = []
        #: All tapped wire events (any service), for traffic accounting.
        self.seen = 0
        self._index = 0
        #: service -> its channel (None: outside the registry).
        self._channels: dict[str, Optional[str]] = {}
        self._conn_order: list[object] = []
        self._conn_label: dict[object, str] = {}
        self._states: dict[object, Optional[str]] = {}
        self._session_problems: dict[object, list[str]] = {}
        self._credits: dict[object, Optional[int]] = {}
        self._slots: dict[object, int] = {}
        self._hydra_last_register: dict[str, int] = {}
        self._hydra_first_commit: dict[str, int] = {}

    def tap(self, ev) -> None:
        """``Network.add_tap`` entry point: count, and check known
        channels."""
        self.seen += 1
        service = ev.service
        channels = self._channels
        if service in channels:
            channel = channels[service]
        else:
            channel = channels[service] = channel_for_service(service)
        if channel is None:
            return
        payload = ev.payload
        if not isinstance(payload, tuple):
            payload = (payload,)
        self._check(
            ev.conn_id, channel, payload[0] if payload else "", payload,
            service,
        )

    def feed(self, msg: WireMessage) -> None:
        """Validate one observed send (in global send order)."""
        self._check(msg.conn, msg.channel, msg.kind, msg.payload, msg.service)

    def _check(
        self, conn, channel: str, kind, payload: tuple, service: str
    ) -> None:
        index = self._index
        self._index = index + 1
        spec = lookup_message(channel, kind)
        if spec is None:
            self._problem(
                index, conn, channel, service,
                f"kind {kind!r} is not declared on channel {channel!r}",
            )
            return
        if spec.internal:
            self._problem(
                index, conn, channel, service,
                f"internal mark {kind!r} observed on the wire",
            )
            return
        arity_ok = len(payload) == spec.arity
        if not arity_ok:
            self._problem(
                index, conn, channel, service,
                f"{kind!r} payload has {len(payload)} elements, registry "
                f"declares {spec.arity} ({('kind', *spec.fields)!r})",
            )
        if conn not in self._conn_label:
            self._conn_order.append(conn)
            self._conn_label[conn] = f"{service or channel}#{conn}"

        # Session-machine replay, one transition at a time (the exact
        # fold StateMachine.validate performs over a full sequence).
        machine = SESSION_MACHINES[channel]
        state = machine.events.get(kind)
        if state is not None and kind not in machine.ignored_events:
            current = self._states.get(conn)
            if not machine.can(current, state):
                origin = current if current is not None else "<entry>"
                self._session_problems.setdefault(conn, []).append(
                    f"session [{self._conn_label[conn]}]: illegal "
                    f"{machine.entity} transition {origin} -> {state}"
                )
            self._states[conn] = state

        if channel == CHANNEL_JETS:
            credits = self._credits
            have = credits.get(conn)
            if kind == REGISTER and arity_ok:
                slots = payload[3]
                if isinstance(slots, int):
                    self._slots[conn] = int(slots)
                    credits[conn] = 0
                else:
                    # No credit ledger for a worker whose slots are not
                    # a count: its later sends are not credit-checked.
                    self._problem(
                        index, conn, channel, service,
                        f"register announces {slots!r} slots, not an int",
                    )
            elif kind == READY and have is not None:
                credits[conn] = min(self._slots[conn], have + 1)
            elif kind == READY_ALL and have is not None:
                credits[conn] = self._slots[conn]
            elif kind == RUN_TASK and have is not None:
                if have < 1:
                    self._problem(
                        index, conn, channel, service,
                        "run_task dispatched with no ready credit "
                        "outstanding",
                    )
                else:
                    credits[conn] = have - 1
            elif kind == RUN_PROXY and have is not None:
                if have < self._slots[conn]:
                    self._problem(
                        index, conn, channel, service,
                        f"run_proxy dispatched to a worker with "
                        f"{have}/{self._slots[conn]} slots free "
                        "(MPI jobs claim whole workers)",
                    )
                credits[conn] = 0
        elif channel == CHANNEL_HYDRA:
            if kind == REGISTER:
                self._hydra_last_register[service] = index
            elif kind == COMMIT:
                self._hydra_first_commit.setdefault(service, index)

    def _problem(
        self, index: int, conn, channel: str, service: str, text: str
    ) -> None:
        self.problems.append(
            f"msg {index} [{service or channel}#{conn}]: {text}"
        )

    def finish(self) -> list[str]:
        """All violations so far, in the post-hoc scan's report order.

        Non-destructive: feeding more messages and calling finish again
        yields the updated verdicts.
        """
        problems = list(self.problems)
        for conn in self._conn_order:
            problems.extend(self._session_problems.get(conn, ()))
        for service, commit_index in sorted(self._hydra_first_commit.items()):
            last_register = self._hydra_last_register.get(service, -1)
            if last_register > commit_index:
                problems.append(
                    f"service [{service}]: commit at msg {commit_index} "
                    f"precedes a proxy register at msg {last_register} "
                    "(commit requires every proxy registered)"
                )
        return problems


def validate_sessions(messages: Iterable["WireMessage"]) -> list[str]:
    """Replay recorded wire traffic against the protocol registry.

    Checks, per message: the kind is declared on its channel and not an
    internal mark; the payload arity matches.  Per connection: the kind
    sequence satisfies the channel's session machine, and (jets) the
    dispatcher never dispatches past the worker's announced ready
    credits.  Per mpiexec service: ``commit`` is only sent once every
    proxy that ever registers has registered.  Returns human-readable
    violations (empty = conformant).
    """
    validator = SessionValidator()
    feed = validator.feed
    for msg in messages:
        feed(msg)
    return validator.finish()
