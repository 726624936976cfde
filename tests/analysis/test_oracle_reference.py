"""The campaign oracles against a reference copy of their first form.

:class:`RefTraceValidator` and :class:`RefSessionValidator` below are the
trace and session validators as they stood before each category and
service was routed once: every record recomputes its spec, its
lifecycle machine and its payload key sets, and every send is adapted to
a :class:`~repro.analysis.protocol.WireMessage` before it is checked.
They are kept here, and only here, as the reference: the production
validators must report the same issues, with the same fields and text,
in the same order, on every stream whose payload values have their
declared kinds.  The reference predates value kinds; what a wrong kind
adds is pinned by :class:`TestWrongKinds`.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.chaos as chaos
from repro.analysis import protocol
from repro.analysis.lifecycle import MACHINES
from repro.analysis.protocol import (
    CHANNEL_HYDRA,
    CHANNEL_JETS,
    CHANNELS,
    COMMIT,
    KIND_CONSTANTS,
    READY,
    READY_ALL,
    REGISTER,
    RUN_PROXY,
    RUN_TASK,
    SESSION_MACHINES,
    SessionValidator,
    WireMessage,
)
from repro.analysis.schema import ID, PREFIX_FAMILIES, REGISTRY
from repro.analysis.tracecheck import TraceValidator
from repro.netsim.sockets import WireEvent
from repro.simkernel import TraceRecord

# -- reference: the trace validator -------------------------------------------


def ref_lookup(category):
    spec = REGISTRY.get(category)
    if spec is not None:
        return spec
    for prefix, family in PREFIX_FAMILIES.items():
        if category.startswith(prefix) and len(category) > len(prefix):
            return family
    return None


def ref_payload_problems(spec, data):
    """``CategorySpec.payload_problems`` before its pass path."""
    if not spec.required and data is None:
        return []
    if not isinstance(data, dict):
        return [f"payload must be a dict, got {type(data).__name__}"]
    keys = spec.required | spec.optional
    problems = [
        f"missing required key {key!r}"
        for key in sorted(spec.required)
        if key not in data
    ]
    problems.extend(
        f"unknown key {key!r}"
        for key in sorted(k for k in data if isinstance(k, str))
        if key not in keys
    )
    return problems


class RefReplay:
    def __init__(self, machine):
        self.machine = machine
        self.states = {}

    def apply(self, entity, event):
        machine = self.machine
        if event in machine.ignored_events:
            return None
        state = machine.state_for_event(event)
        if state is None:
            return None
        current = self.states.get(entity)
        if machine.can(current, state):
            self.states[entity] = state
            return None
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


def ref_entity_id(machine, data):
    if not isinstance(data, dict):
        return None
    ident = data.get(machine.id_key)
    if ident is None:
        return None
    if machine.entity == "proxy":
        return (data.get("job"), ident)
    return ident


class RefTraceValidator:
    """Issues as ``(code, index, time, category, message)`` tuples."""

    def __init__(self, check_schema=True, check_lifecycle=True):
        self.check_schema = check_schema
        self.check_lifecycle = check_lifecycle
        self.issues = []
        self._replays = {p: RefReplay(m) for p, m in MACHINES.items()}
        self._zombies = set()
        self._last_time = None
        self._index = 0

    def feed(self, rec):
        index = self._index
        self._index = index + 1
        cat, data = rec.category, rec.data
        issues = self.issues

        def issue(code, message):
            issues.append((code, index, rec.time, cat, message))

        if self._last_time is not None and rec.time < self._last_time:
            issue(
                "TV003",
                f"timestamp {rec.time} precedes previous record "
                f"({self._last_time}); trace is not in event order",
            )
        self._last_time = rec.time

        if self.check_schema:
            spec = ref_lookup(cat)
            if spec is None:
                issue("TV001", f"unknown trace category {cat!r}")
            else:
                for problem in ref_payload_problems(spec, data):
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
                return
            entity = ref_entity_id(machine, data)
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


# -- reference: the session validator ----------------------------------------


def ref_channel_for_service(service):
    if service == "jets":
        return CHANNEL_JETS
    if service.startswith("mpiexec-"):
        return CHANNEL_HYDRA
    return None


def ref_wire_message(ev):
    channel = ref_channel_for_service(ev.service)
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


class RefSessionValidator:
    def __init__(self):
        self.problems = []
        self.seen = 0
        self._index = 0
        self._conn_order = []
        self._conn_label = {}
        self._states = {}
        self._session_problems = {}
        self._credits = {}
        self._slots = {}
        self._hydra_last_register = {}
        self._hydra_first_commit = {}

    def tap(self, ev):
        self.seen += 1
        msg = ref_wire_message(ev)
        if msg is not None:
            self.feed(msg)

    def feed(self, msg):
        index = self._index
        self._index = index + 1
        problems = self.problems
        label = f"{msg.service or msg.channel}#{msg.conn}"
        spec = CHANNELS.get(msg.channel, {}).get(msg.kind)
        if spec is None:
            problems.append(
                f"msg {index} [{label}]: kind {msg.kind!r} is not declared "
                f"on channel {msg.channel!r}"
            )
            return
        if spec.internal:
            problems.append(
                f"msg {index} [{label}]: internal mark {msg.kind!r} "
                "observed on the wire"
            )
            return
        arity = len(spec.fields) + 1
        if len(msg.payload) != arity:
            problems.append(
                f"msg {index} [{label}]: {msg.kind!r} payload has "
                f"{len(msg.payload)} elements, registry declares "
                f"{arity} ({('kind', *spec.fields)!r})"
            )
        conn = msg.conn
        if conn not in self._conn_label:
            self._conn_order.append(conn)
            self._conn_label[conn] = label

        machine = SESSION_MACHINES[msg.channel]
        if (
            msg.kind not in machine.ignored_events
            and msg.kind in machine.events
        ):
            state = machine.events[msg.kind]
            current = self._states.get(conn)
            if not machine.can(current, state):
                origin = current if current is not None else "<entry>"
                self._session_problems.setdefault(conn, []).append(
                    f"session [{self._conn_label[conn]}]: illegal "
                    f"{machine.entity} transition {origin} -> {state}"
                )
            self._states[conn] = state

        if msg.channel == CHANNEL_JETS:
            credits = self._credits
            have = credits.get(conn)
            if msg.kind == REGISTER and len(msg.payload) == arity:
                self._slots[conn] = int(msg.payload[3])
                credits[conn] = 0
            elif msg.kind == READY and have is not None:
                credits[conn] = min(self._slots[conn], have + 1)
            elif msg.kind == READY_ALL and have is not None:
                credits[conn] = self._slots[conn]
            elif msg.kind == RUN_TASK and have is not None:
                if have < 1:
                    problems.append(
                        f"msg {index} [{label}]: run_task dispatched with "
                        "no ready credit outstanding"
                    )
                else:
                    credits[conn] = have - 1
            elif msg.kind == RUN_PROXY and have is not None:
                if have < self._slots[conn]:
                    problems.append(
                        f"msg {index} [{label}]: run_proxy dispatched to a "
                        f"worker with {have}/{self._slots[conn]} slots free "
                        "(MPI jobs claim whole workers)"
                    )
                credits[conn] = 0
        elif msg.channel == CHANNEL_HYDRA:
            if msg.kind == REGISTER:
                self._hydra_last_register[msg.service] = index
            elif msg.kind == COMMIT:
                self._hydra_first_commit.setdefault(msg.service, index)

    def finish(self):
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


# -- comparison helpers -------------------------------------------------------


def issue_tuples(validator):
    return [
        (i.code, i.index, i.time, i.category, i.message)
        for i in validator.issues
    ]


def assert_trace_verdicts_equal(records, **flags):
    new, ref = TraceValidator(**flags), RefTraceValidator(**flags)
    for rec in records:
        new.feed(rec)
        ref.feed(rec)
    assert issue_tuples(new) == ref.issues
    assert new.records_seen == len(records)
    return ref.issues


def assert_feed_verdicts_equal(messages):
    new, ref = SessionValidator(), RefSessionValidator()
    for msg in messages:
        new.feed(msg)
        ref.feed(msg)
    assert new.problems == ref.problems
    assert new.finish() == ref.finish()
    return ref.finish()


def assert_tap_verdicts_equal(events):
    new, ref = SessionValidator(), RefSessionValidator()
    for ev in events:
        new.tap(ev)
        ref.tap(ev)
    assert new.seen == ref.seen == len(events)
    assert new.finish() == ref.finish()
    return ref.finish()


# -- generated record streams -------------------------------------------------


class SubDict(dict):
    """A dict subclass: schema checks must treat it as any other dict."""


LIFECYCLE_CATEGORIES = sorted(
    c for c in REGISTRY if c.split(".", 1)[0] in MACHINES
)
OTHER_CATEGORIES = [
    "fault.kill",
    "fault.proxy_kill",
    "run.allocation",
    "obs.progress",
    "journal.run_end",
    "recover.respawn",
    "counter.jobs",
    "counter.a.b",
    "counter.",
    "job.bogus",
    "worker.",
    "proxy.x",
    "nodot",
    "",
    ".",
]
ODD_KEYS = st.sampled_from(["vibe", "zz", 7, (1, 2), 2.5, "job", "worker"])
#: Values of each exact type a kind may name; ids collide across records.
SAMPLES = {
    int: [0, 1, 2],
    str: ["w0", "a"],
    float: [0.5, 2.5],
    bool: [True, False],
    list: [[], [1]],
    dict: [{}],
    type(None): [None],
}


def value_of(draw, kind):
    """A value of ``kind`` (the declared kind of a payload key)."""
    typ = draw(st.sampled_from(sorted(kind.types, key=lambda t: t.__name__)))
    if kind.values:
        item = draw(
            st.sampled_from(sorted(kind.values, key=lambda t: t.__name__))
        )
        return {"a": draw(st.sampled_from(SAMPLES[item]))}
    return draw(st.sampled_from(SAMPLES[typ]))


@st.composite
def payloads(draw, category):
    """Payloads whose values have their declared kinds (the shapes and
    key sets vary); :class:`TestWrongKinds` covers the other values."""
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return None
    if shape == 1:
        return draw(st.sampled_from([3, "text", [1, 2], (1,), 2.5]))
    spec = ref_lookup(category)
    required = sorted(spec.required) if spec else ["job"]
    optional = sorted(spec.optional) if spec else []
    if draw(st.integers(0, 4)) or not required:
        keys = list(required)
    else:
        keys = draw(st.lists(st.sampled_from(required), unique=True))
    if optional:
        keys += draw(st.lists(st.sampled_from(optional), unique=True))
    if not draw(st.integers(0, 3)):
        keys += draw(st.lists(ODD_KEYS, max_size=2))
    kinds = spec.kinds if spec else {}
    data = {key: value_of(draw, kinds.get(key, ID)) for key in keys}
    if category.startswith("job.") and draw(st.booleans()):
        data["worker"] = value_of(draw, ID)
    return SubDict(data) if shape == 2 else data


@st.composite
def record_streams(draw):
    categories = st.one_of(
        st.sampled_from(LIFECYCLE_CATEGORIES),
        st.sampled_from(LIFECYCLE_CATEGORIES),
        st.sampled_from(sorted(REGISTRY)),
        st.sampled_from(OTHER_CATEGORIES),
    )
    records = []
    t = 0.0
    for _ in range(draw(st.integers(0, 60))):
        t += draw(st.sampled_from([0.0, 0.0, 0.5, 1.25, -0.75]))
        category = draw(categories)
        records.append(TraceRecord(t, category, draw(payloads(category))))
    return records


class TestTraceValidatorMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(record_streams())
    def test_generated_streams(self, records):
        assert_trace_verdicts_equal(records)

    @settings(max_examples=60, deadline=None)
    @given(record_streams(), st.booleans(), st.booleans())
    def test_check_flags(self, records, check_schema, check_lifecycle):
        assert_trace_verdicts_equal(
            records, check_schema=check_schema,
            check_lifecycle=check_lifecycle,
        )

    def test_named_cases(self):
        rec = TraceRecord
        records = [
            rec(0.0, "fault.kill", [1]),  # non-dict payload
            rec(0.0, "fault.kill", SubDict(worker=1, vibe=2)),
            rec(0.0, "fault.kill", {1: 2, "worker": 1}),  # non-str key
            rec(0.0, "fault.kill", {}),  # missing key
            rec(0.0, "fault.kill", None),  # None with required keys
            rec(0.0, "worker.ready", None),  # required id, ignored event
            rec(0.0, "journal.run_end", {"ok": True, "vibe": 1}),
            rec(0.0, "obs.progress", None),
            rec(0.0, "nope.nope", {"x": 1}),  # unknown category
            rec(0.0, "counter.jobs", {"counter": "jobs", "value": 1}),
            rec(0.0, "counter.", {"counter": "", "value": 1}),
            # Proxy ids are scoped per job.
            rec(1.0, "proxy.launched", {"proxy": 0, "job": 1,
                                        "worker": 0, "node": 0}),
            rec(1.0, "proxy.launched", {"proxy": 0, "job": 2,
                                        "worker": 0, "node": 0}),
            rec(1.0, "proxy.exited", {"proxy": 0, "job": 1, "status": 0}),
            # Reincarnation after a terminal state, then an illegal jump.
            rec(1.0, "proxy.launched", {"proxy": 0, "job": 1,
                                        "worker": 0, "node": 0}),
            rec(1.0, "proxy.wired", {"proxy": 0, "job": 1}),
            # A zombie worker's job records are not replayed.
            rec(2.0, "worker.start", {"worker": 5, "node": 0}),
            rec(2.0, "worker.lost", {"worker": 5, "reason": "x"}),
            rec(2.0, "job.done", {"job": 9, "worker": 5}),
            rec(2.0, "worker.registered", {"worker": 5, "node": 0}),
            rec(2.0, "job.done", {"job": 9, "worker": 5}),
            rec(2.0, "job.done", {"nope": 1}),  # TV005
            rec(1.5, "job.submitted", {"job": 10, "mpi": False,
                                       "nodes": 1, "ppn": 1}),  # TV003
        ]
        issues = assert_trace_verdicts_equal(records)
        assert {code for code, *_ in issues} == {
            "TV001", "TV002", "TV003", "TV004", "TV005",
        }


WRONG = [None, True, 7, 2.5, "x", [1], {"a": "b"}]


class TestWrongKinds:
    """A value of the wrong kind adds the judge's kind verdicts to its
    own record (TV002, and TV005 for an id the replay keys on, which
    also keeps the record out of the replay) and changes nothing before
    that record; the reference never checked kinds."""

    @settings(max_examples=150, deadline=None)
    @given(record_streams(), st.data())
    def test_one_wrong_value(self, records, data):
        picks = [
            (i, key)
            for i, rec in enumerate(records)
            if type(rec.data) is dict and ref_lookup(rec.category)
            for key in sorted(ref_lookup(rec.category).kinds)
            if key in rec.data
        ]
        assume(picks)
        index, key = data.draw(st.sampled_from(picks))
        rec = records[index]
        spec = ref_lookup(rec.category)
        kind = spec.kinds[key]
        value = data.draw(
            st.sampled_from([v for v in WRONG if not kind.admits(v)])
        )
        mutated = list(records)
        mutated[index] = TraceRecord(
            rec.time, rec.category, {**rec.data, key: value}
        )

        ref, new = RefTraceValidator(), TraceValidator()
        for r in records:
            ref.feed(r)
        for r in mutated:
            new.feed(r)
        got = issue_tuples(new)
        assert [i for i in got if i[1] < index] == [
            i for i in ref.issues if i[1] < index
        ]
        expected = {(i[0], i[4]) for i in ref.issues if i[1] == index}
        expected.add(("TV002", f"{key!r} must be {kind.name}, got {value!r}"))
        if key in spec.ids:
            expected = {i for i in expected if i[0] != "TV004"}
            expected.add(
                ("TV005", f"lifecycle id {key!r} is not an id: {value!r}")
            )
        assert {(i[0], i[4]) for i in got if i[1] == index} == expected


# -- generated wire streams ---------------------------------------------------

ALL_KINDS = sorted(set(KIND_CONSTANTS.values())) + ["bogus", ""]
SERVICES = st.sampled_from(["jets", "mpiexec-1", "mpiexec-2", ""])


@st.composite
def kind_payloads(draw, channel):
    if channel in CHANNELS and draw(st.integers(0, 2)):
        kind = draw(st.sampled_from(sorted(CHANNELS[channel])))
    else:
        kind = draw(st.sampled_from(ALL_KINDS))
    spec = CHANNELS.get(channel, {}).get(kind)
    arity = len(spec.fields) + 1 if spec else 1
    if draw(st.integers(0, 5)):
        size = arity
    else:
        size = draw(st.integers(0, 5))
    fields = [draw(st.integers(0, 3)) for _ in range(size - 1)]
    return kind, (kind, *fields) if size else ()


@st.composite
def message_streams(draw):
    messages = []
    for _ in range(draw(st.integers(0, 50))):
        channel = draw(st.sampled_from([CHANNEL_JETS, CHANNEL_JETS,
                                        CHANNEL_HYDRA, "bogus"]))
        kind, payload = draw(kind_payloads(channel))
        messages.append(
            WireMessage(
                conn=draw(st.integers(1, 3)),
                channel=channel,
                kind=kind,
                payload=payload,
                service=draw(SERVICES),
            )
        )
    return messages


@st.composite
def event_streams(draw):
    events = []
    for i in range(draw(st.integers(0, 50))):
        service = draw(st.sampled_from(
            ["jets", "jets", "mpiexec-1", "mpiexec-2", "coasters", ""]
        ))
        channel = ref_channel_for_service(service) or "bogus"
        kind, payload = draw(kind_payloads(channel))
        shape = draw(st.integers(0, 9))
        if shape == 0:
            payload = kind  # a bare payload is its own kind tag
        elif shape == 1:
            payload = 7
        events.append(
            WireEvent(0.1 * i, service, draw(st.integers(1, 3)), "test",
                      payload, 64)
        )
    return events


def _jets(conn, kind, *fields):
    return WireMessage(conn, CHANNEL_JETS, kind, (kind, *fields),
                       service="jets")


def _hydra(conn, service, kind, *fields):
    return WireMessage(conn, CHANNEL_HYDRA, kind, (kind, *fields),
                       service=service)


class TestSessionValidatorMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(message_streams())
    def test_generated_feed_streams(self, messages):
        assert_feed_verdicts_equal(messages)

    @settings(max_examples=150, deadline=None)
    @given(event_streams())
    def test_generated_tap_streams(self, events):
        assert_tap_verdicts_equal(events)

    def test_named_cases(self):
        messages = [
            WireMessage(9, "bogus", "register", ("register",)),  # channel
            _jets(1, "bogus"),  # undeclared kind
            _hydra(2, "mpiexec-1", "closed"),  # internal mark
            _jets(1, "register", 0, 0),  # wrong arity
            _jets(1, "register", 0, 0, 2),
            _jets(1, "run_task", {"job": 0}),  # credit overdraw
            _jets(1, "ready", 0),
            _jets(1, "run_proxy", "cmd", "prog"),  # 1/2 slots free
            _jets(3, "ready", 0),  # entry by ready: illegal transition
            _jets(5, "register", 0, 0, 2, 9),  # too long: no credit ledger
            _jets(5, "run_task", {"job": 1}),
            _hydra(2, "mpiexec-1", "register", 0),
            _hydra(2, "mpiexec-1", "start"),
            _hydra(2, "mpiexec-1", "commit", 0),
            _hydra(4, "mpiexec-1", "register", 1),  # after the commit
        ]
        problems = assert_feed_verdicts_equal(messages)
        assert len(problems) >= 8
        assert problems[-1].startswith("service [mpiexec-1]: commit at msg")
        events = [
            WireEvent(0.0, "coasters", 1, "w", ("hello",), 8),  # unknown
            WireEvent(0.0, "jets", 1, "w", "register", 64),  # bare, arity
            WireEvent(0.0, "jets", 1, "w", (), 64),
            WireEvent(0.0, "mpiexec-3", 2, "p", ("external_abort", "x"), 0),
        ]
        assert assert_tap_verdicts_equal(events)


# -- recorded chaos plans -----------------------------------------------------


class TestChaosPlansMatchReference:
    def test_first_twenty_default_mix_plans(self, monkeypatch):
        """Every record and send of 20 plans, replayed through both."""
        traces, wires = [], []

        class RecordingTraceValidator(TraceValidator):
            def __init__(self):
                super().__init__()
                traces.append((self, []))

            def feed(self, rec):
                traces[-1][1].append(rec)
                super().feed(rec)

        class RecordingSessionValidator(SessionValidator):
            def __init__(self):
                super().__init__()
                wires.append((self, []))

            def tap(self, ev):
                wires[-1][1].append(ev)
                super().tap(ev)

        monkeypatch.setattr(chaos, "TraceValidator", RecordingTraceValidator)
        monkeypatch.setattr(chaos, "SessionValidator",
                            RecordingSessionValidator)
        config = chaos.ChaosConfig()
        for index in range(20):
            chaos.run_chaos_plan(config, index)
        assert len(traces) == len(wires) == 20
        for live, records in traces:
            assert records
            assert issue_tuples(live) == assert_trace_verdicts_equal(records)
        for live, events in wires:
            assert events
            assert live.finish() == assert_tap_verdicts_equal(events)
            assert live.seen == len(events)


# -- cost guards --------------------------------------------------------------


class TestCostGuards:
    def test_allowed_key_sets_are_built_once(self):
        specs = [*REGISTRY.values(), *PREFIX_FAMILIES.values()]
        for spec in specs:
            assert spec.keys is spec.keys, spec.name
            assert spec.keys == spec.required | spec.optional

    def test_chaos_plan_constructs_no_wire_message(self, monkeypatch):
        built = []
        init = WireMessage.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(WireMessage, "__init__", counting_init)
        result = chaos.run_chaos_plan(chaos.ChaosConfig(), 0)
        assert result.ok and result.wire_count > 0
        assert built == []
        # The counter sees a construction when one happens.
        protocol.wire_message(WireEvent(0.0, "jets", 1, "w", ("ready", 0), 64))
        assert built == [1]


def test_wire_event_is_an_immutable_named_tuple():
    ev = WireEvent(0.5, "jets", 3, "worker", ("ready", 0), 64)
    assert ev == WireEvent(time=0.5, service="jets", conn_id=3,
                           sender="worker", payload=("ready", 0), nbytes=64)
    assert ev._fields == ("time", "service", "conn_id", "sender",
                          "payload", "nbytes")
    with pytest.raises(AttributeError):
        ev.service = "other"
