"""Dynamic happens-before model: vector clocks over the live trace.

The static HB/RS rules (:mod:`.race_rules`) reason about source text;
this module watches an actual run.  :class:`HappensBeforeChecker` is a
:class:`~repro.simkernel.monitor.Trace` subscriber that rebuilds the
run's causal order from three edge sources:

* **schedule chains** — the kernel's event-provenance hook
  (:meth:`repro.simkernel.core.Environment.set_provenance`) reports, for
  every scheduled event, the event whose callback delivery scheduled it.
  Following those edges gives "A's callback started B, so everything B
  does is after everything A did first".  Store handoffs ride on this
  for free: a ``Store.put`` that un-blocks a pending ``get`` schedules
  the getter's event from inside the putter's delivery.
* **wire messages** — every :meth:`Socket.send` observed through
  :meth:`Network.add_tap` is an access to its connection, so send and
  receive sides of one conversation are chained through the conn entity.
* **program order** — two records logged during the same callback
  delivery are ordered by the code that logged them.

Against that order the checker runs a Djit+-style last-access check per
*entity* (job, worker, proxy, node, counter, conn — whatever the record
payload names): a new access whose chain clock has not seen the entity's
previous access, at the *same simulated timestamp*, is a race candidate
— two touches of one entity that the schedule, not the program, ordered.
Same-entity accesses at different timestamps are ordered by time and
never reported.

Vector clocks are keyed by entity (a bounded population) rather than by
event (unbounded), so memory stays proportional to the number of live
entities plus pending events.  Chain clocks are shared copy-on-write:
scheduling an event aliases the cause's clock; only an actual entity
access copies it.

Candidates are *suspicions*, not verdicts: ``jets sanitize`` feeds them
to the schedule explorer, re-runs the workload under permuted
same-timestamp orders, and compares canonical outcome digests to split
benign races (any order, same outcome) from outcome-changing ones.

:func:`seeded_race_demo` builds the reference workload for that loop —
a deliberate last-writer-wins race whose final observable value depends
on which same-time writer the scheduler delivers second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..simkernel.core import Environment, SchedulingOrder
from ..simkernel.monitor import Trace, TraceRecord

__all__ = ["RaceCandidate", "HappensBeforeChecker", "seeded_race_demo"]

#: Payload keys that name an entity, and the entity family they imply.
_ENTITY_FIELDS = (
    ("job", "job"),
    ("worker", "worker"),
    ("proxy", "proxy"),
    ("node", "node"),
    ("counter", "counter"),
)

_EMPTY: dict = {}


@dataclass
class RaceCandidate:
    """One unordered same-timestamp access pair, aggregated.

    Candidates are deduplicated by ``(family, prior, access)`` — the
    entity family plus the two trace categories involved — since one
    root cause typically fires once per job/worker.  ``count`` is the
    number of concrete pairs folded in; ``entity``/``time`` describe the
    first one seen.
    """

    family: str
    entity: str
    time: float
    prior: str
    access: str
    count: int = 1

    def key(self) -> tuple:
        return (self.family, self.prior, self.access)

    def render(self) -> str:
        suffix = f" (x{self.count})" if self.count > 1 else ""
        return (
            f"t={self.time:g} {self.family}={self.entity}: "
            f"'{self.prior}' and '{self.access}' are unordered{suffix}"
        )


class HappensBeforeChecker:
    """Streaming race-candidate detector (subscribe it to a trace).

    Typical use::

        checker = HappensBeforeChecker(env)
        checker.attach(trace, network)   # provenance + subscriber + tap
        env.run()
        for cand in checker.finish():
            print(cand.render())

    The checker is observation-only: it never logs, schedules, or
    perturbs event order (the provenance hook fires after the heap
    insertion it describes).
    """

    def __init__(self, env: Environment, max_nodes: int = 200_000):
        self.env = env
        #: id(event) -> chain vector clock (entity key -> access count).
        self._node_vc: dict[int, dict] = {}
        self._root_vc: dict = {}
        #: entity key -> [access count, last time, last category].
        self._entities: dict[tuple, list] = {}
        self._candidates: dict[tuple, RaceCandidate] = {}
        self.records = 0
        self.max_nodes = max_nodes
        self._trace: Optional[Trace] = None
        self._network = None

    # -- wiring ------------------------------------------------------------

    def attach(self, trace, network=None) -> "HappensBeforeChecker":
        """Install the provenance hook, trace subscription and wire tap."""
        self.env.set_provenance(self._on_schedule)
        trace.subscribe(self.feed)
        self._trace = trace
        if network is not None:
            network.add_tap(self.tap)
            self._network = network
        return self

    def detach(self) -> None:
        """Undo :meth:`attach` (safe to call once, idempotent-ish)."""
        self.env.set_provenance(None)
        if self._trace is not None:
            self._trace.unsubscribe(self.feed)
            self._trace = None
        if self._network is not None:
            try:
                self._network._taps.remove(self.tap)
            except ValueError:
                pass
            self._network = None

    # -- causal edges ------------------------------------------------------

    def _on_schedule(self, cause, event, when) -> None:
        """Provenance hook: ``event`` inherits ``cause``'s chain clock.

        The clock dict is aliased, not copied — :meth:`feed` copies on
        write.  Overwriting on (re)schedule also makes ``id()`` reuse
        after garbage collection harmless: a recycled id is re-bound
        here before it can ever be looked up as a cause.
        """
        node_vc = self._node_vc
        if cause is not None:
            node_vc[id(event)] = node_vc.get(id(cause), _EMPTY)
        else:
            node_vc[id(event)] = self._root_vc
        if len(node_vc) > self.max_nodes:
            items = list(node_vc.items())
            self._node_vc = dict(items[len(items) // 2:])

    # -- accesses ----------------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        """Trace subscriber: each record is an access to its entities."""
        self.records += 1
        data = rec.data
        if type(data) is not dict:
            return
        keys = [
            (family, str(data[fld]))
            for fld, family in _ENTITY_FIELDS
            if fld in data
        ]
        if keys:
            self._access(keys, rec.time, rec.category)

    def tap(self, ev) -> None:
        """Network tap: a send is an access to its connection."""
        self._access(
            [("conn", str(ev.conn_id))], ev.time, f"wire.{ev.service}"
        )

    def _access(self, keys: list, time: float, tag: str) -> None:
        cause = self.env._cause
        if cause is not None:
            cid = id(cause)
            vc = self._node_vc.get(cid, _EMPTY)
        else:
            cid = None
            vc = self._root_vc
        updated: Optional[dict] = None
        entities = self._entities
        for key in keys:
            ent = entities.get(key)
            if ent is None:
                ent = entities[key] = [0, None, None]
            count, last_time, last_tag = ent
            if count and time == last_time and vc.get(key, 0) < count:
                self._report(key, time, last_tag, tag)
            if updated is None:
                updated = dict(vc)
            ent[0] = count + 1
            ent[1] = time
            ent[2] = tag
            updated[key] = ent[0]
            vc = updated
        if updated is not None:
            if cid is not None:
                self._node_vc[cid] = updated
            else:
                self._root_vc = updated

    def _report(self, key: tuple, time: float, prior, tag: str) -> None:
        cand = RaceCandidate(
            family=key[0],
            entity=key[1],
            time=time,
            prior=prior or "<start>",
            access=tag,
        )
        existing = self._candidates.get(cand.key())
        if existing is not None:
            existing.count += 1
        else:
            self._candidates[cand.key()] = cand

    # -- results -----------------------------------------------------------

    def finish(self) -> list[RaceCandidate]:
        """All candidates, most-seen first (then by first timestamp)."""
        return sorted(
            self._candidates.values(),
            key=lambda c: (-c.count, c.time, c.key()),
        )


# -- reference racy workload ---------------------------------------------------


def _race_writer(env: Environment, trace: Trace, shared: dict, value: int):
    """Write the shared cell at t=1.0 (both writers tie on the clock)."""
    yield env.timeout(1.0)
    # Deliberate last-writer-wins race: no ordering edge between the two
    # writers, so the surviving value is the scheduler's choice.
    shared["x"] = value
    trace.log("counter.shared", {"counter": "shared", "value": value})


def _race_reader(env: Environment, trace: Trace, shared: dict):
    """Observe the surviving value strictly after the writers."""
    yield env.timeout(2.0)
    trace.log(
        "counter.final", {"counter": "final", "value": shared.get("x")}
    )


def seeded_race_demo(
    order: Optional[SchedulingOrder] = None,
    checker: bool = False,
    until: float = 10.0,
) -> tuple[Environment, Trace, Optional[HappensBeforeChecker]]:
    """Run the reference race workload; returns (env, trace, checker).

    Two writers store into one shared cell at the same simulated instant
    and a reader logs the survivor afterwards.  Under the FIFO baseline
    the second-submitted writer wins; a permuted schedule can flip that,
    changing the ``counter.final`` record — an *outcome-changing* race,
    which is exactly what the sanitizer's explore-confirmation loop must
    classify it as.  With ``checker=True`` a
    :class:`HappensBeforeChecker` rides along and will flag the
    same-timestamp ``counter.shared`` pair.
    """
    env = Environment(order=order)
    trace = Trace(env)
    hb = HappensBeforeChecker(env).attach(trace) if checker else None
    shared: dict = {}
    env.process(_race_writer(env, trace, shared, 1))
    env.process(_race_writer(env, trace, shared, 2))
    env.process(_race_reader(env, trace, shared))
    env.run(until=until)
    return env, trace, hb
