"""Composable fault-injection engine and seeded chaos campaigns.

The paper's resilience experiment (Section 6.1.5, Fig. 10) injects exactly
one fault kind — kill a random pilot at a regular cadence.  Real
many-task deployments fail in more ways than that: proxies die mid
PMI-wire-up, links stall or drop messages, nodes straggle, shared-FS
staging reads error out.  This module generalizes the Fig. 10 script into
a *declarative* engine:

* :class:`FaultClause` — one seeded fault source: a kind (worker crash,
  proxy crash, straggler slowdown, message drop, message delay, network
  partition, staging failure), an inter-arrival law (fixed, exponential,
  jittered, or an explicit schedule), and a scope (node set, time window,
  wire channel).
* :class:`FaultPlan` — a named composition of clauses; one plan is one
  chaos experiment.
* :class:`ChaosEngine` — executes a plan against a live run: it installs
  a single network impairment (via
  :meth:`repro.netsim.sockets.Network.add_impairment`) for the message
  faults and drives one seeded process per clause for the rest.  Every
  injected fault is traced under a ``fault.*`` category registered in
  :mod:`repro.analysis.schema`.

``jets chaos`` (:func:`chaos_main`) runs campaigns of generated plans
against the explore smoke configuration with the recovery machinery
(:mod:`repro.core.recovery`) enabled, and holds every run to the same
oracles as ``jets explore``: the run must drain, the trace must pass the
``lint-trace`` validators, the tapped wire traffic must satisfy the
protocol session machines, and job accounting must balance (done +
permanently failed == submitted).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

from ..analysis.protocol import SessionValidator, channel_for_service
from ..analysis.tracecheck import TraceValidator
from ..simkernel import Environment, SeededOrder

__all__ = [
    "FAULT_KINDS",
    "PLAN_KINDS",
    "FaultClause",
    "FaultPlan",
    "ChaosEngine",
    "ChaosConfig",
    "PlanResult",
    "ChaosReport",
    "plan_for_index",
    "run_chaos_plan",
    "chaos_campaign",
    "chaos_main",
]

#: Every fault kind the engine can inject.  ``dispatcher_crash`` is
#: deliberately last: generated campaign plans cycle over
#: :data:`PLAN_KINDS` (everything before it), so adding the crash tier
#: did not reshuffle the byte-stable plans of existing chaos campaigns.
FAULT_KINDS = (
    "worker_kill",
    "proxy_kill",
    "straggler",
    "net_drop",
    "net_delay",
    "partition",
    "staging",
    "dispatcher_crash",
)

#: Kinds the generated ``jets chaos`` plan mix cycles through.  A
#: dispatcher crash ends the run (recovery is a *new process* resuming
#: from the journal — :mod:`repro.core.resume`), so it is driven by the
#: dedicated ``jets resume --verify`` campaign, not the in-run mix.
PLAN_KINDS = FAULT_KINDS[:-1]

#: Inter-arrival laws a clause may use.
CLAUSE_MODES = ("fixed", "exponential", "jittered", "scheduled")


@dataclass(frozen=True)
class FaultClause:
    """One seeded fault source inside a :class:`FaultPlan`.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        mode: inter-arrival law; ``scheduled`` fires at the explicit
            ``times`` instead of drawing waits.
        interval: mean (exponential) / exact (fixed) / center (jittered)
            inter-arrival time, seconds.
        jitter: half-width of the jittered mode's uniform window.
        times: absolute fire times for ``scheduled`` mode.
        start_after: quiet period before the first draw.
        window: ``(lo, hi)`` — faults only take effect inside this
            simulated-time window; the clause retires past ``hi``.
        nodes: restrict victims/effects to these node ids (None: any).
        channel: restrict message faults to one wire channel
            (``jets`` / ``hydra``; None: all channels).
        duration: how long an injected effect stays active (straggler,
            drop, delay, partition, staging).
        factor: straggler compute-slowdown multiplier.
        probability: per-message drop probability while a drop effect is
            active.
        delay: extra transfer latency per message while a delay effect
            is active.
    """

    kind: str
    mode: str = "exponential"
    interval: float = 5.0
    jitter: float = 0.0
    times: tuple[float, ...] = ()
    start_after: float = 0.0
    window: tuple[float, float] = (0.0, float("inf"))
    nodes: Optional[tuple[int, ...]] = None
    channel: Optional[str] = None
    duration: float = 1.0
    factor: float = 4.0
    probability: float = 1.0
    delay: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.mode not in CLAUSE_MODES:
            raise ValueError(f"unknown clause mode {self.mode!r}")
        if self.mode == "scheduled" and not self.times:
            raise ValueError("scheduled clauses need explicit times")
        if self.mode != "scheduled" and self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.jitter < 0 or (
            self.mode == "jittered" and self.jitter >= self.interval
        ):
            raise ValueError("jitter must satisfy 0 <= jitter < interval")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.window[0] > self.window[1]:
            raise ValueError("window lo must not exceed hi")


@dataclass(frozen=True)
class FaultPlan:
    """A named composition of fault clauses — one chaos experiment."""

    clauses: tuple[FaultClause, ...]
    name: str = "plan"

    def kinds(self) -> tuple[str, ...]:
        """Distinct fault kinds this plan exercises, in clause order."""
        seen: dict[str, None] = {}  # insertion-ordered dedup
        for clause in self.clauses:
            seen.setdefault(clause.kind)
        return tuple(seen)


class ChaosEngine:
    """Executes one :class:`FaultPlan` against a live JETS run.

    Args:
        platform: the machine under test.
        agents_fn: zero-arg callable returning the *current* pilot agents
            (pass the keeper's ``live_agents`` so respawned pilots are
            targetable too).
        staging: staging manager whose per-node failure set the
            ``staging`` fault kind toggles.
        rng_prefix: namespace for the engine's seeded rng streams — one
            per clause plus one for per-message drop draws, so plans
            replay deterministically for a given platform seed.
    """

    def __init__(
        self,
        platform,
        agents_fn: Callable[[], list],
        staging=None,
        rng_prefix: str = "chaos",
    ):
        self.platform = platform
        self.env = platform.env
        self.agents_fn = agents_fn
        self.staging = staging
        self.rng_prefix = rng_prefix
        self.active = False
        #: kind -> number of faults actually injected.
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        #: Fires when a ``dispatcher_crash`` clause kills the run; the
        #: harness races it against ``dispatcher.drained`` and abandons
        #: the journal when it wins.
        self.crashed = platform.env.event()
        self._effects: list[dict] = []
        self._remover: Optional[Callable[[], None]] = None
        self._net_rng = None
        self._endpoint_node = {
            node.endpoint: node.node_id for node in platform.nodes
        }

    def start(self, plan: FaultPlan) -> None:
        """Install the impairment hook and launch one process per clause."""
        if self.active:
            raise RuntimeError("chaos engine already started")
        self.active = True
        self._net_rng = self.platform.rng.stream(f"{self.rng_prefix}.net")
        self._remover = self.platform.network.add_impairment(self._impair)
        for i, clause in enumerate(plan.clauses):
            rng = self.platform.rng.stream(f"{self.rng_prefix}.c{i}")
            self.env.process(
                self._clause_proc(clause, rng), name=f"chaos-c{i}"
            )

    def stop(self) -> None:
        """Retire the engine: no further faults, impairment removed."""
        self.active = False
        self._effects.clear()
        if self._remover is not None:
            self._remover()
            self._remover = None

    # -- network impairment ---------------------------------------------------

    def _impair(self, op, src, dst, service, nbytes):
        """Single registered impairment aggregating all active effects."""
        now = self.env.now
        if self._effects:
            self._effects = [e for e in self._effects if e["until"] > now]
        if not self._effects:
            return None
        extra = 0.0
        channel = None
        channel_known = False
        node_of = self._endpoint_node.get
        for effect in self._effects:
            kind = effect["kind"]
            if kind == "partition":
                if (
                    node_of(src) in effect["nodes"]
                    or node_of(dst) in effect["nodes"]
                ):
                    return ("drop",)
                continue
            if op != "send":
                continue
            if effect["channel"] is not None:
                if not channel_known:
                    channel = channel_for_service(service)
                    channel_known = True
                if channel != effect["channel"]:
                    continue
            if kind == "net_drop":
                if float(self._net_rng.random()) < effect["probability"]:
                    return ("drop",)
            elif kind == "net_delay":
                extra += effect["delay"]
        if extra > 0:
            return ("delay", extra)
        return None

    # -- clause scheduling ----------------------------------------------------

    def _next_wait(self, clause: FaultClause, rng) -> float:
        if clause.mode == "exponential":
            return float(rng.exponential(clause.interval))
        if clause.mode == "jittered":
            u = 2.0 * float(rng.random()) - 1.0
            return max(1e-9, clause.interval + u * clause.jitter)
        return clause.interval  # fixed

    def _clause_proc(self, clause: FaultClause, rng) -> Generator:
        env = self.env
        lo, hi = clause.window
        if clause.start_after > 0:
            yield env.timeout(clause.start_after)
        if clause.mode == "scheduled":
            for t in clause.times:
                if t < env.now:
                    continue
                yield env.timeout(t - env.now)
                if self.active and lo <= env.now <= hi:
                    self._fire(clause, rng)
            return
        while self.active:
            yield env.timeout(self._next_wait(clause, rng))
            if env.now > hi:
                return
            if not self.active or env.now < lo:
                continue
            self._fire(clause, rng)

    # -- fault effectors ------------------------------------------------------

    def _scoped_agents(self, clause: FaultClause) -> list:
        agents = [a for a in self.agents_fn() if a.alive]
        if clause.nodes is not None:
            agents = [a for a in agents if a.node.node_id in clause.nodes]
        return agents

    def _pick(self, rng, items: list):
        return items[int(rng.integers(len(items)))]

    def _fire(self, clause: FaultClause, rng) -> None:
        getattr(self, f"_fire_{clause.kind}")(clause, rng)

    def _count(self, kind: str) -> None:
        self.injected[kind] += 1

    def _fire_worker_kill(self, clause: FaultClause, rng) -> None:
        living = self._scoped_agents(clause)
        if not living:
            return
        victim = self._pick(rng, living)
        self._count("worker_kill")
        self.platform.trace.log("fault.kill", {"worker": victim.worker_id})
        victim.kill()

    def _fire_proxy_kill(self, clause: FaultClause, rng) -> None:
        candidates = [
            (agent, job_id, proc)
            for agent in self._scoped_agents(clause)
            for job_id, proc in agent.running_proxies()
        ]
        if not candidates:
            return
        agent, job_id, proc = self._pick(rng, candidates)
        self._count("proxy_kill")
        self.platform.trace.log(
            "fault.proxy_kill", {"worker": agent.worker_id, "job": job_id}
        )
        proc.interrupt("proxy killed (fault injection)")

    def _fire_straggler(self, clause: FaultClause, rng) -> None:
        living = self._scoped_agents(clause)
        if not living:
            return
        node = self._pick(rng, living).node
        self._count("straggler")
        node.slowdown = clause.factor
        self.platform.trace.log(
            "fault.straggler",
            {
                "node": node.node_id,
                "factor": clause.factor,
                "duration": clause.duration,
            },
        )

        def heal() -> Generator:
            yield self.env.timeout(clause.duration)
            if node.slowdown == clause.factor:
                node.slowdown = 1.0
                self.platform.trace.log(
                    "fault.heal", {"nodes": [node.node_id]}
                )

        self.env.process(heal(), name=f"chaos-heal-n{node.node_id}")

    def _fire_net_drop(self, clause: FaultClause, rng) -> None:
        until = self.env.now + clause.duration
        self._count("net_drop")
        self._effects.append(
            {
                "kind": "net_drop",
                "channel": clause.channel,
                "probability": clause.probability,
                "until": until,
            }
        )
        self.platform.trace.log(
            "fault.net_drop",
            {
                "channel": clause.channel,
                "probability": clause.probability,
                "until": until,
            },
        )

    def _fire_net_delay(self, clause: FaultClause, rng) -> None:
        until = self.env.now + clause.duration
        self._count("net_delay")
        self._effects.append(
            {
                "kind": "net_delay",
                "channel": clause.channel,
                "delay": clause.delay,
                "until": until,
            }
        )
        self.platform.trace.log(
            "fault.net_delay",
            {"channel": clause.channel, "delay": clause.delay, "until": until},
        )

    def _fire_partition(self, clause: FaultClause, rng) -> None:
        if clause.nodes is not None:
            nodes = set(clause.nodes)
        else:
            living = self._scoped_agents(clause)
            if not living:
                return
            nodes = {self._pick(rng, living).node.node_id}
        until = self.env.now + clause.duration
        self._count("partition")
        self._effects.append(
            {"kind": "partition", "channel": None, "nodes": nodes, "until": until}
        )
        self.platform.trace.log(
            "fault.partition", {"nodes": sorted(nodes), "until": until}
        )

        def heal() -> Generator:
            yield self.env.timeout(clause.duration)
            self.platform.trace.log(
                "fault.heal", {"nodes": sorted(nodes)}
            )

        self.env.process(heal(), name="chaos-heal-part")

    def _fire_staging(self, clause: FaultClause, rng) -> None:
        if self.staging is None:
            return
        living = self._scoped_agents(clause)
        if clause.nodes is not None:
            node_ids = list(clause.nodes)
        elif living:
            node_ids = [self._pick(rng, living).node.node_id]
        else:
            return
        node_id = node_ids[0]
        until = self.env.now + clause.duration
        self._count("staging")
        self.staging.fail_nodes.add(node_id)
        self.platform.trace.log(
            "fault.staging", {"node": node_id, "until": until}
        )

        def heal() -> Generator:
            yield self.env.timeout(clause.duration)
            self.staging.fail_nodes.discard(node_id)
            self.platform.trace.log("fault.heal", {"nodes": [node_id]})

        self.env.process(heal(), name=f"chaos-heal-n{node_id}")

    def _fire_dispatcher_crash(self, clause: FaultClause, rng) -> None:
        """Kill the dispatcher process itself (at most once per run).

        The engine only *signals* the crash; the harness owns the
        dispatcher and its journal, so it tears the run down (abandoning
        the journal's unflushed tail) when :attr:`crashed` fires.
        """
        if self.crashed.triggered:
            return
        self._count("dispatcher_crash")
        self.platform.trace.log(
            "fault.dispatcher_crash", {"at": self.env.now}
        )
        self.crashed.succeed()


# -- campaign generation --------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Bounds of one ``jets chaos`` campaign.

    The workload mirrors ``jets explore``'s smoke configuration, scaled
    up slightly so recovery has something to chew on; the recovery
    machinery (backoff, hung-job deadlines, gang cancel, reconciliation,
    keeper respawn/quarantine) is always enabled.
    """

    workers: int = 6
    cores_per_node: int = 2
    serial_tasks: int = 12
    mpi_tasks: int = 3
    mpi_nodes: int = 2
    plans: int = 200
    seed: int = 0
    heartbeat: float = 0.5
    until: float = 600.0
    max_attempts: int = 10
    #: Faults only fire inside [0, fault_window]; the tail of the run is
    #: fault-free so every plan converges.
    fault_window: float = 30.0


@dataclass
class PlanResult:
    """Outcome of one chaos plan."""

    index: int
    seed: int
    plan: FaultPlan
    injected: dict[str, int]
    respawns: int
    drained: bool
    wire_count: int
    jobs_ok: int
    jobs_failed: int
    jobs_submitted: int
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.drained and not self.problems


@dataclass
class ChaosReport:
    """Everything one chaos campaign produced."""

    config: ChaosConfig
    results: list[PlanResult] = field(default_factory=list)

    @property
    def failures(self) -> list[PlanResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def kinds_exercised(self) -> dict[str, int]:
        """Total injections per fault kind across the campaign."""
        totals = {kind: 0 for kind in FAULT_KINDS}
        for result in self.results:
            for kind, count in result.injected.items():
                totals[kind] += count
        return totals


def _derive_seed(base: int, index: int) -> int:
    # Same derivation as jets explore: plan 0 of seed 0 keeps the FIFO
    # baseline ordering; later plans get well-separated streams.
    if index == 0 and base == 0:
        return 0
    return (base * 1_000_003 + index) & ((1 << 63) - 1) or 1


def _clause_for(kind: str, index: int, slot: int, window_hi: float) -> FaultClause:
    """Deterministic clause parameters for plan ``index``, clause ``slot``."""
    mode = ("exponential", "jittered", "fixed")[(index + slot) % 3]
    # Short inter-arrivals: the smoke workload drains in a few simulated
    # seconds, so the first faults must land mid-run to matter.
    interval = 0.8 + 0.4 * ((index + 2 * slot) % 4)
    jitter = 0.4 if mode == "jittered" else 0.0
    channel = (None, "jets", "hydra")[(index + slot) % 3]
    common = dict(
        kind=kind,
        mode=mode,
        interval=interval,
        jitter=jitter,
        start_after=0.1 * slot,
        window=(0.0, window_hi),
    )
    if kind == "straggler":
        return FaultClause(
            **common, duration=2.0, factor=2.0 + (index % 3)
        )
    if kind == "net_drop":
        return FaultClause(
            **common,
            channel=channel,
            duration=1.5,
            probability=0.3 + 0.2 * (index % 3),
        )
    if kind == "net_delay":
        return FaultClause(
            **common, channel=channel, duration=1.5, delay=0.3
        )
    if kind == "partition":
        return FaultClause(**common, duration=1.0)
    if kind == "staging":
        return FaultClause(**common, duration=4.0)
    return FaultClause(**common)  # worker_kill / proxy_kill


def plan_for_index(index: int, fault_window: float = 30.0) -> FaultPlan:
    """The generated plan for campaign slot ``index``.

    Every third plan mixes four distinct fault kinds, the rest two; the
    kind combinations cycle so a full campaign exercises every kind (and
    every pair of kinds) many times over.
    """
    n = 4 if index % 3 == 0 else 2
    start = index % len(PLAN_KINDS)
    step = 1 + (index // len(PLAN_KINDS)) % (len(PLAN_KINDS) - 1)
    kinds = [
        PLAN_KINDS[(start + j * step) % len(PLAN_KINDS)] for j in range(n)
    ]
    clauses = tuple(
        _clause_for(kind, index, slot, fault_window)
        for slot, kind in enumerate(kinds)
    )
    return FaultPlan(clauses=clauses, name=f"plan{index}-" + "+".join(kinds))


def run_chaos_plan(
    config: ChaosConfig, index: int, plan: Optional[FaultPlan] = None
) -> PlanResult:
    """Execute and validate one chaos plan on the smoke configuration."""
    # Imported here, like explore: keeps module import light for the CLI.
    from ..apps.synthetic import BarrierSleepBarrier, SleepProgram
    from ..cluster.machine import generic_cluster
    from ..cluster.platform import Platform
    from ..core.dispatcher import JetsDispatcher, JetsServiceConfig
    from ..core.recovery import PilotKeeper, RecoveryPolicy
    from ..core.staging import StagingManager
    from ..core.tasklist import JobSpec
    from ..core.worker import WorkerAgent
    from ..mpi.hydra import PROXY_IMAGE

    if plan is None:
        plan = plan_for_index(index, config.fault_window)
    seed = _derive_seed(config.seed, index)
    env = Environment(order=SeededOrder(seed))
    platform = Platform(
        generic_cluster(
            nodes=config.workers, cores_per_node=config.cores_per_node
        ),
        env=env,
        seed=seed,
    )
    # Trace and protocol oracles run incrementally as the run streams —
    # the session validator *is* the network tap and the trace validator
    # subscribes to the platform sink — so chaos campaigns stay bounded
    # in memory even when the trace windows and spills underneath.
    trace_validator = TraceValidator()
    platform.trace.subscribe(trace_validator.feed)
    sessions = SessionValidator()
    platform.network.add_tap(sessions.tap)

    recovery = RecoveryPolicy(
        backoff_base=0.05,
        backoff_factor=2.0,
        backoff_max=2.0,
        hung_job_timeout=8.0,
        gang_cancel=True,
        credit_reconcile=4.0,
        respawn_delay=0.3,
        quarantine_threshold=3,
        quarantine_period=5.0,
        zombie_grace=6.0,
    )
    dispatcher = JetsDispatcher(
        platform,
        JetsServiceConfig(
            heartbeat_interval=config.heartbeat, recovery=recovery
        ),
        expected_workers=config.workers,
    )
    dispatcher.start()
    staging = StagingManager(env, [PROXY_IMAGE])
    keeper = PilotKeeper(
        platform,
        dispatcher,
        recovery,
        staging=staging,
        heartbeat_interval=config.heartbeat,
    )
    for node in platform.nodes:
        agent = WorkerAgent(
            platform,
            node,
            dispatcher.endpoint,
            staging=staging,
            heartbeat_interval=config.heartbeat,
        )
        keeper.adopt(agent)
        agent.start()
    keeper.start()

    engine = ChaosEngine(
        platform, keeper.live_agents, staging=staging
    )
    engine.start(plan)

    jobs = []
    for i in range(config.serial_tasks):
        jobs.append(
            JobSpec(
                program=SleepProgram(0.3 + 0.2 * (i % 3)),
                nodes=1,
                mpi=False,
                max_attempts=config.max_attempts,
            )
        )
    for _i in range(config.mpi_tasks):
        jobs.append(
            JobSpec(
                program=BarrierSleepBarrier(0.8),
                nodes=config.mpi_nodes,
                ppn=config.cores_per_node,
                mpi=True,
                max_attempts=config.max_attempts,
            )
        )
    dispatcher.submit_many(jobs)

    watchdog = env.timeout(config.until)
    env.run(env.any_of([dispatcher.drained, watchdog]))
    drained = dispatcher.drained.triggered
    if drained:
        engine.stop()
        keeper.stop()
        env.process(dispatcher.shutdown_workers(), name="chaos-shutdown")
        env.run(until=env.now + 10 * config.heartbeat + 1.0)

    jobs_ok = sum(1 for c in dispatcher.completed if c.ok)
    jobs_failed = sum(1 for c in dispatcher.completed if not c.ok)
    result = PlanResult(
        index=index,
        seed=seed,
        plan=plan,
        injected=dict(engine.injected),
        respawns=keeper.respawns,
        drained=drained,
        wire_count=sessions.seen,
        jobs_ok=jobs_ok,
        jobs_failed=jobs_failed,
        jobs_submitted=dispatcher.jobs_submitted,
    )
    if not drained:
        result.problems.append(
            f"run did not drain within {config.until} sim-seconds "
            f"({dispatcher.jobs_finished}/{dispatcher.jobs_submitted} jobs)"
        )
    # Accounting oracle: every submitted job is settled exactly once.
    settled = [c.job.job_id for c in dispatcher.completed]
    if len(settled) != len(set(settled)):
        result.problems.append("accounting: a job settled more than once")
    if drained and jobs_ok + jobs_failed != dispatcher.jobs_submitted:
        result.problems.append(
            f"accounting: done({jobs_ok}) + failed({jobs_failed}) != "
            f"submitted({dispatcher.jobs_submitted})"
        )
    for issue in trace_validator.issues:
        result.problems.append(f"lint-trace: {issue.render()}")
    for problem in sessions.finish():
        result.problems.append(f"protocol: {problem}")
    env.close()
    return result


def chaos_campaign(config: ChaosConfig, progress=None) -> ChaosReport:
    """Run the whole campaign; ``progress`` is called per plan."""
    report = ChaosReport(config=config)
    for index in range(config.plans):
        result = run_chaos_plan(config, index)
        report.results.append(result)
        if progress is not None:
            progress(result)
    return report


def chaos_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets chaos`` — exit 0 if every plan passed, 1 otherwise."""
    parser = argparse.ArgumentParser(
        prog="jets chaos",
        description=(
            "Run seeded multi-fault chaos plans (worker/proxy crashes, "
            "stragglers, message drop/delay, partitions, staging faults) "
            "against a small JETS configuration with recovery enabled, "
            "validating drain, accounting, trace and wire-protocol "
            "conformance after every plan."
        ),
    )
    parser.add_argument(
        "--plans", type=int, default=200,
        help="number of generated fault plans to run (default 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; plans replay byte-for-byte for a given seed",
    )
    parser.add_argument(
        "--workers", type=int, default=6,
        help="worker (node) count of the smoke configuration",
    )
    parser.add_argument(
        "--serial-tasks", type=int, default=12,
        help="serial jobs in the workload mix",
    )
    parser.add_argument(
        "--mpi-tasks", type=int, default=3,
        help="MPI jobs in the workload mix",
    )
    parser.add_argument(
        "--mpi-nodes", type=int, default=2,
        help="nodes per MPI job (keep below --workers so kills drain)",
    )
    parser.add_argument(
        "--until", type=float, default=600.0,
        help="per-plan drain watchdog, in sim-seconds",
    )
    parser.add_argument(
        "--fault-window", type=float, default=30.0,
        help="faults only fire in [0, WINDOW] sim-seconds (default 30)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print one line per plan",
    )
    args = parser.parse_args(argv)

    config = ChaosConfig(
        workers=args.workers,
        serial_tasks=args.serial_tasks,
        mpi_tasks=args.mpi_tasks,
        mpi_nodes=args.mpi_nodes,
        plans=args.plans,
        seed=args.seed,
        until=args.until,
        fault_window=args.fault_window,
    )
    if config.mpi_tasks and config.mpi_nodes >= config.workers:
        print(
            "jets chaos: --mpi-nodes must stay below --workers or an "
            "injected kill can never drain",
            file=sys.stderr,
        )
        return 2

    def progress(result: PlanResult) -> None:
        if args.verbose or not result.ok:
            mix = "+".join(
                f"{k}:{v}" for k, v in result.injected.items() if v
            ) or "none"
            status = "ok" if result.ok else "FAIL"
            print(
                f"plan {result.index:4d} seed={result.seed} "
                f"faults={mix} respawns={result.respawns} "
                f"jobs={result.jobs_ok}+{result.jobs_failed}"
                f"/{result.jobs_submitted} {status}"
            )
            for problem in result.problems[:10]:
                print(f"    {problem}")

    report = chaos_campaign(config, progress)
    failed = len(report.failures)
    totals = report.kinds_exercised()
    mixed = sum(1 for count in totals.values() if count > 0)
    total_faults = sum(totals.values())
    print(
        f"jets chaos: {len(report.results)} plans, {total_faults} faults "
        f"across {mixed} kinds "
        f"({', '.join(f'{k}={v}' for k, v in totals.items() if v)}) — "
        + ("all passed" if report.ok else f"{failed} FAILED")
    )
    return 0 if report.ok else 1
