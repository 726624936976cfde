"""Tests for the composable chaos engine and seeded campaigns."""

import itertools

import pytest

import repro.core.tasklist as tasklist
import repro.core.worker as worker
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.core.chaos import (
    FAULT_KINDS,
    PLAN_KINDS,
    ChaosConfig,
    ChaosEngine,
    FaultClause,
    FaultPlan,
    chaos_campaign,
    chaos_main,
    plan_for_index,
    run_chaos_plan,
)


def _reset_id_counters():
    """Fresh module-global id streams, as in a new interpreter."""
    worker._worker_seq = itertools.count()
    tasklist._spec_seq = itertools.count()


class _FakeAgent:
    """Just enough pilot surface for the engine's effectors."""

    def __init__(self, node, worker_id):
        self.node = node
        self.worker_id = worker_id
        self.alive = True

    def kill(self, reason=""):
        self.alive = False

    def running_proxies(self):
        return []


def make_rig(nodes=3):
    platform = Platform(generic_cluster(nodes=nodes, cores_per_node=1))
    agents = [
        _FakeAgent(node, worker_id=i)
        for i, node in enumerate(platform.nodes)
    ]
    engine = ChaosEngine(platform, lambda: agents)
    return platform, agents, engine


class TestClauseValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultClause(kind="meteor_strike")

    def test_scheduled_needs_times(self):
        with pytest.raises(ValueError):
            FaultClause(kind="worker_kill", mode="scheduled")

    def test_jitter_must_stay_below_interval(self):
        with pytest.raises(ValueError):
            FaultClause(
                kind="worker_kill", mode="jittered", interval=1.0, jitter=1.0
            )

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultClause(kind="net_drop", probability=1.5)

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            FaultClause(kind="worker_kill", window=(5.0, 1.0))

    def test_plan_kinds_deduplicated_in_order(self):
        plan = FaultPlan(
            clauses=(
                FaultClause(kind="net_drop"),
                FaultClause(kind="worker_kill"),
                FaultClause(kind="net_drop"),
            )
        )
        assert plan.kinds() == ("net_drop", "worker_kill")


class TestPlanGeneration:
    def test_every_plannable_kind_appears_across_a_campaign(self):
        kinds = set()
        for i in range(21):
            kinds.update(plan_for_index(i).kinds())
        assert kinds == set(PLAN_KINDS)

    def test_generated_plans_never_crash_the_dispatcher(self):
        # dispatcher_crash is injected only by explicit resume campaigns;
        # generated campaign plans must stay byte-stable and crash-free.
        assert "dispatcher_crash" in FAULT_KINDS
        assert "dispatcher_crash" not in PLAN_KINDS
        for i in range(40):
            assert "dispatcher_crash" not in plan_for_index(i).kinds()

    def test_every_third_plan_mixes_four_kinds(self):
        assert len(plan_for_index(0).kinds()) == 4
        assert len(plan_for_index(3).kinds()) == 4
        assert len(plan_for_index(1).kinds()) == 2

    def test_generation_is_deterministic(self):
        assert plan_for_index(5) == plan_for_index(5)
        assert plan_for_index(5) != plan_for_index(6)


class TestEngineEffects:
    def test_scheduled_kill_fires_at_time(self):
        platform, agents, engine = make_rig()
        plan = FaultPlan(
            (
                FaultClause(
                    kind="worker_kill", mode="scheduled", times=(0.5,)
                ),
            )
        )
        engine.start(plan)
        platform.env.run(platform.env.timeout(1.0))
        assert engine.injected["worker_kill"] == 1
        assert sum(1 for a in agents if not a.alive) == 1
        kills = platform.trace.select("fault.kill")
        assert kills and kills[0].time == pytest.approx(0.5)
        engine.stop()

    def test_straggler_sets_and_heals_slowdown(self):
        platform, agents, engine = make_rig(nodes=1)
        plan = FaultPlan(
            (
                FaultClause(
                    kind="straggler",
                    mode="scheduled",
                    times=(1.0,),
                    duration=2.0,
                    factor=3.0,
                ),
            )
        )
        engine.start(plan)
        env = platform.env
        env.run(env.timeout(1.5))
        assert platform.nodes[0].slowdown == 3.0
        env.run(env.timeout(2.0))
        assert platform.nodes[0].slowdown == 1.0
        assert platform.trace.select("fault.heal")
        engine.stop()

    def test_clause_retires_past_window(self):
        platform, agents, engine = make_rig(nodes=5)
        plan = FaultPlan(
            (
                FaultClause(
                    kind="worker_kill",
                    mode="fixed",
                    interval=1.0,
                    window=(0.0, 2.5),
                ),
            )
        )
        engine.start(plan)
        platform.env.run(platform.env.timeout(10.0))
        assert engine.injected["worker_kill"] == 2  # t=1 and t=2 only
        engine.stop()

    def test_partition_drops_messages_between_nodes(self):
        platform, agents, engine = make_rig(nodes=2)
        plan = FaultPlan(
            (
                FaultClause(
                    kind="partition",
                    mode="scheduled",
                    times=(0.0,),
                    nodes=(platform.nodes[0].node_id,),
                    duration=5.0,
                ),
            )
        )
        engine.start(plan)
        env = platform.env
        net = platform.network
        a, b = platform.nodes[0].endpoint, platform.nodes[1].endpoint
        received = []

        def server():
            lis = net.listen(b, "svc")
            sock = yield lis.accept()
            while True:
                msg = yield sock.recv()
                received.append(msg.payload)

        def client():
            # Connect before the partition lands (scheduled at t=0 fires
            # only once the engine's clause process runs).
            sock = yield from net.connect(a, b, "svc")
            yield env.timeout(1.0)  # partition now active
            yield sock.send("lost", 10)
            yield env.timeout(5.0)  # partition healed
            yield sock.send("kept", 10)
            yield env.timeout(1.0)

        env.process(server())
        p = env.process(client())
        env.run(p)
        assert received == ["kept"]
        assert engine.injected["partition"] == 1
        engine.stop()


class TestChaosPlans:
    def test_small_campaign_all_plans_pass(self):
        _reset_id_counters()
        config = ChaosConfig(
            plans=4, serial_tasks=6, mpi_tasks=2, until=240.0
        )
        report = chaos_campaign(config)
        assert report.ok, [(r.index, r.problems) for r in report.failures]
        totals = report.kinds_exercised()
        assert sum(totals.values()) > 0
        for result in report.results:
            assert result.drained
            assert (
                result.jobs_ok + result.jobs_failed == result.jobs_submitted
            )

    def test_plan_replay_is_deterministic(self):
        config = ChaosConfig(serial_tasks=6, mpi_tasks=1, until=240.0)

        def once():
            _reset_id_counters()
            r = run_chaos_plan(config, 3)
            assert r.ok, r.problems
            return (
                r.seed,
                r.injected,
                r.respawns,
                r.jobs_ok,
                r.jobs_failed,
                r.wire_count,
            )

        assert once() == once()

    def test_worker_lost_during_dispatch_service(self):
        # Base seed 4, plan 147 kills a worker while the dispatcher charges
        # the service time for a job it selected for that worker; the job
        # must go back to the queue instead of crashing place().
        _reset_id_counters()
        result = run_chaos_plan(ChaosConfig(seed=4), 147)
        assert result.ok, result.problems
        assert result.jobs_ok + result.jobs_failed == result.jobs_submitted

    def test_zombie_worker_runs_a_stale_attempt(self):
        # Base seed 54, plan 96: the dispatcher declares partitioned
        # worker 6 lost and reruns its jobs on worker 8; worker 6 then
        # receives the delayed RUN_TASK and logs app_running again.
        _reset_id_counters()
        result = run_chaos_plan(ChaosConfig(seed=54), 96)
        assert result.ok, result.problems


class TestDispatcherCrash:
    def test_scheduled_crash_triggers_event_once(self):
        platform, agents, engine = make_rig()
        plan = FaultPlan(
            (
                FaultClause(
                    kind="dispatcher_crash", mode="scheduled", times=(0.5, 0.7)
                ),
            )
        )
        engine.start(plan)
        platform.env.run(platform.env.timeout(1.0))
        # The event fires exactly once even with two scheduled times.
        assert engine.crashed.triggered
        assert engine.injected["dispatcher_crash"] == 1
        marks = platform.trace.select("fault.dispatcher_crash")
        assert len(marks) == 1
        assert marks[0].data["at"] == pytest.approx(0.5)
        engine.stop()

    def test_no_crash_leaves_event_untriggered(self):
        platform, agents, engine = make_rig()
        plan = FaultPlan(
            (FaultClause(kind="worker_kill", mode="scheduled", times=(0.5,)),)
        )
        engine.start(plan)
        platform.env.run(platform.env.timeout(1.0))
        assert not engine.crashed.triggered
        engine.stop()


class TestChaosCli:
    def test_small_campaign_exits_zero(self, capsys):
        _reset_id_counters()
        argv = ["--plans", "2", "--fault-window", "5", "--until", "240", "-v"]
        assert chaos_main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("plan    0 seed=0 ") and out[0].endswith(" ok")
        assert out[1].startswith("plan    1 seed=1 ")
        assert out[2].startswith("jets chaos: 2 plans, ")
        assert out[2].endswith("all passed")

    def test_oversized_mpi_config_rejected(self, capsys):
        assert chaos_main(["--plans", "1", "--mpi-nodes", "6"]) == 2
        assert "--mpi-nodes must stay below --workers" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["--workers", "0", "--mpi-tasks", "0"],
                "--workers must be positive",
            ),
            (["--plans", "-1"], "--plans must be positive"),
            (["--until", "-1"], "--until must be positive"),
            (["--mpi-nodes", "0"], "--mpi-nodes must be positive"),
            (["--fault-window", "-1"], "--fault-window must not be negative"),
            (["--serial-tasks", "-1"], "--serial-tasks must not be negative"),
            (
                ["--serial-tasks", "0", "--mpi-tasks", "0"],
                "--serial-tasks and --mpi-tasks leave no job to run",
            ),
        ],
        ids=["workers", "plans", "until", "mpi-nodes", "fault-window",
             "serial-tasks", "no-jobs"],
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            chaos_main(["--plans", "1", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jets chaos")
        assert f"jets chaos: error: {error}" in err
