"""The bounded schedule explorer and the SeededOrder permutation hook."""

from __future__ import annotations

import pytest

from repro.analysis.explore import (
    ExploreConfig,
    explore,
    explore_main,
    run_schedule,
    wire_messages,
)
from repro.simkernel import Environment, SeededOrder


class TestSeededOrder:
    def test_seed_zero_is_fifo_baseline(self):
        order = SeededOrder(0)
        assert [order.tiebreak(None) for _ in range(8)] == [0.0] * 8

    def test_nonzero_seed_permutes_deterministically(self):
        def stream(seed, n=16):
            order = SeededOrder(seed)
            return [order.tiebreak(None) for _ in range(n)]

        a = stream(7)
        assert a == stream(7)
        assert len(set(a)) == 16  # actually varies
        assert all(0.0 <= x < 1.0 for x in a)
        assert a != stream(8)

    def test_default_environment_order_unchanged(self):
        # No order (the production default) must keep the historic FIFO
        # heap behaviour: same-time events run in scheduling order.
        ran: list[int] = []
        env = Environment()

        def proc(i):
            yield env.timeout(1.0)
            ran.append(i)

        for i in range(6):
            env.process(proc(i))
        env.run()
        assert ran == list(range(6))

    def test_seeded_order_permutes_ties(self):
        def run(order):
            ran: list[int] = []
            env = Environment(order=order)

            def proc(i):
                yield env.timeout(1.0)
                ran.append(i)

            for i in range(8):
                env.process(proc(i))
            env.run()
            return ran

        assert run(SeededOrder(3)) != list(range(8))
        assert run(SeededOrder(3)) == run(SeededOrder(3))


class TestRunSchedule:
    def test_fifo_baseline_schedule_passes(self):
        result = run_schedule(ExploreConfig(schedules=1), 0)
        assert result.ok
        assert result.killed_worker is None
        assert result.wire_count > 0

    def test_kill_schedule_passes_and_kills(self):
        result = run_schedule(ExploreConfig(schedules=2), 1)
        assert result.ok
        assert result.killed_worker is not None
        assert 0.0 < result.kill_time < 2.0

    def test_schedules_are_deterministic(self):
        a = run_schedule(ExploreConfig(schedules=4), 3)
        b = run_schedule(ExploreConfig(schedules=4), 3)
        assert (a.seed, a.kill_time, a.wire_count, a.problems) == (
            b.seed,
            b.kill_time,
            b.wire_count,
            b.problems,
        )

    def test_campaign_report(self):
        report = explore(ExploreConfig(schedules=4))
        assert len(report.results) == 4
        assert report.ok
        kills = [r for r in report.results if r.killed_worker is not None]
        assert len(kills) == 2


class TestExploreCli:
    def test_small_campaign_exits_zero(self, capsys):
        assert explore_main(["--schedules", "6"]) == 0
        out = capsys.readouterr().out
        assert "6 schedules" in out
        assert "all passed" in out

    def test_oversized_mpi_config_rejected(self, capsys):
        rc = explore_main(["--schedules", "2", "--mpi-nodes", "4"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--schedules", "0"], "--schedules must be positive"),
            (["--until", "-1"], "--until must be positive"),
            (["--until", "nan"], "--until must be positive"),
            (
                ["--workers", "0", "--mpi-tasks", "0"],
                "--workers must be positive",
            ),
            (["--mpi-tasks", "-2"], "--mpi-tasks must not be negative"),
            (
                ["--serial-tasks", "0", "--mpi-tasks", "0"],
                "--serial-tasks and --mpi-tasks leave no job to run",
            ),
        ],
        ids=["schedules", "until", "until-nan", "workers", "mpi-tasks",
             "no-jobs"],
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            explore_main(["--schedules", "1", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: jets explore")
        assert f"jets explore: error: {error}" in err


class TestWireConversion:
    def test_unknown_services_dropped(self):
        from repro.netsim.sockets import WireEvent

        events = [
            WireEvent(0.0, "jets", 1, "n0", ("ready", 0), 64),
            WireEvent(0.1, "coasters", 2, "n0", ("hello",), 8),
            WireEvent(0.2, "mpiexec-j1", 3, "n1", ("start",), 512),
        ]
        msgs = wire_messages(events)
        assert [(m.channel, m.kind) for m in msgs] == [
            ("jets", "ready"),
            ("hydra", "start"),
        ]
        assert msgs[0].conn == 1 and msgs[0].nbytes == 64
