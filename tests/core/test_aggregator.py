"""Tests for worker aggregation into MPI-capable groups."""

import pytest

from repro.apps.synthetic import SleepProgram
from repro.cluster.machine import generic_cluster, surveyor
from repro.cluster.platform import Platform
from repro.core.aggregator import Aggregator, WorkerView
from repro.core.tasklist import JobSpec


def make_views(platform, n, slots=4):
    views = []
    for i in range(n):
        views.append(
            WorkerView(
                worker_id=i,
                node=platform.node(i),
                socket=None,
                slots=slots,
            )
        )
    return views


def mpi_job(nodes):
    return JobSpec(program=SleepProgram(1), nodes=nodes, mpi=True)


def serial_job():
    return JobSpec(program=SleepProgram(1), nodes=1, mpi=False)


@pytest.fixture
def agg_with_workers(small_platform):
    agg = Aggregator()
    views = make_views(small_platform, 4)
    for v in views:
        agg.add_worker(v)
        for _ in range(v.slots):
            agg.mark_ready(v.worker_id, now=0.0)
    return agg, views


class TestReadiness:
    def test_workers_become_fully_free(self, agg_with_workers):
        agg, views = agg_with_workers
        assert agg.ready_workers == 4
        assert agg.free_slot_count == 16

    def test_mark_ready_all_restores_capacity(self, agg_with_workers):
        agg, views = agg_with_workers
        agg.place(mpi_job(2))
        assert agg.ready_workers == 2
        agg.mark_ready(views[0].worker_id, now=1.0, all_slots=True)
        assert agg.ready_workers == 3

    def test_duplicate_worker_rejected(self, small_platform):
        agg = Aggregator()
        v = make_views(small_platform, 1)[0]
        agg.add_worker(v)
        with pytest.raises(ValueError):
            agg.add_worker(v)

    def test_mark_ready_unknown_worker_ignored(self):
        agg = Aggregator()
        agg.mark_ready(99, now=0.0)  # no crash


class TestMpiPlacement:
    def test_fifo_order_of_readiness(self, small_platform):
        agg = Aggregator()
        views = make_views(small_platform, 4, slots=1)
        for v in views:
            agg.add_worker(v)
        # Readiness order: 2, 0, 3, 1
        for wid in (2, 0, 3, 1):
            agg.mark_ready(wid, now=float(wid))
        chosen = agg.place(mpi_job(2))
        assert [v.worker_id for v in chosen] == [2, 0]

    def test_no_double_booking(self, agg_with_workers):
        agg, _ = agg_with_workers
        g1 = agg.place(mpi_job(2))
        g2 = agg.place(mpi_job(2))
        ids1 = {v.worker_id for v in g1}
        ids2 = {v.worker_id for v in g2}
        assert not ids1 & ids2
        assert not agg.can_place(mpi_job(1))

    def test_cannot_place_without_enough_workers(self, agg_with_workers):
        agg, _ = agg_with_workers
        assert not agg.can_place(mpi_job(5))
        with pytest.raises(RuntimeError):
            agg.place(mpi_job(5))

    def test_partially_busy_worker_not_mpi_eligible(self, agg_with_workers):
        agg, views = agg_with_workers
        agg.place(serial_job())  # occupies one slot somewhere
        assert agg.ready_workers == 3

    def test_dead_worker_not_selected(self, agg_with_workers):
        agg, views = agg_with_workers
        agg.remove_worker(views[0].worker_id)
        assert agg.ready_workers == 3
        chosen = agg.place(mpi_job(3))
        assert views[0].worker_id not in {v.worker_id for v in chosen}

    def test_running_jobs_tracked_and_released(self, agg_with_workers):
        agg, views = agg_with_workers
        job = mpi_job(2)
        chosen = agg.place(job)
        for v in chosen:
            assert job.job_id in v.running_jobs
            agg.release(job.job_id, v.worker_id)
            assert job.job_id not in v.running_jobs


class TestSerialPlacement:
    def test_prefers_partially_busy_workers(self, agg_with_workers):
        agg, _ = agg_with_workers
        first = agg.place(serial_job())[0]
        second = agg.place(serial_job())[0]
        # Packing: the second serial job goes to the same (now partially
        # busy) worker, keeping others fully free for MPI.
        assert first.worker_id == second.worker_id
        assert agg.ready_workers == 3

    def test_slot_accounting(self, agg_with_workers):
        agg, _ = agg_with_workers
        for _ in range(16):
            agg.place(serial_job())
        assert agg.free_slot_count == 0
        assert not agg.can_place(serial_job())


class TestTopologyGrouping:
    def test_topology_grouping_tighter_than_adversarial_fifo(self):
        platform = Platform(surveyor(64))  # a 4x4x4 torus
        topo = platform.topology
        agg_t = Aggregator("topology", topo)
        agg_f = Aggregator("fifo")
        # Readiness alternates between two opposite torus corners —
        # adversarial for FIFO grouping.
        near = [0, 1, 4, 5]          # one corner neighbourhood
        far = [42, 43, 46, 47]       # the antipodal neighbourhood
        order = [v for pair in zip(near, far) for v in pair]
        for a in (agg_t, agg_f):
            for wid in order:
                a.add_worker(
                    WorkerView(
                        worker_id=wid,
                        node=platform.node(wid),
                        socket=None,
                        slots=1,
                    )
                )
            for i, wid in enumerate(order):
                a.mark_ready(wid, now=float(i))
        g_t = agg_t.place(mpi_job(4))
        g_f = agg_f.place(mpi_job(4))
        # Measure both with the same (topology-aware) metric.
        assert agg_t.group_diameter(g_t) < agg_t.group_diameter(g_f)

    def test_topology_requires_topology(self):
        with pytest.raises(ValueError):
            Aggregator("topology", None)

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            Aggregator("fancy")


class TestIncrementalAggregates:
    """ready_workers / free_slot_count counters vs a full recount."""

    def _check(self, agg):
        ready, slots = agg._audit()
        assert agg.ready_workers == ready
        assert agg.free_slot_count == slots

    def test_counters_track_membership_and_readiness(self, small_platform):
        agg = Aggregator()
        views = make_views(small_platform, 4, slots=2)
        for v in views:
            agg.add_worker(v)
            self._check(agg)
        for v in views:
            for _ in range(v.slots):
                agg.mark_ready(v.worker_id, now=0.0)
                self._check(agg)
        # Extra mark_ready on a full worker must not overcount.
        agg.mark_ready(views[0].worker_id, now=1.0)
        self._check(agg)
        assert agg.free_slot_count == 8

    def test_counters_through_place_release_cycles(self, small_platform):
        agg = Aggregator()
        for v in make_views(small_platform, 4, slots=2):
            agg.add_worker(v)
            agg.mark_ready(v.worker_id, now=0.0, all_slots=True)
        self._check(agg)
        serial = serial_job()
        placed_serial = agg.place(serial)
        self._check(agg)
        group = agg.place(mpi_job(2))
        self._check(agg)
        for v in group:
            agg.release(mpi_job(2).job_id, v.worker_id)
            agg.mark_ready(v.worker_id, now=2.0, all_slots=True)
            self._check(agg)
        agg.release(serial.job_id, placed_serial[0].worker_id)
        agg.mark_ready(placed_serial[0].worker_id, now=3.0)
        self._check(agg)
        assert agg.ready_workers == 4

    def test_counters_after_worker_loss(self, small_platform):
        agg = Aggregator()
        views = make_views(small_platform, 3, slots=2)
        for v in views:
            agg.add_worker(v)
            agg.mark_ready(v.worker_id, now=0.0, all_slots=True)
        agg.place(mpi_job(1))  # one worker fully busy
        self._check(agg)
        for v in views:  # remove busy and idle workers alike
            agg.remove_worker(v.worker_id)
            self._check(agg)
        assert agg.ready_workers == 0
        assert agg.free_slot_count == 0
        agg.remove_worker(99)  # unknown id is a no-op
        self._check(agg)

    def test_counters_under_random_op_sequence(self, small_platform):
        import random

        rng = random.Random(1234)
        agg = Aggregator()
        next_id = 0
        live: list[int] = []
        for _ in range(300):
            op = rng.random()
            if op < 0.25 or not live:
                v = WorkerView(
                    worker_id=next_id,
                    node=small_platform.node(next_id % 4),
                    socket=None,
                    slots=rng.choice((1, 2, 4)),
                )
                agg.add_worker(v)
                live.append(next_id)
                next_id += 1
            elif op < 0.55:
                agg.mark_ready(
                    rng.choice(live), now=float(next_id),
                    all_slots=rng.random() < 0.3,
                )
            elif op < 0.75:
                job = serial_job()
                if agg.can_place(job):
                    agg.place(job)
            elif op < 0.9:
                job = mpi_job(rng.choice((1, 2)))
                if agg.can_place(job):
                    agg.place(job)
            else:
                wid = rng.choice(live)
                live.remove(wid)
                agg.remove_worker(wid)
            self._check(agg)
