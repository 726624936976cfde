"""Tests for the dispatcher's queue policies."""

import pytest

from repro.apps.synthetic import SleepProgram
from repro.core.policies import (
    BackfillPolicy,
    FifoPolicy,
    PriorityPolicy,
    make_policy,
)
from repro.core.tasklist import JobSpec


def job(nodes=1, priority=0):
    return JobSpec(program=SleepProgram(1), nodes=nodes, priority=priority)


class TestFifo:
    def test_select_in_order(self):
        p = FifoPolicy()
        a, b = job(), job()
        p.push(a)
        p.push(b)
        assert p.select(lambda j: True) is a
        assert p.select(lambda j: True) is b
        assert p.select(lambda j: True) is None

    def test_head_of_line_blocking(self):
        p = FifoPolicy()
        big, small = job(nodes=8), job(nodes=1)
        p.push(big)
        p.push(small)
        # Only the small job fits, but FIFO refuses to skip the head.
        assert p.select(lambda j: j.nodes <= 2) is None
        assert len(p) == 2

    def test_pending_snapshot(self):
        p = FifoPolicy()
        a, b = job(), job()
        p.push(a)
        p.push(b)
        assert p.pending() == [a, b]


class TestPriority:
    def test_lowest_priority_value_first(self):
        p = PriorityPolicy()
        low, high = job(priority=5), job(priority=1)
        p.push(low)
        p.push(high)
        assert p.select(lambda j: True) is high
        assert p.select(lambda j: True) is low

    def test_fifo_within_level(self):
        p = PriorityPolicy()
        a, b = job(priority=2), job(priority=2)
        p.push(a)
        p.push(b)
        assert p.select(lambda j: True) is a

    def test_blocked_head_blocks(self):
        p = PriorityPolicy()
        urgent_big = job(nodes=8, priority=0)
        lazy_small = job(nodes=1, priority=9)
        p.push(lazy_small)
        p.push(urgent_big)
        assert p.select(lambda j: j.nodes <= 2) is None


class TestBackfill:
    def test_skips_blocked_head(self):
        p = BackfillPolicy()
        big, small = job(nodes=8), job(nodes=1)
        p.push(big)
        p.push(small)
        assert p.select(lambda j: j.nodes <= 2) is small
        assert p.pending() == [big]

    def test_fifo_when_head_fits(self):
        p = BackfillPolicy()
        a, b = job(nodes=1), job(nodes=1)
        p.push(a)
        p.push(b)
        assert p.select(lambda j: True) is a

    def test_window_limits_lookahead(self):
        p = BackfillPolicy(window=2)
        p.push(job(nodes=8))
        p.push(job(nodes=8))
        fits = job(nodes=1)
        p.push(fits)  # third position: beyond the window
        assert p.select(lambda j: j.nodes <= 2) is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            BackfillPolicy(window=0)


class TestPushFront:
    """A job handed back after select() is the next one selected."""

    @pytest.mark.parametrize("name", ["fifo", "priority", "backfill"])
    def test_returned_job_selected_next(self, name):
        p = make_policy(name)
        a, b = job(), job()
        p.push(a)
        p.push(b)
        assert p.select(lambda j: True) is a
        p.push_front(a)
        assert p.pending() == [a, b]
        assert p.select(lambda j: True) is a

    def test_priority_keeps_level_order(self):
        p = PriorityPolicy()
        lazy, urgent = job(priority=5), job(priority=1)
        p.push(lazy)
        assert p.select(lambda j: True) is lazy
        p.push(urgent)
        p.push_front(lazy)
        assert p.pending() == [urgent, lazy]


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [("fifo", FifoPolicy), ("priority", PriorityPolicy), ("backfill", BackfillPolicy)],
    )
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random")
