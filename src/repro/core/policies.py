"""Job-selection policies for the JETS dispatcher queue.

The shipped JETS uses plain FIFO ("JETS currently operates at high speed in
part because it uses a simple FIFO queuing approach", Section 7).  The
priority and backfill policies implement the extensions that same section
plans, and are compared in the ``abl_scheduling`` ablation benchmark.

A policy orders and selects jobs; it does not know about workers — the
:class:`~repro.core.aggregator.Aggregator` answers whether a specific job
can be placed right now.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from .tasklist import JobSpec

__all__ = ["QueuePolicy", "FifoPolicy", "PriorityPolicy", "BackfillPolicy", "make_policy"]


class QueuePolicy:
    """Interface: a mutable queue of pending jobs with a selection rule."""

    def push(self, job: JobSpec) -> None:
        """Add a job to the queue."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def select(self, can_place: Callable[[JobSpec], bool]) -> Optional[JobSpec]:
        """Remove and return the next job that ``can_place`` accepts.

        Returns None when nothing placeable is available *per the policy*
        (FIFO refuses to look past a blocked queue head).
        """
        raise NotImplementedError

    def push_front(self, job: JobSpec) -> None:
        """Return a job just taken by :meth:`select` to the queue head."""
        raise NotImplementedError

    def pending(self) -> list[JobSpec]:
        """Snapshot of queued jobs in policy order."""
        raise NotImplementedError


class FifoPolicy(QueuePolicy):
    """Strict FIFO with head-of-line blocking — the shipped JETS behaviour."""

    def __init__(self) -> None:
        self._queue: deque[JobSpec] = deque()

    def push(self, job: JobSpec) -> None:
        self._queue.append(job)

    def push_front(self, job: JobSpec) -> None:
        self._queue.appendleft(job)

    def __len__(self) -> int:
        return len(self._queue)

    def select(self, can_place: Callable[[JobSpec], bool]) -> Optional[JobSpec]:
        if self._queue and can_place(self._queue[0]):
            return self._queue.popleft()
        return None

    def pending(self) -> list[JobSpec]:
        return list(self._queue)


class PriorityPolicy(QueuePolicy):
    """Smallest ``priority`` value first; FIFO within a priority level."""

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, JobSpec]] = []
        self._seq = 0

    def push(self, job: JobSpec) -> None:
        self._queue.append((job.priority, self._seq, job))
        self._seq += 1
        self._queue.sort(key=lambda t: (t[0], t[1]))

    def push_front(self, job: JobSpec) -> None:
        # Ahead of its priority level: a sequence number below every
        # queued job's.
        self._seq += 1
        self._queue.append((job.priority, -self._seq, job))
        self._queue.sort(key=lambda t: (t[0], t[1]))

    def __len__(self) -> int:
        return len(self._queue)

    def select(self, can_place: Callable[[JobSpec], bool]) -> Optional[JobSpec]:
        if self._queue and can_place(self._queue[0][2]):
            return self._queue.pop(0)[2]
        return None

    def pending(self) -> list[JobSpec]:
        return [j for _p, _s, j in self._queue]


class BackfillPolicy(QueuePolicy):
    """FIFO order, but a blocked head lets smaller jobs jump the queue.

    EASY-style backfill without reservations: when the head job cannot be
    placed, scan forward for the first job that can.  Bounded lookahead
    keeps the dispatcher's per-decision cost O(window).
    """

    def __init__(self, window: int = 64) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self._queue: deque[JobSpec] = deque()
        self.window = window

    def push(self, job: JobSpec) -> None:
        self._queue.append(job)

    def push_front(self, job: JobSpec) -> None:
        self._queue.appendleft(job)

    def __len__(self) -> int:
        return len(self._queue)

    def select(self, can_place: Callable[[JobSpec], bool]) -> Optional[JobSpec]:
        for idx, job in enumerate(self._queue):
            if idx >= self.window:
                break
            if can_place(job):
                del self._queue[idx]
                return job
        return None

    def pending(self) -> list[JobSpec]:
        return list(self._queue)


def make_policy(name: str) -> QueuePolicy:
    """Factory: ``"fifo"`` (default JETS), ``"priority"``, ``"backfill"``."""
    if name == "fifo":
        return FifoPolicy()
    if name == "priority":
        return PriorityPolicy()
    if name == "backfill":
        return BackfillPolicy()
    raise ValueError(f"unknown policy {name!r}")
