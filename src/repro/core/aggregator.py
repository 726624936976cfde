"""Worker bookkeeping and node aggregation into MPI-capable groups.

"The JETS mechanism rapidly assembles independent available compute nodes
into parallel jobs, without requiring support for such aggregation in the
underlying resource manager" (Section 2).  This module is that mechanism:
it tracks which pilot workers are ready and picks groups of them for jobs.

Two grouping strategies:

* ``fifo`` — "the default JETS behavior is to group nodes in first come,
  first served order" (Section 6.1.4), "without regard for their relative
  network positions".
* ``topology`` — the Section 7 future-work extension: prefer groups that
  are close on the interconnect (greedy nearest-neighbour on torus hops).
  Compared in the ``abl_grouping`` ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..analysis.schema import WORKER_BUSY, WORKER_IDLE
from ..netsim.topology import Topology
from .tasklist import JobSpec

__all__ = ["WorkerView", "Aggregator"]


@dataclass(slots=True)
class WorkerView:
    """The dispatcher's view of one pilot worker."""

    worker_id: int
    node: Any  # repro.cluster.node.Node (Any avoids an import cycle)
    socket: Any  # dispatcher-side Socket to the worker
    slots: int
    free_slots: int = 0
    alive: bool = True
    last_seen: float = 0.0
    ready_since: float = 0.0
    #: When this worker last gained/returned a slot credit (register,
    #: ready, done, or placement); drives ready-credit reconciliation.
    last_credit: float = 0.0
    running_jobs: set[str] = field(default_factory=set)
    #: Last idle/busy state logged to the trace (dedups transitions).
    obs_state: Optional[str] = None

    @property
    def fully_free(self) -> bool:
        """All slots free — eligible to join an MPI group."""
        return self.alive and self.free_slots == self.slots


class Aggregator:
    """Ready-pool tracking and group selection.

    MPI jobs claim *whole workers* (``job.nodes`` of them, all slots);
    serial jobs claim one slot of any worker.  Selection is O(ready) for
    FIFO and O(ready · group) for topology grouping.
    """

    def __init__(
        self,
        grouping: str = "fifo",
        topology: Optional[Topology] = None,
        trace: Any = None,
    ):
        if grouping not in ("fifo", "topology"):
            raise ValueError(f"unknown grouping {grouping!r}")
        if grouping == "topology" and topology is None:
            raise ValueError("topology grouping requires a topology")
        self.grouping = grouping
        self.topology = topology
        #: Optional Trace for worker idle/busy lifecycle transitions.
        self.trace = trace
        self._workers: dict[int, WorkerView] = {}
        #: FIFO order of workers that became fully free (ids; lazily pruned).
        self._free_order: list[int] = []
        # Incremental aggregates: every WorkerView mutation flows through
        # this class, so ready_workers / free_slot_count — read on every
        # dispatch decision via can_place — stay O(1) instead of scanning
        # the worker table.  _audit() cross-checks them in tests.
        self._ready_count = 0
        self._free_slots_total = 0

    def _transition(self, category: str, view: WorkerView) -> None:
        """Log a worker idle/busy transition; repeats are collapsed.

        A worker is *busy* while it has any running job (one serial slot
        claimed counts) and *idle* when it is alive with none.
        ``category`` is a registry constant (:data:`WORKER_IDLE` /
        :data:`WORKER_BUSY`) so the static trace checker can verify it.
        """
        if self.trace is not None and category != view.obs_state:
            view.obs_state = category
            # Funnel for the two registry constants its callers pass.
            self.trace.log(category, {"worker": view.worker_id})  # repro: noqa[TR004]

    # -- membership -----------------------------------------------------------

    def add_worker(self, view: WorkerView) -> None:
        """Register a newly connected worker (enters with 0 free slots)."""
        if view.worker_id in self._workers:
            raise ValueError(f"duplicate worker id {view.worker_id}")
        self._workers[view.worker_id] = view
        if view.alive:
            self._free_slots_total += view.free_slots
            if view.fully_free:
                self._ready_count += 1

    def remove_worker(self, worker_id: int) -> Optional[WorkerView]:
        """Drop a dead worker from all pools; returns its view if known."""
        view = self._workers.pop(worker_id, None)
        if view is not None:
            if view.alive:
                self._free_slots_total -= view.free_slots
                if view.fully_free:
                    self._ready_count -= 1
            view.alive = False
        return view

    def get(self, worker_id: int) -> Optional[WorkerView]:
        """Lookup a worker view by id."""
        return self._workers.get(worker_id)

    def workers(self) -> list[WorkerView]:
        """All live worker views."""
        return list(self._workers.values())

    # -- readiness -------------------------------------------------------------

    def mark_ready(self, worker_id: int, now: float, all_slots: bool = False) -> None:
        """One slot (or, for whole-node MPI completions, every slot) of
        ``worker_id`` became free."""
        view = self._workers.get(worker_id)
        if view is None or not view.alive:
            return
        was_free = view.fully_free
        old_slots = view.free_slots
        if all_slots:
            view.free_slots = view.slots
        else:
            view.free_slots = min(view.slots, view.free_slots + 1)
        self._free_slots_total += view.free_slots - old_slots
        view.last_seen = now
        if not view.running_jobs:
            self._transition(WORKER_IDLE, view)
        if view.fully_free:
            view.ready_since = now
            if not was_free:
                self._ready_count += 1
                self._free_order.append(worker_id)

    @property
    def ready_workers(self) -> int:
        """Count of fully free workers (O(1), incrementally maintained)."""
        return self._ready_count

    @property
    def free_slot_count(self) -> int:
        """Total free slots across live workers (O(1), incrementally
        maintained)."""
        return self._free_slots_total

    def _audit(self) -> tuple[int, int]:
        """Recount both aggregates by scanning (test cross-check only)."""
        ready = sum(1 for v in self._workers.values() if v.fully_free)
        slots = sum(v.free_slots for v in self._workers.values() if v.alive)
        return ready, slots

    # -- placement ---------------------------------------------------------------

    def can_place(self, job: JobSpec) -> bool:
        """Whether the ready pool can satisfy ``job`` right now."""
        if job.mpi:
            return self.ready_workers >= job.nodes
        return self.free_slot_count >= 1

    def place(self, job: JobSpec) -> list[WorkerView]:
        """Commit workers to ``job``; raises if :meth:`can_place` is False."""
        if not self.can_place(job):
            raise RuntimeError(f"cannot place {job.job_id} now")
        if not job.mpi:
            view = self._first_with_slot()
            if view.fully_free:
                self._ready_count -= 1
            view.free_slots -= 1
            self._free_slots_total -= 1
            view.running_jobs.add(job.job_id)
            self._transition(WORKER_BUSY, view)
            return [view]
        chosen = (
            self._pick_fifo(job.nodes)
            if self.grouping == "fifo"
            else self._pick_topology(job.nodes)
        )
        for view in chosen:
            if view.fully_free:
                self._ready_count -= 1
            self._free_slots_total -= view.free_slots
            view.free_slots = 0
            view.running_jobs.add(job.job_id)
            self._transition(WORKER_BUSY, view)
        return chosen

    def release(self, job_id: str, worker_id: int) -> None:
        """Worker finished its part of job ``job_id`` (readiness arrives
        separately via the worker's own ``ready`` message)."""
        view = self._workers.get(worker_id)
        if view is not None:
            view.running_jobs.discard(job_id)
            if view.alive and not view.running_jobs:
                self._transition(WORKER_IDLE, view)

    # -- selection internals -------------------------------------------------------

    def _prune(self) -> list[WorkerView]:
        """Current fully-free views in FIFO order, compacting stale ids."""
        seen: set[int] = set()
        order: list[int] = []
        views: list[WorkerView] = []
        for wid in self._free_order:
            if wid in seen:
                continue
            view = self._workers.get(wid)
            if view is not None and view.fully_free:
                seen.add(wid)
                order.append(wid)
                views.append(view)
        self._free_order = order
        return views

    def _first_with_slot(self) -> WorkerView:
        # Prefer partially busy workers so fully-free ones stay available
        # for MPI groups (packing heuristic).
        partial = [
            v
            for v in self._workers.values()
            if v.alive and 0 < v.free_slots < v.slots
        ]
        if partial:
            return min(partial, key=lambda v: v.free_slots)
        free = self._prune()
        if not free:
            raise RuntimeError("no free slot")
        return free[0]

    def _pick_fifo(self, k: int) -> list[WorkerView]:
        free = self._prune()
        return free[:k]

    def _pick_topology(self, k: int) -> list[WorkerView]:
        free = self._prune()
        assert self.topology is not None
        if len(free) == k:
            return free
        # Greedy: seed with the longest-waiting worker, then repeatedly add
        # the ready worker closest (total torus hops) to the chosen set.
        chosen = [free[0]]
        candidates = free[1:]
        while len(chosen) < k:
            best = min(
                candidates,
                key=lambda v: sum(
                    self.topology.hops(v.node.endpoint, c.node.endpoint)
                    for c in chosen
                ),
            )
            candidates.remove(best)
            chosen.append(best)
        return chosen

    def group_diameter(self, views: list[WorkerView]) -> int:
        """Max pairwise hop distance of a group (for grouping-quality metrics)."""
        if self.topology is None or len(views) < 2:
            return 0
        return max(
            self.topology.hops(a.node.endpoint, b.node.endpoint)
            for i, a in enumerate(views)
            for b in views[i + 1 :]
        )
