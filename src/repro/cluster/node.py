"""Compute nodes: cores, local RAM FS, process execution.

A :class:`Node` owns a :class:`~repro.simkernel.Resource` of cores and a
:class:`~repro.oslayer.LocalRamFS`.  ``exec_process`` is the single entry
point through which every simulated user process (worker agents, Hydra
proxies, application ranks) starts: it claims a core, pays the fork/exec
and image-load costs, runs the body, and releases the core — updating the
platform-wide busy-core gauge used for the paper's load-level plots.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

import numpy as np

from ..oslayer.filesystem import LocalRamFS, SharedFilesystem
from ..oslayer.process import ExecutableImage, ProcessCostSpec, load_executable
from ..oslayer.zeptoos import ZeptoConfig
from ..simkernel import Environment, Gauge, Resource, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .platform import Platform

__all__ = ["Node"]


class Node:
    """One compute node of the simulated machine."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        cores: int,
        process_costs: ProcessCostSpec,
        os_config: ZeptoConfig,
        shared_fs: Optional[SharedFilesystem],
        busy_gauge: Optional[Gauge] = None,
        rng=None,
    ):
        self.env = env
        self.node_id = node_id
        self.cores = Resource(env, cores)
        self.n_cores = cores
        self.process_costs = process_costs
        self.os_config = os_config
        self.shared_fs = shared_fs
        self.ramfs = LocalRamFS(env)
        self._rng = rng
        self._busy_gauge = busy_gauge
        #: Set by the fault injector: a failed node stops making progress.
        self.failed = False
        #: Straggler factor: compute timeouts run through
        #: :meth:`run_scaled` take ``slowdown`` times as long while > 1.
        self.slowdown = 1.0
        #: Count of processes started on this node (reports/tests).
        self.processes_started = 0

    @property
    def endpoint(self) -> int:
        """Network endpoint id of this node (== node id)."""
        return self.node_id

    @property
    def busy_cores(self) -> int:
        """Cores currently claimed by running processes."""
        return self.cores.count

    def exec_process(
        self,
        image: ExecutableImage,
        body: Optional[Callable[[], Generator]] = None,
        count_busy: bool = True,
        claim_core: bool = True,
    ) -> Generator:
        """Run a process on this node (sim-process generator).

        Claims a core, pays fork/exec plus executable load, then runs the
        optional ``body`` generator, then pays exit cost and releases the
        core.  Returns the body's return value.

        Args:
            image: executable to load (RAM FS if staged, else shared FS).
            body: generator factory run while the process is alive.
            count_busy: whether this process counts toward the busy-core
                gauge (worker agents idle-waiting do not).
            claim_core: lightweight daemons (pilot worker agents, Hydra
                proxies) run mostly blocked on I/O and do not occupy a
                core slot; user ranks do.
        """
        if self.failed:
            raise RuntimeError(f"node {self.node_id} has failed")
        req = None
        if claim_core:
            req = self.cores.request()
            yield req
        if count_busy and self._busy_gauge is not None:
            self._busy_gauge.add(1)
        closing = False
        try:
            self.processes_started += 1
            fork = self.process_costs.fork_exec
            if self._rng is not None and self.process_costs.fork_jitter > 0:
                fork *= float(
                    np.exp(self._rng.normal(0.0, self.process_costs.fork_jitter))
                )
            yield self.env.timeout(fork)
            yield from load_executable(self, image)
            result: Any = None
            if body is not None:
                result = yield from body()
            if self.process_costs.exit_cost:
                yield self.env.timeout(self.process_costs.exit_cost)
            return result
        except GeneratorExit:
            # Environment.close() at teardown: the busy-core gauge and the
            # core grants stay as the run left them.
            closing = True
            raise
        finally:
            if not closing:
                if count_busy and self._busy_gauge is not None:
                    self._busy_gauge.add(-1)
                if req is not None:
                    self.cores.release(req)

    def run_scaled(self, gen: Generator) -> Generator:
        """Delegate to ``gen``, stretching its compute by :attr:`slowdown`.

        Application bodies (serial tasks, MPI ranks) run through this so a
        straggler fault can rate-scale their compute: every plain
        :class:`~repro.simkernel.Timeout` the body yields is replaced by
        one ``slowdown`` times as long, sampled at the moment the body
        yields it (a mid-task slowdown change applies from the next
        compute step on).  Non-timeout events — communication, barriers,
        resource waits — pass through untouched, and at the default
        ``slowdown == 1.0`` the delegation is observably identical to
        ``yield from gen``.
        """
        try:
            ev = gen.send(None)
        except StopIteration as stop:
            return stop.value
        while True:
            factor = self.slowdown
            if factor != 1.0 and isinstance(ev, Timeout) and ev.delay > 0:
                # The original timeout still fires on schedule but nobody
                # waits on it; the body's progress tracks the stretched one.
                ev = self.env.timeout(ev.delay * factor)
            try:
                value = yield ev
            except BaseException as exc:  # Interrupt / failed-event path
                try:
                    ev = gen.throw(exc)
                except StopIteration as stop:
                    return stop.value
                continue
            try:
                ev = gen.send(value)
            except StopIteration as stop:
                return stop.value

    def stage(self, image: ExecutableImage) -> None:
        """Instantly register an image (and its libraries) in the RAM FS.

        Used by tests; the timed staging path is
        :meth:`repro.core.staging.StagingManager.stage_to`.
        """
        for item in (image, *image.libraries):
            self.ramfs.store(item.name, item.nbytes)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} cores={self.n_cores}>"
