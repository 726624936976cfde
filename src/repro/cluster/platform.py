"""Platform: a runnable instance of a machine.

Assembles everything a simulation run needs from a
:class:`~repro.cluster.machine.MachineSpec`: the DES environment, the
topology, the control fabric and socket network, the shared filesystem,
all compute nodes, and the login host — plus machine-wide instrumentation
(busy-core gauge, trace, RNG streams).
"""

from __future__ import annotations

from typing import Optional

from ..netsim.fabric import Fabric
from ..netsim.sockets import Network
from ..netsim.topology import SwitchedFlat, Topology, Torus3D, torus_dims_for
from ..obs.metrics import Registry
from ..obs.session import active as _active_obs_session
from ..oslayer.filesystem import SharedFilesystem
from ..simkernel import Environment, Gauge, RngRegistry, Trace
from .machine import MachineSpec
from .node import Node

__all__ = ["Platform"]


class Platform:
    """A booted machine: nodes, fabrics, filesystem, instrumentation.

    The login/submit host gets endpoint id ``spec.nodes`` (one past the
    compute nodes), reached through the fabric's external-hop path — on the
    BG/P this models the I/O-node tree between compute nodes and the login
    node that JETS traffic traverses.
    """

    def __init__(
        self,
        spec: MachineSpec,
        env: Optional[Environment] = None,
        seed: int = 0,
    ):
        self.spec = spec
        self.env = env if env is not None else Environment()
        self.rng = RngRegistry(seed)
        # The ambient session builds the trace (bounded or not, with its
        # spill); outside any session it keeps every record in RAM.
        obs = _active_obs_session()
        self.trace = (
            obs.make_trace(self.env) if obs is not None else Trace(self.env)
        )
        self.busy_cores = Gauge(self.env, 0)
        self.metrics = Registry(self.env, self.trace)
        if obs is not None:
            obs.attach(self.trace, label=spec.name, registry=self.metrics)

        if spec.topology == "torus":
            self.topology: Topology = Torus3D(torus_dims_for(spec.nodes))
        else:
            self.topology = SwitchedFlat(spec.nodes)

        self.fabric = Fabric(self.env, spec.fabric_control, self.topology)
        self.fabric_native = Fabric(self.env, spec.fabric_native, self.topology)
        self.network = Network(self.env, self.fabric)

        self.shared_fs = SharedFilesystem(self.env, spec.shared_fs)
        fork_rng = self.rng.stream("fork-jitter")
        self.nodes: list[Node] = [
            Node(
                self.env,
                node_id=i,
                cores=spec.cores_per_node,
                process_costs=spec.process_costs,
                os_config=spec.os_config,
                shared_fs=self.shared_fs,
                busy_gauge=self.busy_cores,
                rng=fork_rng,
            )
            for i in range(spec.nodes)
        ]

    @property
    def login_endpoint(self) -> int:
        """Endpoint id of the login/submit host."""
        return self.spec.nodes

    @property
    def total_cores(self) -> int:
        """Total compute cores on the platform."""
        return self.spec.total_cores

    def node(self, node_id: int) -> Node:
        """Node by id."""
        return self.nodes[node_id]

    def healthy_nodes(self) -> list[Node]:
        """Nodes that have not failed."""
        return [n for n in self.nodes if not n.failed]

    def run(self, until=None):
        """Convenience passthrough to ``env.run``."""
        return self.env.run(until)
