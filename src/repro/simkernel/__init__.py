"""Deterministic discrete-event simulation kernel.

The substrate every simulated component (cluster, network, MPI stack, JETS
middleware, Swift engine) is built on.  See :mod:`repro.simkernel.core` for
the scheduler, :mod:`repro.simkernel.resources` for synchronization
primitives, :mod:`repro.simkernel.monitor` for instrumentation, and
:mod:`repro.simkernel.rng` for reproducible random streams.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SchedulingOrder,
    SeededOrder,
    SimulationError,
    Timeout,
)
from .monitor import (
    Counter,
    Gauge,
    Trace,
    TraceRecord,
)
from .resources import (
    FilterStore,
    Request,
    Resource,
    Store,
)
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "FilterStore",
    "Gauge",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "SchedulingOrder",
    "SeededOrder",
    "SimulationError",
    "Store",
    "Timeout",
    "Trace",
    "TraceRecord",
]
