"""A simulation run imports only the modules it executes (DESIGN.md §11).

Every simulator process pays its imports before it simulates anything,
so the run path keeps tools (lint, chaos, exporters, reports, the bench
harness) and ``networkx`` out of its import closure.  The check runs in
a fresh interpreter, because the test process has imported most of the
package already.
"""

import os
import subprocess
import sys

import repro

#: Imports the run-path entry modules, then runs a small serial + MPI
#: batch under a streaming obs session that writes no output.
RUN = """\
import repro.core.jets, repro.core.cli, repro.obs
from repro import Simulation, TaskList
from repro.cluster.machine import generic_cluster
from repro.obs import session
with session(stream=True):
    Simulation(generic_cluster(nodes=2)).run_standalone(
        TaskList.from_text("SERIAL: sleep 1.0\\nMPI: 2 sleep 1.0\\n"))
"""

NOT_ON_RUN_PATH = (
    "networkx",
    "repro.analysis.campaign",
    "repro.analysis.framework",
    "repro.analysis.tracecheck",
    "repro.bench.harness",
    "repro.core.chaos",
    "repro.metrics.stats",
    "repro.metrics.timeline",
    "repro.mpi.io",
    "repro.obs.export",
    "repro.obs.progress",
    "repro.obs.report",
    "repro.obs.spans",
)


#: Layers the Fig. 9 harness never executes: ``mpi_wireup`` imports it
#: alone, so a package ``__init__`` re-exporting its siblings shows here.
NOT_IMPORTED_BY_FIG09 = ("repro.swift", "repro.baselines")


def loaded(code, modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code += (
        "import sys\n"
        f"print(*[m for m in {modules!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.split()


def test_run_path_leaves_tools_unimported():
    assert loaded(RUN, NOT_ON_RUN_PATH) == []


def test_fig09_leaves_swift_and_baselines_unimported():
    code = "import repro.experiments.fig09_bgp\n"
    assert loaded(code, NOT_IMPORTED_BY_FIG09) == []
