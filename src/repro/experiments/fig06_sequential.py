"""Fig. 6 — JETS results for sequential tasks on the BG/P.

Paper: no-op tasks on Surveyor, allocations of increasing size, all four
cores per node used.  "JETS scales well, achieving over 7,000 job launches
per second on the full rack" (1,024 nodes / 4,096 cores).  A single-point
"ideal" measurement shows the local launch bound without communication.
"""

from __future__ import annotations

from ..cluster.machine import surveyor
from ..core.jets import JetsConfig, Simulation, service_config_for
from ..core.tasklist import TaskList
from .common import check, print_rows

__all__ = ["run", "ideal_rate", "PAPER", "main"]

#: Paper reference points (nodes -> approx launches/s, read off Fig. 6).
PAPER = {
    "full_rack_rate": 7000.0,
    "scaling": "launch rate grows with allocation size up to the full rack",
}


def ideal_rate(nodes: int) -> float:
    """The no-communication local launch bound for an allocation.

    All cores fork/exec no-ops back to back: cores / (fork + exit + load).
    """
    spec = surveyor(nodes)
    per_proc = spec.process_costs.fork_exec + spec.process_costs.exit_cost
    return spec.nodes * spec.cores_per_node / per_proc


def run(
    node_sizes=(64, 256, 512, 1024),
    tasks_per_node: int = 16,
    seed: int = 0,
    journal_path=None,
) -> list[dict]:
    """Measure sequential no-op launch rate per allocation size.

    ``journal_path`` turns the write-ahead run journal on (one segment
    per allocation size appended to the same file) — the bench suite's
    ``fig06_journal`` workload uses it to price journaling overhead
    against the journal-off ``fig06_rate`` twin.
    """
    rows = []
    for i, nodes in enumerate(node_sizes):
        machine = surveyor(nodes)
        sim = Simulation(
            machine,
            JetsConfig(service=service_config_for(machine)),
            seed=seed,
        )
        tasks = TaskList.from_lines(["SERIAL: noop"] * (nodes * tasks_per_node))
        journal = None
        if journal_path is not None:
            from ..core.journal import RunJournal

            journal = RunJournal(journal_path, segment=i, append=i > 0)
        report = sim.run_standalone(tasks, journal=journal)
        rows.append(
            {
                "nodes": nodes,
                "cores": nodes * machine.cores_per_node,
                "rate": round(report.task_rate, 1),
                "ideal": round(ideal_rate(nodes), 1),
                "completed": report.jobs_completed,
            }
        )
        # Free this point's platform before the next one is built.
        del report
    return rows


def verify(rows: list[dict]) -> None:
    """Assert the paper's qualitative claims."""
    rates = [r["rate"] for r in rows]
    check(
        all(b > a for a, b in zip(rates, rates[1:])),
        "launch rate increases with allocation size (Fig. 6)",
    )
    biggest = rows[-1]
    if biggest["nodes"] >= 1024:
        check(
            biggest["rate"] > 4000,
            "full-rack launch rate is in the multi-thousand/s regime "
            f"(paper ~7,000/s; measured {biggest['rate']})",
        )
    check(
        all(r["rate"] <= r["ideal"] * 1.05 for r in rows),
        "JETS rate does not exceed the local-launch ideal bound",
    )


def main() -> list[dict]:
    """Paper-scale run with printed table."""
    rows = run()
    verify(rows)
    print_rows(
        "Fig. 6: sequential task launch rate on BG/P (jobs/s)",
        rows,
        ["nodes", "cores", "rate", "ideal", "completed"],
    )
    print(f"paper reference: ~{PAPER['full_rack_rate']:.0f}/s on the full rack")
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
