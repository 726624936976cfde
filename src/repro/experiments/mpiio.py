"""A6 — MPI-IO ablation: the §1.2 / §7 collective-I/O experiment.

"Given N MTC processes, the filesystem would be accessed by N clients;
however, for 16-process MPTC tasks using MPI-IO, the number of clients
would be N/16" (§1.2); §7 plans "experiment[s] with MPI-IO from
JETS-initiated MPTC workloads".

This harness runs a 16-rank checkpoint-style workload (many small
per-rank writes) in independent-POSIX and two-phase-collective modes,
sweeping the filesystem's contention coefficient.  It measures the
*crossover*: under mild contention the shuffle costs more than it saves;
as small-access/lock contention grows, aggregation wins decisively.
"""

from __future__ import annotations

import dataclasses

from ..cluster.machine import surveyor
from ..cluster.platform import Platform
from ..mpi.app import RankContext
from ..mpi.comm import SimComm
from ..mpi.io import CollectiveFile, independent_write
from ..oslayer.filesystem import FilesystemSpec
from .common import check, print_rows

__all__ = ["run", "main"]


def _one(alpha: float, mode: str, n: int, nbytes: int, rounds: int, seed: int) -> float:
    fs = FilesystemSpec(
        name="swept",
        metadata_latency=1.5e-3,
        latency=0.8e-3,
        bandwidth=300e6,
        contention_alpha=alpha,
        contention_cap=256.0,
    )
    machine = dataclasses.replace(surveyor(max(16, n)), shared_fs=fs)
    platform = Platform(machine, seed=seed)
    env = platform.env
    comm = SimComm(env, platform.fabric, list(range(n)))
    procs = []

    def body(ctx: RankContext):
        if mode == "collective":
            f = CollectiveFile(ctx, ranks_per_aggregator=16)
            for _ in range(rounds):
                yield from f.write_all(nbytes)
        else:
            for _ in range(rounds):
                yield from independent_write(ctx, nbytes)

    for r in range(n):
        ctx = RankContext(
            env=env, comm=comm, rank=r, size=n,
            node=platform.node(r), job_id="io",
        )
        procs.append(env.process(body(ctx)))
    env.run(env.all_of(procs))
    env.close()  # free the platform before the next point builds one
    return env.now


def run(
    alphas=(0.0, 0.05, 0.2, 0.5, 1.0),
    n: int = 16,
    nbytes: int = 64 << 10,
    rounds: int = 8,
    seed: int = 0,
) -> list[dict]:
    """Sweep contention; report independent vs collective wall time."""
    rows = []
    for alpha in alphas:
        t_ind = _one(alpha, "independent", n, nbytes, rounds, seed)
        t_coll = _one(alpha, "collective", n, nbytes, rounds, seed)
        rows.append(
            {
                "alpha": alpha,
                "independent_s": round(t_ind, 4),
                "collective_s": round(t_coll, 4),
                "speedup": round(t_ind / t_coll, 2),
            }
        )
    return rows


def verify(rows: list[dict]) -> None:
    """Assert the crossover exists and aggregation wins at high contention."""
    check(
        rows[0]["speedup"] < 1.0,
        "with no contention, independent I/O wins (shuffle is pure cost)",
    )
    check(
        rows[-1]["speedup"] > 1.5,
        "under heavy small-access contention, MPI-IO aggregation wins "
        "(the §1.2 claim)",
    )
    speedups = [r["speedup"] for r in rows]
    check(
        all(b >= a - 0.05 for a, b in zip(speedups, speedups[1:])),
        "aggregation's advantage grows with contention",
    )


def main() -> list[dict]:
    rows = run()
    verify(rows)
    print_rows(
        "A6: MPI-IO two-phase collective I/O vs independent writes "
        "(16 ranks, small writes)",
        rows,
        ["alpha", "independent_s", "collective_s", "speedup"],
    )
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
