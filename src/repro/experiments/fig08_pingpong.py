"""Fig. 8 — MPI messaging performance on the BG/P.

Paper: two-node ping-pong, "native" mode (vendor stack, default kernel) vs
"MPICH/sockets" (MPICH2 over the ZeptoOS TCP layer).  "Using MPICH2 as we
do results in much higher latency for small messages and slightly slower
bandwidth for large messages."
"""

from __future__ import annotations

from typing import Generator

from ..cluster.machine import surveyor
from ..cluster.platform import Platform
from ..mpi.comm import SimComm
from .common import check, print_rows

__all__ = ["run", "PAPER", "main"]

PAPER = {
    "claim": "TCP latency ≫ native at small sizes; bandwidth mildly lower",
    "native_latency_us": 3.5,
    "tcp_latency_us": 250.0,
}


def _pingpong(platform: Platform, comm: SimComm, nbytes: int, reps: int) -> float:
    """One-way time measured like the paper: MPI_Wtime around the loop."""
    env = platform.env
    t0 = env.now
    box = {}

    def rank0() -> Generator:
        for r in range(reps):
            yield from comm.send(0, 1, None, nbytes, tag=("pp", r))
            yield from comm.recv(0, source=1, tag=("pp", r))
        box["t"] = env.now - t0

    def rank1() -> Generator:
        for r in range(reps):
            yield from comm.recv(1, source=0, tag=("pp", r))
            yield from comm.send(1, 0, None, nbytes, tag=("pp", r))

    p0 = env.process(rank0())
    env.process(rank1())
    env.run(p0)
    return box["t"] / (2 * reps)


def run(sizes=None, reps: int = 10, seed: int = 0) -> list[dict]:
    """One-way latency/bandwidth per message size for both fabrics."""
    sizes = sizes or [1, 64, 1024, 16 << 10, 256 << 10, 1 << 20, 4 << 20]
    rows = []
    for nbytes in sizes:
        row = {"nbytes": nbytes}
        for label in ("native", "tcp"):
            platform = Platform(surveyor(8), seed=seed)
            fabric = (
                platform.fabric_native if label == "native" else platform.fabric
            )
            comm = SimComm(platform.env, fabric, [0, 1])
            one_way = _pingpong(platform, comm, nbytes, reps)
            # End the run and free its platform before the next is built.
            platform.env.close()
            del platform, fabric, comm
            row[f"{label}_us"] = round(one_way * 1e6, 2)
            row[f"{label}_MBps"] = (
                round(nbytes / one_way / 1e6, 1) if nbytes >= 1024 else ""
            )
        rows.append(row)
    return rows


def verify(rows: list[dict]) -> None:
    """Assert the paper's qualitative claims."""
    small = rows[0]
    check(
        small["tcp_us"] > 10 * small["native_us"],
        "TCP small-message latency is an order of magnitude above native "
        "(Fig. 8)",
    )
    big = rows[-1]
    check(
        big["native_MBps"] > big["tcp_MBps"] > 0.4 * big["native_MBps"],
        "large-message bandwidth: native faster, TCP within the same "
        "order (Fig. 8: 'slightly slower bandwidth')",
    )


def main() -> list[dict]:
    rows = run()
    verify(rows)
    print_rows(
        "Fig. 8: BG/P ping-pong, native vs MPICH/sockets (one-way)",
        rows,
        ["nbytes", "native_us", "tcp_us", "native_MBps", "tcp_MBps"],
    )
    return rows


if __name__ == "__main__":
    from .common import obs_main

    obs_main(main)
