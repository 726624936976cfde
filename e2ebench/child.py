"""One measured process of one workload, in a fresh interpreter.

``run.py`` spawns this script a few times per run with ``PYTHONPATH``
pointing at the tree under test:

    python3 e2ebench/child.py WORKLOAD SEED SIZE WORKDIR DEADLINE [--profile]

The child first sets up: it imports the simulator and runs one warm-up
batch of the workload's tiny size, which also fills whatever the
simulator initialises lazily.  It then runs full-size batches, one after
another, while the next one is expected to end before ``DEADLINE`` (a
``time.monotonic()`` value); it always runs at least one.  Before each
batch it collects garbage, restarts the simulator's process-global id
sequences, so every batch starts as it would in a fresh process and
must give the same outputs, and times the reference loop
(``reference.py``) that gauges the host's current speed; it times the
loop once more after the last batch.

It prints one JSON object: the ``time.monotonic()`` stamp of the end of
set-up (the parent, which stamped the spawn, turns it into ``setup_s``),
each batch's host seconds, reference-loop seconds and job accounting,
the first batch's outputs and counters, and the process's peak RSS
after that first batch.  With ``--profile`` the whole child, imports and
warm-up included, runs under cProfile for exactly one batch and no
reference loop, and the result adds the per-layer cost table.
"""

import gc
import itertools
import json
import os
import resource
import sys
import time


def _restart_sequences() -> None:
    """Restart every ``itertools.count`` held by a ``repro`` module.

    Job, worker and MPI job ids come from such process-global sequences;
    each starts at 0, as it does in a fresh interpreter.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, itertools.count):
                    setattr(module, attr, itertools.count())


def _import_all() -> None:
    """Import every ``repro`` module the workload did not load.

    Runs after the batch, still under the profiler, so a layer the
    workload never touches reports its import cost rather than nothing.
    """
    import importlib

    import layers
    import repro

    for module in layers.repro_modules(os.path.dirname(repro.__file__)):
        importlib.import_module(module)


def main(argv: list) -> int:
    name, seed, size, workdir = argv[0], int(argv[1]), int(argv[2]), argv[3]
    deadline = float(argv[4])
    profile = None
    if "--profile" in argv[5:]:
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
    import reference
    import workloads

    run = workloads.WORKLOADS[name]
    run(seed, workloads.TINY[name], workdir)
    t_ready = time.monotonic()

    first = None
    batches = []
    peak_rss_mb = 0.0
    while True:
        _restart_sequences()
        gc.collect()
        ref_s = reference.timed() if profile is None else None
        t0 = time.monotonic()
        result = run(seed, size, workdir)
        elapsed = time.monotonic() - t0
        if first is None:
            first = result
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        batches.append({
            "s": elapsed,
            "ref_s": ref_s,
            "ok": result["ok"],
            "failed_ops": result["failed_ops"],
            "same": result["outputs"] == first["outputs"],
        })
        if profile is not None:
            break
        typical = sorted(b["s"] + b["ref_s"] for b in batches)[
            len(batches) // 2]
        if time.monotonic() + typical > deadline:
            break
    tail_ref_s = reference.timed() if profile is None else None
    if profile is not None:
        _import_all()
        profile.disable()

    out = {key: first[key] for key in (
        "jobs", "events", "records", "spill_bytes", "journal_records",
        "outputs",
    )}
    out.update(t_ready=t_ready, batches=batches, tail_ref_s=tail_ref_s,
               peak_rss_mb=peak_rss_mb)
    if profile is not None:
        import pstats

        import layers
        import repro

        stats = pstats.Stats(profile).stats
        repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
        out["profile"] = layers.attribute(stats, repro_dir)
        out["profile"]["counts"] = layers.call_counts(stats)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
