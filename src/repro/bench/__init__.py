"""Performance measurement for the JETS reproduction (``jets bench``).

JETS' whole point is throughput: the paper's Fig. 6 plateau is set by
per-operation dispatcher cost, and the ROADMAP's "as fast as the hardware
allows" is unfalsifiable without a wall-clock trajectory.  This package
is that trajectory:

* :mod:`.workloads` — named workload suites.  ``kernel`` microbenchmarks
  isolate the simulator's hot paths (event churn, timeout storms,
  interrupt storms, trace queries, aggregator scans, gauge integrals);
  ``macro`` runs reduced cuts of the paper experiments end to end
  (Fig. 6 sequential rate, Fig. 9 512-node MPI, a chaos mix, an explore
  slice).
* :mod:`.harness` — the measurement core: wall time, kernel events/sec,
  peak RSS, and allocation stats via ``tracemalloc``; JSON emission
  (``BENCH_kernel.json`` / ``BENCH_macro.json``) and baseline
  comparison with regression gating.
* :mod:`.cli` — the ``jets bench`` subcommand.

Benchmark workloads intentionally read the wall clock — they measure it.
Every such call site carries a ``# repro: noqa[DT001]`` marker so the
determinism linter keeps protecting the simulation code proper.
"""
