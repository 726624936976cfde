"""Performance measurement for the JETS reproduction (``jets bench``).

JETS' whole point is throughput: the paper's Fig. 6 plateau is set by
per-operation dispatcher cost.  This package measures the simulator's
own speed where ``e2ebench/`` does not:

* :mod:`.workloads` — named workload suites.  ``kernel``
  microbenchmarks isolate the simulator's hot paths; ``macro`` holds
  the journaling pair (Fig. 6 with the journal off and on) and the
  ``jobs_1m`` stream under its RSS budget.
* :mod:`.harness` — the measurement core: wall time over alternating
  rounds, kernel events/sec and peak RSS; ``BENCH_<suite>.json``; the
  A/B against a base tree measured in the same session; the
  ``--profile`` pass that feeds perf-lint.
* :mod:`.cli` — the ``jets bench`` subcommand.

Benchmark workloads intentionally read the wall clock — they measure it.
Every such call site carries a ``# repro: noqa[DT001]`` marker so the
determinism linter keeps protecting the simulation code proper.
"""
