"""Observability: lifecycle spans, metrics registry, exporters, reports.

The measurement substrate for the whole reproduction (paper Section
6.1.5: every reported result derives from worker/task start/stop
instrumentation).  Four pieces:

* :mod:`repro.obs.spans` — typed job/worker/proxy lifecycle spans
  reconstructed from trace records.
* :mod:`repro.obs.metrics` — named counters, time-weighted gauges and
  quantile histograms components register into.
* :mod:`repro.obs.export` — JSONL trace dump/reload and Chrome
  ``trace_event`` output (Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.report` — plain-text run summaries (throughput,
  utilization, per-stage latency quantiles, fault counts).

:mod:`repro.obs.session` ties them to the CLIs: ``with
obs.session(trace_out="run.jsonl", report=True):`` captures every
platform built inside the block and exports on exit.  The package
re-exports only the session API: the other modules are imported by the
code that uses them, so a run that exports nothing never loads the
exporters (DESIGN.md §11).
"""

from .session import ObsSession, active, session

__all__ = ["ObsSession", "active", "session"]
