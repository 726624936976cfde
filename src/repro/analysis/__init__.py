"""Static and runtime invariant checking for the reproduction.

The evaluation pipeline rests on two promises nothing else enforces:
every metric is derived from well-formed trace records (paper Section
6.1.5), and two runs with the same seed produce identical traces
(:mod:`repro.simkernel.core`).  This package makes both checkable:

* :mod:`.schema` — the central registry of legal trace categories and
  their payload keys.
* :mod:`.lifecycle` — declarative job/worker/proxy state machines
  (shared with :mod:`repro.obs.spans`).
* :mod:`.framework` — a pluggable AST lint framework with
  ``# repro: noqa[RULE]`` suppressions.
* :mod:`.trace_rules`, :mod:`.determinism_rules`,
  :mod:`.simkernel_rules` — the repo-specific rule sets (TR*, DT*, SK*).
* :mod:`.protocol` — the declarative wire-protocol registry (message
  kinds, payload shapes, sizes, per-channel session machines).
* :mod:`.protocol_rules` — static conformance rules over send/handle
  sites (PR*).
* :mod:`.tracecheck` — runtime validation of recorded runs (TV*).
* :mod:`.explore` — bounded schedule exploration (``jets explore``).
* :mod:`.cli` — the ``jets lint`` / ``jets lint-trace`` subcommands.
"""
