"""Experiment harnesses: one module per paper figure, plus ablations.

Each module exposes ``run(...)`` (rows at configurable scale), ``verify``
(the paper's qualitative claims as assertions), ``PAPER`` reference values,
and ``main()`` for a paper-scale run with a printed table.  The
``benchmarks/`` directory wraps these in pytest-benchmark targets.

The package re-exports nothing (DESIGN.md §11): import the harness you
run, ``from repro.experiments import fig09_bgp``, and only it loads.
"""
