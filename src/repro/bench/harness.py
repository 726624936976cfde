"""Measurement core for ``jets bench``.

A repeat is one round over the selected workloads, each timed once by
the wall clock alone; the order alternates every round, so host drift
lands on each workload alike.  A workload reports the minimum wall time
of its rounds and their median.  Peak RSS comes from ``getrusage`` and
is a process-wide high-water mark, read after a workload's first round:
workloads early in a suite report their own footprint, later ones the
running maximum.

The JSON layout (one file per suite, ``BENCH_<suite>.json``)::

    {"schema": 1, "suite": "kernel", "quick": false, "repeats": 5,
     "python": "3.11.7",
     "results": {"timeout_storm": {
         "wall_s": 0.131, "wall_median_s": 0.139, "events": 91800,
         "events_per_s": 700763.4, "sim_s": 300.0, "peak_rss_kb": 31520,
         "meta": {...workload parameters...}}, ...},
     "baseline": {"source": "/tmp/base/src", "wall_s": {...}},
     "speedup": {"timeout_storm": 1.02, ...}}

``baseline``/``speedup`` appear when the run was an A/B against a base
tree (``jets bench --against SRC``, :func:`run_ab`): ``baseline`` holds
the base's minimum walls, and ``speedup`` is ``base_wall / new_wall``
per workload, so values above 1 are improvements.  Comparison fails a
workload when its wall time regresses by more than the threshold, or
when its (deterministic) kernel event count grows beyond a small
tolerance.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import repro

from .workloads import SUITES, Workload

__all__ = [
    "BenchResult", "SuiteRun", "Comparison", "run_workload", "run_suite",
    "run_ab", "write_suite", "compare_runs", "profile_workload",
    "profile_suite", "write_profile",
]

#: JSON schema version of the BENCH files.
SCHEMA = 1

#: Deterministic event counts may grow by at most this factor before the
#: comparison flags a regression (guards against accidental event churn).
EVENT_GROWTH_TOLERANCE = 1.05


@dataclass
class BenchResult:
    """One workload's measurements."""

    name: str
    wall_s: float
    #: Median wall across the timed repeats (equals ``wall_s`` for a
    #: single repeat); the min/median pair shows both the noise floor
    #: and the typical cost.
    wall_median_s: Optional[float] = None
    events: Optional[int] = None
    sim_s: Optional[float] = None
    peak_rss_kb: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def events_per_s(self) -> Optional[float]:
        """Kernel events per second of ``wall_s``."""
        if self.events and self.wall_s > 0:
            return self.events / self.wall_s
        return None

    def to_json(self) -> dict:
        out: dict = {"wall_s": round(self.wall_s, 6)}
        if self.wall_median_s is not None:
            out["wall_median_s"] = round(self.wall_median_s, 6)
        if self.events is not None:
            out["events"] = self.events
            out["events_per_s"] = round(self.events_per_s or 0.0, 1)
        if self.sim_s is not None:
            out["sim_s"] = round(self.sim_s, 6)
        out["peak_rss_kb"] = self.peak_rss_kb
        if self.meta:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, name: str, entry: dict) -> "BenchResult":
        """One entry of a BENCH file's ``results``; other keys ignored."""
        return cls(
            name, entry["wall_s"], events=entry.get("events"),
            sim_s=entry.get("sim_s"), peak_rss_kb=entry["peak_rss_kb"],
            meta=entry.get("meta", {}),
        )


@dataclass
class SuiteRun:
    """All results of one suite execution."""

    suite: str
    quick: bool
    results: list[BenchResult] = field(default_factory=list)
    #: Timed rounds over the suite (wall_s is each workload's minimum).
    repeats: int = 1

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "quick": self.quick,
            "repeats": self.repeats,
            "python": sys.version.split()[0],
            "results": {r.name: r.to_json() for r in self.results},
        }


def _select(suite: str, only: Optional[list[str]] = None) -> list[Workload]:
    """A suite's workloads in declaration order, restricted to ``only``.

    Raises KeyError naming an unknown suite or workload.
    """
    workloads = SUITES.get(suite)
    if workloads is None:
        raise KeyError(f"unknown bench suite {suite!r}")
    if only:
        names = {wl.name for wl in workloads}
        unknown = [n for n in only if n not in names]
        if unknown:
            raise KeyError(
                f"unknown workload(s) in suite {suite!r}: "
                + ", ".join(sorted(unknown))
            )
        workloads = [wl for wl in workloads if wl.name in set(only)]
    return workloads


def run_workload(workload: Workload, quick: bool = False) -> BenchResult:
    """Time one call of a workload.

    The dict it returns gives ``events`` and ``sim_s``; its other keys
    become ``meta``.
    """
    t0 = time.perf_counter()  # repro: noqa[DT001]
    out = workload.fn(quick) or {}
    wall = time.perf_counter() - t0  # repro: noqa[DT001]
    return BenchResult(
        name=workload.name,
        wall_s=wall,
        events=out.pop("events", None),
        sim_s=out.pop("sim_s", None),
        # The process high-water mark; ru_maxrss is in KB on Linux.
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        meta=out,
    )


def _fold(rounds: list[BenchResult]) -> BenchResult:
    """One workload's rounds as one result.

    The *minimum* wall is ``wall_s``: interference can only slow a run
    down, so the minimum is the best estimate of the true cost.  The
    median is ``wall_median_s``, the typical cost under the host's
    noise.  Outputs are deterministic, so the last round's stand for
    all; peak RSS is the first round's.
    """
    return replace(
        rounds[-1],
        wall_s=min(r.wall_s for r in rounds),
        wall_median_s=statistics.median(r.wall_s for r in rounds),
        peak_rss_kb=rounds[0].peak_rss_kb,
    )


def run_suite(
    suite: str,
    quick: bool = False,
    repeats: int = 1,
    only: Optional[list[str]] = None,
) -> SuiteRun:
    """Run ``repeats`` rounds over a suite's workloads (``only`` those).

    Round 1 runs them in declaration order, and each later round in the
    reverse order of the one before.  ``only`` lets the memory-budget CI
    job keep peak RSS (a process-wide high-water mark) to one workload.
    """
    workloads = _select(suite, only)
    rounds: dict[str, list[BenchResult]] = {wl.name: [] for wl in workloads}
    for r in range(repeats):
        for wl in workloads[::-1] if r % 2 else workloads:
            rounds[wl.name].append(run_workload(wl, quick))
    return SuiteRun(suite, quick, repeats=repeats, results=[
        _fold(rounds[wl.name]) for wl in workloads
    ])


def _child(src: str, suite: str, quick: bool, only, tmp: str) -> dict:
    """One round of ``jets bench`` in a fresh interpreter on tree ``src``;
    the ``results`` of the BENCH file it writes.

    The child gets only ``--suite``, ``--repeat``, ``--out-dir``,
    ``--quick`` and ``--only``, which older trees accept too, and runs
    in ``tmp`` so that the working directory shadows no ``repro``
    package.
    """
    cmd = [
        sys.executable, "-m", "repro.core.cli", "bench", "--suite", suite,
        "--repeat", "1", "--out-dir", tmp,
    ]
    if quick:
        cmd.append("--quick")
    for name in only or ():
        cmd += ["--only", name]
    proc = subprocess.run(
        cmd, cwd=tmp, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"jets bench on {src} exited {proc.returncode}: "
            + proc.stderr.strip()
        )
    with open(os.path.join(tmp, f"BENCH_{suite}.json")) as fh:
        return json.load(fh)["results"]


def run_ab(
    suite: str,
    against: str,
    quick: bool = False,
    repeats: int = 1,
    only: Optional[list[str]] = None,
    progress=None,
) -> tuple[SuiteRun, dict]:
    """A/B a suite against the base tree ``against`` (a ``src`` dir).

    Each of ``repeats`` rounds runs :func:`_child` once on the base and
    once on this tree, alternating which goes first, so both sides see
    the same host and one timing path (:func:`run_workload` in each
    child).  Returns this tree's run and the base's document, each
    workload folded over its rounds as :func:`run_suite` folds them, for
    :func:`compare_runs` to judge.  ``progress(round, walls)`` gets each
    round's ``(side, summed wall)`` pairs in running order.
    """
    _select(suite, only)
    here = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    trees = {"base": os.path.abspath(against), "this": here}
    rounds: dict[str, list[dict]] = {"base": [], "this": []}
    with tempfile.TemporaryDirectory(prefix="jets-bench-") as tmp:
        for r in range(repeats):
            walls = []
            for side in ("this", "base") if r % 2 else ("base", "this"):
                results = _child(trees[side], suite, quick, only, tmp)
                rounds[side].append(results)
                walls.append(
                    (side, sum(e["wall_s"] for e in results.values()))
                )
            if progress is not None:
                progress(r, walls)

    def folded(side: str) -> SuiteRun:
        docs = rounds[side]
        return SuiteRun(suite, quick, repeats=repeats, results=[
            _fold([BenchResult.from_json(name, doc[name]) for doc in docs])
            for name in docs[0]
        ])

    return folded("this"), folded("base").to_json()


def write_suite(
    run: SuiteRun,
    path: str,
    baseline: Optional[dict] = None,
    baseline_source: str = "",
) -> dict:
    """Write a suite's JSON file (with speedups when a baseline is given)."""
    doc = run.to_json()
    if baseline is not None:
        base_walls = {
            name: entry["wall_s"]
            for name, entry in baseline["results"].items()
        }
        doc["baseline"] = {"source": baseline_source, "wall_s": base_walls}
        doc["speedup"] = {
            r.name: round(base_walls[r.name] / r.wall_s, 3)
            for r in run.results
            if r.name in base_walls and r.wall_s > 0
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


@dataclass
class Comparison:
    """Outcome of comparing this tree's run against the base's."""

    #: workload -> (baseline wall, new wall, speedup)
    walls: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    regressions: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_runs(
    run: SuiteRun, baseline: dict, threshold_pct: float = 25.0
) -> Comparison:
    """Flag workloads that regressed versus a baseline document.

    A workload regresses when its wall time exceeds the baseline by more
    than ``threshold_pct`` percent, or when its deterministic kernel
    event count grew beyond :data:`EVENT_GROWTH_TOLERANCE`.  Workloads
    whose parameters differ from the baseline (a change that resized a
    workload) are skipped, not compared — as is any workload present on
    only one side (a fresh workload has no baseline yet; a retired one
    no fresh run), so an A/B across a change that adds or retires a
    workload notes it instead of failing.
    """
    cmp = Comparison()
    skipped, regressions = cmp.skipped, cmp.regressions
    base_results = baseline.get("results", {})
    for result in run.results:
        base = base_results.get(result.name)
        if base is None:
            skipped.append(f"{result.name}: not in baseline")
            continue
        if base.get("meta") and result.meta and base["meta"] != result.meta:
            skipped.append(
                f"{result.name}: parameters differ from baseline"
            )
            continue
        old_wall = base.get("wall_s")
        if old_wall:
            speedup = old_wall / result.wall_s if result.wall_s > 0 else 0.0
            cmp.walls[result.name] = (old_wall, result.wall_s, speedup)
            if result.wall_s > old_wall * (1.0 + threshold_pct / 100.0):
                regressions.append(
                    f"{result.name}: wall {result.wall_s:.3f}s vs baseline "
                    f"{old_wall:.3f}s (> {threshold_pct:.0f}% slower)"
                )
        old_events = base.get("events")
        if old_events and result.events:
            if result.events > old_events * EVENT_GROWTH_TOLERANCE:
                regressions.append(
                    f"{result.name}: kernel events {result.events} vs "
                    f"baseline {old_events} (deterministic count grew "
                    f"> {(EVENT_GROWTH_TOLERANCE - 1) * 100:.0f}%)"
                )
    fresh_names = {result.name for result in run.results}
    for name in base_results:
        if name not in fresh_names:
            skipped.append(f"{name}: in baseline only (not in this run)")
    return cmp


# -- profiling pass (jets bench --profile) --------------------------------
#
# Run *after* (and separately from) the timed pass: cProfile's tracing
# overhead would contaminate wall times, so profiled numbers never enter
# BENCH_<suite>.json.  The output feeds
# ``jets lint --hot-profile`` / ``jets hotpath --hot-profile``: the
# top-N cumulative-time functions join the statically computed hot set.

#: Per-file lineno -> qualname tables, parsed lazily from source.
_QUALNAME_CACHE: dict[str, dict[int, str]] = {}


def _qualnames_for(path: str) -> dict[int, str]:
    """Map function-def line numbers to dotted qualnames for one file.

    cProfile keys stats by ``(filename, lineno, co_name)``; ``co_name``
    is the bare name, so ``step`` could be anything.  Re-parsing the
    source recovers the stable ``Class.method`` qualname at that line.
    """
    import ast

    cached = _QUALNAME_CACHE.get(path)
    if cached is not None:
        return cached
    table: dict[int, str] = {}
    try:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
    except (OSError, SyntaxError):
        _QUALNAME_CACHE[path] = table
        return table

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table[child.lineno] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    _QUALNAME_CACHE[path] = table
    return table


def function_id(filename: str, lineno: int, funcname: str) -> str:
    """Stable ``module:qualname`` id for one profiled frame."""
    from ..analysis.callgraph import module_name_for

    qual = _qualnames_for(filename).get(lineno, funcname)
    return f"{module_name_for(filename)}:{qual}"


def profile_workload(
    workload: Workload, quick: bool = False, top: int = 25
) -> list[dict]:
    """cProfile one workload; the top-N project frames by cumtime.

    Frames outside the ``repro`` package (stdlib, site-packages) are
    dropped: the hot-profile consumer only escalates lint severity on
    project functions, and filtering here keeps the JSON small and the
    ids resolvable against the call graph.
    """
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        workload.fn(quick)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats  # type: ignore[attr-defined]
    marker = f"{os.sep}repro{os.sep}"
    entries: list[dict] = []
    for (filename, lineno, funcname), row in stats.items():
        if marker not in filename:
            continue
        _cc, ncalls, tottime, cumtime, _callers = row
        entries.append({
            "id": function_id(filename, lineno, funcname),
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
    entries.sort(key=lambda e: (-e["cumtime"], e["id"]))
    return entries[:top]


def profile_suite(
    suite: str,
    quick: bool = False,
    top: int = 25,
    only: Optional[list[str]] = None,
) -> dict[str, list[dict]]:
    """Profile every workload of a suite; workload name -> top frames."""
    return {
        wl.name: profile_workload(wl, quick=quick, top=top)
        for wl in _select(suite, only)
    }


def write_profile(
    workloads: dict[str, list[dict]],
    path: str,
    quick: bool = False,
    top: int = 25,
) -> dict:
    """Write ``BENCH_profile.json`` in the layout ``load_profile`` reads."""
    doc = {
        "schema": SCHEMA,
        "kind": "profile",
        "quick": quick,
        "top": top,
        "python": sys.version.split()[0],
        "workloads": workloads,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc
