"""The ``jets bench`` subcommand.

Runs one or both workload suites, prints a result table, writes
``BENCH_<suite>.json`` files, and (with ``--against``) runs an A/B
against a base tree in the same session, gating on regression::

    jets bench                      # full kernel + macro suites
    jets bench --suite kernel       # one suite
    jets bench --quick              # reduced sizes
    mkdir -p /tmp/base && git archive HEAD^ src | tar -x -C /tmp/base
    jets bench --suite kernel --repeat 5 --against /tmp/base/src

Exit codes: 0 ok, 1 regression detected, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .harness import (
    BenchResult,
    compare_runs,
    profile_suite,
    run_ab,
    run_suite,
    write_profile,
    write_suite,
)
from .workloads import SUITES

__all__ = ["bench_main", "build_bench_parser"]


def build_bench_parser() -> argparse.ArgumentParser:
    """Parser for ``jets bench``."""
    parser = argparse.ArgumentParser(
        prog="jets bench",
        description="Run the performance workload suites and emit "
        "BENCH_<suite>.json.",
    )
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES) + ["all"],
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced iteration counts",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="where to write BENCH_<suite>.json (default: cwd)",
    )
    parser.add_argument(
        "--against",
        default=None,
        metavar="SRC",
        help="A/B against the base tree's src directory (e.g. from "
        "`git archive HEAD^ src`): each round runs the base and this "
        "tree as fresh `jets bench --repeat 1` children, alternating "
        "which goes first; fail on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="wall-time regression tolerance in percent (default: 25)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="timed rounds over the suite, alternating the order; each "
        "workload reports its minimum wall time (default: 1)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named workload(s) of the selected suite "
        "(repeatable); keeps process-wide peak RSS attributable",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after the timed pass, run each workload once more under "
        "cProfile and write BENCH_profile.json (top-N project "
        "functions by cumulative time; feeds `jets lint "
        "--hot-profile`). Profiled numbers never enter the timed "
        "results",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="functions kept per workload in the profile (default: 25)",
    )
    parser.add_argument(
        "--rss-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="fail (exit 1) if any workload's peak RSS exceeds this "
        "budget — the streaming-sink memory gate",
    )
    return parser


def _print_result(result: BenchResult) -> None:
    parts = [f"  {result.name:<18} {result.wall_s:8.3f}s"]
    if (
        result.wall_median_s is not None
        and result.wall_median_s != result.wall_s
    ):
        parts.append(f"median {result.wall_median_s:.3f}s")
    if result.events_per_s:
        parts.append(f"{result.events_per_s:>12,.0f} ev/s")
    parts.append(f"rss {result.peak_rss_kb // 1024} MB")
    print("  ".join(parts))


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets bench`` entry point; returns the process exit code."""
    parser = build_bench_parser()
    args = parser.parse_args(argv)
    # Less is meaningless: no timed round, an empty profile, a budget
    # that every workload exceeds, or a bound that fails a faster run.
    for flag in ("--repeat", "--profile-top", "--rss-budget-mb", "--threshold"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not value > 0:
            parser.error(f"{flag} must be positive")
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]

    if args.against is not None and not os.path.isdir(
        os.path.join(args.against, "repro")
    ):
        print(f"jets bench: {args.against} holds no repro package",
              file=sys.stderr)
        return 2

    if not os.path.isdir(args.out_dir):
        print(f"jets bench: {args.out_dir} is not a directory",
              file=sys.stderr)
        return 2

    def _print_round(r, walls):
        print(f"  round {r + 1}/{args.repeat}: " + ", ".join(
            f"{side} {wall:.3f}s" for side, wall in walls
        ))

    exit_code = 0
    profiled: dict[str, list[dict]] = {}
    for suite in suites:
        print(f"suite {suite}{' (quick)' if args.quick else ''}:")
        baseline = None
        try:
            if args.against is None:
                run = run_suite(suite, args.quick, args.repeat, args.only)
            else:
                run, baseline = run_ab(
                    suite, args.against, args.quick, args.repeat, args.only,
                    progress=_print_round,
                )
        except (KeyError, RuntimeError) as exc:
            print(f"jets bench: {exc.args[0]}", file=sys.stderr)
            return 2
        for result in run.results:
            _print_result(result)
        out_path = os.path.join(args.out_dir, f"BENCH_{suite}.json")
        write_suite(run, out_path, baseline, args.against or "")
        print(f"  wrote {out_path}")
        if baseline is not None:
            cmp = compare_runs(run, baseline, args.threshold)
            for name, (old, new, speedup) in sorted(cmp.walls.items()):
                print(
                    f"  {name:<18} {old:8.3f}s -> {new:8.3f}s  "
                    f"({speedup:.2f}x)"
                )
            for note in cmp.skipped:
                print(f"  skipped: {note}")
            for regression in cmp.regressions:
                print(f"  REGRESSION: {regression}", file=sys.stderr)
            if not cmp.ok:
                exit_code = 1
        if args.rss_budget_mb is not None:
            budget_kb = args.rss_budget_mb * 1024
            for result in run.results:
                if result.peak_rss_kb > budget_kb:
                    print(
                        f"  RSS BUDGET EXCEEDED: {result.name} peaked at "
                        f"{result.peak_rss_kb / 1024:.0f} MB "
                        f"(budget {args.rss_budget_mb:.0f} MB)",
                        file=sys.stderr,
                    )
                    exit_code = 1
        if args.profile:
            print(f"  profiling {suite}...")
            profiled.update(profile_suite(
                suite,
                quick=args.quick,
                top=args.profile_top,
                only=args.only,
            ))
    if args.profile:
        profile_path = os.path.join(args.out_dir, "BENCH_profile.json")
        write_profile(
            profiled, profile_path,
            quick=args.quick, top=args.profile_top,
        )
        print(f"wrote {profile_path} ({len(profiled)} workloads)")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(bench_main())
