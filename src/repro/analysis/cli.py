"""``jets lint`` / ``jets lint-trace`` / ``jets sanitize`` subcommands.

Usage::

    jets lint [PATH ...] [--select RULES] [--ignore RULES]
              [--min-severity LEVEL] [--format text|json]
              [--hot-profile BENCH_profile.json]
              [--list-rules] [--explain RULE] [--catalog]
    jets lint-trace RUN.jsonl [--run N] [--no-schema] [--no-lifecycle]
    jets sanitize [PATH ...] [--static-only | --dynamic-only | --fixture]
                  [--schedules N] [--seed S] [--strict]
    jets hotpath [FUNC] [--path P] [--hot-profile BENCH_profile.json]
                 [--format text|json]

``jets lint`` runs the static rule sets over Python sources (default:
``src`` if present, else the current directory) and exits non-zero when
any finding at or above ``--min-severity`` survives the inline
``# repro: noqa[RULE]`` suppressions.  ``--format json`` emits one
machine-readable document (path/line/col/rule/severity/message per
finding) for CI annotation.  ``jets lint-trace`` validates a recorded
JSONL run against the trace schema registry and the lifecycle state
machines.

``jets hotpath`` builds the project call graph (see
:mod:`.callgraph`) and dumps the computed hot set — every function
reachable from the declared kernel entry points, optionally unioned
with a measured ``jets bench --profile`` profile.  With a FUNC
argument it instead *explains* reachability: the shortest
entry→function call chain, or "not on the hot path".  The same
``--hot-profile`` file escalates the PF perf rules from warning to
error during ``jets lint``.

``jets sanitize`` is the two-layer race/determinism sanitizer: the
static happens-before and RNG-sharing rules (HB*/RS*, alongside the
full DT/TR/SK/PR sets) over the sources, then a dynamic pass running
the schedule-exploration smoke workload with a
:class:`~repro.analysis.hbmodel.HappensBeforeChecker` attached — vector
clocks over the live trace, flagging same-timestamp record pairs with
no happens-before path.  ``--fixture`` instead runs the built-in seeded
race demo end-to-end: the checker must find the planted race and the
schedule-permutation confirmation loop must classify it
outcome-changing (the sanitizer self-test CI runs).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import textwrap
from typing import Optional, Sequence

from .framework import SEVERITIES, all_rules, lint_paths
from .tracecheck import TraceValidator

__all__ = [
    "build_lint_parser",
    "build_lint_trace_parser",
    "build_sanitize_parser",
    "build_hotpath_parser",
    "lint_main",
    "lint_trace_main",
    "sanitize_main",
    "hotpath_main",
    "rule_catalog",
]


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jets lint",
        description="Static invariant checks (trace schema, determinism, "
        "simkernel misuse, happens-before hazards) over Python sources.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: ./src or .)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--min-severity", choices=SEVERITIES, default="warning",
        help="findings below this level are reported but do not fail "
        "the run (default: warning)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text); json emits one document "
        "with files/findings/errors for CI annotation",
    )
    parser.add_argument(
        "--hot-profile", default=None, metavar="FILE",
        help="BENCH_profile.json from `jets bench --profile`; profiled "
        "functions join the hot set the PF rules escalate on",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print a rule's full description and examples, then exit",
    )
    parser.add_argument(
        "--catalog", action="store_true",
        help="print the rule catalog as a markdown table and exit "
        "(the README generator)",
    )
    return parser


def _explain_rule(rule_id: str) -> int:
    """Print one rule's documentation; exit code for lint_main."""
    wanted = rule_id.upper()
    for cls in all_rules():
        if cls.id != wanted:
            continue
        print(f"{cls.id} [{cls.severity}] — {cls.description}")
        doc = inspect.getdoc(cls)
        if doc:
            print()
            print(doc)
        if cls.example_bad:
            print()
            print("flagged:")
            print(textwrap.indent(cls.example_bad, "    "))
        if cls.example_good:
            print()
            print("fixed:")
            print(textwrap.indent(cls.example_good, "    "))
        return 0
    known = ", ".join(sorted(c.id for c in all_rules()))
    print(f"jets lint: unknown rule {rule_id} (known: {known})",
          file=sys.stderr)
    return 2


def rule_catalog() -> str:
    """The registered rules as a markdown table (README generator)."""
    lines = [
        "| Rule | Severity | Checks |",
        "| --- | --- | --- |",
    ]
    for cls in sorted(all_rules(), key=lambda c: c.id):
        lines.append(f"| {cls.id} | {cls.severity} | {cls.description} |")
    return "\n".join(lines)


def build_lint_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jets lint-trace",
        description="Validate a recorded JSONL trace against the schema "
        "registry and lifecycle state machines.",
    )
    parser.add_argument("tracefile", help="JSONL trace from --trace-out")
    parser.add_argument(
        "--run", type=int, default=None,
        help="validate only the given tagged run (default: each run)",
    )
    parser.add_argument(
        "--no-schema", action="store_true",
        help="skip category/payload schema checks",
    )
    parser.add_argument(
        "--no-lifecycle", action="store_true",
        help="skip lifecycle state-machine checks",
    )
    parser.add_argument(
        "--max-issues", type=int, default=50, metavar="N",
        help="print at most N issues per run (default: 50)",
    )
    return parser


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets lint`` entry point; returns the exit code."""
    args = build_lint_parser().parse_args(argv)
    if args.list_rules:
        for rule in sorted(all_rules(), key=lambda r: r.id):
            print(f"{rule.id}  [{rule.severity:7s}] {rule.description}")
        return 0
    if args.explain:
        return _explain_rule(args.explain)
    if args.catalog:
        print(rule_catalog())
        return 0
    paths = list(args.paths)
    if not paths:
        paths = ["src"] if os.path.isdir("src") else ["."]
    select = (
        [s for s in args.select.split(",") if s] if args.select else None
    )
    ignore = (
        [s for s in args.ignore.split(",") if s] if args.ignore else None
    )
    profile_ids = None
    if args.hot_profile:
        from .callgraph import load_profile

        try:
            profile_ids, _ = load_profile(args.hot_profile)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"jets lint: bad --hot-profile: {exc}", file=sys.stderr)
            return 2
    from .perf_rules import set_hot_profile

    set_hot_profile(profile_ids)
    try:
        result = lint_paths(paths, select=select, ignore=ignore)
    except ValueError as exc:
        print(f"jets lint: {exc}", file=sys.stderr)
        return 2
    finally:
        set_hot_profile(None)
    threshold = SEVERITIES.index(args.min_severity)
    failing = [
        f for f in result.findings
        if SEVERITIES.index(f.severity) >= threshold
    ]
    if args.format == "json":
        print(json.dumps(
            {
                "files": result.files,
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "rule": f.rule,
                        "severity": f.severity,
                        "message": f.message,
                        "hot_path": f.hot,
                    }
                    for f in result.findings
                ],
                "errors": result.errors,
            },
            indent=2,
        ))
        return 2 if result.errors else (1 if failing else 0)
    for error in result.errors:
        print(f"jets lint: {error}", file=sys.stderr)
    for finding in result.findings:
        print(finding.render())
    summary = ", ".join(
        f"{result.count(sev)} {sev}" for sev in reversed(SEVERITIES)
        if result.count(sev)
    )
    print(
        f"jets lint: {result.files} files checked — "
        + (summary if summary else "clean")
    )
    if result.errors:
        return 2
    return 1 if failing else 0


def lint_trace_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets lint-trace`` entry point; returns the exit code.

    Records stream through one incremental :class:`.TraceValidator` per
    tagged run — a spilled million-record dump validates in flat memory,
    never materialized as a list.
    """
    args = build_lint_trace_parser().parse_args(argv)
    from ..obs.export import iter_jsonl, note_unread

    validators: dict[int, TraceValidator] = {}
    try:
        with open(args.tracefile, "rb") as fh:
            for run_id, rec in iter_jsonl(fh, run=args.run):
                validator = validators.get(run_id)
                if validator is None:
                    validator = validators[run_id] = TraceValidator(
                        check_schema=not args.no_schema,
                        check_lifecycle=not args.no_lifecycle,
                    )
                validator.feed(rec)
            tail = fh.read()
    except OSError as exc:
        print(f"jets lint-trace: cannot read {args.tracefile}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"jets lint-trace: bad trace file: {exc}", file=sys.stderr)
        return 2
    note_unread("jets lint-trace", args.tracefile, tail)
    if not validators:
        if args.run is not None:
            print(f"jets lint-trace: no run {args.run} in {args.tracefile}",
                  file=sys.stderr)
        else:
            print(
                f"jets lint-trace: {args.tracefile} holds no trace records",
                file=sys.stderr,
            )
        return 2

    total = 0
    for run_id in sorted(validators):
        validator = validators[run_id]
        issues = validator.issues
        total += len(issues)
        tag = f"run {run_id}: " if len(validators) > 1 or run_id else ""
        for issue in issues[: args.max_issues]:
            print(f"{tag}{issue.render()}")
        if len(issues) > args.max_issues:
            print(f"{tag}... {len(issues) - args.max_issues} more issues")
        print(
            f"jets lint-trace: {tag}{validator.records_seen} records — "
            + (f"{len(issues)} issues" if issues else "valid")
        )
    return 1 if total else 0


def build_sanitize_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jets sanitize",
        description="Two-layer race/determinism sanitizer: static "
        "happens-before rules over sources plus a dynamic vector-clock "
        "pass over a live run, with schedule-permutation confirmation.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="sources for the static layer (default: ./src or .)",
    )
    parser.add_argument(
        "--static-only", action="store_true",
        help="run only the static rule layer",
    )
    parser.add_argument(
        "--dynamic-only", action="store_true",
        help="run only the dynamic happens-before layer",
    )
    parser.add_argument(
        "--fixture", action="store_true",
        help="self-test: run the seeded race demo; exit 0 only if the "
        "checker finds the planted race AND permuted schedules confirm "
        "it outcome-changing",
    )
    parser.add_argument(
        "--schedules", type=int, default=8, metavar="N",
        help="schedules for the dynamic layer / confirmation loop "
        "(default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for schedule permutation (default: 0)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="unconfirmed dynamic race candidates fail the run instead "
        "of being reported informationally",
    )
    parser.add_argument(
        "--max-candidates", type=int, default=20, metavar="N",
        help="print at most N race candidates (default: 20)",
    )
    return parser


def _sanitize_static(paths: Sequence[str]) -> tuple[int, int]:
    """Static layer: full rule set; returns (findings, exit code)."""
    result = lint_paths(paths)
    for error in result.errors:
        print(f"jets sanitize: {error}", file=sys.stderr)
    for finding in result.findings:
        print(finding.render())
    n = len(result.findings)
    print(
        f"jets sanitize: static layer — {result.files} files, "
        + (f"{n} findings" if n else "clean")
    )
    if result.errors:
        return n, 2
    return n, (1 if n else 0)


def _confirm_fixture(schedules: int, seed: int) -> tuple[int, int]:
    """Permute the demo's schedule; returns (divergent, total) counts."""
    from ..obs.export import CanonicalDigest
    from ..simkernel import SeededOrder
    from .campaign import derive_seed
    from .hbmodel import seeded_race_demo

    def digest_of(order) -> str:
        _, trace, _ = seeded_race_demo(order=order)
        digest = CanonicalDigest()
        for rec in trace.records:
            digest.feed(rec)
        return digest.hexdigest()

    baseline = digest_of(None)
    divergent = 0
    for index in range(1, schedules + 1):
        if digest_of(SeededOrder(derive_seed(seed, index))) != baseline:
            divergent += 1
    return divergent, schedules


def _sanitize_fixture(args) -> int:
    """``--fixture``: the sanitizer self-test on the seeded race demo."""
    from .hbmodel import seeded_race_demo

    _, _, checker = seeded_race_demo(checker=True)
    candidates = checker.finish() if checker is not None else []
    for cand in candidates[: args.max_candidates]:
        print(f"  candidate: {cand.render()}")
    if not candidates:
        print(
            "jets sanitize: fixture FAILED — seeded race not detected",
            file=sys.stderr,
        )
        return 1
    divergent, total = _confirm_fixture(args.schedules, args.seed)
    verdict = "outcome-changing" if divergent else "benign"
    print(
        f"jets sanitize: fixture — {len(candidates)} candidate(s); "
        f"{divergent}/{total} permuted schedules diverge from the FIFO "
        f"baseline — {verdict}"
    )
    if not divergent:
        print(
            "jets sanitize: fixture FAILED — no permuted schedule changed "
            "the outcome (expected outcome-changing)",
            file=sys.stderr,
        )
        return 1
    print("jets sanitize: fixture ok (planted race found and confirmed)")
    return 0


def _sanitize_dynamic(args) -> int:
    """Dynamic layer: HB checker riding the exploration smoke workload."""
    from .explore import ExploreConfig, run_schedule
    from .hbmodel import HappensBeforeChecker

    config = ExploreConfig(
        schedules=args.schedules, seed=args.seed, faults=False,
        serial_tasks=2, mpi_tasks=1,
    )
    checkers: list[HappensBeforeChecker] = []

    def attach(env, platform) -> None:
        checkers.append(
            HappensBeforeChecker(env).attach(
                platform.trace, platform.network
            )
        )

    failures = 0
    candidates: dict[tuple, object] = {}
    for index in range(config.schedules):
        result = run_schedule(config, index, attach=attach)
        if not result.ok:
            failures += 1
            for problem in result.problems[:5]:
                print(f"  schedule {index}: {problem}")
        for cand in checkers[-1].finish():
            existing = candidates.get(cand.key())
            if existing is not None:
                existing.count += cand.count  # type: ignore[attr-defined]
            else:
                candidates[cand.key()] = cand
    ordered = sorted(
        candidates.values(),
        key=lambda c: (-c.count, c.time, c.key()),  # type: ignore
    )
    for cand in ordered[: args.max_candidates]:
        print(f"  candidate: {cand.render()}")  # type: ignore[attr-defined]
    print(
        f"jets sanitize: dynamic layer — {config.schedules} schedules, "
        f"{len(ordered)} race candidate(s)"
        + (f", {failures} schedule failures" if failures else "")
    )
    if failures:
        return 1
    if ordered and args.strict:
        return 1
    return 0


def sanitize_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets sanitize`` entry point; returns the exit code.

    Exit 0 means: static rules clean AND the dynamic layer ran without
    oracle failures (race candidates are informational unless
    ``--strict``).  With ``--fixture``, exit 0 means the planted race
    was found and confirmed outcome-changing.
    """
    args = build_sanitize_parser().parse_args(argv)
    if args.static_only and args.dynamic_only:
        print(
            "jets sanitize: --static-only and --dynamic-only are mutually "
            "exclusive",
            file=sys.stderr,
        )
        return 2
    if args.fixture:
        return _sanitize_fixture(args)

    worst = 0
    if not args.dynamic_only:
        paths = list(args.paths)
        if not paths:
            paths = ["src"] if os.path.isdir("src") else ["."]
        _, code = _sanitize_static(paths)
        worst = max(worst, code)
        if code == 2:
            return 2
    if not args.static_only:
        worst = max(worst, _sanitize_dynamic(args))
    if worst == 0:
        print("jets sanitize: clean")
    return worst


def build_hotpath_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jets hotpath",
        description="Dump the statically computed hot set (functions "
        "reachable from the kernel entry points), or explain how one "
        "function is reached from an entry.",
    )
    parser.add_argument(
        "func", nargs="?", default=None, metavar="FUNC",
        help="function to explain: a graph id (module:qualname), a "
        "Class.method qualname, or a bare name (default: dump the "
        "whole hot set)",
    )
    parser.add_argument(
        "--path", action="append", default=None, metavar="PATH",
        help="source files/directories to analyze (repeatable; "
        "default: ./src or .)",
    )
    parser.add_argument(
        "--hot-profile", default=None, metavar="FILE",
        help="BENCH_profile.json whose functions join the hot set",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    return parser


def _collect_modules(paths: Sequence[str]) -> tuple[list, list[str]]:
    """Parse every .py under ``paths`` into framework Modules."""
    import ast as _ast

    from .framework import Module, iter_python_files

    modules, errors = [], []
    for path in iter_python_files(paths):
        try:
            source = path.read_text()
            tree = _ast.parse(source, filename=str(path))
        except OSError as exc:
            errors.append(f"{path}: {exc}")
            continue
        except SyntaxError as exc:
            errors.append(f"{path}: syntax error: {exc}")
            continue
        modules.append(Module(str(path), source, tree))
    return modules, errors


def _render_chain(chain, graph) -> list[str]:
    """One indented line per hop of a root→target chain."""
    lines = []
    for depth, (fid, kind) in enumerate(chain):
        info = graph.functions.get(fid)
        where = f"  ({info.path}:{info.lineno})" if info else ""
        if depth == 0:
            lines.append(f"{fid}  [{kind}]{where}")
        else:
            pad = "  " * depth
            lines.append(f"{pad}└─ {kind} → {fid}{where}")
    return lines


def hotpath_main(argv: Optional[Sequence[str]] = None) -> int:
    """``jets hotpath`` entry point; returns the exit code.

    Without FUNC: exit 0 after dumping the hot set.  With FUNC:
    exit 0 if every match is on the hot path, 1 if any resolved match
    is cold, 2 if the name does not resolve (or sources fail to parse).
    """
    args = build_hotpath_parser().parse_args(argv)
    from .callgraph import CallGraph, load_profile

    paths = list(args.path) if args.path else (
        ["src"] if os.path.isdir("src") else ["."]
    )
    profile_ids: Optional[set] = None
    if args.hot_profile:
        try:
            profile_ids, _ = load_profile(args.hot_profile)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"jets hotpath: bad --hot-profile: {exc}",
                  file=sys.stderr)
            return 2
    modules, errors = _collect_modules(paths)
    for error in errors:
        print(f"jets hotpath: {error}", file=sys.stderr)
    if not modules:
        print("jets hotpath: no Python sources found", file=sys.stderr)
        return 2
    graph = CallGraph.build(modules)
    hot = graph.hot_set(profile_ids)

    if args.func is None:
        ordered = sorted(hot)
        if args.format == "json":
            print(json.dumps(
                {
                    "entries": list(graph.entries),
                    "profile": sorted(profile_ids) if profile_ids else [],
                    "roots": dict(sorted(graph.roots.items())),
                    "hot": ordered,
                    "functions": len(graph.functions),
                },
                indent=2,
            ))
            return 0
        for fid in ordered:
            why = graph.roots.get(fid)
            print(f"{fid}" + (f"  [{why}]" if why else ""))
        print(
            f"jets hotpath: {len(ordered)} of {len(graph.functions)} "
            f"functions on the hot path "
            f"({len(graph.roots)} entry roots"
            + (f", profile ∪ {len(profile_ids)} ids" if profile_ids else "")
            + ")"
        )
        return 0

    matches = graph.resolve(args.func)
    if not matches:
        print(
            f"jets hotpath: no function matches {args.func!r} "
            f"(try module:Class.method, Class.method, or a bare name)",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        doc = []
        for fid in matches:
            chain = graph.chain(fid, profile_ids)
            doc.append({
                "id": fid,
                "hot": fid in hot,
                "chain": [
                    {"id": cid, "via": kind} for cid, kind in chain
                ] if chain else None,
            })
        print(json.dumps({"query": args.func, "matches": doc}, indent=2))
        return 0 if all(m["hot"] for m in doc) else 1
    cold = 0
    for fid in matches:
        chain = graph.chain(fid, profile_ids)
        if chain is None:
            cold += 1
            print(f"{fid}: NOT on the hot path (no entry reaches it)")
            continue
        print(f"{fid}: HOT — reached via:")
        for line in _render_chain(chain, graph):
            print(f"  {line}")
    return 1 if cold else 0
