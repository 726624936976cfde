"""End-to-end benchmark of the simulated JETS stack.

Run from the repository root (see ``e2ebench/README.md``)::

    python3 e2ebench/run.py [--workload W] [--seed S] [--seconds T]
                            [--trace [0|1]] [--ab REV]

A run of one workload lasts about ``--seconds`` (default: ``run_seconds``
from ``BENCHMARK.json``).  It spawns :data:`PROCESSES` fresh child
interpreters one after another and gives each an equal share of that
time: a child sets up (imports plus a tiny warm-up batch), then repeats
the workload's full-size batch until its share is spent.
``setup_s`` and ``peak_rss_mb`` are medians over the children,
``jobs_per_s`` the median over every batch of the run; times and rates
are scaled to a quiet host's speed by the reference loop (see
``reference.py``) the child times around each batch.  ``--trace`` adds
one child per workload that runs a single batch under cProfile for the
per-layer table.  ``--ab REV`` instead runs :data:`AB_PAIRS`
parent/change pairs of runs against the tree of commit ``REV``.

Metric names, units, directions and bounds come from ``BENCHMARK.json``
at the repository root; the pinned seed-0 outputs from
``e2ebench/expect.json``.  Standard output ends with the full report as
one JSON line and, when one workload was measured, a last line with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  Exit status: 0 when
every output check passed, 1 when one failed, 2 when the benchmark could
not run.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import compare
import reference
from layers import LAYERS
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
#: Scratch space for child work directories and ``--ab`` trees; removed
#: again before the benchmark exits.
WORK = ROOT / ".e2ebench"
#: How long a child may run past its deadline (set-up, a last batch, a
#: traced batch) before it counts as hung.
CHILD_GRACE = 60.0
#: Children per run, each set up afresh: ``setup_s`` is their median.
PROCESSES = 3
#: Parent/change pairs of runs per workload for ``--ab``.
AB_PAIRS = 10


class BenchError(Exception):
    """The benchmark could not run (missing tree, crashed child, bad spec)."""


def load_json(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def spawn(src: Path, workload: str, seed: int, size: int, deadline: float,
          profile: bool = False, env: dict | None = None) -> dict:
    """Run one child on the tree ``src`` until ``deadline``; its result."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=WORK)
    cmd = [sys.executable, str(CHILD), workload, str(seed), str(size),
           workdir, repr(deadline)]
    if profile:
        cmd.append("--profile")
    child_env = dict(os.environ if env is None else env)
    child_env["PYTHONPATH"] = str(src)
    t0 = time.monotonic()
    timeout = max(deadline - t0, 0.0) + CHILD_GRACE
    try:
        proc = subprocess.run(cmd, env=child_env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child ran past {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise BenchError(
            f"{workload}: child exited {proc.returncode}\n{tail}"
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t0
    return result


def measure(src: Path, name: str, seed: int, size: int, seconds: float,
            processes: int, trace: bool) -> dict:
    """One run of one workload: its children's results.

    The traced child, when asked for, goes first and its time counts
    against ``seconds``; the untraced children split what is left.
    """
    start = time.monotonic()
    traced = None
    if trace:
        traced = spawn(src, name, seed, size, start, profile=True)
    samples = []
    for i in range(processes):
        deadline = start + seconds * (i + 1) / processes
        samples.append(spawn(src, name, seed, size, deadline))
    return {"samples": samples, "traced": traced}


def gate(workload: str, samples: list, pinned: dict | None) -> list:
    """Check the simulated outputs and count each child's failed jobs.

    Every child's first batch must reproduce ``pinned`` when given, else
    agree exactly with the first child's; every later batch must agree
    with its child's first.  A child that fails the first check has all
    its jobs counted failed, a batch that fails the second has its own.
    """
    expected = pinned if pinned is not None else samples[0]["outputs"]
    against = "the pinned outputs" if pinned is not None else "process 0"
    problems = []
    for i, sample in enumerate(samples):
        got = sample["outputs"]
        bad = [j for j, b in enumerate(sample["batches"]) if not b["same"]]
        if got != expected:
            keys = sorted(
                k for k in set(got) | set(expected)
                if got.get(k) != expected.get(k)
            )
            problems.append(
                f"{workload} process {i}: {', '.join(keys)} differ from "
                f"{against}: " + ", ".join(
                    f"{k}={got.get(k)!r} (want {expected.get(k)!r})"
                    for k in keys
                )
            )
            bad = list(range(len(sample["batches"])))
        elif bad:
            problems.append(f"{workload} process {i}: batches {bad} differ "
                            f"from its first batch")
        sample["failed"] = sum(
            sample["jobs"] if j in bad else b["failed_ops"]
            for j, b in enumerate(sample["batches"])
        )
    return problems


def batch_seconds(samples: list) -> list:
    return [b["s"] for s in samples for b in s["batches"]]


def slowdowns(sample: dict) -> list:
    """Per batch of one child, how much slower than a quiet one the host ran.

    The mean of the reference-loop times just before and just after the
    batch, over the loop's quiet-host time (:data:`reference.QUIET_S`).
    """
    refs = [b["ref_s"] for b in sample["batches"]] + [sample["tail_ref_s"]]
    return [(a + b) / 2 / reference.QUIET_S for a, b in zip(refs, refs[1:])]


def quiet_seconds(samples: list) -> list:
    """``(child, batch, seconds)`` per batch, timed at the quiet host's speed."""
    return [
        (s, b, b["s"] / slow)
        for s in samples
        for b, slow in zip(s["batches"], slowdowns(s))
    ]


#: End-to-end metric -> its samples from one run's untraced children.
#: Set-up time is scaled by the reference-loop time that follows it.
END_TO_END = {
    "setup_s": lambda samples: [
        s["setup_s"] * reference.QUIET_S / s["batches"][0]["ref_s"]
        for s in samples
    ],
    "jobs_per_s": lambda samples: [
        b["ok"] / quiet for _, b, quiet in quiet_seconds(samples)
    ],
    "peak_rss_mb": lambda samples: [s["peak_rss_mb"] for s in samples],
}


def layer_values(run: dict) -> dict:
    """Every per-layer metric value of one workload's traced run."""
    traced = run["traced"]
    profile = traced["profile"]
    batch_s = compare.quartiles(batch_seconds(run["samples"]))[1]
    events_per_s = compare.quartiles([
        s["events"] / quiet for s, _, quiet in quiet_seconds(run["samples"])
    ])
    values = {}
    for layer, row in profile["layers"].items():
        for key, value in row.items():
            values[f"{layer}.{key}"] = value
    values.update(profile["counts"])
    values.update({
        "simkernel.core.events": traced["events"],
        "simkernel.core.events_per_s": events_per_s[1],
        "simkernel.monitor.records": traced["records"],
        "simkernel.monitor.spill_bytes": traced["spill_bytes"],
        "core.journal.records": traced["journal_records"],
        "trace.overhead": traced["batches"][0]["s"] / batch_s,
        "trace.coverage": profile["coverage"],
    })
    return values


def end_to_end_samples(spec: dict, samples: list) -> dict:
    """Each ``BENCHMARK.json`` end-to-end metric's samples from one run."""
    out = {}
    for metric in spec["end_to_end"]:
        key = metric["name"]
        if key not in END_TO_END:
            raise BenchError(f"BENCHMARK.json names unknown metric {key!r}")
        out[key] = END_TO_END[key](samples)
    return out


def report_workload(name: str, run: dict, seed: int, size: int,
                    spec: dict, expect: dict) -> dict:
    """Gate one workload's children and summarise its metrics.

    At seed 0 and the standard size the outputs must match the pinned
    ones; at any other seed or size the children must agree exactly.
    """
    samples = run["samples"]
    checked = samples + ([run["traced"]] if run["traced"] else [])
    pinned = None
    if seed == 0 and size == SIZES[name]:
        if name not in expect:
            raise BenchError(f"expect.json pins no outputs for {name}")
        pinned = expect[name]
    problems = gate(name, checked, pinned)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {
        "size": size,
        "processes": len(samples),
        "batches": len(batch_seconds(samples)),
        "traced": run["traced"] is not None,
        "slowdown": compare.summary(
            [k for s in samples for k in slowdowns(s)]),
        "host": {
            "setup_s": compare.summary([s["setup_s"] for s in samples]),
            "batch_s": compare.summary(batch_seconds(samples)),
        },
        "attempted": sum(s["jobs"] * len(s["batches"]) for s in checked),
        "failed": sum(s["failed"] for s in checked),
        "problems": problems,
        "outputs": samples[0]["outputs"],
        "end_to_end": {
            key: dict(compare.summary(values), unit=units[key])
            for key, values in end_to_end_samples(spec, samples).items()
        },
    }
    if run["traced"] is not None:
        values = layer_values(run)
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in values]
        if missing:
            raise BenchError(f"BENCHMARK.json names unknown per-layer "
                             f"metrics {missing}")
        out["per_layer"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return out


def contract_line(result: dict, trace: bool) -> dict:
    """The last output line: correctness, op counts, metric values."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            key: {"value": row["median"], "unit": row["unit"]}
            for key, row in result["end_to_end"].items()
        }
    return {
        "correct": not result["problems"] and not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def git(tree: Path, *args: str) -> str | None:
    """``git`` output in ``tree`` (never a repository above it), or None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tree.parent))
    try:
        proc = subprocess.run(["git", "-C", str(tree), *args], env=env,
                              capture_output=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode("utf-8", "replace").strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    """Where and how a result was measured."""
    commit = git(ROOT, "rev-parse", "HEAD")
    dirty = None
    if commit is not None:
        dirty = bool(git(ROOT, "status", "--porcelain",
                         "--untracked-files=no"))
    return {
        "commit": commit,
        "dirty": dirty,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "processes": PROCESSES,
    }


def print_workload(name: str, seed: int, result: dict) -> None:
    extra = " + 1 traced" if result["traced"] else ""
    status = "outputs ok" if not result["problems"] else "OUTPUTS WRONG"
    print(f"{name}: seed {seed}, size {result['size']}, "
          f"{result['processes']} processes{extra}, "
          f"{result['batches']} batches, {status}, "
          f"{result['failed']}/{result['attempted']} jobs failed")
    host = result["host"]
    print(f"  host ran {result['slowdown']['median']:.3f}x as slow as a "
          f"quiet one (median over batches); unscaled medians: set-up "
          f"{host['setup_s']['median']:.4g} s, batch "
          f"{host['batch_s']['median']:.4g} s")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    print(f"  {'metric':<14}{'unit':<8}{'median':>11}{'min':>11}"
          f"{'q1':>11}{'q3':>11}{'max':>11}{'n':>4}")
    for key, row in result["end_to_end"].items():
        print(f"  {key:<14}{row['unit']:<8}"
              + "".join(f"{row[k]:>11.4g}"
                        for k in ("median", "min", "q1", "q3", "max"))
              + f"{row['n']:>4}")
    if "per_layer" in result:
        rows = result["per_layer"]
        print(f"  {'layer':<22}{'self_s':>9}{'share':>8}{'calls_in':>11}")
        for layer in LAYERS:
            print(f"  {layer:<22}{rows[layer + '.self_s']['value']:>9.3f}"
                  f"{rows[layer + '.share']['value']:>8.3f}"
                  f"{rows[layer + '.calls_in']['value']:>11}")
        suffixes = (".self_s", ".share", ".calls_in")
        others = [k for k in rows if not k.endswith(suffixes)]
        print("  " + ", ".join(
            f"{k}={rows[k]['value']:.4g} {rows[k]['unit']}" for k in others
        ))


def run_measure(args, spec: dict, names: list) -> int:
    expect = load_json(HERE / "expect.json")
    results = {}
    for name in names:
        run = measure(ROOT / "src", name, args.seed, SIZES[name],
                      args.seconds, PROCESSES, bool(args.trace))
        results[name] = report_workload(name, run, args.seed, SIZES[name],
                                        spec, expect)
    for name in names:
        print_workload(name, args.seed, results[name])
    print(json.dumps({"provenance": provenance(args), "workloads": results}))
    if len(names) == 1:
        print(json.dumps(contract_line(results[names[0]], bool(args.trace))))
    bad = any(r["problems"] or r["failed"] for r in results.values())
    return 1 if bad else 0


def ab_trees(rev: str) -> tuple:
    """Commit id of ``rev``, and scratch copies of its and this ``src``.

    Both sides run from fresh copies at equally long paths, so neither
    starts with compiled bytecode or differs in anything but the code.
    """
    commit = git(ROOT, "rev-parse", "--verify", rev + "^{commit}")
    if commit is None:
        raise BenchError(f"--ab: {rev!r} is not a commit of this repository")
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit, "src"],
        capture_output=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"--ab: git archive {commit} failed: "
                         + proc.stderr.decode("utf-8", "replace"))
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=WORK))
    # Extraction filters arrived in Python 3.10.12/3.11.4.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(scratch / "parent", **safe)
    shutil.copytree(ROOT / "src", scratch / "change" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return commit, scratch


def run_ab(args, spec: dict, names: list) -> int:
    """Parent/change pairs of runs, alternating which side runs first.

    Each side of a pair is one whole run, as the benchmark measures it,
    and contributes that run's medians.
    """
    commit, scratch = ab_trees(args.ab)
    sides = ("parent", "change")
    pairs = {name: {side: [] for side in sides} for name in names}
    children = {name: {side: [] for side in sides} for name in names}
    try:
        for i in range(AB_PAIRS):
            order = sides if i % 2 == 0 else sides[::-1]
            for name in names:
                for side in order:
                    run = measure(scratch / side / "src", name, args.seed,
                                  SIZES[name], args.seconds, PROCESSES,
                                  False)
                    children[name][side] += run["samples"]
                    pairs[name][side].append({
                        key: compare.quartiles(values)[1]
                        for key, values in
                        end_to_end_samples(spec, run["samples"]).items()
                    })
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    prov = provenance(args)
    prov["parent"] = commit
    prov["pairs"] = AB_PAIRS
    rows = []
    bad = False
    print(f"A/B: parent {commit[:10]} vs change "
          f"{(prov['commit'] or 'unknown')[:10]}"
          f"{' (dirty)' if prov['dirty'] else ''}, seed {args.seed}, "
          f"{AB_PAIRS} pairs of {args.seconds:g} s runs per workload")
    print("| workload | metric | parent median [q1, q3] "
          "| change median [q1, q3] | change/parent | wins | verdict |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        notes = []
        for side in sides:
            if gate(name, children[name][side], None):
                bad = True
                notes.append(f"{side} outputs disagree between runs")
        if children[name]["parent"][0]["outputs"] != \
                children[name]["change"][0]["outputs"]:
            notes.append("outputs differ between parent and change")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            row = compare.verdict(
                [run[key] for run in pairs[name]["parent"]],
                [run[key] for run in pairs[name]["change"]],
                metric["better"], metric["bound"],
            )
            row.update(workload=name, metric=key, unit=metric["unit"])
            rows.append(row)
            p, c = row["parent"], row["change"]
            print(f"| {name} | {key} ({metric['unit']}) "
                  f"| {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                  f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                  f"| {row['ratio']:.3f} | {row['wins']}/{row['pairs']} "
                  f"| {row['verdict']} |")
        for note in notes:
            print(f"  note: {name}: {note}")
    print(json.dumps({"provenance": prov, "ab": rows}))
    return 1 if bad else 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(
        prog="e2ebench",
        description="End-to-end benchmark of the simulated JETS stack.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload (default: every one "
                             "BENCHMARK.json names)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0: outputs pinned)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run of one workload (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one cProfile child per workload and "
                             "report the per-layer table")
    parser.add_argument("--ab", metavar="REV",
                        help="compare commit REV (parent) with this tree")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no simulator sources under {ROOT / 'src'}")
        spec = load_json(spec_path)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        names = [args.workload] if args.workload else [
            w["name"] for w in spec["workloads"]
        ]
        unknown = sorted(set(names) - set(WORKLOADS))
        if unknown:
            raise BenchError(f"BENCHMARK.json names unknown workloads "
                             f"{unknown}")
        if args.ab:
            return run_ab(args, spec, names)
        return run_measure(args, spec, names)
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    finally:
        # Child work directories are already gone; drop the empty root.
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
