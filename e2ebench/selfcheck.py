"""Checks of the benchmark itself, on tiny workload sizes.

Run from the repository root::

    python3 e2ebench/selfcheck.py

Each check prints PASS or FAIL; the exit status is 1 when any failed.

1. Every module under ``src/repro`` maps to exactly one layer, and every
   layer-map entry names a module that exists, so a new module that
   lands unmapped fails here.
2. ``calls_in`` and the other per-layer counts are identical across two
   traced runs in processes with different ``PYTHONHASHSEED``.
3. Every metric named in ``BENCHMARK.json`` appears in the output, with
   its unit, for every workload.
4. The A/B decision rule gives the right verdict on synthetic samples.
5. The output gate catches a deliberately altered expectation and a
   batch whose outputs differ from its process's first batch.
"""

from __future__ import annotations

import copy
import os
import sys

import compare
import layers
import run
from workloads import TINY

SRC = run.ROOT / "src"


def check_layer_map() -> list:
    problems = []
    modules = layers.repro_modules(str(SRC / "repro"))
    for module in modules:
        found = layers.layers_of(module)
        if len(found) != 1:
            problems.append(f"{module} maps to {found or 'no layer'}")
    for layer, names in layers.LAYERS.items():
        for name in names:
            pkg = name[:-2] if name.endswith(".*") else name
            if pkg not in modules:
                problems.append(f"{layer} names missing module {name}")
    return problems


def check_hash_seed() -> list:
    problems = []
    for name, size in TINY.items():
        runs = [
            run.spawn(SRC, name, 0, size, 0.0, profile=True,
                      env=dict(os.environ, PYTHONHASHSEED=hash_seed))
            for hash_seed in ("1", "2")
        ]
        counted = []
        for result in runs:
            profile = result["profile"]
            counted.append({
                "calls_in": {k: v["calls_in"]
                             for k, v in profile["layers"].items()},
                "counts": profile["counts"],
                "events": result["events"],
                "records": result["records"],
                "outputs": result["outputs"],
            })
        for key in counted[0]:
            if counted[0][key] != counted[1][key]:
                problems.append(f"{name}: {key} differs between "
                                f"PYTHONHASHSEED=1 and 2")
    return problems


def check_metrics_reported(spec: dict, tiny_runs: dict) -> list:
    problems = []
    for name, result in tiny_runs.items():
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            line = run.contract_line(result, trace)
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name}: result keys {sorted(line)}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{name}: {group} metrics/units differ "
                                f"from BENCHMARK.json")
            if not line["correct"] or line["attempted"] < 1:
                problems.append(f"{name}: tiny run not correct")
    return problems


def check_decision_rule() -> list:
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    cases = [
        ("gain", [p * 0.8 for p in parent], "lower", 0.1),
        ("gain", [p * 1.2 for p in parent], "higher", 0.1),
        ("regression", [p * 1.3 for p in parent], "lower", 0.1),
        ("regression", [p * 0.7 for p in parent], "higher", 0.1),
        ("unchanged", parent[1:] + parent[:1], "lower", 0.1),
        ("unresolved", [p * (0.6 if i % 2 else 1.5)
                        for i, p in enumerate(parent)], "lower", 0.1),
        ("unresolved", [p * (0.6 if i % 2 else 1.5)
                        for i, p in enumerate(parent)], "higher", 0.1),
    ]
    problems = []
    for want, change, better, bound in cases:
        got = compare.verdict(parent, change, better, bound)["verdict"]
        if got != want:
            problems.append(f"{better}-is-better {want} case judged {got}")
    return problems


def check_gate(tiny_runs: dict) -> list:
    problems = []
    for name, result in tiny_runs.items():
        samples = copy.deepcopy(result["samples"])
        pinned = copy.deepcopy(samples[0]["outputs"])
        if run.gate(name, samples, pinned):
            problems.append(f"{name}: gate rejects the true outputs")
        key = sorted(pinned)[0]
        pinned[key] = [pinned[key], "altered"]
        if not run.gate(name, samples, pinned):
            problems.append(f"{name}: gate missed altered {key!r}")
        elif any(s["failed"] != s["jobs"] * len(s["batches"])
                 for s in samples):
            problems.append(f"{name}: mismatched processes' jobs not failed")
        samples = copy.deepcopy(result["samples"])
        samples[-1]["batches"][-1]["same"] = False
        if not run.gate(name, samples, None):
            problems.append(f"{name}: gate missed a diverging batch")
        elif samples[-1]["failed"] != samples[-1]["jobs"]:
            problems.append(f"{name}: diverging batch's jobs not failed")
    return problems


def main() -> int:
    spec = run.load_json(run.ROOT / "BENCHMARK.json")
    expect = run.load_json(run.HERE / "expect.json")
    tiny_runs = {}
    for name, size in TINY.items():
        # No time budget: each of the two processes runs one batch.
        measured = run.measure(SRC, name, 0, size, 0.0, 2, True)
        result = run.report_workload(name, measured, 0, size, spec, expect)
        result["samples"] = measured["samples"]
        tiny_runs[name] = result
    checks = [
        ("every repro module maps to exactly one layer", check_layer_map),
        ("per-layer counts ignore PYTHONHASHSEED", check_hash_seed),
        ("every BENCHMARK.json metric is reported with its unit",
         lambda: check_metrics_reported(spec, tiny_runs)),
        ("A/B decision rule verdicts", check_decision_rule),
        ("output gate catches an altered expectation and a diverging batch",
         lambda: check_gate(tiny_runs)),
    ]
    failed = 0
    for title, check in checks:
        problems = check()
        print(f"{'FAIL' if problems else 'PASS'}  {title}")
        for problem in problems:
            print(f"      {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        try:
            run.WORK.rmdir()
        except OSError:
            pass
