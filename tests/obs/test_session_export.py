"""A session writes its Chrome trace run by run.

:func:`ref_to_chrome_trace` below is the whole-document writer as it
stood before the export was streamed: it collects every run's events in
one list and ``json.dump``s the document.  It is kept here, and only
here, as the reference: a session's Chrome file, and
:func:`~repro.obs.export.to_chrome_trace`, must equal it byte for byte.
"""

from __future__ import annotations

import gc
import io
import json
import weakref

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.cluster.machine import generic_cluster
from repro.core.jets import Simulation
from repro.core.tasklist import JobSpec, TaskList
from repro.obs import session
from repro.obs.export import (
    chrome_events,
    counter_events,
    counter_series,
    iter_jsonl,
    to_chrome_trace,
)
from repro.obs.spans import build_spans


def ref_to_chrome_trace(sources, path) -> int:
    """``to_chrome_trace`` over ``(label, spans, registry)`` runs, as it
    built the whole document in RAM."""
    events: list[dict] = []
    for run, (label, spans, registry) in enumerate(sources):
        events.extend(chrome_events(spans, run=run, label=label))
        events.extend(
            counter_events(
                counter_series(spans, registry), run=run, label=label
            )
        )
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return len(events)


def one_run(nodes: int = 2) -> None:
    """Serial jobs and one two-node MPI job (proxies and counters)."""
    jobs = [
        JobSpec(program=SleepProgram(0.5), nodes=1, mpi=False)
        for _ in range(3)
    ]
    jobs.append(
        JobSpec(program=BarrierSleepBarrier(1.0), nodes=2, ppn=2, mpi=True)
    )
    Simulation(
        generic_cluster(nodes=nodes, cores_per_node=2), seed=nodes
    ).run_standalone(TaskList(jobs))


@pytest.mark.parametrize("report", [False, True], ids=["no-report", "report"])
@pytest.mark.parametrize("stream", [False, True], ids=["unbounded", "stream"])
def test_chrome_file_equals_whole_document_writer(tmp_path, stream, report):
    spill = tmp_path / "run.jsonl"
    bound = {"stream": True, "window": 16} if stream else {}
    registries = []
    with session(
        trace_out=str(spill), report=report, report_stream=io.StringIO(),
        **bound,
    ) as s:
        for nodes in (2, 3, 4):
            one_run(nodes)
            # Without a report the session drops it when the run ends.
            registries.append(s.runs[-1][2])
    assert len(s.runs) == 3
    records: dict[int, list] = {}
    for run, rec in iter_jsonl(str(spill)):
        records.setdefault(run, []).append(rec)
    sources = [
        (label, build_spans(records[i]), registries[i])
        for i, (label, _trace, _registry) in enumerate(s.runs)
    ]
    ref = tmp_path / "ref.trace.json"
    count = ref_to_chrome_trace(sources, ref)
    expected = ref.read_bytes()
    assert b'"ph": "C"' in expected and b'"name": "proxies' in expected
    assert (tmp_path / "run.trace.json").read_bytes() == expected
    direct = tmp_path / "direct.trace.json"
    assert to_chrome_trace(sources, str(direct)) == count
    assert direct.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "direct.trace.json", "ref.trace.json", "run.jsonl", "run.trace.json",
    ]


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_raising_session_leaves_chrome_out_as_it_was(tmp_path, existing):
    chrome = tmp_path / "run.trace.json"
    if existing:
        chrome.write_text("an earlier export")
    with pytest.raises(RuntimeError, match="body failed"):
        with session(trace_out=str(tmp_path / "run.jsonl"), stream=True):
            one_run()
            one_run()  # attaching it ends the first run's export
            unfinished = {p.name for p in tmp_path.iterdir()} - {
                "run.jsonl", "run.trace.json",
            }
            assert len(unfinished) == 1
            raise RuntimeError("body failed")
    left = sorted(p.name for p in tmp_path.iterdir())
    kept = ["run.trace.json"] if existing else []
    assert left == ["run.jsonl", *kept]
    if existing:
        assert chrome.read_text() == "an earlier export"


def test_unwritable_chrome_path_is_reported_once(tmp_path, capsys):
    chrome = tmp_path / "missing" / "run.trace.json"
    spill = tmp_path / "run.jsonl"
    with session(trace_out=str(spill), chrome_out=str(chrome)):
        for nodes in (2, 3):
            one_run(nodes)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"obs: cannot write {chrome}: ")
    assert not chrome.parent.exists()
    assert spill.stat().st_size > 0


@pytest.mark.parametrize("report", [False, True], ids=["no-report", "report"])
def test_finished_run_fold_is_freed_at_next_attach(tmp_path, report):
    one_run()  # warm
    gc.collect()
    gc.disable()
    try:
        with session(
            chrome_out=str(tmp_path / "run.trace.json"),
            report=report, report_stream=io.StringIO(),
        ) as s:
            one_run()
            fold = weakref.ref(s._fold)
            assert fold() is not None
            one_run()
            # A report renders every run's fold at flush; without one,
            # the fold dies with its run.
            assert (fold() is not None) == report
    finally:
        gc.enable()


@pytest.mark.parametrize("report", [False, True], ids=["no-report", "report"])
@pytest.mark.parametrize("progress", [None, 0.5], ids=["plain", "progress"])
def test_finished_run_registry_is_freed(tmp_path, report, progress):
    with session(
        trace_out=str(tmp_path / "run.jsonl"), stream=True,
        report=report, report_stream=io.StringIO(), progress_every=progress,
    ) as s:
        one_run()
        registry = weakref.ref(s.runs[0][2])
        one_run()
    gc.collect()
    # Only a report reads a registry after its run has ended.
    assert (registry() is not None) == report
    assert all((reg is not None) == report for _l, _t, reg in s.runs)
