"""Tests for trace export: JSONL round-trip and Chrome trace_event."""

import io
import json

import pytest

from repro.apps.synthetic import BarrierSleepBarrier, SleepProgram
from repro.core.jets import JetsConfig, Simulation
from repro.core.tasklist import TaskList
from repro.cluster.machine import generic_cluster
from repro.obs.export import (
    chrome_events,
    iter_jsonl,
    sanitize,
    to_chrome_trace,
    to_jsonl,
)
from repro.obs.spans import build_spans


@pytest.fixture
def traced_run():
    """A small mixed MPI/serial run; returns the platform trace."""
    sim = Simulation(generic_cluster(nodes=4, cores_per_node=2), JetsConfig())
    tasks = TaskList.from_text(
        "MPI: 2 mpi-bench 0.5\nSERIAL: sleep 0.2\n"
    )
    return sim.run_standalone(tasks).platform.trace


class TestSanitize:
    def test_primitives_pass_through(self):
        assert sanitize({"a": 1, "b": [2.5, None, True]}) == {
            "a": 1, "b": [2.5, None, True]
        }

    def test_non_json_values_become_strings(self):
        class Thing:
            def __repr__(self):
                return "<thing>"

        out = sanitize({"obj": Thing(), "s": {1, 2}})
        assert out["obj"] == "<thing>"
        assert isinstance(out["s"], list)


class TestJsonlRoundTrip:
    def test_records_survive_dump_and_reload(self, traced_run, tmp_path):
        path = str(tmp_path / "run.jsonl")
        n = to_jsonl(traced_run, path)
        assert n == len(traced_run.records)
        back = [rec for _run, rec in iter_jsonl(path)]
        assert len(back) == n
        for orig, re in zip(traced_run.records, back):
            assert re.time == orig.time
            assert re.category == orig.category
            assert re.data == sanitize(orig.data)

    def test_spans_identical_after_reload(self, traced_run, tmp_path):
        path = str(tmp_path / "run.jsonl")
        to_jsonl(traced_run, path)
        live = build_spans(traced_run)
        reloaded = build_spans(rec for _run, rec in iter_jsonl(path))
        assert sorted(live.jobs) == sorted(reloaded.jobs)
        for jid, job in live.jobs.items():
            other = reloaded.jobs[jid]
            assert other.ok == job.ok
            assert len(other.attempts) == len(job.attempts)
            assert [
                (tr.time, tr.state)
                for att in other.attempts
                for tr in att.transitions
            ] == [
                (tr.time, tr.state)
                for att in job.attempts
                for tr in att.transitions
            ]

    def test_run_tags_group_and_filter(self, traced_run):
        buf = io.StringIO()
        to_jsonl(traced_run, buf, run=0, label="a")
        to_jsonl(traced_run, buf, run=1, label="b")
        buf.seek(0)
        runs = [run for run, _rec in iter_jsonl(buf)]
        assert runs == [0] * len(traced_run.records) + [1] * len(
            traced_run.records
        )
        buf.seek(0)
        only1 = [run for run, _rec in iter_jsonl(buf, run=1)]
        assert only1 == [1] * len(traced_run.records)


class TestChromeTrace:
    def test_document_structure(self, traced_run, tmp_path):
        path = str(tmp_path / "run.trace.json")
        n = to_chrome_trace(traced_run, path)
        doc = json.loads(open(path).read())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == n > 0
        assert {e["ph"] for e in events} <= {"X", "M"}
        # One process group per entity family: jobs, workers, proxies.
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"jobs", "workers", "proxies"}

    def test_complete_events_have_nonnegative_duration(self, traced_run):
        for ev in chrome_events(build_spans(traced_run)):
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
                assert ev["ts"] >= 0

    def test_multi_run_pids_do_not_collide(self, traced_run):
        buf = io.StringIO()
        to_chrome_trace(
            [("a", traced_run), ("b", traced_run)], buf
        )
        buf.seek(0)
        events = json.load(buf)["traceEvents"]
        pids_a = {e["pid"] for e in events if e["pid"] < 10}
        pids_b = {e["pid"] for e in events if e["pid"] >= 10}
        assert pids_a and pids_b and not (pids_a & pids_b)

    def test_job_slices_cover_lifecycle_states(self, traced_run):
        events = chrome_events(build_spans(traced_run))
        slice_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "queued" in slice_names
        assert "app_running" in slice_names
        assert "busy" in slice_names  # worker timeline


class TestPerfTrailer:
    """The {"meta": "perf"} trailer line and its readers."""

    def _dump(self, traced_run, perf):
        buf = io.StringIO()
        to_jsonl(traced_run, buf, run=0, perf=perf)
        buf.seek(0)
        return buf

    def test_trailer_is_last_line_and_tagged(self, traced_run):
        buf = self._dump(traced_run, {"events": 42, "sim_s": 1.5})
        last = json.loads(buf.getvalue().splitlines()[-1])
        assert last == {"meta": "perf", "run": 0, "events": 42, "sim_s": 1.5}

    def test_record_readers_skip_the_trailer(self, traced_run):
        perf = {"events": 42, "records": len(traced_run.records)}
        buf = self._dump(traced_run, perf)
        runs = [run for run, _rec in iter_jsonl(buf)]
        assert runs == [0] * len(traced_run.records)

    @staticmethod
    def _perf(buf):
        perf = {}
        for _ in iter_jsonl(buf, on_perf=perf.__setitem__):
            pass
        return perf

    def test_jsonl_perf_collects_per_run(self, traced_run):
        buf = io.StringIO()
        to_jsonl(traced_run, buf, run=0, perf={"events": 1})
        to_jsonl(traced_run, buf, run=1, perf={"events": 2})
        to_jsonl(traced_run, buf, run=2)  # no trailer for this run
        buf.seek(0)
        assert self._perf(buf) == {0: {"events": 1}, 1: {"events": 2}}

    def test_dumps_without_trailer_yield_empty_perf(self, traced_run):
        buf = io.StringIO()
        to_jsonl(traced_run, buf)
        buf.seek(0)
        assert self._perf(buf) == {}
