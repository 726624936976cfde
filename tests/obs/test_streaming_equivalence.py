"""In-RAM vs streaming sink equivalence on real experiment runs.

The streaming pipeline's core promise: switching a run to the windowed,
spill-to-disk sink changes its memory profile and nothing else.  Same
seed → the spilled JSONL is byte-identical to the in-RAM dump, the
rendered report is identical (modulo the wall-clock line, which is live
telemetry and never part of the archive), and the chaos validators reach
identical verdicts.
"""

from __future__ import annotations

import io
import itertools
import json

import pytest

import repro.core.tasklist as tasklist
import repro.core.worker as worker
from repro.cluster.machine import generic_cluster
from repro.cluster.platform import Platform
from repro.core.chaos import ChaosConfig, run_chaos_plan
from repro.experiments import ablations, fig06_sequential, fig07_cluster
from repro.experiments import fig10_faults
from repro.obs import session as obs_session


def _reset_id_counters():
    """Fresh module-global id streams, as in a new interpreter."""
    worker._worker_seq = itertools.count()
    tasklist._spec_seq = itertools.count()


def _fig06(path=None, **session_kwargs):
    _reset_id_counters()
    if path is not None:
        session_kwargs["trace_out"] = str(path)
    with obs_session(**session_kwargs):
        rows = fig06_sequential.run(node_sizes=(4,), tasks_per_node=2, seed=7)
    assert rows[0]["completed"] == 8


def _strip_wall(report: str) -> str:
    """Drop the wall-clock perf line: live-only, varies run to run."""
    return "\n".join(
        line for line in report.splitlines() if "wall" not in line
    )


class TestDumpEquivalence:
    def test_fig06_spill_is_byte_identical_to_in_ram_dump(self, tmp_path):
        ram = tmp_path / "ram.jsonl"
        stream = tmp_path / "stream.jsonl"
        _fig06(ram)
        # A window far smaller than the record count: nearly every
        # record passes through eviction + spill, not the final drain.
        _fig06(stream, stream=True, window=16)
        assert ram.read_bytes() == stream.read_bytes()
        assert ram.read_bytes()  # the run actually produced records

    def test_fig06_streaming_dump_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _fig06(a, stream=True, window=16)
        _fig06(b, stream=True, window=16)
        assert a.read_bytes() == b.read_bytes()

    def test_heartbeats_are_deterministic_and_tagged(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _fig06(a, stream=True, window=16, progress_every=2.0)
        _fig06(b, stream=True, window=16, progress_every=2.0)
        assert a.read_bytes() == b.read_bytes()
        beats = [
            json.loads(ln)
            for ln in a.read_text().splitlines()
            if json.loads(ln).get("cat") == "obs.progress"
        ]
        assert beats
        for beat in beats:
            assert beat["data"]["events"] > 0
            assert beat["data"]["records"] > 0
            assert set(beat["data"]["jobs"]) == {"done", "failed"}

    def test_trailer_matches_in_ram_perf(self, tmp_path):
        ram = tmp_path / "ram.jsonl"
        stream = tmp_path / "stream.jsonl"
        _fig06(ram)
        _fig06(stream, stream=True, window=16)
        ram_trailer = json.loads(ram.read_text().splitlines()[-1])
        stream_trailer = json.loads(stream.read_text().splitlines()[-1])
        assert ram_trailer == stream_trailer
        assert ram_trailer["meta"] == "perf"


class TestReportEquivalence:
    def test_fig06_report_identical_modulo_wall_line(self, tmp_path):
        ram_out, stream_out = io.StringIO(), io.StringIO()
        _fig06(report=True, report_stream=ram_out)
        _fig06(report=True, report_stream=stream_out, stream=True, window=16)
        ram_report = _strip_wall(ram_out.getvalue())
        stream_report = _strip_wall(stream_out.getvalue())
        assert ram_report == stream_report
        assert "throughput" in ram_report or ram_report  # non-empty

    def test_chrome_trace_identical_under_streaming(self, tmp_path):
        ram = tmp_path / "ram.trace.json"
        stream = tmp_path / "stream.trace.json"
        _fig06(chrome_out=str(ram))
        _fig06(chrome_out=str(stream), stream=True, window=16)
        assert json.loads(ram.read_text()) == json.loads(stream.read_text())


class TestChaosVerdictEquivalence:
    def _plan(self, index, **session_kwargs):
        _reset_id_counters()
        config = ChaosConfig(plans=1, serial_tasks=6, mpi_tasks=1)
        with obs_session(**session_kwargs):
            return run_chaos_plan(config, index)

    def test_chaos_mix_verdicts_identical_under_streaming(self):
        for index in (0, 3):
            ram = self._plan(index)
            stream = self._plan(index, stream=True, window=64)
            assert ram.drained == stream.drained
            assert ram.problems == stream.problems
            assert ram.injected == stream.injected
            assert ram.wire_count == stream.wire_count
            assert (ram.jobs_ok, ram.jobs_failed, ram.jobs_submitted) == (
                stream.jobs_ok,
                stream.jobs_failed,
                stream.jobs_submitted,
            )
            assert ram.ok and stream.ok


class TestMultiRunParity:
    """Sweeps of several platforms: one spill file, runs closed in turn."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda: fig07_cluster.run(alloc_sizes=(8,), jobs_per_node=2),
            lambda: ablations.run_dispatcher_sensitivity(nodes=16),
        ],
        ids=["fig07", "dispatcher_sensitivity"],
    )
    def test_windowed_dump_is_byte_identical(self, tmp_path, driver):
        dumps, runs = [], []
        for name, bound in (("ram", {}), ("window", {"window": 16})):
            _reset_id_counters()
            path = tmp_path / f"{name}.jsonl"
            kwargs = {"stream": True, **bound} if bound else {}
            with obs_session(trace_out=str(path), **kwargs) as s:
                driver()
            dumps.append(path.read_bytes())
            runs.append(s.runs)
        assert dumps[0] == dumps[1]
        assert len(runs[0]) == len(runs[1]) == 4
        # No run logged into its trace after the next run closed it.
        assert all(t.late == 0 for rs in runs for _l, t, _r in rs)


class TestWindowedQueries:
    """A driver that queries its trace after the run cannot answer from
    a window: it says so instead of computing from a partial trace."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda: fig10_faults.run(
                workers=8, fault_interval=5.0, task_duration=1.0
            ),
        ],
        ids=["fig10"],
    )
    def test_query_after_eviction_raises(self, driver):
        _reset_id_counters()
        with pytest.raises(ValueError, match=r"retained 16 of \d+ records"):
            with obs_session(stream=True, window=16):
                driver()


class TestFoldedAblations:
    """A3 and A4 fold the records they need as they are logged, so a
    bounded session changes neither their rows nor their dumps."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda: ablations.run_grouping(nodes=27, jobs=12),
            lambda: ablations.run_spectrum(workers=8),
        ],
        ids=["grouping", "spectrum"],
    )
    def test_rows_and_dumps_match_under_every_session(self, tmp_path, driver):
        _reset_id_counters()
        rows = [driver()]
        dumps = []
        for name, bound in (("ram", {}), ("window", {"window": 16})):
            _reset_id_counters()
            path = tmp_path / f"{name}.jsonl"
            kwargs = {"stream": True, **bound} if bound else {}
            with obs_session(trace_out=str(path), **kwargs):
                rows.append(driver())
            chrome = tmp_path / f"{name}.trace.json"
            dumps.append((path.read_bytes(), chrome.read_bytes()))
        assert rows[0] == rows[1] == rows[2]
        assert dumps[0] == dumps[1]
        assert dumps[0][0]  # the runs actually produced records


class TestCounterTracks:
    @staticmethod
    def _counter_run(path, **session_kwargs):
        with obs_session(chrome_out=str(path), **session_kwargs):
            platform = Platform(generic_cluster(nodes=2))
            ops = platform.metrics.counter("ops", traced=True)

            def proc(env):
                for _ in range(10):
                    ops.incr()
                    yield env.timeout(1.0)

            platform.env.process(proc(platform.env))
            platform.env.run()
        return json.loads(path.read_text())

    def test_traced_counter_track_survives_a_window(self, tmp_path):
        ram = self._counter_run(tmp_path / "ram.trace.json")
        windowed = self._counter_run(
            tmp_path / "window.trace.json", stream=True, window=4
        )
        ops = [
            e["args"]["value"]
            for e in windowed["traceEvents"]
            if e.get("ph") == "C" and e["name"] == "ops"
        ]
        assert ops == [float(v) for v in range(1, 11)]
        assert windowed == ram
