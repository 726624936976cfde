"""Live progress: heartbeat emission, reader folds, follow/top CLIs."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.export import iter_jsonl
from repro.obs.metrics import Registry
from repro.obs.progress import (
    OBS_PROGRESS,
    LiveRunState,
    ProgressTracker,
    RunProgress,
    follow,
    render_top,
    top_main,
)
from repro.simkernel import Trace, TraceRecord


def _drive(env, sink, n=12, step=0.5, cat="job.done"):
    def proc():
        for i in range(n):
            sink.log(cat, {"job": i})
            yield env.timeout(step)

    env.process(proc())
    env.run()


class TestProgressTracker:
    def test_heartbeats_fire_on_sim_time_crossings(self, env):
        t = Trace(env)
        tracker = ProgressTracker(t, every=2.0)
        _drive(env, t, n=12, step=0.5)  # 6 sim-seconds of records
        assert tracker.emitted == 2
        beats = t.select(OBS_PROGRESS)
        assert len(beats) == 2
        # The heartbeat is itself tallied like any record, but never
        # triggers a heartbeat-of-a-heartbeat.
        assert tracker.records == 12 + 2
        assert tracker.counts["obs"] == 2

    def test_payload_is_deterministic_tallies(self, env):
        t = Trace(env)
        ProgressTracker(t, every=1.0)
        _drive(env, t, n=6, step=0.5)
        last = t.select(OBS_PROGRESS)[-1].data
        # Snapshotted at emit time, so bounded by the final kernel count.
        assert 0 < last["events"] <= env.events_processed
        assert last["jobs"] == {"done": last["counts"]["job"], "failed": 0}
        assert set(last) <= {"events", "records", "jobs", "counts", "gauges"}

    def test_gauge_levels_ride_along_when_registry_given(self, env):
        t = Trace(env)
        reg = Registry(env, t)
        gauge = reg.gauge("busy_cores")
        tracker = ProgressTracker(t, every=1.0, registry=reg)
        gauge.set(3)
        _drive(env, t, n=4, step=0.5)
        beat = t.select(OBS_PROGRESS)[-1].data
        assert beat["gauges"] == {"busy_cores": 3.0}
        assert tracker.emitted >= 1

    def test_silent_stream_emits_nothing(self, env):
        t = Trace(env)
        tracker = ProgressTracker(t, every=1.0)
        env.run()  # no records logged at all
        assert tracker.emitted == 0
        assert not t.select(OBS_PROGRESS)

    def test_works_on_streaming_sink_across_eviction(self, env):
        t = Trace(env, window=4)
        tracker = ProgressTracker(t, every=1.0)
        _drive(env, t, n=40, step=0.25)
        assert tracker.emitted > 0
        assert tracker.records == 40 + tracker.emitted

    def test_rejects_nonpositive_interval(self, env):
        with pytest.raises(ValueError):
            ProgressTracker(Trace(env), every=0.0)


class TestParseLine:
    """The one JSONL line parser (:func:`repro.obs.export.iter_jsonl`),
    as ``jets top`` and ``jets report --follow`` read through it."""

    GOOD = b'{"t":0.0,"cat":"job.done","data":{"job":1}}\n'

    def test_record_line(self):
        buf = io.BytesIO(
            b'{"t":1.5,"cat":"job.done","data":{"job":3},"run":2}\n'
        )
        assert list(iter_jsonl(buf)) == [
            (2, TraceRecord(1.5, "job.done", {"job": 3}))
        ]

    def test_perf_trailer(self):
        perf = {}
        buf = io.BytesIO(
            b'{"meta":"perf","run":1,"events":10,"records":4,"sim_s":2.0}\n'
        )
        assert list(iter_jsonl(buf, on_perf=perf.__setitem__)) == []
        assert perf == {1: {"events": 10, "records": 4, "sim_s": 2.0}}

    @pytest.mark.parametrize(
        "raw",
        [
            "",
            "   ",
            "not json at all",
            '{"t": 1.0',  # torn tail
            "[1, 2, 3]",
            '{"meta":"other"}',
            '{"cat":"job.done"}',  # missing time
        ],
    )
    def test_garbage_and_partials_are_skipped(self, raw):
        # Bytes after the last newline are a write still in progress:
        # never parsed, and left unread for the stream's owner.
        buf = io.BytesIO(self.GOOD + raw.encode())
        assert list(iter_jsonl(buf)) == [
            (0, TraceRecord(0.0, "job.done", {"job": 1}))
        ]
        assert buf.read() == raw.encode()

    @pytest.mark.parametrize(
        "raw",
        [
            "not json at all",
            "[1, 2, 3]",
            '{"cat":"job.done"}',
            '{"t":NaN,"cat":"job.done"}',
            '{"t":0.0,"cat":"job.done","run":-1}',
            '{"meta":"perf","sim_s":"y"}',
        ],
    )
    def test_finished_garbage_line_names_its_line(self, raw):
        buf = io.BytesIO(self.GOOD + raw.encode() + b"\n" + self.GOOD)
        with pytest.raises(ValueError, match=r"^<stream>:2: "):
            list(iter_jsonl(buf))

    def test_reader_picks_up_where_it_stopped(self):
        line = b'{"t":1.0,"cat":"job.done","data":{"job":2}}\n'
        buf = io.BytesIO(self.GOOD + line[:10])
        assert len(list(iter_jsonl(buf))) == 1
        buf.seek(0, io.SEEK_END)
        buf.write(line[10:])
        buf.seek(len(self.GOOD))
        assert list(iter_jsonl(buf)) == [
            (0, TraceRecord(1.0, "job.done", {"job": 2}))
        ]


class TestLiveRunState:
    def _spill(self, tmp_path, env):
        path = tmp_path / "run.jsonl"
        t = Trace(env, window=8, spill=str(path), run=0,
                           truncate=True)
        ProgressTracker(t, every=1.0)
        _drive(env, t, n=10, step=0.5)
        t.close(perf=t.perf())
        return path

    def test_fold_tracks_runs_and_completion(self, tmp_path, env):
        path = self._spill(tmp_path, env)
        state = LiveRunState()
        for run, rec in iter_jsonl(str(path), on_perf=state.note_perf):
            state.fold(run, rec)
        assert state.complete
        rp = state.runs[0]
        assert rp.jobs_done == 10
        assert rp.heartbeat is not None
        assert rp.records == rp.perf["records"]
        assert "complete" in rp.status_line()

    def test_incomplete_until_trailer(self):
        state = LiveRunState()
        state.fold(0, TraceRecord(0.0, "job.done", {"job": 1}))
        assert not state.complete
        state.note_perf(0, {"records": 1})
        assert state.complete

    def test_empty_state_is_not_complete(self):
        assert not LiveRunState().complete


class TestRenderTop:
    def test_snapshot_includes_families_heartbeat_and_perf(self):
        state = LiveRunState()
        rp = state.run(0)
        rp.fold(TraceRecord(1.0, "job.done", {"job": 1}))
        rp.fold(
            TraceRecord(
                2.0,
                OBS_PROGRESS,
                {"events": 9, "records": 1, "gauges": {"busy": 2.0}},
            )
        )
        state.note_perf(0, {"records": 2, "sim_s": 2.0})
        out = render_top(state, title="trace.jsonl")
        assert "trace.jsonl" in out
        assert "families: job=1  obs=1" in out
        assert "heartbeat: events=9" in out
        assert "gauges: busy=2" in out
        assert "perf: records=2  sim_s=2.0" in out

    def test_empty_state_renders_placeholder(self):
        assert "(no trace records yet)" in render_top(LiveRunState())


class TestFollowAndTopClis:
    def _complete_spill(self, tmp_path, env):
        path = tmp_path / "run.jsonl"
        t = Trace(env, window=8, spill=str(path), run=0,
                           truncate=True)
        ProgressTracker(t, every=1.0)
        _drive(env, t, n=8, step=0.5)
        t.close(perf=t.perf())
        return path

    def test_follow_completed_file_exits_zero(self, tmp_path, env):
        path = self._complete_spill(tmp_path, env)
        out = io.StringIO()
        assert follow(str(path), out=out, poll=0.01) == 0
        text = out.getvalue()
        assert "[run 0]" in text
        assert "(complete)" in text
        # One line per heartbeat plus the completion line.
        beats = sum(
            1 for ln in path.read_text().splitlines()
            if json.loads(ln).get("cat") == OBS_PROGRESS
        )
        assert len(text.splitlines()) == beats + 1

    def test_follow_missing_file_exits_two(self, tmp_path, capsys):
        assert follow(str(tmp_path / "nope.jsonl"), poll=0.01) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_follow_idle_without_trailer_exits_one(self, tmp_path, capsys):
        path = tmp_path / "stalled.jsonl"
        path.write_text('{"t":0.0,"cat":"job.submit","data":{"job":0}}\n')
        rc = follow(str(path), out=io.StringIO(), poll=0.01,
                    idle_timeout=0.05)
        assert rc == 1
        assert "giving up" in capsys.readouterr().err

    def test_top_main_snapshots_a_dump(self, tmp_path, env, capsys):
        path = self._complete_spill(tmp_path, env)
        assert top_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "[run 0]" in out
        assert "(complete)" in out

    def test_top_main_missing_file_exits_two(self, tmp_path, capsys):
        assert top_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
