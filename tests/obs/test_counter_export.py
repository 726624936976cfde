"""Perfetto counter export: gauge series → ``"ph": "C"`` tracks."""

from __future__ import annotations

import json

from repro.obs.export import (
    _PID_COUNTERS,
    _RUN_STRIDE,
    counter_events,
    counter_series,
    to_chrome_trace,
)
from repro.obs.metrics import Registry
from repro.obs.spans import build_spans
from repro.simkernel import Trace


def _gauge_run(env):
    """A trace + registry with one stepped gauge and one traced counter."""
    trace = Trace(env)
    reg = Registry(env, trace)
    gauge = reg.gauge("busy_cores")
    ops = reg.counter("ops", traced=True)

    def proc():
        for level in (2, 5, 3):
            gauge.set(level)
            ops.incr()
            trace.log("worker.beat", {"worker": 0})
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    return trace, reg


class TestCounterSeries:
    def test_merges_registry_gauges_and_counter_records(self, env):
        trace, reg = _gauge_run(env)
        series = counter_series(trace, reg)
        assert set(series) == {"busy_cores", "ops"}
        # Gauge breakpoints come straight from the registry (including
        # the initial level at construction time).
        assert series["busy_cores"][-1] == (2.0, 3.0)
        # counter.* mirror records supply (time, value) steps.
        assert series["ops"] == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_sources_contribute_independently(self, env):
        trace, reg = _gauge_run(env)
        # The trace supplies counter.* mirror records; the registry
        # supplies gauge breakpoint series (counters are not gauges).
        assert set(counter_series(trace)) == {"ops"}
        assert set(counter_series(None, reg)) == {"busy_cores"}
        assert counter_series(None, None) == {}

    def test_runspans_source_contributes_its_counters(self, env):
        trace, reg = _gauge_run(env)
        # The span fold keeps the counter.* series, so spans folded live
        # (a bounded trace's only form) export the same counter tracks.
        spans = build_spans(trace)
        assert counter_series(spans, reg) == counter_series(trace, reg)
        assert set(counter_series(spans)) == {"ops"}

    def test_record_iterable_source(self, env):
        trace, _reg = _gauge_run(env)
        assert counter_series(list(trace.records)) == counter_series(trace)


class TestCounterEvents:
    def test_empty_series_yields_no_events(self):
        assert counter_events({}) == []

    def test_counter_track_structure(self, env):
        trace, reg = _gauge_run(env)
        events = counter_events(counter_series(trace, reg), run=1,
                                label="fig06")
        metas = [e for e in events if e["ph"] == "M"]
        counters = [e for e in events if e["ph"] == "C"]
        pid = 1 * _RUN_STRIDE + _PID_COUNTERS
        assert all(e["pid"] == pid for e in events)
        process = [m for m in metas if m["name"] == "process_name"]
        assert process[0]["args"]["name"] == "counters [fig06]"
        # One thread per series name, tids assigned in sorted-name order.
        threads = [m for m in metas if m["name"] == "thread_name"]
        assert [(m["tid"], m["args"]["name"]) for m in threads] == [
            (0, "busy_cores"),
            (1, "ops"),
        ]
        for event in counters:
            assert event["cat"] == "jets"
            assert "value" in event["args"]
            assert event["ts"] >= 0

    def test_timestamps_are_microseconds(self):
        events = counter_events({"g": [(1.5, 2.0)]})
        counter = [e for e in events if e["ph"] == "C"][0]
        assert counter["ts"] == 1.5e6
        assert counter["args"]["value"] == 2.0


class TestChromeTraceCounters:
    def test_registry_tuples_emit_counter_tracks(self, env, tmp_path):
        trace, reg = _gauge_run(env)
        out = tmp_path / "t.trace.json"
        to_chrome_trace([("demo", trace, reg)], str(out))
        doc = json.loads(out.read_text())
        counters = [
            e for e in doc["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters
        assert {e["name"] for e in counters} == {"busy_cores", "ops"}
        # Counter tracks live in their own process, away from span pids.
        span_pids = {
            e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert _PID_COUNTERS not in span_pids

    def test_two_run_counter_pids_do_not_collide(self, env, tmp_path):
        trace, reg = _gauge_run(env)
        out = tmp_path / "t.trace.json"
        to_chrome_trace(
            [("a", trace, reg), ("b", trace, reg)], str(out)
        )
        doc = json.loads(out.read_text())
        pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "C"}
        assert pids == {
            _PID_COUNTERS,
            _RUN_STRIDE + _PID_COUNTERS,
        }
