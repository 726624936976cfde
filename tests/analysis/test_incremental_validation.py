"""Incremental validators vs post-hoc scans, bounded trace or not.

The trace and protocol oracles were converted from post-hoc full scans
to incremental subscribers so they can ride a trace with a retention
window.  These tests pin the refactor's contract: feeding records one at
a time — including through a Trace whose window is far smaller than the
stream, so most records are evicted right after fan-out — produces the
exact issue list the legacy whole-trace scan reports.
"""

from __future__ import annotations

from repro.analysis.protocol import (
    SessionValidator,
    WireMessage,
    validate_sessions,
)
from repro.analysis.tracecheck import TraceValidator, validate_records
from repro.simkernel import Trace, TraceRecord


def _mixed_stream():
    """A record stream with known-good and known-bad entries mixed in."""
    records = []
    t = 0.0
    for job in range(6):
        records.append(TraceRecord(t, "job.submit", {"job": job}))
        t += 0.5
        records.append(TraceRecord(t, "job.start", {"job": job}))
        t += 0.5
        records.append(TraceRecord(t, "job.done", {"job": job}))
        t += 0.5
    # TV001: unknown category.
    records.append(TraceRecord(t, "job.totally-made-up", {"job": 99}))
    # TV005: lifecycle record without its id key.
    records.append(TraceRecord(t + 0.5, "job.done", {"nope": 1}))
    # TV004: done without submit/start.
    records.append(TraceRecord(t + 1.0, "job.done", {"job": 77}))
    # TV003: time goes backwards.
    records.append(TraceRecord(0.25, "job.submit", {"job": 78}))
    return records


class TestTraceValidatorEquivalence:
    def test_incremental_feed_equals_post_hoc_scan(self):
        records = _mixed_stream()
        post_hoc = validate_records(records)
        incremental = TraceValidator()
        for rec in records:
            incremental.feed(rec)
        assert [
            (i.code, i.index, i.category) for i in incremental.issues
        ] == [(i.code, i.index, i.category) for i in post_hoc]
        assert incremental.records_seen == len(records)
        assert {i.code for i in post_hoc} >= {
            "TV001",
            "TV003",
            "TV004",
            "TV005",
        }

    def test_windowed_sink_fold_matches_in_ram_fold(self, env):
        """Same synthetic stream through both sinks → same verdicts."""
        ram, streaming = Trace(env), Trace(env, window=3)
        v_ram, v_stream = TraceValidator(), TraceValidator()
        ram.subscribe(v_ram.feed)
        streaming.subscribe(v_stream.feed)
        for i in range(30):
            for sink in (ram, streaming):
                sink.log("job.submit", {"job": i})
                sink.log("job.start", {"job": i})
                if i % 7 == 0:  # TV004: double start
                    sink.log("job.start", {"job": i})
                sink.log("job.done", {"job": i})
        assert [(i.code, i.index) for i in v_stream.issues] == [
            (i.code, i.index) for i in v_ram.issues
        ]
        assert v_stream.issues  # the stream really contained violations
        # Eviction discarded most records, yet the fold saw them all.
        assert streaming.retained == 3
        assert v_stream.records_seen == streaming.total

    def test_check_flags_narrow_the_fold(self):
        records = _mixed_stream()
        schema_only = TraceValidator(check_lifecycle=False)
        lifecycle_only = TraceValidator(check_schema=False)
        for rec in records:
            schema_only.feed(rec)
            lifecycle_only.feed(rec)
        assert all(
            i.code in ("TV001", "TV002", "TV003")
            for i in schema_only.issues
        )
        assert all(
            i.code in ("TV003", "TV004", "TV005")
            for i in lifecycle_only.issues
        )


def _msg(conn, kind, *fields, time=0.0):
    return WireMessage(
        conn=conn,
        channel="jets",
        kind=kind,
        payload=(kind,) + fields,
        sender="test",
        service="jets",
        time=time,
    )


def _jets_messages():
    """A jets-channel session with one protocol violation mixed in."""
    return [
        _msg(1, "register", 0, 0, 2, time=0.0),
        _msg(1, "ready", 0, time=0.5),
        _msg(1, "run_task", {"job": 0}, time=1.0),
        _msg(1, "done", 0, 0, "ok", None, time=1.5),
        _msg(1, "not-a-kind", time=2.0),
        _msg(1, "shutdown", time=2.5),
    ]


class TestSessionValidatorEquivalence:
    def test_incremental_feed_equals_post_hoc_scan(self):
        msgs = _jets_messages()
        post_hoc = validate_sessions(msgs)
        incremental = SessionValidator()
        for msg in msgs:
            incremental.feed(msg)
        assert incremental.finish() == post_hoc
        assert post_hoc  # the stream really contained a violation

    def test_finish_is_stable_across_calls(self):
        incremental = SessionValidator()
        for msg in _jets_messages():
            incremental.feed(msg)
        assert incremental.finish() == incremental.finish()

    def test_clean_session_reports_nothing(self):
        msgs = [m for m in _jets_messages() if m.kind != "not-a-kind"]
        incremental = SessionValidator()
        for msg in msgs:
            incremental.feed(msg)
        assert incremental.finish() == validate_sessions(msgs) == []
