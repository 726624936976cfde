"""Trace retention windows, the spill file, subscriber contract.

A bounded ``Trace`` must behave like an unbounded one at the subscriber
and archival layers: every record reaches subscribers exactly once
(before any eviction), and a fully-spilled JSONL file is byte-identical
to a dump of the same log sequence.  The queries need every record, so
they refuse once the window has evicted one — and these tests pin that
boundary too.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.simkernel import Environment, Trace
from repro.obs.export import to_jsonl

#: Categories used by the synthetic streams below (schema validity is
#: irrelevant at this layer; the sink never inspects payloads).
_CATS = ("job.submit", "job.done", "worker.beat")


def _log_n(sink, n, with_time=False):
    """Log ``n`` synthetic records; optionally advance sim time per record."""
    if not with_time:
        for i in range(n):
            sink.log(_CATS[i % len(_CATS)], {"i": i})
        return

    def proc():
        for i in range(n):
            sink.log(_CATS[i % len(_CATS)], {"i": i})
            yield sink.env.timeout(0.5)

    sink.env.process(proc())
    sink.env.run()


class TestWindowRetention:
    def test_window_never_exceeds_high_water(self, env):
        t = Trace(env, window=16)
        for i in range(100):
            t.log("job.submit", {"i": i})
            assert t.retained <= 16
        assert t.retained == 16
        assert t.total == 100
        assert len(t) == 100  # __len__ is the all-time count

    def test_eviction_is_oldest_first_no_gap_no_dup(self, env):
        t = Trace(env, window=8)
        _log_n(t, 50)
        kept = [r.data["i"] for r in t.window]
        assert kept == list(range(42, 50))

    def test_drop_counting_without_spill(self, env):
        t = Trace(env, window=10)
        _log_n(t, 25)
        assert t.dropped == 15
        assert t.total == t.retained + t.dropped

    def test_counts_and_categories_survive_eviction(self, env):
        t = Trace(env, window=2)
        _log_n(t, 30)
        assert sum(t.counts().values()) == 30
        assert t.counts()["job.submit"] == 10
        assert t.counts("job.")["job.done"] == 10
        assert "worker.beat" not in t.counts("job.")
        # First-appearance order, even though the early records are gone.
        assert t.categories() == list(_CATS)
        assert t.categories("worker.") == ["worker.beat"]

    def test_queries_refuse_after_eviction(self, env):
        t = Trace(env, window=6)
        _log_n(t, 6)
        assert len(t.records) == 6  # nothing evicted yet: queries answer
        _log_n(t, 24)
        queries = (
            lambda: t.records,
            lambda: list(t),
            lambda: t.select("job.submit"),
            lambda: t.select("job.", prefix=True),
            lambda: t.times("worker.beat"),
        )
        for query in queries:
            with pytest.raises(ValueError, match="retained 6 of 30 records"):
                query()
        # The all-time counts still cover every record.
        assert sum(t.counts().values()) == len(t) == 30

    def test_window_floor_is_one(self, env):
        t = Trace(env, window=0)
        _log_n(t, 5)
        assert t.high_water == 1
        assert t.retained == 1
        assert t.window[0].data["i"] == 4


class TestUnbounded:
    def test_index_extends_over_records_logged_after_a_query(self, env):
        t = Trace(env)
        _log_n(t, 6)
        assert [r.data["i"] for r in t.select("job.done")] == [1, 4]
        _log_n(t, 6)
        assert [r.data["i"] for r in t.select("job.done")] == [1, 4, 1, 4]
        assert len(t.times("job.", prefix=True)) == 8
        assert t.categories() == list(_CATS)

    def test_close_spills_and_keeps_the_records(self, env, tmp_path):
        spill = tmp_path / "all.jsonl"
        t = Trace(env, spill=str(spill), run=0, label="x", truncate=True)
        _log_n(t, 10, with_time=True)
        t.close(perf=t.perf())
        dump = tmp_path / "dump.jsonl"
        to_jsonl(t.records, str(dump), run=0, label="x", perf=t.perf())
        assert spill.read_bytes() == dump.read_bytes()
        assert t.spilled == len(t.records) == 10
        t.log("worker.stop", {"worker": 1})  # after close: counted only
        assert t.late == 1
        assert len(t.records) == len(t) == 10


class TestSpill:
    def _mirror(self, env, n, tmp_path, window=8, with_time=True):
        """Drive an unbounded Trace and a spilling bounded one in lockstep."""
        ram = Trace(env)
        spill = tmp_path / "stream.jsonl"
        st = Trace(
            env, window=window, spill=str(spill), run=0, truncate=True
        )

        def proc():
            for i in range(n):
                cat = _CATS[i % len(_CATS)]
                ram.log(cat, {"i": i})
                st.log(cat, {"i": i})
                yield env.timeout(0.25)

        env.process(proc())
        env.run()
        return ram, st, spill

    def test_spill_is_byte_identical_to_in_ram_dump(self, env, tmp_path):
        ram, st, spill = self._mirror(env, 100, tmp_path)
        perf = st.perf()
        st.close(perf=perf)
        dump = tmp_path / "ram.jsonl"
        with open(dump, "w") as fh:
            to_jsonl(ram, fh, run=0, perf=perf)
        assert spill.read_bytes() == dump.read_bytes()
        assert st.spilled == 100
        assert st.dropped == 0

    def test_trailer_is_last_line_and_tagged(self, env, tmp_path):
        _ram, st, spill = self._mirror(env, 20, tmp_path)
        st.close(perf=st.perf())
        lines = spill.read_text().splitlines()
        assert len(lines) == 21
        trailer = json.loads(lines[-1])
        assert trailer["meta"] == "perf"
        assert trailer["run"] == 0
        assert trailer["records"] == 20
        assert all("meta" not in json.loads(ln) for ln in lines[:-1])

    def test_segments_flush_during_the_run(self, env, tmp_path):
        spill = tmp_path / "seg.jsonl"
        st = Trace(env, window=4, spill=str(spill), truncate=True)
        _log_n(st, 40)
        st.flush()
        # Evicted records are on disk mid-run once flushed (the file is
        # a valid, growing JSONL prefix), window still retained.
        on_disk = spill.read_text().splitlines()
        assert len(on_disk) == st.spilled == 36
        assert [json.loads(ln)["data"]["i"] for ln in on_disk] == list(
            range(36)
        )
        assert st.retained == 4

    def test_close_drains_window_and_is_idempotent(self, env, tmp_path):
        spill = tmp_path / "d.jsonl"
        st = Trace(env, window=64, spill=str(spill), truncate=True)
        _log_n(st, 10)
        assert st.retained == 10
        st.close(perf={"records": 10})
        st.close(perf={"records": 999})  # no-op: no second trailer
        lines = spill.read_text().splitlines()
        assert len(lines) == 11
        assert json.loads(lines[-1])["records"] == 10
        assert st.retained == 0

    def test_late_records_after_close_are_counted_not_written(
        self, env, tmp_path
    ):
        spill = tmp_path / "l.jsonl"
        st = Trace(env, window=4, spill=str(spill), truncate=True)
        _log_n(st, 6)
        st.close(perf=st.perf())
        st.log("worker.stop", {"worker": 1})
        st.log("worker.stop", {"worker": 2})
        assert st.late == 2
        assert st.total == 6
        assert len(spill.read_text().splitlines()) == 7

    def test_append_mode_stacks_runs_in_one_file(self, env, tmp_path):
        spill = tmp_path / "multi.jsonl"
        first = Trace(
            env, window=4, spill=str(spill), run=0, truncate=True
        )
        _log_n(first, 6)
        first.close(perf=first.perf())
        second = Trace(
            env, window=4, spill=str(spill), run=1, truncate=False
        )
        _log_n(second, 4)
        second.close(perf=second.perf())
        runs = [json.loads(ln).get("run") for ln in spill.read_text().splitlines()]
        assert runs == [0] * 7 + [1] * 5

    def test_label_lands_on_every_record_line(self, env, tmp_path):
        spill = tmp_path / "lbl.jsonl"
        st = Trace(
            env, window=2, spill=str(spill), run=0, label="fig06",
            truncate=True,
        )
        _log_n(st, 5)
        st.close(perf=st.perf())
        lines = [json.loads(ln) for ln in spill.read_text().splitlines()]
        assert all(ln["label"] == "fig06" for ln in lines[:-1])


class TestSubscriberContract:
    def test_every_record_delivered_exactly_once_across_eviction(self, env):
        t = Trace(env, window=4)
        seen: list[int] = []
        t.subscribe(lambda rec: seen.append(rec.data["i"]))
        _log_n(t, 200)
        assert seen == list(range(200))

    def test_subscriber_sees_record_before_eviction(self, env):
        t = Trace(env, window=1)
        observed: list[bool] = []
        # With window=1 the record that triggers eviction is itself
        # retained; the *previous* record is evicted only after this
        # one's fan-out — so the newest record is always in the window
        # when the subscriber runs.
        t.subscribe(lambda rec: observed.append(t.window[-1] is rec))
        _log_n(t, 20)
        assert all(observed)

    def test_unsubscribe_stops_delivery(self, env):
        t = Trace(env, window=8)
        seen: list[int] = []
        fn = t.subscribe(lambda rec: seen.append(rec.data["i"]))
        _log_n(t, 3)
        t.unsubscribe(fn)
        _log_n(t, 3)
        assert seen == [0, 1, 2]

    def test_in_ram_and_streaming_fan_out_identically(self, env):
        ram, st = Trace(env), Trace(env, window=2)
        ram_seen: list[tuple] = []
        st_seen: list[tuple] = []
        ram.subscribe(lambda r: ram_seen.append((r.time, r.category, r.data)))
        st.subscribe(lambda r: st_seen.append((r.time, r.category, r.data)))
        for i in range(50):
            ram.log(_CATS[i % 3], {"i": i})
            st.log(_CATS[i % 3], {"i": i})
        assert ram_seen == st_seen


class TestBoundedMemory:
    def _alloc_peak(self, make_sink, n) -> int:
        env = Environment()
        sink = make_sink(env)
        tracemalloc.start()
        try:
            _log_n(sink, n)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_streaming_peak_is_flat_while_in_ram_grows(self):
        stream_small = self._alloc_peak(
            lambda env: Trace(env, window=256), 20_000
        )
        stream_large = self._alloc_peak(
            lambda env: Trace(env, window=256), 40_000
        )
        ram_large = self._alloc_peak(lambda env: Trace(env), 40_000)
        # Doubling the stream leaves the streaming peak essentially
        # unchanged (window-bounded), while the in-RAM sink retains
        # every record and dwarfs it.
        assert stream_large < stream_small * 1.5
        assert ram_large > stream_large * 5
