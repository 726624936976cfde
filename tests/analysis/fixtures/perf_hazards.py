"""Seeded hot/cold performance hazards for the PF001-PF009 rules.

Loaded as *text* by the lint tests, never imported.  The ``# MARK:``
comments pin the expected finding lines.  ``Environment.step`` matches
the declared kernel entry patterns, so every function it reaches is on
the hot path — hazards there must surface as *errors* tagged
``[hot path]``; the module-level helpers at the bottom are unreachable
from any entry, so the same hazards there stay *warnings*.
"""

import heapq
import json
from dataclasses import dataclass
from heapq import heappush as _push
from json import JSONEncoder


@dataclass
class Record:
    """Slot-less dataclass: PF004's target when built in a loop."""

    job: str
    t: float


@dataclass(slots=True)
class SlottedRecord:
    """Slotted: instantiating this in a hot loop must stay clean."""

    job: str


class Environment:
    """Fixture kernel: ``step`` is an entry root, so this is hot."""

    def __init__(self, trace, workers):
        self.trace = trace
        self.workers = workers
        self.queue = []
        self.platform = None

    def step(self):
        workers = self.workers
        while self.queue:
            for view in list(workers):  # MARK: PF001-hot
                view.poll()
            total = sum([w.load for w in workers])  # MARK: PF001-reducer
            self._drain(total)
            self._key("job")
            self._encode(total)

    def _drain(self, total):
        while self.queue:
            self.platform.trace.log("dispatch.a", {})  # MARK: PF002-hot
            self.platform.trace.log("dispatch.b", {})
            self.trace.log("ev", {"msg": f"drained {total}"})  # MARK: PF003-hot
            rec = Record("job", 0.0)  # MARK: PF004-hot
            ok = SlottedRecord("job")  # slotted: must stay clean
            heapq.heappush(self.queue, (total, rec))  # MARK: PF007-hot
            self.queue.pop()
            try:  # MARK: PF005-hot
                self._place(rec, ok)
            except KeyError:
                break

    def _place(self, rec, ok):
        active = [w.job for w in self.workers]
        while self.queue:
            if rec.job in active:  # MARK: PF006-hot
                return
            self.queue.pop()

    def _key(self, job_id):
        class _Key:  # MARK: PF008-hot
            pass

        key = _Key()
        key.job_id = job_id
        return key

    def _encode(self, total):
        return json.dumps({"total": total}, separators=(",", ":"))  # MARK: PF009-hot

    def _guarded_recv(self, sock):
        # try-around-yield in a hot loop is the sanctioned cancellation
        # idiom: PF005 must stay quiet here.
        while True:
            try:
                msg = yield sock.recv()
            except ConnectionError:
                break
            self.queue.append(msg)


# -- cold: same hazards, unreachable from any entry -> warnings ----------


def cold_copy_loop(jobs, names):
    out = []
    for job in jobs:
        out.append(tuple(names))  # MARK: PF001-cold
    return out


def cold_attr_loop(ctx):
    for _ in range(3):
        ctx.stats.counters.add(1)  # MARK: PF002-cold
        ctx.stats.counters.add(2)


def cold_trace_format(trace, status):
    trace.log("job.done", {"msg": "done: %s" % status})  # MARK: PF003-cold


def cold_records(rows):
    out = []
    for row in rows:
        out.append(Record(row, 0.0))  # MARK: PF004-cold
    return out


def cold_retry(items):
    # Cold try-per-item is the normal recovery idiom; PF005 is scoped
    # to hot functions and must not fire anywhere in this function.
    for item in items:
        try:
            item.execute()
        except ValueError:
            pass


def cold_heap_schedule(pending, job):
    # A private time-ordered heap outside the kernel scheduler; the
    # aliased `from heapq import heappush as _push` form must be
    # tracked just like the attribute form.
    _push(pending, (job.t, job))  # MARK: PF007-cold
    return heapq.heappop(pending)  # MARK: PF007-cold


def cold_membership(jobs):
    seen = list(jobs)
    for job in jobs:
        if job in seen:  # MARK: PF006-cold
            continue
    return seen


def cold_class_factory(label):
    class Adapter:  # MARK: PF008-cold
        name = label

    return Adapter


def cold_dump_lines(records, fh):
    for rec in records:
        fh.write(json.dumps(rec, separators=(",", ":")))  # MARK: PF009-cold
    while records:
        encoder = JSONEncoder(sort_keys=True)  # MARK: PF009-cold
        fh.write(encoder.encode(records.pop()))


def cold_dump_once(doc, fh):
    # One dump off the hot path and outside any loop: PF009 stays quiet.
    json.dump(doc, fh)
