"""One record contract: every command gives a record the same verdict.

The line contract lives in the one JSONL reader
(:func:`repro.obs.export.iter_jsonl`) and the payload contract in the
one judge (:func:`repro.analysis.schema.record_problems`).  ``jets
lint-trace`` reports their verdicts, ``jets report``, ``jets top`` and
``jets report --follow`` skip and count the records the judge rejects,
and ``jets resume`` refuses them.  Every command runs in-process, so an
exception escaping one fails the test.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.schema import lookup
from repro.core.cli import main
from repro.core.resume import load_ledger, read_journal, replay

VALID = '{"t":0.0,"cat":"fault.kill","data":{"worker":1}}'
HEADER = (
    '{"t":0.0,"cat":"journal.run_begin","data":'
    '{"machine":"generic","nodes":2,"seed":0,"cores_per_node":2}}'
)
SUBMIT = (
    '{"t":0.0,"cat":"journal.job_submitted","data":{"job":"a","mpi":false,'
    '"nodes":1,"ppn":1,"command":"sleep 0.5"}}'
)

#: (id, line after the valid first record, verdict, journal).  The
#: verdict is "record" for a record the judge rejects, "line" for a line
#: that breaks the line contract and "torn" for an unfinished last line.
ROWS = [
    ("counter-list-value",
     '{"t":1.0,"cat":"counter.x","data":{"counter":"x","value":[1]}}',
     "record", False),
    ("counter-str-value",
     '{"t":1.0,"cat":"counter.x","data":{"counter":"x","value":"abc"}}',
     "record", False),
    ("resume-skip-list-id",
     '{"t":1.0,"cat":"resume.skip","data":{"job":[1],"outcome":"done"}}',
     "record", False),
    ("resume-begin-str-crash-time",
     '{"t":1.0,"cat":"resume.begin","data":'
     '{"journal":"j","segment":1,"crash_time":"y"}}',
     "record", False),
    ("heartbeat-str-gauge",
     '{"t":1.0,"cat":"obs.progress","data":'
     '{"events":1,"records":1,"gauges":{"x":"abc"}}}',
     "record", False),
    ("str-time", '{"t":"abc","cat":"fault.kill","data":{"worker":1}}',
     "line", False),
    ("list-time", '{"t":[1],"cat":"fault.kill","data":{"worker":1}}',
     "line", False),
    ("nan-time", '{"t":NaN,"cat":"fault.kill","data":{"worker":1}}',
     "line", False),
    ("list-run",
     '{"t":1.0,"cat":"fault.kill","data":{"worker":1},"run":[1]}',
     "line", False),
    ("str-run-beside-int-run",
     '{"t":1.0,"cat":"fault.kill","data":{"worker":1},"run":"a"}',
     "line", False),
    ("perf-str-sim-s", '{"meta":"perf","sim_s":"y"}', "line", False),
    ("perf-list-run", '{"meta":"perf","run":[0]}', "line", False),
    ("journal-str-nodes",
     '{"t":0.0,"cat":"journal.job_submitted","data":'
     '{"job":"a","mpi":false,"nodes":"x","ppn":1}}',
     "record", True),
    ("journal-header-str-nodes",
     '{"t":0.0,"cat":"journal.run_begin","data":'
     '{"machine":"generic","nodes":"four","seed":0}}',
     "record", True),
    ("journal-list-payload",
     '{"t":0.0,"cat":"journal.job_submitted","data":[1]}',
     "record", True),
    ("journal-no-job",
     '{"t":0.0,"cat":"journal.job_submitted","data":'
     '{"mpi":false,"nodes":1,"ppn":1}}',
     "record", True),
    ("journal-str-run",
     '{"t":0.0,"cat":"journal.job_submitted","data":'
     '{"job":"a","mpi":false,"nodes":1,"ppn":1},"run":"zero"}',
     "line", True),
    ("journal-last-record-lacks-newline",
     '{"t":1.0,"cat":"journal.job_done","data":{"job":"a","attempt":0}}',
     "torn", True),
]


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "line,verdict,journal",
    [row[1:] for row in ROWS],
    ids=[row[0] for row in ROWS],
)
def test_every_command_gives_one_verdict(
    tmp_path, capsys, line, verdict, journal
):
    path = tmp_path / "input.jsonl"
    if verdict == "torn":
        head, end = [HEADER, SUBMIT], ""
    else:
        head, end = [HEADER if journal else VALID], "\n"
    path.write_text("\n".join(head + [line]) + end)
    bad_line = f"{path}:{len(head) + 1}:"
    follow = ["report", "--follow", "--idle-timeout", "1", "--poll", "0.05"]

    code, out, err = run(["lint-trace", str(path)], capsys)
    if verdict == "line":
        assert code == 2 and bad_line in err
    elif verdict == "record":
        assert code == 1 and re.search(r"TV00[125]", out)
    else:
        assert code == 0 and "unfinished record" in err

    for argv in (["report", str(path)], ["top", str(path)]):
        code, out, err = run(argv, capsys)
        if verdict == "line":
            assert code == 2 and bad_line in err
        else:
            note = {"record": "skipped 1 malformed record(s);",
                    "torn": "unfinished record"}[verdict]
            assert code == 0 and err.count("\n") == 1 and note in err

    # No perf trailer, so --follow gives up as it would on the valid
    # lines alone; a torn tail waits for its newline.
    code, out, err = run(follow + [str(path)], capsys)
    if verdict == "line":
        assert code == 2 and bad_line in err
    else:
        assert code == 1
        assert ("skipped 1 malformed" in err) == (verdict == "record")

    if journal and verdict == "torn":
        before = load_ledger(str(path))
        code, out, err = run(["resume", str(path)], capsys)
        # The cut record was not acted on (job a was rerun), and the
        # append left behind the ledger the resume acted on.
        assert code == 0 and before.jobs["a"].status == "pending"
        entries = read_journal(str(path))[0]
        after = replay([e for e in entries if e[0] == 0])
        assert after == replace(before, dropped_tail=0, end=0)
    elif journal:
        code, out, err = run(["resume", str(path)], capsys)
        assert code == 2 and bad_line in err


# -- mutated records through every command ------------------------------------

WRONG = [None, True, 7, 2.5, "x", [1], {"a": "b"}]
NOT_OBJECTS = [None, 3, "x", [1]]


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A small recorded run's lines (its perf trailer last) and a small
    journal's lines, cut before its run_end so a resume has work."""
    work = tmp_path_factory.mktemp("contract")
    tasks = work / "tasks.txt"
    tasks.write_text("MPI: 2 mpi-bench 0.5\nSERIAL: sleep 0.5\n")
    trace, journal = work / "run.jsonl", work / "run.journal"
    assert main([
        str(tasks), "--nodes", "2", "--trace-out", str(trace),
        "--chrome-trace", str(work / "run.trace.json"),
        "--journal", str(journal),
    ]) == 0
    journal_lines = journal.read_text().splitlines()
    return trace.read_text().splitlines(), journal_lines[:-1]


@st.composite
def mutations(draw, lines):
    """Mutated copies of ``lines``: wrong kinds for declared keys,
    payloads that are not objects, and maybe a torn last line."""
    lines = list(lines)
    records = [i for i, ln in enumerate(lines) if '"cat"' in ln]
    for i in draw(st.lists(st.sampled_from(records), max_size=3, unique=True)):
        obj = json.loads(lines[i])
        data = obj.get("data")
        kinds = lookup(obj["cat"]).kinds
        keys = sorted(k for k in kinds if k in (data or {}))
        if keys and draw(st.booleans()):
            key = draw(st.sampled_from(keys))
            data[key] = draw(st.sampled_from(
                [v for v in WRONG if not kinds[key].admits(v)]
            ))
        else:
            obj["data"] = draw(st.sampled_from(NOT_OBJECTS))
        lines[i] = json.dumps(obj)
    text = "\n".join(lines) + "\n"
    if draw(st.booleans()):  # tear the last line
        cut = draw(st.integers(len(text) - len(lines[-1]), len(text) - 1))
        text = text[:cut]
    return text


def flagged(out):
    """Record indices ``jets lint-trace`` flags with a judge verdict."""
    return {
        int(m.group(1))
        for m in re.finditer(r"^record (\d+) @ .* (TV00[125]):", out, re.M)
    }


def skipped(err):
    m = re.search(r"skipped (\d+) malformed", err)
    return int(m.group(1)) if m else 0


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_run_gets_one_verdict(recorded, tmp_path, capsys, data):
    text = data.draw(mutations(recorded[0]))
    # Two paths of one length, so top's titles line up.
    path, kept = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    path.write_text(text)
    lint = ["lint-trace", "--max-issues", "9999", str(path)]
    code, out, _ = run(lint, capsys)
    assert code in (0, 1)
    bad = flagged(out)
    # Report and top skip exactly those records: their output equals
    # their output on the dump with the flagged records taken out.
    index = itertools.count()
    kept.write_text("".join(
        ln for ln in text.splitlines(keepends=True)
        if not ('"cat"' in ln and ln.endswith("\n") and next(index) in bad)
    ))
    for cmd in ("report", "top"):
        code, out, err = run([cmd, str(path)], capsys)
        assert code == 0 and skipped(err) == len(bad)
        ref_code, ref_out, _ = run([cmd, str(kept)], capsys)
        assert (code, out.replace(str(path), "X")) == (
            ref_code, ref_out.replace(str(kept), "X")
        )


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_journal_is_refused_exactly_when_flagged(
    recorded, tmp_path, capsys, data
):
    text = data.draw(mutations(recorded[1]))
    path = tmp_path / "mutated.journal"
    path.write_text(text)
    lint = ["lint-trace", "--max-issues", "9999", str(path)]
    code, out, _ = run(lint, capsys)
    bad = flagged(out)
    assert code == (1 if bad else 0)
    code, out, err = run(["resume", str(path)], capsys)
    if bad:
        assert code == 2 and "refusing a malformed record" in err
        assert path.read_text() == text
    else:
        assert code == 0
