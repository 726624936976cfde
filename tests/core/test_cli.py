"""Tests for the ``jets`` command-line tool."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.cli import build_parser, main


@pytest.fixture
def taskfile(tmp_path):
    path = tmp_path / "tasks.txt"
    path.write_text(
        "# demo batch\n"
        "MPI: 2 mpi-bench 0.5\n"
        "MPI: 2 mpi-bench 0.5\n"
        "SERIAL: sleep 0.2\n"
    )
    return str(path)


class TestCli:
    def test_happy_path(self, taskfile, capsys):
        code = main([taskfile, "--machine", "generic", "--nodes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "3/3 jobs" in out
        assert "utilization" in out

    def test_missing_file(self, capsys):
        code = main(["/does/not/exist"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_tasklist(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("MPI: many mpi-bench 1\n")
        code = main([str(bad)])
        assert code == 2
        assert "bad task list" in capsys.readouterr().err

    def test_failed_job_exit_code(self, tmp_path, capsys):
        too_big = tmp_path / "big.txt"
        too_big.write_text("MPI: 64 mpi-bench 1.0\n")
        code = main([str(too_big), "--machine", "generic", "--nodes", "4"])
        assert code == 1
        assert "failed permanently" in capsys.readouterr().err

    def test_policy_and_grouping_flags(self, taskfile):
        code = main(
            [
                taskfile,
                "--machine", "generic",
                "--nodes", "4",
                "--policy", "backfill",
                "--grouping", "fifo",
                "--no-staging",
                "--seed", "7",
            ]
        )
        assert code == 0

    def test_fault_flags(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("SERIAL: sleep 0.5\n" * 50)
        code = main(
            [str(f), "--machine", "generic", "--nodes", "2",
             "--faults", "2.0", "--until", "20"]
        )
        assert code in (0, 1)  # surviving jobs may or may not all finish

    def test_parser_defaults(self):
        args = build_parser().parse_args(["tasks.txt"])
        assert args.machine == "generic"
        assert args.policy == "fifo"
        assert not args.no_staging


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--nodes", "0"], "--nodes must be positive"),
        (["--slots", "0"], "--slots must be positive"),
        (["--faults", "0"], "--faults must be positive"),
        (["--until", "0"], "--until must be positive"),
        (["--progress-every", "0"], "--progress-every must be positive"),
        (["--trace-window", "0"], "--trace-window must be positive"),
        (["--seed", "-1"], "--seed must not be negative"),
        (["--fault-jitter", "-1"], "--fault-jitter must not be negative"),
        (
            ["--faults", "2", "--fault-mode", "jittered",
             "--fault-jitter", "2"],
            "--fault-jitter must be below --faults",
        ),
    ],
    ids=["nodes", "slots", "faults", "until", "progress-every",
         "trace-window", "seed", "fault-jitter", "jittered"],
)
def test_out_of_range_flag_is_a_usage_error(taskfile, argv, error, capsys):
    argv = [taskfile, "--machine", "generic", *argv]
    if "--slots" in argv:
        # No slot could take a serial job, so the run never returned:
        # a subprocess with a timeout fails that case instead of hanging.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.core.cli", *argv],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=src),
        )
        code, err = proc.returncode, proc.stderr
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, err = exc.value.code, capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage: jets")
    assert f"jets: error: {error}" in err
