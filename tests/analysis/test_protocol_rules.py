"""The protocol registry, session validator and PR rules (fixtures + src)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import protocol
from repro.analysis.framework import lint_paths, rules_for
from repro.analysis.protocol import WireMessage, validate_sessions, wire_size

from .test_static_rules import lines_for, lint_fixture, mark_lines

SRC = Path(__file__).parents[2] / "src"

PR_RULES = ["PR001", "PR002", "PR003", "PR004", "PR005", "PR006"]


class TestRegistry:
    def test_every_kind_resolvable(self):
        for channel, specs in protocol.CHANNELS.items():
            for kind, spec in specs.items():
                assert protocol.known_kind(kind)
                assert protocol.lookup_message(channel, kind) is spec

    def test_wire_sizes_match_seed_values(self):
        assert wire_size("jets", protocol.REGISTER) == 256
        assert wire_size("jets", protocol.READY) == 64
        assert wire_size("jets", protocol.HEARTBEAT) == 32
        assert wire_size("jets", protocol.DONE, extra=100) == 228
        assert wire_size("jets", protocol.SHUTDOWN, ctrl=512) == 512
        assert wire_size("hydra", protocol.REGISTER) == 512
        assert wire_size("hydra", protocol.COMMIT, extra=4096) == 4096

    def test_wire_size_rejects_misuse(self):
        with pytest.raises(ValueError):
            wire_size("jets", "bogus")
        with pytest.raises(ValueError):
            wire_size("jets", protocol.RUN_TASK)  # ctrl required
        with pytest.raises(ValueError):
            wire_size("jets", protocol.READY, extra=10)  # not variable
        with pytest.raises(ValueError):
            wire_size("hydra", protocol.CLOSED)  # internal mark

    def test_kind_constants_cover_channels(self):
        declared = {
            kind
            for specs in protocol.CHANNELS.values()
            for kind in specs
        }
        assert declared <= set(protocol.KIND_CONSTANTS.values())


def _msg(conn, channel, kind, *rest, service="jets"):
    return WireMessage(
        conn=conn,
        channel=channel,
        kind=kind,
        payload=(kind, *rest),
        service=service,
    )


class TestSessionValidation:
    def test_clean_jets_session(self):
        msgs = [
            _msg(1, "jets", protocol.REGISTER, 0, 0, 2),
            _msg(1, "jets", protocol.READY, 0),
            _msg(1, "jets", protocol.READY, 0),
            _msg(1, "jets", protocol.RUN_TASK, "j0"),
            _msg(1, "jets", protocol.HEARTBEAT, 0),
            _msg(1, "jets", protocol.DONE, 0, "j0", 0, None),
            _msg(1, "jets", protocol.READY, 0),
            _msg(1, "jets", protocol.SHUTDOWN),
        ]
        assert validate_sessions(msgs) == []

    def test_dispatch_without_credit_flagged(self):
        msgs = [
            _msg(1, "jets", protocol.REGISTER, 0, 0, 1),
            _msg(1, "jets", protocol.RUN_TASK, "j0"),
        ]
        problems = validate_sessions(msgs)
        assert any("credit" in p for p in problems)

    def test_register_with_non_int_slots_is_a_problem(self):
        msgs = [
            WireMessage(
                1, "jets", protocol.REGISTER,
                (protocol.REGISTER, 0, 0, "x"), service="jets",
            ),
            # No credit ledger was opened: the session goes on unchecked.
            _msg(1, "jets", protocol.READY, 0),
            _msg(1, "jets", protocol.RUN_TASK, "j0"),
        ]
        assert validate_sessions(msgs) == [
            "msg 0 [jets#1]: register announces 'x' slots, not an int"
        ]

    def test_unknown_kind_flagged(self):
        problems = validate_sessions([_msg(1, "jets", "bogus")])
        assert any("bogus" in p for p in problems)

    def test_internal_kind_on_wire_flagged(self):
        problems = validate_sessions(
            [_msg(1, "hydra", protocol.CLOSED, service="mpiexec-j0")]
        )
        assert any("internal" in p for p in problems)

    def test_commit_before_all_registers_flagged(self):
        svc = "mpiexec-j0"
        msgs = [
            _msg(1, "hydra", protocol.REGISTER, 0, service=svc),
            _msg(1, "hydra", protocol.START, service=svc),
            _msg(1, "hydra", protocol.PMI_PUT, 0, "k", "v", service=svc),
            _msg(1, "hydra", protocol.COMMIT, 4096, service=svc),
            _msg(2, "hydra", protocol.REGISTER, 1, service=svc),
        ]
        problems = validate_sessions(msgs)
        assert problems == [
            "service [mpiexec-j0]: commit at msg 3 precedes a proxy "
            "register at msg 4 (commit requires every proxy registered)"
        ]

    def test_jets_truncation_is_legal(self):
        # A worker dying between register and first ready truncates the
        # session; that is not a protocol violation.
        msgs = [_msg(1, "jets", protocol.REGISTER, 0, 0, 2)]
        assert validate_sessions(msgs) == []


class TestBadArityFixture:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("protocol_bad_arity.py")

    def test_pr002_send_and_unpack(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PR002-send")
            + mark_lines(source, "PR002-unpack")
        )
        assert lines_for(findings, "PR002") == expected

    def test_pr005_size_discipline(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PR005-hardcoded")
            + mark_lines(source, "PR005-missing")
            + mark_lines(source, "PR005-kind")
        )
        assert lines_for(findings, "PR005") == expected

    def test_no_other_pr_noise(self, linted):
        _, findings = linted
        for rule in ("PR001", "PR003", "PR004", "PR006"):
            assert not lines_for(findings, rule)


class TestUnhandledKindFixture:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("protocol_unhandled_kind.py")

    def test_pr001_unknown_kind(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PR001-send")
            + mark_lines(source, "PR001-compare")
        )
        assert lines_for(findings, "PR001") == expected

    def test_pr003_sent_never_handled(self, linted):
        source, findings = linted
        assert lines_for(findings, "PR003") == set(
            mark_lines(source, "PR003")
        )
        (f,) = [f for f in findings if f.rule == "PR003"]
        assert "done" in f.message

    def test_pr004_handled_never_sent(self, linted):
        source, findings = linted
        assert lines_for(findings, "PR004") == set(
            mark_lines(source, "PR004")
        )
        (f,) = [f for f in findings if f.rule == "PR004"]
        assert "shutdown" in f.message
        assert f.severity == "warning"


class TestStringlyFixture:
    @pytest.fixture(scope="class")
    def linted(self):
        return lint_fixture("protocol_stringly.py")

    def test_pr006_raw_kinds(self, linted):
        source, findings = linted
        expected = set(
            mark_lines(source, "PR006-send")
            + mark_lines(source, "PR006-compare")
        )
        assert lines_for(findings, "PR006") == expected
        for f in findings:
            if f.rule == "PR006":
                assert "protocol.HEARTBEAT" in f.message

    def test_only_pr006_fires(self, linted):
        _, findings = linted
        assert {f.rule for f in findings} == {"PR006"}


class TestClosedWorld:
    def test_repo_is_protocol_clean(self):
        result = lint_paths([str(SRC)], select=PR_RULES)
        assert result.findings == []

    def test_partial_world_suppresses_cross_module_rules(self):
        # The dispatcher alone sends run_task/run_proxy/shutdown and
        # handles ready/done: judged in isolation it would light up
        # PR003/PR004.  A partial role set must never be a closed world.
        result = lint_paths(
            [str(SRC / "repro" / "core" / "dispatcher.py")],
            select=["PR003", "PR004"],
        )
        assert result.findings == []

    def test_complete_world_catches_vocabulary_drift(self):
        # Sanity-check the gate the other way: with all three role
        # modules present the channel worlds are actually judged.
        import ast

        from repro.analysis.framework import Module
        from repro.analysis.protocol_rules import _channel_worlds

        paths = [
            SRC / "repro" / "core" / "dispatcher.py",
            SRC / "repro" / "core" / "worker.py",
            SRC / "repro" / "mpi" / "hydra.py",
        ]
        modules = [
            Module(str(p), p.read_text(), ast.parse(p.read_text()))
            for p in paths
        ]
        worlds = dict(_channel_worlds(modules))
        assert set(worlds) == {"jets", "hydra"}

    def test_rules_registered(self):
        assert {r.id for r in rules_for(PR_RULES)} == set(PR_RULES)
