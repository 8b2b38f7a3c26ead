"""The ``repro verify`` CLI command: formats, exit codes, suppression."""

import json

import pytest

from repro.cli import main


def test_verify_quickstart_is_clean(capsys):
    assert main(["verify", "--workload", "quickstart"]) == 0
    out = capsys.readouterr().out
    assert "quickstart: ok" in out
    assert "exit 0" in out


def test_verify_all_workloads_exit_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "decode: ok" in out and "kernel-sources: ok" in out


def test_verify_json_format_is_machine_readable(capsys):
    assert main(["verify", "--workload", "quickstart", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"quickstart", "kernel-sources"}
    assert data["quickstart"]["counts"]["error"] == 0


def test_verify_corpus_flags_everything(capsys):
    assert main(["verify", "--corpus"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "seeded violations flagged" in out


def test_verify_corpus_json(capsys):
    assert main(["verify", "--corpus", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(row["passed"] for row in data["cases"])
    assert len(data["cases"]) >= 12


def test_verify_unknown_workload_exits_2(capsys):
    assert main(["verify", "--workload", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_verify_bad_ignore_rule_exits_2(capsys):
    assert main(["verify", "--workload", "quickstart", "--ignore", "G0X"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_verify_ignore_suppresses_infos(capsys):
    assert main(["verify", "--workload", "decode", "--ignore", "G006"]) == 0
    out = capsys.readouterr().out
    assert "G006" not in out
    assert "0 info(s)" in out


def test_verify_list_rules(capsys):
    assert main(["verify", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in ("G001", "P104", "A201"):
        assert rid in out
