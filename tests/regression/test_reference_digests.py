"""Fine-grained simulator outputs, frozen.

``golden/reference_digests.json`` was first recorded from the former
reference engine, before the one remaining engine replaced it.  Every
check here recomputes one of its values and compares: the canonical
full result (histories included) and state digest of fixed conformance
points under four fault plans, the record-by-record quickstart
operation log, the blackout deadlock's verdict cycle, error text
and progress-poll count with and without a sampler, and the exported
bytes of the span tracer, the rendered op log and the net ingest's
tick-clock recorder, the encoder's bitstream and reconstructed
planes on fixed sequences, the centralized-sync baseline: the full
result and state digest of fixed points and the distributed-vs-
centralized scalability sweep, and fixed ``python -m repro``
invocations: exit code, stdout and the bytes of every file written.

To re-baseline after a change that is *meant* to move behaviour::

    PYTHONPATH=src python tests/regression/regen_golden.py
"""

import json

import pytest

from tests.regression.regen_golden import (
    BLACKOUT_VARIANTS,
    CENTRALIZED_POINTS,
    CLI_ARGVS,
    CONFORMANCE_POINTS,
    ENCODER_CASES,
    RECORDER_EXPORTS,
    SCALABILITY_PAIRS,
    blackout_outcome,
    centralized_digests,
    cli_digests,
    conformance_digests,
    encoder_digests,
    golden_path,
    oplog_digest,
    scalability_points,
)

with open(golden_path("reference_digests")) as _fh:
    GOLDEN = json.load(_fh)


def test_golden_covers_the_fixed_points():
    assert [p["kwargs"] for p in GOLDEN["conformance"]] == CONFORMANCE_POINTS
    assert sorted(GOLDEN["blackout_deadlock"]) == sorted(BLACKOUT_VARIANTS)
    assert [e["case"] for e in GOLDEN["encoder"]] == ENCODER_CASES
    assert [e["point"] for e in GOLDEN["centralized_sync"]["points"]] == CENTRALIZED_POINTS
    assert GOLDEN["centralized_sync"]["scalability"]["pairs"] == SCALABILITY_PAIRS
    assert [e["argv"] for e in GOLDEN["cli"]] == CLI_ARGVS


@pytest.mark.parametrize("index", range(len(CONFORMANCE_POINTS)))
def test_conformance_point_matches_reference(index):
    expected = GOLDEN["conformance"][index]
    actual = conformance_digests(expected["kwargs"])
    assert actual == {k: expected[k] for k in actual}, expected["kwargs"]


def test_quickstart_oplog_matches_reference():
    expected = GOLDEN["quickstart_oplog"]
    actual = oplog_digest()
    assert actual == {k: expected[k] for k in actual}


@pytest.mark.parametrize("variant", sorted(BLACKOUT_VARIANTS))
def test_blackout_deadlock_matches_reference(variant):
    assert blackout_outcome(BLACKOUT_VARIANTS[variant]) == GOLDEN["blackout_deadlock"][variant]


@pytest.mark.parametrize("name", sorted(RECORDER_EXPORTS))
def test_recorder_export_matches_reference(name):
    assert RECORDER_EXPORTS[name]() == GOLDEN["recorders"][name]


@pytest.mark.parametrize("index", range(len(ENCODER_CASES)))
def test_encoder_output_matches_reference(index):
    expected = GOLDEN["encoder"][index]
    actual = encoder_digests(expected["case"])
    assert actual == {k: expected[k] for k in actual}, expected["case"]


@pytest.mark.parametrize("index", range(len(CENTRALIZED_POINTS)))
def test_centralized_point_matches_reference(index):
    expected = GOLDEN["centralized_sync"]["points"][index]
    actual = centralized_digests(expected["point"])
    assert actual == {k: expected[k] for k in actual}, expected["point"]


def test_sync_scalability_matches_reference():
    assert scalability_points() == GOLDEN["centralized_sync"]["scalability"]["points"]


@pytest.mark.parametrize("index", range(len(CLI_ARGVS)), ids=lambda i: " ".join(CLI_ARGVS[i]))
def test_cli_output_matches_reference(index):
    expected = GOLDEN["cli"][index]
    actual = cli_digests(expected["argv"])
    assert actual == {k: expected[k] for k in actual}, expected["argv"]
