"""Golden-trace regression suite.

Each canonical workload's checked-in trace (cycles, per-task busy
cycles, counter totals, histories digest) must be reproduced exactly.
A drift fails with a per-field diff naming every divergent path — not a
bare assert — so the offending subsystem is obvious from the report.

To intentionally re-baseline after a behaviour-changing commit::

    PYTHONPATH=src python tests/regression/regen_golden.py
"""

import json

import pytest

from tests.regression.regen_golden import (
    CHECKPOINTS,
    HISTORY_FIELDS,
    WORKLOADS,
    build_checkpoint_trace,
    build_trace,
    golden_path,
)

#: Every golden is checked at two observability tiers: ``reference``,
#: the ``full`` tier the goldens are recorded at, and ``fast``, the
#: ``off`` tier.  ``off`` records no byte histories but must reproduce
#: every other field — recording less never moves a cycle.
TIERS = {"reference": "full", "fast": "off"}


def _recorded_at(trace: dict, tier: str) -> dict:
    """The fields of ``trace`` that a run at ``tier`` reproduces."""
    if TIERS[tier] == "full":
        return trace
    return {k: v for k, v in trace.items() if k not in HISTORY_FIELDS}


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out[prefix] = value
    return out


def trace_diff(expected: dict, actual: dict) -> list:
    """Readable per-path diff: ['path: expected X, got Y', ...]."""
    exp, act = _flatten("", expected, {}), _flatten("", actual, {})
    lines = []
    for path in sorted(set(exp) | set(act)):
        if path not in act:
            lines.append(f"{path}: missing (expected {exp[path]!r})")
        elif path not in exp:
            lines.append(f"{path}: unexpected new field (got {act[path]!r})")
        elif exp[path] != act[path]:
            lines.append(f"{path}: expected {exp[path]!r}, got {act[path]!r}")
    return lines


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_trace(name, tier):
    with open(golden_path(name)) as fh:
        expected = _recorded_at(json.load(fh), tier)
    actual = _recorded_at(build_trace(name, obs_level=TIERS[tier]), tier)
    diff = trace_diff(expected, actual)
    assert not diff, (
        f"behaviour drift on {name!r} at obs_level={TIERS[tier]!r} "
        f"({len(diff)} fields):\n  "
        + "\n  ".join(diff)
        + "\nIf this change is intentional, re-baseline with "
        "`PYTHONPATH=src python tests/regression/regen_golden.py` and "
        "explain the drift in the commit message."
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
def test_golden_checkpoint_trace(name, tier):
    """Mid-run boundary digest and post-resume result are pinned: an
    advance()+run() split must stay equivalent to one uninterrupted
    run(), at either tier."""
    with open(golden_path(name)) as fh:
        expected = _recorded_at(json.load(fh), tier)
    actual = _recorded_at(build_checkpoint_trace(name, obs_level=TIERS[tier]), tier)
    diff = trace_diff(expected, actual)
    assert not diff, (
        f"checkpoint drift on {name!r} at obs_level={TIERS[tier]!r} "
        f"({len(diff)} fields):\n  " + "\n  ".join(diff)
    )


def test_trace_diff_reports_each_divergent_path():
    a = {"cycles": 10, "tasks": {"src": {"busy": 5}}, "extra": 1}
    b = {"cycles": 11, "tasks": {"src": {"busy": 5}, "dst": {"busy": 2}}}
    diff = trace_diff(a, b)
    assert any(d.startswith("cycles: expected 10, got 11") for d in diff)
    assert any("tasks.dst.busy" in d and "unexpected" in d for d in diff)
    assert any(d.startswith("extra: missing") for d in diff)
    assert len(diff) == 3


def test_golden_traces_match_runner_digest():
    """The digest pinned in the golden file is the same digest the
    parallel runner reports — one source of truth for byte-identity."""
    from repro.runner import ParallelRunner, RunSpec

    spec = RunSpec(*WORKLOADS["quickstart"])
    report = ParallelRunner(jobs=1).run([spec])
    with open(golden_path("quickstart")) as fh:
        expected = json.load(fh)
    assert report.results[0].histories_sha256 == expected["histories_sha256"]
    assert report.results[0].cycles == expected["cycles"]
