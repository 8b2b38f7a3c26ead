"""Regression: wall-clock never reaches a cached entry.

Timing (``wall_time``, ``attempts``) and supervisor-internal health
(restart counts, resilience counters) vary run to run; if any of it
leaked into a cached payload, the byte-identity contract — hit bytes ==
cold-run bytes, report bytes independent of --jobs — would silently
break the first time a retry or a checkpointed worker produced the
entry.  :func:`repro.service.store.result_payload` is the single point
where cacheable bytes are produced, and it hardcodes the exclusion;
these tests pin that from every direction, including the report layer's
``--report-timing`` opt-in, which must affect the written report only,
never the store.
"""

import asyncio
import json
from pathlib import Path

from repro.runner import ParallelRunner, RunResult, RunSpec
from repro.service import ResultStore, SweepService
from repro.service.store import payload_result, result_payload
from tests.service.factories import MARKER_ENV

FORBIDDEN_KEYS = {"wall_time", "attempts"}
INTERVAL = 256


def test_result_payload_structurally_excludes_timing():
    """Even a result carrying real timing serializes without it."""
    result = RunResult(index=0, label="timed", ok=True, completed=True,
                      cycles=123, wall_time=7.25, attempts=3)
    doc = json.loads(result_payload(result).decode("utf-8"))
    assert FORBIDDEN_KEYS.isdisjoint(doc)
    # and the round trip zeroes them rather than inventing values
    back = payload_result(result_payload(result))
    assert back.wall_time == 0.0 and back.attempts == 1


def test_supervised_recovery_leaves_no_timing_or_supervisor_metrics(tmp_path, monkeypatch):
    """The nastiest producer: a checkpointed run whose worker crashed
    and restarted.  The in-memory result carries wall_time/attempts,
    and the service hands the execution's wall time to ``run_batch``
    for the report's timing block; none of it may reach the store."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = RunSpec(factory="tests.service.factories:counted_conformance_run",
                   kwargs={"tag": "timing", "payload_len": 384},
                   label="timing-384")

    async def main():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=1,
                                checkpoint_interval=INTERVAL) as svc:
            svc.sabotage = [{"crash_after_checkpoints": 1}]
            resp = await svc.submit(spec)
            raw = Path(store.payload_path(resp.key)).read_bytes()
            return resp, raw

    resp, raw = asyncio.run(main())
    assert resp.ok
    doc = json.loads(raw.decode("utf-8"))
    assert FORBIDDEN_KEYS.isdisjoint(doc)
    # supervisor-internal health stays out of the deterministic metrics
    assert "resilience" not in doc["metrics"]
    assert not any(k.startswith("supervisor.") for k in doc["metrics"])
    # the payload on disk is exactly what was served
    assert raw == resp.payload


def test_report_timing_opt_in_cannot_reach_the_store(tmp_path, monkeypatch):
    """Writing the batch report WITH its timing block (the CLI's
    --report-timing path) must not change a single cached byte."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    specs = [
        RunSpec(factory="tests.service.factories:counted_quickstart_run",
                kwargs={"tag": f"rt{i}", "payload_len": 256 * (i + 1)},
                label=f"rt-{i}")
        for i in range(3)
    ]

    async def main():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=2, use_process_pool=False) as svc:
            report = await svc.run_batch(specs)
            cached = {k: store.get(k) for k in store.keys()}
            return report, cached

    report, cached = asyncio.run(main())
    timed_path = tmp_path / "report-timed.json"
    report.write(str(timed_path), include_timing=True)
    timed = json.loads(timed_path.read_text())
    # the opt-in really embedded timing in the report...
    assert "timing" in timed
    assert all("wall_time" in r for r in timed["runs"])
    for key, payload in cached.items():
        doc = json.loads(payload.decode("utf-8"))
        assert FORBIDDEN_KEYS.isdisjoint(doc), f"timing leaked into {key}"
    # ...and the deterministic report body matches the plain runner's
    assert report.to_json() == ParallelRunner(jobs=1).run(specs).to_json()
