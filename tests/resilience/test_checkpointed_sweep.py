"""Checkpointed sweeps on the sweep service: recovery and resume.

The headline property: a checkpointed sweep's deterministic report is
byte-identical to a plain :class:`ParallelRunner` report of the same
specs — no matter how many workers the sabotage hook kills or hangs
along the way, and however often the sweep itself is killed and run
again over the same result store.  Recovery shows only in the
service's counters.
"""

import asyncio
import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner import ParallelRunner, RunSpec
from repro.service import ResultStore, SweepService, cache_key
from repro.workloads import conformance_run, quickstart_run
from tests.service.factories import corrupted_run

INTERVAL = 512
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _specs(n=3, payload_len=384):
    return [
        RunSpec(conformance_run,
                {"graph": "pipeline" if i % 2 == 0 else "diamond",
                 "payload_len": payload_len,
                 "fault_spec": "chaos", "fault_seed": i},
                label=f"case-{i}")
        for i in range(n)
    ]


def _plain_report(specs):
    return ParallelRunner(jobs=1).run(specs)


def _sweep(store_dir, specs, sabotage=(), interval=INTERVAL, **kw):
    """``run_batch`` over a checkpointed service on ``store_dir``;
    ``sabotage`` holds one entry per execution, in start order.
    Returns the report and the (closed) service."""
    async def run():
        async with SweepService(ResultStore(str(store_dir)),
                                checkpoint_interval=interval, **kw) as svc:
            svc.sabotage = list(sabotage)
            return await svc.run_batch(specs), svc

    return asyncio.run(run())


def _count(svc, name):
    return svc.metrics.counter(name).value


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------
def test_supervised_report_matches_plain_runner(tmp_path):
    specs = _specs()
    report, svc = _sweep(tmp_path, specs, jobs=2)
    assert [r.ok for r in report.results] == [True, True, True]
    assert report.to_json() == _plain_report(specs).to_json()
    # progress lives in the store: one entry per finished run
    assert len(svc.store) == 3


# ---------------------------------------------------------------------------
# exhausted restart budgets and failed runs
# ---------------------------------------------------------------------------
def test_restart_budget_exhaustion_reports_crashed(tmp_path):
    """A worker that dies before its first checkpoint has nothing to
    resume from; with max_restarts=0 the run is reported, not retried
    forever, and the rest of the sweep still completes."""
    report, svc = _sweep(tmp_path, _specs(2), jobs=1, max_restarts=0,
                         sabotage=[{"crash_after_checkpoints": 0}])
    bad = report.results[0]
    assert not bad.ok and bad.crashed and not bad.timed_out
    assert "WorkerCrashed" in bad.error and "0 restart(s)" in bad.error
    assert report.results[1].ok
    assert report.failures == [bad]
    # only the completed run reached the store
    assert len(svc.store) == 1


def test_hang_budget_exhaustion_reports_timed_out(tmp_path):
    report, _ = _sweep(tmp_path, _specs(1), jobs=1, heartbeat_timeout=0.5,
                       max_restarts=0, sabotage=[{"hang": True}])
    bad = report.results[0]
    assert not bad.ok and bad.timed_out and not bad.crashed
    assert "WorkerHung" in bad.error


@pytest.mark.parametrize("sabotage,flag", [
    ({"crash_after_checkpoints": 0}, "crashed"),
    ({"hang": True}, "timed_out"),
], ids=["crash", "hang"])
def test_failed_worker_reports_the_requested_obs_level(tmp_path, sabotage, flag):
    """A crashed or hung worker's result carries the observability
    tier its spec asked for, as the plain runner's failures do."""
    spec = RunSpec(quickstart_run, {"payload_len": 1024, "obs_level": "off"},
                   label="off")
    report, _ = _sweep(tmp_path, [spec], jobs=1, heartbeat_timeout=0.5,
                       max_restarts=0, sabotage=[sabotage])
    bad = report.results[0]
    assert not bad.ok and getattr(bad, flag)
    assert bad.obs_level == "off"


def test_invariant_violation_fails_the_run_with_a_diagnosis(tmp_path):
    """A corrupt run is failed with a located diagnosis, never
    checkpointed, resumed or stored."""
    specs = [RunSpec(corrupted_run,
                     {"payload_len": 384, "fault_spec": "none"},
                     label="corrupt")]
    report, svc = _sweep(tmp_path, specs, interval=256, jobs=1)
    bad = report.results[0]
    assert not bad.ok
    assert bad.error.startswith("InvariantViolation: [I105]")
    assert bad.metrics["violations"][0]["monitor"] == "I105"
    # the corrupt state was never persisted as a resumable checkpoint
    assert not list(tmp_path.rglob("*.ckpt.json"))
    assert len(svc.store) == 0


# ---------------------------------------------------------------------------
# whole-sweep resume across process restarts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("flip", [False, True], ids=["intact", "flipped"])
def test_resume_completes_a_killed_sweep(tmp_path, flip):
    """Phase 1 'dies' mid-sweep (run 0 crashes after one checkpoint,
    with no restart budget); phase 2 — a brand-new service on the same
    store, as after a process restart — executes exactly that run.  It
    warm-starts from the checkpoint, or, when a flipped byte broke the
    checkpoint, discards it and computes from scratch.  Either way the
    report is byte-identical to an uninterrupted sweep."""
    specs = _specs()
    crashed, _ = _sweep(tmp_path, specs, jobs=2, max_restarts=0,
                        sabotage=[{"crash_after_checkpoints": 1}])
    assert not crashed.results[0].ok and crashed.results[0].crashed
    assert all(r.ok for r in crashed.results[1:])
    key = cache_key(specs[0], INTERVAL)
    ckpt = Path(ResultStore(str(tmp_path)).checkpoint_dir(key)) / "run-000.ckpt.json"
    assert ckpt.exists()
    if flip:
        blob = bytearray(ckpt.read_bytes())
        blob[10] ^= 0xFF
        ckpt.write_bytes(bytes(blob))

    report, second = _sweep(tmp_path, specs, jobs=2)
    assert [r.ok for r in report.results] == [True, True, True]
    assert _count(second, "service.executions") == 1
    assert _count(second, "service.cache.hits") == 2
    assert _count(second, "service.warmstart.resumes") == (0 if flip else 1)
    assert _count(second, "service.warmstart.discards") == (1 if flip else 0)
    assert report.to_json() == _plain_report(specs).to_json()


def test_cli_sweep_killed_by_sigkill_resumes_the_missing_runs(tmp_path, capsys):
    """SIGKILL a CLI sweep and its workers mid-sweep, then run it again
    with the same --checkpoint-dir: it executes exactly the runs the
    store lacks, and its report is byte-identical to a plain run's."""
    sweep = ["conformance", "--graph", "diamond", "--payload", "8192",
             "--seeds", "6", "--fault-plan", "chaos",
             "--watchdog-timeout", "2000", "--jobs", "1"]
    store_dir = tmp_path / "ckpt"
    store = ResultStore(str(store_dir))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *sweep, "--checkpoint-dir", str(store_dir)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=SRC), start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120
        while len(store) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the workers die too
        proc.wait(timeout=30)
    entries = len(store)
    assert 0 < entries < 6, f"the kill landed after {entries} of 6 runs"

    resumed, plain = tmp_path / "resumed.json", tmp_path / "plain.json"
    assert main(sweep + ["--checkpoint-dir", str(store_dir),
                         "--report", str(resumed)]) == 0
    assert f"note: 6 runs: {6 - entries} executed, {entries} from {store_dir}" \
        in capsys.readouterr().out
    assert main(sweep + ["--report", str(plain)]) == 0
    assert resumed.read_bytes() == plain.read_bytes()
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# soak: a longer checkpointed sweep surviving multiple injected failures
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_soak_supervised_sweep_with_mixed_failures(tmp_path):
    """~30s soak: a six-run chaotic sweep where two workers crash and
    one hangs; the sweep completes without intervention, byte-identical
    to a plain runner."""
    specs = [
        RunSpec(conformance_run,
                {"graph": g, "payload_len": 2048, "fault_spec": "chaos",
                 "fault_seed": s},
                label=f"soak-{g}-{s}")
        for g in ("pipeline", "diamond")
        for s in (0, 1, 2)
    ]
    report, svc = _sweep(tmp_path, specs, interval=1024, jobs=2, heartbeat_timeout=2.0,
                         sabotage=[{"crash_after_checkpoints": 2}, None, None,
                                   {"hang": True}, None, {"crash_after_checkpoints": 1}])
    assert all(r.ok for r in report.results)
    assert _count(svc, "service.supervisor.worker_restarts") == 3
    assert report.to_json() == _plain_report(specs).to_json()
