"""Supervised sweep execution: crash recovery, hang recovery, resume.

The headline property: a supervised sweep's deterministic report is
byte-identical to a plain :class:`ParallelRunner` report of the same
specs — no matter how many workers the sabotage hook kills or hangs
along the way.  Checkpointing and recovery must be invisible in the
results and visible only in the notes.
"""

import json
import os

import pytest

from repro.resilience.supervisor import (
    DEFAULT_INTERVAL,
    Supervisor,
    SupervisorError,
)
from repro.runner import ParallelRunner, RunSpec
from repro.sim.faults import corrupt_state
from repro.workloads import conformance_run, quickstart_run


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


def corrupted_run(mode="task-miscount", **kwargs):
    """Module-level factory (picklable by reference) whose system is
    born corrupted: the first checkpoint boundary must catch it."""
    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    corrupt_state(system, mode)
    return system, graph


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------
def test_supervised_report_matches_plain_runner(tmp_path):
    specs = _specs()
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=2)
    report = sup.run(specs)
    assert [r.ok for r in report.results] == [True, True, True]
    assert report.to_json() == _plain_report(specs).to_json()
    # progress lived in files: sweep identity + per-run results
    assert os.path.exists(tmp_path / "sweep.json")
    assert os.path.exists(tmp_path / "run-000.result.json")


def test_workers_actually_checkpoint(tmp_path):
    specs = _specs(1)
    Supervisor(checkpoint_dir=str(tmp_path), interval=256, jobs=1).run(specs)
    snap = json.load(open(tmp_path / "run-000.ckpt.json"))
    assert snap["body"]["schema"] == "repro.snapshot/1"
    assert snap["body"]["cycle"] > 0
    result = json.load(open(tmp_path / "run-000.result.json"))
    assert result["ok"] and result["wall_time"] > 0
    # the counters live on the system, NOT in the deterministic result
    # payload (which must stay byte-identical to an unsupervised run)
    assert "resilience" not in result["metrics"]


def test_validates_arguments(tmp_path):
    with pytest.raises(ValueError, match="interval"):
        Supervisor(str(tmp_path), interval=0)
    with pytest.raises(ValueError, match="jobs"):
        Supervisor(str(tmp_path), jobs=0)
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        Supervisor(str(tmp_path), heartbeat_timeout=0)
    with pytest.raises(ValueError, match="max_restarts"):
        Supervisor(str(tmp_path), max_restarts=-1)
    with pytest.raises(KeyError, match="I999"):
        Supervisor(str(tmp_path), monitors=["I999"])  # ids checked eagerly


# ---------------------------------------------------------------------------
# crash and hang recovery
# ---------------------------------------------------------------------------
def test_crashed_worker_resumes_from_checkpoint(tmp_path):
    specs = _specs()
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=2)
    sup.sabotage = {1: {"crash_after_checkpoints": 1}}
    report = sup.run(specs)
    assert [r.ok for r in report.results] == [True, True, True]
    assert any("run 1: worker died (exit 17)" in n for n in report.notes)
    assert any("total worker restarts: 1" in n for n in report.notes)
    # recovery is invisible in the deterministic payload
    assert report.to_json() == _plain_report(specs).to_json()


def test_hung_worker_is_detected_and_replaced(tmp_path):
    specs = _specs(2)
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=2,
                     heartbeat_timeout=1.0)
    sup.sabotage = {0: {"hang": True}}
    report = sup.run(specs)
    assert [r.ok for r in report.results] == [True, True]
    assert any("run 0: worker hung" in n for n in report.notes)
    assert report.to_json() == _plain_report(specs).to_json()


def test_restart_budget_exhaustion_reports_crashed(tmp_path):
    """A worker that dies before its first checkpoint has nothing to
    resume from; with max_restarts=0 the run is reported, not retried
    forever, and the rest of the sweep still completes."""
    specs = _specs(2)
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=1,
                     max_restarts=0)
    sup.sabotage = {0: {"crash_after_checkpoints": 0}}
    report = sup.run(specs)
    bad = report.results[0]
    assert not bad.ok and bad.crashed and not bad.timed_out
    assert "WorkerCrashed" in bad.error and "0 restart(s)" in bad.error
    assert report.results[1].ok
    assert report.failures == [bad]


def test_hang_budget_exhaustion_reports_timed_out(tmp_path):
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=1,
                     heartbeat_timeout=0.5, max_restarts=0)
    sup.sabotage = {0: {"hang": True}}
    report = sup.run(_specs(1))
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
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=1,
                     heartbeat_timeout=0.5, max_restarts=0)
    sup.sabotage = {0: sabotage}
    bad = sup.run([spec]).results[0]
    assert not bad.ok and getattr(bad, flag)
    assert bad.obs_level == "off"


def test_invariant_violation_fails_the_run_with_a_diagnosis(tmp_path):
    """Supervisor policy: a corrupt run is failed with a located
    diagnosis, never checkpointed or resumed."""
    specs = [RunSpec(corrupted_run,
                     {"payload_len": 384, "fault_spec": "none"},
                     label="corrupt")]
    report = Supervisor(checkpoint_dir=str(tmp_path), interval=256,
                        jobs=1).run(specs)
    bad = report.results[0]
    assert not bad.ok
    assert bad.error.startswith("InvariantViolation: [I105]")
    assert bad.metrics["violations"][0]["monitor"] == "I105"
    # the corrupt state was never persisted as a resumable checkpoint
    assert not os.path.exists(tmp_path / "run-000.ckpt.json")


# ---------------------------------------------------------------------------
# whole-sweep resume across process restarts
# ---------------------------------------------------------------------------
def test_resume_completes_a_killed_sweep(tmp_path):
    """Phase 1 'dies' mid-sweep (run 0 crashes with no restart budget);
    phase 2 — a brand-new Supervisor, as after a process restart —
    resumes: completed runs are skipped, the interrupted one continues
    from its checkpoint, and the final report is byte-identical to an
    uninterrupted sweep."""
    specs = _specs()
    first = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=2,
                       max_restarts=0)
    first.sabotage = {0: {"crash_after_checkpoints": 1}}
    crashed = first.run(specs)
    assert not crashed.results[0].ok and crashed.results[0].crashed
    assert all(r.ok for r in crashed.results[1:])
    assert os.path.exists(tmp_path / "run-000.ckpt.json")

    second = Supervisor(checkpoint_dir=str(tmp_path), interval=512, jobs=2)
    report = second.run(specs, resume=True)
    assert [r.ok for r in report.results] == [True, True, True]
    skipped = [n for n in report.notes if "already complete, skipped" in n]
    assert len(skipped) == 2
    assert report.to_json() == _plain_report(specs).to_json()


def test_resume_with_nothing_to_resume_is_an_error(tmp_path):
    with pytest.raises(SupervisorError, match="nothing to resume"):
        Supervisor(checkpoint_dir=str(tmp_path)).run(_specs(1), resume=True)


def test_rerunning_a_finished_sweep_requires_resume(tmp_path):
    specs = _specs(1)
    Supervisor(checkpoint_dir=str(tmp_path), interval=512).run(specs)
    with pytest.raises(SupervisorError, match="resume"):
        Supervisor(checkpoint_dir=str(tmp_path), interval=512).run(specs)
    # with resume=True it is a clean no-op sweep over cached results
    report = Supervisor(checkpoint_dir=str(tmp_path),
                        interval=512).run(specs, resume=True)
    assert report.results[0].ok
    assert any("skipped" in n for n in report.notes)


def test_checkpoint_dir_is_bound_to_one_sweep(tmp_path):
    Supervisor(checkpoint_dir=str(tmp_path), interval=512).run(_specs(1))
    other = _specs(2)
    with pytest.raises(SupervisorError, match="different sweep"):
        Supervisor(checkpoint_dir=str(tmp_path),
                   interval=512).run(other, resume=True)


# ---------------------------------------------------------------------------
# soak: a longer supervised sweep surviving multiple injected failures
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
    sup = Supervisor(checkpoint_dir=str(tmp_path), interval=1024, jobs=2,
                     heartbeat_timeout=2.0)
    sup.sabotage = {
        0: {"crash_after_checkpoints": 2},
        3: {"hang": True},
        5: {"crash_after_checkpoints": 1},
    }
    report = sup.run(specs)
    assert all(r.ok for r in report.results)
    assert any("total worker restarts: 3" in n for n in report.notes)
    assert report.to_json() == _plain_report(specs).to_json()
