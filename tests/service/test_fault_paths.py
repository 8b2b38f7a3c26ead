"""Fault paths: crashed workers, corrupted entries, warm starts.

Two promises under test.  First, supervised execution inside the
service inherits the resilience suite's guarantees: a worker crash or
hang mid-job is retried from the last checkpoint and the recovered
result is byte-identical to an undisturbed run — so the cache is never
poisoned by the recovery machinery.  Second, the store never serves
bytes it cannot verify: a corrupted entry (one flipped byte, a torn
write) is detected by digest, evicted, and recomputed — and when
checkpoints survive, the recomputation warm-starts from the snapshot
instead of paying for the whole prefix again.

These tests run the real checkpointed execution path with its sabotage
hook (actual worker processes killed mid-simulation), so they are the
slowest in the service suite.
"""

import asyncio
import json
import os
from pathlib import Path

import pytest

from repro.runner import RunSpec, _execute_spec
from repro.service import ResultStore, SweepService, cache_key
from repro.service.store import result_payload
from tests.service.factories import MARKER_ENV, execution_count

COUNTED = "tests.service.factories:counted_conformance_run"
INTERVAL = 256  # checkpoints reliably on the 384-byte conformance workload


def _spec(tag="run", payload_len=384):
    return RunSpec(factory=COUNTED,
                   kwargs={"tag": tag, "payload_len": payload_len},
                   label=f"{tag}-{payload_len}")


def _service(tmp_path, **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("checkpoint_interval", INTERVAL)
    kw.setdefault("heartbeat_timeout", 2.0)
    return SweepService(ResultStore(str(tmp_path / "store")), **kw)


@pytest.mark.parametrize("setting", [
    {"jobs": 0}, {"checkpoint_interval": 0},
    {"heartbeat_timeout": 0}, {"max_restarts": -1},
], ids=lambda setting: next(iter(setting)))
def test_bad_supervision_settings_are_rejected_when_built(tmp_path, setting):
    """A bad setting fails the constructor, not every later request."""
    name = next(iter(setting))
    with pytest.raises(ValueError, match=name):
        _service(tmp_path, **setting)


def test_worker_crash_mid_job_recovers_without_poisoning_the_cache(tmp_path, monkeypatch):
    """Kill the worker after its first checkpoint: the job restarts
    from the snapshot, succeeds, and the cached bytes are identical to
    an undisturbed run's."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = _spec("crash")
    undisturbed = result_payload(_execute_spec(0, spec))

    async def main():
        async with _service(tmp_path) as svc:
            svc.sabotage = [{"crash_after_checkpoints": 1}]
            first = await svc.submit(spec)
            hit = await svc.submit(spec)
            return first, hit, svc.metrics.to_dict()

    first, hit, metrics = asyncio.run(main())
    assert first.ok and first.cache == "miss"
    assert first.payload == undisturbed
    # the crash really happened and was recovered
    assert metrics["service.supervisor.worker_crashes"]["value"] == 1
    assert metrics["service.supervisor.worker_restarts"]["value"] == 1
    # and the recovered result is served from the cache afterwards
    assert hit.cache == "hit" and hit.payload == undisturbed


def test_hung_worker_is_detected_and_replaced(tmp_path, monkeypatch):
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = _spec("hang")
    undisturbed = result_payload(_execute_spec(0, spec))

    async def main():
        async with _service(tmp_path, heartbeat_timeout=1.0) as svc:
            svc.sabotage = [{"hang": True}]
            return await svc.submit(spec), svc.metrics.to_dict()

    resp, metrics = asyncio.run(main())
    assert resp.ok and resp.payload == undisturbed
    assert metrics["service.supervisor.worker_hangs"]["value"] == 1


def test_exhausted_restart_budget_fails_the_job_and_is_not_cached(tmp_path, monkeypatch):
    """A worker that dies before its first checkpoint with
    max_restarts=0 fails the job — the failure reaches the waiter but
    never the store, the rest of the batch completes, and the next
    submission runs clean."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    spec = _spec("budget")

    async def main():
        async with _service(tmp_path, max_restarts=0) as svc:
            svc.sabotage = [{"crash_after_checkpoints": 0}]
            failed, rest = await asyncio.gather(svc.submit(spec),
                                                svc.submit(_spec("rest")))
            stored_after_failure = list(svc.store.keys())
            clean = await svc.submit(spec)
            return failed, rest, stored_after_failure, clean

    failed, rest, stored_after_failure, clean = asyncio.run(main())
    assert not failed.ok and failed.cache == "miss"
    assert failed.result.crashed and "WorkerCrashed" in failed.result.error
    assert "0 restart(s)" in failed.result.error
    assert rest.ok and stored_after_failure == [rest.key]
    assert clean.ok and clean.cache == "miss"
    assert clean.payload == result_payload(_execute_spec(0, spec))


def test_request_failed_by_close_reports_the_requested_obs_level(tmp_path):
    """close() fails every request still queued; the failure result
    carries the observability tier the request asked for."""
    spec = RunSpec(factory="repro.workloads:quickstart_run",
                   kwargs={"payload_len": 512, "obs_level": "off"}, label="off")

    async def main():
        svc = SweepService(ResultStore(str(tmp_path / "store")), jobs=1,
                           use_process_pool=False)
        # never started: the request stays queued until close()
        pending = asyncio.ensure_future(svc.submit(spec))
        await asyncio.sleep(0)
        await svc.close()
        return await pending

    resp = asyncio.run(main())
    assert not resp.ok
    assert "service closed" in resp.result.error
    assert resp.result.obs_level == "off"


def test_corrupted_entry_is_detected_evicted_and_recomputed(tmp_path, monkeypatch):
    """Flip one byte of a cached payload: the digest check catches it,
    the entry is evicted, the request recomputes, and the recomputed
    bytes match the original — corruption is never served."""
    marker = str(tmp_path / "marker")
    monkeypatch.setenv(MARKER_ENV, marker)
    spec = _spec("corrupt")

    async def main():
        async with _service(tmp_path) as svc:
            cold = await svc.submit(spec)
            # flip one byte on disk
            path = svc.store.payload_path(cold.key)
            blob = bytearray(Path(path).read_bytes())
            blob[10] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(bytes(blob))
            recomputed = await svc.submit(spec)
            again = await svc.submit(spec)
            return cold, recomputed, again, svc.store.metrics.to_dict()

    cold, recomputed, again, store_metrics = asyncio.run(main())
    assert recomputed.cache == "miss"  # the corrupt entry did NOT hit
    assert recomputed.payload == cold.payload
    assert store_metrics["store.corrupt_evictions"]["value"] == 1
    assert again.cache == "hit" and again.payload == cold.payload
    assert execution_count(marker, "corrupt") == 2


def test_recomputation_warm_starts_from_surviving_checkpoints(tmp_path, monkeypatch):
    """The recomputation after an eviction resumes from the snapshot
    the first execution checkpointed — visible in the warm-start
    counter and in the surviving checkpoint file — and still produces
    the exact original bytes."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = _spec("warm")
    key = cache_key(spec, INTERVAL)

    async def main():
        async with _service(tmp_path) as svc:
            cold = await svc.submit(spec)
            ckpt = os.path.join(svc.store.checkpoint_dir(key),
                                "run-000.ckpt.json")
            assert os.path.exists(ckpt), "supervised run left no checkpoint"
            cycle = json.loads(Path(ckpt).read_text())["body"]["cycle"]
            assert cycle >= INTERVAL
            svc.store.evict(cold.key)
            warm = await svc.submit(spec)
            return cold, warm, svc.metrics.to_dict()

    cold, warm, metrics = asyncio.run(main())
    assert warm.cache == "miss" and warm.payload == cold.payload
    assert metrics["service.warmstart.resumes"]["value"] == 1


def test_corrupt_checkpoint_is_discarded_and_recomputed(tmp_path, monkeypatch):
    """Flip one byte of the checkpoint a recomputation would resume
    from (the file is no longer valid UTF-8): the restore fails with a
    SnapshotError, the service discards the snapshot and computes from
    scratch, and the bytes match the cold run's."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = _spec("stale")

    async def main():
        async with _service(tmp_path) as svc:
            cold = await svc.submit(spec)
            ckpt = Path(svc.store.checkpoint_dir(cold.key)) / "run-000.ckpt.json"
            blob = bytearray(ckpt.read_bytes())
            blob[10] ^= 0xFF
            ckpt.write_bytes(bytes(blob))
            svc.store.evict(cold.key)
            again = await svc.submit(spec)
            return cold, again, svc.metrics.to_dict()

    cold, again, metrics = asyncio.run(main())
    assert again.ok and again.cache == "miss"
    assert again.payload == cold.payload
    assert metrics["service.warmstart.discards"]["value"] == 1
    # the failed restore is not a warm start
    assert metrics.get("service.warmstart.resumes", {"value": 0})["value"] == 0


def test_unsupervised_and_supervised_payloads_are_byte_identical(tmp_path, monkeypatch):
    """Same spec through the plain pool and through supervised
    execution: different cache keys (the interval is an exec param),
    same bytes — checkpointing is invisible in the results."""
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    spec = _spec("both")

    async def main():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=1, use_process_pool=False) as plain:
            a = await plain.submit(spec)
        async with SweepService(store, jobs=1,
                                checkpoint_interval=INTERVAL) as supervised:
            b = await supervised.submit(spec)
        return a, b

    a, b = asyncio.run(main())
    assert a.key != b.key  # exec params key separately...
    assert a.payload == b.payload  # ...but cannot change the bytes
