"""Kill and crash isolation under every entry point.

A run that outlives its ``RunSpec.timeout`` must come back ``timed_out``
soon after the deadline — its worker is killed, not waited out — under
the runner (in-process and parallel) and the sweep service (plain and
checkpointed).  A worker that dies must fail only the run it was executing,
and closing the service must leave no worker process behind.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro.runner import ParallelRunner, RunSpec
from repro.service import ResultStore, SweepService
from repro.workloads import quickstart_run

TIMEOUT = 0.5
#: a killed run must be reported within this long after its deadline
SLACK = 5.0


def sleeping_run(seconds):
    """A run that takes ``seconds`` of wall time before it builds."""
    time.sleep(seconds)
    return quickstart_run(payload_len=256)


def dying_run():
    """A run whose worker process dies mid-call."""
    os._exit(3)


def _sleeper(**fields):
    return RunSpec(sleeping_run, {"seconds": 30}, label="sleeper",
                   timeout=TIMEOUT, **fields)


def _healthy(i=0):
    return RunSpec(quickstart_run, {"payload_len": 256 + 64 * i}, label=f"ok-{i}")


def _assert_timed_out(result, elapsed):
    assert not result.ok and result.timed_out and not result.crashed
    assert "TimeoutError: run exceeded 0.5s" in result.error
    assert elapsed < TIMEOUT + SLACK


@pytest.mark.parametrize("jobs", [1, 2])
def test_runner_kills_a_timed_out_run(jobs):
    start = time.monotonic()
    report = ParallelRunner(jobs=jobs).run([_sleeper(), _healthy()])
    _assert_timed_out(report.results[0], time.monotonic() - start)
    assert report.results[1].ok


@pytest.mark.parametrize("interval", [None, 256], ids=["plain", "checkpointed"])
def test_service_kills_a_timed_out_run(tmp_path, interval):
    async def main():
        store = ResultStore(str(tmp_path / "store"))
        async with SweepService(store, jobs=1, checkpoint_interval=interval) as svc:
            start = time.monotonic()
            resp = await svc.submit(_sleeper())
            return resp, time.monotonic() - start, len(store)

    resp, elapsed, stored = asyncio.run(main())
    _assert_timed_out(resp.result, elapsed)
    assert not resp.ok and stored == 0  # a timeout is never cached


def test_dead_worker_fails_only_its_own_run():
    specs = [_healthy(i) for i in range(5)]
    specs.insert(2, RunSpec(dying_run, label="dies"))
    report = ParallelRunner(jobs=2, retries=1).run(specs)
    assert report.failures == [report.results[2]]
    dead = report.results[2]
    assert dead.crashed and not dead.timed_out and dead.attempts == 2
    assert dead.error == "WorkerCrashed: exit code 3"


def test_service_keeps_serving_after_a_worker_death(tmp_path):
    async def main():
        async with SweepService(ResultStore(str(tmp_path / "store")), jobs=1) as svc:
            dead = await svc.submit(RunSpec(dying_run, label="dies"))
            healthy = [await svc.submit(_healthy(i)) for i in range(3)]
            return dead, healthy

    dead, healthy = asyncio.run(main())
    assert not dead.ok and dead.result.crashed
    assert [r.ok for r in healthy] == [True, True, True]


def test_service_close_stops_a_busy_worker(tmp_path):
    """close() kills the worker mid-run, and the request's remaining
    retries start no other."""

    async def main():
        svc = SweepService(ResultStore(str(tmp_path / "store")), jobs=1)
        await svc.start()
        started = asyncio.Event()

        def on_event(ev):
            if ev["event"] == "started":
                started.set()

        waiter = asyncio.ensure_future(svc.submit(_sleeper(retries=2), on_event=on_event))
        await asyncio.wait_for(started.wait(), SLACK)
        await asyncio.sleep(0.3)  # the worker is inside the call now
        await svc.close()
        deadline = time.monotonic() + SLACK
        while multiprocessing.active_children() and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        gone = not multiprocessing.active_children()
        stayed_gone = True
        for _ in range(10):
            await asyncio.sleep(0.1)
            stayed_gone = stayed_gone and not multiprocessing.active_children()
        return await waiter, gone, stayed_gone

    resp, gone, stayed_gone = asyncio.run(main())
    assert gone and stayed_gone
    assert not resp.ok and "service closed" in resp.result.error
    assert "before execution" not in resp.result.error
