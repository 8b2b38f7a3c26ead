"""EXP-R2 — resilience overhead: checkpointing and checkpointed sweeps.

The acceptance bound for the checkpoint/restore subsystem: at the
default checkpoint cadence (``DEFAULT_INTERVAL`` cycles) the
advance/capture/save loop must cost **under 15%** CPU time over an
uninterrupted ``run()`` of the same workload — while producing a
byte-identical result.  Also measured: the cost of one restore (replay
to the boundary) and the end-to-end checkpointed sweep on the sweep
service vs the plain parallel runner.
"""

import asyncio
import json
import statistics
import time

from conftest import run_once

from repro.resilience.snapshot import SystemSnapshot, capture, restore
from repro.resilience.supervisor import DEFAULT_INTERVAL
from repro.runner import ParallelRunner, RunSpec
from repro.service import ResultStore, SweepService
from repro.workloads import conformance_run

FACTORY = "repro.workloads:conformance_run"
KWARGS = {"graph": "diamond", "payload_len": 8192,
          "fault_spec": "chaos", "fault_seed": 0}


def _build():
    system, graph = conformance_run(**KWARGS)
    system.configure(graph)
    return system


def _blob(result):
    return json.dumps(result.to_dict(include_histories=True), sort_keys=True)


def plain_run():
    return _build().run()


def checkpointed_run(path, interval=DEFAULT_INTERVAL):
    """The checkpointed worker loop: advance, checkpoint, repeat."""
    system = _build()
    written = 0
    finished = False
    while not finished:
        finished = system.advance(system.sim.now + interval)
        if finished or system.sim.peek() is None:
            break
        capture(system, FACTORY, KWARGS).save(path)
        written += 1
    return system.run(), written


def _cpu_time(fn):
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def test_checkpoint_overhead_under_15pct(benchmark, tmp_path):
    """The acceptance bound, measured at the default cadence as the
    median ratio of 7 alternating plain/checkpointed pairs.  ``save``
    does no fsync, so CPU time misses no wait, and it does not count
    the other processes of a shared host."""
    path = str(tmp_path / "bench.ckpt.json")
    base = plain_run()  # also warms caches/imports
    ckpt_result, written = checkpointed_run(path)
    assert written >= 3, "workload must cross several checkpoint boundaries"
    assert _blob(ckpt_result) == _blob(base), "checkpointing changed the run"

    pairs = [(_cpu_time(plain_run), _cpu_time(lambda: checkpointed_run(path)))
             for _ in range(7)]
    overhead = statistics.median(ckpt / plain for plain, ckpt in pairs) - 1.0
    t_plain, t_ckpt = (statistics.median(t) for t in zip(*pairs))
    print(f"\nEXP-R2 checkpoint overhead at interval={DEFAULT_INTERVAL}: "
          f"{t_plain * 1e3:.0f} ms -> {t_ckpt * 1e3:.0f} ms CPU "
          f"({overhead * 100:+.1f}% median of 7 pairs, {written} checkpoints "
          f"over {base.cycles} cycles)")
    run_once(benchmark, lambda: checkpointed_run(path))
    benchmark.extra_info["checkpoints_written"] = written
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 1)
    assert overhead < 0.15, (
        f"checkpoint overhead {overhead * 100:.1f}% exceeds the 15% budget"
    )


def test_restore_replays_to_the_boundary(benchmark, tmp_path):
    """Restore cost is the replay to the captured cycle — bounded by
    one plain run — and the restored run finishes byte-identically."""
    base = plain_run()
    path = str(tmp_path / "restore.ckpt.json")
    system = _build()
    assert not system.advance(base.cycles // 2)
    capture(system, FACTORY, KWARGS).save(path)
    snap = SystemSnapshot.load(path)
    restored = run_once(benchmark, lambda: restore(snap))
    assert restored.sim.now == base.cycles // 2
    assert _blob(restored.run()) == _blob(base)
    benchmark.extra_info["replay_cycles"] = snap.cycle


def test_supervised_sweep_vs_plain_runner(benchmark, tmp_path):
    """End-to-end: a checkpointed 4-run sweep on the sweep service,
    byte-identical report to the plain runner; the wall-clock delta is
    the price of crash tolerance (worker processes, checkpoint files,
    liveness polling, the result store)."""
    specs = [
        RunSpec(conformance_run,
                {"graph": g, "payload_len": 4096, "fault_spec": "chaos",
                 "fault_seed": s}, label=f"bench-{g}-{s}")
        for g in ("pipeline", "diamond") for s in (0, 1)
    ]
    t0 = time.perf_counter()
    plain = ParallelRunner(jobs=2).run(specs)
    t_plain = time.perf_counter() - t0

    async def sweep():
        async with SweepService(ResultStore(str(tmp_path / "sweep")), jobs=2,
                                checkpoint_interval=DEFAULT_INTERVAL) as svc:
            return await svc.run_batch(specs)

    report = run_once(benchmark, lambda: asyncio.run(sweep()))
    assert report.to_json() == plain.to_json()
    benchmark.extra_info["plain_wall_s"] = round(t_plain, 3)
    benchmark.extra_info["supervised_wall_s"] = round(report.wall_time, 3)
    print(f"\nEXP-R2 checkpointed sweep: plain {t_plain:.2f}s vs "
          f"checkpointed {report.wall_time:.2f}s (4 runs, jobs=2)")
