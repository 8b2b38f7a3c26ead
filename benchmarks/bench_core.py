#!/usr/bin/env python
"""Core benchmark: simulator run time per observability level.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/bench_core.py [--quick] [--no-append]

Times ``EclipseSystem.run()`` on three canonical workloads — the
quickstart pipeline, a Figure-8 decode, and a faulted (chaos +
watchdog) conformance run — at every observability level.  ``off``
drops histories, fill statistics and sampling from the hot path, so it
should run no slower than ``full``.  The sweep asserts the cycle count
is identical at every level (observation is pure — it must never move
the schedule) and gates ``off`` against ``full`` on decode: if
stripping the observers makes a run slower (``--max-off-overhead``,
default 2%), the level plumbing itself has grown a hot-path cost.

Each invocation appends one entry to the ``BENCH_core.json`` trajectory
at the repo root, so run times are tracked from commit to commit.
Entries with schema ``repro.bench_core/1`` are history: they compared
the former reference and fast engines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_core.json")
BENCH_SCHEMA = "repro.bench_core/2"
OBS_LEVELS = ("off", "counters", "series", "full")


def _workloads(quick: bool):
    """name -> (factory dotted path, kwargs). Quick mode shrinks the
    decode so the CI smoke run stays in seconds."""
    decode = (
        {"width": 48, "height": 32, "frames": 4, "gop_n": 4, "gop_m": 2}
        if quick
        else {"width": 96, "height": 64, "frames": 6, "gop_n": 6, "gop_m": 3}
    )
    return {
        "quickstart": (
            "repro.workloads:quickstart_run",
            {"payload_len": 4096},
        ),
        "figure8_decode": ("repro.workloads:decode_run", decode),
        "conformance_faulted": (
            "repro.workloads:conformance_run",
            {
                "graph": "diamond",
                "payload_len": 2048 if quick else 4096,
                "fault_spec": "chaos",
                "fault_seed": 7,
                "watchdog_timeout": 2000,
            },
        ),
    }


def _run_once(factory_path: str, kwargs: dict, obs_level: str):
    """Build, run, and time one workload; returns (seconds, result)."""
    from repro.runner import resolve_factory

    system, graph = resolve_factory(factory_path)(obs_level=obs_level, **kwargs)
    system.configure(graph)
    t0 = time.perf_counter()
    result = system.run()
    return time.perf_counter() - t0, result


def bench_workload(name: str, factory_path: str, kwargs: dict, repeats: int) -> dict:
    """Best-of-``repeats`` run time per observability level."""
    levels = {}
    for level in OBS_LEVELS:
        best = None
        for _ in range(repeats):
            elapsed, result = _run_once(factory_path, kwargs, level)
            best = elapsed if best is None else min(best, elapsed)
        levels[level] = {"run_s": round(best, 4), "cycles": result.cycles}
    cycles = levels["full"]["cycles"]
    return {
        "workload": name,
        "kwargs": kwargs,
        "cycles": cycles,
        "obs_levels": {
            level: {"run_s": lv["run_s"], "cycles_match": lv["cycles"] == cycles}
            for level, lv in levels.items()
        },
    }


def append_trajectory(entry: dict, path: str = BENCH_PATH) -> None:
    trajectory = []
    if os.path.exists(path):
        with open(path) as fh:
            trajectory = json.load(fh)
    trajectory.append(entry)
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small workloads, 1 repeat (the CI smoke mode)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats per level (best-of); default 3, 1 with --quick")
    ap.add_argument("--max-off-overhead", type=float, default=0.02,
                    help="fail if obs_level=off runs more than this fraction "
                    "slower than full (default: 0.02)")
    ap.add_argument("--no-append", action="store_true",
                    help="do not append to BENCH_core.json")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)

    rows = []
    print(f"{'workload':<22} {'cycles':>8} " + " ".join(f"{lv:>9}" for lv in OBS_LEVELS))
    for name, (factory_path, kwargs) in _workloads(args.quick).items():
        row = bench_workload(name, factory_path, kwargs, repeats)
        rows.append(row)
        times = " ".join(f"{row['obs_levels'][lv]['run_s']:>8.3f}s" for lv in OBS_LEVELS)
        print(f"{name:<22} {row['cycles']:>8} {times}")

    entry = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "results": rows,
    }
    if not args.no_append:
        append_trajectory(entry)
        print(f"appended to {os.path.relpath(BENCH_PATH)}")

    failures = []
    for row in rows:
        for level, lv in row["obs_levels"].items():
            if not lv["cycles_match"]:
                failures.append(
                    f"{row['workload']}: cycle count drifts at obs_level={level} "
                    "— observation moved the event schedule"
                )
    decode = next(r for r in rows if r["workload"] == "figure8_decode")
    off_s = decode["obs_levels"]["off"]["run_s"]
    full_s = decode["obs_levels"]["full"]["run_s"]
    if full_s and off_s > full_s * (1.0 + args.max_off_overhead):
        failures.append(
            f"figure8_decode obs_level=off ({off_s}s) is more than "
            f"{args.max_off_overhead:.0%} slower than full ({full_s}s) — "
            "the level plumbing added hot-path cost"
        )
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
