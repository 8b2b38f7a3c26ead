#!/usr/bin/env python
"""Network-ingest benchmark: transport cost, overhead gate, loss sweep.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/bench_net.py [--quick] [--no-append]

Three questions, answered with numbers and asserted with gates:

* **What does the ingest pre-pass cost?**  Raw :func:`repro.net.ingest`
  throughput on a realistic TS, clean and under each preset — the
  event-loop cost of FEC, RTX and reordering, independent of the DES.
* **Is the clean path free?**  At 0% loss the lossy pipeline must be
  byte-identical to the packet-free one (asserted) and its end-to-end
  wall time (ingest + build + run) must stay within ``--max-overhead``
  of the packet-free baseline: the transport may not tax runs that
  don't need it.
* **How does decode time scale with loss?**  A drop sweep on the full
  DES: cycles stay flat (concealment replaces decode work instead of
  stalling the pipeline) while lost slots / concealed frames grow.

Each invocation appends one entry to ``BENCH_net.json`` at the repo
root, so ingest cost is tracked over time like the core numbers.
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

BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_net.json")
BENCH_SCHEMA = "repro.bench_net/1"
PRESETS = ("none", "mild", "moderate", "heavy", "jitter")


def _content(quick: bool):
    from repro.workloads import _av_transport_stream

    if quick:
        return _av_transport_stream(48, 32, 3, gop_n=3, gop_m=1, audio_blocks=3)
    return _av_transport_stream(96, 64, 6, gop_n=6, gop_m=3, audio_blocks=8)


def bench_ingest(ts: bytes, repeats: int) -> list:
    """Raw ingest cost per preset (no DES involved)."""
    from repro.net import ingest
    from repro.sim.faults import LossPlan

    rows = []
    for preset in PRESETS:
        plan = LossPlan.parse(preset, seed=1)
        best = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = ingest(ts, plan)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        rows.append({
            "preset": preset,
            "ingest_s": round(best, 5),
            "ts_bytes": len(ts),
            "mb_per_s": round(len(ts) / best / 1e6, 1) if best else 0.0,
            "slots_lost": res.stats.slots_lost,
            "fec_recovered": res.stats.fec_recovered,
            "rtx_recovered": res.stats.rtx_recovered,
        })
    return rows


def _timed_decode(codec, ts, frames, lossy: bool, loss_spec: str = "none"):
    """(wall seconds incl. build, result) for one full DES decode."""
    from repro.core.config import SystemParams
    from repro.instance.eclipse_mpeg import build_mpeg_instance
    from repro.media.av_pipeline import (
        AV_DECODE_MAPPING,
        av_decode_graph,
        lossy_av_decode_graph,
    )
    from repro.net import ingest
    from repro.sim.faults import LossPlan

    t0 = time.perf_counter()
    if lossy:
        res = ingest(ts, LossPlan.parse(loss_spec, seed=1))
        graph = lossy_av_decode_graph(res, codec, frames,
                                      mapping=AV_DECODE_MAPPING, name="av_decode")
    else:
        graph = av_decode_graph(ts, codec, frames, mapping=AV_DECODE_MAPPING)
    system = build_mpeg_instance(SystemParams())
    system.configure(graph)
    result = system.run()
    return time.perf_counter() - t0, result


def bench_overhead(codec, ts, frames, repeats: int) -> dict:
    """The 0%-loss gate: byte-identity plus end-to-end overhead."""
    plain_s = lossy_s = None
    for _ in range(repeats):
        t, plain_result = _timed_decode(codec, ts, frames, lossy=False)
        plain_s = t if plain_s is None else min(plain_s, t)
        t, lossy_result = _timed_decode(codec, ts, frames, lossy=True)
        lossy_s = t if lossy_s is None else min(lossy_s, t)
    identical = (plain_result.to_dict(include_histories=True)
                 == lossy_result.to_dict(include_histories=True))
    return {
        "plain_s": round(plain_s, 4),
        "lossy_0pct_s": round(lossy_s, 4),
        "overhead": round(lossy_s / plain_s - 1.0, 4) if plain_s else 0.0,
        "identical": identical,
    }


def bench_loss_sweep(codec, ts, frames, drops) -> list:
    """Full-DES decode under growing drop rates."""
    rows = []
    for drop in drops:
        # recovery off: every drop becomes an erasure, so the sweep
        # shows pure concealment scaling (FEC/RTX efficacy is the
        # ingest table's and the conformance differential's job)
        spec = f"drop={drop},fec_group=0,max_rtx=0,seed=1"
        elapsed, result = _timed_decode(codec, ts, frames, lossy=True,
                                        loss_spec=spec if drop else "none")
        deg = result.degradation or {"tasks": {}}
        video = deg["tasks"].get("vld", {})
        transport = deg["tasks"].get("demux", {})
        rows.append({
            "drop": drop,
            "run_s": round(elapsed, 4),
            "cycles": result.cycles,
            "completed": result.completed,
            "slots_lost": transport.get("packets_erased", 0),
            "frames_concealed": video.get("frames_concealed", 0),
        })
    return rows


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
                    help="small content, 1 repeat (the CI smoke mode)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="timing repeats (best-of); default 3, 1 with --quick")
    ap.add_argument("--max-overhead", type=float, default=0.10,
                    help="fail if the 0%%-loss lossy pipeline is more than "
                    "this fraction slower end-to-end (default: 0.10)")
    ap.add_argument("--no-append", action="store_true",
                    help="do not append to BENCH_net.json")
    args = ap.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)

    codec, ts = _content(args.quick)
    frames = 3 if args.quick else 6

    ingest_rows = bench_ingest(ts, repeats)
    print(f"{'preset':<10} {'ingest s':>9} {'MB/s':>7} {'lost':>5} "
          f"{'fec':>4} {'rtx':>4}")
    for row in ingest_rows:
        print(f"{row['preset']:<10} {row['ingest_s']:>9.5f} "
              f"{row['mb_per_s']:>7.1f} {row['slots_lost']:>5} "
              f"{row['fec_recovered']:>4} {row['rtx_recovered']:>4}")

    overhead = bench_overhead(codec, ts, frames, repeats)
    print(f"\n0% loss end-to-end: plain {overhead['plain_s']:.3f}s, "
          f"lossy-path {overhead['lossy_0pct_s']:.3f}s "
          f"({overhead['overhead']:+.1%}), "
          f"identical={overhead['identical']}")

    drops = (0.0, 0.1, 0.2) if args.quick else (0.0, 0.05, 0.1, 0.15, 0.2)
    sweep_rows = bench_loss_sweep(codec, ts, frames, drops)
    print(f"\n{'drop':>5} {'run s':>8} {'cycles':>9} {'lost':>5} {'concealed':>10}")
    for row in sweep_rows:
        print(f"{row['drop']:>5.2f} {row['run_s']:>8.3f} {row['cycles']:>9} "
              f"{row['slots_lost']:>5} {row['frames_concealed']:>10}")

    entry = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "ingest": ingest_rows,
        "overhead": overhead,
        "loss_sweep": sweep_rows,
    }
    if not args.no_append:
        append_trajectory(entry)
        print(f"appended to {os.path.relpath(BENCH_PATH)}")

    failures = []
    if not overhead["identical"]:
        failures.append("0%-loss lossy pipeline is NOT byte-identical to the "
                        "packet-free pipeline")
    if overhead["overhead"] > args.max_overhead:
        failures.append(
            f"0%-loss ingest overhead {overhead['overhead']:.1%} exceeds the "
            f"{args.max_overhead:.0%} gate")
    for row in sweep_rows:
        if not row["completed"]:
            failures.append(f"decode did not complete at drop={row['drop']}")
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        return 1
    print("\nall network gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
