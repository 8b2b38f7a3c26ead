"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics.  The exit
code is 0 only when every correctness check passed.
``--workload all`` runs every workload in turn, each in its own
process.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: one in-process set-up plus this many more in fresh interpreters
EXTRA_SETUPS = 2


def metric_units(kind):
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=["all", "decode", "stream_chaos", "sweep"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the measured window (decode, stream_chaos)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it as JSON (used internally)")
    return p.parse_args(argv)


def extra_setups(args):
    """Set up again in fresh interpreters, so imports are paid each time."""
    samples = []
    for _ in range(EXTRA_SETUPS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_all(args):
    """Every workload in its own process; a table, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("decode", "stream_chaos", "sweep"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import stats, workloads

    import_s = time.perf_counter() - _T0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps(dict(workload.setup_only(), import_s=import_s)))
        return 0

    out = workload.traced(args.seconds) if args.trace else workload.timed(args.seconds)
    setups = [dict(out.setup, import_s=import_s)] + extra_setups(args)
    setup = {k: stats.median([s[k] for s in setups]) for k in setups[0]}
    setup_s = stats.median([sum(s.values()) for s in setups])

    if args.trace:
        units = metric_units("per_layer")
        values = dict(out.metrics)
        values.update({f"setup.{k}": v for k, v in setup.items()})
        unknown = sorted(set(values) - set(units))
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
        # a layer the workload does not exercise reads 0
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in units.items()}
        path = os.path.join(workloads.WORK_DIR, f"{args.workload}-{args.seed}.trace.json")
        os.makedirs(workloads.WORK_DIR, exist_ok=True)
        out.tracer.write(path)
        print(f"{args.workload}: traced run, spans written to {path}")
        for name, share in sorted(out.shares.items(), key=lambda kv: -kv[1]):
            print(f"  share of traced wall time  {name:<24} {share:7.1%}")
    else:
        values = dict(out.metrics, setup_s=setup_s)
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    print(f"{args.workload}: seed {args.seed}, {out.attempted} operations, "
          f"{out.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")
    for problem in out.problems[:20]:
        print(f"  FAILED: {problem}")
    correct = out.failed == 0 and not out.problems
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
