"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    package/version/instance summary.
``quickstart``
    the Kahn-equivalence demo on a 2-coprocessor instance.
``decode``
    encode a synthetic sequence, decode it on the Figure 8 instance,
    print the Figure 9 views, the Figure 10 traces and the bottleneck
    attribution.
``estimate``
    the Section 6 area/power/Gops table.
``explore``
    the §7 design-space sweeps (cache, prefetch, bus, buffers).
``conformance``
    the differential conformance harness: run application graphs
    through the functional Kahn executor and the fault-injected
    cycle-level system across a seed sweep, asserting byte-identical
    stream histories (Kahn determinism as the oracle).
``verify``
    static analysis before any simulation: KPN/SDF graph lints and
    abstract-interpretation protocol checks over the named workloads
    (``--workload``), the seeded mutation corpus (``--corpus``), or the
    rule catalogue (``--list-rules``).  Exits non-zero iff an
    error-severity diagnostic is present.  See docs/static-analysis.md.
``trace``
    run a workload under the span tracer and export a Chrome-trace/
    Perfetto JSON timeline (``--out``); ``--check`` lints the exported
    file against the trace schema (rules O301-O303).  See
    docs/observability.md.
``serve``
    the sweep service: a long-running asyncio server with a priority
    queue, a bounded worker pool and a content-addressed result cache,
    speaking newline-delimited JSON on a unix socket (``--socket``) or
    stdio (``--stdio``).  Identical requests are served from the cache
    byte-for-byte; concurrent identical requests cost one execution.
    See docs/sweep-service.md.
``submit``
    one-shot client for a running ``serve``: submit a named workload
    (``--workload``, with ``--arg key=value`` parameters) or any
    ``module:function`` factory (``--factory``), print the verified
    result, optionally save the canonical payload bytes (``--out``).
    ``--stats`` and ``--shutdown`` poke the server instead.

The run commands accept ``--obs-level {off,counters,series,full}`` to
pick how much the simulation records (default ``full``, today's
byte-identical behaviour; ``off`` is the fastest) and
``--sample-interval CYCLES`` to attach the periodic time-series
sampler.  Levels below ``full`` skip the golden history comparisons —
the histories are simply not recorded.

``quickstart``, ``decode`` and ``conformance`` accept ``--fault-plan``
(a preset name or ``key=value`` list, see
:meth:`repro.sim.faults.FaultPlan.parse`) and ``--watchdog-timeout``
to exercise the robustness machinery.

``conformance`` and ``explore`` fan their independent simulation runs
out over :mod:`repro.runner` worker processes: ``--jobs N`` picks the
parallelism (default: all cores), ``--report PATH`` writes the
machine-readable JSON report.  The report's deterministic sections are
byte-identical at any ``--jobs`` count; ``--report-timing`` opts into
embedding the wall-clock block (which naturally varies run to run).
See docs/parallel-runs.md.

``--checkpoint-dir DIR`` runs the same sweeps on the sweep service
over a result store in DIR (checkpointed runs, crash/hang/timeout
detection, bounded restarts); running again with the same DIR serves
finished runs from the store and resumes interrupted ones from their
checkpoints.  See docs/resilience.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` for a count or a cycle interval: an int >= 1.
    A bad value exits 2 with argparse's one ``error:`` line, before any
    work starts."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="inject transport faults: a preset (chaos, drop, dup, delay, "
        "stall, corrupt, blackout) or a key=value list, e.g. "
        "'drop=0.2,delay=0.3,seed=7'",
    )
    p.add_argument(
        "--fault-seed", type=int, default=None, help="override the fault plan's seed"
    )
    p.add_argument(
        "--watchdog-timeout",
        type=_positive_int,
        default=None,
        metavar="CYCLES",
        help="enable the shell watchdog: re-send space credits after CYCLES "
        "without progress (exponential backoff)",
    )


def _add_loss_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--loss-plan",
        metavar="SPEC",
        help="feed the stream through the lossy network ingest first: a "
        "preset (none, mild, moderate, heavy, jitter) or a key=value "
        "list, e.g. 'drop=0.1,fec_group=4,max_rtx=3,seed=7'",
    )
    p.add_argument(
        "--loss-seed", type=int, default=None,
        help="override the loss plan's seed",
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    from repro.obs.level import LEVELS

    p.add_argument(
        "--obs-level",
        choices=LEVELS,
        default="full",
        help="observability level: how much the run records (default: "
        "'full' — byte-identical histories + op log; 'off' is the "
        "fastest, structural counters only; see docs/observability.md)",
    )
    p.add_argument(
        "--sample-interval",
        type=_positive_int,
        default=None,
        metavar="CYCLES",
        help="attach the periodic time-series sampler (occupancy/"
        "utilization every CYCLES cycles; needs --obs-level series "
        "or full)",
    )


def _add_runner_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel simulation processes (default: all cores; 1 = serial)",
    )
    p.add_argument(
        "--report",
        metavar="PATH",
        help="write the machine-readable JSON run report to PATH "
        "(deterministic: byte-identical at any --jobs count)",
    )
    p.add_argument(
        "--report-timing",
        action="store_true",
        help="embed the wall-clock timing block in --report (breaks "
        "byte-identity across runs)",
    )
    p.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="run the sweep crash-tolerantly over a result store in DIR: "
        "runs checkpoint as they go, and running again with the same DIR "
        "reuses finished runs and resumes interrupted ones (see "
        "docs/resilience.md)",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=None,
        metavar="CYCLES",
        help="simulated cycles between checkpoints (default: 4096)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eclipse heterogeneous multiprocessor architecture — "
        "IPPS 2002 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and instance summary")
    qs = sub.add_parser("quickstart", help="Kahn-equivalence demo")
    _add_fault_args(qs)
    _add_obs_args(qs)
    sub.add_parser("estimate", help="Section 6 area/power/Gops estimates")

    dec = sub.add_parser("decode", help="decode on the Figure 8 instance")
    dec.add_argument("--width", type=int, default=96)
    dec.add_argument("--height", type=int, default=64)
    dec.add_argument("--frames", type=int, default=12)
    dec.add_argument("--gop-n", type=int, default=12)
    dec.add_argument("--gop-m", type=int, default=3)
    dec.add_argument("--interval", type=_positive_int, default=250,
                     help="sampling interval (cycles)")
    dec.add_argument("--half-pel", action="store_true")
    dec.add_argument("--json", metavar="PATH", help="write the machine-readable result to PATH")
    _add_fault_args(dec)
    _add_loss_args(dec)
    _add_obs_args(dec)

    exp = sub.add_parser("explore", help="design-space sweeps (paper §7)")
    exp.add_argument("--frames", type=int, default=6)
    _add_runner_args(exp)
    _add_obs_args(exp)

    conf = sub.add_parser(
        "conformance",
        help="differential conformance harness: faulted cycle-level runs vs "
        "the functional Kahn executor over a seed sweep",
    )
    conf.add_argument("--seeds", type=_positive_int, default=10,
                      help="number of fault seeds to sweep")
    conf.add_argument(
        "--graph",
        choices=["pipeline", "diamond", "all"],
        default="all",
        help="which application graphs to run",
    )
    conf.add_argument("--payload", type=_positive_int, default=2048,
                      help="payload bytes per graph")
    _add_fault_args(conf)
    _add_loss_args(conf)
    _add_runner_args(conf)
    _add_obs_args(conf)

    tr = sub.add_parser(
        "trace",
        help="span-traced run exported as Chrome-trace/Perfetto JSON",
    )
    tr.add_argument(
        "--workload",
        choices=["quickstart", "decode"],
        default="decode",
        help="which canonical workload to trace (default: decode)",
    )
    tr.add_argument(
        "--out",
        metavar="PATH",
        default="trace.json",
        help="trace JSON output path (default: trace.json; load it in "
        "https://ui.perfetto.dev or chrome://tracing)",
    )
    tr.add_argument(
        "--capacity",
        type=int,
        default=100_000,
        metavar="N",
        help="ring-buffer capacity in events (oldest dropped beyond N)",
    )
    tr.add_argument(
        "--ascii",
        action="store_true",
        help="also print the ASCII architecture/application views",
    )
    tr.add_argument(
        "--check",
        action="store_true",
        help="lint the exported trace against the schema (rules "
        "O301-O303) and exit non-zero on errors",
    )
    tr.add_argument(
        "--obs-level",
        choices=["series", "full"],
        default="full",
        help="observability level for the traced run (spans need time "
        "series: 'series' or 'full'; default: full)",
    )

    srv = sub.add_parser(
        "serve",
        help="run the sweep service: async job queue + content-addressed "
        "result cache over newline-delimited JSON (docs/sweep-service.md)",
    )
    srv.add_argument(
        "--socket",
        metavar="PATH",
        default="sweep.sock",
        help="unix socket path to listen on (default: sweep.sock)",
    )
    srv.add_argument(
        "--stdio",
        action="store_true",
        help="serve one client on stdin/stdout instead of a socket "
        "(useful under a process supervisor or in tests)",
    )
    srv.add_argument(
        "--store",
        metavar="DIR",
        default="sweep-store",
        help="result-store root: cached payloads under objects/, per-"
        "request checkpoints under ckpt/ (default: sweep-store)",
    )
    srv.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="concurrent executions, one worker process each (default: 2)",
    )
    srv.add_argument(
        "--checkpoint-interval",
        type=_positive_int,
        default=None,
        metavar="CYCLES",
        help="run every request crash-tolerantly, checkpointing every "
        "CYCLES cycles into the store (enables restart-from-snapshot "
        "and warm-start recomputation)",
    )
    srv.add_argument(
        "--threads",
        action="store_true",
        help="execute plain requests in threads instead of worker "
        "processes (no timeouts; mainly for constrained environments)",
    )

    sbm = sub.add_parser(
        "submit",
        help="submit one run to a running sweep service and print the "
        "verified result",
    )
    sbm.add_argument(
        "--socket",
        metavar="PATH",
        default="sweep.sock",
        help="unix socket of the running service (default: sweep.sock)",
    )
    what = sbm.add_mutually_exclusive_group()
    what.add_argument(
        "--workload",
        metavar="NAME",
        help="a named workload factory (see repro.workloads.RUN_FACTORIES: "
        "quickstart, decode, conformance)",
    )
    what.add_argument(
        "--factory",
        metavar="MOD:FN",
        help="any module-level factory as a 'module:function' reference",
    )
    sbm.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="factory keyword argument (repeatable); VALUE is parsed as "
        "JSON when possible, else kept as a string",
    )
    sbm.add_argument(
        "--budget",
        type=int,
        metavar="BYTES",
        help="submit an SRAM budget instead of a full spec: the server "
        "solves --workload (a solve-model name; default "
        "conformance-pipeline) for minimal buffers under BYTES and runs "
        "the derived configuration",
    )
    sbm.add_argument("--label", default="", help="run label (part of the result)")
    sbm.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="N",
        help="queue priority: lower runs earlier (default: 0)",
    )
    sbm.add_argument(
        "--stream",
        action="store_true",
        help="print queue/execution progress events as they happen",
    )
    sbm.add_argument(
        "--out",
        metavar="PATH",
        help="write the canonical result payload bytes to PATH "
        "(byte-identical for cache hit and cold run — cmp-able)",
    )
    sbm.add_argument(
        "--stats",
        action="store_true",
        help="print the server's health snapshot instead of submitting",
    )
    sbm.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down instead of submitting",
    )

    ver = sub.add_parser(
        "verify",
        help="static analysis: KPN graph lints + kernel shell-protocol checks",
    )
    ver.add_argument(
        "--workload",
        metavar="NAME",
        default="all",
        help="verify one named workload factory (default: all)",
    )
    ver.add_argument(
        "--corpus",
        action="store_true",
        help="run the seeded mutation corpus instead of the workloads "
        "(every known-bad case must be flagged)",
    )
    ver.add_argument(
        "--format", choices=["text", "json"], default="text", help="report format"
    )
    ver.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="suppress a rule by ID (repeatable), e.g. --ignore G009",
    )
    ver.add_argument(
        "--max-steps",
        type=int,
        default=12,
        metavar="N",
        help="abstract-interpretation steps per kernel session",
    )
    ver.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    ver.add_argument(
        "--verbose", action="store_true", help="also print checker notes (skipped kernels etc.)"
    )

    slv = sub.add_parser(
        "solve",
        help="derive a configuration (buffer sizes, grain, mapping) "
        "from an SRAM budget instead of checking one",
    )
    slv.add_argument(
        "--workload",
        metavar="NAME",
        default="conformance-pipeline",
        help="solve model to configure (see repro.verify.SOLVE_MODELS; "
        "default: conformance-pipeline)",
    )
    slv.add_argument(
        "--sram",
        type=int,
        metavar="BYTES",
        help="SRAM budget in bytes (default: the instance's own SRAM)",
    )
    slv.add_argument(
        "--elasticity",
        type=int,
        default=1,
        metavar="K",
        help="grow buffers toward K x their minimum while the budget "
        "allows (default: 1 = strictly minimal)",
    )
    slv.add_argument(
        "--grain",
        type=_positive_int,
        metavar="BYTES",
        help="pin the sync grain instead of searching the candidates",
    )
    slv.add_argument(
        "--no-refine",
        action="store_true",
        help="skip the simulation-guided refinement layer (static "
        "bounds only; may under-size reconvergent workloads)",
    )
    slv.add_argument(
        "--max-refine",
        type=int,
        default=64,
        metavar="N",
        help="refinement-round bound before giving up with S405",
    )
    slv.add_argument(
        "--check",
        action="store_true",
        help="round-trip the solution through `repro verify` and a "
        "simulation before printing it",
    )
    slv.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    slv.add_argument(
        "--out",
        metavar="PATH",
        help="also write the solution JSON to PATH",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "info": _cmd_info,
        "quickstart": _cmd_quickstart,
        "decode": _cmd_decode,
        "estimate": _cmd_estimate,
        "explore": _cmd_explore,
        "conformance": _cmd_conformance,
        "verify": _cmd_verify,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "solve": _cmd_solve,
    }[args.command](args)


# ---------------------------------------------------------------------------
def _fault_setup(args, params):
    """(FaultPlan or None, params with watchdog applied) from CLI args."""
    from repro import FaultPlan

    plan = None
    if getattr(args, "fault_plan", None):
        try:
            plan = FaultPlan.parse(args.fault_plan, seed=getattr(args, "fault_seed", None))
        except ValueError as e:
            print(f"error: invalid --fault-plan: {e}", file=sys.stderr)
            raise SystemExit(2)
        if not plan.any_faults():
            plan = None
    if getattr(args, "watchdog_timeout", None) is not None:
        params = params.with_(watchdog_timeout=args.watchdog_timeout)
    return plan, params


def _obs_setup(args):
    """Validated (obs_level, sample_interval) from CLI args; the
    level/interval compatibility error exits cleanly instead of
    surfacing SystemParams' ValueError traceback."""
    from repro.obs.level import ObservabilityLevel

    level = getattr(args, "obs_level", "full")
    interval = getattr(args, "sample_interval", None)
    if interval is not None:
        if not ObservabilityLevel.parse(level).series:
            print(f"error: --sample-interval needs time series, but "
                  f"--obs-level {level} disables them (use 'series' or "
                  "'full')", file=sys.stderr)
            raise SystemExit(2)
    return level, interval


def _codec_setup(args, **fixed):
    """Validated CodecParams for the sequence a command encodes: the
    ``fixed`` fields, else the --width/--height/--gop-n/--gop-m/
    --half-pel flags.  A bad value (or --frames < 1) exits cleanly
    before any encoding instead of surfacing a traceback from the
    encoder or the VLD."""
    from repro import CodecParams

    if args.frames < 1:
        print(f"error: --frames must be >= 1, got {args.frames}", file=sys.stderr)
        raise SystemExit(2)
    fields = fixed or {"width": args.width, "height": args.height, "gop_n": args.gop_n,
                       "gop_m": args.gop_m, "half_pel": args.half_pel}
    try:
        params = CodecParams(**fields)
    except ValueError as e:
        print(f"error: invalid --width/--height: {e}", file=sys.stderr)
        raise SystemExit(2)
    try:
        params.gop()
    except ValueError as e:
        print(f"error: invalid --gop-n/--gop-m: {e}", file=sys.stderr)
        raise SystemExit(2)
    return params


def _runner_jobs(args) -> int:
    """Validated --jobs value (None = all cores)."""
    import os

    jobs = getattr(args, "jobs", None)
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        print(f"error: --jobs must be >= 1, got {jobs}", file=sys.stderr)
        raise SystemExit(2)
    return jobs


def _run_sweep(specs, args, jobs):
    """Run a spec list through the plain pool, or — when
    --checkpoint-dir is given — through an in-process
    :class:`repro.service.SweepService` over a result store in that
    directory, with checkpointed executions.  Either way the
    deterministic report payload is identical (docs/resilience.md)."""
    from repro.runner import ParallelRunner

    directory = getattr(args, "checkpoint_dir", None)
    if directory is None:
        if getattr(args, "checkpoint_interval", None) is not None:
            print("error: --checkpoint-interval requires --checkpoint-dir",
                  file=sys.stderr)
            raise SystemExit(2)
        return ParallelRunner(jobs=jobs).run(specs)

    import asyncio

    from repro.resilience.supervisor import DEFAULT_INTERVAL
    from repro.service import ResultStore, SweepService

    try:
        store = ResultStore(directory)
    except OSError as e:
        print(f"error: cannot use --checkpoint-dir {directory!r}: {e}", file=sys.stderr)
        raise SystemExit(2)
    service = SweepService(store, jobs=min(jobs, len(specs)),
                           checkpoint_interval=args.checkpoint_interval or DEFAULT_INTERVAL)

    async def sweep():
        async with service:
            return await service.run_batch(specs)

    report = asyncio.run(sweep())
    count = service.metrics.counter
    print(f"note: {len(specs)} runs: {count('service.executions').value} executed, "
          f"{count('service.cache.hits').value} from {directory}, "
          f"{count('service.supervisor.worker_restarts').value} worker restart(s)")
    return report


def _write_report(report, args) -> None:
    """Write the JSON run report if --report was given; unwritable
    paths exit cleanly instead of dumping a traceback."""
    path = getattr(args, "report", None)
    if not path:
        return
    try:
        report.write(path, include_timing=getattr(args, "report_timing", False))
    except OSError as e:
        print(f"error: cannot write --report {path!r}: {e}", file=sys.stderr)
        raise SystemExit(2)
    print(f"wrote {path}")


def _run_or_diagnose(system, **run_kw):
    """system.run(), but a stall/deadlock prints its diagnosis (which
    tasks are blocked on which access points) instead of a traceback.
    Returns None on deadlock."""
    from repro import StalledError

    try:
        return system.run(**run_kw)
    except StalledError as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def _print_degradation(result) -> None:
    deg = getattr(result, "degradation", None)
    if not deg:
        return
    for tname, stats in deg["tasks"].items():
        kind = stats.get("kind")
        if kind == "video":
            print(
                f"degradation[{tname}]: "
                f"{stats['frames_decoded']}/{stats['frames_total']} frames decoded, "
                f"{stats['frames_concealed']} concealed "
                f"({stats['mbs_concealed']} MBs)"
                + (", header reconstructed" if stats.get("header_concealed") else "")
            )
        elif kind == "audio":
            print(
                f"degradation[{tname}]: "
                f"{stats['blocks_decoded']}/{stats['blocks_total']} audio blocks "
                f"decoded, {stats['blocks_silenced']} silenced"
            )
        elif kind == "transport":
            net = stats.get("net", {})
            print(
                f"degradation[{tname}]: {stats['packets_erased']} slots erased "
                f"(link dropped {net.get('packets_dropped', 0)}, "
                f"FEC recovered {net.get('fec_recovered', 0)}, "
                f"RTX recovered {net.get('rtx_recovered', 0)}, "
                f"{net.get('nacks_sent', 0)} NACKs)"
            )
    for d in deg.get("diagnoses", []):
        from repro.verify.diagnostics import rule

        r = rule(d["rule"])
        print(f"  {d['rule']} {r.severity} [{d['task']}]: {d['message']}")


def _print_robustness(result) -> None:
    rob = result.robustness
    if not rob:
        return
    inj = rob.get("injected", {})
    print(
        "faults injected: "
        f"{rob['messages_dropped']} dropped, "
        f"{inj.get('messages_duplicated', 0)} duplicated, "
        f"{inj.get('messages_delayed', 0)} delayed, "
        f"{inj.get('messages_reordered', 0)} reordered, "
        f"{inj.get('stalls_injected', 0)} stalls "
        f"({inj.get('stall_cycles', 0)} cycles), "
        f"{inj.get('corruptions_injected', 0)} corruptions"
    )
    print(
        "recovery: "
        f"{rob['watchdog_fires']} watchdog fires, "
        f"{rob['retries_sent']} retries, "
        f"{rob['recoveries']} recoveries, "
        f"{rob['corruptions_detected']} corruptions caught by parity"
    )


# ---------------------------------------------------------------------------
def _cmd_info(args) -> int:
    import repro
    from repro.instance.eclipse_mpeg import COPROCESSORS, DECODE_MAPPING, ENCODE_MAPPING

    print(f"repro {repro.__version__} — Eclipse (Rutten et al., IPPS 2002)")
    print(f"instance units: {', '.join(COPROCESSORS)}")
    print(f"decode mapping: {DECODE_MAPPING}")
    print(f"encode mapping: {ENCODE_MAPPING}")
    print("see README.md / DESIGN.md / EXPERIMENTS.md for the full story")
    return 0


def _cmd_quickstart(args) -> int:
    from repro import CoprocessorSpec, EclipseSystem, FunctionalExecutor, SystemParams
    from repro.workloads import quickstart_graph

    payload = bytes((11 * i) % 256 for i in range(4096))

    def graph():
        return quickstart_graph(payload)

    level, interval = _obs_setup(args)
    plan, params = _fault_setup(
        args, SystemParams(obs_level=level, sample_interval=interval)
    )
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    system = EclipseSystem([CoprocessorSpec("cp0"), CoprocessorSpec("cp1")], params, faults=plan)
    system.configure(graph())
    result = _run_or_diagnose(system)
    if result is None:
        return 1
    if system.obs.histories:
        golden = FunctionalExecutor(graph()).run()
        ok = result.histories["s_src_out"] == golden.histories["s_src_out"]
        print(f"cycle-level run: {result.cycles} cycles; history matches reference: {ok}")
    else:
        ok = True
        print(f"cycle-level run: {result.cycles} cycles; history comparison "
              f"skipped at obs_level={level} (histories need 'full')")
    if system.sampler is not None:
        util = system.sampler.utilization
        samples = max((len(s) for s in util.values()), default=0)
        print(f"sampler: {samples} sample(s) at interval={system.sampler.interval}")
    _print_robustness(result)
    return 0 if ok else 1


def _cmd_decode_lossy(args) -> int:
    """``decode --loss-plan``: the full A/V decode behind the seeded
    lossy network ingest, with per-frame degradation accounting."""
    from repro import build_mpeg_instance, synthetic_sequence
    from repro.media import encode_sequence
    from repro.media.audio import BLOCK_SAMPLES, adpcm_encode, synthetic_pcm
    from repro.media.av_pipeline import AV_DECODE_MAPPING, lossy_av_decode_graph
    from repro.media.transport import AUDIO_PID, VIDEO_PID, ts_mux
    from repro.net import ingest
    from repro.sim.faults import LossPlan
    from repro.trace.viewer import render_application_view, render_architecture_view

    try:
        plan = LossPlan.parse(args.loss_plan, seed=args.loss_seed)
    except ValueError as e:
        print(f"error: invalid --loss-plan: {e}", file=sys.stderr)
        raise SystemExit(2)
    params = _codec_setup(args)
    frames = synthetic_sequence(params.width, params.height, args.frames, noise=1.0)
    video_es, _golden, _stats = encode_sequence(frames, params)
    audio_es = adpcm_encode(synthetic_pcm(BLOCK_SAMPLES * max(2, args.frames)))
    ts = ts_mux({VIDEO_PID: video_es, AUDIO_PID: audio_es})
    print(f"encoded {args.frames} frames + audio -> {len(ts)} TS bytes")
    print(f"loss plan: {plan.describe()}")
    res = ingest(ts, plan)
    s = res.stats
    print(
        f"ingest: {s.data_packets} data + {s.parity_packets} parity + "
        f"{s.rtx_packets} rtx packets; dropped={s.packets_dropped} "
        f"fec_recovered={s.fec_recovered} rtx_recovered={s.rtx_recovered} "
        f"lost={s.slots_lost} ({s.ticks} ticks)"
    )
    from repro import SystemParams

    level, interval = _obs_setup(args)
    system = build_mpeg_instance(
        SystemParams(dram_latency=60, obs_level=level, sample_interval=interval)
    )
    system.configure(
        lossy_av_decode_graph(res, params, args.frames, mapping=AV_DECODE_MAPPING)
    )
    result = _run_or_diagnose(system)
    if result is None:
        return 1
    print(f"decoded in {result.cycles} cycles")
    _print_degradation(result)
    print()
    print(render_architecture_view(result))
    print()
    print(render_application_view(result))
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_decode(args) -> int:
    if getattr(args, "loss_plan", None):
        return _cmd_decode_lossy(args)
    from repro import (
        DECODE_MAPPING,
        build_mpeg_instance,
        decode_graph,
        encode_sequence,
        synthetic_sequence,
    )
    from repro.obs.level import ObservabilityLevel
    from repro.trace.analysis import bottleneck_by_frame_type, per_frame_type_service
    from repro.trace.viewer import render_application_view, render_architecture_view, render_fill_traces

    params = _codec_setup(args)
    frames = synthetic_sequence(params.width, params.height, args.frames, noise=1.0)
    bitstream, _golden, _stats = encode_sequence(frames, params)
    print(f"encoded {args.frames} frames -> {len(bitstream)} bytes")
    from repro import SystemParams

    level, interval = _obs_setup(args)
    # --sample-interval overrides the legacy --interval; either way the
    # sampler is attached by configure()
    sample_every = interval if interval is not None else args.interval
    if not ObservabilityLevel.parse(level).series:
        sample_every = None
    plan, sys_params = _fault_setup(
        args,
        SystemParams(dram_latency=60, obs_level=level, sample_interval=sample_every),
    )
    if plan is not None:
        print(f"fault plan: {plan.describe()}")
    system = build_mpeg_instance(sys_params, faults=plan)
    system.configure(decode_graph(bitstream, mapping=DECODE_MAPPING))
    sampler = system.sampler
    result = _run_or_diagnose(system)
    if result is None:
        return 1
    print(f"decoded in {result.cycles} cycles")
    _print_robustness(result)
    print()
    print(render_architecture_view(result))
    print()
    print(render_application_view(result))
    if sampler is None:
        print(f"\nFigure 10 traces skipped at obs_level={level} "
              "(time series need 'series' or 'full')")
    else:
        plans = params.gop().coded_order(args.frames)
        marks = sampler.frame_boundaries("vld", params.mbs_per_frame)
        print("\nFigure 10 traces:")
        print(
            render_fill_traces(
                {k: sampler.stream_fill[k] for k in (("coef", "rlsq"), ("dequant", "idct"), ("resid", "mc"))},
                buffer_sizes={n: s.buffer_size for n, s in result.streams.items()},
                frame_marks=marks,
                frame_types=[p.frame_type.value for p in plans],
            )
        )
        service = per_frame_type_service(
            sampler, plans, params.mbs_per_frame, {"rlsq": "rlsq", "idct": "dct", "mc": "mcme"}
        )
        print(f"\nbottleneck per frame type: {bottleneck_by_frame_type(service)}")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_estimate(args) -> int:
    from repro import AreaPowerModel

    model = AreaPowerModel()
    est = model.estimate()
    print("Section 6 instance estimates (paper -> model):")
    print(f"  Gops/s (2x HD decode): ~36 -> {est.gops:.1f}")
    print(f"  area: <7 mm^2 -> {est.area_mm2:.2f} mm^2")
    for block, mm2 in sorted(est.area_breakdown.items()):
        print(f"    {block:>8}: {mm2:5.2f} mm^2")
    print(f"  power: <240 mW -> {est.power_mw:.1f} mW")
    checks = model.paper_claims_hold()
    print(f"  all paper bounds hold: {all(checks.values())}")
    return 0 if all(checks.values()) else 1


def _cmd_explore(args) -> int:
    from repro import encode_sequence, synthetic_sequence
    from repro.runner import RunSpec
    from repro.workloads import explore_decode_run

    jobs = _runner_jobs(args)
    params = _codec_setup(args, width=48, height=32, gop_n=6, gop_m=3)
    frames = synthetic_sequence(params.width, params.height, args.frames)
    bitstream, _, _ = encode_sequence(frames, params)

    prefetch_levels = (0, 2, 8)
    buffer_levels = (1, 3, 8)
    level, interval = _obs_setup(args)
    base = {"bitstream": bitstream, "obs_level": level, "sample_interval": interval}
    specs = [RunSpec(explore_decode_run, dict(base), label="baseline")]
    specs += [
        RunSpec(explore_decode_run, {**base, "prefetch_lines": pf},
                label=f"prefetch={pf}")
        for pf in prefetch_levels
    ]
    specs += [
        RunSpec(explore_decode_run, {**base, "buffer_packets": pkts},
                label=f"buffer_packets={pkts}")
        for pkts in buffer_levels
    ]
    report = _run_sweep(specs, args, jobs)
    for res in report.failures:
        print(f"error: {res.label} failed: {res.error}", file=sys.stderr)
    if report.failures:
        return 1

    by_label = {r.label: r for r in report.results}
    print(f"baseline decode: {by_label['baseline'].cycles} cycles")
    print("prefetch sweep:")
    for pf in prefetch_levels:
        print(f"  {pf} lines ahead: {by_label[f'prefetch={pf}'].cycles} cycles")
    print("buffer sweep:")
    for pkts in buffer_levels:
        print(f"  {pkts} packets/buffer: {by_label[f'buffer_packets={pkts}'].cycles} cycles")
    print(
        f"\n{len(specs)} runs on {report.jobs} jobs: {report.wall_time:.2f}s wall, "
        f"~{report.serial_time_estimate:.2f}s serial, {report.speedup:.2f}x"
    )
    _write_report(report, args)
    return 0


def _cmd_conformance_loss(args) -> int:
    """``conformance --loss-plan``: the lossy-ingest differential.  For
    every seed the conferencing workload is rebuilt (the ingest is a
    pure function of the seed), the functional Kahn executor produces
    the golden stream histories for *that* degraded graph, and the
    cycle-level run must reproduce them byte-for-byte."""
    from repro import FunctionalExecutor
    from repro.obs.level import ObservabilityLevel
    from repro.runner import RunSpec, _histories_digest
    from repro.sim.faults import LossPlan
    from repro.workloads import conferencing_run

    jobs = _runner_jobs(args)
    try:
        base = LossPlan.parse(args.loss_plan, seed=args.loss_seed)
    except ValueError as e:
        print(f"error: invalid --loss-plan: {e}", file=sys.stderr)
        raise SystemExit(2)
    seed_base = base.seed
    level, interval = _obs_setup(args)
    compare_histories = ObservabilityLevel.parse(level).histories
    if not compare_histories:
        print(f"note: obs_level={level} records no histories — checking "
              "completion only, not byte-identity against the Kahn oracle")

    def kwargs_for(seed):
        return {
            "loss_spec": args.loss_plan,
            "loss_seed": seed,
            "obs_level": level,
            "sample_interval": interval,
        }

    golden = {}
    if compare_histories:
        for i in range(args.seeds):
            seed = seed_base + i
            _system, graph = conferencing_run(**kwargs_for(seed))
            golden[seed] = _histories_digest(
                FunctionalExecutor(graph).run().histories
            )
    specs = [
        RunSpec(
            factory=conferencing_run,
            kwargs=kwargs_for(seed_base + i),
            label=f"conferencing:seed={seed_base + i}",
        )
        for i in range(args.seeds)
    ]
    report = _run_sweep(specs, args, jobs)

    failures = 0
    for res in report.results:
        seed = seed_base + res.index
        ok = res.ok and res.completed and (
            not compare_histories or res.histories_sha256 == golden[seed]
        )
        failures += 0 if ok else 1
        if not res.ok:
            print(f"conferencing seed={seed:<4} FAIL  ({res.error})")
            continue
        deg = res.metrics.get("degradation") or {}
        vld = deg.get("tasks", {}).get("vld", {})
        net = deg.get("tasks", {}).get("demux", {}).get("net", {})
        print(
            f"conferencing seed={seed:<4} "
            f"{'PASS' if ok else 'FAIL'}  "
            f"cycles={res.cycles:<7} "
            f"dropped={net.get('packets_dropped', 0):<3} "
            f"fec={net.get('fec_recovered', 0):<3} "
            f"rtx={net.get('rtx_recovered', 0):<3} "
            f"concealed={vld.get('frames_concealed', 0)}/"
            f"{vld.get('frames_total', 0)}"
        )
    total = len(specs)
    verdict = ("byte-identical to the Kahn oracle" if compare_histories
               else "completed (histories not recorded)")
    print(f"\nloss conformance: {total - failures}/{total} runs {verdict}")
    print(
        f"{total} runs on {report.jobs} jobs: {report.wall_time:.2f}s wall, "
        f"~{report.serial_time_estimate:.2f}s serial, {report.speedup:.2f}x"
    )
    _write_report(report, args)
    return 0 if failures == 0 else 1


def _cmd_conformance(args) -> int:
    """Differential conformance: faulted cycle-level runs must reproduce
    the functional executor's stream histories byte-for-byte.  The seed
    sweep fans out over the repro.runner worker processes (--jobs)."""
    if getattr(args, "loss_plan", None):
        return _cmd_conformance_loss(args)
    from repro import FaultPlan, FunctionalExecutor
    from repro.runner import RunSpec, _histories_digest
    from repro.workloads import GRAPH_BUILDERS, conformance_run, payload_of

    jobs = _runner_jobs(args)
    names = list(GRAPH_BUILDERS) if args.graph == "all" else [args.graph]
    spec_str = args.fault_plan or "chaos"
    try:  # validate the plan up front, once, with a clean message
        base_plan = FaultPlan.parse(spec_str)
    except ValueError as e:
        print(f"error: invalid --fault-plan: {e}", file=sys.stderr)
        raise SystemExit(2)
    watchdog = args.watchdog_timeout if args.watchdog_timeout is not None else 2000
    # an explicit --fault-seed (including 0) overrides the plan's
    # inline seed; absent means "sweep from the plan's own seed"
    seed_base = args.fault_seed if args.fault_seed is not None else base_plan.seed

    level, interval = _obs_setup(args)
    from repro.obs.level import ObservabilityLevel

    compare_histories = ObservabilityLevel.parse(level).histories
    if not compare_histories:
        print(f"note: obs_level={level} records no histories — checking "
              "completion only, not byte-identity against the Kahn oracle")
    golden = {
        gname: _histories_digest(
            FunctionalExecutor(GRAPH_BUILDERS[gname](payload_of(args.payload))).run().histories
        )
        for gname in names
    } if compare_histories else {}
    specs = [
        RunSpec(
            factory=conformance_run,
            kwargs={
                "graph": gname,
                "payload_len": args.payload,
                "fault_spec": spec_str,
                "fault_seed": seed_base + i,
                "watchdog_timeout": watchdog,
                "obs_level": level,
                "sample_interval": interval,
            },
            label=f"{gname}:seed={seed_base + i}",
        )
        for gname in names
        for i in range(args.seeds)
    ]
    report = _run_sweep(specs, args, jobs)

    failures = 0
    for res in report.results:
        gname = res.label.split(":", 1)[0]
        seed = seed_base + res.index % args.seeds
        ok = res.ok and res.completed and (
            not compare_histories or res.histories_sha256 == golden[gname]
        )
        failures += 0 if ok else 1
        if not res.ok:
            print(f"{gname:>8} seed={seed:<4} FAIL  ({res.error})")
            continue
        rob = res.metrics.get("robustness") or {}
        print(
            f"{gname:>8} seed={seed:<4} "
            f"{'PASS' if ok else 'FAIL'}  "
            f"cycles={res.cycles:<7} "
            f"dropped={rob.get('messages_dropped', 0):<3} "
            f"retries={rob.get('retries_sent', 0):<4} "
            f"recoveries={rob.get('recoveries', 0)}"
        )
    total = len(specs)
    verdict = ("byte-identical to the Kahn oracle" if compare_histories
               else "completed (histories not recorded)")
    print(f"\nconformance: {total - failures}/{total} runs {verdict}")
    print(
        f"{total} runs on {report.jobs} jobs: {report.wall_time:.2f}s wall, "
        f"~{report.serial_time_estimate:.2f}s serial, {report.speedup:.2f}x"
    )
    _write_report(report, args)
    return 0 if failures == 0 else 1


def _cmd_trace(args) -> int:
    """Run a workload under the span tracer and export the timeline as
    Chrome-trace JSON (Perfetto-loadable).  --check lints the exported
    file (O301-O303); its exit code follows the Report contract."""
    from repro.workloads import decode_run, quickstart_run

    if args.capacity < 1:
        print(f"error: --capacity must be >= 1, got {args.capacity}", file=sys.stderr)
        raise SystemExit(2)
    factory = {"quickstart": quickstart_run, "decode": decode_run}[args.workload]
    system, graph = factory(obs_level=args.obs_level)
    system.configure(graph)
    tracer = system.attach_tracer(capacity=args.capacity)
    result = _run_or_diagnose(system)
    if result is None:
        return 1
    s = tracer.summary()
    print(
        f"{args.workload}: {result.cycles} cycles, "
        f"{s['events']} trace event(s) recorded "
        f"({s['dropped']} dropped, {s['open_spans']} left open)"
    )
    for cat, n in s["by_category"].items():
        print(f"  {cat:>10}: {n}")
    if args.ascii:
        from repro.trace.viewer import render_application_view, render_architecture_view

        print()
        print(render_architecture_view(result))
        print()
        print(render_application_view(result))
    try:
        tracer.write(args.out)
    except OSError as e:
        print(f"error: cannot write --out {args.out!r}: {e}", file=sys.stderr)
        raise SystemExit(2)
    print(f"wrote {args.out} — load it in https://ui.perfetto.dev or chrome://tracing")
    if args.check:
        from repro.verify import lint_trace_file

        report = lint_trace_file(args.out)
        for d in report:
            print(d.render())
        c = report.counts()
        print(f"trace check: {c['error']} error(s), {c['warning']} warning(s)")
        return report.exit_code
    return 0


def _cmd_serve(args) -> int:
    """Run the sweep service until a client sends ``shutdown`` (or
    Ctrl-C).  Socket mode accepts many concurrent clients; ``--stdio``
    serves exactly one on the process's own pipes."""
    import asyncio
    import os

    from repro.service import ResultStore, SweepService, serve_stdio, serve_unix

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        raise SystemExit(2)

    async def _main() -> None:
        store = ResultStore(args.store)
        service = SweepService(
            store,
            jobs=args.jobs,
            checkpoint_interval=args.checkpoint_interval,
            use_process_pool=not args.threads,
        )
        async with service:
            if args.stdio:
                # stdout belongs to the protocol; the banner goes to stderr
                print(f"sweep service on stdio (store: {args.store}, "
                      f"jobs: {args.jobs})", file=sys.stderr, flush=True)
                await serve_stdio(service)
                return
            if os.path.exists(args.socket):
                os.remove(args.socket)  # stale socket from a previous run
            server = await serve_unix(service, args.socket)
            print(f"sweep service on {args.socket} (store: {args.store}, "
                  f"jobs: {args.jobs}"
                  + (f", checkpoint every {args.checkpoint_interval} cycles"
                     if args.checkpoint_interval else "")
                  + ")", flush=True)
            try:
                await service.shutdown_requested.wait()
            finally:
                server.close()
                await server.wait_closed()
                try:
                    os.remove(args.socket)
                except OSError:
                    pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted — cache and checkpoints are on disk, restart to "
              "continue serving", file=sys.stderr)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _parse_submit_args(pairs):
    """``--arg key=value`` pairs into kwargs: values parse as JSON when
    they can (numbers, booleans, null, quoted strings, lists) and stay
    strings otherwise, so ``--arg payload_len=512 --arg graph=diamond``
    both do what they look like."""
    import json

    kwargs = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            print(f"error: --arg wants KEY=VALUE, got {pair!r}", file=sys.stderr)
            raise SystemExit(2)
        try:
            kwargs[key] = json.loads(value)
        except json.JSONDecodeError:
            kwargs[key] = value
    return kwargs


def _cmd_submit(args) -> int:
    """One-shot client: submit a run (or poke the server with --stats/
    --shutdown), verify the byte-identity contract on the response,
    print the outcome."""
    import asyncio

    from repro.service.client import ClientError, SweepClient, submit_once

    if args.stats or args.shutdown:
        async def _poke() -> int:
            async with SweepClient(args.socket) as client:
                if args.stats:
                    import json

                    print(json.dumps(await client.stats(), indent=2,
                                     sort_keys=True))
                if args.shutdown:
                    await client.shutdown()
                    print("server shutting down")
            return 0

        try:
            return asyncio.run(_poke())
        except (ClientError, ConnectionError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    kwargs = _parse_submit_args(args.arg)
    if args.budget is not None and args.factory:
        print("error: --budget solves a named workload; it cannot be "
              "combined with --factory", file=sys.stderr)
        raise SystemExit(2)
    if args.budget is not None:
        # budget mode: the server derives the configuration itself
        from repro.verify.solve_run import SOLVE_MODELS

        name = args.workload or "conformance-pipeline"
        if name not in SOLVE_MODELS:
            print(f"error: unknown solve model {name!r} "
                  f"(want one of {sorted(SOLVE_MODELS)})", file=sys.stderr)
            raise SystemExit(2)
        factory = "repro.workloads:solved_run"
        kwargs = {"workload": name, "sram_size": args.budget, **kwargs}
    elif args.factory:
        factory = args.factory
    else:
        from repro.workloads import RUN_FACTORIES

        name = args.workload or "quickstart"
        if name not in RUN_FACTORIES:
            print(f"error: unknown workload {name!r} "
                  f"(want one of {sorted(RUN_FACTORIES)} or --factory)",
                  file=sys.stderr)
            raise SystemExit(2)
        factory = f"repro.workloads:{RUN_FACTORIES[name].__name__}"

    from repro.runner import RunSpec

    spec = RunSpec(factory=factory, kwargs=kwargs, label=args.label)
    on_event = None
    if args.stream:
        def on_event(ev: dict) -> None:
            print(f"  [{ev.get('event')}] {ev.get('key', '')[:12]}")

    try:
        res = submit_once(args.socket, spec, priority=args.priority,
                          stream=args.stream, on_event=on_event)
    except (ClientError, ConnectionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    result = res.result
    print(f"{result.label or spec.describe()}: "
          f"{'ok' if res.ok else 'FAILED'} ({res.cache}) "
          f"cycles={result.cycles} key={res.key[:12]} "
          f"payload_sha256={res.payload_sha256[:12]}")
    if not res.ok and result.error:
        print(f"error: {result.error}", file=sys.stderr)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(res.payload)
        except OSError as e:
            print(f"error: cannot write --out {args.out!r}: {e}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    return 0 if res.ok else 1


def _cmd_verify(args) -> int:
    """Static analysis: exits 0 when clean (warnings/infos allowed),
    1 on any error-severity diagnostic, 2 on usage errors."""
    import json

    from repro.verify import RULES, run_corpus, verify_kernel_sources, verify_workload
    from repro.verify.run import WORKLOADS

    if args.list_rules:
        for rid in sorted(RULES):
            r = RULES[rid]
            print(f"{r.id}  {str(r.severity):>7}  {r.title:<26} {r.summary}")
        return 0

    if args.corpus:
        report, rows = run_corpus()
        if args.format == "json":
            print(json.dumps({"cases": rows, "counts": report.counts()},
                             indent=2, sort_keys=True))
        else:
            for row in rows:
                status = "PASS" if row["passed"] else "FAIL"
                print(f"{status}  {row['case']:<28} expected {','.join(row['expected'])}"
                      f" found {','.join(row['found']) or '-'}")
            n_ok = sum(1 for r in rows if r["passed"])
            print(f"\ncorpus: {n_ok}/{len(rows)} seeded violations flagged")
            for d in report:
                print(d.render())
        return report.exit_code

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} "
              f"(want one of {sorted(WORKLOADS)} or 'all')", file=sys.stderr)
        return 2
    if args.max_steps < 1:
        print(f"error: --max-steps must be >= 1, got {args.max_steps}", file=sys.stderr)
        return 2

    reports = {}
    try:
        for name in names:
            reports[name] = verify_workload(name, max_steps=args.max_steps).ignoring(args.ignore)
        reports["kernel-sources"] = verify_kernel_sources().ignoring(args.ignore)
    except KeyError as e:  # a typo'd --ignore rule ID
        print(f"error: {e.args[0]}", file=sys.stderr)
        return 2

    exit_code = max(r.exit_code for r in reports.values())
    if args.format == "json":
        print(json.dumps({name: r.to_dict() for name, r in reports.items()},
                         indent=2, sort_keys=True))
        return exit_code
    for name, rep in reports.items():
        c = rep.counts()
        verdict = "FAIL" if rep.has_errors else "ok"
        print(f"== {name}: {verdict} ({c['error']} error(s), "
              f"{c['warning']} warning(s), {c['info']} info(s))")
        for d in rep:
            print(f"   {d.render()}")
        if args.verbose:
            for n in rep.notes:
                print(f"   note: {n}")
    total = sum(len(r) for r in reports.values())
    print(f"\nverify: {len(names)} workload(s) + kernel sources, "
          f"{total} diagnostic(s), exit {exit_code}")
    return exit_code


def _cmd_solve(args) -> int:
    """The inverse of ``verify``: derive a configuration from a budget.

    Exits 0 with the solution, 1 with the structured S-rule diagnosis
    when no configuration exists, 2 on usage errors.  Never a
    traceback: an infeasible budget is an *answer* ("no solution
    because <binding constraint>"), not a crash.
    """
    import json

    from repro.verify.solve import SolveError
    from repro.verify.solve_run import SOLVE_MODELS, check_solution, solve_workload

    if args.workload not in SOLVE_MODELS:
        print(f"error: unknown workload {args.workload!r} "
              f"(want one of {sorted(SOLVE_MODELS)})", file=sys.stderr)
        return 2
    if args.sram is not None and args.sram < 1:
        print(f"error: --sram must be >= 1, got {args.sram}", file=sys.stderr)
        return 2
    if args.elasticity < 1:
        print(f"error: --elasticity must be >= 1, got {args.elasticity}",
              file=sys.stderr)
        return 2
    if args.max_refine < 1:
        print(f"error: --max-refine must be >= 1, got {args.max_refine}",
              file=sys.stderr)
        return 2

    try:
        solution = solve_workload(
            args.workload,
            sram_size=args.sram,
            elasticity=args.elasticity,
            refine=not args.no_refine,
            max_refine=args.max_refine,
            grain=args.grain,
        )
    except SolveError as e:
        if args.format == "json":
            print(json.dumps({"solved": False,
                              "report": e.report.to_dict()},
                             indent=2, sort_keys=True))
        else:
            print(f"no solution for {args.workload!r}:")
            for d in e.report:
                print(f"   {d.render()}")
        return 1

    checked = None
    if args.check:
        from repro.verify.solve_run import simulate_solution

        report = check_solution(args.workload, solution)
        if report.diagnostics:
            print(f"error: solver/linter disagreement — the derived "
                  f"configuration produced findings:", file=sys.stderr)
            for d in report:
                print(f"   {d.render()}", file=sys.stderr)
            return 1
        checked = {"verify": "clean",
                   "cycles": simulate_solution(args.workload, solution)["cycles"]}

    if args.format == "json":
        payload = solution.to_dict()
        payload["solved"] = True
        if checked:
            payload["checked"] = checked
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"== {args.workload}: solved")
        print(solution.render())
        if checked:
            print(f"check: verify clean, simulated "
                  f"({checked['cycles']} cycles)")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(solution.to_json() + "\n")
        except OSError as e:
            print(f"error: cannot write --out {args.out!r}: {e}",
                  file=sys.stderr)
            return 1
        if args.format != "json":
            print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
