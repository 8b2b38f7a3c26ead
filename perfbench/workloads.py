"""The benchmark's three workloads: ``decode``, ``stream_chaos``, ``sweep``.

Every input is generated from the benchmark seed; the program only
ever receives those inputs (a bitstream, a fault seed, loss seeds and a
request order).  Each workload has a set-up phase, a timed phase with
tracing off, correctness checks that run after the timed phase, and a
traced phase (``--trace 1``) that attributes host time to layers.

See README.md in this directory for why each workload exists and what
each metric should move.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import inspect
import json
import multiprocessing
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.net as repro_net
import repro.service.server as repro_server
import repro.workloads as repro_workloads
from repro.kahn.executor import FunctionalExecutor
from repro.media import CodecParams, encode_sequence, synthetic_sequence
from repro.runner import RunSpec, _execute_spec
from repro.service.cachekey import cache_key
from repro.service.server import SweepService
from repro.service.store import ResultStore, payload_result, result_payload

from perfbench.layers import (
    call_checks,
    count_ratios,
    host_times,
    median_of,
    payload_counts,
    system_counts,
)
from perfbench.stats import histories_digest, median, percentile
from perfbench.tracing import Tracer, call_span, instrument_system, patched

clock = time.perf_counter

#: scratch space (stores, traces) under the directory the benchmark runs in
WORK_DIR = ".perfbench"

#: what a timed run measures (``setup_s`` comes from the set-ups)
TIMED_METRICS = ("sim_kcycles_per_s", "sim_cycles", "peak_rss_mb", "points_per_s",
                 "miss_s_p50", "miss_s_p90")


def derive(seed: int, tag: str) -> int:
    """A 32-bit sub-seed for one input, a pure function of the seed."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def engine_kwargs(factory) -> Dict[str, str]:
    """``engine="fast"`` while ``factory`` still offers an engine choice;
    nothing once the choice is gone (there is then one engine)."""
    if "engine" in inspect.signature(factory).parameters:
        return {"engine": "fast"}
    return {}


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest reaped
    child (the sweep's pool worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def summed(dicts) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


@dataclass
class Point:
    """One simulated point: build, configure, run and check one system."""

    variant: int  # which of the workload's inputs
    latency: float  # build start -> checked result, seconds
    run_s: float  # the EclipseSystem.run() call alone
    counts: Dict[str, int]
    digest: Optional[str]  # of the histories, when they are checked
    completed: bool
    error: Optional[str] = None


@dataclass
class Outcome:
    """What one run of a workload produced."""

    setup: Dict[str, float]
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    #: traced runs: layer self time as a share of the traced wall time
    shares: Dict[str, float] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


# ---------------------------------------------------------------------------
# decode and stream_chaos: points of freshly built systems
# ---------------------------------------------------------------------------
class SimWorkload:
    """A workload whose operation ("point") builds, configures and runs
    one system on one of ``VARIANTS`` inputs; a run cycles through them.

    A point's input recurs every ``VARIANTS`` points, so every exact
    count must repeat for it.
    """

    name = ""
    #: a timed or traced phase runs at least this many points
    MIN_POINTS = 3
    #: record histories (obs_level=full) and check them on every point
    CHECK_HISTORIES = False
    #: inputs made from the seed
    VARIANTS = 1

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self) -> None:
        raise NotImplementedError

    def build(self, obs_level: Optional[str] = None, variant: int = 0):
        raise NotImplementedError

    def oracle(self, points: List[Point]) -> List[Tuple[Optional[int], str]]:
        """Untimed reference checks of the completed points, as (point
        index or None, problem)."""
        raise NotImplementedError

    def setup(self) -> Dict[str, float]:
        t0 = clock()
        self.inputs()
        t1 = clock()
        system, graph = self.build()
        t2 = clock()
        system.configure(graph)
        t3 = clock()
        return {"inputs_s": t1 - t0, "build_s": t2 - t1, "configure_s": t3 - t2}

    def point(self, variant: int, log=None) -> Point:
        t0 = clock()
        try:
            system, graph = self.build(variant=variant)
            system.configure(graph)
            if log is not None:
                instrument_system(log, system)
            t1 = clock()
            result = system.run()
            t2 = clock()
        except Exception as e:  # noqa: BLE001 — a stall or crash is a failed point
            return Point(variant, clock() - t0, 0.0, {}, None, False,
                         f"{type(e).__name__}: {e}")
        digest = histories_digest(result.histories) if self.CHECK_HISTORIES else None
        counts = system_counts(system)
        return Point(variant, clock() - t0, t2 - t1, counts, digest, result.completed)

    def check(self, points: List[Point]) -> Tuple[int, int, List[str]]:
        """(attempted, failed, problems) over the points and the oracle:
        a stall, a count that does not repeat, or an oracle mismatch."""
        found: List[Tuple[Optional[int], str]] = []
        first: Dict[int, Dict[str, int]] = {}  # variant -> its first counts
        for i, p in enumerate(points):
            if not p.completed:
                found.append((i, p.error or "stalled"))
                continue
            ref = first.setdefault(p.variant, p.counts)
            found += [(i, f"{k} = {p.counts[k]}, this input's first point had {ref[k]}")
                      for k in ref if p.counts[k] != ref[k]]
        found += [(None, f"input {v} never completed")
                  for v in range(self.VARIANTS) if v not in first]
        if first:
            found += self.oracle(points)
        failed = len({i for i, _ in found if i is not None})
        failed += sum(1 for i, _ in found if i is None)
        problems = [f"point {i}: {msg}" if i is not None else msg for i, msg in found]
        return len(points) + 1, failed, problems

    def timed(self, seconds: float) -> Outcome:
        setup = self.setup()
        points: List[Point] = []
        start = clock()
        while len(points) < max(self.MIN_POINTS, self.VARIANTS) or clock() - start < seconds:
            points.append(self.point(len(points) % self.VARIANTS))
        elapsed = clock() - start
        rss = peak_rss_mb()
        attempted, failed, problems = self.check(points)
        if failed:
            return Outcome(setup, dict.fromkeys(TIMED_METRICS, 0.0), attempted, failed, problems)
        latencies = [p.latency for p in points]
        metrics = {
            # kilocycles over the window's summed run() seconds: host speed
            # here switches between two levels for seconds at a time, and a
            # per-run median jumps between them where the window total does not
            "sim_kcycles_per_s": (sum(p.counts["cycles"] for p in points) / 1000.0
                                  / sum(p.run_s for p in points)),
            "sim_cycles": sum(p.counts["cycles"] for p in points[: self.VARIANTS]),
            "peak_rss_mb": rss,
            "points_per_s": len(points) / elapsed,
            "miss_s_p50": median(latencies),
            "miss_s_p90": percentile(latencies, 90),
        }
        return Outcome(setup, metrics, attempted, failed, problems)

    def traced(self, seconds: float) -> Outcome:
        """Rounds of every input run untraced and traced; host times are
        per-round medians, counts are per round (one point per input)."""
        setup = self.setup()
        plain: List[Point] = []
        traced: List[Point] = []
        layers: List[Dict[str, float]] = []
        counts: List[Dict[str, int]] = []
        call_problems: List[str] = []
        start = clock()
        while len(layers) < 2 or clock() - start < seconds:
            tracer = Tracer()  # only the last round's spans stay in memory
            log = tracer.log()
            log.run = len(layers) + 1
            round_points = []
            for variant in range(self.VARIANTS):
                plain.append(self.point(variant))
                round_points.append(self.point(variant, log=log))
                log.fold()
            traced += round_points
            if not all(p.completed for p in round_points):
                break
            counts.append(summed(p.counts for p in round_points))
            self_ns, total_ns, calls = tracer.layer_times()
            layers.append(host_times(self_ns, total_ns, calls, counts[-1]))
            call_problems += call_checks(calls, counts[-1])
        attempted, failed, problems = self.check(plain + traced)
        if failed:
            return Outcome(setup, {}, attempted, failed, problems, tracer=tracer)
        times = median_of(layers)
        metrics = count_ratios(counts[0])
        metrics.update(times)
        metrics["trace.overhead_frac"] = (
            sum(p.run_s for p in traced) / sum(p.run_s for p in plain) - 1.0
        )
        round_s = sum(p.run_s for p in traced) / len(layers)
        shares = {k: v / round_s for k, v in times.items()
                  if k.endswith("self_s") or k == "obs.record_s"}
        return Outcome(setup, metrics, attempted, failed + len(call_problems),
                       problems + call_problems, shares, tracer)

    def setup_only(self) -> Dict[str, float]:
        return self.setup()


class Decode(SimWorkload):
    """Figure-8 decode of a seeded IPBB sequence at obs_level=off."""

    name = "decode"
    WIDTH, HEIGHT, FRAMES, GOP_N, GOP_M = 96, 64, 6, 6, 3

    def inputs(self) -> None:
        codec = CodecParams(width=self.WIDTH, height=self.HEIGHT,
                            gop_n=self.GOP_N, gop_m=self.GOP_M)
        frames = synthetic_sequence(self.WIDTH, self.HEIGHT, self.FRAMES,
                                    seed=derive(self.seed, "decode.content"), noise=1.0)
        self.bitstream, _, _ = encode_sequence(frames, codec)

    def build(self, obs_level: Optional[str] = None, variant: int = 0):
        factory = repro_workloads.explore_decode_run
        return factory(self.bitstream, obs_level=obs_level or "off",
                       **engine_kwargs(factory))

    def oracle(self, points: List[Point]) -> List[Tuple[Optional[int], str]]:
        system, graph = self.build(obs_level="full")
        system.configure(graph)
        result = system.run()
        reference = FunctionalExecutor(self.build(obs_level="full")[1]).run()
        found: List[Tuple[Optional[int], str]] = []
        if not result.completed or result.histories != reference.histories:
            found.append((None, "obs_level=full histories differ from FunctionalExecutor"))
        found += [(i, f"{p.counts['cycles']} cycles, obs_level=full took {result.cycles}")
                  for i, p in enumerate(points)
                  if p.completed and p.counts["cycles"] != result.cycles]
        return found


class StreamChaos(SimWorkload):
    """Multicast diamond of byte kernels under the chaos fault plan with
    the watchdog on, at obs_level=full, cycling through seeded fault
    seeds — what `repro conformance --graph diamond --seeds 16` runs."""

    name = "stream_chaos"
    PAYLOAD_LEN = 2048
    CHECK_HISTORIES = True
    #: one fault schedule's random stalls move its cycles by about ±6%;
    #: sixteen schedules keep a run's total steady from seed to seed
    VARIANTS = 16

    def inputs(self) -> None:
        self.fault_seeds = [derive(self.seed, f"stream_chaos.faults.{i}")
                            for i in range(self.VARIANTS)]

    def build(self, obs_level: Optional[str] = None, variant: int = 0):
        factory = repro_workloads.conformance_run
        return factory(graph="diamond", payload_len=self.PAYLOAD_LEN,
                       fault_spec="chaos", fault_seed=self.fault_seeds[variant],
                       watchdog_timeout=2000, n_coprocs=3,
                       obs_level=obs_level or "full", **engine_kwargs(factory))

    def oracle(self, points: List[Point]) -> List[Tuple[Optional[int], str]]:
        graph = repro_workloads.diamond_graph(repro_workloads.payload_of(self.PAYLOAD_LEN))
        expected = histories_digest(FunctionalExecutor(graph).run().histories)
        return [(i, "histories differ from the Kahn oracle")
                for i, p in enumerate(points) if p.completed and p.digest != expected]


# ---------------------------------------------------------------------------
# sweep: a design-space sweep served by the in-process SweepService
# ---------------------------------------------------------------------------
class Sweep:
    """Short lossy-conferencing points served to one closed-loop client.

    Pass 1 submits every point of the sweep (all cold).  Pass 2
    re-submits it with a seeded quarter of its points changed to fresh
    loss seeds, so store hits run beside cold executions.  The sweep's
    size is fixed (300 cold points, 180 hits), not set by ``--seconds``,
    so its exact counts repeat for one seed.
    """

    name = "sweep"
    FACTORY = "repro.workloads:conferencing_run"
    #: the design knob: data packets per XOR-parity FEC group (0 = off)
    FEC_GROUPS = (0, 2, 4, 8)
    LOSS_SEEDS = 60
    CHANGED = 60  # of the 240 points re-submitted in pass 2
    POINT = {"width": 32, "height": 16, "frames": 4, "gop_n": 4, "gop_m": 2,
             "audio_blocks": 3, "obs_level": "off"}
    #: no retransmission, so FEC alone decides what is concealed
    LOSS = "drop=0.1,reorder=0.1,max_rtx=0,fec_group={}"
    SERVICE_FREE_SAMPLE = 4
    WORKERS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.service: Optional[SweepService] = None
        self.root: Optional[str] = None
        #: id(spec) -> request number, for tagging a traced execution
        self._request_ids: Dict[int, int] = {}

    # -- inputs ------------------------------------------------------------
    def _spec(self, loss_seed: int, fec: int) -> RunSpec:
        kwargs = dict(self.POINT, loss_spec=self.LOSS.format(fec), loss_seed=loss_seed)
        kwargs.update(engine_kwargs(repro_workloads.conferencing_run))
        return RunSpec(self.FACTORY, kwargs, label=f"loss_seed={loss_seed},fec_group={fec}")

    def inputs(self) -> None:
        rng = random.Random(derive(self.seed, "sweep"))
        seeds = rng.sample(range(1, 2 ** 31), self.LOSS_SEEDS + self.CHANGED)
        first = [(s, f) for s in seeds[: self.LOSS_SEEDS] for f in self.FEC_GROUPS]
        rng.shuffle(first)
        changed = set(rng.sample(range(len(first)), self.CHANGED))
        fresh = iter(seeds[self.LOSS_SEEDS:])
        second = [(next(fresh), f) if i in changed else (s, f)
                  for i, (s, f) in enumerate(first)]
        rng.shuffle(second)
        self.passes = [[self._spec(*p) for p in first], [self._spec(*p) for p in second]]
        distinct = sorted(set(first) | set(second))
        self.sample = [self._spec(*p) for p in rng.sample(distinct, self.SERVICE_FREE_SAMPLE)]

    # -- service lifecycle -------------------------------------------------
    async def start(self, threads: bool = False) -> None:
        """Empty store, started service, one warm-up request so the pool
        worker exists before the first timed submission."""
        os.makedirs(WORK_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
        self.service = SweepService(ResultStore(self.root), jobs=self.WORKERS,
                                    use_process_pool=not threads)
        await self.service.start()
        factory = repro_workloads.quickstart_run
        warm = await self.service.submit(RunSpec(
            factory, dict(payload_len=256, obs_level="off", **engine_kwargs(factory)),
            label="warm-up"))
        if not warm.ok:
            raise RuntimeError(f"warm-up request failed: {warm.result.error}")

    async def stop(self) -> None:
        """Close the service, reap its pool worker, delete the store."""
        if self.service is not None:
            await self.service.close()
            self.service = None
        deadline = clock() + 30.0
        while multiprocessing.active_children() and clock() < deadline:
            await asyncio.sleep(0.01)
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    async def setup(self) -> Dict[str, float]:
        t0 = clock()
        self.inputs()
        t1 = clock()
        await self.start()
        t2 = clock()
        return {"inputs_s": t1 - t0, "build_s": t2 - t1, "configure_s": 0.0}

    def setup_only(self) -> Dict[str, float]:
        async def go():
            try:
                return await self.setup()
            finally:
                await self.stop()

        return asyncio.run(go())

    # -- one sweep ---------------------------------------------------------
    def _verify(self, resp, answers: Dict[str, bytes]) -> Optional[str]:
        if not resp.ok:
            return f"{resp.key[:12]}: execution failed: {resp.result.error}"
        with open(self.service.store.meta_path(resp.key), "rb") as fh:
            meta = json.loads(fh.read().decode("utf-8"))
        if meta.get("payload_sha256") != hashlib.sha256(resp.payload).hexdigest():
            return f"{resp.key[:12]}: payload SHA-256 does not verify"
        result = payload_result(resp.payload)
        if not (result.ok and result.completed):
            return f"{resp.key[:12]}: point stalled"
        if resp.cache == "hit":
            if answers.get(resp.key) != resp.payload:
                return f"{resp.key[:12]}: hit differs from its cold answer"
        else:
            answers[resp.key] = resp.payload
        return None

    async def _sweep(self, tracer: Optional[Tracer] = None) -> dict:
        """Both passes, one closed-loop client: submit, verify, next."""
        answers: Dict[str, bytes] = {}
        cold: List[float] = []
        hits: List[float] = []
        problems: List[str] = []
        n = 0
        start = clock()
        for specs in self.passes:
            for spec in specs:
                n += 1
                if tracer is not None:
                    tracer.log().run = self._request_ids[id(spec)] = n
                t0 = clock()
                try:
                    resp = await self.service.submit(spec)
                    problem = self._verify(resp, answers)
                except Exception as e:  # noqa: BLE001 — a service error is a failed operation
                    resp, problem = None, f"{spec.label}: {type(e).__name__}: {e}"
                latency = clock() - t0
                if problem is not None:
                    problems.append(problem)
                elif resp.cache == "hit":
                    hits.append(latency)
                else:
                    cold.append(latency)
        elapsed = clock() - start
        waits = [ev.dur for ev in self.service.spans.events if ev.name == "queue-wait"]
        return {
            "n": n, "elapsed": elapsed, "cold": cold, "hits": hits,
            "problems": problems, "answers": answers,
            "counts": summed(payload_counts(payload_result(p)) for p in answers.values()),
            "payload_kb": sum(map(len, answers.values())) / max(1, len(answers)) / 1024.0,
            "queue_wait_ms": median(waits) / 1000.0 if waits else 0.0,
        }

    def _service_free(self, answers: Dict[str, bytes]) -> List[str]:
        """The sampled points, executed without the service, must give
        the served bytes exactly."""
        return [
            f"{spec.label}: service-free execution differs from the served payload"
            for spec in self.sample
            if result_payload(_execute_spec(0, spec)) != answers.get(cache_key(spec))
        ]

    # -- timed phase -------------------------------------------------------
    def timed(self, seconds: float) -> Outcome:
        async def go():
            setup = await self.setup()
            try:
                return setup, await self._sweep()
            finally:
                await self.stop()

        setup, s = asyncio.run(go())
        rss = peak_rss_mb()
        problems = s["problems"] + self._service_free(s["answers"])
        attempted = s["n"] + len(self.sample)
        if not s["cold"]:
            return Outcome(setup, dict.fromkeys(TIMED_METRICS, 0.0), attempted,
                           len(problems), problems)
        cycles = s["counts"]["cycles"]
        metrics = {
            "sim_kcycles_per_s": cycles / 1000.0 / sum(s["cold"]),
            "sim_cycles": cycles,
            "peak_rss_mb": rss,
            "points_per_s": (len(s["cold"]) + len(s["hits"])) / s["elapsed"],
            "miss_s_p50": median(s["cold"]),
            "miss_s_p90": percentile(s["cold"], 90),
        }
        return Outcome(setup, metrics, attempted, len(problems), problems)

    # -- traced phase ------------------------------------------------------
    def _factory(self, original, sink: List[Dict[str, int]], tracer: Optional[Tracer]):
        """``conferencing_run`` that records each system's counts after
        its run and, when tracing, wraps the system it builds."""

        @functools.wraps(original)  # same signature, so the same cache keys
        def factory(**kwargs):
            log = tracer.log() if tracer is not None else None
            build = original if log is None else call_span(log, "workloads.factory", original)
            system, graph = build(**kwargs)
            run = system.run

            def counted_run(*args, **kw):
                result = run(*args, **kw)
                sink.append(system_counts(system))
                return result

            system.run = counted_run
            if log is not None:
                configure = call_span(log, "system.configure", system.configure)

                def traced_configure(*args, **kw):
                    configure(*args, **kw)
                    instrument_system(log, system)

                system.configure = traced_configure
                system.run = call_span(log, "system.run", counted_run)
            return system, graph

        return factory

    def _execute(self, original, tracer: Tracer):
        """The runner's execute step as a span tagged with the request's
        run id, so a request's service and execution spans share it."""
        def execute(index, spec):
            log = tracer.log()
            log.run = self._request_ids.get(id(spec), 0)
            try:
                return call_span(log, "runner.execute", original)(index, spec)
            finally:
                log.fold()

        return execute

    async def _pass(self, tracer: Optional[Tracer]):
        """One sweep on a thread-worker service with an empty store;
        returns the sweep and each executed system's counts."""
        sink: List[Dict[str, int]] = []
        await self.start(threads=True)
        try:
            with patched(repro_workloads, "conferencing_run",
                         lambda f: self._factory(f, sink, tracer)):
                if tracer is None:
                    return await self._sweep(), sink
                store = self.service.store
                store.get = tracer.call_span("service.store_get", store.get)
                store.put = tracer.call_span("service.store_put", store.put)
                with patched(repro_net, "ingest",
                             lambda f: tracer.call_span("net.ingest", f)), \
                        patched(repro_server, "cache_key",
                                lambda f: tracer.call_span("service.cache_key", f)), \
                        patched(repro_server, "_execute_spec",
                                lambda f: self._execute(f, tracer)):
                    return await self._sweep(tracer), sink
        finally:
            await self.stop()

    def traced(self, seconds: float) -> Outcome:
        """Set up as the timed run does, then an untraced and a traced
        sweep, both with the service's worker in a thread so every span
        lands in this process."""
        setup = self.setup_only()
        tracer = Tracer()
        plain, plain_sink = asyncio.run(self._pass(None))
        traced, traced_sink = asyncio.run(self._pass(tracer))
        problems = plain["problems"] + traced["problems"] + self._service_free(plain["answers"])
        counts = summed(traced_sink)
        for kind, a, b in (("system", summed(plain_sink), counts),
                           ("payload", plain["counts"], traced["counts"])):
            problems += [f"traced {kind} count {k} = {b.get(k)}, untraced {a[k]}"
                         for k in a if a[k] != b.get(k)]
        if plain["answers"] != traced["answers"]:
            problems.append("the traced sweep served other bytes than the untraced sweep")
        self_ns, total_ns, calls = tracer.layer_times()
        problems += call_checks(calls, counts)

        def per_call_us(name: str) -> float:
            durations = tracer.durations_ns(name)
            return median(durations) / 1000.0 if durations else 0.0

        c = plain["counts"]
        recovered = c["net.fec_recovered"] + c["net.rtx_recovered"]
        metrics = count_ratios(counts)
        metrics.update(host_times(self_ns, total_ns, calls, counts))
        metrics.update({
            "net.packets": c["net.packets"],
            "net.fec_recovered": c["net.fec_recovered"],
            "net.rtx_recovered": c["net.rtx_recovered"],
            "net.slots_lost": c["net.slots_lost"],
            "net.recovered_frac": recovered / max(1, recovered + c["net.slots_lost"]),
            "net.frames_concealed": c["net.frames_concealed"],
            "net.ingest_s": total_ns.get("net.ingest", 0) / 1e9,
            "workloads.factory_self_s": self_ns.get("workloads.factory", 0) / 1e9,
            "runner.execute_self_s": self_ns.get("runner.execute", 0) / 1e9,
            "runner.payload_kb": plain["payload_kb"],
            "service.hit_frac": len(plain["hits"]) / plain["n"],
            "service.hit_ms_p50": median(plain["hits"]) * 1000.0 if plain["hits"] else 0.0,
            "service.cache_key_us": per_call_us("service.cache_key"),
            "service.store_get_us": per_call_us("service.store_get"),
            "service.store_put_us": per_call_us("service.store_put"),
            "service.queue_wait_ms": plain["queue_wait_ms"],
            "service.failures": len(plain["problems"]) + len(traced["problems"]),
            "trace.overhead_frac": traced["elapsed"] / plain["elapsed"] - 1.0,
        })
        wall = traced["elapsed"]
        shares = {k: v / wall for k, v in metrics.items()
                  if k.endswith("self_s") or k in ("obs.record_s", "net.ingest_s")}
        for span in ("system.configure", "system.run"):
            shares[f"{span} (self)"] = self_ns.get(span, 0) / 1e9 / wall
        attempted = plain["n"] + traced["n"] + len(self.sample)
        return Outcome(setup, metrics, attempted, len(problems), problems, shares, tracer)


WORKLOADS = {cls.name: cls for cls in (Decode, StreamChaos, Sweep)}
