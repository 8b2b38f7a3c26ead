"""Workload-level auto-configuration: ``repro solve``.

:mod:`repro.verify.solve` works on bare graphs; this module binds it to
the shipped workload factories (the same names ``repro verify`` knows,
:data:`repro.verify.run.WORKLOADS`) and closes the loop against the
simulator:

* each :class:`SolveModel` knows how to build a *fresh* (system, graph)
  pair — required because an :class:`EclipseSystem` configures once —
  plus the workload's worst-case request hints and, where the factory
  exposes the sync chunk, the grain candidates;
* the CEGAR ``refine`` runner rebuilds the workload with the candidate
  buffer sizes, simulates it and feeds any deadlock diagnosis back into
  the solver;
* :func:`solve_workload` is the CLI/service entry point, and
  :func:`check_solution` is the round-trip gate: the derived
  configuration must pass the full ``repro verify`` pipeline with zero
  findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.shell import ShellProtocolError
from repro.core.system import StalledError
from repro.kahn.graph import ApplicationGraph

from repro.verify.diagnostics import Diagnostic, Report
from repro.verify.run import WORKLOADS, _instance_params, verify_graph
from repro.verify.solve import (
    DEFAULT_MAX_REFINE,
    Solution,
    SolveError,
    solve_graph,
)

__all__ = [
    "SolveModel",
    "SOLVE_MODELS",
    "solve_workload",
    "check_solution",
    "simulate_solution",
]


@dataclass
class SolveModel:
    """How to rebuild and re-simulate one named workload.

    ``build(grain)`` returns a fresh unconfigured
    ``(EclipseSystem, ApplicationGraph)``; ``grain`` is only honoured
    when ``grain_candidates`` is non-empty (the factory exposes its
    sync chunk).  ``worst_requests(graph)`` maps stream name -> the
    largest GetSpace either endpoint will issue, for workloads whose
    kernels request more than their declared port grain (the media
    pipeline declares grain 1 but moves whole packets).
    """

    name: str
    build: Callable[..., Tuple[object, ApplicationGraph]]
    worst_requests: Optional[Callable[[ApplicationGraph], Dict[str, int]]] = None
    grain_candidates: Tuple[int, ...] = ()
    refinable: bool = True


# ---------------------------------------------------------------------------
# the shipped models (same keys as repro.verify.run.WORKLOADS)
# ---------------------------------------------------------------------------
def _build_conformance(shape: str, grain: Optional[int] = None):
    from repro.workloads import conformance_run

    kwargs = dict(graph=shape, payload_len=256, fault_spec="none")
    if grain is not None:
        kwargs["chunk"] = grain
    return conformance_run(**kwargs)


def _build_conformance_pipeline(grain: Optional[int] = None):
    return _build_conformance("pipeline", grain)


def _build_conformance_diamond(grain: Optional[int] = None):
    return _build_conformance("diamond", grain)


def _verified(name: str) -> Callable[..., Tuple[object, ApplicationGraph]]:
    """The build of a workload without a grain knob: the same point
    ``repro verify`` checks."""

    def build(grain: Optional[int] = None):
        return WORKLOADS[name]()

    return build


def _decode_worst(graph: ApplicationGraph) -> Dict[str, int]:
    """The media kernels declare grain 1 (they move whole variable-size
    packets); the honest static bound is one worst-case packet per
    stream, from the same table ``decode_graph`` sizes from."""
    from repro.media.pipelines import default_buffer_sizes

    one = default_buffer_sizes(1)
    hints = {
        "coef": one["coef"],
        "mv": one["mv"],
        "dequant": one["coef_i16"],
        "resid": one["residual"],
        "recon": one["pixels"],
    }
    return {name: hints[name] for name in hints if name in graph.streams}


def _av_worst(graph: ApplicationGraph) -> Dict[str, int]:
    """Worst-case request hints for the demux+audio+video networks,
    including their ∥-composed forms (``b_``/``play_`` prefixes from
    the multistream and time-shift workloads) and the encoder half of
    the time-shift record side."""
    from repro.media.audio import BLOCK_BYTES, BLOCK_SAMPLES
    from repro.media.pipelines import default_buffer_sizes
    from repro.media.transport import TS_HEADER, TS_PACKET

    one = default_buffer_sizes(1)
    payload = TS_PACKET - TS_HEADER  # the demux writes whole TS payloads
    base = {
        # demux + decode half
        "video_es": 2048,
        "audio_es": max(payload, BLOCK_BYTES),
        "pcm": BLOCK_SAMPLES * 2,
        "coef": one["coef"],
        "mv": one["mv"],
        "dequant": one["coef_i16"],
        "resid": one["residual"],
        "recon": one["pixels"],
        # encoder half (time-shift record side); the me↔recon feedback
        # loop runs a frame ahead, so each cycle edge must hold the
        # in-flight macroblock window of both endpoints (2 + 2 grains)
        "resid_f": one["residual"],
        "pred": one["pixels"] * 4,
        "coef_f": one["coef_f64"],
        "symbols": one["coef"],
        "levels": one["levels"],
        "dequant_r": one["coef_i16"],
        "resid_r": one["residual"],
        "refs": one["pixels"] * 4,
    }
    hints: Dict[str, int] = {}
    for name in graph.streams:
        stem = name
        for prefix in ("b_", "play_"):
            if stem.startswith(prefix):
                stem = stem[len(prefix):]
        if stem in base:
            hints[name] = base[stem]
    return hints


#: workload name -> solve model; keys match repro.verify.run.WORKLOADS
SOLVE_MODELS: Dict[str, SolveModel] = {
    "quickstart": SolveModel("quickstart", _verified("quickstart")),
    "conformance-pipeline": SolveModel(
        "conformance-pipeline",
        _build_conformance_pipeline,
        grain_candidates=(8, 16, 32, 64),
    ),
    "conformance-diamond": SolveModel(
        "conformance-diamond",
        _build_conformance_diamond,
        grain_candidates=(8, 16, 32, 64),
    ),
    "decode": SolveModel("decode", _verified("decode"), worst_requests=_decode_worst),
    "explore-decode": SolveModel(
        "explore-decode", _verified("explore-decode"), worst_requests=_decode_worst
    ),
    "conferencing": SolveModel(
        "conferencing", _verified("conferencing"), worst_requests=_av_worst
    ),
    "timeshift-loss": SolveModel(
        "timeshift-loss", _verified("timeshift-loss"), worst_requests=_av_worst
    ),
    "multistream": SolveModel(
        "multistream", _verified("multistream"), worst_requests=_av_worst
    ),
}


def _apply_sizes(graph: ApplicationGraph, sizes: Mapping[str, int]) -> ApplicationGraph:
    for name, size in sizes.items():
        graph.streams[name].buffer_size = size
    return graph


def _make_refiner(
    model: SolveModel, grain: Optional[int]
) -> Callable[[Mapping[str, int]], Optional[str]]:
    """A runner ``sizes -> None | deadlock diagnosis`` over fresh
    instances of the workload."""

    def run(sizes: Mapping[str, int]) -> Optional[str]:
        system, graph = model.build(grain=grain)
        _apply_sizes(graph, sizes)
        system.configure(graph)
        try:
            system.run()
        except (StalledError, ShellProtocolError) as e:
            # deadlock diagnosis or an oversize GetSpace — both name
            # the binding stream for the CEGAR growth step
            return str(e)
        return None

    return run


def solve_workload(
    name: str,
    sram_size: Optional[int] = None,
    elasticity: int = 1,
    refine: bool = True,
    max_refine: int = DEFAULT_MAX_REFINE,
    grain: Optional[int] = None,
) -> Solution:
    """Derive a full configuration for workload ``name`` under a budget.

    ``sram_size=None`` uses the instance's own SRAM (32 kB for the
    paper instance).  ``grain`` pins the sync grain; otherwise models
    with candidates search them largest-first, rebuilding the workload
    per candidate so the kernels and the declared rates agree.  Raises
    :class:`SolveError` with the structured S-report when no
    configuration exists.
    """
    try:
        model = SOLVE_MODELS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(SOLVE_MODELS)}"
        ) from None

    grains: Tuple[Optional[int], ...]
    if grain is not None:
        if not model.grain_candidates:
            raise SolveError(_single(Diagnostic(
                "S403",
                f"workload {name!r} does not expose a sync-grain knob; "
                f"omit --grain",
                source=name,
            )))
        grains = (grain,)
    elif model.grain_candidates:
        grains = tuple(sorted(model.grain_candidates, reverse=True))
    else:
        grains = (None,)

    causes = []
    for g in grains:
        system, graph = model.build(grain=g)
        cache_line, instance_sram = _instance_params(system)
        budget = instance_sram if sram_size is None else sram_size
        worst = model.worst_requests(graph) if model.worst_requests else None
        refiner = _make_refiner(model, g) if (refine and model.refinable) else None
        try:
            sol = solve_graph(
                graph,
                sram_size=budget,
                cache_line=cache_line,
                worst_requests=worst,
                coprocessors=list(system.specs),
                elasticity=elasticity,
                refine=refiner,
                max_refine=max_refine,
            )
        except SolveError as e:
            first = e.report.diagnostics[0]
            causes.append((g, first))
            continue
        sol.grain = g if g is not None else sol.grain
        sol.graph_name = name
        return sol

    if len(causes) == 1:
        raise SolveError(_single(causes[0][1]))
    raise SolveError(_single(Diagnostic(
        "S403",
        "no candidate grain yields a feasible configuration: "
        + "; ".join(f"grain {g}: {d.message}" for g, d in causes[-4:]),
        source=name,
    )))


def _single(diag: Diagnostic) -> Report:
    rep = Report()
    rep.add(diag)
    return rep


# ---------------------------------------------------------------------------
# the round-trip gate
# ---------------------------------------------------------------------------
def check_solution(name: str, solution: Solution) -> Report:
    """Run the full ``repro verify`` pipeline on the derived config.

    The acceptance contract of the solver: a solution must produce
    **zero** findings — the linter and the solver share one constraint
    model, so anything the solver emits that the linter rejects is a
    bug in that shared model.
    """
    model = SOLVE_MODELS[name]
    system, graph = model.build(grain=solution.grain)
    _apply_sizes(graph, solution.buffer_sizes)
    cache_line, _ = _instance_params(system)
    return verify_graph(graph, cache_line=cache_line, sram_size=solution.sram_size)


def simulate_solution(name: str, solution: Solution) -> dict:
    """Run the workload under the derived config; returns the full
    result dict (histories included) for byte-identity comparison."""
    model = SOLVE_MODELS[name]
    system, graph = model.build(grain=solution.grain)
    _apply_sizes(graph, solution.buffer_sizes)
    system.configure(graph)
    result = system.run()
    return result.to_dict(include_histories=True)
