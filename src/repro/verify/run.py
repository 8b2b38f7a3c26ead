"""End-to-end verification entry points: graphs, workloads, modules.

:func:`verify_graph` is the one-call combination of the graph linter
and the kernel protocol checker.  :func:`verify_workload` applies it to
a named factory from :mod:`repro.workloads`, deriving the cache-line
and SRAM parameters from the instance the factory builds — the same
numbers ``EclipseSystem.configure`` would enforce dynamically.
:func:`verify_all` is what the CI verify job and ``repro verify``
(without arguments) run.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.kahn.graph import ApplicationGraph

from repro.verify.diagnostics import Report
from repro.verify.graph_lint import lint_graph
from repro.verify.protocol import check_graph_protocol

__all__ = [
    "verify_graph",
    "verify_workload",
    "verify_all",
    "verify_kernel_sources",
    "WORKLOADS",
]


def verify_graph(
    graph: ApplicationGraph,
    cache_line: int = 32,
    sram_size: Optional[int] = None,
    max_steps: int = 12,
) -> Report:
    """Lint the graph, then protocol-check its kernels.

    A structurally broken graph (G001) skips the protocol pass: the
    kernels cannot be matched to streams, and one actionable diagnostic
    beats a cascade of follow-on noise.
    """
    report = lint_graph(graph, cache_line=cache_line, sram_size=sram_size)
    if "G001" in report.rule_ids():
        report.note(f"{graph.name}: protocol check skipped (graph is invalid)")
        return report
    report.extend(check_graph_protocol(graph, max_steps=max_steps))
    return report


# ---------------------------------------------------------------------------
# named workloads (every factory in repro.workloads)
# ---------------------------------------------------------------------------
def _quickstart():
    from repro.workloads import quickstart_run

    return quickstart_run(payload_len=512)


def _conformance_pipeline():
    from repro.workloads import conformance_run

    return conformance_run(graph="pipeline", payload_len=256)


def _conformance_diamond():
    from repro.workloads import conformance_run

    return conformance_run(graph="diamond", payload_len=256)


def _decode():
    from repro.workloads import decode_run

    return decode_run(width=48, height=32, frames=2, gop_n=2, gop_m=2)


def _explore_decode():
    from repro.workloads import explore_decode_run, synthetic_video_es

    return explore_decode_run(synthetic_video_es(48, 32, 2, gop_n=2, gop_m=2))


def _conferencing():
    from repro.workloads import conferencing_run

    return conferencing_run(frames=3, gop_n=3, gop_m=1, audio_blocks=3,
                            loss_spec="moderate", loss_seed=1)


def _timeshift_loss():
    from repro.workloads import timeshift_loss_run

    return timeshift_loss_run(frames=2, gop_n=2, gop_m=2, audio_blocks=2,
                              loss_spec="mild", loss_seed=1)


def _multistream():
    from repro.workloads import multistream_contention_run

    return multistream_contention_run(frames=2, gop_n=2, gop_m=2,
                                      audio_blocks=2)


#: name -> zero-arg factory returning (EclipseSystem, ApplicationGraph);
#: small parameterizations of every factory in :mod:`repro.workloads`
WORKLOADS: Dict[str, Callable[[], tuple]] = {
    "quickstart": _quickstart,
    "conformance-pipeline": _conformance_pipeline,
    "conformance-diamond": _conformance_diamond,
    "decode": _decode,
    "explore-decode": _explore_decode,
    "conferencing": _conferencing,
    "timeshift-loss": _timeshift_loss,
    "multistream": _multistream,
}


def _instance_params(system) -> Tuple[int, int]:
    """(cache_line, sram_size) the instance would enforce."""
    cache_line = max(spec.shell.cache_line for spec in system.specs.values())
    return cache_line, system.params.sram_size


def verify_workload(name: str, max_steps: int = 12) -> Report:
    """Statically verify one named workload factory."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
    system, graph = factory()
    cache_line, sram_size = _instance_params(system)
    return verify_graph(graph, cache_line=cache_line, sram_size=sram_size, max_steps=max_steps)


def verify_all(max_steps: int = 12) -> Dict[str, Report]:
    """Verify every named workload (the CI gate)."""
    return {name: verify_workload(name, max_steps=max_steps) for name in WORKLOADS}


def verify_kernel_sources() -> Report:
    """AST-lint the shipped kernel modules (raw-primitive misuse)."""
    from repro.kahn import library
    from repro.media import tasks
    from repro.verify.astlint import lint_module

    report = Report()
    for mod in (library, tasks):
        report.extend(lint_module(mod))
    return report
