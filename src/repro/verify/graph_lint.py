"""Configuration-time graph lints: structure, rates, buffers, SRAM.

The rule-based companion to :meth:`ApplicationGraph.validate` and
:mod:`repro.kahn.analysis`: instead of raising on the first structural
problem, :func:`lint_graph` collects every finding as a
:class:`~repro.verify.diagnostics.Diagnostic` so an application
architect sees the whole picture before any simulation.

Since PR 9 the per-stream predicates live in
:mod:`repro.verify.constraints` as declarative constraint objects — the
*same* objects the configuration solver (:mod:`repro.verify.solve`)
propagates over interval domains, so "the linter accepts it" and "the
solver derives it" are provably the same constraint system.

Checks implemented (rule IDs in :mod:`repro.verify.diagnostics`):

* **G001** — structural validity (delegates to ``graph.validate()``).
* **G002** — SDF rate consistency via the repetition vector, using the
  declared port granularities as bytes-per-firing rates (engaged only
  when *every* connected port declares a grain > 1, or when an explicit
  ``rates`` mapping is passed).
* **G003** — every stream buffer must hold the largest sync grain of
  its endpoints, or that GetSpace can never be granted (paper §2.2).
* **G004** — buffers on dependency cycles must hold one producer grain
  plus one consumer grain, the classic sufficient-buffer bound for
  deadlock freedom of feedback loops under finite buffering.
* **G005/G006** — sync-grain and cache-line divisibility of buffers.
* **G007** — multicast consumers should agree on the sync grain.
* **G008** — the whole allocation must fit the instance SRAM
  (delegates to :func:`repro.core.sizing.plan_buffers`).
* **G009** — more weakly-connected components than the graph declares
  (``expected_components``, default 1).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

from repro.kahn.analysis import RateInconsistencyError, declared_rates, repetition_vector
from repro.kahn.graph import ApplicationGraph, GraphError

from repro.verify.constraints import (
    STREAM_RULES,
    BudgetConstraint,
    CycleBufferRule,
    stream_facts,
)
from repro.verify.diagnostics import Diagnostic, Report

__all__ = ["lint_graph", "declared_rates"]

RatesArg = Union[str, None, Mapping[Tuple[str, str], int]]

#: the per-stream rules in the order the linter has always reported:
#: local checks first (G003/G005/G006/G007), cycle bounds afterwards
_LOCAL_RULES = tuple(r for r in STREAM_RULES if not isinstance(r, CycleBufferRule))
_CYCLE_RULE = next(r for r in STREAM_RULES if isinstance(r, CycleBufferRule))


def lint_graph(
    graph: ApplicationGraph,
    rates: RatesArg = "auto",
    cache_line: int = 32,
    sram_size: Optional[int] = None,
) -> Report:
    """Run every configuration-time check on ``graph``.

    ``rates`` is ``"auto"`` (derive from port granularities), ``None``
    (skip the rate check) or an explicit ``(task, port) -> bytes``
    mapping.  ``sram_size`` enables the G008 budget check; pass the
    instance's :attr:`SystemParams.sram_size`.
    """
    report = Report()

    # ---- G001: structure; everything else needs a valid graph --------
    try:
        graph.validate()
    except GraphError as e:
        report.add(Diagnostic("G001", str(e), source=graph.name))
        return report

    # ---- G002: SDF balance equations ---------------------------------
    resolved = declared_rates(graph) if rates == "auto" else rates
    if resolved:
        try:
            repetition_vector(graph, resolved)
        except RateInconsistencyError as e:
            report.add(Diagnostic("G002", str(e), source=graph.name))
        except GraphError as e:
            # missing/zero rate in an explicit mapping
            report.add(Diagnostic("G002", str(e), source=graph.name))
    else:
        report.note(f"{graph.name}: rate check skipped (no rates declared)")

    # ---- per-stream constraint checks (shared with the solver) -------
    facts = stream_facts(graph, cache_line=cache_line)
    for name, edge in graph.streams.items():
        for rule in _LOCAL_RULES:
            for diag in rule.check(facts[name], edge.buffer_size):
                report.add(diag)

    # ---- G004: sufficient buffering on cycles ------------------------
    for name, edge in graph.streams.items():
        for diag in _CYCLE_RULE.check(facts[name], edge.buffer_size):
            report.add(diag)

    # ---- G008: SRAM budget -------------------------------------------
    if sram_size is not None and graph.streams:
        budget = BudgetConstraint(sram_size=sram_size, cache_line=cache_line)
        sizes = {name: e.buffer_size for name, e in graph.streams.items()}
        for diag in budget.check(graph, sizes):
            report.add(diag)

    # ---- G009: connectivity ------------------------------------------
    import networkx as nx

    nxg = graph.to_networkx()
    if len(nxg) > 1:
        expected = max(1, getattr(graph, "expected_components", 1))
        n_components = nx.number_weakly_connected_components(nxg)
        if n_components > expected:
            report.add(Diagnostic(
                "G009",
                f"graph splits into {n_components} disconnected components"
                f" ({expected} declared via expected_components)",
                source=graph.name,
            ))
    return report
