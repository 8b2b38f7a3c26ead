"""Static dataflow analysis: SDF balance equations on Kahn graphs.

Regular tasks (constant tokens per firing — §2.2's video filters) form
a synchronous-dataflow subclass of the Kahn model, where consistency
and relative firing rates are decidable at configuration time.  The
*repetition vector* q solves the balance equations

    q[producer] * produced_per_firing == q[consumer] * consumed_per_firing

for every stream; the application architect uses it to check that a
graph is rate-consistent (an inconsistent graph needs unbounded
buffering or starves) and to derive buffer sizes and throughput
budgets before any simulation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from repro.kahn.graph import ApplicationGraph, GraphError

__all__ = [
    "declared_rates",
    "repetition_vector",
    "RateInconsistencyError",
    "stream_rates_per_iteration",
]


class RateInconsistencyError(ValueError):
    """The balance equations have no non-trivial solution — the graph
    is not a consistent SDF graph at the declared rates."""


def declared_rates(graph: ApplicationGraph) -> Optional[Dict[Tuple[str, str], int]]:
    """Port granularities as SDF rates, or None when undeclared.

    A graph "declares rates" when every connected port carries a sync
    granularity > 1 (the default of 1 means "unspecified" — engaging
    the balance equations on defaults would only ever prove the
    trivial all-ones vector).
    """
    rates: Dict[Tuple[str, str], int] = {}
    for task in graph.tasks.values():
        for p in task.ports:
            rates[(task.name, p.name)] = p.granularity
    if not rates or any(r <= 1 for r in rates.values()):
        return None
    return rates


def repetition_vector(
    graph: ApplicationGraph,
    rates: Mapping[Tuple[str, str], int],
) -> Dict[str, int]:
    """Solve the SDF balance equations.

    ``rates`` maps (task, port) -> tokens (bytes) per firing, for every
    connected port.  Returns the minimal positive integer repetition
    vector.  Raises :class:`RateInconsistencyError` on inconsistent
    cycles/reconvergences and :class:`GraphError` on missing rates.
    """
    graph.validate()
    for name, edge in graph.streams.items():
        endpoints = [(edge.producer.task, edge.producer.port)] + [
            (c.task, c.port) for c in edge.consumers
        ]
        for key in endpoints:
            if key not in rates:
                raise GraphError(f"missing rate for port {key[0]}.{key[1]}")
            if rates[key] < 1:
                raise GraphError(f"rate for {key[0]}.{key[1]} must be >= 1")

    # propagate relative rates over the undirected constraint graph
    ratio: Dict[str, Fraction] = {}
    for start in graph.tasks:
        if start in ratio:
            continue
        ratio[start] = Fraction(1)
        stack = [start]
        while stack:
            task = stack.pop()
            for edge in graph.streams.values():
                pairs = []
                prod = (edge.producer.task, edge.producer.port)
                for cons in edge.consumers:
                    pairs.append((prod, (cons.task, cons.port)))
                for (pt, pp), (ct, cp) in pairs:
                    if task not in (pt, ct):
                        continue
                    # q[pt] * rate_p == q[ct] * rate_c
                    rate_p, rate_c = Fraction(rates[(pt, pp)]), Fraction(rates[(ct, cp)])
                    if pt in ratio and ct in ratio:
                        if ratio[pt] * rate_p != ratio[ct] * rate_c:
                            raise RateInconsistencyError(
                                f"stream {edge.name!r}: {pt} x {rate_p} != {ct} x {rate_c} "
                                f"given q[{pt}]={ratio[pt]}, q[{ct}]={ratio[ct]}"
                            )
                    elif pt in ratio:
                        ratio[ct] = ratio[pt] * rate_p / rate_c
                        stack.append(ct)
                    elif ct in ratio:
                        ratio[pt] = ratio[ct] * rate_c / rate_p
                        stack.append(pt)

    # scale to the minimal positive integer vector (per connected set,
    # jointly: use the lcm of all denominators, then divide by the gcd)
    from math import gcd, lcm

    denom = lcm(*[f.denominator for f in ratio.values()])
    ints = {t: int(f * denom) for t, f in ratio.items()}
    g = gcd(*ints.values())
    return {t: v // g for t, v in ints.items()}


def stream_rates_per_iteration(
    graph: ApplicationGraph,
    rates: Mapping[Tuple[str, str], int],
) -> Dict[str, int]:
    """Bytes crossing each stream per graph iteration (one execution of
    the repetition vector) — the throughput-budgeting number."""
    q = repetition_vector(graph, rates)
    out = {}
    for name, edge in graph.streams.items():
        prod = (edge.producer.task, edge.producer.port)
        out[name] = q[edge.producer.task] * rates[prod]
    return out
