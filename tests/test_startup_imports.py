"""Start-up import hygiene: starting a run loads only what it uses.

Every simulation starts in a fresh interpreter (the CLI, a pool
worker, a sweep-service process), so whatever the run path imports is
paid on every start.  networkx serves only ``to_networkx()`` and the
static verifier, and the verifier serves only ``repro verify`` and
``repro solve``: neither may load on the way to a simulation.
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

FRESH_INTERPRETER = """
import json, sys
import repro, repro.workloads, repro.runner, repro.service.server

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "networkx" or m.split(".")[:2] == ["repro", "verify"])

at_start = loaded()
graph = repro.workloads.diamond_graph(repro.workloads.payload_of(64))
nxg = graph.to_networkx()
import repro.kahn.analysis, repro.verify
print(json.dumps({
    "at_start": at_start,
    "nodes": sorted(nxg.nodes),
    "edges": nxg.number_of_edges(),
    "acyclic": graph.is_acyclic(),
    "same_declared_rates":
        repro.verify.declared_rates is repro.kahn.analysis.declared_rates,
}))
"""


def test_run_path_loads_neither_networkx_nor_the_verifier():
    out = subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    probe = json.loads(out.stdout)
    assert probe["at_start"] == []
    # networkx still loads on demand, and the verifier re-exports the
    # one rate helper the run path shares with it
    assert probe["nodes"] == ["da", "db", "fork", "ma", "src"]
    assert probe["edges"] == 4
    assert probe["acyclic"] is True
    assert probe["same_declared_rates"] is True
