"""The solve→verify round-trip gate (the PR's acceptance contract).

For every shipped workload factory and a grid of seeded budget points,
`repro solve` must produce a configuration that

(a) passes the full ``repro verify`` pipeline with **zero** findings
    (linter and solver share one constraint model),
(b) simulates to the functional Kahn executor's stream histories,
    byte for byte,
(c) is *minimal* for the pipeline/diamond shapes: decrementing any
    derived buffer by one alignment step yields a G-rule finding or a
    simulated deadlock.

Infeasible budgets must exit with a structured "no solution because
<binding constraint>" diagnosis — never a traceback.
"""

from __future__ import annotations

import pytest

from repro.core.system import StalledError
from repro.verify.constraints import stream_alignment, stream_facts
from repro.verify.diagnostics import Report
from repro.verify.run import _instance_params, verify_graph
from repro.verify.solve import (
    SolveError,
    blocked_streams,
    solve_graph,
    solve_mapping,
)
from repro.verify.solve_run import (
    SOLVE_MODELS,
    _apply_sizes,
    check_solution,
    simulate_solution,
    solve_workload,
)

#: the seeded budget grid: >= 10 (workload, sram) points spanning
#: near-minimal through the paper instance's full 32 kB
BUDGET_POINTS = [
    ("conformance-pipeline", 192),
    ("conformance-pipeline", 1024),
    ("conformance-pipeline", 32 * 1024),
    ("conformance-diamond", 256),
    ("conformance-diamond", 2048),
    ("conformance-diamond", 32 * 1024),
    ("quickstart", 64),
    ("quickstart", 32 * 1024),
    ("decode", 4096),
    ("decode", 8192),
    ("decode", 32 * 1024),
    ("conferencing", 8192),
    ("conferencing", 32 * 1024),
    ("multistream", 32 * 1024),
]


def _matches_kahn_oracle(workload, solution) -> bool:
    """The derived configuration runs to completion and every stream
    history equals the functional Kahn executor's on the same graph."""
    from repro.kahn.executor import FunctionalExecutor

    simulated = simulate_solution(workload, solution)
    _system, graph = SOLVE_MODELS[workload].build(grain=solution.grain)
    _apply_sizes(graph, solution.buffer_sizes)
    oracle = FunctionalExecutor(graph).run().histories
    return simulated["completed"] and simulated["histories"] == {
        name: data.hex() for name, data in oracle.items()
    }


def test_budget_grid_is_large_enough():
    assert len(BUDGET_POINTS) >= 10
    assert {w for w, _ in BUDGET_POINTS} >= {
        "conformance-pipeline", "conformance-diamond", "quickstart", "decode"
    }


def test_every_solve_model_matches_a_verify_workload():
    from repro.verify.run import WORKLOADS

    assert set(SOLVE_MODELS) == set(WORKLOADS), (
        "a new shipped workload must join the solve-model registry"
    )


# ---------------------------------------------------------------------------
# (a) + (b): the round-trip gate over the budget grid
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload,sram", BUDGET_POINTS,
                         ids=[f"{w}-{s}" for w, s in BUDGET_POINTS])
def test_solved_config_verifies_clean_and_runs_byte_identical(workload, sram):
    solution = solve_workload(workload, sram_size=sram)
    assert solution.total_bytes <= sram
    assert solution.headroom >= 0

    report = check_solution(workload, solution)
    assert report.diagnostics == [], (
        f"solver emitted a configuration the linter rejects: "
        f"{[d.render() for d in report.diagnostics]}"
    )

    assert _matches_kahn_oracle(workload, solution), (
        "derived configuration does not reproduce the Kahn oracle's histories"
    )


def test_solve_is_deterministic():
    a = solve_workload("conformance-diamond", sram_size=2048)
    b = solve_workload("conformance-diamond", sram_size=2048)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# (c): minimality for the pipeline/diamond shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["conformance-pipeline", "conformance-diamond"])
def test_derived_sizes_are_minimal(workload):
    """Decrement any one derived buffer by one alignment step: the
    result must be flagged statically (a G-rule error finding) or
    deadlock in simulation — i.e. no smaller legal configuration
    exists."""
    solution = solve_workload(workload)
    model = SOLVE_MODELS[workload]
    for name in solution.buffer_sizes:
        system, graph = model.build(grain=solution.grain)
        cache_line, _ = _instance_params(system)
        step = stream_alignment(stream_facts(graph, cache_line)[name])
        sizes = dict(solution.buffer_sizes)
        sizes[name] -= step
        if sizes[name] < 1:
            continue  # below 1 byte is not even a configuration
        _apply_sizes(graph, sizes)
        report = verify_graph(graph, cache_line=cache_line,
                              sram_size=solution.sram_size)
        if report.has_errors:
            continue  # statically refuted — proof done for this stream
        system.configure(graph)
        with pytest.raises(StalledError):
            system.run()


# ---------------------------------------------------------------------------
# infeasibility: structured answers, never tracebacks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(SOLVE_MODELS))
def test_infeasible_budget_names_the_binding_constraint(workload):
    with pytest.raises(SolveError) as exc:
        solve_workload(workload, sram_size=10)
    report = exc.value.report
    assert isinstance(report, Report)
    assert report.has_errors
    ids = report.rule_ids()
    assert ids <= {"S401", "S402", "S403"}, f"unexpected rules {ids}"
    text = str(exc.value)
    assert "10" in text  # the budget is named in the diagnosis


def test_infeasible_diagnosis_names_largest_contributor():
    with pytest.raises(SolveError) as exc:
        solve_workload("quickstart", sram_size=16)
    d = exc.value.report.diagnostics[0]
    assert d.rule_id == "S401"
    assert "s_src_out" in d.message
    assert "G003" in d.message  # the binding per-stream bound


def test_cli_solve_infeasible_exits_one_no_traceback(capsys):
    from repro.cli import main

    rc = main(["solve", "--workload", "conformance-pipeline", "--sram", "10"])
    assert rc == 1
    out = capsys.readouterr()
    assert "no solution" in out.out
    assert "S4" in out.out
    assert "Traceback" not in out.out + out.err


def test_cli_solve_check_round_trips(capsys):
    from repro.cli import main

    rc = main(["solve", "--workload", "conformance-pipeline", "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verify clean" in out and "simulated" in out


def test_cli_solve_json_and_out_file(tmp_path, capsys):
    import json

    from repro.cli import main

    path = tmp_path / "sol.json"
    rc = main(["solve", "--workload", "quickstart", "--sram", "4096",
               "--format", "json", "--out", str(path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solved"] is True
    assert payload["sram_size"] == 4096
    on_disk = json.loads(path.read_text())
    assert on_disk["buffer_sizes"] == payload["buffer_sizes"]


def test_cli_solve_usage_errors_exit_two(capsys):
    from repro.cli import main

    assert main(["solve", "--workload", "nope"]) == 2


# ---------------------------------------------------------------------------
# the CEGAR refinement layer
# ---------------------------------------------------------------------------
def test_refinement_rescues_reconvergent_decode():
    """Without worst-request hints the decode network's grain-1 static
    bounds are far too small; the refinement loop must converge to a
    running configuration within the budget."""
    model = SOLVE_MODELS["decode"]
    from repro.verify.solve_run import _make_refiner

    system, graph = model.build(grain=None)
    solution = solve_graph(
        graph,
        sram_size=32 * 1024,
        cache_line=32,
        coprocessors=list(system.specs),
        refine=_make_refiner(model, None),
        max_refine=200,
    )
    assert solution.refinement_rounds > 0
    assert any(v.startswith("refined[") for v in solution.binding.values())
    assert _matches_kahn_oracle("decode", solution)


def test_refinement_round_bound_raises_s405():
    model = SOLVE_MODELS["decode"]
    from repro.verify.solve_run import _make_refiner

    system, graph = model.build(grain=None)
    with pytest.raises(SolveError) as exc:
        solve_graph(
            graph,
            sram_size=32 * 1024,
            cache_line=32,
            refine=_make_refiner(model, None),
            max_refine=1,
        )
    assert exc.value.report.rule_ids() == {"S405"}


def test_blocked_streams_parses_deadlock_and_oversize():
    deadlock = (
        "deadlock detected at t=100: no progress\n"
        "  task 'mc' @ mcme: blocked on access point resid.resid_in "
        "(consumer, position=0, available=0, granted=0, eos=False)\n"
        "  task 'idct' @ dct: blocked on access point resid.out "
        "(producer, position=0, available=0, granted=0, eos=False)\n"
    )
    parsed = blocked_streams(deadlock)
    assert parsed[0] == ("resid", "producer", None)  # producers first
    assert ("resid", "consumer", None) in parsed

    oversize = "vld/vld: GetSpace('coef_out', 325) exceeds buffer size 32 of stream 'coef'"
    assert blocked_streams(oversize) == [("coef", "oversize", 325)]


# ---------------------------------------------------------------------------
# discrete layers: grains and mapping
# ---------------------------------------------------------------------------
def test_grain_search_prefers_largest_feasible():
    tight = solve_workload("conformance-pipeline", sram_size=192)
    roomy = solve_workload("conformance-pipeline", sram_size=32 * 1024)
    assert roomy.grain == 64  # largest candidate, plenty of SRAM
    assert tight.grain is not None
    assert tight.total_bytes <= 192


def test_pinned_grain_is_honoured():
    solution = solve_workload("conformance-pipeline", grain=16)
    assert solution.grain == 16
    assert check_solution("conformance-pipeline", solution).diagnostics == []


def test_pinning_grain_on_grainless_workload_is_structured_error():
    with pytest.raises(SolveError) as exc:
        solve_workload("decode", grain=16)
    assert exc.value.report.rule_ids() == {"S403"}


def test_mapping_honours_declarations_and_balances():
    solution = solve_workload("decode")
    # the Figure 8 instance declares the full decode mapping
    assert solution.mapping == {
        "vld": "vld", "rlsq": "rlsq", "idct": "dct", "mc": "mcme", "disp": "dsp"
    }
    pipe = solve_workload("conformance-pipeline")
    # three tasks, three coprocessors: perfectly balanced, deterministic
    assert sorted(pipe.mapping.values()) == ["cp0", "cp1", "cp2"]


def test_solve_mapping_unknown_unit_is_s404():
    from repro.workloads import pipeline_graph

    g = pipeline_graph(b"x" * 64)
    g.tasks["xf"].mapping = "gpu0"
    with pytest.raises(SolveError) as exc:
        solve_mapping(g, ["cp0", "cp1"])
    d = exc.value.report.diagnostics[0]
    assert d.rule_id == "S404"
    assert "gpu0" in d.message and "xf" in d.message


def test_solve_mapping_capacity_overflow_is_s404():
    from repro.workloads import diamond_graph

    g = diamond_graph(b"x" * 64)  # 5 tasks
    with pytest.raises(SolveError) as exc:
        solve_mapping(g, ["cp0", "cp1"], max_tasks_per_unit=2)
    assert exc.value.report.rule_ids() == {"S404"}


def test_solve_mapping_no_units_is_s404():
    from repro.workloads import pipeline_graph

    with pytest.raises(SolveError):
        solve_mapping(pipeline_graph(b"x" * 64), [])


# ---------------------------------------------------------------------------
# elasticity and the Solution object
# ---------------------------------------------------------------------------
def test_elasticity_water_fills_within_budget():
    minimal = solve_workload("conformance-pipeline", sram_size=512, refine=False)
    elastic = solve_workload("conformance-pipeline", sram_size=512,
                             elasticity=3, refine=False)
    assert elastic.total_bytes <= 512
    assert elastic.total_bytes > minimal.total_bytes
    for name in minimal.buffer_sizes:
        assert elastic.buffer_sizes[name] >= minimal.buffer_sizes[name]
    # elasticity never breaks the round trip
    assert check_solution("conformance-pipeline", elastic).diagnostics == []


def test_solution_apply_stamps_graph_in_place():
    from repro.workloads import pipeline_graph

    g = pipeline_graph(b"x" * 256)
    solution = solve_graph(g, sram_size=1024)
    solution.apply(g)
    for name, size in solution.buffer_sizes.items():
        assert g.streams[name].buffer_size == size
    with pytest.raises(KeyError):
        solution.buffer_sizes["ghost"] = 32
        solution.apply(g)


def test_solution_render_mentions_provenance():
    solution = solve_workload("conformance-pipeline")
    text = solution.render()
    assert "binding" in text
    assert "G003" in text or "worst-request" in text
    assert f"{solution.total_bytes} B" in text


# ---------------------------------------------------------------------------
# the budget-driven service factory
# ---------------------------------------------------------------------------
def test_solved_run_factory_builds_a_running_system():
    from repro.workloads import RUN_FACTORIES, solved_run

    assert RUN_FACTORIES["solved"] is solved_run
    system, graph = solved_run(workload="conformance-pipeline", sram_size=4096)
    solution = solve_workload("conformance-pipeline", sram_size=4096)
    for name, size in solution.buffer_sizes.items():
        assert graph.streams[name].buffer_size == size
    system.configure(graph)
    result = system.run()
    assert result.cycles > 0


def test_solved_run_infeasible_budget_propagates_structured_error():
    from repro.workloads import solved_run

    with pytest.raises(SolveError):
        solved_run(workload="conformance-pipeline", sram_size=10)
