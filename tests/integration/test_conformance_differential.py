"""Differential conformance: the faulted cycle-level system vs the
functional Kahn executor.

Kahn determinism is the oracle: under any *eventually recovered* fault
schedule (drops capped, watchdog re-sending cumulative credits,
corrupted line fills detected and refetched) the cycle-level stream
histories must be byte-identical to the functional executor's.  With
recovery off, the deadlock detector must terminate the run with a
report naming the blocked access points — never a silent hang.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeadlockError, FaultPlan, SystemParams
from tests.conftest import (
    GRAPH_BUILDERS,
    assert_histories_match,
    golden_histories,
    payload_of,
    run_on_system,
)

WATCHDOG = SystemParams(watchdog_timeout=1500)

#: named fault regimes for the sweep; all drops capped -> eventually
#: recovered by construction
PLANS = {
    "drop": FaultPlan(drop_prob=0.3, drop_limit=64),
    "dup+delay": FaultPlan(dup_prob=0.3, delay_prob=0.4, reorder_prob=0.3, max_delay=80),
    "stall+corrupt": FaultPlan(stall_prob=0.04, max_stall=300, corrupt_prob=0.04),
    "chaos": FaultPlan.chaos(),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_faulted_run_matches_functional_oracle(graph_name, plan_name, seed):
    """The seed sweep: every (plan, graph, seed) run completes with
    histories byte-identical to the functional executor."""
    build = GRAPH_BUILDERS[graph_name]
    payload = payload_of(1200)
    golden = golden_histories(build(payload))
    plan = PLANS[plan_name].with_(seed=seed)
    result = run_on_system(build(payload), params=WATCHDOG, faults=plan)
    assert_histories_match(result, golden)


def test_chaos_reports_recovery_work():
    """Chaotic runs must actually exercise the machinery: faults
    injected, counters consistent, and across a few seeds the watchdog
    demonstrably had to act (a drop on the *last* message of a stream
    can only be healed by a retry, not by in-band credits)."""
    payload = payload_of(2000)
    build = GRAPH_BUILDERS["diamond"]
    golden = golden_histories(build(payload))
    for seed in range(3):
        result = run_on_system(
            build(payload), params=WATCHDOG, faults=FaultPlan.chaos(seed=seed)
        )
        assert_histories_match(result, golden)
        rob = result.robustness
        assert rob is not None
        assert rob["messages_dropped"] > 0
        assert rob["injected"]["messages_dropped"] == rob["messages_dropped"]
        # every injected corruption was caught by the parity model
        assert rob["corruptions_detected"] == rob["injected"]["corruptions_injected"]


def test_watchdog_heals_blackout_until_limit():
    """Drop *everything* until the drop budget runs out: in-band
    credits cannot help (nothing gets through), so only the watchdog's
    retries — sent after the budget is exhausted — can unblock the
    graph.  The run must still end byte-identical.  (The budget is kept
    small: retries burn it at watchdog pace, and the deadlock monitor
    must not out-wait the recovery.)"""
    payload = payload_of(800)
    build = GRAPH_BUILDERS["pipeline"]
    golden = golden_histories(build(payload))
    plan = FaultPlan(seed=0, drop_prob=1.0, drop_limit=12)
    result = run_on_system(build(payload), params=WATCHDOG, faults=plan)
    assert_histories_match(result, golden)
    rob = result.robustness
    assert rob["messages_dropped"] == 12
    assert rob["watchdog_fires"] > 0
    assert rob["retries_sent"] > 0
    assert rob["recoveries"] > 0  # a retry delivered credit that stuck


def test_explicit_stall_schedule():
    """Pinned StallSpecs freeze a named coprocessor; the graph still
    drains correctly and the stall shows up in the stats."""
    from repro.core import StallSpec

    payload = payload_of(800)
    build = GRAPH_BUILDERS["pipeline"]
    golden = golden_histories(build(payload))
    plan = FaultPlan(
        stalls=(StallSpec("cp0", at_cycle=200, cycles=500), StallSpec("cp1", at_cycle=400, cycles=300))
    )
    result = run_on_system(build(payload), params=WATCHDOG, faults=plan)
    assert_histories_match(result, golden)
    assert result.robustness["injected"]["stall_cycles"] >= 800


def test_small_mpeg_decode_under_chaos():
    """The real MPEG pipeline on the Figure 8 instance survives a
    chaotic fabric bit-exactly."""
    import numpy as np

    from repro.instance import DECODE_MAPPING, build_mpeg_instance
    from repro.media import CodecParams, encode_sequence, synthetic_sequence
    from repro.media.pipelines import decode_graph

    params = CodecParams(width=48, height=32, gop_n=4, gop_m=2)
    frames = synthetic_sequence(params.width, params.height, 4)
    bits, recon, _ = encode_sequence(frames, params)
    system = build_mpeg_instance(
        SystemParams(dram_latency=60, watchdog_timeout=3000),
        faults=FaultPlan.chaos(seed=2),
    )
    system.configure(decode_graph(bits, mapping=DECODE_MAPPING))
    result = system.run()
    assert result.completed
    disp = next(
        row.kernel
        for shell in system.shells.values()
        for row in shell.task_table
        if row.name == "disp"
    )
    for d, r in zip(disp.display_frames(), recon):
        assert np.array_equal(d.y, r.y)


# ---------------------------------------------------------------------------
# kill-and-resume: interruption must not weaken conformance
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
def test_killed_and_resumed_run_matches_functional_oracle(graph_name, tmp_path):
    """The resilience variant of the seed sweep: interrupt a chaotic
    run mid-flight, persist the snapshot, restore it from disk (as a
    crashed worker's replacement would) and finish — the histories must
    still be byte-identical to the functional executor's.  Conformance
    is a property of the *run*, not of an uninterrupted process."""
    from repro.resilience import SystemSnapshot, capture, restore
    from repro.workloads import conformance_run

    kwargs = {"graph": graph_name, "payload_len": 1200,
              "fault_spec": "chaos", "fault_seed": 3}
    golden = golden_histories(conformance_run(**kwargs)[1])

    system, graph = conformance_run(**kwargs)
    system.configure(graph)
    assert not system.advance(900), "cut must land mid-run"
    path = str(tmp_path / "interrupted.ckpt.json")
    capture(system, "repro.workloads:conformance_run", kwargs).save(path)
    del system  # the "killed" worker

    result = restore(SystemSnapshot.load(path)).run()
    assert_histories_match(result, golden)
    assert result.robustness["messages_dropped"] > 0  # chaos was live


# ---------------------------------------------------------------------------
# property test: random seeds, both recovery regimes
# ---------------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), graph_name=st.sampled_from(sorted(GRAPH_BUILDERS)))
def test_random_seeds_conform(seed, graph_name):
    """Any random chaos seed yields a recovered, byte-identical run."""
    build = GRAPH_BUILDERS[graph_name]
    payload = payload_of(600)
    golden = golden_histories(build(payload))
    result = run_on_system(
        build(payload), params=WATCHDOG, faults=FaultPlan.chaos(seed=seed)
    )
    assert_histories_match(result, golden)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_blackout_without_recovery_is_diagnosed(seed):
    """Recovery off + all messages dropped: the deadlock detector must
    fire with a report naming the blocked access points — never a
    silent hang."""
    payload = payload_of(600)
    build = GRAPH_BUILDERS["pipeline"]
    plan = FaultPlan(seed=seed, drop_prob=1.0)  # blackout, no drop cap
    with pytest.raises(DeadlockError) as exc:
        run_on_system(build(payload), faults=plan)  # no watchdog
    report = exc.value.report
    assert "blocked on access point" in report
    # the producer is stuck on its output stream: named task AND port
    assert "'src'" in report and "s_src_out.out" in report


def test_blackout_with_watchdog_livelock_is_diagnosed():
    """Watchdog retrying into a dead fabric forever is a livelock; the
    detector still terminates it with the same diagnosis."""
    payload = payload_of(600)
    build = GRAPH_BUILDERS["diamond"]
    plan = FaultPlan(seed=1, drop_prob=1.0)
    with pytest.raises(DeadlockError) as exc:
        run_on_system(build(payload), params=WATCHDOG, faults=plan)
    assert "blocked on access point" in exc.value.report


def test_backing_off_watchdog_is_not_declared_dead():
    """Dropped retries while the watchdog backs off toward its cap are
    slow recovery, not deadlock: the detector's window spans two capped
    watchdog periods (7 polls at the defaults, not 5), so this run
    completes with the oracle's histories instead of dying at t=60000."""
    from repro.kahn.executor import FunctionalExecutor
    from repro.workloads import conformance_run

    point = dict(graph="pipeline", fault_spec="drop", fault_seed=4, n_coprocs=2,
                 payload_len=448, watchdog_timeout=2000)
    system, graph = conformance_run(**point)
    system.configure(graph)
    result = system.run()
    assert result.completed and result.cycles == 116_018
    assert result.histories == FunctionalExecutor(conformance_run(**point)[1]).run().histories


def test_blackout_non_strict_returns_partial_result():
    """strict=False converts the diagnosis into a partial result for
    inspection: completed=False, stalled tasks listed."""
    from tests.conftest import make_system, pipeline_graph

    payload = payload_of(600)
    system = make_system(faults=FaultPlan(seed=0, drop_prob=1.0))
    system.configure(pipeline_graph(payload))
    result = system.run(strict=False)
    assert not result.completed
    assert "src" in result.stalled_tasks
