"""Tests for the command-line interface."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.service import ResultStore
from repro.sim.faults import FaultPlan, LossPlan

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "Eclipse" in out
    assert "vld" in out and "dsp" in out


def test_quickstart(capsys):
    assert main(["quickstart"]) == 0
    out = capsys.readouterr().out
    assert "matches reference: True" in out


def test_estimate(capsys):
    assert main(["estimate"]) == 0
    out = capsys.readouterr().out
    assert "Gops" in out
    assert "all paper bounds hold: True" in out


def test_decode_small(capsys):
    rc = main(["decode", "--width", "48", "--height", "32", "--frames", "4",
               "--gop-n", "4", "--gop-m", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "architecture view" in out
    assert "bottleneck per frame type" in out


def test_decode_half_pel(capsys):
    rc = main(["decode", "--width", "48", "--height", "32", "--frames", "3",
               "--gop-n", "3", "--gop-m", "1", "--half-pel"])
    assert rc == 0


def test_explore(capsys):
    assert main(["explore", "--frames", "3"]) == 0
    out = capsys.readouterr().out
    assert "prefetch sweep" in out
    assert "buffer sweep" in out


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["nonsense"])


# ---------------------------------------------------------------------------
# parallel runner flags (--jobs / --report)
# ---------------------------------------------------------------------------
CONF_FAST = ["conformance", "--seeds", "2", "--graph", "pipeline",
             "--payload", "256", "--fault-plan", "drop"]


def test_conformance_serial(capsys):
    assert main(CONF_FAST + ["--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/2 runs byte-identical to the Kahn oracle" in out
    assert "on 1 jobs" in out


def test_conformance_report_identical_across_jobs(tmp_path, capsys):
    """The acceptance contract: the JSON report at --jobs N is
    byte-identical to --jobs 1."""
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(CONF_FAST + ["--jobs", "1", "--report", str(r1)]) == 0
    assert main(CONF_FAST + ["--jobs", "2", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    data = json.loads(r1.read_text())
    assert data["summary"] == {"total": 2, "ok": 2, "failed": 2 - 2,
                               "total_cycles": data["summary"]["total_cycles"]}
    assert "timing" not in data  # deterministic by default


def test_conformance_stdout_identical_across_jobs(tmp_path, capsys):
    assert main(CONF_FAST + ["--jobs", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(CONF_FAST + ["--jobs", "2"]) == 0
    out2 = capsys.readouterr().out
    # per-run lines and the verdict are deterministic; only the final
    # wall-clock line differs
    strip = lambda s: [l for l in s.splitlines() if " jobs: " not in l]
    assert strip(out1) == strip(out2)


def test_report_timing_opt_in(tmp_path, capsys):
    path = tmp_path / "timed.json"
    assert main(CONF_FAST + ["--jobs", "1", "--report", str(path),
                             "--report-timing"]) == 0
    data = json.loads(path.read_text())
    assert data["timing"]["jobs"] == 1
    assert data["timing"]["wall_time"] > 0


BAD_CODEC_FLAGS = [["--width", "20"], ["--height", "0"], ["--gop-n", "0"], ["--gop-m", "0"]]


@pytest.mark.parametrize(
    "argv",
    [["decode"] + flags for flags in BAD_CODEC_FLAGS]
    + [["decode", "--loss-plan", "mild"] + flags for flags in BAD_CODEC_FLAGS],
    ids=lambda argv: " ".join(argv),
)
def test_bad_codec_arguments_rejected_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["decode", "--sample-interval", "0"],
     ["decode", "--frames", "0"],
     ["decode", "--frames", "0", "--loss-plan", "mild"],
     ["explore", "--frames", "0"],
     ["explore", "--jobs", "0"],
     ["conformance", "--jobs", "0"],
     ["conformance", "--seeds", "0"],
     ["conformance", "--seeds", "0", "--loss-plan", "mild"],
     ["conformance", "--payload", "-1"],
     ["conformance", "--watchdog-timeout", "0"],
     ["conformance", "--checkpoint-interval", "0", "--checkpoint-dir", "D"],
     ["serve", "--checkpoint-interval", "0"],
     ["serve", "--jobs", "0"],
     ["trace", "--capacity", "0"],
     ["verify", "--max-steps", "0"],
     ["solve", "--grain", "0"],
     ["solve", "--grain", "-2"],
     ["solve", "--sram", "0"],
     ["solve", "--elasticity", "0"],
     ["solve", "--max-refine", "0"],
     ["submit", "--budget", "0"]],
    ids=lambda argv: " ".join(argv),
)
def test_bad_count_arguments_rejected_cleanly(argv, capsys):
    # each would build a run that traces back, passes vacuously or
    # fails every point
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and argv[1] in errors[0]
    assert "must be >= 1" in errors[0]
    assert "Traceback" not in err


#: every count flag argparse checks, as (argv prefix, flag)
COUNT_FLAGS = [
    (["decode"], "--frames"), (["explore"], "--frames"), (["explore"], "--jobs"),
    (["conformance"], "--jobs"), (["serve"], "--jobs"), (["trace"], "--capacity"),
    (["verify"], "--max-steps"), (["solve"], "--sram"), (["solve"], "--elasticity"),
    (["solve"], "--max-refine"), (["submit"], "--budget"),
]

#: every plan flag, as (argv prefix, flag, the parser of its SPEC)
PLAN_FLAGS = [
    (["quickstart"], "--fault-plan", FaultPlan.parse),
    (["decode"], "--fault-plan", FaultPlan.parse),
    (["decode"], "--loss-plan", LossPlan.parse),
    (["conformance"], "--fault-plan", FaultPlan.parse),
    (["conformance"], "--loss-plan", LossPlan.parse),
]

#: what would start work: the run factories and content builders the
#: verbs take their runs from, and every verb without a plan flag
NO_WORK = (
    [f"repro.workloads.{name}" for name in (
        "quickstart_run", "decode_run", "conformance_run", "conferencing_run",
        "explore_decode_run", "synthetic_video_es", "_av_transport_stream")]
    + [f"repro.cli._cmd_{verb}" for verb in (
        "explore", "serve", "trace", "verify", "solve", "submit")]
)


def _fails(fn, text) -> bool:
    try:
        fn(text)
    except Exception:
        return True
    return False


#: the fault flags, each with a valid value, that a lossy run cannot take
FAULT_FLAGS = [("--fault-plan", "drop"), ("--fault-seed", "3"), ("--watchdog-timeout", "100")]


@st.composite
def bad_flags(draw):
    """(argv, flags it must name): one count flag at 0, below 0 or not an
    integer, one plan flag with a SPEC its parser rejects, or fault
    flags beside a --loss-plan."""
    kind = draw(st.sampled_from(["count", "plan", "loss+fault"]))
    if kind == "count":
        prefix, flag = draw(st.sampled_from(COUNT_FLAGS))
        value = draw(st.one_of(st.integers(max_value=0).map(str),
                               st.text(max_size=8).filter(lambda t: _fails(int, t))))
    elif kind == "plan":
        prefix, flag, parse = draw(st.sampled_from(PLAN_FLAGS))
        spec = st.one_of(
            st.text(max_size=16),
            st.builds("{}={}".format, st.sampled_from(
                ["drop", "delay", "stall", "seed", "max_delay", "loss", "fec_group",
                 "max_rtx", "jitter", "bogus"]), st.text(max_size=8)),
        )
        value = draw(spec.filter(lambda t: _fails(parse, t)))
    else:
        verb = draw(st.sampled_from(["decode", "conformance"]))
        faults = draw(st.lists(st.sampled_from(FAULT_FLAGS), min_size=1, unique=True))
        return ([verb, "--loss-plan", "mild"] + [f"{f}={v}" for f, v in faults],
                [f for f, _v in faults])
    return prefix + [f"{flag}={value}"], [flag]


@settings(max_examples=150, deadline=None)
@given(bad_flags())
def test_a_bad_flag_value_exits_two_before_any_work(case):
    argv, flags = case
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        for target in NO_WORK:
            stack.enter_context(mock.patch(target, side_effect=AssertionError(f"{target} called")))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == 1 and all(flag in errors[0] for flag in flags), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv", [["info"], ["trace", "--workload", "quickstart", "--out", "q.json"]],
    ids=" ".join,
)
def test_a_closed_stdout_exits_one_quietly(argv, tmp_path):
    """A reader that has gone away (``repro info | head -1``): exit 1,
    nothing on stderr, no BrokenPipeError traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, cwd=tmp_path, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_unwritable_report_rejected_cleanly(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(CONF_FAST + ["--jobs", "1", "--report", str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot write --report" in err
    assert "Traceback" not in err


def test_unwritable_json_rejected_cleanly(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "decode.json"
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--width", "48", "--height", "32", "--frames", "3", "--gop-n", "3",
              "--gop-m", "1", "--obs-level", "off", "--json", str(bad)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --json") and err.count("\n") == 1


def test_invalid_fault_plan_rejected_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conformance", "--seeds", "1", "--fault-plan", "bogus=1"])
    assert exc.value.code == 2
    assert "invalid --fault-plan" in capsys.readouterr().err


def test_explore_jobs_and_report(tmp_path, capsys):
    path = tmp_path / "explore.json"
    assert main(["explore", "--frames", "3", "--jobs", "2",
                 "--report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "prefetch sweep" in out and "buffer sweep" in out
    data = json.loads(path.read_text())
    assert data["summary"]["total"] == 7  # baseline + 3 prefetch + 3 buffer
    assert data["summary"]["ok"] == 7


# ---------------------------------------------------------------------------
# crash-tolerant sweeps (--checkpoint-dir)
# ---------------------------------------------------------------------------
def test_conformance_checkpoint_dir_report_is_byte_identical(tmp_path, capsys):
    """A checkpointed sweep writes the same report a plain one does;
    checkpointing is visible only in the store and the note."""
    plain, supervised = tmp_path / "plain.json", tmp_path / "sup.json"
    ckpt = tmp_path / "ckpt"
    assert main(CONF_FAST + ["--jobs", "1", "--report", str(plain)]) == 0
    capsys.readouterr()
    assert main(CONF_FAST + ["--jobs", "1", "--report", str(supervised),
                             "--checkpoint-dir", str(ckpt),
                             "--checkpoint-interval", "256"]) == 0
    assert plain.read_bytes() == supervised.read_bytes()
    assert len(ResultStore(str(ckpt))) == 2


def test_conformance_resume_skips_completed_runs(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert main(CONF_FAST + ["--checkpoint-dir", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(CONF_FAST + ["--checkpoint-dir", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert f"note: 2 runs: 0 executed, 2 from {ckpt}" in out
    assert "2/2 runs byte-identical to the Kahn oracle" in out


def test_unusable_checkpoint_dir_rejected_cleanly(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(CONF_FAST + ["--checkpoint-dir", str(blocker / "ckpt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use --checkpoint-dir") and err.count("\n") == 1


def test_checkpoint_interval_requires_a_directory(capsys):
    with pytest.raises(SystemExit) as exc:
        main(CONF_FAST + ["--checkpoint-interval", "256"])
    assert exc.value.code == 2
    assert "--checkpoint-interval" in capsys.readouterr().err


def test_ctrl_c_during_a_checkpointed_sweep_prints_one_line(tmp_path):
    """SIGINT to the process group (what Ctrl-C sends) mid-sweep: exit
    130 with one stderr line that says a rerun resumes; no traceback
    from the CLI or from its workers."""
    ckpt = tmp_path / "ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "conformance", "--graph", "diamond",
         "--payload", "32768", "--seeds", "6", "--jobs", "2", "--checkpoint-dir", str(ckpt)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    try:
        deadline = time.monotonic() + 60
        while not (ckpt / "ckpt").exists() and time.monotonic() < deadline:
            time.sleep(0.05)  # until a run is executing
        os.killpg(proc.pid, signal.SIGINT)
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith("interrupted") and "rerun the same command to resume" in err


def test_unusable_serve_store_rejected_cleanly(tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--stdio", "--store", str(blocker / "store")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use --store") and err.count("\n") == 1



# ---------------------------------------------------------------------------
# --fault-seed semantics (the `or 0` fix)
# ---------------------------------------------------------------------------
def test_fault_seed_zero_overrides_plan_seed(capsys):
    """--fault-seed 0 must be an explicit override, not fall through to
    the plan's inline seed (the old `args.fault_seed or 0` bug)."""
    base = ["conformance", "--seeds", "1", "--graph", "pipeline",
            "--payload", "256", "--fault-plan", "drop=0.3,seed=7"]
    main(base + ["--fault-seed", "0", "--jobs", "1"])
    assert "seed=0 " in capsys.readouterr().out
    main(base + ["--jobs", "1"])  # no override: sweep from the plan's seed
    assert "seed=7 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# observability flags (--obs-level / --sample-interval) and `repro trace`
# ---------------------------------------------------------------------------
def test_quickstart_obs_off_skips_history_compare(capsys):
    assert main(["quickstart", "--obs-level", "off"]) == 0
    out = capsys.readouterr().out
    assert "history comparison skipped" in out
    assert "matches reference" not in out


def test_quickstart_sample_interval_attaches_sampler(capsys):
    assert main(["quickstart", "--obs-level", "series",
                 "--sample-interval", "200"]) == 0
    out = capsys.readouterr().out
    assert "sampler:" in out and "interval=200" in out


def test_sample_interval_without_series_rejected_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quickstart", "--obs-level", "off", "--sample-interval", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--sample-interval" in err and "Traceback" not in err


def test_unknown_obs_level_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["quickstart", "--obs-level", "verbose"])


def test_decode_counters_skips_figure10(capsys):
    rc = main(["decode", "--width", "48", "--height", "32", "--frames", "3",
               "--gop-n", "3", "--gop-m", "1", "--obs-level", "counters"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "architecture view" in out
    assert "Figure 10 traces skipped" in out
    assert "bottleneck per frame type" not in out


def test_conformance_obs_off_checks_completion_only(capsys):
    assert main(CONF_FAST + ["--obs-level", "off", "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "completed (histories not recorded)" in out
    assert "byte-identical" not in out


def test_trace_command_writes_perfetto_json(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--workload", "quickstart",
                 "--out", str(out_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "trace event(s) recorded" in out
    assert "0 error(s), 0 warning(s)" in out
    trace = json.loads(out_path.read_text())
    assert trace["traceEvents"]
    assert trace["otherData"]["obs_level"] == "full"


def test_trace_command_capacity_bounds_events(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "--workload", "quickstart", "--capacity", "32",
                 "--out", str(out_path)]) == 0
    trace = json.loads(out_path.read_text())
    assert trace["otherData"]["dropped"] > 0
    spans = [e for e in trace["traceEvents"] if e["ph"] in ("X", "i", "B")]
    assert len(spans) == 32


def test_trace_command_bad_capacity_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--capacity", "0"])
    assert exc.value.code == 2
    assert "--capacity" in capsys.readouterr().err


def test_trace_command_unwritable_out_rejected(tmp_path, capsys):
    bad = tmp_path / "no" / "dir" / "t.json"
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--workload", "quickstart", "--out", str(bad)])
    assert exc.value.code == 2
    assert "cannot write --out" in capsys.readouterr().err
