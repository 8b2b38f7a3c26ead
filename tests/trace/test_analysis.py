"""Unit tests for the Figure 10 analysis helpers, on synthetic data."""

import os
import subprocess
import sys

import pytest

from repro.core import CoprocessorSpec, EclipseSystem, SystemParams
from repro.kahn import ApplicationGraph, TaskNode
from repro.kahn.library import ConsumerKernel, ProducerKernel
from repro.media.codec import CodecParams
from repro.media.gop import FramePlan, FrameType
from repro.sim import Series
from repro.trace.analysis import bottleneck_by_frame_type
from repro.trace.sampler import Sampler


def test_bottleneck_by_frame_type_picks_max():
    service = {
        "a": {"I": 10.0, "P": 5.0, "B": 1.0},
        "b": {"I": 7.0, "P": 9.0, "B": 2.0},
        "c": {"I": 1.0, "P": 2.0, "B": 8.0},
    }
    assert bottleneck_by_frame_type(service) == {"I": "a", "P": "b", "B": "c"}


def test_bottleneck_handles_missing_types():
    service = {"a": {"I": 3.0}, "b": {"I": 1.0, "P": 4.0}}
    out = bottleneck_by_frame_type(service)
    assert out["I"] == "a"
    assert out["P"] == "b"


#: prints the frame types of a three-type bottleneck map, in map order
_ORDER_PROBE = (
    "from repro.trace.analysis import bottleneck_by_frame_type\n"
    "print(list(bottleneck_by_frame_type({'rlsq': {'I': 3.0, 'P': 1.0, 'B': 1.0},\n"
    "    'idct': {'I': 1.0, 'P': 2.0, 'B': 1.0}, 'mc': {'I': 0.5, 'P': 1.0, 'B': 2.0}})))\n"
)


def test_bottleneck_lists_types_in_first_seen_order_under_every_hash_seed():
    """``repro decode`` prints this map, so its order must not follow
    string hashing: one interpreter per PYTHONHASHSEED 0-7."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    procs = [
        subprocess.Popen([sys.executable, "-c", _ORDER_PROBE], stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)))
        for seed in range(8)
    ]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 8
    assert outputs == ["['I', 'P', 'B']\n"] * 8


def make_sampled_system(payload=b"z" * 4096, interval=100):
    g = ApplicationGraph("s")
    g.add_task(TaskNode("src", lambda: ProducerKernel(payload, chunk=64), ProducerKernel.PORTS))
    g.add_task(TaskNode("dst", lambda: ConsumerKernel(chunk=64), ConsumerKernel.PORTS))
    g.connect("src.out", "dst.in", buffer_size=256)
    system = EclipseSystem([CoprocessorSpec("p"), CoprocessorSpec("c")], SystemParams())
    system.configure(g)
    sampler = Sampler(system, interval=interval)
    return system, sampler


def test_sampler_memory_is_bounded():
    """§5.4: sampling at intervals bounds measurement memory — the
    series length is ~cycles/interval regardless of event rates."""
    system, sampler = make_sampled_system(interval=100)
    result = system.run()
    for series in sampler.stream_fill.values():
        assert len(series) <= result.cycles // 100 + 2


def test_sampler_interval_tradeoff():
    """Finer intervals mean more samples (the paper's CPU balances
    interval duration against measurement duration)."""
    _sys1, fine = make_sampled_system(interval=50)
    _sys1.run()
    _sys2, coarse = make_sampled_system(interval=400)
    _sys2.run()
    key = ("s_src_out", "dst")
    assert len(fine.stream_fill[key]) > 3 * len(coarse.stream_fill[key])


def test_frame_boundaries_empty_when_no_progress():
    system, sampler = make_sampled_system()
    # before running: no samples, no boundaries
    assert sampler.frame_boundaries("src", 10) == {}
