"""Analysis of sampled runs: the Figure 10 bottleneck attribution.

The paper's Figure 10 discussion concludes that "the overall
performance is constrained by a different task for each type of MPEG
frame": RLSQ on I frames, DCT on P frames, MC on B frames.  These
helpers compute that attribution from a :class:`repro.trace.Sampler`:

* per-frame-type *service time* — busy cycles per macroblock of each
  task while it was processing that frame, the direct "who is slowest"
  measure;
* per-frame-type *buffer filling* — the mean available data in each
  task's input stream during each frame, Figure 10's plotted signal.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.media.codec import CodecParams
from repro.media.gop import FramePlan
from repro.trace.sampler import Sampler

__all__ = [
    "per_frame_type_service",
    "per_frame_type_fill",
    "bottleneck_by_frame_type",
]


def per_frame_type_service(
    sampler: Sampler,
    plans: List[FramePlan],
    mbs_per_frame: int,
    task_to_coprocessor: Mapping[str, str],
) -> Dict[str, Dict[str, float]]:
    """Mean busy cycles per macroblock, per task, per frame type.

    Frame boundaries are taken from each task's own progress series
    (sampled completed-step counts); busy time comes from the sampled
    utilization of the coprocessor the task runs on.  With one task
    per coprocessor (the decode mapping) the attribution is exact.
    """
    out: Dict[str, Dict[str, float]] = {}
    for task, cop in task_to_coprocessor.items():
        steps = sampler.task_steps[task]
        util = sampler.utilization[cop]
        interval = sampler.interval
        busy_cum: List[float] = []
        acc = 0.0
        for v in util.values:
            acc += v * interval
            busy_cum.append(acc)
        n = min(len(busy_cum), len(steps))
        per_type: Dict[str, List[float]] = defaultdict(list)
        frame = 0
        last_idx = 0
        for i in range(n):
            if steps.values[i] >= (frame + 1) * mbs_per_frame:
                per_type[plans[frame].frame_type.value].append(
                    (busy_cum[i] - busy_cum[last_idx]) / mbs_per_frame
                )
                frame += 1
                last_idx = i
                if frame >= len(plans):
                    break
        out[task] = {t: float(np.mean(v)) for t, v in per_type.items()}
    return out


def per_frame_type_fill(
    sampler: Sampler,
    plans: List[FramePlan],
    mbs_per_frame: int,
    streams: Mapping[str, Tuple[str, str]],
    progress_task: str = "vld",
) -> Dict[str, Dict[str, float]]:
    """Mean buffer filling per stream per frame type (Figure 10's
    series, aggregated).  ``streams`` maps label -> (stream, consumer)
    keys of ``sampler.stream_fill``."""
    marks = sampler.frame_boundaries(progress_task, mbs_per_frame)
    bounds = [0] + [marks[i] for i in sorted(marks)]
    out: Dict[str, Dict[str, float]] = {}
    for label, key in streams.items():
        series = sampler.stream_fill[key]
        per_type: Dict[str, List[float]] = defaultdict(list)
        for i, plan in enumerate(plans):
            hi = bounds[i + 1] if i + 1 < len(bounds) else (series.times[-1] + 1 if len(series) else 0)
            window = series.window(bounds[i], hi)
            if len(window):
                per_type[plan.frame_type.value].append(window.mean())
        out[label] = {t: float(np.mean(v)) for t, v in per_type.items()}
    return out


def bottleneck_by_frame_type(
    service: Mapping[str, Mapping[str, float]]
) -> Dict[str, str]:
    """The slowest (highest service time) task per frame type — the
    paper's 'constrained by' attribution."""
    out: Dict[str, str] = {}
    # first-seen order (I, P, B on a decode): a set would list the types
    # in string-hash order, which changes with PYTHONHASHSEED
    for t in dict.fromkeys(t for per in service.values() for t in per):
        out[t] = max(
            (task for task in service if t in service[task]),
            key=lambda task: service[task][t],
        )
    return out
