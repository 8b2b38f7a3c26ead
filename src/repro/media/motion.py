"""Block motion estimation and compensation.

Full-search block matching over a configurable range on 16x16 luma
macroblocks (SAD criterion), plus the prediction builders for P
(one reference) and B (two references, averaged) macroblocks.  Chroma
uses halved motion vectors on 8x8 blocks (4:2:0).

This is the functional model of the first instance's MC/ME coprocessor
(paper §6) — in hardware it is the unit with a dedicated off-chip
connection for reference-frame access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["MotionVector", "estimate", "predict_block", "predict_mb", "sad"]

MB = 16  # luma macroblock size


@dataclass(frozen=True)
class MotionVector:
    """Motion vector (dy, dx) in luma pixels; integer-pel by default.

    Half-pel mode (MPEG-2's finer grid) stores vectors in *half-pel
    units* with :attr:`half_pel` set; prediction then bilinearly
    interpolates with MPEG's round-half-up integer arithmetic."""

    dy: int
    dx: int
    half_pel: bool = False

    def halved(self) -> "MotionVector":
        """Chroma vector for 4:2:0 (integer division toward zero)."""
        return MotionVector(int(self.dy / 2), int(self.dx / 2), self.half_pel)


def sad(a: np.ndarray, b: np.ndarray) -> int:
    """Sum of absolute differences."""
    return int(np.abs(a.astype(np.int32) - b.astype(np.int32)).sum())


def _clamped_patch(frame: np.ndarray, y: int, x: int, h: int, w: int) -> np.ndarray:
    """Patch with edge-clamped coordinates (motion over frame borders).

    Always a fresh array: a plain slice copy when the patch lies inside
    the frame, clamped fancy indexing otherwise."""
    hh, ww = frame.shape
    if 0 <= y and y + h <= hh and 0 <= x and x + w <= ww:
        return frame[y : y + h, x : x + w].copy()
    ys = np.clip(np.arange(y, y + h), 0, hh - 1)
    xs = np.clip(np.arange(x, x + w), 0, ww - 1)
    return frame[np.ix_(ys, xs)]


def estimate(
    current: np.ndarray,
    reference: np.ndarray,
    mb_y: int,
    mb_x: int,
    search_range: int = 4,
    half_pel: bool = False,
) -> Tuple[MotionVector, int]:
    """Block-matching ME for the macroblock at (mb_y, mb_x) luma pixels.

    Full search over +-search_range integer positions; with
    ``half_pel``, a +-1 half-pel refinement around the integer winner
    (the classic two-stage search).  Returns the best (vector, SAD);
    the zero vector wins ties — deterministic and compression-friendly.

    The integer search fetches the edge-clamped search window once and
    reduces every candidate's SAD in one pass: each candidate patch is
    a sub-window of that region, clamped exactly as if fetched alone.
    """
    r = search_range
    target = current[mb_y : mb_y + MB, mb_x : mb_x + MB].astype(np.int32)
    region = _clamped_patch(reference, mb_y - r, mb_x - r, MB + 2 * r, MB + 2 * r)
    windows = sliding_window_view(region.astype(np.int32), (MB, MB))
    costs = np.abs(windows - target).sum(axis=(2, 3))
    # the first minimum in raster order (dy, then dx) is what a raster
    # scan with a strict < keeps; the zero vector wins any tie with it
    best = int(costs.argmin())
    best_cost = int(costs.flat[best])
    if best_cost == costs[r, r]:
        best_vec = MotionVector(0, 0)
    else:
        best_vec = MotionVector(best // (2 * r + 1) - r, best % (2 * r + 1) - r)
    if not half_pel:
        return best_vec, best_cost
    # half-pel refinement around the integer winner
    best_vec = MotionVector(2 * best_vec.dy, 2 * best_vec.dx, half_pel=True)
    refined_vec, refined_cost = best_vec, best_cost
    for hdy in (-1, 0, 1):
        for hdx in (-1, 0, 1):
            if hdy == 0 and hdx == 0:
                continue
            cand = MotionVector(best_vec.dy + hdy, best_vec.dx + hdx, half_pel=True)
            pred = predict_block(reference, mb_y, mb_x, MB, cand)
            cost = sad(target, pred.astype(np.int32))
            if cost < refined_cost:
                refined_cost = cost
                refined_vec = cand
    return refined_vec, refined_cost


def predict_block(
    reference: np.ndarray, y: int, x: int, size: int, vec: MotionVector
) -> np.ndarray:
    """Motion-compensated prediction patch (edge-clamped).

    Half-pel vectors interpolate bilinearly with MPEG-2's integer
    rounding: ``//2 +1`` for the 1-D halves, ``//4 +2`` for the 2-D
    quarter position — exact integer arithmetic, so predictions stay
    bit-reproducible everywhere."""
    if not vec.half_pel:
        return _clamped_patch(reference, y + vec.dy, x + vec.dx, size, size).astype(np.float64)
    int_dy, frac_y = vec.dy >> 1, vec.dy & 1
    int_dx, frac_x = vec.dx >> 1, vec.dx & 1
    base_y, base_x = y + int_dy, x + int_dx
    p00 = _clamped_patch(reference, base_y, base_x, size, size).astype(np.int32)
    if not frac_y and not frac_x:
        return p00.astype(np.float64)
    if frac_y and not frac_x:
        p10 = _clamped_patch(reference, base_y + 1, base_x, size, size).astype(np.int32)
        return ((p00 + p10 + 1) >> 1).astype(np.float64)
    if frac_x and not frac_y:
        p01 = _clamped_patch(reference, base_y, base_x + 1, size, size).astype(np.int32)
        return ((p00 + p01 + 1) >> 1).astype(np.float64)
    p10 = _clamped_patch(reference, base_y + 1, base_x, size, size).astype(np.int32)
    p01 = _clamped_patch(reference, base_y, base_x + 1, size, size).astype(np.int32)
    p11 = _clamped_patch(reference, base_y + 1, base_x + 1, size, size).astype(np.int32)
    return ((p00 + p01 + p10 + p11 + 2) >> 2).astype(np.float64)


def predict_mb(
    fwd: Optional[np.ndarray],
    bwd: Optional[np.ndarray],
    y: int,
    x: int,
    size: int,
    fwd_vec: Optional[MotionVector],
    bwd_vec: Optional[MotionVector],
) -> np.ndarray:
    """Prediction for one block: forward, backward, or bidirectional.

    Exactly one of the standard MPEG modes: pass the references and
    vectors that apply; bidirectional averages the two predictions
    (rounded half up, as MPEG does).
    """
    preds = []
    if fwd is not None and fwd_vec is not None:
        preds.append(predict_block(fwd, y, x, size, fwd_vec))
    if bwd is not None and bwd_vec is not None:
        preds.append(predict_block(bwd, y, x, size, bwd_vec))
    if not preds:
        raise ValueError("prediction needs at least one reference+vector")
    if len(preds) == 1:
        return preds[0]
    return np.floor((preds[0] + preds[1] + 1) / 2)
