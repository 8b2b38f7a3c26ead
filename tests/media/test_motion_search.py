"""Full-search motion estimation against the per-candidate search.

``estimate`` fetches the edge-clamped search window once and reduces
every integer candidate's SAD over it.  The reference below is the
search it replaced: one clamped patch fetch and one SAD per candidate
in raster order, a strict ``<``, the zero vector first.  The two must
agree on vector and cost everywhere, frame borders and SAD ties
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.motion import MB, MotionVector, _clamped_patch, estimate, predict_block, sad


def clamped_patch_reference(frame, y, x, h, w):
    """Edge clamping by index arithmetic on every row and column."""
    hh, ww = frame.shape
    ys = np.clip(np.arange(y, y + h), 0, hh - 1)
    xs = np.clip(np.arange(x, x + w), 0, ww - 1)
    return frame[np.ix_(ys, xs)]


def estimate_reference(current, reference, mb_y, mb_x, search_range, half_pel):
    """Per-candidate full search, then the +-1 half-pel refinement."""
    target = current[mb_y : mb_y + MB, mb_x : mb_x + MB]
    best_vec = MotionVector(0, 0)
    best_cost = sad(target, clamped_patch_reference(reference, mb_y, mb_x, MB, MB))
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            if dy == 0 and dx == 0:
                continue
            patch = clamped_patch_reference(reference, mb_y + dy, mb_x + dx, MB, MB)
            cost = sad(target, patch)
            if cost < best_cost:
                best_cost = cost
                best_vec = MotionVector(dy, dx)
    if not half_pel:
        return best_vec, best_cost
    best_vec = MotionVector(2 * best_vec.dy, 2 * best_vec.dx, half_pel=True)
    refined_vec, refined_cost = best_vec, best_cost
    for hdy in (-1, 0, 1):
        for hdx in (-1, 0, 1):
            if hdy == 0 and hdx == 0:
                continue
            cand = MotionVector(best_vec.dy + hdy, best_vec.dx + hdx, half_pel=True)
            cost = sad(target, predict_block(reference, mb_y, mb_x, MB, cand).astype(np.int32))
            if cost < refined_cost:
                refined_cost = cost
                refined_vec = cand
    return refined_vec, refined_cost


def _plane(rng, kind, shape):
    if kind == "random":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "flat":
        return np.full(shape, rng.integers(0, 256), dtype=np.uint8)
    # two or three levels: many candidates share one SAD
    levels = rng.choice(256, size=rng.integers(2, 4), replace=False).astype(np.uint8)
    return levels[rng.integers(0, len(levels), shape)]


@st.composite
def search_cases(draw):
    height, width = draw(st.integers(MB, 64)), draw(st.integers(MB, 64))
    # the frame's first and last macroblock positions, or anywhere between
    mb_y = draw(st.sampled_from([0, height - MB]) | st.integers(0, height - MB))
    mb_x = draw(st.sampled_from([0, width - MB]) | st.integers(0, width - MB))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "flat", "levels"]))
    current = _plane(rng, kind, (height, width))
    reference = _plane(rng, kind, (height, width))
    return current, reference, mb_y, mb_x


@settings(max_examples=300, deadline=None)
@given(case=search_cases(), search_range=st.integers(0, 7), half_pel=st.booleans())
def test_estimate_matches_per_candidate_search(case, search_range, half_pel):
    current, reference, mb_y, mb_x = case
    expected = estimate_reference(current, reference, mb_y, mb_x, search_range, half_pel)
    assert estimate(current, reference, mb_y, mb_x, search_range, half_pel) == expected


def test_estimate_tie_keeps_first_candidate_in_raster_order():
    # constant along anti-diagonals: every candidate with dy + dx == 1
    # matches exactly, and (-1, +2) comes first in raster order
    yy, xx = np.mgrid[0:48, 0:48]
    ref = ((yy + xx) * 5 % 256).astype(np.uint8)
    cur = np.roll(ref, -1, axis=1)
    assert estimate(cur, ref, 16, 16, search_range=2) == (MotionVector(-1, 2), 0)
    assert estimate_reference(cur, ref, 16, 16, 2, False) == (MotionVector(-1, 2), 0)


FRAME = np.arange(20 * 24, dtype=np.uint8).reshape(20, 24)


@pytest.mark.parametrize(
    "y, x, h, w",
    [
        (0, 0, 16, 16),  # inside, at the origin
        (4, 8, 16, 16),  # inside, touching the bottom-right corner
        (2, 3, 5, 7),  # inside
        (-3, 2, 16, 16),  # over the top edge
        (6, 12, 16, 16),  # over the bottom and right edges
        (-5, -5, 30, 34),  # larger than the frame
        (40, -30, 4, 4),  # wholly outside
    ],
)
def test_clamped_patch_matches_index_clamping(y, x, h, w):
    frame = FRAME.copy()
    patch = _clamped_patch(frame, y, x, h, w)
    expected = clamped_patch_reference(frame, y, x, h, w)
    assert patch.dtype == frame.dtype
    assert np.array_equal(patch, expected)
    assert not np.shares_memory(patch, frame)
    patch[...] = 0
    assert np.array_equal(frame, FRAME)
