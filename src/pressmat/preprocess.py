"""Spatio-temporal denoising: spatial median per frame, then temporal Gaussian.

The median window shrinks at mat edges (no synthetic padding enters a median),
the temporal filter reflects at session ends. Sessions are maximal runs of
frames sharing (subject, posture) with consecutive frame indices; an index gap
marks a recording boundary and the temporal filter never smooths across it.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve1d

from .dataset import Corpus, PressureFrame


@lru_cache(maxsize=8)
def _median_plan(rows: int, cols: int, window: int):
    """Tap indices into the flat NaN-padded frame, and the median positions.

    Row i of ``taps`` lists cell i's window x window neighbours in the
    ``(rows + window - 1, cols + window - 1)`` padded frame. Once the taps are
    sorted (NaN last), the median of the clipped window is the mean of the
    sorted taps at ``lo`` and ``hi``, the middle positions of its real count.
    """
    half = window // 2
    padded_cols = cols + 2 * half
    offsets = (np.arange(window)[:, None] * padded_cols + np.arange(window)).ravel()
    corners = (np.arange(rows)[:, None] * padded_cols + np.arange(cols)).ravel()
    taps = corners[:, None] + offsets

    def span(n):
        i = np.arange(n)
        return np.minimum(i + half, n - 1) - np.maximum(i - half, 0) + 1

    count = (span(rows)[:, None] * span(cols)).reshape(-1, 1)
    lo, hi = (count - 1) // 2, count // 2
    for a in (taps, lo, hi):
        a.flags.writeable = False
    return taps, lo, hi


def median_filter(frame: PressureFrame, window: int = 3) -> PressureFrame:
    """Replace each cell by the median of its window x window neighborhood.

    Neighborhoods are clipped to the grid, so border cells use fewer values;
    even-sized neighborhoods average the two middle order statistics. The
    median is the exact order statistic, taken from one sort of each cell's
    taps in a NaN-padded copy of the frame.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"median window must be odd and positive, got {window}")
    if window == 1:
        return frame

    taps, lo, hi = _median_plan(frame.grid.rows, frame.grid.cols, window)
    padded = np.pad(frame.values, window // 2, mode="constant", constant_values=np.nan)
    s = padded.ravel()[taps]
    s.sort(axis=1)
    out = (np.take_along_axis(s, lo, axis=1) + np.take_along_axis(s, hi, axis=1)) / 2.0
    out = np.clip(out.reshape(frame.values.shape), 0.0, frame.grid.sensor_ceiling)
    return replace(frame, values=out)


def gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    """Discrete Gaussian taps of the given length, normalized to sum 1."""
    if window < 1:
        raise ValueError(f"gaussian window must be positive, got {window}")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    offsets = np.arange(window, dtype=np.float64) - (window - 1) / 2.0
    k = np.exp(-0.5 * (offsets / sigma) ** 2)
    return k / k.sum()


def temporal_gaussian(
    session: list[PressureFrame], window: int = 5, sigma: float = 1.0
) -> list[PressureFrame]:
    """Smooth each sensor along time within one recording session.

    The frames must form one run of :func:`split_sessions`, else the error
    names the two frame keys where it breaks. Reflection at the ends lets a
    constant session (and a single frame) pass through unchanged.
    """
    if not session:
        raise ValueError("session must contain at least one frame")
    runs = split_sessions(session)
    if len(runs) > 1:
        raise ValueError(f"not one session: {runs[0][-1].key} -> {runs[1][0].key}")

    kernel = gaussian_kernel(window, sigma)
    stack = np.stack([f.values for f in session])  # (T, R, C)
    smoothed = convolve1d(stack, kernel, axis=0, mode="reflect")
    smoothed = np.clip(smoothed, 0.0, session[0].grid.sensor_ceiling)
    return [replace(f, values=smoothed[t]) for t, f in enumerate(session)]


def split_sessions(frames) -> list[list[PressureFrame]]:
    """Split frames into maximal runs in which each frame follows the one
    before: same subject and posture, frame index one higher."""
    sessions: list[list[PressureFrame]] = []
    for f in frames:
        if sessions and sessions[-1][-1].key == (f.subject_id, f.posture_id, f.frame_index - 1):
            sessions[-1].append(f)
        else:
            sessions.append([f])
    return sessions


def denoise_corpus(
    corpus: Corpus,
    median_window: int = 3,
    gaussian_window: int = 5,
    gaussian_sigma: float = 1.0,
) -> Corpus:
    """Full pipeline over a corpus: median first, temporal Gaussian second."""
    filtered = [median_filter(f, median_window) for f in corpus.frames]
    out: list[PressureFrame] = []
    for session in split_sessions(filtered):
        out.extend(temporal_gaussian(session, gaussian_window, gaussian_sigma))
    return replace(corpus, frames=tuple(out))
