"""The 14 canonical per-frame features, including marching-squares isolines.

Canonical order: max, mode, range, entropy, mean, variance, skewness,
kurtosis, nonzero count, three threshold counts, number of isolines, isoline
coordinate sum. Moments are taken over the non-zero cells only; entropy uses a
256-bin histogram over [0, sensor_ceiling] with natural log; threshold counts
use strict inequalities (20 < s < 60, 60 < s < 100, s > 100).

Degenerate conventions (all-zero frame, or zero variance) pin every feature to
a finite value so dropout-heavy frames stay trainable: N=0 gives mean =
variance = skewness = kurtosis = 0, and zero variance gives skewness =
kurtosis = 0.
"""

import csv
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .dataset import FEATURE_COUNT, Corpus, PressureFrame

FEATURE_NAMES = (
    "max",
    "mode",
    "range",
    "entropy",
    "mean",
    "variance",
    "skewness",
    "kurtosis",
    "nonzero_count",
    "count_20_60",
    "count_60_100",
    "count_above_100",
    "num_isolines",
    "isoline_coord_sum",
)
assert len(FEATURE_NAMES) == FEATURE_COUNT

TAU_1, TAU_2, TAU_3 = 20.0, 60.0, 100.0
ENTROPY_BINS = 256
MAX_CONTOUR_LEVELS = 20

FULL_MASK = (True,) * FEATURE_COUNT


def rounded_mode(values: np.ndarray) -> float:
    """Most frequent value after rounding half-up to integers; ties take the smaller."""
    r = np.floor(values + 0.5)
    uniq, counts = np.unique(r, return_counts=True)
    return float(uniq[np.argmax(counts)])


def extract_statistical(frame: PressureFrame) -> np.ndarray:
    """The first 12 features (everything except the two contour features)."""
    v = frame.values.ravel()
    vmax = float(v.max())
    vmin = float(v.min())
    mode = rounded_mode(v)

    nz = v[v != 0]
    n = nz.size
    if n == 0:
        mean = var = skew = kurt = 0.0
    else:
        mean = float(nz.mean())
        d = nz - mean
        var = float(np.mean(d * d))
        if var == 0.0:
            skew = kurt = 0.0
        else:
            sd = math.sqrt(var)
            skew = float(np.mean(d**3)) / sd**3
            kurt = float(np.mean(d**4)) / sd**4

    hist, _ = np.histogram(v, bins=ENTROPY_BINS, range=(0.0, frame.grid.sensor_ceiling))
    p = hist[hist > 0] / v.size
    entropy = float(-(p * np.log(p)).sum())

    c1 = int(np.count_nonzero((v > TAU_1) & (v < TAU_2)))
    c2 = int(np.count_nonzero((v > TAU_2) & (v < TAU_3)))
    c3 = int(np.count_nonzero(v > TAU_3))

    return np.array(
        [vmax, mode, vmax - vmin, entropy, mean, var, skew, kurt,
         float(n), float(c1), float(c2), float(c3)]
    )


# ---------------------------------------------------------------------------
# Contour levels and marching squares
# ---------------------------------------------------------------------------

def _step_ladder():
    """Yield the preferred contour steps: 2, 5, 10, 20, 50, 100, 200, 500, ..."""
    scale = 1.0
    while True:
        yield 2.0 * scale
        yield 5.0 * scale
        yield 10.0 * scale
        scale *= 10.0


def select_contour_levels(frame: PressureFrame) -> np.ndarray:
    """Ascending contour levels: multiples of a preferred step inside (min, max].

    The step is the smallest ladder entry whose 20 multiples cover the value
    range, which caps the level count at 20.
    """
    v = frame.values
    vmin = float(v.min())
    vmax = float(v.max())
    if vmax == vmin:
        return np.empty(0)
    spread = vmax - vmin
    for step in _step_ladder():
        if MAX_CONTOUR_LEVELS * step >= spread:
            break
    k_lo = math.floor(vmin / step) + 1
    while (k_lo - 1) * step > vmin:  # float guard
        k_lo -= 1
    while k_lo * step <= vmin:
        k_lo += 1
    k_hi = math.floor(vmax / step)
    while k_hi * step > vmax:
        k_hi -= 1
    if k_hi < k_lo:
        return np.empty(0)
    return step * np.arange(k_lo, k_hi + 1, dtype=np.float64)


@dataclass(frozen=True)
class Isoline:
    """One polyline at a fixed level; ``points`` columns are (x, y) grid units.

    Closed isolines do not repeat their first vertex, so every crossing point
    appears exactly once.
    """

    points: np.ndarray  # (n, 2)
    closed: bool
    level: float


# Non-saddle marching-squares cases: corner bits are tl=1, tr=2, br=4, bl=8
# (bit set when the corner is strictly above the level); values name the cell
# edges the single segment connects.
_SEGMENT_CASES = {
    1: (("T", "L"),),
    2: (("T", "R"),),
    3: (("L", "R"),),
    4: (("R", "B"),),
    6: (("T", "B"),),
    7: (("L", "B"),),
    8: (("L", "B"),),
    9: (("T", "B"),),
    11: (("R", "B"),),
    12: (("L", "R"),),
    13: (("T", "R"),),
    14: (("T", "L"),),
}


def _edge_point(edge: tuple, values: np.ndarray, level: float) -> tuple[float, float]:
    """Interpolated crossing (x, y) on a grid edge: fraction (c - p1) / (p2 - p1)."""
    kind, r, c = edge
    v1 = values[r, c]
    if kind == "h":
        v2 = values[r, c + 1]
        t = (level - v1) / (v2 - v1)
        return (c + t, float(r))
    v2 = values[r + 1, c]
    t = (level - v1) / (v2 - v1)
    return (float(c), r + t)


def trace_isolines(frame: PressureFrame, level: float) -> list[Isoline]:
    """Marching squares at one level; returns chained polylines.

    Each 2x2 cell contributes segments between edge crossings; a corner counts
    as inside when strictly above the level. Saddle cells (both diagonal
    corners above) are split by comparing the cell's center average against
    the level. Segments are chained into polylines that either close on
    themselves or end on the grid boundary.
    """
    v = frame.values
    vmin = float(v.min())
    vmax = float(v.max())
    if not (vmin < level <= vmax):
        raise ValueError(f"level {level} outside ({vmin}, {vmax}]")

    above = (v > level).astype(np.int8)
    code = (
        above[:-1, :-1]
        + 2 * above[:-1, 1:]
        + 4 * above[1:, 1:]
        + 8 * above[1:, :-1]
    )
    rows, cols = np.nonzero((code != 0) & (code != 15))

    adj: dict[tuple, list] = {}

    def connect(u, v_):
        adj.setdefault(u, []).append(v_)
        adj.setdefault(v_, []).append(u)

    for r, c in zip(rows.tolist(), cols.tolist()):
        k = int(code[r, c])
        edges = {
            "T": ("h", r, c),
            "B": ("h", r + 1, c),
            "L": ("v", r, c),
            "R": ("v", r, c + 1),
        }
        if k in (5, 10):
            center_above = (v[r, c] + v[r, c + 1] + v[r + 1, c] + v[r + 1, c + 1]) / 4.0 > level
            if k == 5:  # tl and br above
                pairs = (("T", "R"), ("B", "L")) if center_above else (("T", "L"), ("R", "B"))
            else:  # tr and bl above
                pairs = (("T", "L"), ("R", "B")) if center_above else (("T", "R"), ("L", "B"))
        else:
            pairs = _SEGMENT_CASES[k]
        for a, b in pairs:
            connect(edges[a], edges[b])

    visited: set = set()
    chains: list[tuple[list, bool]] = []

    def walk(start):
        chain = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = None
            for cand in adj[cur]:
                if cand != prev and cand not in visited:
                    nxt = cand
                    break
            if nxt is None:
                closed = prev is not None and start in adj[cur] and len(chain) > 2
                return chain, closed
            chain.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt

    endpoints = sorted(node for node, nbrs in adj.items() if len(nbrs) == 1)
    for node in endpoints:
        if node not in visited:
            chains.append(walk(node))
    for node in sorted(adj):
        if node not in visited:
            chains.append(walk(node))

    out = []
    for chain, closed in chains:
        pts = np.array([_edge_point(e, v, level) for e in chain])
        out.append(Isoline(points=pts, closed=closed, level=float(level)))
    return out


def extract_contour_features(frame: PressureFrame) -> tuple[int, float]:
    """(total polyline count, sum of x + y over every polyline vertex).

    The sum uses ``math.fsum`` over per-vertex x + y terms, so its value does
    not depend on the order polylines are chained in.
    """
    count = 0
    terms: list[float] = []
    for level in select_contour_levels(frame):
        lines = trace_isolines(frame, level)
        count += len(lines)
        for line in lines:
            terms.extend((line.points[:, 0] + line.points[:, 1]).tolist())
    return count, math.fsum(terms)


def extract_all(frame: PressureFrame, mask: tuple[bool, ...] = FULL_MASK) -> np.ndarray:
    """All 14 features in canonical order; masked entries are NaN markers."""
    if len(mask) != FEATURE_COUNT:
        raise ValueError(f"mask must have {FEATURE_COUNT} entries")
    out = np.full(FEATURE_COUNT, np.nan)
    out[:12] = extract_statistical(frame)
    if mask[12] or mask[13]:
        n_iso, coord_sum = extract_contour_features(frame)
        out[12] = float(n_iso)
        out[13] = coord_sum
    out[~np.asarray(mask, dtype=bool)] = np.nan
    return out


# ---------------------------------------------------------------------------
# Feature tables (the features.csv interface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureTable:
    """Per-frame feature vectors with labels, aligned with corpus frame order."""

    subject_ids: np.ndarray    # (n,) str
    posture_ids: np.ndarray    # (n,) int
    frame_indices: np.ndarray  # (n,) int
    X: np.ndarray              # (n, 14) float, NaN where masked
    bmi: np.ndarray            # (n,) float
    mask: tuple[bool, ...]

    def __post_init__(self):
        n = len(self.subject_ids)
        if not (len(self.posture_ids) == len(self.frame_indices) == len(self.bmi) == n):
            raise ValueError("feature table columns disagree in length")
        if self.X.shape != (n, FEATURE_COUNT):
            raise ValueError(f"X must be (n, {FEATURE_COUNT}), got {self.X.shape}")

    def __len__(self) -> int:
        return len(self.subject_ids)

    @property
    def active_indices(self) -> np.ndarray:
        return np.nonzero(np.asarray(self.mask, dtype=bool))[0]

    def active_matrix(self) -> np.ndarray:
        """The unmasked feature columns, the model-facing input."""
        return self.X[:, self.active_indices]

    def with_feature_dropped(self, feature_index: int) -> "FeatureTable":
        """A copy with one canonical feature masked out (for drop-column runs)."""
        if not self.mask[feature_index]:
            raise ValueError(f"feature {FEATURE_NAMES[feature_index]} already masked")
        mask = tuple(m and i != feature_index for i, m in enumerate(self.mask))
        x = self.X.copy()
        x[:, feature_index] = np.nan
        return FeatureTable(
            subject_ids=self.subject_ids,
            posture_ids=self.posture_ids,
            frame_indices=self.frame_indices,
            X=x,
            bmi=self.bmi,
            mask=mask,
        )


def extract_table(corpus: Corpus) -> FeatureTable:
    """Feature vectors for every frame, in canonical frame order."""
    n = len(corpus.frames)
    x = np.empty((n, FEATURE_COUNT))
    for i, f in enumerate(corpus.frames):
        x[i] = extract_all(f, corpus.feature_mask)
    return FeatureTable(
        subject_ids=np.array([f.subject_id for f in corpus.frames]),
        posture_ids=np.array([f.posture_id for f in corpus.frames], dtype=int),
        frame_indices=np.array([f.frame_index for f in corpus.frames], dtype=int),
        X=x,
        bmi=np.array([corpus.bmi_of(f.subject_id) for f in corpus.frames]),
        mask=corpus.feature_mask,
    )


FEATURES_CSV_HEADER = (
    ["subject_id", "posture_id", "frame_index"]
    + [f"f{i}" for i in range(FEATURE_COUNT)]
    + ["bmi"]
)


def save_feature_table(table: FeatureTable, path: str) -> None:
    """Write features.csv atomically; masked features become empty cells."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".features-", dir=parent, text=True)
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(FEATURES_CSV_HEADER)
            for i in range(len(table)):
                row = [
                    str(table.subject_ids[i]),
                    str(int(table.posture_ids[i])),
                    str(int(table.frame_indices[i])),
                ]
                row += [
                    "" if np.isnan(v) else repr(float(v)) for v in table.X[i]
                ]
                row.append(repr(float(table.bmi[i])))
                w.writerow(row)
        os.replace(tmp, path)
    except Exception:
        os.unlink(tmp)
        raise


def load_feature_table(path: str) -> FeatureTable:
    """Read features.csv; a uniformly empty feature column is a masked feature."""
    subject_ids: list[str] = []
    posture_ids: list[int] = []
    frame_indices: list[int] = []
    rows: list[list[float]] = []
    bmi: list[float] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FEATURES_CSV_HEADER:
            raise ValueError(f"{path}: line 1: bad features.csv header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(FEATURES_CSV_HEADER):
                raise ValueError(f"{path}: line {lineno}: wrong field count")
            subject_ids.append(row[0])
            posture_ids.append(int(row[1]))
            frame_indices.append(int(row[2]))
            rows.append([float(c) if c != "" else np.nan for c in row[3:-1]])
            bmi.append(float(row[-1]))
    x = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, FEATURE_COUNT))
    )
    if len(x):
        nan_cols = np.isnan(x).any(axis=0)
        full_nan = np.isnan(x).all(axis=0)
        if np.any(nan_cols & ~full_nan):
            bad = [FEATURE_NAMES[i] for i in np.nonzero(nan_cols & ~full_nan)[0]]
            raise ValueError(f"{path}: features {bad} are only partially present")
        mask = tuple(bool(b) for b in ~full_nan)
    else:
        mask = FULL_MASK
    return FeatureTable(
        subject_ids=np.array(subject_ids),
        posture_ids=np.array(posture_ids, dtype=int),
        frame_indices=np.array(frame_indices, dtype=int),
        X=x,
        bmi=np.array(bmi),
        mask=mask,
    )
