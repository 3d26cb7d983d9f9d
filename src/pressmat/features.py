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

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .dataset import (  # features.FEATURE_NAMES stays importable
    BMI_BAND, FEATURE_COUNT, FEATURE_NAMES, FRAME_KEY, FULL_MASK, Corpus, PressureFrame,
    check_mask, read_csv, write_csv,
)

TAU_1, TAU_2, TAU_3 = 20.0, 60.0, 100.0
ENTROPY_BINS = 256
MAX_CONTOUR_LEVELS = 20


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
    for step in _step_ladder():
        if MAX_CONTOUR_LEVELS * step >= vmax - vmin:
            break
    # the quotients may round by an ulp either way, so the range holds one
    # candidate more at each end and the comparisons decide
    levels = step * np.arange(math.floor(vmin / step), math.floor(vmax / step) + 2,
                              dtype=np.float64)
    return levels[(levels > vmin) & (levels <= vmax)]


@dataclass(frozen=True)
class Isoline:
    """One polyline at a fixed level; ``points`` columns are (x, y) grid units.

    Closed isolines do not repeat their first vertex, so every crossing point
    appears exactly once.
    """

    points: np.ndarray  # (n, 2)
    closed: bool
    level: float


def trace_isolines(frame: PressureFrame, level: float) -> list[Isoline]:
    """Marching squares at one level; returns chained polylines.

    A corner counts as inside when strictly above the level. The crossing
    graph has one node per crossed grid edge (its two ends on opposite sides
    of the level), numbered horizontal edges first, then vertical ones, each
    row-major. Every 2x2 cell that is neither all inside nor all outside has
    two crossed edges and joins them; a saddle cell (diagonal corners inside)
    has four, paired by comparing the cell's centre average against the
    level. So each node has at most two neighbours, one per cell it borders,
    and the graph is a set of disjoint chains and cycles. Chains are walked
    from their boundary ends in node order, then the remaining cycles from
    their lowest node. A node's point is the linear interpolation of the
    level along its edge.
    """
    v = frame.values
    vmin = float(v.min())
    vmax = float(v.max())
    if not (vmin < level <= vmax):
        raise ValueError(f"level {level} outside ({vmin}, {vmax}]")
    rows, cols = v.shape
    if rows < 2 or cols < 2:
        return []

    # Edges are indexed by their top-left corner on a grid one row and one
    # column wider than the frame; the padding holds no edge, so a neighbour
    # looked up past the border (negative indices wrap to the last row) is -1.
    w = cols + 1
    above = v > level
    h_cross = np.zeros((rows + 1, w), dtype=bool)
    np.not_equal(above[:, :-1], above[:, 1:], out=h_cross[:rows, :cols - 1])
    v_cross = np.zeros((rows + 1, w), dtype=bool)
    np.not_equal(above[:-1], above[1:], out=v_cross[:rows - 1, :cols])
    hp = np.flatnonzero(h_cross)
    vp = np.flatnonzero(v_cross)
    nh = hp.size
    n = nh + vp.size
    h_id = np.full(h_cross.size, -1)
    h_id[hp] = np.arange(nh)
    v_id = np.full(v_cross.size, -1)
    v_id[vp] = np.arange(nh, n)

    # A non-saddle cell has exactly two crossed edges, so a node's partner in
    # it is the max of the cell's other three edge ids. nb0 comes from the
    # earlier cell in row-major order (above a horizontal edge, left of a
    # vertical one), nb1 from the later one.
    nb0 = np.concatenate((
        np.maximum(np.maximum(h_id[hp - w], v_id[hp - w]), v_id[hp - w + 1]),
        np.maximum(np.maximum(h_id[vp - 1], h_id[vp + w - 1]), v_id[vp - 1]),
    ))
    nb1 = np.concatenate((
        np.maximum(np.maximum(h_id[hp + w], v_id[hp]), v_id[hp + 1]),
        np.maximum(np.maximum(h_id[vp], h_id[vp + w]), v_id[vp + 1]),
    ))
    flat = v.ravel()
    # a cell whose top, bottom and left edges cross also crosses its right one
    saddle = h_cross[:-1] & h_cross[1:] & v_cross[:-1]
    if saddle.any():
        cell = np.flatnonzero(saddle)
        top, bottom = h_id[cell], h_id[cell + w]
        left, right = v_id[cell], v_id[cell + 1]
        tl = cell - cell // w  # index of the cell's top-left corner in ``flat``
        centre = (flat[tl] + flat[tl + 1] + flat[tl + cols] + flat[tl + cols + 1]) / 4.0 > level
        # top-right and bottom-left pairs when the top-left corner is on the
        # centre's side, else top-left and bottom-right pairs
        tr = above.ravel()[tl] == centre
        nb1[top] = np.where(tr, right, left)
        nb0[bottom] = np.where(tr, left, right)
        nb1[left] = np.where(tr, bottom, top)
        nb0[right] = np.where(tr, top, bottom)

    hr = hp // w
    vr = vp // w
    hq = hp - hr  # index of the edge's first end in ``flat``
    vq = vp - vr
    points = np.empty((n, 2))
    x1 = flat[hq]
    points[:nh, 0] = (hp - hr * w) + (level - x1) / (flat[hq + 1] - x1)
    points[:nh, 1] = hr
    y1 = flat[vq]
    points[nh:, 0] = vp - vr * w
    points[nh:, 1] = vr + (level - y1) / (flat[vq + cols] - y1)

    ends = np.flatnonzero((nb0 < 0) | (nb1 < 0)).tolist()
    nb0 = nb0.tolist()
    nb1 = nb1.tolist()
    visited = [False] * n
    out = []
    for start in ends + list(range(n)):
        if visited[start]:
            continue
        chain = [start]
        visited[start] = True
        cur = start
        while True:  # the previous node is visited: step to the unvisited neighbour
            nxt = nb0[cur]
            if nxt < 0 or visited[nxt]:
                nxt = nb1[cur]
                if nxt < 0 or visited[nxt]:
                    break
            chain.append(nxt)
            visited[nxt] = True
            cur = nxt
        closed = len(chain) > 2 and start in (nb0[cur], nb1[cur])
        out.append(Isoline(points=points[chain], closed=closed, level=float(level)))
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
    mask = check_mask(mask)
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

    def bmi_by_subject(self) -> dict[str, float]:
        """Each subject's BMI, taken from its first row."""
        sids, first = np.unique(self.subject_ids, return_index=True)
        return {sid: float(self.bmi[i]) for sid, i in zip(sids.tolist(), first)}

    def bmi_classes(self) -> np.ndarray:
        """Each row's BMI class: ``baselines.build_bmi_classes`` over every
        subject's BMI, whose ValueError propagates."""
        class_map = baselines.build_bmi_classes(self.bmi_by_subject())
        return np.array([class_map[s] for s in self.subject_ids.tolist()], dtype=int)

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
        return replace(self, X=x, mask=mask)


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
        bmi=np.array([corpus.subjects[f.subject_id].bmi for f in corpus.frames]),
        mask=corpus.feature_mask,
    )


FEATURES_CSV_HEADER = FRAME_KEY + [f"f{i}" for i in range(FEATURE_COUNT)] + ["bmi"]


def save_feature_table(table: FeatureTable, path: str) -> None:
    """Write features.csv atomically, masked features as empty cells; the mask
    must pass :func:`dataset.check_mask`, as the loader requires."""
    check_mask(table.mask)
    rows = zip(table.subject_ids, table.posture_ids, table.frame_indices, table.X, table.bmi)
    write_csv(path, FEATURES_CSV_HEADER, (
        [str(sid), str(int(posture)), str(int(index)),
         *("" if np.isnan(v) else repr(float(v)) for v in x), repr(float(bmi))]
        for sid, posture, index, x, bmi in rows))


_FeatureRow = namedtuple("_FeatureRow", FRAME_KEY + ["values", "bmi"])


def load_feature_table(path: str) -> FeatureTable:
    """Read features.csv; a uniformly empty feature column is a masked feature.

    The first data row's mask must pass :func:`dataset.check_mask` and every row
    must leave the same cells empty; every non-empty feature cell must be finite,
    every BMI inside ``BMI_BAND``, all of a subject's rows must state the same
    BMI, and no ``(subject_id, posture_id, frame_index)`` key may repeat.
    """
    lo, hi = BMI_BAND
    first_bmi: dict[str, tuple[float, int]] = {}
    first: dict = {}  # the first data row's empty cells, line and mask

    def parse(row, line):
        sid, posture, index = row[0], int(row[1]), int(row[2])
        cells = row[3:-1]
        empty = [c == "" for c in cells]
        if not first:
            first.update(empty=empty, line=line, mask=check_mask([not e for e in empty]))
        if empty != first["empty"]:
            bad = [n for n, e, want in zip(FEATURE_NAMES, empty, first["empty"]) if e != want]
            raise ValueError(f"features {bad} are only partially present: "
                             f"empty cells differ from line {first['line']}")
        values = [float(c) if c != "" else np.nan for c in cells]
        if not all(map(math.isfinite, values)):  # empty (masked) cells are NaN
            for c, v in zip(cells, values):
                if c != "" and not math.isfinite(v):
                    raise ValueError(f"non-finite feature cell {c!r}")
        b = float(row[-1])
        if not (lo < b < hi):
            raise ValueError(f"bmi {row[-1]!r} outside sanity band ({lo:g}, {hi:g})")
        prev = first_bmi.setdefault(sid, (b, line))
        if b != prev[0]:
            raise ValueError(
                f"subject {sid!r} bmi {row[-1]!r} differs from {prev[0]!r} on line {prev[1]}"
            )
        return _FeatureRow(sid, posture, index, values, b)

    rows = read_csv(path, FEATURES_CSV_HEADER, parse, FRAME_KEY)
    sids, postures, indices, x, bmi = zip(*rows) if rows else [()] * 5
    x = np.asarray(x, dtype=np.float64).reshape(-1, FEATURE_COUNT)
    return FeatureTable(
        subject_ids=np.array(sids),
        posture_ids=np.array(postures, dtype=int),
        frame_indices=np.array(indices, dtype=int),
        X=x,
        bmi=np.array(bmi),
        mask=first.get("mask", FULL_MASK),
    )
