import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pressmat.dataset import GridSpec
from pressmat.features import (
    FEATURE_NAMES,
    Isoline,
    extract_all,
    extract_contour_features,
    extract_statistical,
    extract_table,
    load_feature_table,
    save_feature_table,
    select_contour_levels,
    trace_isolines,
)
from pressmat.preprocess import denoise_corpus
from pressmat.synthgen import NoiseSpec, generate_corpus

from conftest import make_frame


# ---------------------------------------------------------------------------
# Independent single-pass oracle for the 12 statistical features
# ---------------------------------------------------------------------------

def oracle_statistical(values_2d, ceiling):
    cells = [float(v) for row in np.asarray(values_2d) for v in row]
    vmax = max(cells)
    vmin = min(cells)

    rounded = [math.floor(v + 0.5) for v in cells]
    counts = Counter(rounded)
    top = max(counts.values())
    mode = float(min(v for v, c in counts.items() if c == top))

    nz = [v for v in cells if v != 0.0]
    n = len(nz)
    if n == 0:
        mean = var = skew = kurt = 0.0
    else:
        mean = sum(nz) / n
        var = sum((v - mean) ** 2 for v in nz) / n
        if var == 0.0:
            skew = kurt = 0.0
        else:
            sd = math.sqrt(var)
            skew = (sum((v - mean) ** 3 for v in nz) / n) / sd**3
            kurt = (sum((v - mean) ** 4 for v in nz) / n) / sd**4

    edges = [i * (ceiling / 256) for i in range(257)]
    hist = [0] * 256
    for v in cells:
        b = 255
        for i in range(256):
            if edges[i] <= v < edges[i + 1]:
                b = i
                break
        hist[b] += 1
    total = len(cells)
    entropy = -sum((c / total) * math.log(c / total) for c in hist if c)

    c1 = sum(1 for v in cells if 20.0 < v < 60.0)
    c2 = sum(1 for v in cells if 60.0 < v < 100.0)
    c3 = sum(1 for v in cells if v > 100.0)

    return [vmax, mode, vmax - vmin, entropy, mean, var, skew, kurt,
            float(n), float(c1), float(c2), float(c3)]


class TestStatisticalFeatures:
    def test_hand_worked_2x2(self):
        # cells (0, 10, 10, 20): N=3, mean 40/3, max 20, range 20
        f = make_frame([[0.0, 10.0], [10.0, 20.0]])
        got = extract_statistical(f)
        assert got[0] == 20.0                      # max
        assert got[2] == 20.0                      # range
        assert got[8] == 3.0                       # nonzero count
        assert got[4] == pytest.approx(40.0 / 3.0)  # mean over non-zero
        assert got[9] == 0.0                       # 20 < s < 60 is strict

    def test_constant_nonzero_frame_degenerate_moments(self):
        f = make_frame(np.full((3, 3), 50.0))
        got = extract_statistical(f)
        assert got[5] == 0.0  # variance
        assert got[6] == 0.0  # skewness
        assert got[7] == 0.0  # kurtosis
        assert got[3] == 0.0  # entropy: single occupied bin

    def test_single_high_cell(self):
        v = np.zeros((3, 3))
        v[1, 1] = 150.0
        got = extract_statistical(make_frame(v))
        assert got[11] == 1.0  # above 100
        assert got[8] == 1.0   # nonzero count

    def test_all_zero_frame_conventions(self):
        got = extract_statistical(make_frame(np.zeros((4, 4))))
        assert list(got) == [0.0] * 12

    def test_matches_oracle_on_random_frames(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            v = rng.uniform(0.0, 1000.0, size=(8, 8))
            v[rng.random(v.shape) < 0.3] = 0.0
            f = make_frame(v)
            got = extract_statistical(f)
            want = oracle_statistical(v, 1000.0)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    def test_entropy_permutation_invariant(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0, 1000, size=(4, 6))
        f1 = make_frame(v, grid=GridSpec(4, 6, 1000.0, 1.5))
        perm = rng.permutation(v.ravel()).reshape(6, 4)
        f2 = make_frame(perm, grid=GridSpec(6, 4, 1000.0, 1.5))
        assert extract_statistical(f1)[3] == pytest.approx(
            extract_statistical(f2)[3], abs=1e-12
        )

    def test_mode_tie_breaks_to_smaller(self):
        f = make_frame([[1.0, 1.0], [2.0, 2.0]])
        assert extract_statistical(f)[1] == 1.0


# ---------------------------------------------------------------------------
# Contour level selection
# ---------------------------------------------------------------------------

def oracle_levels(vmin, vmax):
    """Ladder enumeration straight from the rule's definition."""
    if vmax == vmin:
        return []
    ladder = []
    base = 1.0
    while base <= (vmax - vmin) * 10 + 10:
        ladder += [2.0 * base, 5.0 * base, 10.0 * base]
        base *= 10.0
    step = next(s for s in ladder if (vmax - vmin) / s <= 20.0)
    levels = []
    k = 0
    while k * step <= vmax:
        if k * step > vmin:
            levels.append(k * step)
        k += 1
    return levels


class TestContourLevels:
    def test_range_0_40_gives_step_2(self):
        v = np.zeros((2, 2))
        v[1, 1] = 40.0
        levels = select_contour_levels(make_frame(v))
        assert list(levels) == [2.0 * k for k in range(1, 21)]

    def test_range_0_41_gives_step_5(self):
        v = np.zeros((2, 2))
        v[1, 1] = 41.0
        levels = select_contour_levels(make_frame(v))
        assert list(levels) == [5.0 * k for k in range(1, 9)]

    def test_constant_frame_empty(self):
        assert len(select_contour_levels(make_frame(np.full((3, 3), 5.0)))) == 0

    def test_at_most_20_levels_all_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.uniform(0, rng.uniform(1, 900), size=(3, 3))
            f = make_frame(v)
            levels = select_contour_levels(f)
            assert len(levels) <= 20
            assert all(v.min() < c <= v.max() for c in levels)
            assert list(levels) == sorted(levels)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            vmin = rng.uniform(0, 100)
            vmax = vmin + rng.uniform(0.5, 800)
            v = np.full((2, 2), vmin)
            v[1, 1] = vmax
            got = list(select_contour_levels(make_frame(v)))
            want = oracle_levels(vmin, vmax)
            assert got == pytest.approx(want)


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

def crossing_terms_oracle(values, level):
    """Per-crossing x + y terms over all grid edges, no chaining involved.

    Terms are built exactly as the tracer builds vertices (x then y, then one
    addition), so a correct tracer's fsum matches bit-for-bit.
    """
    v = np.asarray(values, dtype=float)
    rows, cols = v.shape
    terms = []
    for r in range(rows):
        for c in range(cols - 1):
            a, b = v[r, c], v[r, c + 1]
            if (a > level) != (b > level):
                t = (level - a) / (b - a)
                terms.append(float((c + t) + r))
    for r in range(rows - 1):
        for c in range(cols):
            a, b = v[r, c], v[r + 1, c]
            if (a > level) != (b > level):
                t = (level - a) / (b - a)
                terms.append(float(c + (r + t)))
    return terms


def crossing_sum_oracle(values, level):
    terms = crossing_terms_oracle(values, level)
    return math.fsum(terms), len(terms)


def boundary_crossings(values, level):
    """Crossings on the outer border edges; each open polyline uses two."""
    v = np.asarray(values, dtype=float)
    rows, cols = v.shape
    n = 0
    for c in range(cols - 1):
        for r in (0, rows - 1):
            if (v[r, c] > level) != (v[r, c + 1] > level):
                n += 1
    for r in range(rows - 1):
        for c in (0, cols - 1):
            if (v[r, c] > level) != (v[r + 1, c] > level):
                n += 1
    return n


def disc_frame(size=9, peak=200.0):
    """Radially symmetric bump whose 20+ levels stay strictly inside the grid."""
    yy, xx = np.mgrid[0:size, 0:size]
    center = (size - 1) / 2
    r2 = (xx - center) ** 2 + (yy - center) ** 2
    return make_frame(peak * np.exp(-r2 / (2 * (size / 6) ** 2)))


class TestTraceIsolines:
    def test_two_by_two_interpolation(self):
        f = make_frame([[0.0, 0.0], [10.0, 10.0]])
        lines = trace_isolines(f, 5.0)
        assert len(lines) == 1
        pts = lines[0].points
        assert not lines[0].closed
        got = sorted(map(tuple, pts))
        assert got == [(0.0, 0.5), (1.0, 0.5)]

    def test_level_outside_range_rejected(self):
        f = make_frame([[0.0, 0.0], [10.0, 10.0]])
        with pytest.raises(ValueError):
            trace_isolines(f, 11.0)
        with pytest.raises(ValueError):
            trace_isolines(f, 0.0)

    def test_disc_gives_single_closed_loop(self):
        f = disc_frame()
        for level in (20.0, 50.0, 100.0, 150.0):
            lines = trace_isolines(f, level)
            assert len(lines) == 1
            assert lines[0].closed

    def test_vertex_sum_matches_crossing_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            v = np.round(rng.uniform(0, 300, size=(6, 6)), 1)
            f = make_frame(v)
            for level in select_contour_levels(f)[:5]:
                lines = trace_isolines(f, level)
                got = sum(float(l.points.sum()) for l in lines)
                want, n_cross = crossing_sum_oracle(v, level)
                assert got == pytest.approx(want, abs=1e-9)
                assert sum(len(l.points) for l in lines) == n_cross

    def test_open_polyline_count_matches_boundary_crossings(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            v = np.round(rng.uniform(0, 300, size=(5, 7)), 1)
            f = make_frame(v)
            for level in select_contour_levels(f)[:4]:
                lines = trace_isolines(f, level)
                n_open = sum(1 for l in lines if not l.closed)
                assert 2 * n_open == boundary_crossings(v, level)

    def test_vertices_inside_grid(self):
        f = disc_frame(7)
        for level in select_contour_levels(f):
            for line in trace_isolines(f, level):
                x = line.points[:, 0]
                y = line.points[:, 1]
                assert np.all((x >= 0) & (x <= 6))
                assert np.all((y >= 0) & (y <= 6))

    def test_open_polylines_end_on_boundary(self):
        rng = np.random.default_rng(21)
        v = np.round(rng.uniform(0, 300, size=(6, 6)), 1)
        f = make_frame(v)
        for level in select_contour_levels(f)[:6]:
            for line in trace_isolines(f, level):
                if line.closed:
                    continue
                for px, py in (line.points[0], line.points[-1]):
                    assert (
                        px == 0.0 or px == 5.0 or py == 0.0 or py == 5.0
                        or math.isclose(px, 5.0) or math.isclose(py, 5.0)
                    )

    def test_saddle_resolved_by_center_average(self):
        # diagonal corners above; center mean 55 > 50 joins the diagonal
        f = make_frame([[100.0, 10.0], [10.0, 100.0]])
        lines = trace_isolines(f, 50.0)
        assert len(lines) == 2
        # center mean 5 < 30: corners stay separate islands
        f2 = make_frame([[0.0, 60.0], [60.0, 0.0]])
        lines2 = trace_isolines(f2, 50.0)
        assert len(lines2) == 2


# ---------------------------------------------------------------------------
# Per-cell marching squares over tuple-keyed adjacency lists: the reference
# the array-built crossing graph of trace_isolines must reproduce bit for bit
# ---------------------------------------------------------------------------

# Non-saddle cases: corner bits are tl=1, tr=2, br=4, bl=8 (bit set when the
# corner is strictly above the level); values name the edges the segment joins.
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


def _edge_point(edge, values, level):
    kind, r, c = edge
    v1 = values[r, c]
    if kind == "h":
        v2 = values[r, c + 1]
        t = (level - v1) / (v2 - v1)
        return (c + t, float(r))
    v2 = values[r + 1, c]
    t = (level - v1) / (v2 - v1)
    return (float(c), r + t)


def _cell_codes(v, level):
    above = (v > level).astype(np.int8)
    return (
        above[:-1, :-1]
        + 2 * above[:-1, 1:]
        + 4 * above[1:, 1:]
        + 8 * above[1:, :-1]
    )


def trace_isolines_oracle(frame, level):
    v = frame.values
    vmin = float(v.min())
    vmax = float(v.max())
    if not (vmin < level <= vmax):
        raise ValueError(f"level {level} outside ({vmin}, {vmax}]")

    code = _cell_codes(v, level)
    rows, cols = np.nonzero((code != 0) & (code != 15))

    adj = {}

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

    visited = set()
    chains = []

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


def assert_matches_oracle(frame, extra_levels=()):
    """Same polylines, vertex bits, closed flags and levels at every level."""
    levels = list(select_contour_levels(frame)) + list(extra_levels)
    for level in levels:
        got = trace_isolines(frame, level)
        want = trace_isolines_oracle(frame, level)
        assert len(got) == len(want), level
        for g, w in zip(got, want):
            assert g.closed == w.closed, level
            assert g.level == w.level and type(g.level) is float
            assert g.points.dtype == w.points.dtype and g.points.shape == w.points.shape
            assert g.points.tobytes() == w.points.tobytes(), level
    return len(levels)


def cell_value_levels(values):
    """Every distinct cell value above the minimum: levels a corner equals."""
    return np.unique(values)[1:]


@pytest.mark.parametrize("denoised", [False, True], ids=["raw", "denoised"])
def test_trace_matches_oracle_on_synthetic_frames(denoised):
    corpus = generate_corpus(
        n_subjects=2,
        frames_per_subject=4,
        postures=("supine", "left"),
        noise=NoiseSpec(multiplicative_sigma=0.1, dropout_prob=0.02, jitter_sigma_cells=0.5),
        grid=GridSpec(32, 64, 1000.0, 1.5),
        seed=4,
    )
    if denoised:
        corpus = denoise_corpus(corpus)
    assert sum(assert_matches_oracle(f) for f in corpus.frames) > 8 * 10


@pytest.mark.parametrize("shape", [(2, 2), (3, 5), (6, 6), (5, 7), (8, 16)])
def test_trace_matches_oracle_on_rounded_and_dropout_grids(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for i in range(12):
        v = np.round(rng.uniform(0, 30, size=shape), 1)
        if i % 2:
            v[rng.random(shape) < 0.4] = 0.0
        assert_matches_oracle(make_frame(v), cell_value_levels(v))


def test_trace_matches_oracle_on_saddle_checkerboards():
    rng = np.random.default_rng(7)
    rr, cc = np.indices((6, 9))
    seen = set()
    for _ in range(12):
        high = np.round(rng.uniform(40, 100, rr.shape))
        low = np.round(rng.uniform(0, 30, rr.shape))
        v = np.where((rr + cc) % 2 == 0, high, low)
        f = make_frame(v)
        assert_matches_oracle(f, [35.0])
        code = _cell_codes(v, 35.0)
        centre = (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:]) / 4.0 > 35.0
        seen |= {(int(k), bool(c)) for k, c in zip(code.ravel(), centre.ravel())}
    assert {(5, False), (5, True), (10, False), (10, True)} <= seen


@pytest.mark.parametrize("shape", [(2, 2), (1, 7), (7, 1)])
def test_trace_matches_oracle_on_degenerate_grids(shape):
    rng = np.random.default_rng(3)
    for _ in range(8):
        v = np.round(rng.uniform(0, 30, size=shape), 1)
        f = make_frame(v)
        assert_matches_oracle(f, cell_value_levels(v))
        if 1 in shape:
            assert all(trace_isolines(f, c) == [] for c in cell_value_levels(v))


class TestContourFeatures:
    def test_constant_frame_zero(self):
        assert extract_contour_features(make_frame(np.full((3, 3), 9.0))) == (0, 0.0)

    def test_composes_with_trace(self):
        f = make_frame([[0.0, 0.0], [10.0, 10.0]])
        levels = select_contour_levels(f)
        want_count = sum(len(trace_isolines(f, c)) for c in levels)
        want_sum = sum(
            float(l.points.sum()) for c in levels for l in trace_isolines(f, c)
        )
        got_count, got_sum = extract_contour_features(f)
        assert got_count == want_count
        assert got_sum == pytest.approx(want_sum)

    def test_blob_matches_enumeration_oracle(self):
        f = disc_frame()
        levels = select_contour_levels(f)
        _, got_sum = extract_contour_features(f)
        want = sum(crossing_sum_oracle(f.values, c)[0] for c in levels)
        assert got_sum == pytest.approx(want, abs=1e-9)


def contour_features_reference(frame):
    """Polyline count and per-vertex ``float(x + y)`` terms summed by ``math.fsum``."""
    count = 0
    terms = []
    for level in select_contour_levels(frame):
        lines = trace_isolines(frame, level)
        count += len(lines)
        for line in lines:
            terms.extend(float(x + y) for x, y in line.points)
    return count, math.fsum(terms)


@pytest.mark.parametrize("seed", range(6))
def test_contour_features_match_per_vertex_reference(seed):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:12, 0:20]
    bumps = sum(
        rng.uniform(50, 400) * np.exp(-((xx - rng.uniform(0, 20)) ** 2
                                        + (yy - rng.uniform(0, 12)) ** 2) / rng.uniform(2, 12))
        for _ in range(3)
    )
    noisy = np.clip(bumps + rng.normal(0, 5, bumps.shape), 0.0, 1000.0)
    for values in (bumps, noisy, np.where(rng.random(bumps.shape) < 0.3, 0.0, noisy)):
        f = make_frame(values)
        assert extract_contour_features(f) == contour_features_reference(f)


class TestExtractAll:
    def test_full_mask_gives_14(self):
        f = disc_frame()
        vec = extract_all(f)
        assert vec.shape == (14,)
        assert np.all(np.isfinite(vec))

    def test_hrl_style_mask_blanks_max_and_range(self):
        mask = tuple(i not in (0, 2) for i in range(14))
        vec = extract_all(disc_frame(), mask)
        assert np.isnan(vec[0]) and np.isnan(vec[2])
        assert np.all(np.isfinite(np.delete(vec, [0, 2])))

    def test_all_zero_frame_defined(self):
        vec = extract_all(make_frame(np.zeros((4, 4))))
        assert np.all(np.isfinite(vec))
        assert vec[12] == 0.0 and vec[13] == 0.0

    def test_pure_function_bit_exact(self):
        f = disc_frame()
        assert np.array_equal(extract_all(f), extract_all(f))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_always_finite_under_mask(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1000, size=(5, 5))
        v[rng.random((5, 5)) < 0.5] = 0.0
        vec = extract_all(make_frame(v))
        assert np.all(np.isfinite(vec))


class TestFeatureTableLoad:
    # Line 4 is S01's third row (posture 1, frame 2): (-1, "30.0") differs
    # from S01's BMI of 60 / 1.7**2, and (2, "1") repeats line 3's key.
    @pytest.mark.parametrize("column, bad", [
        (1, "x1"), (2, "2.5"), (5, "abc"), (5, "inf"), (5, "nan"), (-1, "nan?"),
        (-1, "nan"), (-1, "inf"), (-1, "5.0"), (-1, "30.0"), (2, "1"),
    ])
    def test_malformed_cell_cites_path_and_line(self, tiny_corpus, tmp_path, column, bad):
        path = str(tmp_path / "features.csv")
        save_feature_table(extract_table(tiny_corpus), path)
        with open(path, newline="") as fh:
            lines = fh.read().splitlines()
        cells = lines[3].split(",")
        cells[column] = bad
        lines[3] = ",".join(cells)
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"features\.csv: line 4: .*{re.escape(bad)}"):
            load_feature_table(path)
