import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pressmat.dataset import GridSpec
from pressmat.features import (
    FEATURE_NAMES,
    extract_all,
    extract_contour_features,
    extract_statistical,
    select_contour_levels,
    trace_isolines,
)

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
