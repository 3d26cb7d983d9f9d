import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from pressmat.preprocess import (
    denoise_corpus,
    gaussian_kernel,
    median_filter,
    split_sessions,
    temporal_gaussian,
)

from conftest import make_frame


def nanmedian_oracle(values, window, ceiling):
    """The clipped-window median as ``np.nanmedian`` over a NaN-padded window view."""
    half = window // 2
    padded = np.pad(values, half, mode="constant", constant_values=np.nan)
    windows = sliding_window_view(padded, (window, window))
    return np.clip(np.nanmedian(windows, axis=(2, 3)), 0.0, ceiling)


def split_sessions_oracle(frames):
    """The session split as an explicit field-by-field loop."""
    sessions = []
    current = []
    for f in frames:
        if current:
            prev = current[-1]
            contiguous = (
                f.subject_id == prev.subject_id
                and f.posture_id == prev.posture_id
                and f.frame_index == prev.frame_index + 1
            )
            if not contiguous:
                sessions.append(current)
                current = []
        current.append(f)
    if current:
        sessions.append(current)
    return sessions


def break_message(before, after):
    return re.escape(f"not one session: {before} -> {after}") + "$"


class TestMedianFilter:
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (2, 2), (3, 5), (8, 16), (32, 64)])
    def test_matches_nanmedian_oracle_bit_for_bit(self, shape, window):
        # windows wider than the grid included; ties, zeros and ceiling values on purpose
        rng = np.random.default_rng(window * 100 + shape[0] * shape[1])
        frames = [
            rng.uniform(0.0, 1000.0, shape),
            rng.choice([0.0, 0.0, 12.5, 12.5, 300.0, 1000.0], size=shape),
            np.where(rng.random(shape) < 0.4, 0.0, rng.integers(0, 4, shape) * 250.0),
        ]
        for v in frames:
            got = median_filter(make_frame(v), window).values
            want = nanmedian_oracle(v, window, 1000.0)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_constant_frame_unchanged(self):
        f = make_frame(np.full((5, 5), 42.0))
        out = median_filter(f, 3)
        assert np.array_equal(out.values, f.values)

    def test_lone_spike_removed(self):
        v = np.zeros((5, 5))
        v[2, 2] = 500.0
        out = median_filter(make_frame(v), 3)
        assert not out.values.any()

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(0)
        f = make_frame(rng.uniform(0, 900, (6, 7)))
        out = median_filter(f, 1)
        assert np.array_equal(out.values, f.values)

    def test_even_window_rejected(self):
        f = make_frame(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            median_filter(f, 4)

    def test_shrinking_window_at_corner(self):
        # corner neighborhood is 2x2: median of the four values
        v = np.array([[1.0, 2.0, 0.0], [3.0, 10.0, 0.0], [0.0, 0.0, 0.0]])
        out = median_filter(make_frame(v), 3)
        assert out.values[0, 0] == pytest.approx(np.median([1.0, 2.0, 3.0, 10.0]))

    def test_interior_median_hand_checked(self):
        v = np.arange(25, dtype=float).reshape(5, 5)
        out = median_filter(make_frame(v), 3)
        assert out.values[2, 2] == np.median(v[1:4, 1:4])

    def test_bounds_preserved(self):
        rng = np.random.default_rng(3)
        f = make_frame(rng.uniform(0, 1000, (8, 8)))
        out = median_filter(f, 3)
        assert out.values.min() >= f.values.min() - 1e-9
        assert out.values.max() <= f.values.max() + 1e-9


class TestTemporalGaussian:
    def _session(self, stacks, sid="S01", pid=1):
        return [
            make_frame(v, subject_id=sid, posture_id=pid, frame_index=i)
            for i, v in enumerate(stacks)
        ]

    def test_kernel_normalized(self):
        k = gaussian_kernel(5, 1.0)
        assert k.sum() == pytest.approx(1.0)
        assert np.all(k > 0)
        assert np.array_equal(k, k[::-1])

    def test_constant_session_unchanged(self):
        session = self._session([np.full((3, 3), 7.0)] * 6)
        out = temporal_gaussian(session, 5, 1.0)
        for f in out:
            assert np.allclose(f.values, 7.0)

    def test_single_frame_unchanged(self):
        session = self._session([np.full((3, 3), 9.0)])
        out = temporal_gaussian(session, 5, 1.0)
        assert np.allclose(out[0].values, 9.0)

    def test_impulse_matches_hand_convolution(self):
        # one sensor carries (0, 0, 1000, 0, 0); smoothing = kernel * 1000
        stacks = [np.zeros((2, 2)) for _ in range(5)]
        stacks[2][0, 0] = 1000.0
        out = temporal_gaussian(self._session(stacks), 5, 1.0)
        k = gaussian_kernel(5, 1.0)
        got = [f.values[0, 0] for f in out]
        expected = []
        for t in range(5):
            acc = 0.0
            for j, tap in enumerate(k):
                src = t + (j - 2)
                if 0 <= src < 5 and src == 2:
                    acc += tap * 1000.0
            expected.append(acc)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_output_length_equals_input(self):
        session = self._session([np.zeros((2, 2))] * 7)
        assert len(temporal_gaussian(session)) == 7

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError):
            temporal_gaussian([])

    def test_mixed_session_rejected(self):
        a = make_frame(np.zeros((2, 2)), subject_id="A", frame_index=0)
        b = make_frame(np.zeros((2, 2)), subject_id="B", frame_index=1)
        with pytest.raises(ValueError, match=break_message(("A", 1, 0), ("B", 1, 1))):
            temporal_gaussian([a, b])
        c = make_frame(np.zeros((2, 2)), subject_id="A", posture_id=2, frame_index=1)
        with pytest.raises(ValueError, match=break_message(("A", 1, 0), ("A", 2, 1))):
            temporal_gaussian([a, c])

    def test_gap_rejected(self):
        a = make_frame(np.zeros((2, 2)), frame_index=0)
        b = make_frame(np.zeros((2, 2)), frame_index=2)
        with pytest.raises(ValueError, match=break_message(("S01", 1, 0), ("S01", 1, 2))):
            temporal_gaussian([a, b])
        # the first break is named, not the session's ends
        run = [make_frame(np.zeros((2, 2)), frame_index=i) for i in (3, 4, 5, 7, 9)]
        with pytest.raises(ValueError, match=break_message(("S01", 1, 5), ("S01", 1, 7))):
            temporal_gaussian(run)

    def test_bounds_preserved(self):
        rng = np.random.default_rng(1)
        stacks = [rng.uniform(0, 1000, (3, 3)) for _ in range(9)]
        session = self._session(stacks)
        lo = min(v.min() for v in stacks)
        hi = max(v.max() for v in stacks)
        for f in temporal_gaussian(session):
            assert f.values.min() >= lo - 1e-9
            assert f.values.max() <= hi + 1e-9


class TestCorpusPipeline:
    def test_sessions_split_on_gaps_and_postures(self):
        frames = tuple(
            make_frame(np.zeros((2, 2)), posture_id=p, frame_index=i)
            for p, idxs in ((1, [0, 1, 2]), (1, [5, 6]), (2, [0, 1]))
            for i in idxs
        )
        sessions = split_sessions(frames)
        assert [len(s) for s in sessions] == [3, 2, 2]

    @given(
        keys=st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(1, 3), st.integers(0, 6)),
            unique=True, max_size=40,
        ),
        canonical=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_split_matches_oracle(self, keys, canonical):
        # canonical order is the corpus's; an arbitrary order splits wherever
        # a frame does not follow the one before it
        if canonical:
            keys = sorted(keys)
        frames = [make_frame(np.zeros((1, 1)), subject_id=s, posture_id=p, frame_index=i)
                  for s, p, i in keys]
        got = [[f.key for f in run] for run in split_sessions(frames)]
        want = [[f.key for f in run] for run in split_sessions_oracle(frames)]
        assert got == want
        assert [k for run in got for k in run] == keys

    def test_denoise_corpus_keeps_shape(self, synth_corpus):
        out = denoise_corpus(synth_corpus)
        assert len(out.frames) == len(synth_corpus.frames)
        assert [f.key for f in out.frames] == [f.key for f in synth_corpus.frames]
        assert out.feature_mask == synth_corpus.feature_mask

    def test_idempotent_on_constant_corpus(self, synth_corpus):
        # constant frames pass through both filters unchanged
        const = make_frame(np.full((4, 4), 3.0))
        assert np.allclose(median_filter(const).values, 3.0)
