import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from pressmat import preprocess
from pressmat.dataset import Corpus, GridSpec
from pressmat.preprocess import (
    denoise_corpus,
    gaussian_kernel,
    median_filter,
    split_sessions,
    temporal_gaussian,
)

from pressmat.synthgen import NoiseSpec, generate_corpus

from conftest import make_frame, make_subject


def nanmedian_oracle(values, window, ceiling):
    """The clipped-window median as ``np.nanmedian`` over a NaN-padded window view."""
    half = window // 2
    padded = np.pad(values, half, mode="constant", constant_values=np.nan)
    windows = sliding_window_view(padded, (window, window))
    return np.clip(np.nanmedian(windows, axis=(2, 3)), 0.0, ceiling)


def convolve1d_oracle(stack, kernel, ceiling):
    """The temporal filter as a reflect-mode 1-D convolution along time, clipped."""
    ndimage = pytest.importorskip("scipy.ndimage")
    return np.clip(ndimage.convolve1d(stack, kernel, axis=0, mode="reflect"), 0.0, ceiling)


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

    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 11])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 4, 5, 8, 13, 20])
    def test_matches_convolve1d_oracle_bit_for_bit(self, window, n_frames):
        # sessions shorter than the half-window reflect more than once
        rng = np.random.default_rng(window * 100 + n_frames)
        shape = (n_frames, 3, 4)
        stacks = [
            rng.integers(0, 1001, shape).astype(np.float64),
            rng.integers(0, 2001, shape) / 2.0,
            rng.uniform(0.0, 1000.0, shape),
        ]
        for sigma in (0.5, 1.0, 1.7, 3.0):
            kernel = gaussian_kernel(window, sigma)
            for stack in stacks:
                got = np.stack([f.values for f in temporal_gaussian(
                    self._session(stack), window, sigma)])
                want = convolve1d_oracle(stack, kernel, 1000.0)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("window", [-1, 0, 2, 4, 6])
    def test_even_window_rejected(self, window):
        message = f"gaussian window must be odd and positive, got {window}$"
        with pytest.raises(ValueError, match=message):
            gaussian_kernel(window, 1.0)
        with pytest.raises(ValueError, match=message):
            temporal_gaussian(self._session([np.zeros((2, 2))] * 9), window, 1.0)

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

    @pytest.mark.parametrize("bad, message", [
        ({"median_window": 4}, "median window must be odd"),
        ({"gaussian_window": 4}, "gaussian window must be odd"),
        ({"gaussian_sigma": -1.0}, "sigma must be positive"),
    ], ids=["median-window", "gaussian-window", "sigma"])
    def test_settings_checked_before_any_filtering(self, tiny_corpus, monkeypatch, bad, message):
        calls = []

        def counting(frame, window=3):
            calls.append(frame.key)
            return median_filter(frame, window)

        monkeypatch.setattr(preprocess, "median_filter", counting)
        with pytest.raises(ValueError, match=message):
            denoise_corpus(tiny_corpus, **bad)
        assert calls == []
        denoise_corpus(tiny_corpus)
        assert len(calls) == len(tiny_corpus.frames)  # the counter sees the filtering

    def test_empty_corpus_settings_checked(self, tiny_corpus):
        empty = replace(tiny_corpus, frames=())
        with pytest.raises(ValueError, match="gaussian window must be odd"):
            denoise_corpus(empty, gaussian_window=4, gaussian_sigma=-1.0)
        with pytest.raises(ValueError, match="sigma must be positive"):
            denoise_corpus(empty, gaussian_sigma=-1.0)
        assert denoise_corpus(empty).frames == ()

    def test_denoise_corpus_keeps_shape(self, synth_corpus):
        out = denoise_corpus(synth_corpus)
        assert len(out.frames) == len(synth_corpus.frames)
        assert [f.key for f in out.frames] == [f.key for f in synth_corpus.frames]
        assert out.feature_mask == synth_corpus.feature_mask

    def test_idempotent_on_constant_corpus(self, synth_corpus):
        # constant frames pass through both filters unchanged
        const = make_frame(np.full((4, 4), 3.0))
        assert np.allclose(median_filter(const).values, 3.0)


class TestPerSessionDenoiser:
    """``denoise_corpus`` filters one session at a time; the two-pass form
    (median over every frame, then the Gaussian over each run of the filtered
    frames) is its reference."""

    @staticmethod
    def two_pass_reference(corpus, median_window, gaussian_window):
        filtered = [median_filter(f, median_window) for f in corpus.frames]
        return [f for run in split_sessions(filtered)
                for f in temporal_gaussian(run, gaussian_window)]

    @pytest.mark.parametrize("gaussian_window", [5, 9])
    @pytest.mark.parametrize("median_window", [1, 3, 5])
    def test_bit_equal_to_two_pass_reference(self, median_window, gaussian_window):
        # S01 posture 1 breaks at an index gap into runs of 6 and 2 frames,
        # S01 posture 2 is one frame, S02 posture 1 is 7 frames. With a
        # 9-tap window the 2- and 1-frame runs are shorter than its half-window.
        grid = GridSpec(6, 7, 1000.0, 1.5)
        keys = ([("S01", 1, i) for i in (0, 1, 2, 3, 4, 5, 8, 9)] + [("S01", 2, 0)]
                + [("S02", 1, i) for i in range(7)])
        rng = np.random.default_rng(5)
        frames = tuple(make_frame(rng.uniform(0, 1000, (6, 7)), grid, s, p, i)
                       for s, p, i in keys)
        corpus = Corpus(grid, {s: make_subject(s) for s in ("S01", "S02")}, frames)
        assert [len(run) for run in split_sessions(corpus.frames)] == [6, 2, 1, 7]

        got = denoise_corpus(corpus, median_window, gaussian_window).frames
        want = self.two_pass_reference(corpus, median_window, gaussian_window)
        assert [f.key for f in got] == [f.key for f in want] == keys
        for g, w in zip(got, want):
            assert g.values.tobytes() == w.values.tobytes(), g.key

    def test_peak_allocation_below_twice_the_output(self):
        # 4 subjects x 3 postures x 20 frames on 16 x 32: 12 sessions of 20
        # frames. Holding a median-filtered copy of the whole corpus beside
        # the output would put the peak above 2.5x the output.
        corpus = generate_corpus(
            n_subjects=4, frames_per_subject=60, postures=("supine", "left", "right"),
            noise=NoiseSpec(0.05, 0.01, 0.3), grid=GridSpec(16, 32, 1000.0, 1.5), seed=11)
        assert len(split_sessions(corpus.frames)) == 12
        denoise_corpus(corpus)  # fills the median plan's cache outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = denoise_corpus(corpus)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ratio = peak / sum(f.values.nbytes for f in out.frames)
        print(f"denoise_corpus peak traced allocation {ratio:.2f}x its output")
        assert ratio < 2.0
