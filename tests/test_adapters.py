import os
import re

import numpy as np
import pytest

from pressmat.adapters import (
    HRLROS_FEATURE_MASK,
    PMATDATA_GRID,
    SESSION_GAP,
    ingest_hrlros,
    ingest_pmatdata,
    read_subjects_csv,
)
from pressmat.dataset import GridSpec, merge_postures
from pressmat.preprocess import split_sessions


def write_pmatdata_tree(root, n_subjects=2, postures=(1, 2, 11), frames=3,
                        grid=GridSpec(4, 8, 1000.0, 1.5), rng=None):
    rng = rng or np.random.default_rng(0)
    for s in range(1, n_subjects + 1):
        sdir = os.path.join(root, f"S{s}")
        os.makedirs(sdir)
        for p in postures:
            lines = []
            for _ in range(frames):
                vals = rng.integers(0, 500, size=grid.n_cells)
                lines.append("\t".join(str(v) for v in vals))
            with open(os.path.join(sdir, f"{p}.txt"), "w") as fh:
                fh.write("\n".join(lines) + "\n")
    subs = os.path.join(root, "subjects.csv")
    with open(subs, "w") as fh:
        fh.write("subject_id,height_cm,weight_kg,age_years\n")
        for s in range(1, n_subjects + 1):
            fh.write(f"S{s},{165 + 5 * s},{60 + 10 * s},{25 + s}\n")
    return subs


class TestPmatdata:
    def test_ingest_merges_and_reindexes(self, tmp_path):
        root = str(tmp_path / "raw")
        os.makedirs(root)
        grid = GridSpec(4, 8, 1000.0, 1.5)
        subs = write_pmatdata_tree(root, postures=(1, 2, 11), frames=3, grid=grid)
        corpus = ingest_pmatdata(root, subjects_file=subs, grid=grid)
        assert sorted(corpus.subjects) == ["S1", "S2"]
        assert corpus.subjects["S1"].height_m == pytest.approx(1.70)
        # raw posture 11 merges into group merge_postures(11)
        group = merge_postures(11)
        s1 = [f for f in corpus.frames if f.subject_id == "S1"]
        got_postures = {f.posture_id for f in s1}
        assert got_postures == {1, 2, group}
        # merged recording re-indexed after a gap, sessions stay separable
        merged = sorted(
            f.frame_index for f in s1 if f.posture_id == group
        )
        if group == 1:
            # postures 1 and 11 share the group: 3 + gap + 3 frames
            assert merged == [0, 1, 2, 5, 6, 7]
        assert len(corpus.frames) == 2 * 3 * 3

    def test_unknown_subject_rejected(self, tmp_path):
        root = str(tmp_path / "raw")
        os.makedirs(root)
        grid = GridSpec(4, 8, 1000.0, 1.5)
        subs = write_pmatdata_tree(root, n_subjects=2, grid=grid)
        with open(subs, "w") as fh:
            fh.write("subject_id,height_m,weight_kg,age_years\nS1,1.7,70,30\n")
        with pytest.raises(ValueError, match="S2"):
            ingest_pmatdata(root, subjects_file=subs, grid=grid)

    def test_wrong_cell_count_cites_file_and_line(self, tmp_path):
        root = str(tmp_path / "raw")
        os.makedirs(root)
        grid = GridSpec(4, 8, 1000.0, 1.5)
        subs = write_pmatdata_tree(root, n_subjects=1, postures=(1,), grid=grid)
        path = os.path.join(root, "S1", "1.txt")
        with open(path, "a") as fh:
            fh.write("1 2 3\n")
        with pytest.raises(ValueError, match=r"1\.txt: line 4"):
            ingest_pmatdata(root, subjects_file=subs, grid=grid)

    def test_default_grid_matches_dataset(self):
        assert (PMATDATA_GRID.rows, PMATDATA_GRID.cols) == (32, 64)
        assert PMATDATA_GRID.frame_rate_hz == 1.5


class TestHrlros:
    def _write_npz(self, root, sid, frames, postures, height=1.75, weight=70.0):
        np.savez(
            os.path.join(root, f"{sid}.npz"),
            frames=frames,
            posture_ids=postures,
            height_m=height,
            weight_kg=weight,
            age_years=25.0,
        )

    def test_ingest(self, tmp_path):
        root = str(tmp_path)
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 1024, size=(5, 27, 64)).astype(float)
        self._write_npz(root, "H01", frames, np.array([1, 1, 2, 2, 2]))
        corpus = ingest_hrlros(root)
        assert list(corpus.subjects) == ["H01"]
        assert corpus.feature_mask == HRLROS_FEATURE_MASK
        assert corpus.feature_mask[0] is False and corpus.feature_mask[2] is False
        assert len(corpus.frames) == 5
        idx = [(f.posture_id, f.frame_index) for f in corpus.frames]
        assert idx == [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]

    def test_resumed_posture_run_starts_after_a_gap(self, tmp_path):
        root = str(tmp_path)
        self._write_npz(root, "H01", np.zeros((6, 27, 64)), np.array([1, 1, 2, 2, 1, 1]))
        corpus = ingest_hrlros(root)
        idx = [(f.posture_id, f.frame_index) for f in corpus.frames]
        gap = 2 + SESSION_GAP  # as after a merged PmatData recording
        assert idx == [(1, 0), (1, 1), (1, gap), (1, gap + 1), (2, 0), (2, 1)]
        assert [len(s) for s in split_sessions(corpus.frames)] == [2, 2, 2]

    def test_bad_shape_rejected(self, tmp_path):
        root = str(tmp_path)
        self._write_npz(root, "H01", np.zeros((2, 10, 10)), np.array([1, 1]))
        with pytest.raises(ValueError, match="frames must be"):
            ingest_hrlros(root)

    def test_missing_key_rejected(self, tmp_path):
        np.savez(os.path.join(str(tmp_path), "H01.npz"), frames=np.zeros((1, 27, 64)))
        with pytest.raises(ValueError, match="posture_ids"):
            ingest_hrlros(str(tmp_path))

    @pytest.mark.parametrize("content", [b"", b"not an archive", b"PK\x03\x04" + bytes(40)])
    def test_unreadable_npz_rejected_with_path(self, tmp_path, content):
        path = tmp_path / "H01.npz"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            ingest_hrlros(str(tmp_path))

    def test_non_scalar_height_rejected_with_path(self, tmp_path):
        root = str(tmp_path)
        self._write_npz(root, "H01", np.zeros((1, 27, 64)), np.array([1]), height=[1.7, 1.8])
        with pytest.raises(ValueError, match=f"^{re.escape(os.path.join(root, 'H01.npz'))}: "):
            ingest_hrlros(root)


class TestSubjectsCsv:
    def test_height_cm_converted(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("subject_id,height_cm,weight_kg,age_years\nA,175,70,\n")
        subs = read_subjects_csv(str(p))
        assert subs["A"].height_m == pytest.approx(1.75)
        assert subs["A"].age_years is None

    def test_missing_weight_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("subject_id,height_m\nA,1.75\n")
        with pytest.raises(ValueError, match="weight_kg"):
            read_subjects_csv(str(p))

    def test_duplicate_subject_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("subject_id,height_m,weight_kg\nA,1.75,70\nB,1.80,80\nA,1.60,50\n")
        with pytest.raises(ValueError, match=r"s\.csv: line 4: duplicate subject_id 'A'"):
            read_subjects_csv(str(p))

    def test_short_row_cites_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("subject_id,height_m,weight_kg,age_years\nA,1.75,70,30\nB,1.80\n")
        with pytest.raises(ValueError, match=r"s\.csv: line 3: expected 4 fields, got 2$"):
            read_subjects_csv(str(p))
