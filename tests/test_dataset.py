import csv
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pressmat.dataset import (
    Corpus,
    CorpusLoadError,
    GridSpec,
    PressureFrame,
    SubjectRecord,
    atomic_write_text,
    compute_bmi,
    load_corpus,
    load_posture_table,
    merge_postures,
    save_corpus,
)

from conftest import make_frame, make_subject


class TestComputeBmi:
    def test_known_values(self):
        assert compute_bmi(70.0, 1.75) == pytest.approx(22.857142857142858)
        assert compute_bmi(1.0, 1.0) == 1.0
        # hand arithmetic: 94.3 / 1.85^2 = 94.3 / 3.4225
        assert compute_bmi(94.3, 1.85) == pytest.approx(94.3 / 3.4225)

    @pytest.mark.parametrize("w,h", [(0.0, 1.7), (-5.0, 1.7), (70.0, 0.0), (70.0, -1.0)])
    def test_non_positive_inputs(self, w, h):
        with pytest.raises(ValueError):
            compute_bmi(w, h)

    @given(
        w=st.floats(30, 200),
        h=st.floats(1.2, 2.2),
        dw=st.floats(0.1, 50),
        dh=st.floats(0.01, 0.5),
    )
    def test_monotonicity(self, w, h, dw, dh):
        assert compute_bmi(w + dw, h) > compute_bmi(w, h)
        assert compute_bmi(w, h + dh) < compute_bmi(w, h)


class TestMergePostures:
    def test_base_ids_map_to_themselves(self):
        for raw in range(1, 11):
            assert merge_postures(raw) == raw

    def test_wedged_ids_map_to_base_groups(self):
        table = load_posture_table()
        for raw in range(11, 18):
            group = merge_postures(raw)
            assert 1 <= group <= 10
            assert table[raw] == group

    def test_surjective_onto_groups(self):
        assert {merge_postures(i) for i in range(1, 18)} == set(range(1, 11))

    @pytest.mark.parametrize("raw", [0, 18, -1, 100])
    def test_out_of_range(self, raw):
        with pytest.raises(ValueError):
            merge_postures(raw)

    def test_custom_table_must_be_valid(self, tmp_path):
        bad = tmp_path / "t.json"
        bad.write_text('{"1": 2}')
        with pytest.raises(ValueError):
            load_posture_table(str(bad))


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 4, 100.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(4, 4, -1.0, 1.0)

    def test_frame_bounds(self):
        grid = GridSpec(2, 2, 100.0, 1.0)
        with pytest.raises(ValueError):
            PressureFrame(grid, np.array([[0, 5], [5, 101.0]]), "S01", 1, 0)
        with pytest.raises(ValueError):
            PressureFrame(grid, np.array([[0, -1.0], [5, 5]]), "S01", 1, 0)

    def test_frame_values_read_only(self):
        f = make_frame(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_subject_bmi_derived_and_banded(self):
        rec = make_subject(weight=70.0, height=1.75)
        assert rec.bmi == pytest.approx(22.857142857)
        with pytest.raises(ValueError):
            SubjectRecord("S", height_m=2.0, weight_kg=20.0)  # bmi 5 < 10

    def test_corpus_sorts_frames_and_checks_subjects(self):
        grid = GridSpec(2, 2, 100.0, 1.0)
        s = {"A": make_subject("A")}
        f1 = PressureFrame(grid, np.zeros((2, 2)), "A", 2, 0)
        f0 = PressureFrame(grid, np.zeros((2, 2)), "A", 1, 0)
        c = Corpus(grid=grid, subjects=s, frames=(f1, f0))
        assert [f.posture_id for f in c.frames] == [1, 2]
        with pytest.raises(ValueError):
            Corpus(grid=grid, subjects=s, frames=(
                PressureFrame(grid, np.zeros((2, 2)), "B", 1, 0),
            ))

    def test_feature_mask_needs_12_bits(self):
        grid = GridSpec(2, 2, 100.0, 1.0)
        with pytest.raises(ValueError):
            Corpus(grid=grid, subjects={}, frames=(),
                   feature_mask=(True,) * 11 + (False,) * 3)


class TestRoundTrip:
    def test_save_load_identity(self, tiny_corpus, tmp_path):
        root = str(tmp_path / "corpus")
        save_corpus(tiny_corpus, root)
        loaded = load_corpus(root)
        assert loaded.grid == tiny_corpus.grid
        assert loaded.subjects == tiny_corpus.subjects
        assert loaded.feature_mask == tiny_corpus.feature_mask
        assert len(loaded.frames) == len(tiny_corpus.frames)
        for a, b in zip(tiny_corpus.frames, loaded.frames):
            assert a.key == b.key
            assert np.array_equal(a.values, b.values)  # bit-exact

    def test_double_round_trip(self, tiny_corpus, tmp_path):
        r1 = str(tmp_path / "c1")
        r2 = str(tmp_path / "c2")
        save_corpus(tiny_corpus, r1)
        save_corpus(load_corpus(r1), r2)
        for name in ("manifest.json", "subjects.csv", "frames.csv"):
            with open(os.path.join(r1, name), "rb") as fa, open(os.path.join(r2, name), "rb") as fb:
                assert fa.read() == fb.read()

    def test_frames_csv_text_is_repr_of_each_cell(self, tmp_path):
        grid = GridSpec(2, 3, 1000.0, 1.0)
        cells = [0.0, 0.1, 5e-324, 1e-300, 999.9999999999999, 1000.0]
        frames = (
            PressureFrame(grid, cells, "A", 2, 7),
            PressureFrame(grid, cells[::-1], "A", 2, 8),
        )
        c = Corpus(grid=grid, subjects={"A": make_subject("A")}, frames=frames)
        root = str(tmp_path / "c")
        save_corpus(c, root)

        want_path = str(tmp_path / "want.csv")
        with open(want_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["subject_id", "posture_id", "frame_index"] + [f"v{i}" for i in range(6)])
            for f in c.frames:
                row = [f.subject_id, str(f.posture_id), str(f.frame_index)]
                row += [repr(float(v)) for v in f.values.ravel()]  # one numpy scalar at a time
                w.writerow(row)
        with open(os.path.join(root, "frames.csv"), "rb") as fa, open(want_path, "rb") as fb:
            assert fa.read() == fb.read()
        for a, b in zip(c.frames, load_corpus(root).frames):
            assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))

    def test_empty_frames_ok(self, tmp_path):
        grid = GridSpec(2, 2, 100.0, 1.0)
        c = Corpus(grid=grid, subjects={"A": make_subject("A")}, frames=())
        root = str(tmp_path / "c")
        save_corpus(c, root)
        assert len(load_corpus(root).frames) == 0

    def test_save_replaces_existing_dir(self, tiny_corpus, tmp_path):
        root = str(tmp_path / "c")
        save_corpus(tiny_corpus, root)
        save_corpus(tiny_corpus, root)  # no error, replaced atomically
        assert load_corpus(root).subjects == tiny_corpus.subjects



class TestAtomicWriteText:
    def test_text_is_written_byte_for_byte(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        atomic_write_text(str(path), "a,b\r\n1,\u00e9\n")
        assert path.read_bytes() == "a,b\r\n1,\u00e9\n".encode("utf-8")
        assert os.listdir(path.parent) == ["out.csv"]

    def test_failed_write_keeps_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(str(path), "old\n")
        with pytest.raises(TypeError):
            atomic_write_text(str(path), None)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

class TestLoadErrors:
    def _write(self, tmp_path, corpus):
        root = str(tmp_path / "c")
        save_corpus(corpus, root)
        return root

    def test_missing_file(self, tiny_corpus, tmp_path):
        root = self._write(tmp_path, tiny_corpus)
        os.unlink(os.path.join(root, "subjects.csv"))
        with pytest.raises(CorpusLoadError, match="subjects.csv"):
            load_corpus(root)

    def test_unknown_subject_cites_line(self, tiny_corpus, tmp_path):
        root = self._write(tmp_path, tiny_corpus)
        path = os.path.join(root, "frames.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[1] = lines[1].replace("S01", "SXX", 1)
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(CorpusLoadError, match=r"frames\.csv: line 2.*SXX"):
            load_corpus(root)

    def test_value_above_ceiling_cites_line(self, tiny_corpus, tmp_path):
        root = self._write(tmp_path, tiny_corpus)
        path = os.path.join(root, "frames.csv")
        with open(path) as fh:
            lines = fh.readlines()
        parts = lines[3].rstrip("\n").split(",")
        parts[5] = repr(tiny_corpus.grid.sensor_ceiling + 1.0)
        lines[3] = ",".join(parts) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(CorpusLoadError, match=r"frames\.csv: line 4"):
            load_corpus(root)

    def test_malformed_value(self, tiny_corpus, tmp_path):
        root = self._write(tmp_path, tiny_corpus)
        path = os.path.join(root, "frames.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[2] = lines[2].replace(",", ",bogus,", 1).replace(",bogus,", ",", 1)
        parts = lines[2].rstrip("\n").split(",")
        parts[4] = "not-a-number"
        lines[2] = ",".join(parts) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(CorpusLoadError, match=r"frames\.csv: line 3"):
            load_corpus(root)

    def test_duplicate_frame_key_named(self, tiny_corpus, tmp_path):
        root = self._write(tmp_path, tiny_corpus)
        path = os.path.join(root, "frames.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines.append(lines[2])
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(CorpusLoadError, match=r"duplicate frame key \('S01', 1, 1\)"):
            load_corpus(root)
