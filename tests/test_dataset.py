import csv
import dataclasses
import errno
import json
import os
import pathlib
import re
import stat

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pressmat import dataset, mtnet
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
    write_csv,
    write_json,
)
from pressmat.adapters import read_subjects_csv
from pressmat.evalharness import EvaluationReport
from pressmat.features import (
    FEATURE_NAMES, extract_all, extract_table, load_feature_table, save_feature_table,
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

    @pytest.mark.parametrize("args, message", [
        ((4.7, 4, 100.0, 1.0), "rows must be a positive integer, got 4.7"),
        ((4, True, 100.0, 1.0), "cols must be a positive integer, got True"),
        ((4, 4, float("inf"), 1.0), "sensor_ceiling must be finite and positive, got inf"),
        ((4, 4, 100.0, float("nan")), "frame_rate_hz must be finite and positive, got nan"),
        ((4, 4, True, 1.0), "sensor_ceiling must be finite and positive, got True"),
        ((4, 4, "100", 1.0), "sensor_ceiling must be finite and positive, got '100'"),
    ], ids=["float-rows", "bool-cols", "inf-ceiling", "nan-rate", "bool-ceiling", "str-ceiling"])
    def test_grid_numbers_checked(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridSpec(*args)

    def test_grid_numbers_normalised(self):
        grid = GridSpec(np.int64(4), 2, np.float32(100.0), 3)
        assert grid == GridSpec(4, 2, 100.0, 3.0)
        assert [type(v) for v in (grid.rows, grid.sensor_ceiling, grid.frame_rate_hz)] == [
            int, float, float]

    def test_frame_bounds(self):
        grid = GridSpec(2, 2, 100.0, 1.0)
        with pytest.raises(ValueError):
            PressureFrame(grid, np.array([[0, 5], [5, 101.0]]), "S01", 1, 0)
        with pytest.raises(ValueError):
            PressureFrame(grid, np.array([[0, -1.0], [5, 5]]), "S01", 1, 0)

    def test_frame_takes_only_grid_shaped_values(self):
        grid = GridSpec(2, 3, 100.0, 1.0)
        for values in (np.zeros(6), np.zeros((3, 2)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError, match="does not match grid"):
                PressureFrame(grid, values, "S01", 1, 0)

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
        cells = np.array([0.0, 0.1, 5e-324, 1e-300, 999.9999999999999, 1000.0])
        frames = (
            PressureFrame(grid, cells.reshape(2, 3), "A", 2, 7),
            PressureFrame(grid, cells[::-1].reshape(2, 3), "A", 2, 8),
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
        assert os.listdir(tmp_path) == ["c"]  # the old directory moved aside is gone



class TestAtomicWriteText:
    def test_text_is_written_byte_for_byte(self, tmp_path):
        path = tmp_path / "out.csv"
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

    @pytest.mark.parametrize("key, value, message", [
        ("rows", 4.7, "rows must be a positive integer, got 4.7"),
        ("rows", True, "rows must be a positive integer, got True"),
        ("sensor_ceiling", float("inf"), "sensor_ceiling must be finite and positive, got inf"),
    ], ids=["float-rows", "bool-rows", "inf-ceiling"])
    def test_manifest_grid_numbers_checked(self, tiny_corpus, tmp_path, key, value, message):
        root = self._write(tmp_path, tiny_corpus)
        path = os.path.join(root, "manifest.json")
        with open(path) as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        want = re.escape(f"{path}: not a corpus manifest: {message}") + "$"
        with pytest.raises(CorpusLoadError, match=want):
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
        want = (r"frames\.csv: line 10: duplicate subject_id, posture_id, frame_index "
                r"\('S01', 1, 1\), first on line 3$")
        with pytest.raises(CorpusLoadError, match=want):
            load_corpus(root)


@pytest.fixture(params=["subjects.csv", "frames.csv", "features.csv", "raw_subjects.csv"])
def csv_loader(request, tiny_corpus, tmp_path):
    """One CSV reader: the file it reads and a call that loads it."""
    name = request.param
    if name == "features.csv":
        path = tmp_path / name
        save_feature_table(extract_table(tiny_corpus), str(path))
        return path, lambda: load_feature_table(str(path))
    if name == "raw_subjects.csv":
        path = tmp_path / name
        path.write_text("subject_id,height_cm,weight_kg,age_years\n"
                        "S1,170,70,26\nS2,175,80,\nS3,180,90,28\n")
        return path, lambda: read_subjects_csv(str(path))
    root = str(tmp_path / "c")
    save_corpus(tiny_corpus, root)
    return tmp_path / "c" / name, lambda: load_corpus(root)


def _digest(loaded):
    """What a loader returned, in a form that compares with ``==``."""
    if isinstance(loaded, Corpus):
        return loaded.subjects, [(f.key, f.values.tobytes()) for f in loaded.frames]
    if isinstance(loaded, dict):
        return loaded
    return (loaded.subject_ids.tolist(), loaded.posture_ids.tolist(),
            loaded.frame_indices.tolist(), loaded.X.tobytes(), loaded.bmi.tolist(),
            loaded.mask)


class TestCsvLoaderContract:
    """Every CSV loader: exact header, fixed field count, unique keys, blank
    rows skipped, and errors that read ``path: line N: ...``."""

    @staticmethod
    def _edit(path, change):
        lines = path.read_text().splitlines()
        change(lines)
        path.write_text("\n".join(lines) + "\n")
        return lines

    def test_bad_header_cites_line_1(self, csv_loader):
        path, load = csv_loader
        self._edit(path, lambda lines: lines.__setitem__(0, "subject," + lines[0]))
        with pytest.raises(ValueError, match=rf"{path.name}: line 1: "):
            load()

    @pytest.mark.parametrize("change, extra", [
        (lambda row: row + ",1", 1),
        (lambda row: row.rsplit(",", 1)[0], -1),
    ], ids=["long", "short"])
    def test_wrong_field_count_cites_line(self, csv_loader, change, extra):
        path, load = csv_loader
        n = len(path.read_text().splitlines()[0].split(","))
        self._edit(path, lambda lines: lines.__setitem__(2, change(lines[2])))
        with pytest.raises(ValueError,
                           match=rf"{path.name}: line 3: expected {n} fields, got {n + extra}$"):
            load()

    def test_repeated_key_cites_both_lines(self, csv_loader):
        path, load = csv_loader
        lines = self._edit(path, lambda lines: lines.append(lines[2]))
        with pytest.raises(ValueError,
                           match=rf"{path.name}: line {len(lines)}: duplicate .*, first on line 3$"):
            load()

    def test_blank_row_is_skipped(self, csv_loader):
        path, load = csv_loader
        want = _digest(load())
        self._edit(path, lambda lines: lines.insert(2, ""))
        assert _digest(load()) == want


class TestLoaderErrorsCiteLines:
    @staticmethod
    def _feature_rows(tiny_corpus, tmp_path):
        path = tmp_path / "features.csv"
        save_feature_table(extract_table(tiny_corpus), str(path))
        with open(path, newline="") as fh:
            return path, list(csv.reader(fh))

    @staticmethod
    def _write_rows(path, rows):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("blanked, cited", [(4, 4), (2, 3)])
    def test_partial_column_cites_first_disagreeing_line(self, tiny_corpus, tmp_path,
                                                         blanked, cited):
        path, rows = self._feature_rows(tiny_corpus, tmp_path)
        rows[blanked - 1][3 + FEATURE_NAMES.index("variance")] = ""
        self._write_rows(path, rows)
        want = (rf"features\.csv: line {cited}: features \['variance'\] are only partially "
                rf"present: empty cells differ from line 2$")
        with pytest.raises(ValueError, match=want):
            load_feature_table(str(path))

    def test_uniformly_empty_column_is_masked(self, tiny_corpus, tmp_path):
        path, rows = self._feature_rows(tiny_corpus, tmp_path)
        j = FEATURE_NAMES.index("variance")
        for row in rows[1:]:
            row[3 + j] = ""
        self._write_rows(path, rows)
        table = load_feature_table(str(path))
        assert table.mask == tuple(name != "variance" for name in FEATURE_NAMES)
        assert np.isnan(table.X[:, j]).all() and not np.isnan(np.delete(table.X, j, 1)).any()

    @pytest.mark.parametrize("header, want", [
        ("subject_id,height_m,age_years", "need a weight_kg column"),
        ("subject_id,weight_kg,age_years", "need a height_m or height_cm column"),
    ])
    def test_missing_subject_column_cites_line_1(self, tmp_path, header, want):
        path = tmp_path / "raw.csv"
        path.write_text(header + "\nS1,70,30\n")
        with pytest.raises(ValueError, match=rf"raw\.csv: line 1: {want}$"):
            read_subjects_csv(str(path))


ELEVEN_KEPT = (False,) * 3 + (True,) * 11
RULE = "feature_mask must be 14 booleans, at least 12 of them true"
MASK_RULE, PER_INPUT = RULE + ": got ", RULE + " and one per model input (14): got "


def _blank_features(tiny_corpus, tmp_path, names):
    """features.csv of ``tiny_corpus`` with the columns ``names`` blank on every row."""
    path, rows = TestLoaderErrorsCiteLines._feature_rows(tiny_corpus, tmp_path)
    for row in rows[1:]:
        for name in names:
            row[3 + FEATURE_NAMES.index(name)] = ""
    TestLoaderErrorsCiteLines._write_rows(path, rows)
    return str(path), lambda: load_feature_table(str(path))


def _edited_model(tiny_corpus, tmp_path, mask):
    """model.json of a 14-input model whose stored mask is replaced by ``mask``."""
    table = extract_table(tiny_corpus)
    model = mtnet.train(table.active_matrix(), table.subject_ids, table.bmi,
                        mtnet.TrainConfig(max_iterations=1), feature_mask=table.mask)
    path = str(tmp_path / "model.json")
    mtnet.save_model(model, path)
    doc = json.loads(pathlib.Path(path).read_text())
    doc["feature_mask"] = mask
    write_json(path, doc)
    return path, lambda: mtnet.load_model(path)


def _manifest(tiny_corpus, tmp_path):
    root = str(tmp_path / "c")
    save_corpus(tiny_corpus, root)
    path = os.path.join(root, "manifest.json")
    doc = json.loads(pathlib.Path(path).read_text())
    doc["feature_mask"] = list(ELEVEN_KEPT)
    write_json(path, doc)
    return path, lambda: load_corpus(root)


def _corpus(tiny_corpus, mask):
    return lambda: Corpus(grid=tiny_corpus.grid, subjects=tiny_corpus.subjects,
                          frames=tiny_corpus.frames, feature_mask=mask)


def _saved_table(tiny_corpus, tmp_path):
    table = dataclasses.replace(extract_table(tiny_corpus), mask=ELEVEN_KEPT)
    path = tmp_path / "features.csv"

    def save():
        try:
            save_feature_table(table, str(path))
        finally:
            assert not path.exists()  # nothing is written
    return save


def _trained(tiny_corpus, mask):
    table = extract_table(tiny_corpus)
    return lambda: mtnet.train(table.active_matrix(), table.subject_ids, table.bmi,
                               mtnet.TrainConfig(max_iterations=1), feature_mask=mask)


# case -> (tiny_corpus, tmp_path) -> (the file the error names and its prefix
#     after the path, or None; the call through that boundary; the message)
MASK_BOUNDARIES = {
    "Corpus-11-kept": lambda c, t: (None, _corpus(c, ELEVEN_KEPT), MASK_RULE),
    "Corpus-ints": lambda c, t: (None, _corpus(c, (1,) * 14), MASK_RULE),
    "manifest-11-kept": lambda c, t: (
        *_manifest(c, t), "not a corpus manifest: " + MASK_RULE),
    "features.csv-all-blank": lambda c, t: (
        *_blank_features(c, t, FEATURE_NAMES), "line 2: " + MASK_RULE),
    "features.csv-9-kept": lambda c, t: (
        *_blank_features(c, t, FEATURE_NAMES[:5]), "line 2: " + MASK_RULE),
    "save_feature_table": lambda c, t: (None, _saved_table(c, t), MASK_RULE),
    "extract_all": lambda c, t: (
        None, lambda: extract_all(c.frames[0], ELEVEN_KEPT), MASK_RULE),
    "train-count": lambda c, t: (None, _trained(c, (False,) + (True,) * 13), PER_INPUT),
    "model.json-3-entries": lambda c, t: (
        *_edited_model(c, t, [True, False, True]), "not a model: " + PER_INPUT),
    "model.json-count": lambda c, t: (
        *_edited_model(c, t, [False] + [True] * 13), "not a model: " + PER_INPUT),
}


class TestFeatureMaskContract:
    """Every boundary a feature mask crosses applies ``dataset.check_mask``:
    14 booleans, at least 12 true, one message; a file's error names the
    file (and, for features.csv, the line). A model's mask also keeps one
    feature per input column."""

    @pytest.mark.parametrize("case", list(MASK_BOUNDARIES))
    def test_bad_mask_raises_one_error(self, tiny_corpus, tmp_path, case):
        path, call, message = MASK_BOUNDARIES[case](tiny_corpus, tmp_path)
        want = ("" if path is None else f"{path}: ") + message
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(want)

    @pytest.mark.parametrize("value", [
        (True,) * 14, [True] * 12 + [False] * 2, np.ones(14, dtype=bool),
        tuple(np.ones(14, dtype=bool)),
    ], ids=["tuple", "12-kept-list", "numpy-array", "numpy-bools"])
    def test_valid_mask_is_a_tuple_of_python_bools(self, value):
        mask = dataset.check_mask(value)
        assert mask == tuple(bool(b) for b in value)
        assert all(type(b) is bool for b in mask)


def _report() -> EvaluationReport:
    scalars = [{"identity_accuracy": 0.5}, {"identity_accuracy": 1.0}]
    return EvaluationReport(
        config_echo={"recipe": "knn"}, identity_classes=["S01", "S02"],
        per_fold=[{"fold": i, "scalars": s, "arrays": {}} for i, s in enumerate(scalars)],
        aggregate={"scalars": {"identity_accuracy": {"mean": 0.75, "std": 0.35}},
                   "arrays": {}})


# writer -> (its output's name, the file in that output a fault interrupts)
WRITERS = {
    "atomic_write_text": ("out.txt", "out.txt"),
    "write_json": ("out.json", "out.json"),
    "write_csv": ("out.csv", "out.csv"),
    "save_feature_table": ("features.csv", "features.csv"),
    "save_corpus": ("corpus", "frames.csv"),
    "save_model": ("model.json", "model.json"),
    "EvaluationReport.save": ("report.json", "report.json"),
    "save_per_fold_csv": ("per_fold.csv", "per_fold.csv"),
}


@pytest.fixture(params=list(WRITERS))
def writer(request, tiny_corpus):
    """One writer: its output's name, the file a fault interrupts, and a call
    that writes the output to a path."""
    name = request.param
    table = extract_table(tiny_corpus)
    if name == "save_model":
        model = mtnet.train(table.active_matrix(), table.subject_ids, table.bmi,
                            mtnet.TrainConfig(max_iterations=1), feature_mask=table.mask)
        return (*WRITERS[name], lambda p: mtnet.save_model(model, p))
    write = {
        "atomic_write_text": lambda p: atomic_write_text(p, "a,b\n1,\u00e9\n"),
        "write_json": lambda p: write_json(p, {"b": [1.5, None], "a": "x"}),
        "write_csv": lambda p: write_csv(p, ["a", "b"], ([i, i * i] for i in range(5))),
        "save_feature_table": lambda p: save_feature_table(table, p),
        "save_corpus": lambda p: save_corpus(tiny_corpus, p),
        "EvaluationReport.save": lambda p: _report().save(p),
        "save_per_fold_csv": lambda p: _report().save_per_fold_csv(p),
    }[name]
    return (*WRITERS[name], write)


@pytest.fixture(params=[(0o022, 0o644, 0o755), (0o077, 0o600, 0o700)],
                ids=["umask022", "umask077"])
def umask(request):
    """Run the test under a umask; the file and directory modes it gives."""
    mask, file_mode, dir_mode = request.param
    old = os.umask(mask)
    try:
        yield file_mode, dir_mode
    finally:
        os.umask(old)


class _DiskFull:
    """A file opened for writing whose first write stores half of its text
    and then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _snapshot(path):
    """A file's bytes, or a directory's file names and bytes."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in path.iterdir()}
    return path.read_bytes()


class TestWriterContract:
    """Every writer: its output is written as a sibling that then replaces it,
    the umask sets the mode, a missing parent is an error, and a failed write
    leaves the old output and no sibling behind."""

    def test_mode_follows_the_umask(self, writer, umask, tmp_path):
        name, _, write = writer
        file_mode, dir_mode = umask
        path = tmp_path / name
        write(str(path))
        assert os.listdir(tmp_path) == [name]
        files = list(path.iterdir()) if path.is_dir() else [path]
        if path.is_dir():
            assert stat.S_IMODE(path.stat().st_mode) == dir_mode
            assert sorted(p.name for p in files) == ["frames.csv", "manifest.json",
                                                     "subjects.csv"]
        for p in files:
            assert stat.S_IMODE(p.stat().st_mode) == file_mode, p.name

    def test_missing_parent_raises_and_creates_nothing(self, writer, tmp_path):
        name, _, write = writer
        path = str(tmp_path / "missing" / name)
        with pytest.raises(FileNotFoundError) as info:
            write(path)
        assert info.value.filename == path
        assert os.listdir(tmp_path) == []

    def test_parent_that_is_a_file_raises_naming_the_output(self, writer, tmp_path):
        name, _, write = writer
        (tmp_path / "file").touch()
        path = str(tmp_path / "file" / name)
        with pytest.raises(NotADirectoryError) as info:
            write(path)
        assert info.value.filename == path
        assert os.listdir(tmp_path) == ["file"]

    def test_failed_write_keeps_the_old_output(self, writer, tmp_path, monkeypatch):
        name, fault, write = writer
        path = tmp_path / name
        write(str(path))
        old = _snapshot(path)

        def disk_full_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            writing = mode[0] in "wxa" and fault in os.path.basename(file)
            return _DiskFull(fh) if writing else fh

        monkeypatch.setattr(dataset, "open", disk_full_open, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            write(str(path))
        monkeypatch.undo()
        assert _snapshot(path) == old
        assert os.listdir(tmp_path) == [name]

    def test_failed_swap_keeps_the_old_corpus(self, tiny_corpus, tmp_path, monkeypatch):
        root = tmp_path / "corpus"
        save_corpus(tiny_corpus, str(root))
        old = _snapshot(root)
        real_replace = os.replace

        def replace(src, dst):
            if dst == str(root):
                raise OSError(errno.EIO, "Input/output error")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="Input/output error"):
            save_corpus(tiny_corpus, str(root))
        monkeypatch.undo()
        assert _snapshot(root) == old
        assert os.listdir(tmp_path) == ["corpus"]
