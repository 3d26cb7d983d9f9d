import json
import os
import pathlib
import shlex

import numpy as np
import pytest

from pressmat import evalharness, mtnet
from pressmat.cli import _build_recipe, build_parser, main
from pressmat.dataset import load_corpus
from pressmat.features import load_feature_table, save_feature_table

from test_adapters import write_pmatdata_tree
from test_evalharness import shared_bmi_table
from pressmat.dataset import GridSpec


def run(argv):
    return main(argv)


def test_build_recipe_names():
    parser = build_parser()
    base = ["eval", "--features", "f.csv", "--seed", "1", "--report-out", "r.json"]
    for name in ("mtnet", "knn", "gnb", "linreg"):
        assert _build_recipe(parser.parse_args(base + ["--recipe", name])).name == name
    with pytest.raises(SystemExit):
        parser.parse_args(base + ["--recipe", "svm"])


def test_importance_needs_a_recipe(capsys):
    with pytest.raises(SystemExit) as info:
        main(["importance", "--features", "f.csv", "--seed", "1", "--out", "i.json"])
    assert info.value.code == 2
    assert "--recipe" in capsys.readouterr().err


def readme_cli_commands() -> list[list[str]]:
    """Arguments of every `pressmat ...` command in README.md's CLI block.

    Continuation lines are joined, the brackets around optional flags dropped
    and comment lines skipped.
    """
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("pressmat "):
            commands.append(shlex.split(line.replace("[", "").replace("]", ""))[1:])
    return commands


def test_readme_cli_block_parses():
    parser = build_parser()
    commands = readme_cli_commands()
    assert len(commands) >= 8
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README.md command does not parse: pressmat {shlex.join(argv)}")


def test_train_rejects_a_table_without_classes_before_training(tmp_path, monkeypatch, capsys):
    feats = str(tmp_path / "features.csv")
    save_feature_table(shared_bmi_table(), feats)
    trained = []
    monkeypatch.setattr(mtnet, "train", lambda *args, **kwargs: trained.append(args))
    assert run(["train", "--features", feats, "--model-out", str(tmp_path / "model.json"),
                "--seed", "1"]) == 1
    assert "insufficient diversity" in capsys.readouterr().err
    assert trained == []


@pytest.fixture
def small_pipeline(tmp_path):
    """synth -> preprocess -> features on a small corpus; returns paths."""
    corpus_dir = str(tmp_path / "corpus")
    filt_dir = str(tmp_path / "filtered")
    feats = str(tmp_path / "features.csv")
    assert run([
        "synth", "--subjects", "3", "--frames-per-subject", "20",
        "--postures", "supine,left", "--rows", "16", "--cols", "32",
        "--noise-mult", "0.05", "--seed", "5", "--out", corpus_dir,
    ]) == 0
    assert run(["preprocess", "--in", corpus_dir, "--out", filt_dir]) == 0
    assert run(["features", "--in", filt_dir, "--out", feats]) == 0
    return corpus_dir, filt_dir, feats


class TestSynth:
    def test_writes_canonical_corpus(self, tmp_path):
        out = str(tmp_path / "c")
        code = run([
            "synth", "--subjects", "2", "--frames-per-subject", "3",
            "--rows", "8", "--cols", "16", "--seed", "1", "--out", out,
        ])
        assert code == 0
        corpus = load_corpus(out)
        assert len(corpus.frames) == 6
        manifest = json.loads(pathlib.Path(out, "manifest.json").read_text())
        assert manifest["provenance"]["seed"] == 1

    def test_bad_posture_fails_nonzero(self, tmp_path, capsys):
        code = run([
            "synth", "--subjects", "2", "--frames-per-subject", "1",
            "--postures", "flying", "--seed", "1",
            "--out", str(tmp_path / "c"),
        ])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_infinite_ceiling_fails_before_writing(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        code = run(["synth", "--subjects", "2", "--frames-per-subject", "1",
                    "--ceiling", "inf", "--seed", "1", "--out", out])
        assert code != 0
        assert capsys.readouterr().err == (
            "pressmat synth: error: sensor_ceiling must be finite and positive, got inf\n")
        assert not os.path.exists(out)

    def test_no_partial_output_on_failure(self, tmp_path):
        out = str(tmp_path / "c")
        run([
            "synth", "--subjects", "2", "--frames-per-subject", "1",
            "--postures", "flying", "--seed", "1", "--out", out,
        ])
        assert not os.path.exists(out)


class TestPipeline:
    def test_features_csv_shape(self, small_pipeline):
        _, _, feats = small_pipeline
        table = load_feature_table(feats)
        assert len(table) == 60
        assert table.X.shape == (60, 14)
        assert os.path.exists(feats + ".meta.json")

    def test_eval_knn_and_report(self, small_pipeline, tmp_path, capsys):
        *_, feats = small_pipeline
        report_path = str(tmp_path / "report.json")
        assert run([
            "eval", "--features", feats, "--recipe", "knn", "--folds", "5",
            "--seed", "3", "--report-out", report_path,
        ]) == 0
        doc = json.loads(pathlib.Path(report_path).read_text())
        assert doc["config_echo"]["recipe"] == "knn"
        assert len(doc["per_fold"]) == 5
        assert run(["report", "--in", report_path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "identity_accuracy" in out
        assert run(["report", "--in", report_path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("metric,mean,std")

    def test_eval_too_few_frames_names_subject(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c")
        feats = str(tmp_path / "f.csv")
        run([
            "synth", "--subjects", "2", "--frames-per-subject", "9",
            "--rows", "8", "--cols", "16", "--seed", "2", "--out", corpus_dir,
        ])
        run(["features", "--in", corpus_dir, "--out", feats])
        code = run([
            "eval", "--features", feats, "--recipe", "knn", "--folds", "10",
            "--seed", "1", "--report-out", str(tmp_path / "r.json"),
        ])
        assert code != 0
        err = capsys.readouterr().err
        assert "S0" in err

    def test_eval_of_a_table_without_features_fails_naming_the_line(
            self, small_pipeline, tmp_path, capsys):
        *_, feats = small_pipeline
        header, *rows = pathlib.Path(feats).read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([header] + [
            ",".join(f[:3] + [""] * 14 + f[-1:]) for f in (r.split(",") for r in rows)]))
        report_path = tmp_path / "r.json"
        assert run(["eval", "--features", str(blank), "--recipe", "knn", "--folds", "3",
                    "--seed", "3", "--report-out", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pressmat eval: error: {blank}: line 2: feature_mask must be ")
        assert not report_path.exists()

    def test_knn_k_above_the_training_fold_fails(self, small_pipeline, tmp_path, capsys):
        *_, feats = small_pipeline
        report_path = tmp_path / "r.json"
        assert run(["eval", "--features", feats, "--recipe", "knn", "--knn-k", "100000",
                    "--folds", "5", "--seed", "3", "--report-out", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pressmat eval: error: 2 folds failed") and err.count("\n") == 1
        assert "k must be in 1..48, got 100000" in err
        assert not report_path.exists()

    @pytest.mark.parametrize("command", ["eval", "synth"])
    def test_missing_output_directory_fails_and_creates_nothing(
            self, small_pipeline, tmp_path, capsys, command):
        *_, feats = small_pipeline
        missing = tmp_path / "missing"
        out = str(missing / {"eval": "r.json", "synth": "raw"}[command])
        argv = {
            "eval": ["eval", "--features", feats, "--recipe", "knn", "--folds", "5",
                     "--seed", "3", "--report-out", out],
            "synth": ["synth", "--subjects", "2", "--frames-per-subject", "2", "--rows", "8",
                      "--cols", "8", "--seed", "1", "--out", out],
        }[command]
        before = sorted(os.listdir(tmp_path))
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pressmat {command}: error: ") and err.count("\n") == 1
        # the error names the output the user gave, not the temporary sibling
        assert f"'{out}'" in err and ".tmp" not in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_programming_error_in_a_recipe_keeps_its_traceback(
            self, small_pipeline, tmp_path, monkeypatch):
        *_, feats = small_pipeline

        def run_fold(self, train, test, seed):
            raise TypeError("injected bug")

        monkeypatch.setattr(evalharness.KnnRecipe, "run_fold", run_fold)
        with pytest.raises(TypeError, match="injected bug"):
            run(["eval", "--features", feats, "--recipe", "knn", "--folds", "5",
                 "--seed", "3", "--report-out", str(tmp_path / "r.json")])

    def test_train_writes_model(self, small_pipeline, tmp_path):
        *_, feats = small_pipeline
        model_path = str(tmp_path / "model.json")
        assert run([
            "train", "--features", feats, "--model-out", model_path,
            "--max-iter", "30", "--seed", "4",
        ]) == 0
        doc = json.loads(pathlib.Path(model_path).read_text())
        assert doc["format"] == "pressmat-multitask-model"
        assert doc["config"]["seed"] == 4

    def test_importance_knn(self, small_pipeline, tmp_path):
        *_, feats = small_pipeline
        out = str(tmp_path / "imp.json")
        assert run([
            "importance", "--features", feats, "--recipe", "knn",
            "--folds", "4", "--seed", "0", "--out", out,
        ]) == 0
        doc = json.loads(pathlib.Path(out).read_text())
        assert set(doc["importance"]) == {
            "max", "mode", "range", "entropy", "mean", "variance", "skewness",
            "kurtosis", "nonzero_count", "count_20_60", "count_60_100",
            "count_above_100", "num_isolines", "isoline_coord_sum",
        }

    def test_skip_filters_passthrough(self, tmp_path):
        corpus_dir = str(tmp_path / "c")
        out_dir = str(tmp_path / "o")
        run([
            "synth", "--subjects", "2", "--frames-per-subject", "2",
            "--rows", "8", "--cols", "8", "--seed", "1", "--out", corpus_dir,
        ])
        assert run([
            "preprocess", "--in", corpus_dir, "--out", out_dir, "--skip-filters",
        ]) == 0
        a = load_corpus(corpus_dir)
        b = load_corpus(out_dir)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.values, fb.values)

    def test_even_gaussian_window_fails(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "c")
        assert run([
            "synth", "--subjects", "2", "--frames-per-subject", "2",
            "--rows", "8", "--cols", "8", "--seed", "1", "--out", corpus_dir,
        ]) == 0
        capsys.readouterr()
        assert run([
            "preprocess", "--in", corpus_dir, "--out", str(tmp_path / "o"),
            "--gaussian-window", "4",
        ]) == 1
        assert capsys.readouterr().err == (
            "pressmat preprocess: error: gaussian window must be odd and positive, got 4\n")
        assert not (tmp_path / "o").exists()


class TestIngestCli:
    def test_pmatdata_roundtrip(self, tmp_path):
        raw = str(tmp_path / "raw")
        os.makedirs(raw)
        grid = GridSpec(4, 8, 1000.0, 1.5)
        subs = write_pmatdata_tree(raw, grid=grid)
        out = str(tmp_path / "c")
        # CLI uses the real 32x64 grid by default; our fixture is 4x8, so call
        # the adapter path through the library-level default override instead.
        from pressmat.adapters import ingest_pmatdata
        from pressmat.dataset import save_corpus
        corpus = ingest_pmatdata(raw, subjects_file=subs, grid=grid)
        save_corpus(corpus, out)
        assert len(load_corpus(out).frames) == len(corpus.frames)

    def test_ingest_missing_subjects_file(self, tmp_path, capsys):
        code = run([
            "ingest", "--adapter", "pmatdata",
            "--in", str(tmp_path), "--out", str(tmp_path / "o"),
        ])
        assert code != 0
        assert "subjects-file" in capsys.readouterr().err


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        c = str(tmp_path / "corpus")
        f = str(tmp_path / "features.csv")
        r = str(tmp_path / "report.json")

        def pipeline():
            assert run([
                "synth", "--subjects", "3", "--frames-per-subject", "12",
                "--rows", "8", "--cols", "16", "--noise-mult", "0.1",
                "--seed", "7", "--out", c,
            ]) == 0
            assert run(["features", "--in", c, "--out", f]) == 0
            assert run([
                "eval", "--features", f, "--recipe", "knn", "--folds", "4",
                "--seed", "7", "--report-out", r,
            ]) == 0
            return pathlib.Path(f).read_bytes(), pathlib.Path(r).read_bytes()

        f1, r1 = pipeline()
        f2, r2 = pipeline()  # identical command sequence rerun over the same paths
        assert f1 == f2
        assert r1 == r2
