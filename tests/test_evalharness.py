import dataclasses

import numpy as np
import pytest

from pressmat import baselines, features
from pressmat.cli import main as cli_main
from pressmat.evalharness import (
    EvaluationReport,
    GnbRecipe,
    KnnRecipe,
    LinregRecipe,
    MtnetRecipe,
    accuracy,
    confusion_matrix,
    drop_column_importance,
    make_folds,
    per_class_prf,
    r2,
    rmse,
    run_cv,
)
from pressmat.features import FeatureTable
from pressmat.mtnet import TrainConfig


def synthetic_table(n_subjects=4, frames=40, seed=0, subject_centers=True):
    """Feature table where identity and BMI are recoverable from the features.

    With ``subject_centers=False`` every feature except index 4 ("mean") is
    pure noise, so feature 4 is the only BMI signal.
    """
    rng = np.random.default_rng(seed)
    sids, bmis, rows = [], [], []
    for i in range(n_subjects):
        bmi = 18.0 + 4.0 * i
        center = rng.normal(size=14) * 2.0 if subject_centers else np.zeros(14)
        for _ in range(frames):
            x = center + rng.normal(0, 0.3, size=14)
            x[4] = bmi + rng.normal(0, 0.1)  # one BMI-informative feature
            rows.append(x)
            sids.append(f"S{i:02d}")
            bmis.append(bmi)
    n = len(rows)
    return FeatureTable(
        subject_ids=np.array(sids),
        posture_ids=np.ones(n, dtype=int),
        frame_indices=np.arange(n),
        X=np.array(rows),
        bmi=np.array(bmis),
        mask=(True,) * 14,
    )


class TestMakeFolds:
    def test_round_robin_counts(self):
        sids = np.array(["A"] * 20 + ["B"] * 20)
        plan = make_folds(sids, n_folds=10, seed=0)
        for fold in range(10):
            idx = plan.test_indices(fold)
            assert len(idx) == 4
            assert sorted(set(sids[idx])) == ["A", "B"]

    def test_partition_exact(self):
        sids = np.array(["A"] * 25 + ["B"] * 31)
        plan = make_folds(sids, n_folds=5, seed=1)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(56))

    def test_deterministic(self):
        sids = np.array(["A"] * 20 + ["B"] * 20)
        p1 = make_folds(sids, 10, seed=3)
        p2 = make_folds(sids, 10, seed=3)
        assert np.array_equal(p1.assignment, p2.assignment)

    def test_too_few_frames_names_subject(self):
        sids = np.array(["A"] * 20 + ["B"] * 5)
        with pytest.raises(ValueError, match="'B'"):
            make_folds(sids, n_folds=10, seed=0)


class TestMetrics:
    def test_r2_perfect_and_mean(self):
        t = np.array([1.0, 2.0, 3.0])
        assert r2(t, t) == 1.0
        assert r2(np.full(3, 2.0), t) == 0.0

    def test_r2_hand_value(self):
        assert r2(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0])) == pytest.approx(0.5)

    def test_r2_constant_truth_rejected(self):
        with pytest.raises(ValueError):
            r2(np.array([1.0, 2.0]), np.array([5.0, 5.0]))

    def test_rmse(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_accuracy_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_prf_all_correct(self):
        out = per_class_prf([0, 1, 2], [0, 1, 2], 3)
        assert np.all(out["precision"] == 1.0)
        assert np.all(out["recall"] == 1.0)
        assert np.all(out["f1"] == 1.0)
        assert np.array_equal(out["confusion"], np.eye(3, dtype=int))

    def test_prf_zero_positive_convention(self):
        truth = [0, 0, 1, 1]
        pred = [0, 0, 0, 0]
        out = per_class_prf(truth, pred, 2)
        assert out["precision"][1] == 0.0
        assert out["recall"][1] == 0.0
        assert out["f1"][1] == 0.0
        assert np.array_equal(out["confusion"], confusion_matrix(truth, pred, 2))

    def test_three_class_hand_matrix(self):
        # confusion rows=truth: [[2,1,0],[0,3,1],[1,0,2]]
        truth = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        pred = [0, 0, 1, 1, 1, 1, 2, 0, 2, 2]
        m = confusion_matrix(truth, pred, 3)
        assert m.tolist() == [[2, 1, 0], [0, 3, 1], [1, 0, 2]]
        out = per_class_prf(truth, pred, 3)
        assert np.array_equal(out["confusion"], m)
        assert out["precision"][0] == pytest.approx(2 / 3)
        assert out["recall"][0] == pytest.approx(2 / 3)
        assert out["precision"][1] == pytest.approx(3 / 4)
        assert out["recall"][1] == pytest.approx(3 / 4)
        assert out["precision"][2] == pytest.approx(2 / 3)
        assert out["recall"][2] == pytest.approx(2 / 3)
        assert m.sum() == len(truth)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestRunCv:
    def test_knn_memorizes_clean_data(self):
        table = synthetic_table(n_subjects=4, frames=30, seed=1)
        plan = make_folds(table.subject_ids, n_folds=5, seed=0)
        report = run_cv(table, KnnRecipe(k=1), plan)
        acc = report.aggregate["scalars"]["identity_accuracy"]["mean"]
        assert acc > 0.95

    def test_constant_bmi_predictor_r2_nonpositive(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=2)

        class ConstantRecipe:
            name = "constant"
            produces = ("bmi",)

            def run_fold(self, train, test, seed):
                return {"bmi_pred": np.full(len(test.bmi), train.bmi.mean())}

        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, ConstantRecipe(), plan)
        for entry in report.per_fold:
            assert entry["scalars"]["bmi_r2"] <= 1e-9

    def test_deterministic_reports(self, tmp_path):
        table = synthetic_table(n_subjects=3, frames=20, seed=3)
        plan = make_folds(table.subject_ids, n_folds=4, seed=5)
        p1 = str(tmp_path / "r1.json")
        p2 = str(tmp_path / "r2.json")
        run_cv(table, KnnRecipe(k=3), plan).save(p1)
        run_cv(table, KnnRecipe(k=3), plan).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_linreg_recipe_reports_regression_only(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=4)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, LinregRecipe(), plan)
        assert "bmi_r2" in report.aggregate["scalars"]
        assert "identity_accuracy" not in report.aggregate["scalars"]

    def test_aggregate_mean_matches_folds(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=6)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, KnnRecipe(k=3), plan)
        per_fold = [e["scalars"]["identity_accuracy"] for e in report.per_fold]
        agg = report.aggregate["scalars"]["identity_accuracy"]["mean"]
        assert agg == pytest.approx(np.mean(per_fold), abs=1e-12)

    def test_confusion_total_counts_all_test_frames(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=7)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, KnnRecipe(k=3), plan)
        total = np.asarray(report.aggregate["identity_confusion_total"]).sum()
        assert total == len(table)

    def test_mtnet_recipe_small(self):
        table = synthetic_table(n_subjects=3, frames=12, seed=8)
        plan = make_folds(table.subject_ids, n_folds=3, seed=0)
        recipe = MtnetRecipe(TrainConfig(max_iterations=60, seed=0))
        report = run_cv(table, recipe, plan)
        scalars = report.aggregate["scalars"]
        assert {"identity_accuracy", "bmi_r2", "bmi_rmse", "bmi_class_accuracy"} <= set(scalars)

    def test_report_round_trip(self, tmp_path):
        table = synthetic_table(n_subjects=3, frames=20, seed=9)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, KnnRecipe(k=3), plan)
        path = str(tmp_path / "report.json")
        report.save(path)
        loaded = EvaluationReport.load(path)
        assert loaded.aggregate == report.aggregate
        assert loaded.per_fold == report.per_fold

    def test_three_subjects_get_three_classes_as_in_the_cli(self, tmp_path):
        table = synthetic_table(n_subjects=3, frames=20, seed=13)
        path = str(tmp_path / "features.csv")
        features.save_feature_table(table, path)
        out = str(tmp_path / "report.json")
        assert cli_main(["eval", "--features", path, "--recipe", "gnb",
                         "--seed", "4", "--report-out", out]) == 0
        report = run_cv(table, GnbRecipe(), make_folds(table.subject_ids, n_folds=10, seed=4))
        assert report.failed_folds == []
        assert np.asarray(report.aggregate["bmi_class_confusion_total"]).shape == (3, 3)
        assert report.aggregate == EvaluationReport.load(out).aggregate

    def test_per_fold_csv(self, tmp_path):
        table = synthetic_table(n_subjects=3, frames=20, seed=10)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, KnnRecipe(k=3), plan)
        path = str(tmp_path / "folds.csv")
        report.save_per_fold_csv(path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 5  # header + 4 folds
        assert lines[0].startswith("fold,")


class TestDropColumnImportance:
    def test_single_signal_feature_dominates_r2(self):
        table = synthetic_table(n_subjects=4, frames=25, seed=11, subject_centers=False)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        imp = drop_column_importance(table, LinregRecipe(), plan)
        # feature index 4 ("mean") carries the BMI signal in the fixture
        assert imp["mean"]["bmi_r2"] > 0.2
        others = [v["bmi_r2"] for k, v in imp.items() if k != "mean"]
        assert max(np.abs(others)) < 0.1

    def test_duplicate_feature_near_zero_importance(self):
        table = synthetic_table(n_subjects=4, frames=25, seed=12, subject_centers=False)
        x = table.X.copy()
        x[:, 5] = x[:, 4]  # duplicate the informative column
        table2 = FeatureTable(
            subject_ids=table.subject_ids,
            posture_ids=table.posture_ids,
            frame_indices=table.frame_indices,
            X=x,
            bmi=table.bmi,
            mask=table.mask,
        )
        plan = make_folds(table2.subject_ids, n_folds=4, seed=0)
        imp = drop_column_importance(table2, LinregRecipe(), plan)
        assert abs(imp["mean"]["bmi_r2"]) < 0.05
        assert abs(imp["variance"]["bmi_r2"]) < 0.05


class TestFoldFailures:
    class FlakyRecipe:
        """Fails on selected folds, produces constant predictions otherwise."""

        name = "flaky"
        produces = ("bmi",)

        def __init__(self, bad_folds):
            self.bad_folds = bad_folds
            self.calls = 0

        def run_fold(self, train, test, seed):
            fold = self.calls
            self.calls += 1
            if fold in self.bad_folds:
                raise ValueError("synthetic fold failure")
            return {"bmi_pred": test.bmi + 0.1}

    def test_single_failure_marked_and_skipped(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=20)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, self.FlakyRecipe({1}), plan)
        assert [f["fold"] for f in report.failed_folds] == [1]
        assert len(report.per_fold) == 3
        assert "bmi_r2" in report.aggregate["scalars"]

    def test_two_failures_abort(self):
        table = synthetic_table(n_subjects=3, frames=20, seed=21)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        with pytest.raises(RuntimeError, match="2 folds failed"):
            run_cv(table, self.FlakyRecipe({0, 2}), plan)

    def test_programming_error_propagates(self):
        class BuggyRecipe(self.FlakyRecipe):
            def run_fold(self, train, test, seed):
                raise TypeError("synthetic bug")

        table = synthetic_table(n_subjects=3, frames=20, seed=22)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_cv(table, BuggyRecipe(set()), plan)



def shared_bmi_table():
    """Five subjects, S03 and S04 at one BMI: four distinct BMIs make no 5 classes."""
    table = synthetic_table(n_subjects=5, frames=20, seed=30)
    bmi = np.where(table.subject_ids == "S04", 30.0, table.bmi)
    return dataclasses.replace(table, bmi=bmi)


def importance_without_sharing(table, recipe, plan):
    """drop_column_importance as a loop of run_cv calls that each build their maps."""
    def mean(report, name):
        return report.aggregate["scalars"][name]["mean"]

    full = run_cv(table, recipe, plan)
    out = {}
    for j in table.active_indices:
        rep = run_cv(table.with_feature_dropped(int(j)), recipe, plan)
        out[features.FEATURE_NAMES[int(j)]] = {
            name: mean(full, name) - mean(rep, name)
            for name in ("identity_accuracy", "bmi_r2") if name in full.aggregate["scalars"]
        }
    return out


class TestSharedClassMaps:
    """Every fold of one run_cv call scores against one class map."""

    @pytest.fixture
    def build_calls(self, monkeypatch):
        calls = []
        build = baselines.build_bmi_classes

        def counting(bmi_by_subject, k=None):
            calls.append(k)
            return build(bmi_by_subject, k=k)

        monkeypatch.setattr(baselines, "build_bmi_classes", counting)
        return calls

    @pytest.mark.parametrize("recipe", [KnnRecipe(k=3), GnbRecipe()], ids=["knn", "gnb"])
    def test_matches_runs_that_share_nothing(self, recipe):
        table = synthetic_table(n_subjects=5, frames=20, seed=31).with_feature_dropped(9)
        plan = make_folds(table.subject_ids, n_folds=4, seed=2)
        shared = drop_column_importance(table, recipe, plan)
        assert shared == importance_without_sharing(table, recipe, plan)

    def test_one_build_per_run_cv(self, build_calls):
        table = synthetic_table(n_subjects=4, frames=20, seed=32)
        plan = make_folds(table.subject_ids, n_folds=5, seed=7)
        run_cv(table, KnnRecipe(k=3), plan)
        assert build_calls == [None]
        build_calls.clear()
        drop_column_importance(table, KnnRecipe(k=3), plan)
        assert build_calls == [None] * (1 + len(table.active_indices))

    def test_least_squares_builds_no_classes(self, build_calls):
        table = synthetic_table(n_subjects=4, frames=20, seed=33)
        plan = make_folds(table.subject_ids, n_folds=5, seed=0)
        run_cv(table, LinregRecipe(), plan)
        drop_column_importance(table, LinregRecipe(), plan)
        assert build_calls == []

    def test_every_fold_failing_aborts_as_run_cv_does(self, build_calls):
        table = shared_bmi_table()
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        with pytest.raises(ValueError) as alone:
            run_cv(table, KnnRecipe(k=3), plan)
        assert build_calls == [None]  # one build, before any fold
        with pytest.raises(ValueError) as shared:
            drop_column_importance(table, KnnRecipe(k=3), plan)
        assert str(alone.value) == "insufficient diversity: 4 distinct BMI values for 5 classes"
        assert str(shared.value) == str(alone.value)


class TestClassesOnlyWhenUsed:
    class Recorder:
        """Records each fold's arrays and predicts the truth."""

        name = "recorder"

        def __init__(self, produces):
            self.produces = produces
            self.folds = []

        def run_fold(self, train, test, seed):
            self.folds.append((train, test))
            preds = {"identity_pred_idx": test.subject_idx, "bmi_pred": test.bmi + 0.1}
            if "bmi_class" in self.produces:
                preds["bmi_class_pred"] = test.bmi_class
            return preds

    def test_least_squares_runs_where_classes_cannot_be_built(self):
        table = shared_bmi_table()
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, LinregRecipe(), plan)
        assert report.failed_folds == []
        assert "bmi_r2" in report.aggregate["scalars"]
        recorder = self.Recorder(("identity", "bmi"))
        run_cv(table, recorder, plan)
        assert all(tr.bmi_class is None and te.bmi_class is None for tr, te in recorder.folds)
        with pytest.raises(ValueError, match="insufficient diversity"):
            run_cv(table, KnnRecipe(k=3), plan)

    def test_unbuildable_classes_raise_before_any_fold(self):
        table = shared_bmi_table()
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        recorder = self.Recorder(("identity", "bmi", "bmi_class"))
        with pytest.raises(ValueError, match="insufficient diversity"):
            run_cv(table, recorder, plan)
        with pytest.raises(ValueError, match="insufficient diversity"):
            drop_column_importance(table, recorder, plan)
        assert recorder.folds == []

    def test_fold_arrays_match_the_per_row_lookup(self):
        names = ["S2", "S10", "S1", "S3"]  # sorted: S1, S10, S2, S3
        base = synthetic_table(n_subjects=4, frames=20, seed=35)
        rows = np.random.default_rng(0).permutation(len(base))
        table = dataclasses.replace(
            base,
            subject_ids=np.array([names[int(s[1:])] for s in base.subject_ids])[rows],
            X=base.X[rows],
            bmi=base.bmi[rows],
        ).with_feature_dropped(2)
        plan = make_folds(table.subject_ids, n_folds=5, seed=4)
        recorder = self.Recorder(("identity", "bmi", "bmi_class"))
        report = run_cv(table, recorder, plan)
        assert report.identity_classes == ["S1", "S10", "S2", "S3"]
        sid_to_idx = {s: i for i, s in enumerate(report.identity_classes)}
        class_map = baselines.build_bmi_classes(table.bmi_by_subject())
        for fold, (train, test) in enumerate(recorder.folds):
            for got, idx in ((train, plan.train_indices(fold)), (test, plan.test_indices(fold))):
                sids = table.subject_ids[idx]
                want_idx = np.array([sid_to_idx[s] for s in sids], dtype=int)
                want_cls = np.array([class_map[s] for s in sids], dtype=int)
                assert np.array_equal(got.subject_ids, sids)
                assert got.subject_idx.dtype == want_idx.dtype
                assert np.array_equal(got.subject_idx, want_idx)
                assert got.bmi_class.dtype == want_cls.dtype
                assert np.array_equal(got.bmi_class, want_cls)
                assert np.array_equal(got.bmi, table.bmi[idx])
                assert np.array_equal(got.x, table.active_matrix()[idx])
                assert got.x.shape[1] == 13
