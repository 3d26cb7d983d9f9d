import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pressmat import baselines, features
from pressmat.cli import main as cli_main
from pressmat.evalharness import (
    CVAbortedError,
    EvaluationReport,
    FoldData,
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

    PAIRED_METRICS = {
        "r2": r2,
        "rmse": rmse,
        "accuracy": accuracy,
        "confusion_matrix": lambda pred, truth: confusion_matrix(truth, pred, 2),
    }

    @pytest.mark.parametrize("name", PAIRED_METRICS)
    @pytest.mark.parametrize("pred, truth", [([], []), ([0, 1], [0, 1, 1])],
                             ids=["empty", "mismatched"])
    def test_unpaired_inputs_rejected(self, name, pred, truth):
        with pytest.raises(ValueError, match=f"^{name} needs equal non-zero-length inputs$"):
            self.PAIRED_METRICS[name](pred, truth)

    @pytest.mark.parametrize("truth, pred", [([0, 1], [0, -1]), ([0, 1], [0, 2]),
                                             ([-1, 1], [0, 1]), ([2, 1], [0, 1])],
                             ids=["pred-negative", "pred-too-large",
                                  "truth-negative", "truth-too-large"])
    def test_confusion_rejects_labels_outside_the_classes(self, truth, pred):
        with pytest.raises(IndexError, match=r"labels must lie in 0\.\.1"):
            confusion_matrix(truth, pred, 2)
        with pytest.raises(IndexError):
            per_class_prf(truth, pred, 2)

    @given(st.integers(1, 6).flatmap(lambda c: st.tuples(
        st.just(c), st.lists(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)),
                             min_size=1, max_size=60))))
    @settings(max_examples=200, deadline=None)
    def test_confusion_matches_add_at_oracle(self, case):
        n_classes, pairs = case
        truth, pred = (np.array(col) for col in zip(*pairs))
        want = np.zeros((n_classes, n_classes), dtype=int)
        np.add.at(want, (truth, pred), 1)
        got = confusion_matrix(truth, pred, n_classes)
        assert got.dtype == want.dtype and np.array_equal(got, want)


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
        assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()

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
        lines = pathlib.Path(path).read_text().strip().splitlines()
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

    class Misreports:
        """Right on every fold but for one bug in what it returns."""

        name = "misreports"
        produces = ("identity", "bmi", "bmi_class")

        def __init__(self, bug):
            self.bug = bug

        def run_fold(self, train, test, seed):
            return self.bug({"identity_pred_idx": test.subject_idx,
                             "bmi_pred": test.bmi + 0.1,
                             "bmi_class_pred": test.bmi_class})

    # Importance scores neither the BMI classes nor BMI RMSE, yet a bad class
    # id or a short prediction must fail it exactly as it fails a full run.
    @pytest.mark.parametrize("path", [run_cv, drop_column_importance],
                             ids=["run_cv", "drop_column_importance"])
    @pytest.mark.parametrize("bug, error, match", [
        (lambda p: {**p, "identity_pred_idx": np.full(len(p["identity_pred_idx"]), -1)},
         IndexError, r"row 0 has .*prediction -1"),
        # three subjects, so three BMI classes, 0..2
        (lambda p: {**p, "bmi_class_pred": np.r_[p["bmi_class_pred"][:1], 3,
                                                 p["bmi_class_pred"][2:]]},
         IndexError, r"row 1 has .*prediction 3"),
        (lambda p: {**p, "bmi_class_pred": p["bmi_class_pred"][:-1]},
         CVAbortedError, "2 folds failed"),
        (lambda p: {**p, "bmi_pred": p["bmi_pred"][:-1]}, CVAbortedError, "2 folds failed"),
        (lambda p: {**p, "bmi_pred": p["bmi_pred"] * np.nan}, CVAbortedError, "2 folds failed"),
    ], ids=["identity-id-minus-one", "class-id-equal-to-the-class-count",
            "bmi-class-one-row-short", "bmi-one-row-short", "bmi-nan"])
    def test_label_outside_the_classes_propagates(self, path, bug, error, match):
        table = synthetic_table(n_subjects=3, frames=20, seed=23)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        with pytest.raises(error, match=match) as full_run:
            run_cv(table, self.Misreports(bug), plan)
        with pytest.raises(error) as raised:
            path(table, self.Misreports(bug), plan)
        assert str(raised.value) == str(full_run.value)

    def test_prediction_of_the_wrong_shape_fails_the_fold(self):
        class ColumnOnFold1(self.FlakyRecipe):
            def run_fold(self, train, test, seed):
                pred = super().run_fold(train, test, seed)["bmi_pred"]
                return {"bmi_pred": pred[:, None] if self.calls == 2 else pred}

        table = synthetic_table(n_subjects=3, frames=20, seed=24)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, ColumnOnFold1(set()), plan)
        assert [f["fold"] for f in report.failed_folds] == [1]
        assert "bmi_pred needs one entry per test row" in report.failed_folds[0]["error"]
        assert [e["fold"] for e in report.per_fold] == [0, 2, 3]

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_bmi_prediction_fails_the_fold(self, bad):
        class BadRowOnFold1(self.FlakyRecipe):
            def run_fold(self, train, test, seed):
                pred = super().run_fold(train, test, seed)["bmi_pred"]
                if self.calls == 2:
                    pred[3] = bad
                return {"bmi_pred": pred}

        table = synthetic_table(n_subjects=3, frames=20, seed=24)
        plan = make_folds(table.subject_ids, n_folds=4, seed=0)
        report = run_cv(table, BadRowOnFold1(set()), plan)
        assert [f["fold"] for f in report.failed_folds] == [1]
        error = report.failed_folds[0]["error"]
        assert f"bmi_pred must be finite: row 3, column 0 is {bad}" in error
        assert [e["fold"] for e in report.per_fold] == [0, 2, 3]
        assert np.isfinite(report.aggregate["scalars"]["bmi_r2"]["mean"])


def fold_pair():
    """Fold 0's training and test sides of a 3-subject table, one class per subject."""
    table = synthetic_table(n_subjects=3, frames=12, seed=8)
    _, idx = np.unique(table.subject_ids, return_inverse=True)
    plan = make_folds(table.subject_ids, n_folds=4, seed=0)
    return tuple(FoldData(table.active_matrix()[rows], idx[rows], table.bmi[rows], idx[rows])
                 for rows in (plan.train_indices(0), plan.test_indices(0)))


class TestRecipesCheckTheirRows:
    """A recipe fails on a non-finite row, and names the row that holds it."""

    @pytest.mark.parametrize("recipe", [GnbRecipe(), LinregRecipe(),
                                        MtnetRecipe(TrainConfig(max_iterations=2))],
                             ids=["gnb", "linreg", "mtnet"])
    def test_non_finite_test_row_raises(self, recipe):
        train, test = fold_pair()
        test.x[2, 5] = np.nan
        with pytest.raises(ValueError, match=r"^features must be finite: row 2, column 5 is nan$"):
            recipe.run_fold(train, test, seed=0)

    def test_knn_names_the_training_row_before_z_scoring(self):
        train, test = fold_pair()
        train.x[7, 2] = np.nan
        with pytest.raises(ValueError, match=r"^features must be finite: row 7, column 2 is nan$"):
            KnnRecipe(k=3).run_fold(train, test, seed=0)


# What each entry of a recipe's ``produces`` puts in the aggregate: scalars,
# mean/std arrays and confusion totals.
AGGREGATE_KEYS = {
    "identity": ({"identity_accuracy", "identity_precision_macro", "identity_recall_macro",
                  "identity_f1_macro"},
                 {"identity_precision", "identity_recall", "identity_f1"},
                 {"identity_confusion_total"}),
    "bmi": ({"bmi_r2", "bmi_rmse"}, set(), set()),
    "bmi_class": ({"bmi_class_accuracy"}, set(), {"bmi_class_confusion_total"}),
}


class TestAggregateContract:
    """The aggregate is computed from the completed folds' records alone."""

    @pytest.mark.parametrize("make_recipe, n_folds, n_failed", [
        (lambda: KnnRecipe(k=3), 4, 0),
        (GnbRecipe, 4, 0),
        (LinregRecipe, 4, 0),
        (lambda: TestFoldFailures.FlakyRecipe({1}), 4, 1),
        (lambda: TestFoldFailures.FlakyRecipe({0}), 2, 1),
    ], ids=["knn", "gnb", "linreg", "flaky-4-folds", "flaky-one-left"])
    def test_aggregate_is_exactly_the_fold_statistics(self, make_recipe, n_folds, n_failed):
        table = synthetic_table(n_subjects=4, frames=20, seed=40)
        recipe = make_recipe()
        report = run_cv(table, recipe, make_folds(table.subject_ids, n_folds=n_folds, seed=0))
        assert len(report.failed_folds) == n_failed
        assert len(report.per_fold) == n_folds - n_failed
        agg = report.aggregate
        scalars, arrays, totals = (set().union(*keys) for keys in
                                   zip(*(AGGREGATE_KEYS[p] for p in recipe.produces)))
        assert set(agg["scalars"]) == scalars
        assert set(agg["arrays"]) == arrays
        assert set(agg) - {"scalars", "arrays"} == totals
        for kind in ("scalars", "arrays"):
            for name, entry in agg[kind].items():
                folds = np.array([f[kind][name] for f in report.per_fold])
                std = (np.std(folds, axis=0, ddof=1) if len(folds) > 1
                       else np.zeros(folds.shape[1:]))
                assert entry == {"mean": np.mean(folds, axis=0).tolist(), "std": std.tolist()}
        for name in totals:
            folds = np.array([f["arrays"][name.removesuffix("_total")] for f in report.per_fold])
            assert agg[name] == folds.sum(axis=0).tolist()


class TestReportLoad:
    @staticmethod
    def _saved(tmp_path, edit):
        table = synthetic_table(n_subjects=3, frames=20, seed=42)
        report = run_cv(table, KnnRecipe(k=3), make_folds(table.subject_ids, n_folds=4, seed=0))
        doc = report.to_document()
        edit(doc)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        return report, str(path)

    def test_missing_key_named_with_the_path(self, tmp_path, capsys):
        _, path = self._saved(tmp_path, lambda doc: doc.pop("aggregate"))
        want = (rf"{re.escape(path)}: not a report: "
                rf"missing keys \['aggregate'\], unexpected keys \[\]$")
        with pytest.raises(ValueError, match=want):
            EvaluationReport.load(path)
        assert cli_main(["report", "--in", path]) == 1
        assert re.search(want, capsys.readouterr().err)

    def test_unexpected_key_named(self, tmp_path):
        _, path = self._saved(tmp_path, lambda doc: doc.update(aggregates={}))
        with pytest.raises(ValueError,
                           match=r"missing keys \[\], unexpected keys \['aggregates'\]$"):
            EvaluationReport.load(path)

    def test_non_object_document_named(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[]")
        want = rf"{re.escape(str(path))}: not a report: a JSON list, not an object$"
        with pytest.raises(ValueError, match=want):
            EvaluationReport.load(str(path))
        assert cli_main(["report", "--in", str(path)]) == 1
        assert re.search(want, capsys.readouterr().err)

    @pytest.mark.parametrize("aggregate", [{}, {"scalars": {}}, {"scalars": {}, "arrays": []}, []])
    def test_aggregate_without_scalars_and_arrays_named(self, tmp_path, capsys, aggregate):
        _, path = self._saved(tmp_path, lambda doc: doc.update(aggregate=aggregate))
        want = (rf"{re.escape(path)}: not a report: "
                r"aggregate needs 'scalars' and 'arrays'$")
        with pytest.raises(ValueError, match=want):
            EvaluationReport.load(path)
        assert cli_main(["report", "--in", path]) == 1
        assert re.search(want, capsys.readouterr().err)

    @pytest.mark.parametrize("entry", [1, {"mean": 0.5}, {"mean": "x", "std": 0.1}])
    def test_scalar_entry_without_numeric_mean_and_std_named(self, tmp_path, capsys, entry):
        _, path = self._saved(tmp_path, lambda doc: doc["aggregate"].update(scalars={"x": entry}))
        want = (rf"{re.escape(path)}: not a report: "
                r"aggregate scalar 'x' needs a numeric mean and std$")
        with pytest.raises(ValueError, match=want):
            EvaluationReport.load(path)
        assert cli_main(["report", "--in", path]) == 1
        assert re.search(want, capsys.readouterr().err)

    def test_missing_failed_folds_loads_as_none_failed(self, tmp_path):
        report, path = self._saved(tmp_path, lambda doc: doc.pop("failed_folds"))
        assert EvaluationReport.load(path) == report


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

    class SeedRecorder:
        """Passes folds to a recipe and records each fold's seed."""

        def __init__(self, inner):
            self.inner = inner
            self.name, self.produces = inner.name, inner.produces
            self.seeds = []

        def run_fold(self, train, test, seed):
            self.seeds.append(seed)
            return self.inner.run_fold(train, test, seed)

    @pytest.mark.parametrize("recipe", [KnnRecipe(k=3), GnbRecipe(), LinregRecipe()],
                             ids=["knn", "gnb", "linreg"])
    @pytest.mark.parametrize("lacking", [False, True], ids=["all-subjects", "fold-lacks-one"])
    def test_matches_runs_that_share_nothing(self, recipe, lacking):
        table = synthetic_table(n_subjects=5, frames=20, seed=31).with_feature_dropped(9)
        plan = make_folds(table.subject_ids, n_folds=4, seed=2)
        if lacking:  # every S00 row is tested in fold 1, so fold 1 trains without S00
            plan = dataclasses.replace(plan, assignment=np.where(
                table.subject_ids == "S00", 1, plan.assignment))
        runs = 1 + len(table.active_indices)
        reports = [run_cv(t, recipe, plan) for t in
                   [table] + [table.with_feature_dropped(int(j)) for j in table.active_indices]]
        assert all([f["fold"] for f in r.failed_folds] == ([1] if lacking else [])
                   for r in reports)
        recorder = self.SeedRecorder(recipe)
        shared = drop_column_importance(table, recorder, plan)
        assert json.dumps(shared) == json.dumps(importance_without_sharing(table, recipe, plan))
        folds_run = [f for f in range(plan.n_folds) if not (lacking and f == 1)]
        assert recorder.seeds == [plan.seed + f for f in folds_run] * runs

    def test_one_build_per_run_cv(self, build_calls):
        table = synthetic_table(n_subjects=4, frames=20, seed=32)
        plan = make_folds(table.subject_ids, n_folds=5, seed=7)
        run_cv(table, KnnRecipe(k=3), plan)
        assert build_calls == [None]
        build_calls.clear()
        drop_column_importance(table, KnnRecipe(k=3), plan)
        assert build_calls == [None]  # one split serves every drop-column run

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

    def test_shared_labels_cannot_be_written(self):
        class Scribbler(LinregRecipe):
            def run_fold(self, train, test, seed):
                train.bmi[:] = 0.0  # would corrupt every later run of the split
                return super().run_fold(train, test, seed)

        table = synthetic_table(n_subjects=4, frames=20, seed=34)
        plan = make_folds(table.subject_ids, n_folds=5, seed=0)
        with pytest.raises(CVAbortedError, match="read-only"):
            drop_column_importance(table, Scribbler(), plan)


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

    @pytest.mark.parametrize("table_frames, plan_frames", [(12, 20), (20, 12)])
    def test_plan_for_another_table_raises_before_any_fold(self, table_frames, plan_frames):
        table = synthetic_table(n_subjects=4, frames=table_frames, seed=3)
        other = synthetic_table(n_subjects=4, frames=plan_frames, seed=3)
        plan = make_folds(other.subject_ids, n_folds=4, seed=0)
        recorder = self.Recorder(("identity", "bmi", "bmi_class"))
        message = f"fold plan covers {4 * plan_frames} rows, table has {4 * table_frames}"
        with pytest.raises(ValueError, match=message):
            run_cv(table, recorder, plan)
        with pytest.raises(ValueError, match=message):
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
                assert got.subject_idx.dtype == want_idx.dtype
                assert np.array_equal(got.subject_idx, want_idx)
                assert got.bmi_class.dtype == want_cls.dtype
                assert np.array_equal(got.bmi_class, want_cls)
                assert np.array_equal(got.bmi, table.bmi[idx])
                assert np.array_equal(got.x, table.active_matrix()[idx])
                assert got.x.shape[1] == 13
