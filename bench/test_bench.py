"""The benchmark's own tests: each output check rejects a corrupted output, the
tracer restores what it patches and its times add up, and the metric names
match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import time
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pressmat import evalharness, features, mtnet, preprocess, synthgen  # noqa: E402
from pressmat.dataset import GridSpec  # noqa: E402


@pytest.fixture(scope="module")
def small():
    """Six subjects x 10 frames on an 8 x 16 grid: raw corpus, denoised corpus, table."""
    corpus = synthgen.generate_corpus(
        6, 10, noise=synthgen.NoiseSpec(0.1, 0.02, 0.5),
        grid=GridSpec(8, 16, 1000.0, 1.5), seed=3)
    denoised = preprocess.denoise_corpus(corpus)
    return corpus, denoised, features.extract_table(denoised)


def _with_x(table, row, col, value):
    x = table.X.copy()
    x[row, col] = value
    return features.FeatureTable(table.subject_ids, table.posture_ids, table.frame_indices,
                                 x, table.bmi, table.mask)


def _linreg_report(table):
    plan = evalharness.make_folds(table.subject_ids, 10, 0)
    return evalharness.run_cv(table, evalharness.LinregRecipe(), plan)


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_table_checks_reject_a_changed_bit(small):
    _, _, table = small
    assert checks.tables_repeat([table, table]) == []
    assert checks.table_round_trip(table, table) == []
    bumped = _with_x(table, 5, 13, np.nextafter(table.X[5, 13], np.inf))
    assert checks.tables_repeat([table, bumped])
    assert checks.table_round_trip(table, bumped)


def test_csv_round_trip_check_passes_on_a_real_round_trip(small, tmp_path):
    _, _, table = small
    path = str(tmp_path / "features.csv")
    features.save_feature_table(table, path)
    assert checks.table_round_trip(table, features.load_feature_table(path)) == []


@pytest.mark.parametrize("col, delta", [(12, 1.0), (13, None), (3, None)])
def test_reference_check_rejects_corrupted_features(small, col, delta):
    _, denoised, table = small
    sample = range(len(table))
    assert checks.table_matches_reference(denoised, table, sample) == []
    old = table.X[7, col]
    new = old + delta if delta is not None else np.nextafter(old, np.inf)
    errors = checks.table_matches_reference(denoised, _with_x(table, 7, col, new), sample)
    assert errors and "row 7" in errors[0]


def test_report_checks_reject_corrupted_reports(small):
    _, _, table = small
    report = _linreg_report(table)
    n = len(table)
    assert checks.reports_repeat([report, _linreg_report(table)]) == []
    assert checks.no_failed_folds([report]) == []
    assert checks.report_consistent(report, n) == []

    changed = copy.deepcopy(report)
    changed.per_fold[3]["scalars"]["bmi_rmse"] = np.nextafter(
        changed.per_fold[3]["scalars"]["bmi_rmse"], 0.0)
    assert checks.reports_repeat([report, changed])
    changed.per_fold[3]["scalars"]["bmi_rmse"] *= 1.01
    assert checks.report_consistent(changed, n)

    failed = copy.deepcopy(report)
    failed.failed_folds.append({"fold": 2, "error": "ValueError: x"})
    assert checks.no_failed_folds([failed])
    assert checks.report_consistent(failed, n)  # 11 folds on a 10-fold plan


def test_consistency_check_rejects_a_wrong_confusion_total(small):
    _, _, table = small
    plan = evalharness.make_folds(table.subject_ids, 10, 0)
    report = evalharness.run_cv(table, evalharness.KnnRecipe(k=3), plan)
    assert checks.report_consistent(report, len(table)) == []
    report.aggregate["identity_confusion_total"][0][0] += 1
    assert checks.report_consistent(report, len(table))


def test_importance_check_rejects_a_changed_value():
    a = {"max": {"identity_accuracy": 0.0125}, "mode": {"identity_accuracy": -0.003}}
    b = copy.deepcopy(a)
    assert checks.importance_repeats([a, b]) == []
    b["mode"]["identity_accuracy"] = np.nextafter(-0.003, 0.0)
    assert checks.importance_repeats([a, b])


def test_trunk_cap_check_rejects_an_early_stop():
    assert checks.trunk_fits_hit_cap([("max_iterations", 60)] * 10, 60) == []
    assert checks.trunk_fits_hit_cap([("max_iterations", 60), ("loss_tol", 41)], 60)
    assert checks.trunk_fits_hit_cap([("max_iterations", 59)], 60)
    assert checks.trunk_fits_hit_cap([], 60)


def test_floor_check_rejects_a_low_or_nan_value():
    floors = {"bmi_r2": 0.7}
    assert checks.at_least({"bmi_r2": 0.98}, floors) == []
    assert checks.at_least({"bmi_r2": 0.2}, floors)
    assert checks.at_least({"bmi_r2": float("nan")}, floors)


def test_make_corpus_is_a_function_of_the_seed():
    a, b = workloads.make_corpus(5), workloads.make_corpus(5)
    c = workloads.make_corpus(6)
    assert a.subjects == c.subjects  # the cohort is fixed
    assert all(np.array_equal(f.values, g.values) for f, g in zip(a.frames, b.frames))
    assert not np.array_equal(a.frames[0].values, c.frames[0].values)


def test_best_of_passes_takes_each_units_shortest_time():
    assert run.best_of_passes([[3.0, 1.0, 2.0], [2.5, 1.5, 2.0], [4.0, 0.5, 2.5]]) == [
        2.5, 0.5, 2.0]
    with pytest.raises(RuntimeError):
        run.best_of_passes([[1.0, 2.0], [1.0]])


def test_patched_attributes_are_restored_after_an_error():
    tr = tracer.Tracer()
    original = features.trace_isolines
    with pytest.raises(RuntimeError):
        with tr.patched(tracer.targets(tr)):
            assert features.trace_isolines is not original
            raise RuntimeError("boom")
    assert features.trace_isolines is original
    assert evalharness.KnnRecipe.run_fold is evalharness.KnnRecipe.__dict__["run_fold"]


def test_traced_times_add_up_to_the_wall_time(small):
    raw, denoised, table = small
    tr = tracer.Tracer()
    with tr.patched(tracer.targets(tr)):
        start = time.perf_counter()
        traced = features.extract_table(preprocess.denoise_corpus(raw))
        plan = evalharness.make_folds(traced.subject_ids, 10, 0)
        evalharness.run_cv(traced, evalharness.KnnRecipe(k=3), plan)
        wall = time.perf_counter() - start
    m = tracer.pass_metrics(tr, wall)
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert m["preprocess.sessions"] == len(preprocess.split_sessions(denoised.frames))
    assert m["features.contour_levels"] == sum(
        len(features.select_contour_levels(f)) for f in denoised.frames)
    assert m["evalharness.folds"] == 10 and m["baselines.knn_calls"] == 20
    assert checks.tables_repeat([table, traced]) == []


def test_trunk_and_head_are_told_apart(small):
    _, _, table = small
    x = table.active_matrix()
    tr = tracer.Tracer()
    with tr.patched(tracer.targets(tr)):
        start = time.perf_counter()
        model = mtnet.train(x, table.subject_ids, table.bmi,
                            mtnet.TrainConfig(max_iterations=3, seed=0))
        labels = np.arange(len(table)) % 5
        mtnet.fit_bmi_class_head(model, x, labels, max_iterations=4)
        wall = time.perf_counter() - start
    m = tracer.pass_metrics(tr, wall)
    assert m["lbfgs.trunk_iterations"] == model.train_result.n_iterations == 3
    assert m["mtnet.loss_grad_calls"] == m["lbfgs.trunk_evaluations"]
    assert m["mtnet.loss_grad_calls"] == model.train_result.n_evaluations
    assert 1 <= m["lbfgs.head_iterations"] <= 4
    assert m["mtnet.gflops_per_s"] > 0 and m["lbfgs.computed_bytes_per_iteration"] > 0
