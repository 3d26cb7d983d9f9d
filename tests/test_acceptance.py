"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 4 and 5 need the real PmatData corpus; point PRESSMAT_PMATDATA at a
canonical corpus directory (see README) to enable them, otherwise they skip.
PRESSMAT_PMATDATA_MAXITER overrides the 14,500-iteration training cap; caps
below 14,500 apply the documented 2-point threshold concession.
"""

import math
import os
import pathlib
import time

import numpy as np
import pytest

from pressmat import mtnet
from pressmat.cli import main as cli_main
from pressmat.dataset import GridSpec, load_corpus
from pressmat.evalharness import (
    GnbRecipe,
    KnnRecipe,
    MtnetRecipe,
    accuracy,
    confusion_matrix,
    make_folds,
    per_class_prf,
    r2,
    rmse,
    run_cv,
)
from pressmat.features import (
    extract_contour_features,
    extract_statistical,
    extract_table,
    select_contour_levels,
)
from pressmat.preprocess import denoise_corpus
from pressmat.synthgen import NoiseSpec, generate_corpus

from conftest import make_frame
from test_features import crossing_terms_oracle, oracle_statistical


def _report(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# Criterion 1: feature oracle equivalence
# ---------------------------------------------------------------------------

def _hot_cell_frame(r, c, value):
    v = np.zeros((4, 4))
    v[r, c] = value
    return make_frame(v)


def _band_frame(levels4):
    v = np.tile(np.asarray(levels4, dtype=float), (4, 1))
    return make_frame(v)


def _hand_contour_frames():
    """20 hand-constructed 4x4 frames with hand-derived isoline counts.

    Single hot cells produce one polyline per contour level strictly below
    the peak (closed when interior, open when on the border); column bands
    produce one open line per level below the max; the saddle frame follows
    the center-average rule.
    """
    frames = []

    # 1-8: single hot cell, varying position and peak
    # peak 40 -> step 2, levels 2..40; the level at 40 traces nothing: 19 lines
    frames.append((_hot_cell_frame(1, 1, 40.0), 19))
    # peak 41 -> step 5, levels 5..40, all below the peak: 8 lines
    frames.append((_hot_cell_frame(1, 1, 41.0), 8))
    frames.append((_hot_cell_frame(2, 2, 41.0), 8))
    frames.append((_hot_cell_frame(0, 0, 41.0), 8))   # corner: open arcs
    frames.append((_hot_cell_frame(0, 2, 41.0), 8))   # edge: open arcs
    frames.append((_hot_cell_frame(3, 1, 30.0), 14))  # step 2, levels 2..30, 30 empty
    frames.append((_hot_cell_frame(2, 1, 9.0), 4))    # step 2 (40>=9), levels 2,4,6,8
    frames.append((_hot_cell_frame(1, 2, 10.0), 4))   # levels 2..10; 10 empty

    # 9-12: monotone column bands, one open line per level below the max
    # bands (0,10,20,30): step 2, levels 2..30 (15); level 30 empty -> 14
    frames.append((_band_frame([0, 10, 20, 30]), 14))
    # bands (0,41,82,123): range 123 -> step 10, levels 10..120 (12), all < 123
    frames.append((_band_frame([0.0, 41.0, 82.0, 123.0]), 12))
    # bands (5,15,25,35): range 30 -> step 2, levels 6..34 (15); none at max -> 15
    frames.append((_band_frame([5.0, 15.0, 25.0, 35.0]), 15))
    # bands (0,100,200,300): range 300 -> step 20, levels 20..300 (15); 300 empty -> 14
    frames.append((_band_frame([0.0, 100.0, 200.0, 300.0]), 14))

    # 13-16: two hot cells
    # interior (1,1)=41 and corner (3,3)=41: step 5, levels 5..40 -> 2 lines each
    v = np.zeros((4, 4)); v[1, 1] = 41.0; v[3, 3] = 41.0
    frames.append((make_frame(v), 16))
    # unequal peaks: (1,1)=41, (3,3)=21: levels 5..40; levels 5..20 cross both
    # (2 lines x 4), levels 25..40 only the 41-peak (1 line x 4) -> 12
    v = np.zeros((4, 4)); v[1, 1] = 41.0; v[3, 3] = 21.0
    frames.append((make_frame(v), 12))
    # adjacent hot cells merge into one blob: (1,1)=(1,2)=41 -> 8 single loops
    v = np.zeros((4, 4)); v[1, 1] = 41.0; v[1, 2] = 41.0
    frames.append((make_frame(v), 8))
    # diagonal pair with low bridge: saddle handled by center average
    # levels: min 0 max 100 -> step 5, levels 5..100 (20)
    # level 5: 2x2 block above -> 1; levels 10..50: center avg 55 > level,
    # diagonal joined -> 1 each (9); levels 55..95: separated -> 2 each (18);
    # level 100: empty -> 0. total 28
    v = np.zeros((4, 4)); v[1, 1] = 100.0; v[2, 2] = 100.0
    v[1, 2] = 10.0; v[2, 1] = 10.0
    frames.append((make_frame(v), 28))

    # 17-20: degenerate and plateau cases
    frames.append((make_frame(np.zeros((4, 4))), 0))
    frames.append((make_frame(np.full((4, 4), 7.0)), 0))
    # plateau 2x2 block at 41 (interior): loops around the block, 8 levels
    v = np.zeros((4, 4)); v[1:3, 1:3] = 41.0
    frames.append((make_frame(v), 8))
    # full-width band rows 1-2 at 41: two open lines per level (top and bottom
    # edges of the band), levels 5..40 -> 16
    v = np.zeros((4, 4)); v[1:3, :] = 41.0
    frames.append((make_frame(v), 16))

    assert len(frames) == 20
    return frames


def test_criterion_1_feature_oracles():
    start = time.perf_counter()

    rng = np.random.default_rng(20240901)
    grid = GridSpec(8, 8, 1000.0, 1.5)
    for _ in range(500):
        v = rng.uniform(0.0, 1000.0, size=(8, 8))
        v[rng.random((8, 8)) < 0.35] = 0.0
        frame = make_frame(v, grid=grid)
        got = extract_statistical(frame)
        want = oracle_statistical(v, 1000.0)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    for frame, want_count in _hand_contour_frames():
        got_count, got_sum = extract_contour_features(frame)
        assert got_count == want_count, (
            f"isoline count {got_count} != hand count {want_count} for\n{frame.values}"
        )
        terms = []
        for level in select_contour_levels(frame):
            terms.extend(crossing_terms_oracle(frame.values, level))
        assert got_sum == math.fsum(terms)  # exact: identical crossing terms

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _report(1, f"12 statistical features match the brute-force oracle on 500 "
               f"random frames (<=1e-9); contour features exact on 20 hand "
               f"frames ({elapsed:.1f}s, {10.0 - elapsed:.1f}s inside the 10s budget)")


# ---------------------------------------------------------------------------
# Criterion 2: gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_matches_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    n, F, M = 8, 14, 5
    X = rng.normal(size=(n, F))
    subjects = np.array([f"P{i % M}" for i in range(n)])
    bmi = rng.uniform(18, 35, size=n)
    model = mtnet.train(X, subjects, bmi, mtnet.TrainConfig(max_iterations=1, seed=1))

    dims = mtnet._layer_dims(F, M)
    xn = (X - model.norm_mean) / model.norm_std
    y = np.searchsorted(model.subject_ids, subjects)
    theta = mtnet._pack(model.weights, model.biases)

    def fun(t):
        return mtnet._batch_loss_grad(t, dims, xn, y, bmi, 1e-4)

    _, grad = fun(theta)
    h = 1e-5
    worst = 0.0
    for i in rng.choice(len(theta), size=50, replace=False):
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        fd = (fun(tp)[0] - fun(tm)[0]) / (2 * h)
        rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s (budget 5s)"
    _report(2, f"analytic gradient vs central differences: worst relative "
               f"error {worst:.2e} over 50 coordinates, {1e-4 - worst:.2e} under "
               f"the 1e-4 bound ({elapsed:.1f}s, {5.0 - elapsed:.1f}s inside the 5s budget)")


# ---------------------------------------------------------------------------
# Criterion 3: synthetic end-to-end
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_synthetic_end_to_end():
    start = time.perf_counter()
    corpus = generate_corpus(
        n_subjects=8,
        frames_per_subject=200,
        postures=("supine", "left", "right"),
        noise=NoiseSpec(multiplicative_sigma=0.1, dropout_prob=0.02,
                        jitter_sigma_cells=0.5),
        grid=GridSpec(32, 64, 1000.0, 1.5),
        seed=20240901,
    )
    table = extract_table(denoise_corpus(corpus))
    plan = make_folds(table.subject_ids, n_folds=10, seed=0)
    recipe = MtnetRecipe(mtnet.TrainConfig(max_iterations=500, seed=0))
    report = run_cv(table, recipe, plan)

    assert not report.failed_folds
    acc = report.aggregate["scalars"]["identity_accuracy"]["mean"]
    bmi_r2 = report.aggregate["scalars"]["bmi_r2"]["mean"]
    assert acc >= 0.90, f"identity accuracy {acc:.4f} < 0.90"
    assert bmi_r2 >= 0.90, f"BMI R^2 {bmi_r2:.4f} < 0.90"

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.0f}s (budget 600s)"
    _report(3, f"synthetic 8x200 pipeline, 10-fold mtnet (cap 500): identity "
               f"accuracy {acc:.4f} ({acc - 0.90:+.4f} over 0.90), BMI R^2 "
               f"{bmi_r2:.4f} ({bmi_r2 - 0.90:+.4f} over 0.90) ({elapsed:.0f}s, "
               f"{600.0 - elapsed:.0f}s inside the 600s budget)")


# ---------------------------------------------------------------------------
# Criteria 4-5: PmatData reproduction (conditional on the dataset)
# ---------------------------------------------------------------------------

def _pmatdata_table():
    root = os.environ.get("PRESSMAT_PMATDATA")
    if not root:
        pytest.skip("PmatData not available (set PRESSMAT_PMATDATA to a "
                    "canonical corpus directory)")
    corpus = load_corpus(root)
    return extract_table(denoise_corpus(corpus))


def test_criterion_4_pmatdata_multitask():
    table = _pmatdata_table()
    max_iter = int(os.environ.get("PRESSMAT_PMATDATA_MAXITER", "14500"))
    concession = 0.02 if max_iter < 14500 else 0.0
    plan = make_folds(table.subject_ids, n_folds=10, seed=0)
    recipe = MtnetRecipe(mtnet.TrainConfig(max_iterations=max_iter, seed=0))
    report = run_cv(table, recipe, plan)

    acc = report.aggregate["scalars"]["identity_accuracy"]["mean"]
    bmi_r2 = report.aggregate["scalars"]["bmi_r2"]["mean"]
    bmi_rmse = report.aggregate["scalars"]["bmi_rmse"]["mean"]
    cls_acc = report.aggregate["scalars"]["bmi_class_accuracy"]["mean"]
    assert acc >= 0.96 - concession
    assert bmi_r2 >= 0.95 - concession
    assert bmi_rmse <= 1.0
    assert cls_acc >= 0.96 - concession
    _report(4, f"PmatData mtnet (cap {max_iter}): identity {acc:.4f} "
               f"({acc - (0.96 - concession):+.4f}), R^2 {bmi_r2:.4f} "
               f"({bmi_r2 - (0.95 - concession):+.4f}), RMSE {bmi_rmse:.3f} "
               f"({1.0 - bmi_rmse:+.3f} under 1.0), 5-class {cls_acc:.4f} "
               f"({cls_acc - (0.96 - concession):+.4f}); margins over the bounds "
               f"after a {concession:.2f} concession")


def test_criterion_5_pmatdata_baselines():
    table = _pmatdata_table()
    plan = make_folds(table.subject_ids, n_folds=10, seed=0)
    knn_report = run_cv(table, KnnRecipe(k=10, metric="euclidean"), plan)
    gnb_report = run_cv(table, GnbRecipe(), plan)
    knn_acc = knn_report.aggregate["scalars"]["identity_accuracy"]["mean"]
    gnb_acc = gnb_report.aggregate["scalars"]["identity_accuracy"]["mean"]
    assert knn_acc >= 0.94
    assert knn_acc - gnb_acc >= 0.30
    _report(5, f"PmatData baselines: kNN {knn_acc:.4f} ({knn_acc - 0.94:+.4f} over "
               f"0.94), NB {gnb_acc:.4f} (ordering gap {knn_acc - gnb_acc:.2f}, "
               f"{knn_acc - gnb_acc - 0.30:+.2f} over 0.30)")


# ---------------------------------------------------------------------------
# Criterion 6: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_6_cli_determinism(tmp_path):
    c = str(tmp_path / "corpus")
    d = str(tmp_path / "denoised")
    f = str(tmp_path / "features.csv")
    r = str(tmp_path / "report.json")

    def pipeline():
        assert cli_main([
            "synth", "--subjects", "3", "--frames-per-subject", "15",
            "--rows", "16", "--cols", "32", "--noise-mult", "0.1",
            "--noise-dropout", "0.02", "--seed", "13", "--out", c,
        ]) == 0
        assert cli_main(["preprocess", "--in", c, "--out", d]) == 0
        assert cli_main(["features", "--in", d, "--out", f]) == 0
        assert cli_main([
            "eval", "--features", f, "--recipe", "knn", "--folds", "5",
            "--seed", "13", "--report-out", r,
        ]) == 0
        return pathlib.Path(f).read_bytes(), pathlib.Path(r).read_bytes()

    f1, r1 = pipeline()
    f2, r2_ = pipeline()
    assert f1 == f2
    assert r1 == r2_
    _report(6, "CLI pipeline rerun with identical seeds is byte-identical "
               "(features.csv and report.json)")


# ---------------------------------------------------------------------------
# Criterion 7: metric unit suite
# ---------------------------------------------------------------------------

def test_criterion_7_metric_identities():
    t = np.array([1.0, 2.0, 3.0])
    assert r2(t, t) == 1.0
    assert r2(np.full(3, 2.0), t) == 0.0
    assert r2(np.array([1.0, 2.0, 4.0]), t) == 0.5
    assert rmse(t, t) == 0.0
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    out = per_class_prf([0, 1, 2], [0, 1, 2], 3)
    assert np.all(out["precision"] == 1.0)
    assert np.all(out["recall"] == 1.0)
    assert np.all(out["f1"] == 1.0)

    out = per_class_prf([0, 0, 1, 1], [0, 0, 0, 0], 2)
    assert out["precision"][1] == 0.0 and out["recall"][1] == 0.0

    truth = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
    pred = [0, 0, 1, 1, 1, 1, 2, 0, 2, 2]
    m = confusion_matrix(truth, pred, 3)
    assert m.tolist() == [[2, 1, 0], [0, 3, 1], [1, 0, 2]]
    assert m.sum() == 10
    prf = per_class_prf(truth, pred, 3)
    assert prf["precision"][0] == pytest.approx(2 / 3)
    assert prf["recall"][1] == pytest.approx(3 / 4)
    assert prf["f1"][2] == pytest.approx(2 * (2 / 3) * (2 / 3) / (4 / 3))

    _report(7, "R^2, RMSE, accuracy, P/R/F1 and confusion identities all exact")
