"""10-fold cross-validation comparing the multitask network against the
classical baselines, plus drop-column feature importance.

Folds are frame-level and stratified per subject (every subject stays in
every training split, which identity classification requires).
Normalization is refit inside each fold; the BMI classes re-cluster every
subject's table-wide BMI in each fold with seed ``plan.seed + fold``.
Drop-column importance reruns the CV once per feature and reuses one class map
per fold across those runs, since dropping a feature leaves every BMI as it is.
"""

import numpy as np

from pressmat import (
    GridSpec,
    NoiseSpec,
    TrainConfig,
    denoise_corpus,
    drop_column_importance,
    extract_table,
    generate_corpus,
    make_folds,
    run_cv,
)
from pressmat.evalharness import GnbRecipe, KnnRecipe, LinregRecipe, MtnetRecipe

corpus = generate_corpus(
    n_subjects=6, frames_per_subject=60, postures=("supine", "left", "right"),
    noise=NoiseSpec(0.1, 0.02, 0.5), grid=GridSpec(32, 64, 1000.0, 1.5), seed=1,
)
table = extract_table(denoise_corpus(corpus))
plan = make_folds(table.subject_ids, n_folds=10, seed=0)

recipes = [
    KnnRecipe(k=10, metric="euclidean"),
    GnbRecipe(),
    LinregRecipe(),
    MtnetRecipe(TrainConfig(max_iterations=150, seed=0)),
]

print(f"{len(table)} frames, {plan.n_folds} folds\n")
print(f"{'recipe':8s} {'identity acc':>14s} {'BMI R^2':>10s} {'5-class acc':>12s}")
for recipe in recipes:
    report = run_cv(table, recipe, plan)
    s = report.aggregate["scalars"]

    def fmt(name):
        if name not in s:
            return "-".rjust(10)
        return f"{s[name]['mean']:.3f}+/-{s[name]['std']:.3f}"

    print(f"{recipe.name:8s} {fmt('identity_accuracy'):>14s} "
          f"{fmt('bmi_r2'):>10s} {fmt('bmi_class_accuracy'):>12s}")

# drop-column importance with the fast kNN recipe
print("\ndrop-column importance (kNN, change in identity accuracy):")
imp = drop_column_importance(table, KnnRecipe(k=10), plan)
ranked = sorted(imp.items(), key=lambda kv: -kv[1]["identity_accuracy"])
for name, delta in ranked[:6]:
    print(f"  {name:18s} {delta['identity_accuracy']:+.4f}")
