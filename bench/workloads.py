"""The benchmark's inputs and its three workloads.

Inputs: criterion 3's cohort (the eight subjects and body shapes that
``generate_corpus`` draws from seed 20240901) rendered into 8 x 48 frames on a
32 x 64 grid, three postures, noise 0.1 / 0.02 / 0.5. The workload seed drives
every frame's gain noise, dropout and jitter. The cohort is fixed because the
cross-validated quality metrics depend mostly on the cohort's BMI spread: over
ten seeds, redrawing the cohort spread linear-regression BMI RMSE by 34 %
(interquartile range over median), a fixed cohort by 4 %.

Each workload has a set-up (timed by the runner), a warm-up, one timed pass,
an untimed step after each pass, and a ``finish`` that runs the checks and
gathers what the metrics need. A workload whose ``best_of_units`` is set cuts
each pass into units, the same units in the same order on every pass, so that
the runner can take each unit's best time (see README.md, "Run statistics").
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from pressmat import dataset, evalharness, features, mtnet, preprocess, synthgen
from pressmat.dataset import Corpus, GridSpec, PressureFrame

import checks

COHORT_SEED = 20240901
N_SUBJECTS = 8
FRAMES_PER_SUBJECT = 48
POSTURES = ("supine", "left", "right")
GRID = GridSpec(32, 64, 1000.0, 1.5)
NOISE = synthgen.NoiseSpec(multiplicative_sigma=0.1, dropout_prob=0.02, jitter_sigma_cells=0.5)

N_FOLDS = 10
PLAN_SEED = 0
# Low enough that two 10-fold passes fit in a run, high enough that the
# class head stays a minor share of fit time (10-13 % here; at cap 40 it was
# over a fifth).
TRUNK_CAP = 60
KNN_K = 10
REFERENCE_SAMPLE = 12  # frames recomputed through the reference contour path


def make_corpus(seed: int) -> Corpus:
    """Criterion 3's cohort with every frame rendered from ``seed``."""
    cohort = synthgen.generate_corpus(N_SUBJECTS, 1, POSTURES, NOISE, GRID,
                                      seed=COHORT_SEED).subjects
    shape_rng = np.random.default_rng([COHORT_SEED, 1])
    models = {sid: synthgen.body_model(cohort[sid], GRID, shape_rng) for sid in sorted(cohort)}
    rng = np.random.default_rng(seed)
    frames = []
    for sid in sorted(cohort):
        counters = dict.fromkeys(POSTURES, 0)
        for j in range(FRAMES_PER_SUBJECT):
            posture = POSTURES[j % len(POSTURES)]
            values = synthgen.render_frame_values(models[sid], GRID, posture, NOISE, rng)
            frames.append(PressureFrame(GRID, values, sid, synthgen.POSTURE_IDS[posture],
                                        counters[posture]))
            counters[posture] += 1
    return Corpus(grid=GRID, subjects=cohort, frames=tuple(frames), name="bench")


def feature_table(seed: int) -> features.FeatureTable:
    """The table the featurize path produces, built in memory."""
    return features.extract_table(preprocess.denoise_corpus(make_corpus(seed)))


class FoldClock:
    """Clock stamps at the start and the end of every fold of the recipes
    that share it, and the number of folds whose recipe returned."""

    def __init__(self):
        self.stamps: list[float] = []
        self.completed = 0

    @property
    def fold_s(self) -> list[float]:
        return [end - start for start, end in zip(self.stamps[::2], self.stamps[1::2])]

    def units(self, start: float, end: float) -> list[float]:
        """``start`` to ``end`` cut at every stamp: each fold, and the
        harness's work before, between and after the folds."""
        marks = [start, *self.stamps, end]
        return [b - a for a, b in zip(marks, marks[1:])]


class TimedRecipe:
    """Passes folds to a library recipe and stamps each fold on ``clock``.

    run_cv accepts any object with ``name``, ``produces`` and ``run_fold``, so
    fold times come from outside the library without patching it.
    """

    def __init__(self, inner, clock: FoldClock):
        self.inner = inner
        self.name = inner.name
        self.produces = inner.produces
        self.clock = clock

    def run_fold(self, train, test, seed):
        self.clock.stamps.append(time.perf_counter())
        try:
            out = self.inner.run_fold(train, test, seed)
        finally:
            self.clock.stamps.append(time.perf_counter())
        self.clock.completed += 1
        return out


@dataclass
class PassResult:
    """What one timed pass leaves for the checks and the metrics.

    ``fold_s`` holds the folds that give the ``fold_s`` metric, in an order
    every pass repeats; ``unit_s``, of a workload with ``best_of_units``, the
    pass's units; ``folds_completed`` counts every fold whose recipe returned.
    """

    output: object
    unit_s: list[float] = field(default_factory=list)
    fold_s: list[float] = field(default_factory=list)
    folds_attempted: int = 0
    folds_completed: int = 0


def _cv(table, recipe, plan, clock: FoldClock):
    """run_cv with each fold stamped on ``clock``."""
    return evalharness.run_cv(table, TimedRecipe(recipe, clock), plan)


def _quality(classes_report, bmi_report) -> dict[str, float]:
    """CV-mean quality: identity and BMI class from one report, BMI from another."""
    def mean(report, name):
        return report.aggregate["scalars"][name]["mean"]
    return {
        "identity_accuracy": mean(classes_report, "identity_accuracy"),
        "bmi_class_accuracy": mean(classes_report, "bmi_class_accuracy"),
        "bmi_r2": mean(bmi_report, "bmi_r2"),
        "bmi_rmse": mean(bmi_report, "bmi_rmse"),
    }


def _fold_counts(passes: list[PassResult]) -> dict:
    """Fold counts of the timed passes; a fold fails when its recipe raises
    or run_cv never reaches it."""
    attempted = sum(p.folds_attempted for p in passes)
    completed = sum(p.folds_completed for p in passes)
    return {
        "folds_attempted": attempted,
        "folds_completed": completed,
        "attempted": attempted,
        "failed": attempted - completed,
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------

@dataclass
class FeaturizeOutput:
    extracted: features.FeatureTable | None
    loaded: features.FeatureTable
    denoised: Corpus | None
    # filled in after the pass, which also drops the two large fields above
    errors: list[str] = field(default_factory=list)
    knn: object = None
    linreg: object = None


class Featurize:
    """Corpus save and load, denoise, features, feature-table save and load.

    The quality metrics of this workload are the kNN and least-squares CV
    scores of the table it produced. They are computed after each pass,
    outside the timed region, and move only if the features change.
    """

    name = "featurize"
    best_of_units = False

    def setup(self, seed: int):
        return make_corpus(seed)

    def warm_up(self, corpus, workdir: str):
        pass

    def run_pass(self, corpus: Corpus, workdir: str) -> PassResult:
        corpus_dir = os.path.join(workdir, "corpus")
        table_path = os.path.join(workdir, "features.csv")
        dataset.save_corpus(corpus, corpus_dir)
        loaded_corpus = dataset.load_corpus(corpus_dir)
        denoised = preprocess.denoise_corpus(loaded_corpus)
        table = features.extract_table(denoised)
        features.save_feature_table(table, table_path)
        loaded = features.load_feature_table(table_path)
        return PassResult(FeaturizeOutput(table, loaded, denoised))

    def after_pass(self, result: PassResult):
        out = result.output
        n = len(out.denoised.frames)
        sample = np.linspace(0, n - 1, REFERENCE_SAMPLE).astype(int)
        out.errors = (checks.table_round_trip(out.extracted, out.loaded)
                      + checks.table_matches_reference(out.denoised, out.loaded, sample))
        out.extracted = out.denoised = None
        plan = evalharness.make_folds(out.loaded.subject_ids, N_FOLDS, PLAN_SEED)
        clock = FoldClock()
        out.knn = _cv(out.loaded, evalharness.KnnRecipe(k=KNN_K), plan, clock)
        result.fold_s = clock.fold_s
        out.linreg = evalharness.run_cv(out.loaded, evalharness.LinregRecipe(), plan)
        result.folds_attempted = 2 * N_FOLDS
        result.folds_completed = len(out.knn.per_fold) + len(out.linreg.per_fold)

    def finish(self, corpus: Corpus, passes: list[PassResult], workdir: str) -> dict:
        outputs = [p.output for p in passes]
        knn = [o.knn for o in outputs]
        linreg = [o.linreg for o in outputs]
        n = len(corpus.frames)
        errors = [e for o in outputs for e in o.errors]
        errors += checks.tables_repeat([o.loaded for o in outputs])
        errors += checks.reports_repeat(knn) + checks.reports_repeat(linreg)
        errors += checks.no_failed_folds(knn + linreg)
        for r in knn + linreg:
            errors += checks.report_consistent(r, n)
        quality = _quality(knn[0], linreg[0])
        errors += checks.at_least(quality, BASELINE_FLOORS)
        return {
            **_fold_counts(passes),
            "errors": errors,
            "quality": quality,
            "frames": n,
            "attempted": n * len(outputs),
            "failed": sum(n - len(o.loaded) for o in outputs),
            "corpus_bytes": _dir_bytes(os.path.join(workdir, "corpus")),
        }


# ---------------------------------------------------------------------------
# train_cv
# ---------------------------------------------------------------------------

class TrainCv:
    """10-fold CV of the multitask net at a fixed trunk iteration cap."""

    name = "train_cv"
    best_of_units = False

    def __init__(self):
        self.stops: list[tuple[str, int]] = []

    def setup(self, seed: int):
        return feature_table(seed)

    def warm_up(self, table, workdir: str):
        # The first fit in a process runs ~25 % slower than later ones.
        mtnet.train(table.active_matrix(), table.subject_ids, table.bmi,
                    mtnet.TrainConfig(max_iterations=10, seed=PLAN_SEED))

    def run_pass(self, table, workdir: str) -> PassResult:
        plan = evalharness.make_folds(table.subject_ids, N_FOLDS, PLAN_SEED)
        clock = FoldClock()
        recipe = TimedRecipe(evalharness.MtnetRecipe(
            mtnet.TrainConfig(max_iterations=TRUNK_CAP, seed=PLAN_SEED)), clock)
        original = mtnet.train
        stops = self.stops

        def train(*args, **kwargs):
            # keeps each fit's stop reason for the checks; takes no time stamps
            model = original(*args, **kwargs)
            stops.append((model.train_result.stop_reason, model.train_result.n_iterations))
            return model

        mtnet.train = train
        try:
            report = evalharness.run_cv(table, recipe, plan)
        finally:
            mtnet.train = original
        return PassResult(report, fold_s=clock.fold_s, folds_attempted=N_FOLDS,
                          folds_completed=clock.completed)

    def after_pass(self, result: PassResult):
        pass

    def finish(self, table, passes: list[PassResult], workdir: str) -> dict:
        reports = [p.output for p in passes]
        n = len(table)
        quality = _quality(reports[0], reports[0])
        errors = []
        errors += checks.trunk_fits_hit_cap(self.stops, TRUNK_CAP)
        errors += checks.no_failed_folds(reports)
        errors += checks.reports_repeat(reports)
        for r in reports:
            errors += checks.report_consistent(r, n)
        errors += checks.at_least(quality, MTNET_FLOORS)
        return {"errors": errors, "quality": quality, "frames": n, **_fold_counts(passes)}


# ---------------------------------------------------------------------------
# importance
# ---------------------------------------------------------------------------

class Importance:
    """Drop-column importance with kNN, plus one GNB and one least-squares CV."""

    name = "importance"
    # A pass is 170 folds of ~1.5 ms and the harness's work around them; the
    # units' best times repeat across runs better than the pass mean does.
    best_of_units = True

    def setup(self, seed: int):
        return feature_table(seed)

    def warm_up(self, table, workdir: str):
        plan = evalharness.make_folds(table.subject_ids, N_FOLDS, PLAN_SEED)
        evalharness.run_cv(table, evalharness.KnnRecipe(k=KNN_K), plan)

    def run_pass(self, table, workdir: str) -> PassResult:
        clock = FoldClock()
        start = time.perf_counter()
        plan = evalharness.make_folds(table.subject_ids, N_FOLDS, PLAN_SEED)
        knn = TimedRecipe(evalharness.KnnRecipe(k=KNN_K), clock)
        importance = evalharness.drop_column_importance(table, knn, plan)
        gnb = _cv(table, evalharness.GnbRecipe(), plan, clock)
        linreg = _cv(table, evalharness.LinregRecipe(), plan, clock)
        end = time.perf_counter()
        run_cv_calls = 1 + len(table.active_indices) + 2
        return PassResult((importance, gnb, linreg), clock.units(start, end), clock.fold_s,
                          N_FOLDS * run_cv_calls, clock.completed)

    def after_pass(self, result: PassResult):
        pass

    def finish(self, table, passes: list[PassResult], workdir: str) -> dict:
        n = len(table)
        plan = evalharness.make_folds(table.subject_ids, N_FOLDS, PLAN_SEED)
        # drop_column_importance keeps its full kNN report to itself; the same
        # run repeated here gives the identity and BMI-class scores.
        knn = evalharness.run_cv(table, evalharness.KnnRecipe(k=KNN_K), plan)
        gnb = [p.output[1] for p in passes]
        linreg = [p.output[2] for p in passes]
        quality = _quality(knn, linreg[0])
        errors = []
        errors += checks.importance_repeats([p.output[0] for p in passes])
        errors += checks.reports_repeat(gnb) + checks.reports_repeat(linreg)
        errors += checks.no_failed_folds(gnb + linreg + [knn])
        for r in gnb + linreg + [knn]:
            errors += checks.report_consistent(r, n)
        errors += checks.at_least(quality, BASELINE_FLOORS)
        return {"errors": errors, "quality": quality, "frames": n, **_fold_counts(passes)}


# Plausibility floors: far below what the cohort gives (kNN identity ~0.99,
# least-squares R^2 ~0.98, mtnet at cap 60 identity ~0.9 and R^2 ~0.99), so
# they trip only when an output is broken, not when it shifts.
BASELINE_FLOORS = {"identity_accuracy": 0.7, "bmi_class_accuracy": 0.7, "bmi_r2": 0.7}
MTNET_FLOORS = {"identity_accuracy": 0.5, "bmi_class_accuracy": 0.7, "bmi_r2": 0.8}

WORKLOADS = {w.name: w for w in (Featurize, TrainCv, Importance)}
