"""10-fold cross-validation, metrics, and drop-column feature importance.

Folds are frame-level and stratified per subject, so every subject appears in
every training split (identity classification needs that). Normalization is
refit inside each training fold. BMI classes are the exact least-squares
split of every subject's table-wide BMI (``FeatureTable.bmi_classes``, one
rule for the class count); they depend on the table alone, so each CV run
builds them once, before its first fold, and every fold scores against the
same labels. Drop-column importance builds the fold split, the labels and
the classes once for all its runs, which differ only in their features.
Each completed fold's metrics are its ``per_fold`` record, and the aggregate
is computed from those records alone: mean and sample (n-1) standard
deviation of every scalar and of the identity precision/recall/F1 arrays,
and confusion matrices summed over the folds. Every fold's predictions are
checked once before they are scored, so importance, which scores only the
two means it reports, fails on a recipe bug exactly as a full run does.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import baselines, mtnet
from .dataset import FEATURE_NAMES, atomic_write_text, check_keys, read_json, write_json
from .features import FeatureTable


@dataclass(frozen=True)
class FoldPlan:
    n_folds: int
    assignment: np.ndarray  # (n,) fold id per table row
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignment == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignment != fold)[0]


def make_folds(subject_ids, n_folds: int = 10, seed: int = 0) -> FoldPlan:
    """Shuffle each subject's frames and deal them round-robin into folds."""
    subject_ids = np.asarray(subject_ids)
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    rng = np.random.default_rng(seed)
    assignment = np.full(len(subject_ids), -1, dtype=int)
    for sid in sorted(set(subject_ids.tolist())):
        idx = np.nonzero(subject_ids == sid)[0]
        if len(idx) < n_folds:
            raise ValueError(
                f"subject {sid!r} has {len(idx)} frames, needs >= {n_folds} "
                f"for {n_folds}-fold stratification"
            )
        perm = rng.permutation(len(idx))
        assignment[idx[perm]] = np.arange(len(idx)) % n_folds
    return FoldPlan(n_folds=n_folds, assignment=assignment, seed=seed)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _paired(name: str, pred, truth, dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as arrays; ``name`` is the metric cited when they do not pair."""
    pred = np.asarray(pred, dtype=dtype)
    truth = np.asarray(truth, dtype=dtype)
    if len(pred) == 0 or len(pred) != len(truth):
        raise ValueError(f"{name} needs equal non-zero-length inputs")
    return pred, truth


def r2(pred, truth) -> float:
    pred, truth = _paired("r2", pred, truth, np.float64)
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("r2 undefined for constant truth")
    ss_res = float(((truth - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def rmse(pred, truth) -> float:
    pred, truth = _paired("rmse", pred, truth, np.float64)
    return float(np.sqrt(((truth - pred) ** 2).mean()))


def accuracy(pred, truth) -> float:
    pred, truth = _paired("accuracy", pred, truth)
    return float((pred == truth).mean())


def confusion_matrix(truth, pred, n_classes: int) -> np.ndarray:
    """Counts with rows = truth, columns = prediction.

    A label outside ``0..n_classes-1`` names no class, a bug in whatever
    produced it, and raises IndexError.
    """
    pred, truth = _paired("confusion_matrix", pred, truth, int)
    bad = (truth < 0) | (truth >= n_classes) | (pred < 0) | (pred >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise IndexError(f"labels must lie in 0..{n_classes - 1}; "
                         f"row {i} has truth {truth[i]}, prediction {pred[i]}")
    counts = np.bincount(truth * n_classes + pred, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


def per_class_prf(truth, pred, n_classes: int) -> dict:
    """Per-class precision/recall/F1, macro averages and the confusion matrix.

    A class with zero predicted positives has precision 0; zero true members
    give recall 0; F1 is 0 when P + R is 0.
    """
    m = confusion_matrix(truth, pred, n_classes)
    tp = np.diag(m).astype(float)
    pred_pos = m.sum(axis=0).astype(float)
    true_pos = m.sum(axis=1).astype(float)
    precision = np.divide(tp, pred_pos, out=np.zeros(n_classes), where=pred_pos > 0)
    recall = np.divide(tp, true_pos, out=np.zeros(n_classes), where=true_pos > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(n_classes), where=pr > 0)
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "precision_macro": float(precision.mean()),
        "recall_macro": float(recall.mean()),
        "f1_macro": float(f1.mean()),
        "confusion": m,
    }


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

@dataclass
class FoldData:
    """Arrays a recipe sees for one side of a fold split; labels are int class ids."""

    x: np.ndarray            # active feature matrix
    subject_idx: np.ndarray  # (n,) index into identity_classes (np.unique order)
    bmi: np.ndarray          # (n,)
    bmi_class: np.ndarray | None  # (n,) int class id, if the recipe uses it


class MtnetRecipe:
    """The multitask network: identity, BMI regression, and the 5-class head."""

    name = "mtnet"
    produces = ("identity", "bmi", "bmi_class")

    def __init__(self, config: mtnet.TrainConfig | None = None):
        self.config = config or mtnet.TrainConfig()

    def run_fold(self, train: FoldData, test: FoldData, seed: int) -> dict:
        config = dataclasses.replace(self.config, seed=seed)
        model = mtnet.train(train.x, train.subject_idx, train.bmi, config)
        mtnet.fit_bmi_class_head(model, train.x, train.bmi_class)
        out = mtnet.forward(model, test.x)
        return {
            "identity_pred_idx": out.identity_probs.argmax(axis=1),
            "bmi_pred": out.bmi_estimate,
            "bmi_class_pred": out.bmi_class,
        }


class KnnRecipe:
    """k-nearest neighbors on z-scored features, identity and BMI class; the
    training rows are checked before z-scoring spreads a NaN over its column."""

    name = "knn"
    produces = ("identity", "bmi_class")

    def __init__(self, k: int = 10, metric: str = "euclidean"):
        self.k = k
        self.metric = metric

    def run_fold(self, train: FoldData, test: FoldData, seed: int) -> dict:
        mean, std = baselines.zscore_fit(baselines.check_finite(train.x))
        xtr = (train.x - mean) / std
        xte = (test.x - mean) / std
        id_idx = baselines.knn_classify_batch(xtr, train.subject_idx, xte, self.k, self.metric)
        cls = baselines.knn_classify_batch(xtr, train.bmi_class, xte, self.k, self.metric)
        return {"identity_pred_idx": id_idx, "bmi_class_pred": cls}


class GnbRecipe:
    """Gaussian Naive Bayes on raw features, identity and BMI class."""

    name = "gnb"
    produces = ("identity", "bmi_class")

    def run_fold(self, train: FoldData, test: FoldData, seed: int) -> dict:
        id_model = baselines.gnb_fit(train.x, train.subject_idx)
        cls_model = baselines.gnb_fit(train.x, train.bmi_class)
        return {
            "identity_pred_idx": baselines.gnb_classify(id_model, test.x),
            "bmi_class_pred": baselines.gnb_classify(cls_model, test.x),
        }


class LinregRecipe:
    """Ordinary least squares BMI regression on raw features."""

    name = "linreg"
    produces = ("bmi",)

    def run_fold(self, train: FoldData, test: FoldData, seed: int) -> dict:
        model = baselines.linreg_fit(train.x, train.bmi)
        return {"bmi_pred": baselines.linreg_predict(model, test.x)}


# ---------------------------------------------------------------------------
# Cross-validation driver
# ---------------------------------------------------------------------------

@dataclass
class EvaluationReport:
    config_echo: dict
    identity_classes: list[str]
    per_fold: list[dict]
    aggregate: dict
    failed_folds: list[dict] = field(default_factory=list)

    def to_document(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path: str) -> None:
        write_json(path, self.to_document())

    @classmethod
    def load(cls, path: str) -> "EvaluationReport":
        fields = dataclasses.fields(cls)

        def parse(doc):
            check_keys(doc, [f.name for f in fields if f.default_factory is dataclasses.MISSING],
                       [f.name for f in fields])
            agg = doc["aggregate"]
            if not (isinstance(agg, dict)
                    and all(isinstance(agg.get(k), dict) for k in ("scalars", "arrays"))):
                raise ValueError("aggregate needs 'scalars' and 'arrays'")
            for name, entry in agg["scalars"].items():
                if not (isinstance(entry, dict) and all(
                        isinstance(entry.get(k), (int, float)) for k in ("mean", "std"))):
                    raise ValueError(f"aggregate scalar {name!r} needs a numeric mean and std")
            check_keys(doc["config_echo"])
            for failed in doc.get("failed_folds", []):
                check_keys(failed, ["fold"])
            return cls(**doc)

        return read_json(path, "report", parse)

    def scalar_metric_names(self) -> list[str]:
        return sorted(self.aggregate["scalars"])

    def save_per_fold_csv(self, path: str) -> None:
        """Flat per-fold scalar metrics for plotting tools."""
        names = self.scalar_metric_names()
        lines = [",".join(["fold"] + names)]
        for entry in self.per_fold:
            row = [str(entry["fold"])]
            row += [repr(entry["scalars"][m]) for m in names]
            lines.append(",".join(row))
        atomic_write_text(path, "\n".join(lines) + "\n")


def _checked_predictions(preds: dict, n_rows: int, n_subjects: int, n_classes: int) -> dict:
    """A recipe's predictions as arrays, once they fit the fold's test rows.

    A prediction without one entry per test row, or a non-finite BMI, is bad
    data (ValueError); a class id outside the classes is a recipe bug
    (IndexError). Keys are checked in scoring order, so the first fault wins.
    """
    checked = {}
    for key, dtype, n_ids in (("identity_pred_idx", int, n_subjects),
                              ("bmi_pred", np.float64, None),
                              ("bmi_class_pred", int, n_classes)):
        if key not in preds:
            continue
        pred = np.asarray(preds[key], dtype=dtype)
        if pred.shape != (n_rows,):
            raise ValueError(f"{key} needs one entry per test row: shape {pred.shape} "
                             f"for {n_rows} rows")
        if n_ids is None:
            baselines.check_finite(pred, key)
        else:
            bad = (pred < 0) | (pred >= n_ids)
            if bad.any():
                i = int(np.argmax(bad))
                raise IndexError(f"{key} must lie in 0..{n_ids - 1}; "
                                 f"row {i} has prediction {pred[i]}")
        checked[key] = pred
    return checked


def _fold_scores(preds: dict, test: FoldData, n_subjects: int,
                 n_classes: int) -> tuple[dict, dict]:
    """One fold's scalar metrics and per-class arrays from its checked predictions:
    :func:`_importance_scores`' two scalars, and the rest."""
    scalars, arrays = _importance_scores(preds, test, n_subjects, n_classes)
    if "identity_pred_idx" in preds:
        prf = per_class_prf(test.subject_idx, preds["identity_pred_idx"], n_subjects)
        for part in ("precision", "recall", "f1"):
            scalars[f"identity_{part}_macro"] = prf[f"{part}_macro"]
            arrays[f"identity_{part}"] = prf[part].tolist()
        arrays["identity_confusion"] = prf["confusion"].tolist()
    if "bmi_pred" in preds:
        scalars["bmi_rmse"] = rmse(preds["bmi_pred"], test.bmi)
    if "bmi_class_pred" in preds:
        cls_pred = preds["bmi_class_pred"]
        scalars["bmi_class_accuracy"] = accuracy(cls_pred, test.bmi_class)
        cm = confusion_matrix(test.bmi_class, cls_pred, n_classes)
        arrays["bmi_class_confusion"] = cm.tolist()
    return scalars, arrays


def _importance_scores(preds: dict, test: FoldData, n_subjects: int,
                       n_classes: int) -> tuple[dict, dict]:
    """The two scalars drop-column importance reports, and no arrays."""
    scalars = {}
    if "identity_pred_idx" in preds:
        scalars["identity_accuracy"] = accuracy(preds["identity_pred_idx"], test.subject_idx)
    if "bmi_pred" in preds:
        scalars["bmi_r2"] = r2(preds["bmi_pred"], test.bmi)
    return scalars, {}


def _fold_values(per_fold: list[dict], kind: str, name: str) -> np.ndarray:
    """One metric stacked over the folds that report it."""
    return np.asarray([e[kind][name] for e in per_fold if name in e[kind]])


def _aggregate(per_fold: list[dict]) -> dict:
    """Mean and sample std over the folds of each scalar and per-class array;
    each ``<name>_confusion`` array is summed into ``<name>_confusion_total``."""
    aggregate: dict = {"scalars": {}, "arrays": {}}
    for kind in ("scalars", "arrays"):
        for name in dict.fromkeys(k for e in per_fold for k in e[kind]):
            v = _fold_values(per_fold, kind, name)
            if name.endswith("_confusion"):
                aggregate[f"{name}_total"] = v.sum(axis=0).tolist()
                continue
            std = v.std(axis=0, ddof=1) if len(v) > 1 else np.zeros(v.shape[1:])
            aggregate[kind][name] = {"mean": v.mean(axis=0).tolist(), "std": std.tolist()}
    return aggregate


class CVAbortedError(RuntimeError):
    """Two folds of a CV run failed on bad data."""


@dataclass(frozen=True)
class _CvSplit:
    """Everything a CV run derives from the table's labels and the plan.

    Tables that differ only in their feature columns (drop-column runs)
    share one split, so its folds, labels and BMI classes are built once.
    """

    class_order: list[str]
    n_classes: int  # BMI classes, 0 when the recipe scores none
    # per fold: train rows, test rows, their labels (the FoldData fields after
    # x), and the bad-data verdict on subjects absent from the training rows
    folds: tuple[tuple[np.ndarray, np.ndarray, tuple, tuple, str | None], ...]

    @classmethod
    def build(cls, table: FeatureTable, recipe, plan: FoldPlan) -> "_CvSplit":
        if len(plan.assignment) != len(table):
            raise ValueError(f"fold plan covers {len(plan.assignment)} rows, "
                             f"table has {len(table)}")
        # np.unique's order is sorted(set(ids)), the report's identity_classes.
        order, subject_idx = np.unique(table.subject_ids, return_inverse=True)
        class_order = order.tolist()
        bmi_class = table.bmi_classes() if "bmi_class" in recipe.produces else None
        n_classes = 0 if bmi_class is None else int(bmi_class.max()) + 1

        def labels(idx: np.ndarray) -> tuple:
            cols = (subject_idx[idx], table.bmi[idx],
                    None if bmi_class is None else bmi_class[idx])
            for a in cols:
                if a is not None:
                    a.flags.writeable = False  # every run of the split sees these
            return cols

        folds = []
        for fold in range(plan.n_folds):
            tr_idx, te_idx = plan.train_indices(fold), plan.test_indices(fold)
            train_counts = np.bincount(subject_idx[tr_idx], minlength=len(class_order))
            missing = [class_order[i] for i in np.flatnonzero(train_counts == 0)]
            verdict = f"fold {fold}: subjects {missing} absent from training" if missing else None
            folds.append((tr_idx, te_idx, labels(tr_idx), labels(te_idx), verdict))
        return cls(class_order, n_classes, tuple(folds))


def _run_folds(split: _CvSplit, x: np.ndarray, recipe, seed: int,
               score) -> tuple[list[dict], list[dict]]:
    """Each fold's scores and each failed fold, for the active feature matrix ``x``.

    ``score`` (:func:`_fold_scores` or :func:`_importance_scores`) sees the
    predictions :func:`_checked_predictions` passed, so a malformed one
    raises the same error whatever is scored.
    """
    n_subjects = len(split.class_order)
    per_fold: list[dict] = []
    failed: list[dict] = []
    for fold, (tr_idx, te_idx, tr_labels, te_labels, missing) in enumerate(split.folds):
        try:
            if missing:
                raise ValueError(missing)
            train, test = FoldData(x[tr_idx], *tr_labels), FoldData(x[te_idx], *te_labels)
            preds = recipe.run_fold(train, test, seed=seed + fold)
            preds = _checked_predictions(preds, len(te_idx), n_subjects, split.n_classes)
            scalars, arrays = score(preds, test, n_subjects, split.n_classes)
            per_fold.append({"fold": fold, "scalars": scalars, "arrays": arrays})
        except ValueError as e:  # bad data (LinAlgError included); bugs propagate
            failed.append({"fold": fold, "error": f"{type(e).__name__}: {e}"})
            if len(failed) >= 2:
                raise CVAbortedError(
                    f"{len(failed)} folds failed; first errors: {failed}"
                ) from e
    return per_fold, failed


def run_cv(
    table: FeatureTable,
    recipe,
    plan: FoldPlan,
    config_echo: dict | None = None,
) -> EvaluationReport:
    """Train/test the recipe on every fold and aggregate metrics.

    For a recipe that produces ``"bmi_class"``, the table's BMI classes are
    built once, before the first fold; a table they cannot be built from
    raises that ``ValueError`` before any fold runs, as does a plan that was
    not made for the table (another row count).
    A fold that raises ``ValueError`` (bad data; ``np.linalg.LinAlgError`` is
    one) is recorded and skipped, and two such failures raise
    :class:`CVAbortedError`. Any other exception is a programming error and
    propagates.
    """
    split = _CvSplit.build(table, recipe, plan)
    per_fold, failed = _run_folds(split, table.active_matrix(), recipe, plan.seed, _fold_scores)
    echo = {"recipe": getattr(recipe, "name", type(recipe).__name__), "n_folds": plan.n_folds,
            "seed": plan.seed, "feature_mask": list(table.mask), **(config_echo or {})}
    return EvaluationReport(
        config_echo=echo,
        identity_classes=split.class_order,
        per_fold=per_fold,
        aggregate=_aggregate(per_fold),
        failed_folds=failed,
    )


def drop_column_importance(
    table: FeatureTable,
    recipe,
    plan: FoldPlan,
) -> dict[str, dict[str, float]]:
    """Metric change when each active feature is removed and the CV rerun.

    Positive values mean the feature helps (removing it hurts); negative
    values are permitted. Every rerun keeps the table's subjects and BMIs, so
    the fold split, labels and BMI classes are built once per call. Each run
    scores only the identity-accuracy and BMI R² means it reports, equal to
    those of :func:`run_cv` on the table with that feature dropped; a
    malformed prediction raises the error :func:`run_cv` raises.
    """
    split = _CvSplit.build(table, recipe, plan)

    def means(t: FeatureTable) -> dict[str, float]:
        per_fold, _ = _run_folds(split, t.active_matrix(), recipe, plan.seed, _importance_scores)
        return {name: s["mean"] for name, s in _aggregate(per_fold)["scalars"].items()}

    full = means(table)
    out: dict[str, dict[str, float]] = {}
    for j in table.active_indices:
        reduced = means(table.with_feature_dropped(int(j)))
        out[FEATURE_NAMES[int(j)]] = {name: full[name] - reduced[name] for name in full}
    return out
