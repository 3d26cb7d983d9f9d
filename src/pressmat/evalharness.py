"""10-fold cross-validation, metrics, and drop-column feature importance.

Folds are frame-level and stratified per subject, so every subject appears in
every training split (identity classification needs that). Normalization is
refit inside each training fold. BMI classes are the exact least-squares
split of every subject's table-wide BMI (``FeatureTable.bmi_classes``, one
rule for the class count); they depend on the table alone, so each CV run
builds them once, before its first fold, and every fold scores against the
same labels. Aggregates are mean and sample (n-1)
standard deviation over folds; confusion matrices aggregate by summing counts.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from . import baselines, mtnet
from .dataset import atomic_write_text
from .features import FEATURE_NAMES, FeatureTable


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

def r2(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if len(pred) == 0 or len(pred) != len(truth):
        raise ValueError("r2 needs equal non-zero-length inputs")
    ss_tot = float(((truth - truth.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("r2 undefined for constant truth")
    ss_res = float(((truth - pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if len(pred) == 0 or len(pred) != len(truth):
        raise ValueError("rmse needs equal non-zero-length inputs")
    return float(np.sqrt(((truth - pred) ** 2).mean()))


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(pred) == 0 or len(pred) != len(truth):
        raise ValueError("accuracy needs equal non-zero-length inputs")
    return float((pred == truth).mean())


def confusion_matrix(truth, pred, n_classes: int) -> np.ndarray:
    """Counts with rows = truth, columns = prediction."""
    truth = np.asarray(truth, dtype=int)
    pred = np.asarray(pred, dtype=int)
    if len(pred) == 0 or len(pred) != len(truth):
        raise ValueError("confusion_matrix needs equal non-zero-length inputs")
    m = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(m, (truth, pred), 1)
    return m


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
    """Arrays a recipe sees for one side of a fold split."""

    x: np.ndarray            # active feature matrix
    subject_ids: np.ndarray  # (n,) str
    subject_idx: np.ndarray  # (n,) int index into the class order
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
        model = mtnet.train(train.x, train.subject_ids, train.bmi, config)
        mtnet.fit_bmi_class_head(model, train.x, train.bmi_class)
        out = mtnet.forward(model, test.x)
        # Every fold trains on every subject, so the model's class order is
        # the report's and its argmax is already the subject index.
        return {
            "identity_pred_idx": out.identity_probs.argmax(axis=1),
            "bmi_pred": out.bmi_estimate,
            "bmi_class_pred": out.bmi_class,
        }


class KnnRecipe:
    """k-nearest neighbors on z-scored features, identity and BMI class."""

    name = "knn"
    produces = ("identity", "bmi_class")

    def __init__(self, k: int = 10, metric: str = "euclidean"):
        self.k = k
        self.metric = metric

    def run_fold(self, train: FoldData, test: FoldData, seed: int) -> dict:
        mean, std = baselines.zscore_fit(train.x)
        xtr = (train.x - mean) / std
        xte = (test.x - mean) / std
        k = min(self.k, len(xtr))
        id_idx = baselines.knn_classify_batch(xtr, train.subject_idx, xte, k, self.metric)
        cls = baselines.knn_classify_batch(xtr, train.bmi_class, xte, k, self.metric)
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
        return {
            "config_echo": self.config_echo,
            "identity_classes": self.identity_classes,
            "per_fold": self.per_fold,
            "aggregate": self.aggregate,
            "failed_folds": self.failed_folds,
        }

    def save(self, path: str) -> None:
        atomic_write_text(
            path, json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str) -> "EvaluationReport":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(
            config_echo=doc["config_echo"],
            identity_classes=doc["identity_classes"],
            per_fold=doc["per_fold"],
            aggregate=doc["aggregate"],
            failed_folds=doc.get("failed_folds", []),
        )

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


def _fold_data(table: FeatureTable, x: np.ndarray, subject_idx: np.ndarray,
               bmi_class: np.ndarray | None, idx: np.ndarray) -> FoldData:
    return FoldData(
        x=x[idx],
        subject_ids=table.subject_ids[idx],
        subject_idx=subject_idx[idx],
        bmi=table.bmi[idx],
        bmi_class=None if bmi_class is None else bmi_class[idx],
    )


def run_cv(
    table: FeatureTable,
    recipe,
    plan: FoldPlan,
    config_echo: dict | None = None,
) -> EvaluationReport:
    """Train/test the recipe on every fold and aggregate metrics.

    For a recipe that produces ``"bmi_class"``, the table's BMI classes are
    built once, before the first fold; a table they cannot be built from
    raises that ``ValueError`` before any fold runs.
    A fold that raises ``ValueError`` (bad data; ``np.linalg.LinAlgError`` is
    one) is recorded and skipped, and two such failures abort the run. Any
    other exception is a programming error and propagates.
    """
    # np.unique's order is sorted(set(ids)), the report's identity_classes.
    order, subject_idx = np.unique(table.subject_ids, return_inverse=True)
    class_order = order.tolist()
    x = table.active_matrix()
    per_fold: list[dict] = []
    failed: list[dict] = []
    bmi_class = table.bmi_classes() if "bmi_class" in recipe.produces else None
    k_classes = 0 if bmi_class is None else int(bmi_class.max()) + 1

    # confusion classes for identity
    m_classes = len(class_order)
    agg_scalars: dict[str, list[float]] = {}
    agg_arrays: dict[str, list[np.ndarray]] = {}
    id_confusion_total = np.zeros((m_classes, m_classes), dtype=int)
    cls_confusion_total = np.zeros((k_classes, k_classes), dtype=int)

    for fold in range(plan.n_folds):
        tr_idx = plan.train_indices(fold)
        te_idx = plan.test_indices(fold)
        try:
            train_counts = np.bincount(subject_idx[tr_idx], minlength=m_classes)
            missing = [class_order[i] for i in np.flatnonzero(train_counts == 0)]
            if missing:
                raise ValueError(f"fold {fold}: subjects {missing} absent from training")
            train = _fold_data(table, x, subject_idx, bmi_class, tr_idx)
            test = _fold_data(table, x, subject_idx, bmi_class, te_idx)
            preds = recipe.run_fold(train, test, seed=plan.seed + fold)

            scalars: dict[str, float] = {}
            arrays: dict[str, list] = {}

            if "identity_pred_idx" in preds:
                pred_idx = np.asarray(preds["identity_pred_idx"], dtype=int)
                scalars["identity_accuracy"] = accuracy(pred_idx, test.subject_idx)
                prf = per_class_prf(test.subject_idx, pred_idx, m_classes)
                scalars["identity_precision_macro"] = prf["precision_macro"]
                scalars["identity_recall_macro"] = prf["recall_macro"]
                scalars["identity_f1_macro"] = prf["f1_macro"]
                arrays["identity_precision"] = prf["precision"].tolist()
                arrays["identity_recall"] = prf["recall"].tolist()
                arrays["identity_f1"] = prf["f1"].tolist()
                cm = prf["confusion"]
                arrays["identity_confusion"] = cm.tolist()
                id_confusion_total += cm

            if "bmi_pred" in preds:
                scalars["bmi_r2"] = r2(preds["bmi_pred"], test.bmi)
                scalars["bmi_rmse"] = rmse(preds["bmi_pred"], test.bmi)

            if "bmi_class_pred" in preds:
                cls_pred = np.asarray(preds["bmi_class_pred"], dtype=int)
                scalars["bmi_class_accuracy"] = accuracy(cls_pred, test.bmi_class)
                cm = confusion_matrix(test.bmi_class, cls_pred, k_classes)
                arrays["bmi_class_confusion"] = cm.tolist()
                cls_confusion_total += cm

            per_fold.append({"fold": fold, "scalars": scalars, "arrays": arrays})
            for k, v in scalars.items():
                agg_scalars.setdefault(k, []).append(v)
            for k in ("identity_precision", "identity_recall", "identity_f1"):
                if k in arrays:
                    agg_arrays.setdefault(k, []).append(np.asarray(arrays[k]))
        except ValueError as e:  # bad data (LinAlgError included); bugs propagate
            failed.append({"fold": fold, "error": f"{type(e).__name__}: {e}"})
            if len(failed) >= 2:
                raise RuntimeError(
                    f"{len(failed)} folds failed; first errors: {failed}"
                ) from e

    aggregate: dict = {"scalars": {}, "arrays": {}}
    for k, vals in agg_scalars.items():
        arr = np.asarray(vals)
        aggregate["scalars"][k] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
        }
    for k, stacks in agg_arrays.items():
        mat = np.stack(stacks)
        aggregate["arrays"][k] = {
            "mean": mat.mean(axis=0).tolist(),
            "std": (mat.std(axis=0, ddof=1) if len(mat) > 1 else np.zeros(mat.shape[1])).tolist(),
        }
    if id_confusion_total.any():
        aggregate["identity_confusion_total"] = id_confusion_total.tolist()
    if cls_confusion_total.any():
        aggregate["bmi_class_confusion_total"] = cls_confusion_total.tolist()

    echo = dict(config_echo or {})
    echo.setdefault("recipe", getattr(recipe, "name", type(recipe).__name__))
    echo.setdefault("n_folds", plan.n_folds)
    echo.setdefault("seed", plan.seed)
    echo.setdefault("feature_mask", list(table.mask))
    return EvaluationReport(
        config_echo=echo,
        identity_classes=class_order,
        per_fold=per_fold,
        aggregate=aggregate,
        failed_folds=failed,
    )


def drop_column_importance(
    table: FeatureTable,
    recipe,
    plan: FoldPlan,
) -> dict[str, dict[str, float]]:
    """Metric change when each active feature is removed and the CV rerun.

    Positive values mean the feature helps (removing it hurts); negative
    values are permitted.
    """
    full = run_cv(table, recipe, plan)

    def metric(report, name):
        entry = report.aggregate["scalars"].get(name)
        return None if entry is None else entry["mean"]

    full_acc = metric(full, "identity_accuracy")
    full_r2 = metric(full, "bmi_r2")

    out: dict[str, dict[str, float]] = {}
    for j in table.active_indices:
        reduced = table.with_feature_dropped(int(j))
        rep = run_cv(reduced, recipe, plan)
        entry: dict[str, float] = {}
        if full_acc is not None:
            entry["identity_accuracy"] = full_acc - metric(rep, "identity_accuracy")
        if full_r2 is not None:
            entry["bmi_r2"] = full_r2 - metric(rep, "bmi_r2")
        out[FEATURE_NAMES[int(j)]] = entry
    return out
