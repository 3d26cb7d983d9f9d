"""Classical comparison models: kNN, Gaussian Naive Bayes, least squares,
and the one BMI class rule: the paper's 5 classes (one per subject when
there are fewer), the exact 1-D k-means split of the BMIs, no seed.

All tie-breaking is pinned (k-th-neighbour distance ties by training order,
vote and argmax ties by smallest class id, BMI class cuts by the first
minimum) so results are platform-deterministic.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

KNN_METRICS = ("euclidean", "cosine", "minkowski3")
GNB_VAR_FLOOR = 1e-9    # keeps a constant feature's Gaussian finite
N_BMI_CLASSES = 5       # the paper's BMI classes


def zscore_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std on training data; constant features get std 1."""
    mean = x.mean(axis=0)
    # x.std(axis=0) bit for bit, without reducing the mean a second time
    std = np.sqrt(np.square(x - mean).sum(axis=0) / len(x))
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def class_counts(labels, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Every learner's class ids as ints, and the row count of each id 0..max;
    ValueError unless there is one integer id >= 0 per training row (n_rows >= 1)."""
    ids = np.asarray(labels, dtype=int)
    negative = np.count_nonzero(ids < 0)
    if ids.shape != (n_rows,) or negative or n_rows < 1:
        raise ValueError(f"class labels need one integer id >= 0 per training row; got "
                         f"shape {ids.shape} for {n_rows} rows, {negative} negative")
    return ids, np.bincount(ids)


def check_finite(values, what: str = "features") -> np.ndarray:
    """Every learner's rows, fitted or predicted, as float64; ValueError naming
    the first non-finite entry's row and column (column 0 of a 1-D array)."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite))
        row, col = divmod(first, values.shape[1] if values.ndim == 2 else 1)
        raise ValueError(f"{what} must be finite: row {row}, column {col} is {values.flat[first]}")
    return values


def _pairwise_distances(queries: np.ndarray, train: np.ndarray, metric: str) -> np.ndarray:
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    t = np.asarray(train, dtype=np.float64)
    if metric == "euclidean":
        # (q.q + t.t) - 2 q.t, each step in place; the order keeps the bits
        cross = q @ t.T
        cross *= 2.0
        d = (q * q).sum(1)[:, None] + (t * t).sum(1)[None, :]
        d -= cross
        return np.sqrt(np.maximum(d, 0.0, out=d), out=d)
    if metric == "cosine":
        qn = np.linalg.norm(q, axis=1)
        tn = np.linalg.norm(t, axis=1)
        if np.any(qn == 0) or np.any(tn == 0):
            raise ValueError("cosine distance undefined for zero vectors")
        return 1.0 - (q @ t.T) / (qn[:, None] * tn[None, :])
    if metric == "minkowski3":
        diff = np.abs(q[:, None, :] - t[None, :, :])
        return (diff**3).sum(axis=2) ** (1.0 / 3.0)
    raise ValueError(f"unknown metric {metric!r}; choose from {KNN_METRICS}")


def knn_classify_batch(
    train_x: np.ndarray,
    train_y: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    metric: str = "euclidean",
) -> np.ndarray:
    """Majority vote over the k nearest training rows, one label per query row.

    The neighbours are every row closer than the k-th smallest distance, then
    the earliest rows in training order among those at exactly that distance;
    vote ties take the smallest class id. Non-finite rows raise ValueError, and
    so does a NaN distance, which finite rows give when a square overflows.
    """
    train_x = check_finite(train_x)
    queries = check_finite(np.atleast_2d(queries), "queries")
    train_y, class_sizes = class_counts(train_y, len(train_x))
    n_classes = len(class_sizes)
    if k < 1 or k > len(train_y):
        raise ValueError(f"k must be in 1..{len(train_y)}, got {k}")
    d = _pairwise_distances(queries, train_x, metric)
    if np.isnan(d).any():
        raise ValueError(f"kNN distance is NaN: the features overflow the {metric} distance")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    near = d <= kth
    if np.count_nonzero(near) > k * len(d):  # some row ties past k at the k-th distance
        closer, tied = d < kth, d == kth
        room = k - closer.sum(axis=1, keepdims=True)
        near = closer | (tied & (np.cumsum(tied, axis=1) <= room))
    rows, cols = np.divmod(np.flatnonzero(near), d.shape[1])  # faster than 2-D nonzero
    counts = np.bincount(rows * n_classes + train_y[cols], minlength=len(d) * n_classes)
    return counts.reshape(len(d), n_classes).argmax(axis=1)  # first max: smallest id


@dataclass(frozen=True)
class GaussianNBModel:
    log_priors: np.ndarray  # (C,)
    means: np.ndarray       # (C, F)
    variances: np.ndarray   # (C, F), floored


def gnb_fit(x: np.ndarray, y: np.ndarray) -> GaussianNBModel:
    """One Gaussian per class id 0..max(y); a missing id raises ValueError."""
    x = check_finite(x)
    y, counts = class_counts(y, len(x))
    n_classes = len(counts)
    if not counts.all():
        raise ValueError(f"class {np.argmin(counts)} has no training samples")
    means = np.empty((n_classes, x.shape[1]))
    variances = np.empty_like(means)
    for c in range(n_classes):
        xc = x[y == c]
        means[c] = xc.mean(axis=0)
        variances[c] = np.maximum(xc.var(axis=0), GNB_VAR_FLOOR)
    return GaussianNBModel(
        log_priors=np.log(counts / counts.sum()),
        means=means,
        variances=variances,
    )


def gnb_classify(model: GaussianNBModel, x: np.ndarray) -> np.ndarray:
    """The most probable class per row; non-finite rows raise ValueError."""
    x = check_finite(np.atleast_2d(x))
    # (n, C, F) log-likelihood terms
    diff = x[:, None, :] - model.means[None, :, :]
    ll = -0.5 * (np.log(2.0 * np.pi * model.variances)[None] + diff**2 / model.variances[None])
    scores = model.log_priors[None, :] + ll.sum(axis=2)
    return scores.argmax(axis=1)


@dataclass(frozen=True)
class LinearModel:
    coef: np.ndarray  # (F,)
    intercept: float


def linreg_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Ordinary least squares via SVD; rank deficiency gives the minimum-norm fit."""
    x = check_finite(x)
    y = check_finite(y, "targets")
    design = np.hstack([x, np.ones((len(x), 1))])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(coef=beta[:-1], intercept=float(beta[-1]))


def linreg_predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    """One prediction per row; non-finite rows raise ValueError."""
    return check_finite(np.atleast_2d(x)) @ model.coef + model.intercept


def kmeans(*args, **kwargs):
    """Removed: the BMI classes come from :func:`build_bmi_classes`."""
    # Kept by name only: the benchmark's tracer (bench/tracer.py) wraps
    # ``baselines.kmeans``; the benchmark change that drops that wrapper drops this too.
    raise NotImplementedError("baselines.kmeans was removed; use build_bmi_classes")


# ---------------------------------------------------------------------------
# BMI class construction
# ---------------------------------------------------------------------------

def build_bmi_classes(bmi_by_subject: Mapping[str, float], k: int | None = None) -> dict[str, int]:
    """Split subjects into k ordinal BMI classes (0 leanest .. k-1 heaviest);
    k defaults to ``N_BMI_CLASSES``, or one per subject when there are fewer.

    The split is the exact 1-D k-means optimum: the partition of the sorted
    distinct BMI values, each weighted by its subject count, into k contiguous
    segments with the least within-class sum of squares, found by dynamic
    programming (Wang & Song 2011, *Ckmeans.1d.dp*). Subjects with equal BMIs
    share a class and the segment index is the class id. Among equally good
    splits, each class from the heaviest down starts at the lowest BMI it can.
    Raises ValueError for k < 1 or fewer than k distinct BMIs.
    """
    if k is None:
        k = min(N_BMI_CLASSES, len(bmi_by_subject))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    subject_ids = sorted(bmi_by_subject)
    values, inverse, counts = np.unique(
        np.array([bmi_by_subject[s] for s in subject_ids], dtype=np.float64),
        return_inverse=True, return_counts=True,
    )
    m = len(values)
    if m < k:
        raise ValueError(
            f"insufficient diversity: {m} distinct BMI values for {k} classes"
        )
    # cost[i, j]: sum of squares of values[i:j], from prefix sums of the values
    # shifted to values[i], so cancellation is bounded by the segment's spread
    shifted = np.triu(values[None, :] - values[:, None])
    weights = np.triu(np.broadcast_to(counts.astype(np.float64), (m, m)))
    size = np.cumsum(weights, axis=1)
    first = np.cumsum(weights * shifted, axis=1)
    second = np.cumsum(weights * shifted * shifted, axis=1)
    rows, last = np.triu_indices(m)
    cost = np.full((m + 1, m + 1), np.inf)
    cost[rows, last + 1] = second[rows, last] - first[rows, last] ** 2 / size[rows, last]

    best = cost[0]  # best[j]: least cost of values[:j] in the classes so far
    starts = []     # per added class, the best start of that class for each end j
    for _ in range(1, k):
        total = best[:, None] + cost
        start = total.argmin(axis=0)  # first minimum: the smallest start
        starts.append(start)
        best = total[start, np.arange(m + 1)]
    labels = np.zeros(m, dtype=int)
    end = m
    for c in range(k - 1, 0, -1):
        begin = int(starts[c - 1][end])
        labels[begin:end] = c
        end = begin
    return {sid: int(labels[inverse[i]]) for i, sid in enumerate(subject_ids)}
