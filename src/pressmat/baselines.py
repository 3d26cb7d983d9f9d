"""Classical comparison models: kNN, Gaussian Naive Bayes, least squares,
k-means, and the 5-way BMI class construction over subjects, which is the
exact 1-D k-means split of their BMIs and takes no seed.

All tie-breaking is pinned (k-th-neighbour distance ties by training order,
vote and argmax ties by smallest class id, BMI class cuts by the first
minimum) so results are platform-deterministic.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

KNN_METRICS = ("euclidean", "cosine", "minkowski3")
GNB_VAR_FLOOR = 1e-9    # keeps a constant feature's Gaussian finite
KMEANS_MAX_ITER = 100   # Lloyd iterations per restart


def zscore_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std on training data; constant features get std 1."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _pairwise_distances(queries: np.ndarray, train: np.ndarray, metric: str) -> np.ndarray:
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    t = np.asarray(train, dtype=np.float64)
    if metric == "euclidean":
        d2 = (q * q).sum(1)[:, None] + (t * t).sum(1)[None, :] - 2.0 * (q @ t.T)
        return np.sqrt(np.maximum(d2, 0.0))
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
    vote ties take the smallest class id. A NaN distance raises ValueError.
    """
    train_y = np.asarray(train_y, dtype=int)
    if k < 1 or k > len(train_y):
        raise ValueError(f"k must be in 1..{len(train_y)}, got {k}")
    if train_y.min() < 0:
        raise ValueError("class ids must be >= 0")
    d = _pairwise_distances(queries, train_x, metric)
    if np.isnan(d).any():
        raise ValueError("kNN distance is NaN; features must be finite")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    near = d <= kth
    if np.count_nonzero(near) > k * len(d):  # some row ties past k at the k-th distance
        closer, tied = d < kth, d == kth
        room = k - closer.sum(axis=1, keepdims=True)
        near = closer | (tied & (np.cumsum(tied, axis=1) <= room))
    rows, cols = np.divmod(np.flatnonzero(near), d.shape[1])  # faster than 2-D nonzero
    n_classes = int(train_y.max()) + 1
    counts = np.bincount(rows * n_classes + train_y[cols], minlength=len(d) * n_classes)
    return counts.reshape(len(d), n_classes).argmax(axis=1)  # first max: smallest id


@dataclass(frozen=True)
class GaussianNBModel:
    log_priors: np.ndarray  # (C,)
    means: np.ndarray       # (C, F)
    variances: np.ndarray   # (C, F), floored


def gnb_fit(x: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> GaussianNBModel:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    for c in range(n_classes):
        if counts[c] == 0:
            raise ValueError(f"class {c} has no training samples")
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
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
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
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    design = np.hstack([x, np.ones((len(x), 1))])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearModel(coef=beta[:-1], intercept=float(beta[-1]))


def linreg_predict(model: LinearModel, x: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.float64)) @ model.coef + model.intercept


# ---------------------------------------------------------------------------
# k-means (Lloyd). No pipeline path calls it; the benchmark's tracer wraps it
# by name, so it goes with the tracer's k-means metrics.
# ---------------------------------------------------------------------------

def _sq_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        (x * x).sum(1)[:, None]
        + (centroids * centroids).sum(1)[None, :]
        - 2.0 * (x @ centroids.T)
    )
    return np.maximum(d2, 0.0)


def _seed_centroids(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Squared-distance-proportional seeding (k-means++)."""
    n = len(x)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = _sq_distances(x, centroids[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, _sq_distances(x, centroids[j:j + 1]).ravel())
    return centroids


def _lloyd(x: np.ndarray, centroids: np.ndarray, max_iter: int):
    k = len(centroids)
    labels = np.full(len(x), -1)
    for _ in range(max_iter):
        d2 = _sq_distances(x, centroids)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        taken: set[int] = set()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
            else:
                # reseed an empty cluster to the farthest point not yet taken
                dist_own = d2[np.arange(len(x)), labels].copy()
                order = np.argsort(-dist_own, kind="stable")
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                centroids[j] = x[pick]
    inertia = float(
        _sq_distances(x, centroids)[np.arange(len(x)), labels].sum()
    )
    return centroids, labels, inertia


def kmeans(
    points: np.ndarray,
    k: int,
    restarts: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm, best of ``restarts`` by within-cluster sum of squares.

    Points are z-scored per dimension before clustering; returned centroids
    are mapped back to the input space.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = len(x)
    if k < 1 or k > n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    mean, std = zscore_fit(x)
    xs = (x - mean) / std

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, restarts)):
        c0 = _seed_centroids(xs, k, rng)
        centroids, labels, inertia = _lloyd(xs, c0, KMEANS_MAX_ITER)
        if best is None or inertia < best[2]:
            best = (centroids, labels, inertia)
    centroids, labels, _ = best
    return centroids * std + mean, labels


# ---------------------------------------------------------------------------
# BMI class construction
# ---------------------------------------------------------------------------

def build_bmi_classes(bmi_by_subject: Mapping[str, float], k: int = 5) -> dict[str, int]:
    """Split subjects into k ordinal BMI classes (0 leanest .. k-1 heaviest).

    The split is the exact 1-D k-means optimum: the partition of the sorted
    distinct BMI values, each weighted by its subject count, into k contiguous
    segments with the least within-class sum of squares, found by dynamic
    programming (Wang & Song 2011, *Ckmeans.1d.dp*). Subjects with equal BMIs
    share a class and the segment index is the class id. Among equally good
    splits, each class from the heaviest down starts at the lowest BMI it can.
    Raises ValueError for k < 1 or fewer than k distinct BMIs.
    """
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
