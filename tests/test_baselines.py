import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pressmat import mtnet
from pressmat.baselines import (
    _pairwise_distances,
    build_bmi_classes,
    class_counts,
    gnb_classify,
    gnb_fit,
    knn_classify_batch,
    linreg_fit,
    linreg_predict,
    zscore_fit,
)
from pressmat.dataset import GridSpec
from pressmat.synthgen import NoiseSpec, generate_corpus


def knn_classify(train_x, train_y, query, k=10, metric="euclidean") -> int:
    """One query through the batch classifier."""
    return int(knn_classify_batch(train_x, train_y, np.atleast_2d(query), k, metric)[0])


def oracle_knn(train_x, train_y, query, k, metric):
    """Straight-from-definition kNN with explicit tie rules."""
    dists = []
    for i, row in enumerate(train_x):
        if metric == "euclidean":
            d = sum((a - b) ** 2 for a, b in zip(row, query)) ** 0.5
        elif metric == "cosine":
            dot = sum(a * b for a, b in zip(row, query))
            na = sum(a * a for a in row) ** 0.5
            nb = sum(b * b for b in query) ** 0.5
            d = 1.0 - dot / (na * nb)
        else:
            d = sum(abs(a - b) ** 3 for a, b in zip(row, query)) ** (1.0 / 3.0)
        dists.append((d, i))
    dists.sort(key=lambda t: (t[0], t[1]))
    votes = Counter(train_y[i] for _, i in dists[:k])
    top = max(votes.values())
    return min(c for c, n in votes.items() if n == top)


class TestZscoreFit:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30),
                      elements=st.floats(-1e6, 1e6)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_mean_and_std_bit_for_bit(self, x, data):
        constant = data.draw(st.lists(st.booleans(), min_size=x.shape[1], max_size=x.shape[1]))
        x[:, constant] = x[0, constant]
        mean, std = zscore_fit(x)
        want = x.std(axis=0)
        want = np.where(want < 1e-12, 1.0, want)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        assert std.tobytes() == want.tobytes()


class TestKnn:
    def test_query_equals_training_point(self):
        x = np.array([[1.0, 2.0], [5.0, 5.0]])
        y = np.array([0, 1])
        assert knn_classify(x, y, [5.0, 5.0], k=1) == 1

    def test_one_dimensional_nearest(self):
        x = np.array([[0.0], [10.0]])
        y = np.array([0, 1])
        assert knn_classify(x, y, [4.0], k=1, metric="euclidean") == 0

    def test_cosine_scale_invariance(self):
        x = np.array([[1.0, 2.0], [-3.0, 1.0]])
        y = np.array([0, 1])
        assert knn_classify(x, y, [2.0, 4.0], k=1, metric="cosine") == 0

    def test_cosine_zero_vector_rejected(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0, 1])
        with pytest.raises(ValueError):
            knn_classify(x, y, [0.0, 0.0], k=1, metric="cosine")

    def test_vote_tie_takes_smallest_class(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([3, 3, 1, 1])
        assert knn_classify(x, y, [5.5], k=4) == 1

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "minkowski3"])
    def test_matches_oracle(self, metric):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 4)) + 1.0
        y = rng.integers(0, 4, size=30)
        queries = rng.normal(size=(15, 4)) + 1.0
        got = knn_classify_batch(x, y, queries, k=5, metric=metric)
        want = [oracle_knn(x, y, q, 5, metric) for q in queries]
        assert got.tolist() == want

    def test_k_bounds(self):
        x = np.zeros((3, 2))
        y = np.array([0, 1, 2])
        with pytest.raises(ValueError):
            knn_classify(x, y, [0, 0], k=4)

    def test_self_training_k1_perfect(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 5, size=40)
        got = knn_classify_batch(x, y, x, k=1)
        assert np.array_equal(got, y)

    def test_distance_tie_prefers_earlier_training_row(self):
        # two training points equidistant from the query; k=1 must take row 0
        x = np.array([[-1.0], [1.0]])
        assert knn_classify(x, np.array([7, 2]), [0.0], k=1) == 7
        assert knn_classify(x[::-1], np.array([2, 7]), [0.0], k=1) == 2


def bincount_vote_knn(train_x, train_y, queries, k, metric="euclidean"):
    """The former path: the first k of a stable argsort of each query row's
    distances, then one bincount + argmax per query row."""
    train_y = np.asarray(train_y, dtype=int)
    d = _pairwise_distances(queries, train_x, metric)
    votes = train_y[np.argsort(d, axis=1, kind="stable")[:, :k]]
    n_classes = int(train_y.max()) + 1
    out = np.empty(len(votes), dtype=int)
    for i, row in enumerate(votes):
        out[i] = int(np.argmax(np.bincount(row, minlength=n_classes)))
    return out


class TestKnnVote:
    @pytest.mark.parametrize("k", [1, 2, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_bincount_vote(self, k, seed):
        rng = np.random.default_rng(seed)
        # few distinct points and labels {0, 2, 5}: distance ties, vote ties,
        # and class ids 1, 3 and 4 that never appear
        x = rng.integers(0, 3, size=(40, 2)).astype(float)
        y = rng.choice([0, 2, 5], size=40)
        queries = rng.integers(0, 3, size=(60, 2)).astype(float)
        got = knn_classify_batch(x, y, queries, k=k)
        assert got.dtype == np.dtype(int)
        assert np.array_equal(got, bincount_vote_knn(x, y, queries, k))
        if k > 1:  # the case exercises a vote tie
            d = _pairwise_distances(queries, x, "euclidean")
            votes = y[np.argsort(d, axis=1, kind="stable")[:, :k]]
            counts = np.stack([np.bincount(v, minlength=6) for v in votes])
            assert ((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()

    @pytest.mark.parametrize("query", [[0.4, 1.0], [[2.5, -1.0]]])
    def test_single_query_row(self, query):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 2))
        y = rng.integers(0, 4, size=12)
        for k in (1, 2, 10):
            got = knn_classify_batch(x, y, query, k=k)
            assert got.shape == (1,)
            assert np.array_equal(got, bincount_vote_knn(x, y, query, k))

    def test_negative_class_id_rejected(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            knn_classify_batch(x, np.array([0, -1, 2]), [[0.9]], k=2)


@st.composite
def tied_knn_case(draw):
    """Integer-grid rows (many equal distances), labels from a sparse id set."""
    n_train = draw(st.integers(1, 25))
    n_query = draw(st.integers(1, 8))
    n_feat = draw(st.integers(1, 3))
    grid = st.integers(-2, 2)
    x = np.array(draw(st.lists(grid, min_size=n_train * n_feat, max_size=n_train * n_feat)),
                 dtype=float).reshape(n_train, n_feat)
    q = np.array(draw(st.lists(grid, min_size=n_query * n_feat, max_size=n_query * n_feat)),
                 dtype=float).reshape(n_query, n_feat)
    # a constant last column keeps every row non-zero, which cosine requires
    x = np.hstack([x, np.ones((n_train, 1))])
    q = np.hstack([q, np.ones((n_query, 1))])
    y = np.array(draw(st.lists(st.sampled_from([0, 2, 3, 7]), min_size=n_train,
                               max_size=n_train)))
    k = draw(st.integers(1, n_train))
    metric = draw(st.sampled_from(["euclidean", "cosine", "minkowski3"]))
    return x, y, q, k, metric


class TestKnnSelection:
    """The k-th-distance selection against the stable-argsort oracle."""

    @given(tied_knn_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_stable_sort_on_tied_grids(self, case):
        x, y, q, k, metric = case
        got = knn_classify_batch(x, y, q, k=k, metric=metric)
        assert np.array_equal(got, bincount_vote_knn(x, y, q, k, metric))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_distances_equal_vote_the_first_k_rows(self, k):
        x = np.zeros((7, 2))
        y = np.array([5, 5, 2, 0, 0, 0, 0])
        q = [[1.0, -1.0], [0.0, 0.0]]
        got = knn_classify_batch(x, y, q, k=k)
        want = np.bincount(y[:k]).argmax()
        assert got.tolist() == [want, want]
        assert np.array_equal(got, bincount_vote_knn(x, y, q, k))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "minkowski3"])
    def test_k_equals_n_train_votes_every_row(self, metric):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 3)) + 2.0
        y = np.array([1, 4, 4, 1, 4, 0, 1, 4, 1])  # 4 and 1 tie at four votes
        got = knn_classify_batch(x, y, rng.normal(size=(5, 3)), k=9, metric=metric)
        assert got.tolist() == [1] * 5

    @pytest.mark.parametrize("query", [[0.0], [[0.0]]], ids=["1-D", "2-D"])
    @pytest.mark.parametrize("k, want", [(1, 4), (2, 4), (3, 4), (4, 1), (5, 1)])
    def test_duplicate_rows_straddling_the_kth_distance(self, query, k, want):
        # distances 1, 0, 1, 2, 1: rows 0, 2 and 4 are duplicates at distance 1,
        # so k = 2 and k = 3 keep only the earliest of them (row 0, then row 2);
        # taking row 4 first would vote 1 at k = 2 and k = 3
        x = np.array([[1.0], [0.0], [1.0], [2.0], [1.0]])
        y = np.array([4, 4, 1, 0, 1])
        got = knn_classify_batch(x, y, query, k=k)
        assert got.tolist() == [want]
        assert np.array_equal(got, bincount_vote_knn(x, y, query, k))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "minkowski3"])
    @pytest.mark.parametrize("side", ["query", "train"])
    def test_nan_row_rejected(self, side, metric):
        x = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        q = np.array([[1.0, 1.0], [2.0, 2.0]])
        if side == "query":
            q[1, 0] = np.nan
        else:
            x[2, 1] = np.nan
        want = "queries must be finite: row 1, column 0" if side == "query" else \
            "features must be finite: row 2, column 1"
        with pytest.raises(ValueError, match=want):
            knn_classify_batch(x, np.array([0, 1, 2]), q, k=2, metric=metric)

    def test_overflowing_finite_rows_under_euclidean_rejected(self):
        # 1e200 squared overflows, and inf - inf in the expanded square is NaN
        x = np.array([[1e200, 2.0], [2.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="kNN distance is NaN"):
            knn_classify_batch(x, np.array([0, 1]), [[1e200, 1.0]], k=1)


def one_line_euclidean(queries, train):
    """The euclidean distances as one expression, the in-place code's oracle."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    t = np.asarray(train, dtype=np.float64)
    d2 = (q * q).sum(1)[:, None] + (t * t).sum(1)[None, :] - 2.0 * (q @ t.T)
    return np.sqrt(np.maximum(d2, 0.0))


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestEuclideanDistances:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_one_line_expression_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n_query, n_train, n_feat = rng.integers(1, 50, size=3)
        t = rng.normal(size=(n_train, n_feat)) * rng.uniform(0.01, 100.0)
        # queries that repeat training rows land near distance 0, where the
        # expanded square can round below zero
        q = np.vstack([rng.normal(size=(n_query, n_feat)), t[:3]])
        assert_same_bits(_pairwise_distances(q, t, "euclidean"), one_line_euclidean(q, t))

    @given(tied_knn_case())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_one_line_expression_on_tied_grids(self, case):
        x, _, q, _, _ = case
        assert_same_bits(_pairwise_distances(q, x, "euclidean"), one_line_euclidean(q, x))


class TestGnb:
    def test_separable_perfect(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-10, 1, (20, 1)), rng.normal(10, 1, (20, 1))])
        y = np.array([0] * 20 + [1] * 20)
        model = gnb_fit(x, y)
        assert np.array_equal(gnb_classify(model, x), y)

    def test_prior_dominance_identical_likelihoods(self):
        x = np.zeros((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        model = gnb_fit(x, y)
        assert np.all(gnb_classify(model, np.zeros((5, 1))) == 0)

    def test_variance_floor(self):
        x = np.array([[1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = gnb_fit(x, y)
        assert np.all(model.variances > 0)
        assert np.isfinite(gnb_classify(model, [[1.0]])).all()

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class 1"):
            gnb_fit(np.zeros((4, 1)), np.array([0, 0, 2, 2]))


CONTRACT_X = np.random.default_rng(0).normal(size=(30, 3))
CONTRACT_BMI = np.linspace(18.0, 35.0, 30)
CONTRACT_IDS = np.arange(30) % 3


def _train_one_step(x, subjects):
    return mtnet.train(x, subjects, CONTRACT_BMI, mtnet.TrainConfig(max_iterations=1))


LABEL_LEARNERS = {
    "knn": lambda x, y: knn_classify_batch(x, y, x[:2], k=3),
    "gnb": gnb_fit,
    "class_head": lambda x, y: mtnet.fit_bmi_class_head(
        _train_one_step(x, CONTRACT_IDS), x, y, max_iterations=1),
    "train_subjects": _train_one_step,
}
BAD_LABELS = {
    "negative_id": np.array([-1, 0, 1] * 10),
    "one_short": CONTRACT_IDS[:-1],
    "one_extra": np.append(CONTRACT_IDS, 0),
}


class TestClassIdContract:
    """Every learner reads its labels through ``class_counts``."""

    @pytest.mark.parametrize("learner, bad", [
        (learner, bad) for learner, bad in itertools.product(LABEL_LEARNERS, BAD_LABELS)
        # mtnet.train's subjects are labels, not ids: a -1 is one more subject
        if (learner, bad) != ("train_subjects", "negative_id")
    ])
    def test_bad_labels_raise_one_error(self, learner, bad):
        with pytest.raises(ValueError, match="one integer id >= 0 per training row"):
            LABEL_LEARNERS[learner](CONTRACT_X, BAD_LABELS[bad])

    def test_train_orders_any_labels_as_np_unique(self):
        model = _train_one_step(CONTRACT_X, BAD_LABELS["negative_id"])
        assert model.subject_ids == (-1, 0, 1)

    def test_counts_every_id_up_to_the_largest(self):
        ids, counts = class_counts([2, 0, 2], 3)
        assert ids.tolist() == [2, 0, 2] and counts.tolist() == [1, 0, 2]


FINITE_LEARNERS = {
    "knn": lambda x: knn_classify_batch(x, CONTRACT_IDS, CONTRACT_X[:2], k=3),
    "gnb": lambda x: gnb_fit(x, CONTRACT_IDS),
    "linreg": lambda x: linreg_fit(x, CONTRACT_BMI),
    "class_head": lambda x: mtnet.fit_bmi_class_head(
        _train_one_step(CONTRACT_X, CONTRACT_IDS), x, CONTRACT_IDS, max_iterations=1),
    "train": lambda x: _train_one_step(x, CONTRACT_IDS),
    # predictions, from models fit on the clean rows
    "knn_queries": lambda x: knn_classify_batch(CONTRACT_X, CONTRACT_IDS, x, k=3),
    "gnb_classify": lambda x: gnb_classify(gnb_fit(CONTRACT_X, CONTRACT_IDS), x),
    "linreg_predict": lambda x: linreg_predict(linreg_fit(CONTRACT_X, CONTRACT_BMI), x),
    "forward": lambda x: mtnet.forward(_train_one_step(CONTRACT_X, CONTRACT_IDS), x),
    "predict_bmi_class": lambda x: mtnet.predict_bmi_class(_with_class_head(), x),
}


def _with_class_head():
    model = _train_one_step(CONTRACT_X, CONTRACT_IDS)
    mtnet.fit_bmi_class_head(model, CONTRACT_X, CONTRACT_IDS, max_iterations=1)
    return model


class TestFiniteFeatureContract:
    """Every learner reads its rows through ``check_finite``, to fit and to predict."""

    @pytest.mark.parametrize("learner", FINITE_LEARNERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_feature_raises_one_error(self, learner, bad, capfd):
        x = CONTRACT_X.copy()
        x[4, 1] = bad
        what = "queries" if learner == "knn_queries" else "features"
        want = rf"^{what} must be finite: row 4, column 1 is {bad}$"
        with pytest.raises(ValueError, match=want):
            FINITE_LEARNERS[learner](x)
        # a non-finite value reaching lstsq makes LAPACK print DLASCL errors to stderr
        assert capfd.readouterr().err == ""

    def test_names_the_first_bad_entry_of_a_target(self):
        with pytest.raises(ValueError, match="targets must be finite: row 29, column 0 is nan"):
            linreg_fit(CONTRACT_X, np.append(CONTRACT_BMI[:-1], np.nan))


class TestLinreg:
    def test_exact_affine_recovery(self):
        x = np.linspace(-5, 5, 20).reshape(-1, 1)
        y = 3.0 * x[:, 0] + 2.0
        model = linreg_fit(x, y)
        assert model.coef[0] == pytest.approx(3.0, abs=1e-9)
        assert model.intercept == pytest.approx(2.0, abs=1e-9)

    def test_pure_noise_r2_near_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        model = linreg_fit(x[:100], y[:100])
        pred = linreg_predict(model, x[100:])
        truth = y[100:]
        r2 = 1 - ((truth - pred) ** 2).sum() / ((truth - truth.mean()) ** 2).sum()
        assert abs(r2) < 0.25

    def test_duplicated_column_minimum_norm(self):
        rng = np.random.default_rng(4)
        x1 = rng.normal(size=(30, 1))
        x = np.hstack([x1, x1])
        y = 2.0 * x1[:, 0] + 1.0
        model = linreg_fit(x, y)
        assert np.all(np.isfinite(model.coef))
        pred = linreg_predict(model, x)
        np.testing.assert_allclose(pred, y, atol=1e-8)
        # minimum-norm splits the weight between the twin columns
        assert model.coef[0] == pytest.approx(model.coef[1], abs=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        model = linreg_fit(x, y)
        res = y - linreg_predict(model, x)
        design = np.hstack([x, np.ones((50, 1))])
        assert np.abs(design.T @ res).max() < 1e-8


def within_class_ss(bmi_by_subject, classes) -> float:
    """Sum over classes of squared distances to the class mean, in two passes."""
    total = 0.0
    for c in set(classes.values()):
        members = np.array([b for s, b in bmi_by_subject.items() if classes[s] == c])
        total += float(((members - members.mean()) ** 2).sum())
    return total


def brute_force_bmi_classes(bmi_by_subject, k):
    """Every split of the sorted distinct BMIs into k contiguous runs: the least
    within-class sum of squares and the first map that reaches it."""
    values = sorted(set(bmi_by_subject.values()))
    best = None
    for cuts in itertools.combinations(range(1, len(values)), k - 1):
        bounds = (0, *cuts, len(values))
        class_of = {v: c for c in range(k) for v in values[bounds[c]:bounds[c + 1]]}
        classes = {s: class_of[b] for s, b in bmi_by_subject.items()}
        ss = within_class_ss(bmi_by_subject, classes)
        if best is None or ss < best[0]:
            best = (ss, classes)
    return best


class TestBuildBmiClasses:
    def test_five_singletons_in_order(self):
        bmi = {f"S{i}": b for i, b in enumerate([18.0, 22.0, 26.0, 30.0, 34.0])}
        classes = build_bmi_classes(bmi, k=5)
        ordered = [classes[f"S{i}"] for i in range(5)]
        assert ordered == [0, 1, 2, 3, 4]

    def test_identical_subjects_insufficient_diversity(self):
        bmi = {f"S{i}": 70.0 / 1.7**2 for i in range(6)}
        with pytest.raises(ValueError, match="insufficient diversity"):
            build_bmi_classes(bmi, k=5)

    def test_fewer_distinct_bmis_than_classes_rejected(self):
        bmi = {"S0": 18.0, "S1": 18.0, "S2": 22.0, "S3": 22.0, "S4": 30.0}
        assert build_bmi_classes(bmi, k=3) == {"S0": 0, "S1": 0, "S2": 1, "S3": 1, "S4": 2}
        with pytest.raises(ValueError, match="insufficient diversity"):
            build_bmi_classes(bmi, k=4)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_bmi_classes({"S0": 20.0, "S1": 25.0}, k=k)

    @pytest.mark.parametrize("cohort_seed", [20240901, 0, 1, 3, 7])
    def test_matches_brute_force_optimum(self, cohort_seed):
        # the benchmark's cohort is seed 20240901 on this grid; there seeded
        # k-means++ (10 restarts) missed this optimum at seeds 46 and 90
        cohort = generate_corpus(8, 1, ("supine",), NoiseSpec(0.0, 0.0, 0.0),
                                 GridSpec(32, 64, 1000.0, 1.5), seed=cohort_seed).subjects
        bmi = {sid: rec.bmi for sid, rec in cohort.items()}
        far = {sid: b + 1e8 for sid, b in bmi.items()}  # cancellation would show here
        for k in range(2, 6):
            _, classes = brute_force_bmi_classes(bmi, k)
            assert build_bmi_classes(bmi, k=k) == classes, k
            assert build_bmi_classes(far, k=k) == classes, k

    def test_tie_goes_to_the_first_minimum(self):
        # {20} {21, 22} and {20, 21} {22} both cost exactly 0.5
        assert build_bmi_classes({"A": 20.0, "B": 21.0, "C": 22.0}, k=2) == \
            {"A": 0, "B": 1, "C": 1}

    @settings(max_examples=300, deadline=None)
    @given(
        bmis=st.lists(st.one_of(st.integers(15, 45).map(float), st.floats(15.0, 45.0)),
                      min_size=1, max_size=10),
        k=st.integers(1, 5),
        rnd=st.randoms(use_true_random=False),
    )
    def test_least_squares_ordinal_and_order_free(self, bmis, k, rnd):
        bmi = {f"S{i}": b for i, b in enumerate(bmis)}
        if len(set(bmis)) < k:
            with pytest.raises(ValueError, match="insufficient diversity"):
                build_bmi_classes(bmi, k=k)
            return
        classes = build_bmi_classes(bmi, k=k)
        optimum, _ = brute_force_bmi_classes(bmi, k)
        assert within_class_ss(bmi, classes) == pytest.approx(optimum, rel=1e-9, abs=1e-9)
        assert sorted(set(classes.values())) == list(range(k))
        for s, t in itertools.combinations(bmi, 2):
            if bmi[s] == bmi[t]:
                assert classes[s] == classes[t]
            elif bmi[s] < bmi[t]:
                assert classes[s] <= classes[t]
            else:
                assert classes[s] >= classes[t]
        items = list(bmi.items())
        rnd.shuffle(items)
        assert build_bmi_classes(dict(items), k=k) == classes
