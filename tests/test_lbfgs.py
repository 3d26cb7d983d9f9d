import numpy as np
import pytest

from pressmat import lbfgs
from pressmat.lbfgs import minimize_lbfgs, strong_wolfe


def quadratic(A, b):
    def fun(x):
        r = A @ x - b
        return 0.5 * float(r @ r), A.T @ r
    return fun


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


def two_loop_direction(pairs, g):
    """Reference: -H g by the two-loop recursion over the stored pairs, oldest first."""
    idx = pairs.slots()
    s_list = [pairs.w[i] for i in idx]
    y_list = [pairs.w[pairs.m1 + i] for i in idx]
    rho_list = [1.0 / float(s @ y) for s, y in zip(s_list, y_list)]
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if y_list:
        gamma = float(s_list[-1] @ y_list[-1]) / float(y_list[-1] @ y_list[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


MEMORY = 4
N = 30


def spd_pairs(seed, count):
    """A pair buffer fed ``count`` pairs y = A s of one SPD matrix A, and A."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(N, N))
    a = a @ a.T + N * np.eye(N)
    pairs = lbfgs._Pairs(MEMORY, N)
    for _ in range(count):
        s = rng.normal(size=N)
        assert pairs.add(s, 0.0, a @ s, 0.0)
    return pairs, a, rng


def assert_matches_oracle(pairs, rng):
    for _ in range(3):
        g = rng.normal(size=N)
        np.testing.assert_allclose(pairs.direction(g), two_loop_direction(pairs, g),
                                   rtol=1e-10)


class TestCompactDirection:
    @pytest.mark.parametrize("count", [1, 2, MEMORY, MEMORY + 3])
    def test_matches_two_loop(self, count):
        pairs, _, rng = spd_pairs(count, count)
        assert pairs.count == min(count, MEMORY)
        assert_matches_oracle(pairs, rng)

    def test_rejected_pair_changes_nothing(self):
        pairs, _, rng = spd_pairs(7, MEMORY + 1)
        before = pairs.slots().tolist()
        s = rng.normal(size=N)
        assert not pairs.add(s, 0.0, -s, 0.0)  # s.y < 0
        with np.errstate(invalid="ignore"):
            assert not pairs.add(np.full(N, np.inf), 0.0, s, 0.0)
        assert pairs.slots().tolist() == before
        assert np.all(np.isfinite(pairs.w))
        assert_matches_oracle(pairs, rng)

    def test_after_reset(self):
        pairs, a, rng = spd_pairs(8, MEMORY + 2)
        pairs.reset()
        g = rng.normal(size=N)
        np.testing.assert_array_equal(pairs.direction(g), -g)
        for _ in range(2):
            s = rng.normal(size=N)
            assert pairs.add(s, 0.0, a @ s, 0.0)
        assert pairs.count == 2
        assert_matches_oracle(pairs, rng)

    @pytest.mark.parametrize("fun, x0", [
        (quadratic(np.diag(np.geomspace(1.0, 1e3, 20)), np.ones(20)), np.zeros(20)),
        (rosenbrock, np.array([-1.2, 1.0])),
    ])
    def test_fits_follow_the_two_loop(self, monkeypatch, fun, x0):
        def fit():
            points = []  # every point the objective is evaluated at, line-search trials too

            def recording(x):
                points.append(x.copy())
                return fun(x)

            res = minimize_lbfgs(recording, x0, max_iterations=40, memory=3)
            return res, np.array(points)

        res, xs = fit()
        monkeypatch.setattr(lbfgs._Pairs, "direction", two_loop_direction)
        ref, ref_xs = fit()
        assert res.n_evaluations == ref.n_evaluations == len(xs)
        assert xs.shape == ref_xs.shape
        np.testing.assert_allclose(xs, ref_xs, rtol=0, atol=1e-8)


class TestStrongWolfe:
    def test_accepts_full_step_on_quadratic(self):
        fun = quadratic(np.eye(2), np.zeros(2))
        x = np.array([1.0, 1.0])
        f0, g0 = fun(x)
        alpha, f, g, _ = strong_wolfe(fun, x, f0, g0, -g0)
        assert alpha is not None
        assert f < f0

    def test_rejects_ascent_direction(self):
        fun = quadratic(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        f0, g0 = fun(x)
        alpha, *_ = strong_wolfe(fun, x, f0, g0, +g0)
        assert alpha is None

    def test_wolfe_conditions_hold(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 5))
        fun = quadratic(A, rng.normal(size=5))
        x = rng.normal(size=5)
        f0, g0 = fun(x)
        d = -g0
        alpha, f, g, _ = strong_wolfe(fun, x, f0, g0, d)
        assert alpha is not None
        dphi0 = g0 @ d
        assert f <= f0 + 1e-4 * alpha * dphi0 + 1e-12
        assert abs(g @ d) <= 0.9 * abs(dphi0) + 1e-12


class TestLbfgs:
    def test_quadratic_to_machine_precision(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(8, 8)) + 4 * np.eye(8)
        b = rng.normal(size=8)
        fun = quadratic(A, b)
        res = minimize_lbfgs(fun, np.zeros(8), max_iterations=200)
        x_star = np.linalg.solve(A, b)
        assert res.stop_reason in ("grad_tol", "loss_tol")
        np.testing.assert_allclose(res.x, x_star, atol=1e-5)

    def test_rosenbrock(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iterations=500)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_loss_history_monotone_non_increasing(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iterations=200)
        hist = np.array(res.loss_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_iteration_cap_respected(self):
        res = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iterations=3)
        assert res.n_iterations <= 3
        assert res.stop_reason == "max_iterations"

    def test_deterministic(self):
        r1 = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iterations=50)
        r2 = minimize_lbfgs(rosenbrock, np.array([-1.2, 1.0]), max_iterations=50)
        assert np.array_equal(r1.x, r2.x)
        assert r1.loss_history == r2.loss_history

    def test_already_converged(self):
        fun = quadratic(np.eye(3), np.zeros(3))
        res = minimize_lbfgs(fun, np.zeros(3), max_iterations=10)
        assert res.stop_reason == "grad_tol"
        assert res.n_iterations == 0


    def test_wolfe_failure_falls_back_to_backtracking_then_stalls(self, caplog):
        # The returned gradient x + c is not the gradient of 0.5 |x|^2, so no
        # step meets the curvature condition. The first steepest-descent
        # backtrack is accepted at its first trial step 1 / max|g0|; the
        # second finds no decrease within its budget.
        c = np.array([10.0, -3.0])

        def fun(x):
            return 0.5 * float(x @ x), x + c

        x0 = np.array([1.0, 2.0])
        with caplog.at_level("WARNING", logger="pressmat.lbfgs"):
            res = minimize_lbfgs(fun, x0, max_iterations=50)
        g0 = x0 + c
        assert res.stop_reason == "stalled"
        assert res.line_search_failures == 2
        assert res.n_iterations == 1 == len(res.loss_history) - 1
        assert np.array_equal(res.x, x0 + 1.0 / np.abs(g0).max() * -g0)
        assert np.all(np.diff(res.loss_history) <= 0)
        assert res.n_evaluations == 1 + 2 * lbfgs.WOLFE_MAX_EVALS + 1 + lbfgs.BACKTRACK_MAX_EVALS
        failed = [r for r in caplog.records if "Wolfe search failed" in r.getMessage()]
        assert [r.levelname for r in failed] == ["WARNING", "WARNING"]
