"""Full-batch L-BFGS with a strong-Wolfe line search over flat parameter vectors.

L-BFGS takes its direction from the compact representation of the
limited-memory inverse Hessian (Byrd, Nocedal & Schnabel 1994): three GEMVs
over one preallocated buffer of the stored pairs and two small triangular
solves per iteration.

The objective is a callable ``fun(x) -> (loss, grad)``. The minimizer is a
deterministic function of its inputs. Accepted iterates never increase the
loss; when the Wolfe search fails the step falls back to backtracking
steepest descent and the event is logged.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_MAX_EVALS = 25      # objective calls per strong-Wolfe search
BACKTRACK_MAX_EVALS = 40  # objective calls per backtracking fallback


@dataclass
class MinimizeResult:
    x: np.ndarray
    loss: float
    grad_norm: float
    n_iterations: int
    n_evaluations: int
    stop_reason: str  # "max_iterations" | "grad_tol" | "loss_tol" | "stalled"
    loss_history: list[float] = field(default_factory=list)
    line_search_failures: int = 0


def _cubic_minimizer(a, fa, ga, b, fb, gb):
    """Minimizer of the cubic through (a, fa, ga), (b, fb, gb); None if degenerate."""
    if a == b:
        return None
    d1 = ga + gb - 3.0 * (fa - fb) / (a - b)
    radicand = d1 * d1 - ga * gb
    if radicand < 0:
        return None
    d2 = math.sqrt(radicand)
    if a <= b:
        pos = b - (b - a) * ((gb + d2 - d1) / (gb - ga + 2.0 * d2 + 1e-300))
    else:
        pos = a - (a - b) * ((ga + d2 - d1) / (ga - gb + 2.0 * d2 + 1e-300))
    if not np.isfinite(pos):
        return None
    return pos


def strong_wolfe(fun, x, f0, g0, direction, alpha0=1.0):
    """Line search satisfying the strong Wolfe conditions.

    Returns ``(alpha, f, g, n_evals)``; ``alpha`` is None when no acceptable
    step was found within the evaluation budget.
    """
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        return None, f0, g0, 0

    def phi(alpha):
        f, g = fun(x + alpha * direction)
        return f, g, float(g @ direction)

    evals = 0

    def zoom(lo, f_lo, d_lo, hi, f_hi, d_hi):
        nonlocal evals
        while evals < WOLFE_MAX_EVALS:
            alpha = _cubic_minimizer(lo, f_lo, d_lo, hi, f_hi, d_hi)
            lo_b, hi_b = min(lo, hi), max(lo, hi)
            span = hi_b - lo_b
            if alpha is None or not (lo_b + 0.1 * span <= alpha <= hi_b - 0.1 * span):
                alpha = 0.5 * (lo + hi)
            f, g, d = phi(alpha)
            evals += 1
            if f > f0 + WOLFE_C1 * alpha * dphi0 or f >= f_lo:
                hi, f_hi, d_hi = alpha, f, d
            else:
                if abs(d) <= -WOLFE_C2 * dphi0:
                    return alpha, f, g
                if d * (hi - lo) >= 0:
                    hi, f_hi, d_hi = lo, f_lo, d_lo
                lo, f_lo, d_lo = alpha, f, d
            if abs(hi - lo) < 1e-16 * max(1.0, abs(hi)):
                break
        return None, None, None

    alpha_prev, f_prev, d_prev = 0.0, f0, dphi0
    alpha = alpha0
    for i in range(WOLFE_MAX_EVALS):
        f, g, d = phi(alpha)
        evals += 1
        if f > f0 + WOLFE_C1 * alpha * dphi0 or (i > 0 and f >= f_prev):
            a, fv, gv = zoom(alpha_prev, f_prev, d_prev, alpha, f, d)
            return (a, fv, gv, evals) if a is not None else (None, f0, g0, evals)
        if abs(d) <= -WOLFE_C2 * dphi0:
            return alpha, f, g, evals
        if d >= 0:
            a, fv, gv = zoom(alpha, f, d, alpha_prev, f_prev, d_prev)
            return (a, fv, gv, evals) if a is not None else (None, f0, g0, evals)
        alpha_prev, f_prev, d_prev = alpha, f, d
        alpha = 2.0 * alpha
    return None, f0, g0, evals


def _backtrack(fun, x, f0, g0, direction):
    """Armijo backtracking; returns (alpha, f, g, n_evals) or alpha None."""
    dphi0 = float(g0 @ direction)
    if dphi0 >= 0:
        return None, f0, g0, 0
    alpha = 1.0 / max(1.0, float(np.abs(g0).max()))
    evals = 0
    for _ in range(BACKTRACK_MAX_EVALS):
        f, g = fun(x + alpha * direction)
        evals += 1
        if f <= f0 + WOLFE_C1 * alpha * dphi0:
            return alpha, f, g, evals
        alpha *= 0.5
    return None, f0, g0, evals


class _Pairs:
    """The newest ``memory`` accepted (s, y) pairs, in a ring of ``memory + 1`` slots.

    Row ``i`` of ``w`` holds slot i's s and row ``m1 + i`` its y. The slot
    after the newest is the spare: each new pair is written there and becomes
    the newest only if it passes the curvature test, so the buffer is never
    copied. ``sy[i, j] = s_i . y_j`` for slots i not newer than j and 0 for
    i newer, so the stored pairs' block of ``sy``, oldest first, is upper
    triangular; ``yy[i, j] = y_i . y_j``. Both take one GEMV per accepted pair.
    """

    def __init__(self, memory: int, n: int):
        self.memory = memory
        self.m1 = memory + 1
        self.w = np.zeros((2 * self.m1, n))
        self.sy = np.zeros((self.m1, self.m1))
        self.yy = np.zeros((self.m1, self.m1))
        self.newest = memory  # the first spare is slot 0
        self.count = 0

    def slots(self) -> np.ndarray:
        """Slots of the stored pairs, oldest first."""
        return np.arange(self.newest - self.count + 1, self.newest + 1) % self.m1

    def reset(self):
        self.count = 0

    def add(self, x_new, x, g_new, g) -> bool:
        """Store s = x_new - x, y = g_new - g if s.y > 1e-10 |s| |y|; True if stored."""
        spare = (self.newest + 1) % self.m1
        s = np.subtract(x_new, x, out=self.w[spare])
        y = np.subtract(g_new, g, out=self.w[self.m1 + spare])
        wy = self.w @ y
        sy, yy = float(wy[spare]), float(wy[self.m1 + spare])
        if not sy > 1e-10 * math.sqrt(float(s @ s)) * math.sqrt(yy):
            # Rows of unstored slots meet zero coefficients in direction(),
            # and 0 * inf is NaN: keep them finite.
            s.fill(0.0)
            y.fill(0.0)
            return False
        self.sy[spare] = 0.0
        self.sy[:, spare] = wy[:self.m1]
        self.yy[:, spare] = self.yy[spare] = wy[self.m1:]
        self.newest = spare
        self.count = min(self.count + 1, self.memory)
        return True

    def direction(self, g: np.ndarray) -> np.ndarray | None:
        """-H g, H the compact-form inverse Hessian of the stored pairs.

        H = gamma I + [S  gamma Y] M [S^T; gamma Y^T] with
        M = [[R^-T (D + gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]], R the upper
        triangle of S^T Y and D its diagonal (Byrd, Nocedal & Schnabel 1994,
        eq. 3.1); gamma = s.y / y.y of the newest pair. Three passes over the
        buffer and two small solves; None if R is singular.
        """
        if not self.count:
            return -g
        idx = self.slots()
        wg = self.w @ g
        r = self.sy.take(idx, 0).take(idx, 1)
        yy = self.yy.take(idx, 0).take(idx, 1)
        gamma = r[-1, -1] / yy[-1, -1]
        try:
            t = np.linalg.solve(r, wg[idx])
            u = np.linalg.solve(r.T, np.diagonal(r) * t + gamma * (yy @ t - wg[self.m1 + idx]))
        except np.linalg.LinAlgError:
            return None
        coef = np.zeros(2 * self.m1)
        coef[idx] = -u
        coef[self.m1 + idx] = gamma * t
        d = coef @ self.w
        d -= gamma * g
        return d


def minimize_lbfgs(fun, x0, max_iterations, memory=10, grad_tol=1e-6,
                   loss_tol=1e-10, callback=None):
    """Limited-memory BFGS with strong-Wolfe steps.

    The search direction comes from the compact representation of the
    limited-memory inverse Hessian (Byrd, Nocedal & Schnabel 1994,
    *Representations of quasi-Newton matrices and their use in limited memory
    methods*) over a preallocated ring of the newest ``memory`` pairs.
    Stops at the iteration cap, when the gradient max-norm drops below
    ``grad_tol``, or when the relative loss change drops below ``loss_tol``.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    evals = 1
    pairs = _Pairs(memory, x.size)
    history = [float(f)]
    failures = 0
    stop = "max_iterations"
    it = 0

    for it in range(1, max_iterations + 1):
        gnorm = float(np.abs(g).max())
        if gnorm < grad_tol:
            stop = "grad_tol"
            it -= 1
            break

        direction = pairs.direction(g)
        if (direction is None or not np.all(np.isfinite(direction))
                or float(g @ direction) >= 0):
            direction = -g
            pairs.reset()

        alpha0 = 1.0 if pairs.count else min(1.0, 1.0 / max(1.0, float(np.abs(g).sum())))
        alpha, f_new, g_new, n_ev = strong_wolfe(fun, x, f, g, direction, alpha0)
        evals += n_ev
        if alpha is None:
            failures += 1
            log.warning("lbfgs: Wolfe search failed at iteration %d; "
                        "falling back to backtracking steepest descent", it)
            direction = -g
            alpha, f_new, g_new, n_ev = _backtrack(fun, x, f, g, direction)
            evals += n_ev
            if alpha is None:
                stop = "stalled"
                it -= 1
                break
            pairs.reset()

        x_new = x + alpha * direction
        pairs.add(x_new, x, g_new, g)

        rel = abs(f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        history.append(float(f))
        if callback is not None:
            callback(it, x, f, g)
        if rel < loss_tol:
            stop = "loss_tol"
            break

    return MinimizeResult(
        x=x, loss=float(f), grad_norm=float(np.abs(g).max()),
        n_iterations=it, n_evaluations=evals, stop_reason=stop,
        loss_history=history, line_search_failures=failures,
    )

