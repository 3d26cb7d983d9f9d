"""Spans recorded from outside the library, and the per-layer metrics built from them.

The traced run swaps module attributes of the library for timing wrappers and
restores them in ``finally``. The library calls every wrapped function through
a module-global lookup (``lbfgs.minimize_lbfgs`` from ``mtnet``,
``strong_wolfe`` inside ``lbfgs``, ``trace_isolines`` inside ``features`` and
so on), so a wrapper on the attribute sees every call. Spans stay in memory
and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum of the self times of its spans, so
the layer self times of one pass plus the time outside every span
(``unattributed``) add up to the pass's wall time.
"""

import contextlib
import importlib
import time
from dataclasses import dataclass, field

LAYERS = ("dataset", "preprocess", "features", "mtnet", "lbfgs", "baselines", "evalharness")
BYTES_PER_FLOAT = 8


@dataclass
class Span:
    name: str                  # "<layer>.<function>"
    start: float = 0.0
    end: float = 0.0
    parent: int = -1           # index of the calling span, -1 at the top
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_document(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    """Records one span per wrapped call: name, start, end and the calling span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span. ``before(span, args, kwargs)`` may return new
        ``(args, kwargs)``; ``after(span, args, result)`` attaches attributes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                if before is not None:
                    args, kwargs = before(span, args, kwargs)
                span.start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = clock()
            finally:
                stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Swap each ``(owner, attribute, span name, hooks)`` for a wrapper."""
        saved = []
        try:
            for owner, attr, name, hooks in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def parent_name(self, span: Span) -> str:
        return self.spans[span.parent].name if span.parent >= 0 else ""

    def ancestor(self, span: Span, name: str) -> Span | None:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return span
        return None


# ---------------------------------------------------------------------------
# What is wrapped
# ---------------------------------------------------------------------------

def _trunk_flops_per_evaluation(rows: int, n_features: int, n_subjects: int,
                                hidden_sizes) -> int:
    """Multiply-adds x2 of one objective call: the forward GEMMs, then the
    weight-gradient and input-gradient GEMMs of the backward pass."""
    dims, prev = [], n_features
    for h in hidden_sizes:
        dims.append((prev, h))
        prev = h
    dims += [(prev, n_subjects), (prev, 1)]
    return 6 * rows * sum(a * b for a, b in dims)


# Wrapped functions per library module; each span is named "<module>.<function>".
WRAPPED = {
    "synthgen": ("generate_corpus", "body_model", "render_frame_values"),
    "dataset": ("save_corpus", "load_corpus"),
    "preprocess": ("denoise_corpus", "median_filter", "split_sessions", "temporal_gaussian"),
    "features": ("extract_table", "extract_all", "extract_statistical",
                 "extract_contour_features", "select_contour_levels", "trace_isolines",
                 "save_feature_table", "load_feature_table"),
    "mtnet": ("train", "fit_bmi_class_head", "forward", "predict_bmi_class"),
    "lbfgs": ("minimize_lbfgs", "strong_wolfe"),
    "baselines": ("knn_classify_batch", "build_bmi_classes", "kmeans", "gnb_fit",
                  "gnb_classify", "linreg_fit", "linreg_predict"),
    "evalharness": ("make_folds", "run_cv", "drop_column_importance"),
}
RECIPES = ("MtnetRecipe", "KnnRecipe", "GnbRecipe", "LinregRecipe")


def targets(tracer: Tracer) -> list:
    """``(owner, attribute, span name, hooks)`` for every wrapped library function."""
    mtnet = importlib.import_module("pressmat.mtnet")

    def count_isolines(span, args, result):
        span.attrs["isolines"] = len(result)

    def train_shape(span, args, kwargs):
        x, subjects = args[0], args[1]
        span.attrs["flops_per_evaluation"] = _trunk_flops_per_evaluation(
            len(x), x.shape[1], len(set(list(subjects))), mtnet.HIDDEN_SIZES)
        return args, kwargs

    def wrap_objective(span, args, kwargs):
        role = "head" if tracer.parent_name(span) == "mtnet.fit_bmi_class_head" else "trunk"
        span.attrs["role"] = role
        span.attrs["memory"] = kwargs.get("memory", 10)
        name = "mtnet.loss_grad" if role == "trunk" else "mtnet.head_loss_grad"
        return (tracer.wrap(name, args[0]),) + tuple(args[1:]), kwargs

    def minimize_result(span, args, result):
        span.attrs.update(
            parameters=int(result.x.size), iterations=result.n_iterations,
            evaluations=result.n_evaluations, stop_reason=result.stop_reason,
            line_search_failures=result.line_search_failures,
        )

    def cv_result(span, args, report):
        span.attrs["folds"] = len(report.per_fold) + len(report.failed_folds)
        span.attrs["failed_folds"] = len(report.failed_folds)

    hooks = {
        "features.trace_isolines": {"after": count_isolines},
        "mtnet.train": {"before": train_shape},
        "lbfgs.minimize_lbfgs": {"before": wrap_objective, "after": minimize_result},
        "evalharness.run_cv": {"after": cv_result},
    }
    out = []
    for module_name, functions in WRAPPED.items():
        module = importlib.import_module(f"pressmat.{module_name}")
        for fn in functions:
            name = f"{module_name}.{fn}"
            out.append((module, fn, name, hooks.get(name, {})))
    evalharness = importlib.import_module("pressmat.evalharness")
    for recipe in RECIPES:
        out.append((getattr(evalharness, recipe), "run_fold",
                    f"evalharness.{recipe}.run_fold", {}))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def lbfgs_bytes_per_iteration(parameters: int, memory: int, iterations: int,
                              evaluations: int) -> float:
    """Computed vector traffic of one L-BFGS iteration, in bytes (cache misses ignored).

    Counts reads plus writes of length-P float64 vectors in ``minimize_lbfgs``
    and ``strong_wolfe``, objective excluded: 10 per stored (s, y) pair in the
    two-loop recursion, 35 for the fixed per-iteration work (gradient norm,
    copies, scaling, the step, s, y and their dot products and norms), and 7
    per line-search evaluation (trial point and directional derivative). The
    stored pair count grows by one per iteration up to ``memory``.
    """
    if iterations == 0:
        return 0.0
    mean_pairs = sum(min(i, memory) for i in range(iterations)) / iterations
    evals_per_iteration = evaluations / iterations
    vectors = 10.0 * mean_pairs + 35.0 + 7.0 * evals_per_iteration
    return BYTES_PER_FLOAT * parameters * vectors


def _self_times(spans: list[Span]) -> list[float]:
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, children)]


def pass_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass whose wall time was ``wall_s``."""
    spans = tracer.spans
    self_s = _self_times(spans)

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def role(span):
        mini = span if span.name == "lbfgs.minimize_lbfgs" else tracer.ancestor(
            span, "lbfgs.minimize_lbfgs")
        return mini.attrs.get("role") if mini is not None else None

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, self_s) if s.layer == layer)
    top = sum(s.duration for s in spans if s.parent < 0)
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - top
    m["trace.unattributed_share"] = (wall_s - top) / wall_s
    m["trace.spans"] = len(spans)

    m["dataset.save_corpus_s"] = total("dataset.save_corpus")
    m["dataset.load_corpus_s"] = total("dataset.load_corpus")

    m["preprocess.median_s"] = total("preprocess.median_filter")
    m["preprocess.temporal_s"] = total("preprocess.temporal_gaussian")
    m["preprocess.sessions"] = calls("preprocess.temporal_gaussian")

    m["features.statistical_s"] = total("features.extract_statistical")
    m["features.contour_s"] = total("features.extract_contour_features")
    m["features.contour_levels"] = calls("features.trace_isolines")
    m["features.isolines"] = sum(s.attrs.get("isolines", 0) for s in spans
                                 if s.name == "features.trace_isolines")
    m["features.save_table_s"] = total("features.save_feature_table")
    m["features.load_table_s"] = total("features.load_feature_table")

    objective = [s for s in spans if s.name == "mtnet.loss_grad"]
    flops = 0
    for s in objective:
        fit = tracer.ancestor(s, "mtnet.train")
        flops += fit.attrs["flops_per_evaluation"] if fit is not None else 0
    m["mtnet.train_s"] = total("mtnet.train")
    m["mtnet.loss_grad_s"] = sum(s.duration for s in objective)
    m["mtnet.loss_grad_calls"] = len(objective)
    m["mtnet.gflops_per_s"] = flops / m["mtnet.loss_grad_s"] / 1e9 if objective else 0.0
    m["mtnet.class_head_s"] = total("mtnet.fit_bmi_class_head")
    fit_s = m["mtnet.train_s"] + m["mtnet.class_head_s"]
    m["mtnet.class_head_share"] = m["mtnet.class_head_s"] / fit_s if fit_s else 0.0
    m["mtnet.predict_s"] = total("mtnet.forward") + total("mtnet.predict_bmi_class")

    minimize = [(s, t) for s, t in zip(spans, self_s) if s.name == "lbfgs.minimize_lbfgs"]
    trunk = [s for s, _ in minimize if s.attrs["role"] == "trunk"]
    head = [s for s, _ in minimize if s.attrs["role"] == "head"]
    searches = [(s, t) for s, t in zip(spans, self_s) if s.name == "lbfgs.strong_wolfe"]
    iterations = sum(s.attrs["iterations"] for s in trunk)
    evaluations = sum(s.attrs["evaluations"] for s in trunk)
    m["lbfgs.trunk_iterations"] = iterations
    m["lbfgs.trunk_evaluations"] = evaluations
    m["lbfgs.evals_per_iteration"] = evaluations / iterations if iterations else 0.0
    m["lbfgs.trunk_self_s"] = sum(t for s, t in minimize if s.attrs["role"] == "trunk")
    weighted = sum(
        lbfgs_bytes_per_iteration(s.attrs["parameters"], s.attrs["memory"],
                                  s.attrs["iterations"], s.attrs["evaluations"])
        * s.attrs["iterations"] for s in trunk)
    m["lbfgs.computed_bytes_per_iteration"] = weighted / iterations if iterations else 0.0
    m["lbfgs.line_search_calls"] = sum(1 for s, _ in searches if role(s) == "trunk")
    m["lbfgs.line_search_self_s"] = sum(t for s, t in searches if role(s) == "trunk")
    m["lbfgs.line_search_failures"] = sum(s.attrs["line_search_failures"] for s in trunk)
    m["lbfgs.head_iterations"] = sum(s.attrs["iterations"] for s in head)
    m["lbfgs.head_self_s"] = (sum(t for s, t in minimize if s.attrs["role"] == "head")
                              + sum(t for s, t in searches if role(s) == "head"))

    m["baselines.knn_s"] = total("baselines.knn_classify_batch")
    m["baselines.knn_calls"] = calls("baselines.knn_classify_batch")
    m["baselines.kmeans_s"] = total("baselines.kmeans")
    m["baselines.kmeans_calls"] = calls("baselines.kmeans")
    m["baselines.bmi_classes_s"] = total("baselines.build_bmi_classes")
    m["baselines.gnb_s"] = total("baselines.gnb_fit") + total("baselines.gnb_classify")
    m["baselines.linreg_s"] = total("baselines.linreg_fit") + total("baselines.linreg_predict")

    cv = [s for s in spans if s.name == "evalharness.run_cv"]
    m["evalharness.run_cv_calls"] = len(cv)
    m["evalharness.folds"] = sum(s.attrs["folds"] for s in cv)
    m["evalharness.failed_folds"] = sum(s.attrs["failed_folds"] for s in cv)
    return m


def setup_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Figures of one traced set-up: its wall time and the generator's share."""
    generate = sum(t for s, t in zip(tracer.spans, _self_times(tracer.spans))
                   if s.layer == "synthgen")
    return {"trace.setup_s": wall_s, "synthgen.generate_s": generate}
