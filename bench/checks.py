"""Output checks. Each returns a list of error messages, empty when the output is right."""

import json
import math

import numpy as np

from pressmat import features


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _table_differences(a, b) -> list[str]:
    out = []
    for column in ("subject_ids", "posture_ids", "frame_indices"):
        if not np.array_equal(getattr(a, column), getattr(b, column)):
            out.append(f"{column} differ")
    if a.mask != b.mask:
        out.append(f"masks differ: {a.mask} vs {b.mask}")
    if a.X.shape != b.X.shape:
        out.append(f"feature shapes differ: {a.X.shape} vs {b.X.shape}")
    elif not np.array_equal(_bits(a.X), _bits(b.X)):
        rows, cols = np.nonzero(_bits(a.X) != _bits(b.X))
        out.append(f"{len(rows)} feature values differ, first at row {rows[0]} "
                   f"feature {features.FEATURE_NAMES[cols[0]]}")
    if not np.array_equal(_bits(a.bmi), _bits(b.bmi)):
        out.append("bmi columns differ")
    return out


def tables_repeat(tables) -> list[str]:
    """Every pass produced the same feature table, bit for bit."""
    return [f"pass {i}: {d}" for i, t in enumerate(tables[1:], start=1)
            for d in _table_differences(tables[0], t)]


def table_round_trip(extracted, loaded) -> list[str]:
    """features.csv gives back exactly the table that was written."""
    return [f"csv round trip: {d}" for d in _table_differences(extracted, loaded)]


def reference_features(frame) -> np.ndarray:
    """The 14 features through the reference path: statistical features, then
    every isoline of every selected level, counted, with the vertex x + y
    terms summed by ``math.fsum``."""
    count, terms = 0, []
    for level in features.select_contour_levels(frame):
        lines = features.trace_isolines(frame, level)
        count += len(lines)
        for line in lines:
            terms.extend(float(x + y) for x, y in line.points)
    return np.concatenate([features.extract_statistical(frame),
                           [float(count), math.fsum(terms)]])


def table_matches_reference(corpus, table, sample) -> list[str]:
    """Sampled rows equal the reference recomputation from the denoised frames."""
    out = []
    for i in sample:
        frame = corpus.frames[i]
        key = (table.subject_ids[i], table.posture_ids[i], table.frame_indices[i])
        if key != frame.key:
            out.append(f"row {i}: ids {key} do not match frame {frame.key}")
            continue
        differ = np.nonzero(_bits(reference_features(frame)) != _bits(table.X[i]))[0]
        if len(differ):
            bad = [features.FEATURE_NAMES[j] for j in differ]
            out.append(f"row {i}: {bad} differ from the reference path")
    return out


def _document(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def reports_repeat(reports) -> list[str]:
    """Every pass produced the same CV report, every float bit for bit."""
    first = _document(reports[0].to_document())
    return [f"pass {i}: {reports[i].config_echo.get('recipe')} report differs from pass 0"
            for i in range(1, len(reports)) if _document(reports[i].to_document()) != first]


def importance_repeats(results) -> list[str]:
    """Every pass produced the same drop-column importance."""
    first = _document(results[0])
    return [f"pass {i}: importance differs from pass 0"
            for i in range(1, len(results)) if _document(results[i]) != first]


def no_failed_folds(reports) -> list[str]:
    return [f"{r.config_echo.get('recipe')}: failed fold {f}"
            for r in reports for f in r.failed_folds]


def report_consistent(report, n_rows: int) -> list[str]:
    """Each row is tested once, and the aggregates are the means of the folds."""
    out = []
    name = report.config_echo.get("recipe")
    n_folds = report.config_echo.get("n_folds")
    if len(report.per_fold) + len(report.failed_folds) != n_folds:
        out.append(f"{name}: {len(report.per_fold)} folds reported, plan has {n_folds}")
    for key in ("identity_confusion_total", "bmi_class_confusion_total"):
        if key in report.aggregate and int(np.sum(report.aggregate[key])) != n_rows:
            out.append(f"{name}: {key} counts {int(np.sum(report.aggregate[key]))} "
                       f"rows, table has {n_rows}")
    for metric, entry in report.aggregate["scalars"].items():
        values = [f["scalars"][metric] for f in report.per_fold]
        if not math.isclose(entry["mean"], math.fsum(values) / len(values), rel_tol=1e-12):
            out.append(f"{name}: {metric} mean {entry['mean']} is not the fold mean")
    return out


def trunk_fits_hit_cap(stops, cap: int) -> list[str]:
    """Every trunk fit ran to the iteration cap, so each fold did the same work."""
    if not stops:
        return ["no trunk fit was recorded"]
    return [f"trunk fit {i} stopped by {reason} after {n} iterations, cap {cap}"
            for i, (reason, n) in enumerate(stops)
            if reason != "max_iterations" or n != cap]


def at_least(values: dict, floors: dict) -> list[str]:
    return [f"{name} = {values[name]} below its floor {floor}"
            for name, floor in floors.items()
            if not (math.isfinite(values[name]) and values[name] >= floor)]
