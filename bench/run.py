"""The pressmat benchmark: one command, three workloads, outputs checked.

    python3 bench/run.py --workload featurize --seed 20240901 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also
runs traced passes and prints the per-layer metrics instead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Details, the machine record and the traced
spans go to ``bench/out/<workload>-<seed>-trace<n>.json``. See README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 20240901  # criterion 3's seed
SETUP_REPEATS = 3
MIN_PASSES = 2  # the repeat checks compare passes

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "frames_per_s": "1/s",
    "fold_s": "s",
    "peak_rss_mb": "MiB",
    "identity_accuracy": "ratio",
    "bmi_r2": "ratio",
    "bmi_class_accuracy": "ratio",
    "fold_success_ratio": "ratio",
}

PER_LAYER = {
    "synthgen.generate_s": "s",
    "dataset.save_corpus_s": "s",
    "dataset.load_corpus_s": "s",
    "dataset.corpus_bytes": "B",
    "dataset.self_s": "s",
    "preprocess.median_s": "s",
    "preprocess.temporal_s": "s",
    "preprocess.sessions": "count",
    "preprocess.self_s": "s",
    "features.statistical_s": "s",
    "features.contour_s": "s",
    "features.contour_levels": "count",
    "features.isolines": "count",
    "features.save_table_s": "s",
    "features.load_table_s": "s",
    "features.self_s": "s",
    "mtnet.train_s": "s",
    "mtnet.loss_grad_s": "s",
    "mtnet.loss_grad_calls": "count",
    "mtnet.gflops_per_s": "GFLOP/s",
    "mtnet.class_head_s": "s",
    "mtnet.class_head_share": "ratio",
    "mtnet.predict_s": "s",
    "mtnet.self_s": "s",
    "lbfgs.trunk_iterations": "count",
    "lbfgs.trunk_evaluations": "count",
    "lbfgs.evals_per_iteration": "ratio",
    "lbfgs.trunk_self_s": "s",
    "lbfgs.computed_bytes_per_iteration": "B",
    "lbfgs.line_search_calls": "count",
    "lbfgs.line_search_self_s": "s",
    "lbfgs.line_search_failures": "count",
    "lbfgs.head_iterations": "count",
    "lbfgs.head_self_s": "s",
    "lbfgs.self_s": "s",
    "baselines.knn_s": "s",
    "baselines.knn_calls": "count",
    "baselines.kmeans_s": "s",
    "baselines.kmeans_calls": "count",
    "baselines.bmi_classes_s": "s",
    "baselines.gnb_s": "s",
    "baselines.linreg_s": "s",
    "baselines.self_s": "s",
    "evalharness.run_cv_calls": "count",
    "evalharness.folds": "count",
    "evalharness.failed_folds": "count",
    "evalharness.self_s": "s",
    "evalharness.bmi_rmse": "kg/m2",
    "trace.setup_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("featurize", "train_cv", "importance"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure passes for this long (at least two passes)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_record() -> dict:
    """Cores, Python, numpy, scipy, BLAS and the BLAS thread count in effect.

    OpenBLAS takes its thread count from the first of these variables that is
    set, else it uses every core the process may run on.
    """
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    cores = len(os.sched_getaffinity(0))
    source, threads = "default: cores", cores
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").strip():
            source, threads = var, int(os.environ[var])
            break
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_threads_source": source,
    }


def measure(run_pass, after_pass, seconds: float, min_passes: int):
    """Run at least ``min_passes`` passes, then more while the next one, as
    long as the last, still ends within ``seconds`` of the start.

    Only ``run_pass`` is timed; ``after_pass`` gets each result untimed.
    """
    walls, results = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        results.append(run_pass())
        walls.append(time.perf_counter() - t0)
        after_pass(results[-1])
    return walls, results


def best_of_passes(per_pass: list[list[float]]) -> list[float]:
    """Each unit's shortest time over the passes.

    Every pass times the same units in the same order, and each unit does the
    same work on every pass (the checks hold its output to the bit).
    """
    if len({len(units) for units in per_pass}) != 1:
        raise RuntimeError("passes timed different numbers of units")
    return [min(times) for times in zip(*per_pass)]


def median_index(values) -> int:
    return sorted(range(len(values)), key=values.__getitem__)[(len(values) - 1) // 2]


def run(args, workdir: str, workloads, tracer) -> dict:
    workload = workloads.WORKLOADS[args.workload]()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
    workload.warm_up(inputs, workdir)
    walls, passes = measure(lambda: workload.run_pass(inputs, workdir), workload.after_pass,
                            args.seconds, MIN_PASSES)

    doc = {"setup_s": setup_s, "pass_wall_s": walls}
    traced_walls, traced_passes = [], []
    if args.trace:
        setup_tracer = tracer.Tracer()
        with setup_tracer.patched(tracer.targets(setup_tracer)):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_wall = time.perf_counter() - t0
        tracers = []

        def traced_pass():
            tr = tracer.Tracer()
            with tr.patched(tracer.targets(tr)):
                t0 = time.perf_counter()
                result = workload.run_pass(inputs, workdir)
                traced_walls.append(time.perf_counter() - t0)
            tracers.append(tr)
            return result

        _, traced_passes = measure(traced_pass, workload.after_pass, args.seconds, 1)
        doc["traced_pass_wall_s"] = traced_walls

    info = workload.finish(inputs, passes + traced_passes, workdir)
    doc["errors"] = info["errors"]
    doc["unit_s"] = [p.unit_s for p in passes]
    doc["fold_s"] = [p.fold_s for p in passes]
    # README.md, "Run statistics": the sum of each unit's best time, or the
    # mean pass; the median of each fold's best time, or the mean fold.
    if workload.best_of_units:
        wall = math.fsum(best_of_passes(doc["unit_s"]))
        fold_s = statistics.median(best_of_passes(doc["fold_s"]))
    else:
        wall = statistics.fmean(walls)
        fold_s = statistics.fmean(t for p in doc["fold_s"] for t in p)

    if args.trace:
        chosen = median_index(traced_walls)
        metrics = tracer.pass_metrics(tracers[chosen], traced_walls[chosen])
        metrics.update(tracer.setup_metrics(setup_tracer, setup_wall))
        metrics["dataset.corpus_bytes"] = info.get("corpus_bytes", 0)
        metrics["evalharness.bmi_rmse"] = info["quality"]["bmi_rmse"]
        traced_wall = (math.fsum(best_of_passes([p.unit_s for p in traced_passes]))
                       if workload.best_of_units else statistics.fmean(traced_walls))
        metrics["trace.overhead_s"] = traced_wall - wall
        units = PER_LAYER
        doc["traced_pass"] = chosen
        doc["spans"] = {"setup": [s.to_document() for s in setup_tracer.spans],
                        "pass": [s.to_document() for s in tracers[chosen].spans]}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "frames_per_s": info["frames"] / wall,
            "fold_s": fold_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{name: info["quality"][name]
               for name in ("identity_accuracy", "bmi_r2", "bmi_class_accuracy")},
            "fold_success_ratio": info["folds_completed"] / info["folds_attempted"],
        }
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    doc["metrics"] = {name: {"value": float(metrics[name]), "unit": unit}
                      for name, unit in units.items()}
    doc["result"] = {
        "correct": not info["errors"],
        "attempted": int(info["attempted"]),
        "failed": int(info["failed"]),
        "metrics": doc["metrics"],
    }
    return doc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pressmat" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pressmat

    if Path(pressmat.__file__).resolve().parent != (SRC / "pressmat").resolve():
        print(f"bench: imported pressmat from {pressmat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        doc = run(args, workdir, workloads, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "machine": machine_record(), **doc}
    out_path = OUT_DIR / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(doc["machine"], sort_keys=True))
    passes = doc.get("traced_pass_wall_s", doc["pass_wall_s"])
    print(f"passes {len(doc['pass_wall_s'])} untraced"
          + (f", {len(passes)} traced" if args.trace else "")
          + f"; set-ups {len(doc['setup_s'])}; per pass {len(doc['fold_s'][0])} folds timed"
          + (f" and {len(doc['unit_s'][0])} units, each at its best over the passes"
             if doc["unit_s"][0] else ""))
    for name, m in doc["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for err in doc["errors"]:
        print(f"CHECK FAILED: {err}")
    print("checks " + ("passed" if not doc["errors"] else f"failed ({len(doc['errors'])})"))
    print(f"details {out_path}")
    print(json.dumps(doc["result"]))
    return 0 if doc["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
