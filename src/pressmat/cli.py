"""Command-line pipeline: synth | ingest | preprocess | features | train |
eval | importance | report.

Every stochastic subcommand takes a mandatory --seed so reruns are
reproducible; outputs are written atomically (temp file + rename). Bad input
(a ValueError or OSError, or a CV run that two failed folds abort) prints one
line to stderr and exits 1; any other exception is a bug and keeps its traceback.
"""

import argparse
import sys

from . import adapters, baselines, evalharness, features, mtnet, preprocess, synthgen
from .dataset import GridSpec, atomic_write_text, load_corpus, save_corpus, write_json
from .evalharness import EvaluationReport


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_synth(args) -> int:
    postures = tuple(p.strip() for p in args.postures.split(",") if p.strip())
    grid = GridSpec(args.rows, args.cols, args.ceiling, args.frame_rate)
    noise = synthgen.NoiseSpec(
        multiplicative_sigma=args.noise_mult,
        dropout_prob=args.noise_dropout,
        jitter_sigma_cells=args.noise_jitter,
    )
    corpus = synthgen.generate_corpus(
        n_subjects=args.subjects,
        frames_per_subject=args.frames_per_subject,
        postures=postures,
        noise=noise,
        grid=grid,
        seed=args.seed,
    )
    save_corpus(corpus, args.out, extra_manifest={"provenance": _echo(args)})
    return 0


def cmd_ingest(args) -> int:
    if args.adapter == "pmatdata":
        if not args.subjects_file:
            raise ValueError("pmatdata ingest needs --subjects-file")
        corpus = adapters.ingest_pmatdata(
            args.in_path,
            subjects_file=args.subjects_file,
            transpose=args.transpose,
            posture_table_path=args.posture_table,
        )
    else:
        corpus = adapters.ingest_hrlros(args.in_path)
    save_corpus(corpus, args.out, extra_manifest={"provenance": _echo(args)})
    return 0


def cmd_preprocess(args) -> int:
    corpus = load_corpus(args.in_path)
    if not args.skip_filters:
        corpus = preprocess.denoise_corpus(
            corpus,
            median_window=args.median_window,
            gaussian_window=args.gaussian_window,
            gaussian_sigma=args.gaussian_sigma,
        )
    save_corpus(corpus, args.out, extra_manifest={"provenance": _echo(args)})
    return 0


def cmd_features(args) -> int:
    corpus = load_corpus(args.in_path)
    table = features.extract_table(corpus)
    features.save_feature_table(table, args.out)
    write_json(args.out + ".meta.json", {"provenance": _echo(args)})
    return 0


def _train_config(args) -> mtnet.TrainConfig:
    return mtnet.TrainConfig(max_iterations=args.max_iter, seed=args.seed)


def cmd_train(args) -> int:
    table = features.load_feature_table(args.features)
    labels = table.bmi_classes()  # a table without classes fails before training
    config = _train_config(args)
    model = mtnet.train(
        table.active_matrix(),
        table.subject_ids,
        table.bmi,
        config,
        feature_mask=table.mask,
    )
    mtnet.fit_bmi_class_head(model, table.active_matrix(), labels)
    mtnet.save_model(model, args.model_out)
    stats = model.train_result
    print(
        f"trained: {stats.n_iterations} iterations, final loss {stats.loss:.6g}, "
        f"stop={stats.stop_reason}",
        file=sys.stderr,
    )
    return 0


def cmd_eval(args) -> int:
    table = features.load_feature_table(args.features)
    plan = evalharness.make_folds(table.subject_ids, n_folds=args.folds, seed=args.seed)
    recipe = _build_recipe(args)
    report = evalharness.run_cv(table, recipe, plan, config_echo=_echo(args))
    report.save(args.report_out)
    if args.per_fold_csv:
        report.save_per_fold_csv(args.per_fold_csv)
    return 0


def _build_recipe(args):
    if args.recipe == "mtnet":
        return evalharness.MtnetRecipe(_train_config(args))
    if args.recipe == "knn":
        return evalharness.KnnRecipe(k=args.knn_k, metric=args.knn_metric)
    if args.recipe == "gnb":
        return evalharness.GnbRecipe()
    return evalharness.LinregRecipe()


def cmd_importance(args) -> int:
    table = features.load_feature_table(args.features)
    plan = evalharness.make_folds(table.subject_ids, n_folds=args.folds, seed=args.seed)
    recipe = _build_recipe(args)
    result = evalharness.drop_column_importance(table, recipe, plan)
    write_json(args.out, {"config_echo": _echo(args), "importance": result})
    return 0


def cmd_report(args) -> int:
    report = EvaluationReport.load(args.in_path)
    if args.format == "csv":
        lines = ["metric,mean,std"]
        for name in report.scalar_metric_names():
            entry = report.aggregate["scalars"][name]
            lines.append(f"{name},{entry['mean']!r},{entry['std']!r}")
    else:
        width = max((len(n) for n in report.scalar_metric_names()), default=10)
        lines = [f"recipe: {report.config_echo.get('recipe', '?')}   "
                 f"folds: {report.config_echo.get('n_folds', '?')}"]
        for name in report.scalar_metric_names():
            entry = report.aggregate["scalars"][name]
            lines.append(f"{name:<{width}}  {entry['mean']:.4f} +/- {entry['std']:.4f}")
        if report.failed_folds:
            lines.append(f"failed folds: {[f['fold'] for f in report.failed_folds]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=14500)


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by eval and importance."""
    p.add_argument("--features", required=True)
    p.add_argument("--recipe", choices=("mtnet", "knn", "gnb", "linreg"), required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--knn-k", type=int, default=10)
    p.add_argument("--knn-metric", choices=baselines.KNN_METRICS, default="euclidean")
    _add_train_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressmat",
        description="Smart-bed pressure-map pipeline: BMI estimation and "
                    "identity recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--frames-per-subject", type=int, required=True)
    p.add_argument("--postures", default="supine,left,right")
    p.add_argument("--noise-mult", type=float, default=0.0)
    p.add_argument("--noise-dropout", type=float, default=0.0)
    p.add_argument("--noise-jitter", type=float, default=0.0)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--ceiling", type=float, default=1000.0)
    p.add_argument("--frame-rate", type=float, default=1.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert a raw public dataset")
    p.add_argument("--adapter", choices=("pmatdata", "hrlros"), required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects-file", default=None)
    p.add_argument("--transpose", action="store_true",
                   help="raw pmatdata lines are column-major")
    p.add_argument("--posture-table", default=None,
                   help="override the shipped 17->10 posture table (JSON)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="median + temporal Gaussian denoising")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--median-window", type=int, default=3)
    p.add_argument("--gaussian-window", type=int, default=5)
    p.add_argument("--gaussian-sigma", type=float, default=1.0)
    p.add_argument("--skip-filters", action="store_true")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="extract the 14 per-frame features")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the multitask network on all rows")
    p.add_argument("--features", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="10-fold cross-validation of a recipe")
    _add_cv_flags(p)
    p.add_argument("--report-out", required=True)
    p.add_argument("--per-fold-csv", default=None,
                   help="also write flat per-fold metrics for plotting tools")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("importance", help="drop-column feature importance")
    _add_cv_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("report", help="render an evaluation report")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, evalharness.CVAbortedError) as e:  # bad input: one line
        print(f"pressmat {args.command}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
