"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 stage failure. A single
YAML configuration file drives the full pipeline; --set key.path=value
overrides individual entries.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, boosting, clustering, genetic
from . import pipeline as pipeline_mod
from . import reports
from .dataset import load_csv, split_train_test, synthesize, write_csv
from .errors import ClusteringError, ConfigError, RareRiskError, StageError


class _Parser(argparse.ArgumentParser):
    # Bad flags are configuration errors (exit 1), not stage failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _at_least(text: str, low: int) -> int:
    """An integer of at least low, for argparse."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rarerisk",
        description=(
            "Rare-event risk analysis: cost-weighted boosting, genetic "
            "search for extreme-risk profiles, and predictor clustering."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set ga.seed=7",
        )
        p.add_argument("--output-dir", help="override the output directory")

    p = sub.add_parser("pipeline", help="run every stage end to end")
    add_config(p)

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    add_config(p)
    p.add_argument("--out", required=True, help="destination CSV path")

    p = sub.add_parser("split", help="split a CSV into train and test")
    p.add_argument("--input", required=True)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--seed", type=lambda text: _at_least(text, 0), default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--response", help="response column (default: last)")

    p = sub.add_parser("baseline", help="fit the logistic benchmark")
    p.add_argument("--train", required=True)
    p.add_argument("--response", help="response column (default: last)")
    p.add_argument("--out", required=True, help="summary JSON path")

    p = sub.add_parser("train", help="fit the boosted model")
    add_config(p)
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--out", required=True, help="model JSON path")

    p = sub.add_parser("evolve", help="run the genetic search")
    add_config(p)
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--population-out", required=True)
    p.add_argument("--trace-out", required=True, help="trace CSV base path")

    p = sub.add_parser("analyze", help="commonality and reverse coding")
    add_config(p)
    p.add_argument("--model", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--out", required=True, help="importance table base path")

    p = sub.add_parser("cluster", help="cluster predictors of a population")
    p.add_argument("--population", required=True)
    p.add_argument("--svg-out", required=True)
    p.add_argument("--newick-out")
    p.add_argument(
        "--k", type=lambda text: _at_least(text, 1), help="also print a k-cluster partition"
    )

    p = sub.add_parser("report", help="verify a run directory's manifest")
    p.add_argument("--run-dir", required=True)

    return parser


def _load_config(args) -> pipeline_mod.PipelineConfig:
    return pipeline_mod.load_config(args.config, args.set, args.output_dir)


def _cmd_pipeline(args) -> int:
    config = _load_config(args)
    manifest = pipeline_mod.run_pipeline(config)
    print(f"run complete: {config.output_dir}")
    for art in manifest.artifacts:
        print(f"  [{art['kind']}] {art['path']}")
    return 0


def _cmd_synth(args) -> int:
    config = _load_config(args)
    if config.synth is None:
        raise ConfigError("synth command needs a dataset.synth section")
    ds = synthesize(config.synth)
    write_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.p} dataset to {args.out}")
    return 0


def _cmd_split(args) -> int:
    ds = load_csv(args.input, response=args.response)
    train, test = split_train_test(ds, args.n_train, args.seed)
    write_csv(train, args.train_out)
    write_csv(test, args.test_out)
    print(f"train: {train.n} rows -> {args.train_out}")
    print(f"test:  {test.n} rows -> {args.test_out}")
    return 0


def _cmd_baseline(args) -> int:
    ds = load_csv(args.train, response=args.response)
    doc, probs = pipeline_mod.logistic_summary(ds)
    pipeline_mod.write_json(args.out, doc)
    print(f"max fitted probability: {probs.max():.4f}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    ds = load_csv(args.train, response=config.csv_response)
    model = pipeline_mod.fit_model(ds, config)
    boosting.save_model(model, args.out)
    print(
        f"fitted {len(model.trees)} trees, using {model.n_trees_used}; "
        f"model -> {args.out}"
    )
    return 0


def _cmd_evolve(args) -> int:
    config = _load_config(args)
    model = boosting.load_model(args.model)
    trace = pipeline_mod.search(model, config.ga)
    genetic.save_population_csv(
        trace.final, args.population_out, names=model.predictor_names
    )
    reports.write_ga_trace(trace, args.trace_out)
    best = trace.best[-1]
    print(f"final best fitness: {best:.4f}; population -> {args.population_out}")
    return 0


def _cmd_analyze(args) -> int:
    config = _load_config(args)
    model = boosting.load_model(args.model)
    pop, names = genetic.load_population_csv(args.population)
    common, reverse = pipeline_mod.population_importance(
        model, pop, config.epsilon
    )
    if not reverse.predictors:
        print(
            "note: no universal predictors found; reverse-coding report "
            "is empty"
        )
    pipeline_mod.write_importance(model, names, common, reverse, args.out)
    print(
        f"benchmark mean risk {reverse.benchmark_mean:.4f}; "
        f"{len(common.universal)} universal predictors; table -> {args.out}"
    )
    return 0


def _cmd_cluster(args) -> int:
    pop, names = genetic.load_population_csv(args.population)
    # Checked before the figure is written or anything is printed.
    if args.k is not None and args.k > len(names):
        raise ClusteringError(f"k must lie in [1, {len(names)}], got {args.k}")
    dg = pipeline_mod.cluster_predictors(
        pop, names, args.svg_out, args.newick_out
    )
    print(
        f"agglomerative coefficient: {dg.agglomerative_coefficient:.4f}; "
        f"figure -> {args.svg_out}"
    )
    if args.k is not None:
        for group in clustering.cut_clusters(dg, k=args.k):
            print("  cluster:", ", ".join(dg.labels[i] for i in group))
    return 0


def _cmd_report(args) -> int:
    result = pipeline_mod.verify_manifest(args.run_dir)
    if result["ok"]:
        print("manifest verified: all artifact digests match")
        return 0
    if result["status"] != "ok":
        print(
            f"run failed in stage {result['failed_stage']!r}: {result['error']}",
            file=sys.stderr,
        )
    for path in result["missing"]:
        print(f"missing artifact: {path}", file=sys.stderr)
    for path in result["mismatched"]:
        print(f"digest mismatch: {path}", file=sys.stderr)
    raise StageError("report", RareRiskError("manifest verification failed"))


_COMMANDS = {
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
    "split": _cmd_split,
    "baseline": _cmd_baseline,
    "train": _cmd_train,
    "evolve": _cmd_evolve,
    "analyze": _cmd_analyze,
    "cluster": _cmd_cluster,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RareRiskError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
