"""Config-driven end-to-end pipeline.

Stages run in a fixed order: dataset, split, baseline, boost, confusion,
ga, analysis, clustering, reports. Every tuning constant comes from one
configuration document, every stage draws randomness only from its
configured seed, and all artifacts except the manifest (which carries
timestamps and wall-clock timings) are byte-identical across reruns of
the same configuration.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np
import yaml

from . import analysis, boosting, clustering, genetic, logistic, render, reports
from ._io import write_artifact
from .boosting import BoostConfig
from .dataset import DataSet, SynthSpec
from .dataset import base_rate as dataset_base_rate
from .dataset import load_csv, split_train_test, synthesize, write_csv
from .errors import ConfigError, DatasetError, RareRiskError, StageError
from .genetic import GaConfig

__all__ = [
    "PipelineConfig",
    "RunManifest",
    "load_config",
    "run_pipeline",
    "verify_manifest",
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "RARERISK_OUTPUT_DIR"

MANIFEST_FORMAT = "rarerisk.run_manifest"
MANIFEST_VERSION = 1

@dataclass(frozen=True)
class PipelineConfig:
    """Fully resolved pipeline settings; one dataset source only."""

    output_dir: Path
    csv_path: Path | None
    csv_response: str | None
    synth: SynthSpec | None
    n_train: int
    split_seed: int
    boost: BoostConfig
    use_cv: bool
    threshold: float
    ga: GaConfig
    ga_repeats: int
    epsilon: float
    histogram_bins: int

    def __post_init__(self):
        if (self.csv_path is None) == (self.synth is None):
            raise ConfigError(
                "configure exactly one dataset source: dataset.csv or "
                "dataset.synth"
            )
        if self.synth is not None and self.synth.p < 2:
            # The clustering stage needs two; fail before any fitting.
            raise ConfigError(
                "dataset.synth.p must be at least 2 to cluster predictors"
            )
        if self.n_train < 1:
            raise ConfigError("split.n_train must be positive")
        if self.split_seed < 0:
            raise ConfigError("split.seed must be non-negative")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("boost.threshold must lie in (0, 1)")
        if self.ga_repeats < 1:
            raise ConfigError("ga.repeats must be at least 1")
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigError("analysis.epsilon must lie in [0, 0.5)")
        if self.histogram_bins < 1:
            raise ConfigError("report.histogram_bins must be at least 1")

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"output_dir": str(self.output_dir)}
        if self.csv_path is not None:
            doc["dataset"] = {"csv": str(self.csv_path)}
            if self.csv_response:
                doc["dataset"]["response"] = self.csv_response
        else:
            s = self.synth
            doc["dataset"] = {
                "synth": {
                    "n": s.n,
                    "p": s.p,
                    "base_rate": s.base_rate,
                    "effects": list(s.effects),
                    "on_rates": list(s.predictor_on_rates),
                    "seed": s.seed,
                }
            }
        doc["split"] = {"n_train": self.n_train, "seed": self.split_seed}
        doc["boost"] = dataclasses.asdict(self.boost)
        doc["boost"]["cv"] = self.use_cv
        doc["boost"]["threshold"] = self.threshold
        doc["ga"] = dataclasses.asdict(self.ga)
        doc["ga"]["repeats"] = self.ga_repeats
        doc["analysis"] = {"epsilon": self.epsilon}
        doc["report"] = {"histogram_bins": self.histogram_bins}
        return doc


# Every key of every config section with its default, or with its type
# if it has none. boost and ga take theirs from the stage dataclasses, so
# a new field there needs no edit here; only the keys the pipeline itself
# reads are listed by hand. A key whose default is an int or a bool takes
# only values of that type (an integral float counts as an int).
_SCHEMA = {
    "dataset": {"csv": None, "response": None, "synth": None},
    "split": {"n_train": int, "seed": 0},
    "boost": {**dataclasses.asdict(BoostConfig()), "cv": True, "threshold": 0.5},
    "ga": {**dataclasses.asdict(GaConfig()), "repeats": 1},
    "analysis": {"epsilon": 0.0},
    "report": {"histogram_bins": 20},
}
_SYNTH_SCHEMA = {
    "n": int,
    "p": int,
    "base_rate": 0.05,
    "effects": 0.0,
    "on_rates": 0.5,
    "seed": 0,
}


def _resolve(section, schema: dict, where: str) -> dict:
    """section with schema's defaults filled in. None counts as an empty
    section; a non-mapping, an unknown key, a missing required key or a
    value of the wrong type is a ConfigError."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    resolved = {**schema, **section}
    for key, value in resolved.items():
        kind = schema[key] if isinstance(schema[key], type) else type(schema[key])
        if value is kind:
            raise ConfigError(f"{where}.{key} is required")
        if kind is bool and not isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
        if kind is int:
            # int() raises on nan and inf; a fraction, a bool or text differs from it.
            if isinstance(value, bool) or int(value) != value:
                raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
            resolved[key] = int(value)
    return resolved


def _broadcast(value, p: int, what: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return tuple([float(value)] * p)
    values = [float(v) for v in value]
    if len(values) != p:
        raise ConfigError(f"dataset.synth.{what} must have length p={p}")
    return tuple(values)


def config_from_dict(doc: dict, base_dir: Path | None = None) -> PipelineConfig:
    """Build a validated PipelineConfig from a parsed YAML/JSON document."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()

    def resolve_path(raw) -> Path:
        path = Path(raw)
        return path if path.is_absolute() else (base / path).resolve()

    try:
        root = _resolve(doc, dict.fromkeys(["output_dir", *_SCHEMA]), "config")
        sec = {name: _resolve(root[name], _SCHEMA[name], name) for name in _SCHEMA}
        out = root["output_dir"] or os.environ.get(OUTPUT_DIR_ENV)
        if not out:
            raise ConfigError(
                f"output_dir missing (set it in the config or via ${OUTPUT_DIR_ENV})"
            )
        dataset = sec["dataset"]
        csv_path = csv_response = synth = None
        if dataset["csv"] is not None:
            csv_path = resolve_path(dataset["csv"])
            csv_response = dataset["response"]
        if dataset["synth"] is not None:
            s = _resolve(dataset["synth"], _SYNTH_SCHEMA, "dataset.synth")
            synth = SynthSpec(
                n=s["n"],
                p=s["p"],
                base_rate=float(s["base_rate"]),
                effects=_broadcast(s["effects"], s["p"], "effects"),
                predictor_on_rates=_broadcast(s["on_rates"], s["p"], "on_rates"),
                seed=s["seed"],
            )
        boost, ga = sec["boost"], sec["ga"]
        use_cv, threshold = boost.pop("cv"), float(boost.pop("threshold"))
        ga_repeats = ga.pop("repeats")
        return PipelineConfig(
            output_dir=resolve_path(out),
            csv_path=csv_path,
            csv_response=csv_response,
            synth=synth,
            n_train=sec["split"]["n_train"],
            split_seed=sec["split"]["seed"],
            boost=BoostConfig(**boost),
            use_cv=use_cv,
            threshold=threshold,
            ga=GaConfig(**ga),
            ga_repeats=ga_repeats,
            epsilon=float(sec["analysis"]["epsilon"]),
            histogram_bins=sec["report"]["histogram_bins"],
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError, RareRiskError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc


def _parse_yaml(text, what: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {what}: {exc}") from exc


def load_config(
    path: str | Path,
    overrides: Sequence[str] = (),
    output_dir: str | None = None,
) -> PipelineConfig:
    """Parse a YAML (or JSON) configuration file.

    overrides are "key.path=value" entries whose values parse as YAML
    (the CLI's --set); output_dir, when given, replaces the configured
    output directory. Both apply to the parsed document before it is
    validated.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    doc = _parse_yaml(text, str(path))
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a mapping")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            # An empty section (`boost:` with nothing under it) reads as None.
            if node.get(part) is None:
                node[part] = {}
            node = node[part]
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {key!r}: not a mapping")
        node[parts[-1]] = _parse_yaml(raw, f"--set {item!r}")
    if output_dir:
        doc["output_dir"] = output_dir
    return config_from_dict(doc, base_dir=path.parent)


@dataclass
class RunManifest:
    config: dict
    seeds: dict
    stages: list[dict]
    artifacts: list[dict]
    status: str = "ok"
    failed_stage: str | None = None
    error: str | None = None
    created_utc: str = ""

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "created_utc": self.created_utc,
            "status": self.status,
            "failed_stage": self.failed_stage,
            "error": self.error,
            "config": self.config,
            "seeds": self.seeds,
            "stages": self.stages,
            "artifacts": self.artifacts,
        }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Stage results threaded through the pipeline, plus the manifest's
    artifact registry."""

    def __init__(self, config: PipelineConfig):
        self.cfg = config
        self.out = config.output_dir
        self.manifest = RunManifest(
            config=config.to_dict(),
            seeds={
                "dataset": None if config.synth is None else config.synth.seed,
                "split": config.split_seed,
                "boost": config.boost.seed,
                "ga": config.ga.seed,
            },
            stages=[],
            artifacts=[],
        )
        self.data: DataSet | None = None
        self.train: DataSet | None = None
        self.test: DataSet | None = None
        self.model: boosting.BoostModel | None = None
        self.trace: genetic.GaTrace | None = None
        self.repeat_traces: list[genetic.GaTrace] = []
        self.commonality: analysis.CommonalityReport | None = None
        self.reverse: analysis.ReverseCodingReport | None = None

    def add_artifact(self, path: Path, kind: str) -> None:
        self.manifest.artifacts.append(
            {
                "path": str(path.relative_to(self.out)),
                "kind": kind,
                "sha256": _sha256(path),
            }
        )

    def add_twin(self, paths: Sequence[Path], kind: str) -> None:
        """Register a table's CSV as kind and its JSON twin as kind_json."""
        for path in paths:
            self.add_artifact(path, kind if path.suffix == ".csv" else f"{kind}_json")

    def add_json(self, name: str, kind: str, doc: dict) -> None:
        path = self.out / name
        write_json(path, doc)
        self.add_artifact(path, kind)


# ---------------------------------------------------------------------------
# Stage work shared by run_pipeline and the stagewise CLI commands


def write_json(path: str | Path, doc: dict) -> None:
    """Write a summary document as indented JSON with sorted keys."""
    with write_artifact(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=True)
        fh.write("\n")


def logistic_summary(train: DataSet) -> tuple[dict, np.ndarray]:
    """Fit the logistic baseline on train.

    Returns the logistic_summary.json document and the fitted training
    probabilities.
    """
    model = logistic.fit_logistic(train)
    probs = logistic.predict_logistic(model, train.X)
    doc = {
        "intercept": model.intercept,
        "coefficients": model.coefficients.tolist(),
        "converged": model.converged,
        "iterations": model.iterations,
        "diagnostic": model.diagnostic,
        "max_fitted_probability": float(probs.max()),
        "mean_fitted_probability": float(probs.mean()),
        "train_base_rate": dataset_base_rate(train),
    }
    return doc, probs


def fit_model(train: DataSet, config: PipelineConfig) -> boosting.BoostModel:
    """Fit the boosted model; with config.use_cv the number of trees used
    is selected by cross-validation, otherwise every grown tree is used."""
    if config.use_cv:
        return boosting.fit_boost_cv(train, config.boost)
    return boosting.fit_boost(train, config.boost)


def search(model: boosting.BoostModel, ga: GaConfig) -> genetic.GaTrace:
    """Genetic search with the model's predicted risk as fitness."""
    return genetic.evolve(None, model.p, ga, batch_fitness=model.predict)


def population_importance(
    model: boosting.BoostModel, pop: genetic.Population, epsilon: float
) -> tuple[analysis.CommonalityReport, analysis.ReverseCodingReport]:
    """Commonality of the population's predictors, then reverse coding of
    the universal ones."""
    common = analysis.commonality_importance(pop, epsilon)
    with warnings.catch_warnings():
        # An empty universal set is a legitimate outcome here; the report
        # is then empty and the importance table records the notice.
        warnings.simplefilter("ignore", RuntimeWarning)
        reverse = analysis.reverse_coding_importance(model, pop, common)
    return common, reverse


def write_importance(
    model: boosting.BoostModel,
    names: Sequence[str],
    common: analysis.CommonalityReport,
    reverse: analysis.ReverseCodingReport,
    path_base: str | Path,
) -> list[Path]:
    """Write the merged importance table as <base>.csv and <base>.json."""
    return reports.write_importance_table(
        names,
        boosting.in_sample_importance(model),
        common,
        reverse,
        path_base,
    )


def cluster_predictors(
    pop: genetic.Population,
    names: Sequence[str],
    svg_path: str | Path,
    newick_path: str | Path | None = None,
) -> clustering.Dendrogram:
    """Cluster the population's predictors (Gower dissimilarity, average
    linkage) and draw the dendrogram as SVG, plus Newick when a path for
    it is given."""
    d = clustering.gower_binary_dissimilarity(pop)
    dg = clustering.agnes_average_linkage(d, labels=names)
    render.render_dendrogram(dg, svg_path, title="Clustering of risk predictors")
    if newick_path:
        with write_artifact(newick_path) as fh:
            fh.write(clustering.dendrogram_to_newick(dg) + "\n")
    return dg


# ---------------------------------------------------------------------------
# Stages


def _stage_dataset(run: _Run) -> None:
    cfg = run.cfg
    if cfg.synth is not None:
        run.data = synthesize(cfg.synth)
    else:
        run.data = load_csv(cfg.csv_path, response=cfg.csv_response)
        if run.data.p < 2:
            raise DatasetError(
                f"{cfg.csv_path} has one predictor; clustering needs at least two"
            )
    path = run.out / "dataset.csv"
    write_csv(run.data, path)
    run.add_artifact(path, "dataset")


def _stage_split(run: _Run) -> None:
    run.train, run.test = split_train_test(
        run.data, run.cfg.n_train, run.cfg.split_seed
    )


def _stage_baseline(run: _Run) -> None:
    doc, probs = logistic_summary(run.train)
    fig = run.out / "hist_logistic.svg"
    render.render_histogram(
        probs,
        run.cfg.histogram_bins,
        fig,
        title="Fitted risk probabilities: logistic baseline (train)",
    )
    run.add_artifact(fig, "histogram")
    run.add_json("logistic_summary.json", "logistic_summary", doc)


def _stage_boost(run: _Run) -> None:
    cfg = run.cfg
    run.model = fit_model(run.train, cfg)
    model_path = run.out / "model.json"
    boosting.save_model(run.model, model_path)
    run.add_artifact(model_path, "model")

    probs = run.model.predict(run.test.X)
    fig = run.out / "hist_boost_test.svg"
    render.render_histogram(
        probs,
        cfg.histogram_bins,
        fig,
        title="Predicted risk probabilities: weighted boosting (test)",
    )
    run.add_artifact(fig, "histogram")
    run.add_json(
        "boost_summary.json",
        "boost_summary",
        {
            "n_trees_used": run.model.n_trees_used,
            "n_trees_grown": len(run.model.trees),
            "intercept": run.model.intercept,
            "train_deviance_first": float(run.model.train_deviance[0])
            if len(run.model.train_deviance)
            else None,
            "train_deviance_last": float(run.model.train_deviance[-1])
            if len(run.model.train_deviance)
            else None,
            "cv_selected": run.cfg.use_cv,
            "test_fraction_above_threshold": float(
                np.mean(probs > cfg.threshold)
            ),
        },
    )


def _stage_confusion(run: _Run) -> None:
    table = boosting.confusion(run.model, run.test, run.cfg.threshold)
    paths = reports.write_confusion_table(table, run.out / "confusion")
    run.add_twin(paths, "confusion_table")


def _stage_ga(run: _Run) -> None:
    cfg = run.cfg
    run.trace = search(run.model, cfg.ga)
    for i in range(1, cfg.ga_repeats):
        repeat_cfg = dataclasses.replace(cfg.ga, seed=cfg.ga.seed + i)
        run.repeat_traces.append(search(run.model, repeat_cfg))

    fig = run.out / "hist_ga.svg"
    render.render_histogram(
        run.trace.final.fitness,
        cfg.histogram_bins,
        fig,
        title="Predicted risk probabilities: evolved population",
    )
    run.add_artifact(fig, "histogram")


def _stage_analysis(run: _Run) -> None:
    cfg = run.cfg
    pop = run.trace.final
    run.commonality, run.reverse = population_importance(
        run.model, pop, cfg.epsilon
    )
    best_counts, global_max = analysis.nearest_match(pop, run.data)
    run.add_json(
        "analysis_summary.json",
        "analysis_summary",
        {
            "benchmark_mean_risk": run.reverse.benchmark_mean,
            "n_universal_predictors": len(run.commonality.universal),
            "nearest_match_global_max": global_max,
            "nearest_match_mean": float(best_counts.mean()),
            "population_size": pop.size,
            "epsilon": cfg.epsilon,
        },
    )
    if run.repeat_traces:
        _write_stability(run)


def _write_stability(run: _Run) -> None:
    """Commonality stability across repeated searches with shifted seeds."""
    common = [
        analysis.commonality_importance(t.final, run.cfg.epsilon)
        for t in [run.trace] + run.repeat_traces
    ]
    props = np.vstack([c.proportion_on for c in common])
    rows = [
        [
            "predictor",
            "mean_commonality",
            "min_commonality",
            "max_commonality",
            "n_always_on",
            "n_always_off",
        ]
    ]
    names = run.data.schema.names
    for j in range(props.shape[1]):
        col = props[:, j]
        classes = [c.switch_class[j] for c in common]
        rows.append(
            [
                names[j],
                f"{col.mean():.6f}",
                f"{col.min():.6f}",
                f"{col.max():.6f}",
                str(classes.count(analysis.SwitchClass.ALWAYS_ON)),
                str(classes.count(analysis.SwitchClass.ALWAYS_OFF)),
            ]
        )
    path = run.out / "commonality_stability.csv"
    with write_artifact(path) as fh:
        csv.writer(fh).writerows(rows)
    run.add_artifact(path, "commonality_stability")


def _stage_clustering(run: _Run) -> None:
    fig = run.out / "dendrogram.svg"
    nwk = run.out / "dendrogram.newick"
    dg = cluster_predictors(run.trace.final, run.data.schema.names, fig, nwk)
    run.add_artifact(fig, "dendrogram")
    run.add_artifact(nwk, "dendrogram_newick")
    run.add_json(
        "dendrogram.json",
        "dendrogram_json",
        {
            "labels": list(dg.labels),
            "merges": dg.merges.tolist(),
            "heights": dg.heights.tolist(),
            "normalized_heights": dg.normalized_heights.tolist(),
            "first_merge_heights": dg.first_merge.tolist(),
            "agglomerative_coefficient": dg.agglomerative_coefficient,
        },
    )


def _stage_reports(run: _Run) -> None:
    names = run.data.schema.names
    paths = write_importance(
        run.model, names, run.commonality, run.reverse, run.out / "importance"
    )
    run.add_twin(paths, "importance_table")
    run.add_twin(reports.write_ga_trace(run.trace, run.out / "ga_trace"), "ga_trace")
    pop_path = run.out / "population.csv"
    genetic.save_population_csv(run.trace.final, pop_path, names=names)
    run.add_artifact(pop_path, "population")


_STAGE_FUNCS = {
    "dataset": _stage_dataset,
    "split": _stage_split,
    "baseline": _stage_baseline,
    "boost": _stage_boost,
    "confusion": _stage_confusion,
    "ga": _stage_ga,
    "analysis": _stage_analysis,
    "clustering": _stage_clustering,
    "reports": _stage_reports,
}
STAGES = tuple(_STAGE_FUNCS)


def run_pipeline(config: PipelineConfig) -> RunManifest:
    """Execute every stage, write all artifacts plus manifest.json.

    Any stage failure aborts the run; the manifest is still written with
    the failed stage named and the artifacts produced so far flagged as
    partial.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    _take_lock(lock)
    run = _Run(config)
    try:
        for stage in STAGES:
            t0 = time.perf_counter()
            try:
                _STAGE_FUNCS[stage](run)
            except Exception as exc:
                run.manifest.status = "failed"
                run.manifest.failed_stage = stage
                run.manifest.error = f"{type(exc).__name__}: {exc}"
                for art in run.manifest.artifacts:
                    art["partial"] = True
                _write_manifest(run)
                raise StageError(stage, exc) from exc
            run.manifest.stages.append(
                {
                    "name": stage,
                    "seconds": round(time.perf_counter() - t0, 6),
                }
            )
        _write_manifest(run)
        return run.manifest
    finally:
        lock.unlink(missing_ok=True)


def _take_lock(lock: Path) -> None:
    """Create lock holding this process's pid. A lock whose pid no longer
    runs is taken over once, with a RuntimeWarning."""
    for retry in (False, True):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            pid = None if retry else _dead_owner(lock)
            if pid is None:
                raise ConfigError(
                    f"output directory {lock.parent} is locked by another "
                    f"run (remove {lock} if stale)"
                ) from None
            warnings.warn(
                f"taking over stale lock {lock}: process {pid} no longer runs",
                RuntimeWarning,
                stacklevel=3,
            )
            lock.unlink(missing_ok=True)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
    finally:
        os.close(fd)


def _dead_owner(lock: Path) -> int | None:
    """The pid stored in lock if no process has it, else None. Only POSIX
    is probed: on Windows, os.kill with signal 0 sends CTRL_C_EVENT."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
        if os.name == "posix" and pid > 0:  # pids <= 0 name process groups
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError, OverflowError):  # e.g. owned by another user
        pass
    return None


def _write_manifest(run: _Run) -> None:
    run.manifest.created_utc = datetime.now(timezone.utc).isoformat()
    write_json(run.out / "manifest.json", run.manifest.to_dict())


def verify_manifest(run_dir: str | Path) -> dict:
    """Recompute artifact digests and compare with the stored manifest.

    Returns {"ok", "status", "failed_stage", "error", "mismatched",
    "missing"}; ok is False for a failed run even if every digest matches.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {run_dir}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = [(a["path"], a["sha256"]) for a in doc.get("artifacts", [])]
        if not all(isinstance(v, str) for entry in entries for v in entry):
            raise TypeError("artifact path and sha256 must be strings")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed manifest {manifest_path}: {exc!r}") from exc
    mismatched, missing = [], []
    for rel, digest in entries:
        path = run_dir / rel
        if not path.exists():
            missing.append(rel)
        elif _sha256(path) != digest:
            mismatched.append(rel)
    return {
        "ok": doc.get("status") == "ok" and not mismatched and not missing,
        "status": doc.get("status"),
        "failed_stage": doc.get("failed_stage"),
        "error": doc.get("error"),
        "mismatched": mismatched,
        "missing": missing,
    }
