"""The benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, runs
one job through the public rarerisk API or CLI in `job`, and lists what is
wrong with the job's outputs in `check` (an empty list means correct).
`digests` fingerprints the outputs, so a run can be compared with the
reference recorded at the seed commit, and `fingerprint` fingerprints the
inputs, so tests can show that one seed always gives the same inputs.

`tiny=True` shrinks every size so the tests can run each workload in
seconds; the benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import yaml

# Layer functions are looked up on their modules at call time, so the traced
# run sees these calls too.
from rarerisk import analysis, boosting, cli, clustering, dataset, genetic, pipeline
from rarerisk.boosting import BoostConfig, BoostModel, RegressionTree
from rarerisk.dataset import SynthSpec
from rarerisk.genetic import GaConfig


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _file_sha(path: Path) -> str:
    return _sha(Path(path).read_bytes())


def _seeds(seed: int, k: int) -> list[int]:
    """k independent non-negative seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _paper_spec(n: int, p: int, n_signal: int, seed: int) -> SynthSpec:
    """The paper-scale design: planted effect 0.6 on the first n_signal
    predictors, nulls elsewhere, on-rate 0.5 and base rate 0.05."""
    return SynthSpec(
        n=n,
        p=p,
        base_rate=0.05,
        effects=tuple([0.6] * n_signal + [0.0] * (p - n_signal)),
        predictor_on_rates=tuple([0.5] * p),
        seed=seed,
    )


class Workload:
    def __init__(self, tiny: bool = False):
        self.tiny = tiny


class PipelineCI(Workload):
    """The c09 acceptance config run through `rarerisk pipeline`, with its
    dataset read from a CSV that set-up writes, then `rarerisk report`."""

    name = "pipeline_ci"
    ARTIFACTS = {
        "dataset.csv",
        "hist_logistic.svg",
        "logistic_summary.json",
        "model.json",
        "hist_boost_test.svg",
        "boost_summary.json",
        "confusion.csv",
        "confusion.json",
        "hist_ga.svg",
        "analysis_summary.json",
        "dendrogram.svg",
        "dendrogram.newick",
        "dendrogram.json",
        "importance.csv",
        "importance.json",
        "ga_trace.csv",
        "ga_trace.json",
        "population.csv",
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        s = _seeds(seed, 4)
        if self.tiny:
            n, n_train, effects = 400, 300, [0.8] * 3 + [0.0] * 3
            boost = dict(interaction_depth=2, max_trees=3, cv_folds=2)
            ga = dict(pop_size=20, generations=3)
        else:
            n, n_train, effects = 4000, 3000, [0.8] * 8 + [0.0] * 12
            boost = dict(interaction_depth=3, max_trees=60, cv_folds=5)
            ga = dict(pop_size=200, generations=40)
        spec = SynthSpec(
            n=n,
            p=len(effects),
            base_rate=0.05,
            effects=tuple(effects),
            predictor_on_rates=tuple([0.5] * len(effects)),
            seed=s[0],
        )
        workdir.mkdir(parents=True, exist_ok=True)
        csv_path = workdir / "data.csv"
        dataset.write_csv(dataset.synthesize(spec), csv_path)
        doc = {
            "output_dir": "runs",
            "dataset": {"csv": csv_path.name},
            "split": {"n_train": n_train, "seed": s[1]},
            "boost": dict(
                cost_ratio=10,
                shrinkage=0.1,
                bag_fraction=0.5,
                min_node=10,
                cv=True,
                seed=s[2],
                **boost,
            ),
            "ga": dict(
                p_mutation=0.05,
                p_crossover=0.8,
                elitism_fraction=0.05,
                repeats=1,
                seed=s[3],
                **ga,
            ),
            "analysis": {"epsilon": 0.0},
            "report": {"histogram_bins": 20},
        }
        config_path = workdir / "pipeline_ci.yaml"
        config_path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        return {"csv": csv_path, "config": config_path}

    def job(self, inputs: dict, out: Path) -> dict:
        # The CLI reports to stdout, whose last line belongs to the result.
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(
                ["pipeline", "--config", str(inputs["config"]),
                 "--output-dir", str(out.resolve())]
            )
            rc_report = cli.main(["report", "--run-dir", str(out)])
        return {"rc": rc, "rc_report": rc_report, "out": out}

    def check(self, inputs: dict, result: dict) -> list[str]:
        if result["rc"] != 0 or result["rc_report"] != 0:
            return [f"exit codes pipeline={result['rc']} report={result['rc_report']}"]
        manifest = json.loads((result["out"] / "manifest.json").read_text("utf-8"))
        problems = []
        if manifest["status"] != "ok":
            problems.append(f"manifest status {manifest['status']!r}")
        if [s["name"] for s in manifest["stages"]] != list(pipeline.STAGES):
            problems.append("manifest does not list every stage")
        paths = {a["path"] for a in manifest["artifacts"]}
        if paths != self.ARTIFACTS:
            problems.append(f"artifact set differs: {sorted(paths ^ self.ARTIFACTS)}")
        if not pipeline.verify_manifest(result["out"])["ok"]:
            problems.append("verify_manifest failed")
        return problems

    def digests(self, inputs: dict, result: dict) -> dict:
        manifest = json.loads((result["out"] / "manifest.json").read_text("utf-8"))
        arts = {a["path"]: a["sha256"] for a in manifest["artifacts"]}
        listing = "".join(f"{p} {d}\n" for p, d in sorted(arts.items()))
        return {
            "artifacts": _sha(listing.encode()),
            "model": arts.get("model.json"),
            "population": arts.get("population.csv"),
        }

    def fingerprint(self, inputs: dict) -> dict:
        return {k: _file_sha(v) for k, v in inputs.items()}


class BoostPaper(Workload):
    """Paper-scale cost-weighted boosting: 5-fold CV plus the refit on
    20000 rows at depth 10, then the test confusion table and the model
    file. The tree count is capped so one job fits in a benchmark run."""

    name = "boost_paper"

    def setup(self, seed: int, workdir: Path) -> dict:
        s = _seeds(seed, 3)
        if self.tiny:
            n, p, n_signal, n_train, depth, folds = 600, 6, 3, 500, 3, 2
        else:
            n, p, n_signal, n_train, depth, folds = 22449, 34, 10, 20000, 10, 5
        data = dataset.synthesize(_paper_spec(n, p, n_signal, s[0]))
        train, test = dataset.split_train_test(data, n_train, s[1])
        config = BoostConfig(
            cost_ratio=10.0,
            interaction_depth=depth,
            shrinkage=0.1,
            bag_fraction=0.5,
            min_node=10,
            max_trees=2,
            cv_folds=folds,
            seed=s[2],
        )
        return {"train": train, "test": test, "config": config}

    def job(self, inputs: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        model = boosting.fit_boost_cv(inputs["train"], inputs["config"])
        table = boosting.confusion(model, inputs["test"])
        path = out / "model.json"
        boosting.save_model(model, path)
        return {"model": model, "table": table, "path": path}

    def check(self, inputs: dict, result: dict) -> list[str]:
        model, table = result["model"], result["table"]
        problems = []
        if len(model.trees) != inputs["config"].max_trees:
            problems.append(f"{len(model.trees)} trees grown")
        if np.any(np.diff(model.train_deviance) > 1e-12):
            problems.append("training deviance increased")
        curve = model.cv_curve
        if curve is None or not np.all(np.isfinite(curve)):
            problems.append("CV curve missing or not finite")
        elif model.n_trees_used != int(np.argmin(curve)) + 1:
            problems.append("n_trees_used is not the CV argmin + 1")
        if table.tn + table.fp + table.fn + table.tp != inputs["test"].n:
            problems.append("confusion counts do not cover the test rows")
        return problems

    def digests(self, inputs: dict, result: dict) -> dict:
        return {
            "model": _file_sha(result["path"]),
            "confusion": _sha(json.dumps(result["table"].to_dict(), sort_keys=True).encode()),
        }

    def fingerprint(self, inputs: dict) -> dict:
        return {
            "train": _sha(inputs["train"].X.tobytes(), inputs["train"].y.tobytes()),
            "test": _sha(inputs["test"].X.tobytes(), inputs["test"].y.tobytes()),
            "config": _sha(repr(inputs["config"]).encode()),
        }


# Leaf values of the generated ensemble: the signal step per planted
# predictor on a path, and the sd of the noise added to every leaf.
LEAF_STEP = 0.3
LEAF_NOISE = 0.05


def make_ensemble(
    seed: int,
    p: int,
    n_trees: int,
    n_nodes: int,
    depth: int,
    n_signal: int,
) -> BoostModel:
    """A fixed boosted ensemble built through the public constructors.

    Each tree has exactly n_nodes nodes and is grown by splitting randomly
    chosen leaves above the depth limit. The predictors are dealt into one
    disjoint group per depth level, so no path tests a predictor twice.
    A leaf's value is the planted signal along its path: +LEAF_STEP for
    every signal predictor (index < n_signal) that is on, -LEAF_STEP for
    every one that is off, plus Gaussian noise of sd LEAF_NOISE. The search
    therefore converges towards all signal predictors on, as it does on a
    fitted model.
    """
    rng = np.random.default_rng(seed)
    n_split = (n_nodes - 1) // 2
    trees = []
    for _ in range(n_trees):
        groups = np.array_split(rng.permutation(p), depth)
        picks, choices = rng.random(n_split), rng.random(n_split)
        feature, left, right = [-1], [-1], [-1]
        signal, level = [0.0], [0]
        open_leaves = [0]
        for k in range(n_split):
            i = int(picks[k] * len(open_leaves))
            node = open_leaves[i]
            open_leaves[i] = open_leaves[-1]
            open_leaves.pop()
            group = groups[level[node]]
            f = int(group[int(choices[k] * len(group))])
            feature[node] = f
            left[node], right[node] = len(feature), len(feature) + 1
            shift = LEAF_STEP if f < n_signal else 0.0
            for delta in (-shift, shift):
                if level[node] + 1 < depth:
                    open_leaves.append(len(feature))
                feature.append(-1)
                left.append(-1)
                right.append(-1)
                signal.append(signal[node] + delta)
                level.append(level[node] + 1)
        feature = np.array(feature, np.int32)
        value = np.array(signal) + LEAF_NOISE * rng.standard_normal(len(signal))
        value[feature >= 0] = 0.0
        reduction = np.bincount(feature[feature >= 0], minlength=p).astype(np.float64)
        trees.append(RegressionTree(feature, left, right, value, reduction))
    return BoostModel(
        intercept=math.log(0.05 / 0.95),
        trees=tuple(trees),
        shrinkage=0.1,
        n_trees_used=n_trees,
        config=BoostConfig(interaction_depth=depth, max_trees=n_trees),
        n_predictors=p,
    )


class SearchPaper(Workload):
    """The README genetic search on a fixed paper-scale ensemble, then
    commonality, reverse coding of every predictor, nearest match against
    the paper-scale dataset and predictor clustering. No model is fitted."""

    name = "search_paper"

    def setup(self, seed: int, workdir: Path) -> dict:
        s = _seeds(seed, 3)
        if self.tiny:
            n, p, n_signal, trees, nodes, depth, pop, gens = 300, 6, 3, 10, 15, 3, 20, 3
        else:
            n, p, n_signal, trees, nodes, depth, pop, gens = 22449, 34, 10, 300, 751, 10, 500, 100
        data = dataset.synthesize(_paper_spec(n, p, n_signal, s[0]))
        model = make_ensemble(s[1], p, trees, nodes, depth, n_signal)
        ga = GaConfig(
            pop_size=pop,
            generations=gens,
            p_mutation=0.10,
            p_crossover=0.80,
            elitism_fraction=0.05,
            seed=s[2],
        )
        return {"data": data, "model": model, "ga": ga}

    def job(self, inputs: dict, out: Path) -> dict:
        data, model = inputs["data"], inputs["model"]
        trace = genetic.evolve(None, data.p, inputs["ga"], batch_fitness=model.predict)
        pop = trace.final
        common = analysis.commonality_importance(pop)
        reverse = analysis.reverse_coding_importance(model, pop, common, predictors=range(data.p))
        best, global_max = analysis.nearest_match(pop, data)
        dendrogram = clustering.agnes_average_linkage(
            clustering.gower_binary_dissimilarity(pop), labels=data.schema.names
        )
        return {
            "trace": trace,
            "reverse": reverse,
            "best": best,
            "global_max": global_max,
            "dendrogram": dendrogram,
        }

    def check(self, inputs: dict, result: dict) -> list[str]:
        model, p = inputs["model"], inputs["data"].p
        trace, reverse, dg = result["trace"], result["reverse"], result["dendrogram"]
        pop = trace.final
        problems = []
        if np.any(np.diff(trace.best) < 0):
            problems.append("best-fitness trace decreased")
        if not np.array_equal(pop.fitness, model.predict(pop.members)):
            problems.append("final fitness differs from model.predict(members)")
        if reverse.predictors != tuple(range(p)):
            problems.append("reverse coding skipped predictors")
        if not np.array_equal(reverse.drop, reverse.benchmark_mean - reverse.recoded_mean):
            problems.append("reverse-coding drop is not benchmark - recoded mean")
        if reverse.benchmark_mean != float(model.predict(pop.members).mean()):
            problems.append("reverse-coding benchmark is not the population mean risk")
        if dg.merges.shape != (p - 1, 2) or np.any(np.diff(dg.heights) < 0):
            problems.append("dendrogram lacks p-1 merges with non-decreasing heights")
        if not (0 <= result["best"].min() and result["global_max"] <= p):
            problems.append("nearest-match counts outside [0, p]")
        return problems

    def digests(self, inputs: dict, result: dict) -> dict:
        pop, dg = result["trace"].final, result["dendrogram"]
        return {
            "population": _sha(pop.members.tobytes(), pop.fitness.tobytes()),
            "reverse_coding": _sha(result["reverse"].drop.tobytes()),
            "nearest_match": _sha(result["best"].tobytes()),
            "dendrogram": _sha(dg.merges.tobytes(), dg.heights.tobytes()),
        }

    def fingerprint(self, inputs: dict) -> dict:
        data = inputs["data"]
        model_doc = json.dumps(boosting.model_to_dict(inputs["model"]), sort_keys=True)
        return {
            "data": _sha(data.X.tobytes(), data.y.tobytes()),
            "model": _sha(model_doc.encode()),
            "ga": _sha(repr(inputs["ga"]).encode()),
        }


WORKLOADS = {w.name: w for w in (PipelineCI, BoostPaper, SearchPaper)}
