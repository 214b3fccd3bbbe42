"""Span recorder for the traced benchmark run.

`Tracer.install` rebinds every public function and method of the rarerisk
layer modules to a wrapper that records one span per call: name, layer,
start, end, parent span and run id, plus a few counts taken from the
call's arguments and result. Spans stay in memory until `Tracer.dump`
writes them out at the end of the run; `Tracer.uninstall` restores the
original functions. Nothing under src/ is edited.

`layer_metrics` turns the spans of one traced job into the per-layer
metrics listed in BENCHMARK.json. A span's self time is its duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "cli",
    "dataset",
    "logistic",
    "boosting",
    "genetic",
    "analysis",
    "clustering",
    "render",
    "reports",
    "pipeline",
)

# Called once per tree inside boosting itself: spans there would cost tens of
# thousands of records per job and only split boosting time within boosting.
SKIP = {"boosting.RegressionTree.apply", "boosting.RegressionTree.leaf_index"}

# Peak bytes allocated during the call, measured with tracemalloc (numpy
# reports its array buffers to it).
MEASURE_ALLOC = {"analysis.nearest_match"}

# The README default run: 3000 trees for each of 5 CV folds plus the refit.
DEFAULT_TREES = 3000 * (5 + 1)

PREDICT = {
    "boosting.BoostModel.predict",
    "boosting.BoostModel.margin",
    "boosting.predict_risk",
    "boosting.predict_margin",
}
FIT = {"boosting.fit_boost_cv", "boosting.fit_boost"}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _size(path) -> int:
    return Path(path).stat().st_size


def _fit_attrs(args, kwargs, result):
    attrs = {"depth": _arg(args, kwargs, 1, "config").interaction_depth}
    if hasattr(result, "trees"):
        attrs["trees"] = len(result.trees)
        attrs["nodes"] = sum(t.n_nodes for t in result.trees)
    return attrs


def _rows_attrs(model, X):
    return {"rows": int(np.shape(X)[0]), "trees": model.n_trees_used, "X": X}


def _method_predict_attrs(args, kwargs, result):
    return _rows_attrs(args[0], _arg(args, kwargs, 1, "X"))


def _module_predict_attrs(args, kwargs, result):
    return _rows_attrs(_arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "X"))


def _run_pipeline_attrs(args, kwargs, result):
    out = Path(_arg(args, kwargs, 0, "config").output_dir)
    return {
        "artifacts": len(result.artifacts),
        "bytes": sum(_size(out / a["path"]) for a in result.artifacts),
    }


def _paths_attrs(args, kwargs, result):
    return {"bytes": sum(_size(p) for p in result)}


ATTRS = {
    "boosting.fit_boost": _fit_attrs,
    "boosting.fit_boost_cv": _fit_attrs,
    "boosting.cv_deviance_curve": _fit_attrs,
    "boosting.BoostModel.predict": _method_predict_attrs,
    "boosting.BoostModel.margin": _method_predict_attrs,
    "boosting.predict_risk": _module_predict_attrs,
    "boosting.predict_margin": _module_predict_attrs,
    "boosting.save_model": lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))},
    "genetic.evolve": lambda a, k, r: {
        "generations": r.n_generations,
        "final": r.final.members,
    },
    "clustering.agnes_average_linkage": lambda a, k, r: {"merges": len(r.merges)},
    "dataset.load_csv": lambda a, k, r: {"rows": r.n},
    "logistic.fit_logistic": lambda a, k, r: {"iterations": r.iterations},
    "render.render_histogram": lambda a, k, r: {"bytes": _size(_arg(a, k, 2, "path"))},
    "render.render_dendrogram": lambda a, k, r: {"bytes": _size(_arg(a, k, 1, "path"))},
    "reports.write_confusion_table": _paths_attrs,
    "reports.write_importance_table": _paths_attrs,
    "reports.write_ga_trace": _paths_attrs,
    "pipeline.run_pipeline": _run_pipeline_attrs,
}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "run", "phase", "attrs")

    def __init__(self, id, parent, name, layer, start, end, run, phase, attrs):
        self.id, self.parent, self.name, self.layer = id, parent, name, layer
        self.start, self.end, self.run, self.phase = start, end, run, phase
        self.attrs = attrs

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Records spans for calls into the rarerisk layers of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack = [0]
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, layer, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        alloc = name in MEASURE_ALLOC and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.spans.append(
                Span(sid, parent, name, layer, start, time.perf_counter_ns(),
                     self.run_id, self.phase, {"error": type(exc).__name__})
            )
            raise
        finally:
            self._stack.pop()
        end = time.perf_counter_ns()
        attrs = {}
        if alloc:
            attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        hook = ATTRS.get(name)
        if hook is not None:
            attrs.update(hook(args, kwargs, result))
        self.spans.append(
            Span(sid, parent, name, layer, start, end, self.run_id, self.phase, attrs)
        )
        return result

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "rarerisk" or n.startswith("rarerisk.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"rarerisk.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        wrapped[id(obj)] = self._wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    self._install_methods(obj, layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def _install_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "layer": s.layer,
                "start_ns": s.start,
                "end_ns": s.end,
                "run": s.run,
                "phase": s.phase,
                "attrs": {k: v for k, v in s.attrs.items()
                          if isinstance(v, (int, float, str))},
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _distinct_rows(blocks: list[np.ndarray]) -> int:
    if not blocks:
        return 0
    rows = np.vstack([np.asarray(b, np.uint8) for b in blocks])
    return len(np.unique(np.packbits(rows, axis=1), axis=0))


def layer_metrics(spans: list[Span], wall_untraced: float, wall_traced: float) -> dict:
    """Per-layer metrics from the spans of one traced job (phase "job")
    and its set-up (phase "setup")."""
    by_id = {s.id: s for s in spans}
    job = [s for s in spans if s.phase == "job"]
    children = defaultdict(list)
    for s in job:
        children[s.parent].append(s)

    def self_s(s):
        return s.seconds - sum(c.seconds for c in children[s.id])

    def top(names, pool=job):
        """Spans named in `names` that have no ancestor named in `names`."""
        out = []
        for s in pool:
            if s.name not in names:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name not in names:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def dur(names, pool=job):
        return sum(s.seconds for s in top(names, pool))

    def named(name):
        return [s for s in job if s.name == name]

    def total(spans_, key):
        return sum(s.attrs.get(key, 0) for s in spans_)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        mine = [s for s in job if s.layer == layer]
        m[f"{layer}.self_s"] = (sum(self_s(s) for s in mine), "s")
        m[f"{layer}.calls"] = (len(mine), "count")

    # boosting: fit
    fits = named("boosting.fit_boost")
    trees = total(fits, "trees")
    fit_s = dur(FIT)
    m["boosting.fit_s"] = (fit_s, "s")
    m["boosting.cv_curve_s"] = (dur({"boosting.cv_deviance_curve"}), "s")
    m["boosting.trees_grown"] = (trees, "count")
    m["boosting.nodes_per_tree"] = (ratio(total(fits, "nodes"), trees), "count")
    m["boosting.trees_per_s"] = (ratio(trees, fit_s), "1/s")
    for depth in (3, 10):
        at_depth = [s for s in top(FIT) if s.attrs.get("depth") == depth]
        grown = total([s for s in fits if s.attrs.get("depth") == depth], "trees")
        m[f"boosting.ms_per_tree_d{depth}"] = (
            ratio(1e3 * sum(s.seconds for s in at_depth), grown), "ms")
    m["boosting.projected_default_h"] = (
        DEFAULT_TREES * m["boosting.ms_per_tree_d10"][0] / 3.6e6, "h")

    # boosting: prediction
    preds = top(PREDICT)
    predict_s = sum(s.seconds for s in preds)
    row_trees = sum(s.attrs["rows"] * s.attrs["trees"] for s in preds)
    m["boosting.predict_s"] = (predict_s, "s")
    m["boosting.predict_calls"] = (len(preds), "count")
    m["boosting.predict_rows"] = (total(preds, "rows"), "count")
    m["boosting.predict_ns_per_row_tree"] = (ratio(1e9 * predict_s, row_trees), "ns")
    m["boosting.confusion_s"] = (dur({"boosting.confusion"}), "s")
    saves = named("boosting.save_model")
    m["boosting.save_model_s"] = (sum(s.seconds for s in saves), "s")
    m["boosting.model_bytes"] = (total(saves, "bytes"), "bytes")

    # genetic: fitness calls are the prediction spans directly under evolve;
    # its other children (crossover) are breeding work
    evolves = named("genetic.evolve")
    evolve_s = sum(s.seconds for s in evolves)
    fitness = [c for e in evolves for c in children[e.id] if c.name in PREDICT]
    fitness_s = sum(s.seconds for s in fitness)
    rows = total(fitness, "rows")
    m["genetic.evolve_s"] = (evolve_s, "s")
    m["genetic.fitness_s"] = (fitness_s, "s")
    m["genetic.breed_s"] = (evolve_s - fitness_s, "s")
    m["genetic.fitness_rows"] = (rows, "count")
    m["genetic.unique_rows_ratio"] = (
        ratio(_distinct_rows([s.attrs["X"] for s in fitness if "X" in s.attrs]), rows),
        "ratio")
    m["genetic.final_unique"] = (
        sum(_distinct_rows([e.attrs["final"]]) for e in evolves if "final" in e.attrs),
        "count")
    m["genetic.generations_per_s"] = (ratio(total(evolves, "generations"), evolve_s), "1/s")

    # analysis
    rev = named("analysis.reverse_coding_importance")
    nearest = named("analysis.nearest_match")
    m["analysis.commonality_s"] = (dur({"analysis.commonality_importance"}), "s")
    m["analysis.reverse_coding_s"] = (sum(s.seconds for s in rev), "s")
    m["analysis.reverse_coding_predicts"] = (
        sum(1 for r in rev for c in children[r.id] if c.name in PREDICT), "count")
    m["analysis.nearest_match_s"] = (sum(s.seconds for s in nearest), "s")
    m["analysis.nearest_match_bytes_computed"] = (total(nearest, "peak_bytes"), "bytes")

    # clustering
    m["clustering.gower_s"] = (dur({"clustering.gower_binary_dissimilarity"}), "s")
    m["clustering.agnes_s"] = (dur({"clustering.agnes_average_linkage"}), "s")
    m["clustering.merges"] = (total(named("clustering.agnes_average_linkage"), "merges"), "count")

    # dataset
    loads = named("dataset.load_csv")
    load_s = sum(s.seconds for s in loads)
    m["dataset.load_csv_s"] = (load_s, "s")
    m["dataset.load_csv_rows_per_s"] = (ratio(total(loads, "rows"), load_s), "1/s")
    m["dataset.write_csv_s"] = (dur({"dataset.write_csv"}), "s")
    m["dataset.split_s"] = (dur({"dataset.split_train_test"}), "s")
    setup = [s for s in spans if s.phase == "setup"]
    m["dataset.synthesize_s"] = (dur({"dataset.synthesize"}, setup), "s")

    # logistic
    m["logistic.fit_s"] = (dur({"logistic.fit_logistic"}), "s")
    m["logistic.irls_iterations"] = (total(named("logistic.fit_logistic"), "iterations"), "count")

    # render and reports
    renders = [s for s in job if s.layer == "render"]
    writes = [s for s in job if s.layer == "reports"]
    m["render.svg_s"] = (dur({s.name for s in renders}), "s")
    m["render.svg_bytes"] = (total(renders, "bytes"), "bytes")
    m["reports.write_s"] = (dur({s.name for s in writes}), "s")
    m["reports.bytes"] = (total(writes, "bytes"), "bytes")

    # pipeline and cli
    runs = named("pipeline.run_pipeline")
    m["pipeline.run_s"] = (sum(s.seconds for s in runs), "s")
    m["pipeline.artifacts"] = (total(runs, "artifacts"), "count")
    m["pipeline.artifact_bytes"] = (total(runs, "bytes"), "bytes")
    m["pipeline.verify_s"] = (dur({"pipeline.verify_manifest"}), "s")
    config_names = {"pipeline.config_from_dict", "pipeline.load_config"}
    m["cli.load_config_s"] = (
        sum(self_s(s) + sum(c.seconds for c in children[s.id] if c.name in config_names)
            for s in named("cli.main")),
        "s")

    m["trace.spans"] = (len(job), "count")
    m["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    return m
