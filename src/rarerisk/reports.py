"""Tabular report emission: confusion table in the classic
actual-by-forecast layout, the merged importance table, and genetic-search
trace exports. Every table is written both as CSV and as JSON carrying
full-precision values."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ._io import write_artifact
from .analysis import CommonalityReport, ReverseCodingReport
from .boosting import ConfusionTable
from .errors import RenderError
from .genetic import GaTrace

__all__ = [
    "write_confusion_table",
    "write_importance_table",
    "write_ga_trace",
]


def _cell(v: float) -> str:
    return "" if math.isnan(v) else f"{v:.2f}"


def write_confusion_table(table: ConfusionTable, path_base: str | Path) -> list[Path]:
    """Write <base>.csv and <base>.json.

    CSV layout mirrors the usual classification table: actual outcomes in
    rows, forecasts in columns, row-wise classification errors in the last
    column and column-wise forecasting errors in the last row.
    """
    rows = [
        ["", "forecast_no_event", "forecast_event", "classification_error"],
        [
            "actual_no_event",
            str(table.tn),
            str(table.fp),
            _cell(table.classification_error_neg),
        ],
        [
            "actual_event",
            str(table.fn),
            str(table.tp),
            _cell(table.classification_error_pos),
        ],
        [
            "forecasting_error",
            _cell(table.forecast_error_neg),
            _cell(table.forecast_error_pos),
            "",
        ],
    ]
    return _write_twin(path_base, rows, table.to_dict())


def write_importance_table(
    names: Sequence[str],
    in_sample: np.ndarray,
    commonality: CommonalityReport,
    reverse: ReverseCodingReport | None,
    path_base: str | Path,
) -> list[Path]:
    """Merged per-predictor importance table, sorted by in-sample share.

    Reverse-coding columns are filled only for the recoded predictors;
    when no predictor was universal the columns are omitted entirely and
    the JSON carries a notice instead.
    """
    p = len(names)
    if len(in_sample) != p or len(commonality.proportion_on) != p:
        raise RenderError("importance inputs disagree on predictor count")

    recoded = {}
    if reverse is not None:
        for k, j in enumerate(reverse.predictors):
            recoded[j] = (float(reverse.recoded_mean[k]), float(reverse.drop[k]))
    have_reverse = bool(recoded)

    header = ["predictor", "in_sample_importance", "commonality", "switch_class"]
    if have_reverse:
        header += ["recoded_mean", "drop"]
    order = np.argsort(-in_sample, kind="stable")
    rows = [header]
    records = []
    for j in map(int, order):
        rec = {
            "predictor": names[j],
            "in_sample_importance": float(in_sample[j]),
            "commonality": float(commonality.proportion_on[j]),
            "switch_class": commonality.switch_class[j].value,
        }
        row = [
            names[j],
            f"{in_sample[j]:.4f}",
            f"{commonality.proportion_on[j]:.4f}",
            commonality.switch_class[j].value,
        ]
        if have_reverse:
            if j in recoded:
                rec["recoded_mean"], rec["drop"] = recoded[j]
                row += [f"{recoded[j][0]:.6f}", f"{recoded[j][1]:.6f}"]
            else:
                rec["recoded_mean"] = rec["drop"] = None
                row += ["", ""]
        records.append(rec)
        rows.append(row)

    doc = {
        "benchmark_mean": None if reverse is None else reverse.benchmark_mean,
        "epsilon": commonality.epsilon,
        "predictors": records,
    }
    if not have_reverse:
        doc["notice"] = (
            "no always-on or always-off predictors; reverse-coding "
            "columns omitted"
        )
    return _write_twin(path_base, rows, doc)


def write_ga_trace(trace: GaTrace, path_base: str | Path) -> list[Path]:
    """Per-generation fitness statistics as CSV plus a JSON twin."""
    rows = [["generation", "best_fitness", "mean_fitness", "median_fitness"]]
    for g in range(len(trace.best)):
        rows.append(
            [
                str(g),
                repr(float(trace.best[g])),
                repr(float(trace.mean[g])),
                repr(float(trace.median[g])),
            ]
        )
    return _write_twin(
        path_base,
        rows,
        {
            "selection_operator": trace.selection_operator,
            "replacement_scheme": trace.replacement_scheme,
            "generations": trace.n_generations,
            "best": trace.best.tolist(),
            "mean": trace.mean.tolist(),
            "median": trace.median.tolist(),
        },
    )


def _write_twin(
    path_base: str | Path, rows: list[list[str]], doc: dict
) -> list[Path]:
    """Write rows as <base>.csv and doc as <base>.json; return both paths."""
    base = Path(path_base)
    paths = [base.with_suffix(".csv"), base.with_suffix(".json")]

    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o)}")

    with write_artifact(paths[0]) as fh:
        csv.writer(fh).writerows(rows)
    with write_artifact(paths[1]) as fh:
        json.dump(doc, fh, indent=1, default=default, allow_nan=True)
        fh.write("\n")
    return paths
