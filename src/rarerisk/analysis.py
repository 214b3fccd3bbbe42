"""Post-hoc analysis of an evolved population of risk profiles.

Three views: how often each predictor is switched on across the population
(commonality), how much mean predicted risk drops when a universally-set
predictor is complemented population-wide (reverse coding), and how close
the synthetic profiles come to real observed rows (nearest match).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boosting import BoostModel
from .dataset import DataSet
from .errors import RareRiskError
from .genetic import Population

__all__ = [
    "SwitchClass",
    "CommonalityReport",
    "ReverseCodingReport",
    "commonality_importance",
    "reverse_coding_importance",
    "nearest_match",
]

_MATCH_BLOCK = 4096  # dataset rows compared at once in nearest_match


class SwitchClass(str, enum.Enum):
    ALWAYS_ON = "always_on"
    ALWAYS_OFF = "always_off"
    IN_BETWEEN = "in_between"


@dataclass(frozen=True)
class CommonalityReport:
    """Per-predictor proportion switched on, with universal/partial class."""

    proportion_on: np.ndarray
    switch_class: tuple[SwitchClass, ...]
    epsilon: float

    @property
    def universal(self) -> np.ndarray:
        """Indices of always-on / always-off predictors."""
        return np.array(
            [
                j
                for j, c in enumerate(self.switch_class)
                if c is not SwitchClass.IN_BETWEEN
            ],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class ReverseCodingReport:
    """Mean-risk drops from complementing one predictor column at a time.

    benchmark_mean is the mean predicted risk of the untouched population;
    recoded_mean[k] is the mean after complementing predictors[k] for
    every member; drop[k] = benchmark_mean - recoded_mean[k].
    """

    benchmark_mean: float
    predictors: tuple[int, ...]
    recoded_mean: np.ndarray
    drop: np.ndarray


def commonality_importance(
    pop: Population, epsilon: float = 0.0
) -> CommonalityReport:
    """Column means of the population, classified with tolerance epsilon.

    A predictor is always-on when its proportion is >= 1 - epsilon and
    always-off when <= epsilon; the default epsilon of 0 demands exact
    unanimity.
    """
    if pop.size == 0:
        raise RareRiskError("population is empty")
    if not 0.0 <= epsilon < 0.5:
        raise RareRiskError("epsilon must lie in [0, 0.5)")
    prop = pop.members.mean(axis=0)
    classes = []
    for v in prop:
        if v >= 1.0 - epsilon:
            classes.append(SwitchClass.ALWAYS_ON)
        elif v <= epsilon:
            classes.append(SwitchClass.ALWAYS_OFF)
        else:
            classes.append(SwitchClass.IN_BETWEEN)
    return CommonalityReport(prop, tuple(classes), epsilon)


def reverse_coding_importance(
    model: BoostModel,
    pop: Population,
    report: CommonalityReport | None = None,
    predictors: Sequence[int] | None = None,
) -> ReverseCodingReport:
    """Recode one predictor at a time and measure the mean-risk drop.

    By default the recoded predictors are the universal (always-on or
    always-off) ones from the commonality report; any explicit index
    subset is also accepted. Each evaluation complements exactly one
    column of a private working copy and restores it afterwards, verified
    by bit-equality against the original members.
    """
    if pop.p != model.p:
        raise RareRiskError(
            f"population has {pop.p} predictors, model expects {model.p}"
        )
    if predictors is None:
        if report is None:
            report = commonality_importance(pop)
        targets = [int(j) for j in report.universal]
    else:
        targets = [int(j) for j in predictors]
        if any(not 0 <= j < pop.p for j in targets):
            raise RareRiskError("predictor index out of range")

    benchmark = float(model.predict(pop.members).mean())
    if not targets:
        warnings.warn(
            "no universal predictors found; reverse-coding report is empty",
            RuntimeWarning,
            stacklevel=2,
        )
        return ReverseCodingReport(benchmark, (), np.empty(0), np.empty(0))

    work = np.array(pop.members)  # private copy; one column flipped at a time
    original = pop.members
    means = np.empty(len(targets))
    for k, j in enumerate(targets):
        work[:, j] ^= 1
        try:
            means[k] = float(model.predict(work).mean())
        finally:
            work[:, j] ^= 1
        if not np.array_equal(work, original):
            raise RareRiskError(
                f"population not restored after recoding predictor {j}"
            )
    return ReverseCodingReport(
        benchmark_mean=benchmark,
        predictors=tuple(targets),
        recoded_mean=means,
        drop=benchmark - means,
    )


def nearest_match(
    pop: Population, ds: DataSet
) -> tuple[np.ndarray, int]:
    """Best agreement count with any real row, per member, plus the max.

    Agreement between a member and a row is the number of predictor
    positions with equal values (0..p).
    """
    if pop.size == 0 or ds.n == 0:
        raise RareRiskError("nearest_match needs non-empty inputs")
    if pop.p != ds.p:
        raise RareRiskError(
            f"population has {pop.p} predictors, dataset has {ds.p}"
        )
    A = pop.members.astype(np.float64)
    top = np.zeros(pop.size)
    # Agreements = ones-matching + zeros-matching; exact in float64 for
    # any realistic p. Rows are compared a block at a time, so memory does
    # not grow with the dataset.
    for lo in range(0, ds.n, _MATCH_BLOCK):
        B = ds.X[lo : lo + _MATCH_BLOCK].astype(np.float64)
        agree = A @ B.T
        agree += (1.0 - A) @ (1.0 - B).T
        np.maximum(top, agree.max(axis=1), out=top)
    best = np.rint(top).astype(np.int64)
    return best, int(best.max())
