import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rarerisk.boosting import BoostConfig, BoostModel, RegressionTree
from rarerisk.dataset import DataSet, PredictorSchema

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
# 500 examples per property: `pytest --hypothesis-profile=deep`.
settings.register_profile(
    "deep",
    derandomize=True,
    max_examples=500,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def make_stump(j: int, v0: float, v1: float, p: int) -> RegressionTree:
    """Depth-1 tree: value v0 when predictor j is 0, v1 when it is 1."""
    return RegressionTree(
        feature=np.array([j, -1, -1], np.int32),
        left=np.array([1, -1, -1], np.int32),
        right=np.array([2, -1, -1], np.int32),
        value=np.array([0.0, v0, v1], np.float64),
        deviance_reduction=np.zeros(p),
    )


def make_model(
    trees,
    p: int,
    intercept: float = 0.0,
    shrinkage: float = 1.0,
) -> BoostModel:
    cfg = BoostConfig(max_trees=len(trees), shrinkage=shrinkage)
    return BoostModel(
        intercept=intercept,
        trees=tuple(trees),
        shrinkage=shrinkage,
        n_trees_used=len(trees),
        config=cfg,
        n_predictors=p,
        train_deviance=np.empty(0),
    )


def binary_dataset(X, y, names=None) -> DataSet:
    X = np.asarray(X, np.uint8)
    if names is None:
        names = tuple(f"x{i + 1:02d}" for i in range(X.shape[1]))
    return DataSet(PredictorSchema(tuple(names)), X, np.asarray(y, np.uint8))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# One pass/fail line per acceptance criterion at the end of the run.

_CRITERION = re.compile(r"test_c(\d{2})_([a-z0-9_]+)")
_results: dict[str, list[bool]] = defaultdict(list)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if match:
        key = f"{int(match.group(1)):02d} {match.group(2).replace('_', '-')}"
        _results[key].append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_results):
        outcomes = _results[key]
        status = "PASS" if all(outcomes) else "FAIL"
        terminalreporter.write_line(
            f"criterion {key}: {status} ({sum(outcomes)}/{len(outcomes)} checks)"
        )
