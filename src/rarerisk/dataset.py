"""Binary-predictor / binary-response datasets: CSV ingestion, splitting,
and a planted-signal synthetic generator.

Every dataset is an n x p matrix of {0,1} indicator predictors with named
columns plus a {0,1} response vector. All operations are pure given their
inputs and seed; arrays are frozen after construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from ._io import write_artifact
from .errors import (
    DatasetError,
    EmptyFileError,
    NonBinaryValueError,
    SchemaMismatchError,
    SynthesisError,
)

__all__ = [
    "PredictorSchema",
    "DataSet",
    "SynthSpec",
    "load_csv",
    "write_csv",
    "split_train_test",
    "synthesize",
    "base_rate",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PredictorSchema:
    """Ordered predictor names plus the response column name."""

    names: tuple[str, ...]
    response_name: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise DatasetError("schema needs at least one predictor")
        if len(set(self.names)) != len(self.names):
            raise DatasetError("duplicate predictor names in schema")
        if self.response_name in self.names:
            raise DatasetError(
                f"response name {self.response_name!r} collides with a predictor"
            )

    @property
    def p(self) -> int:
        return len(self.names)

    @staticmethod
    def default(p: int, response_name: str = "y") -> "PredictorSchema":
        width = max(2, len(str(p)))
        return PredictorSchema(
            tuple(f"x{i + 1:0{width}d}" for i in range(p)), response_name
        )


@dataclass(frozen=True)
class DataSet:
    """Immutable binary design matrix X (n x p, uint8) with response y."""

    schema: PredictorSchema
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.uint8)
        y = np.asarray(self.y, dtype=np.uint8)
        if X.ndim != 2:
            raise DatasetError("X must be a 2-d matrix")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise DatasetError("y length must equal the number of rows of X")
        if X.shape[0] < 1:
            raise DatasetError("dataset needs at least one row")
        if X.shape[1] != self.schema.p:
            raise DatasetError(
                f"X has {X.shape[1]} columns but schema lists {self.schema.p}"
            )
        if X.size and X.max() > 1:
            raise DatasetError("X cells must be 0 or 1")
        if y.size and y.max() > 1:
            raise DatasetError("y cells must be 0 or 1")
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "y", _frozen(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def take(self, rows: np.ndarray) -> "DataSet":
        return DataSet(self.schema, self.X[rows], self.y[rows])


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic dataset with an additive log-odds signal.

    `effects[j]` is the log-odds contribution of predictor j when switched
    on; `predictor_on_rates[j]` is its marginal probability of being 1.
    The intercept is solved numerically so the mean response probability
    over the realized design equals `base_rate`.
    """

    n: int
    p: int
    base_rate: float
    effects: tuple[float, ...]
    predictor_on_rates: tuple[float, ...]
    seed: int
    names: tuple[str, ...] = field(default=())
    response_name: str = "y"

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(float(e) for e in self.effects))
        object.__setattr__(
            self,
            "predictor_on_rates",
            tuple(float(r) for r in self.predictor_on_rates),
        )
        object.__setattr__(self, "names", tuple(self.names))
        if self.n < 1 or self.p < 1:
            raise DatasetError("n and p must be positive")
        if len(self.effects) != self.p or len(self.predictor_on_rates) != self.p:
            raise DatasetError("effects and on-rates must both have length p")
        if not 0.0 <= self.base_rate <= 1.0:
            raise DatasetError("base_rate must lie in [0, 1]")
        if any(not 0.0 <= r <= 1.0 for r in self.predictor_on_rates):
            raise DatasetError("predictor on-rates must lie in [0, 1]")
        if self.names and len(self.names) != self.p:
            raise DatasetError("names, when given, must have length p")

    def schema(self) -> PredictorSchema:
        if self.names:
            return PredictorSchema(self.names, self.response_name)
        return PredictorSchema.default(self.p, self.response_name)


def load_csv(
    path: str | Path,
    schema: PredictorSchema | None = None,
    response: str | None = None,
) -> DataSet:
    """Load a binary dataset from a one-header CSV of "0"/"1" cells.

    The response column is `schema.response_name` when a schema is given,
    otherwise `response`, otherwise the last column. Any cell that is not
    exactly "0" or "1" is an error naming the offending row and column.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]
    if not rows:
        raise EmptyFileError(f"{path} has a header but no data rows")

    if schema is not None:
        expected = list(schema.names) + [schema.response_name]
        if sorted(header) != sorted(expected):
            raise SchemaMismatchError(
                f"header {header} does not match schema columns {expected}"
            )
        response_name = schema.response_name
    else:
        response_name = response if response is not None else header[-1]
        if response_name not in header:
            raise SchemaMismatchError(
                f"response column {response_name!r} not in header"
            )

    resp_pos = header.index(response_name)
    pred_names = [h for i, h in enumerate(header) if i != resp_pos]
    n, width = len(rows), len(header)

    data = np.empty((n, width), dtype=np.uint8)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(
                f"row {i + 1} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            cell = cell.strip()
            if cell == "0":
                data[i, j] = 0
            elif cell == "1":
                data[i, j] = 1
            else:
                raise NonBinaryValueError(i + 1, header[j], cell)

    y = data[:, resp_pos]
    X = np.delete(data, resp_pos, axis=1)
    out_schema = schema or PredictorSchema(tuple(pred_names), response_name)
    if schema is not None:
        # Reorder columns to the schema's declared order.
        order = [pred_names.index(name) for name in schema.names]
        X = X[:, order]
    return DataSet(out_schema, X, y)


def write_csv(ds: DataSet, path: str | Path) -> None:
    """Write a dataset as CSV; `load_csv` reproduces it bit-exactly."""
    # The bytes csv.writer writes for rows of one-digit cells: a digit at
    # every even offset, commas between them and \r\n at the end.
    body = np.full((ds.n, 2 * ds.p + 3), ord(","), np.uint8)
    body[:, 0 : 2 * ds.p : 2] = ds.X + ord("0")
    body[:, 2 * ds.p] = ds.y + ord("0")
    body[:, -2:] = (ord("\r"), ord("\n"))
    with write_artifact(path) as fh:
        csv.writer(fh).writerow(list(ds.schema.names) + [ds.schema.response_name])
        fh.write(body.tobytes().decode("ascii"))


def split_train_test(
    ds: DataSet, n_train: int, seed: int
) -> tuple[DataSet, DataSet]:
    """Uniform random partition into (train, test) without replacement.

    Row order within each part follows the original dataset, so the same
    seed always yields the identical split.
    """
    if not 1 <= n_train < ds.n:
        raise DatasetError(
            f"n_train must be in [1, {ds.n - 1}], got {n_train}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return ds.take(train_idx), ds.take(test_idx)


def _solve_intercept(signal: np.ndarray, target: float) -> float:
    """Find alpha with mean(sigmoid(alpha + signal)) == target."""

    def gap(alpha: float) -> float:
        z = alpha + signal
        with np.errstate(over="ignore"):
            return float(np.mean(1.0 / (1.0 + np.exp(-z)))) - target

    lo, hi = -40.0, 40.0
    while gap(lo) > 0.0 or gap(hi) < 0.0:
        lo *= 2.0
        hi *= 2.0
        if hi > 1e6:
            raise SynthesisError(
                f"cannot bracket intercept for base rate {target} "
                f"with signal range [{signal.min():.3g}, {signal.max():.3g}]"
            )
    return float(brentq(gap, lo, hi, xtol=1e-12))


def synthesize(spec: SynthSpec) -> DataSet:
    """Draw a dataset from the spec's additive log-odds model.

    Columns are independent Bernoulli(on_rate_j); the response is Bernoulli
    of sigmoid(alpha + effects . x) with alpha tuned on the realized design
    so the mean response probability equals `base_rate` exactly.
    """
    rng = np.random.default_rng(spec.seed)
    on = np.asarray(spec.predictor_on_rates)
    X = (rng.random((spec.n, spec.p)) < on[None, :]).astype(np.uint8)

    if spec.base_rate == 0.0:
        y = np.zeros(spec.n, dtype=np.uint8)
    elif spec.base_rate == 1.0:
        y = np.ones(spec.n, dtype=np.uint8)
    else:
        signal = X.astype(np.float64) @ np.asarray(spec.effects)
        alpha = _solve_intercept(signal, spec.base_rate)
        probs = 1.0 / (1.0 + np.exp(-(alpha + signal)))
        y = (rng.random(spec.n) < probs).astype(np.uint8)

    return DataSet(spec.schema(), X, y)


def base_rate(ds: DataSet) -> float:
    """Marginal frequency of the positive response."""
    return float(ds.y.mean())
