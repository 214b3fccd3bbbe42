"""Binary-predictor / binary-response datasets: the binary CSV reader and
writer, splitting, and a planted-signal synthetic generator.

Every dataset is an n x p matrix of {0,1} indicator predictors with named
columns plus a {0,1} response vector. All operations are pure given their
inputs and seed; arrays are frozen after construction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

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

# synthesize draws X at most this many cells at a time (at least four rows).
_SYNTH_CELLS = 1 << 16


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
    def default(p: int) -> "PredictorSchema":
        width = max(2, len(str(p)))
        return PredictorSchema(tuple(f"x{i + 1:0{width}d}" for i in range(p)))


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

    def __post_init__(self):
        object.__setattr__(self, "effects", tuple(float(e) for e in self.effects))
        object.__setattr__(
            self,
            "predictor_on_rates",
            tuple(float(r) for r in self.predictor_on_rates),
        )
        if self.n < 1 or self.p < 1:
            raise DatasetError("n and p must be positive")
        if len(self.effects) != self.p or len(self.predictor_on_rates) != self.p:
            raise DatasetError("effects and on-rates must both have length p")
        if not 0.0 <= self.base_rate <= 1.0:
            raise DatasetError("base_rate must lie in [0, 1]")
        # The absolute sum bounds every row's signal, so X @ effects is finite.
        if not math.isfinite(sum(abs(e) for e in self.effects)):
            raise DatasetError("effects must be finite, and so must their absolute sum")
        if any(not 0.0 <= r <= 1.0 for r in self.predictor_on_rates):
            raise DatasetError("predictor on-rates must lie in [0, 1]")


# str.strip over an object array, one C call per cell.
_strip = np.frompyfunc(str.strip, 1, 1)


def _read_binary_csv(
    path: str | Path, text_columns: int = 0
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Read a UTF-8 CSV of one header row and "0"/"1" cells.

    Blank lines are skipped, and surrounding spaces are stripped from every
    name and cell. Returns the header, the uint8 cells of all but the last
    `text_columns` columns, and those columns' cells as an object array of
    text. Bytes that are not UTF-8, anything the csv module refuses, a file
    without data rows and a row of the wrong width raise DatasetError; the
    first cell in row-major order that is not "0" or "1" raises
    NonBinaryValueError, with its data row counted from 1.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"cannot read {path} as a UTF-8 CSV: {exc}") from exc
    if len(rows) < 2:
        raise EmptyFileError(f"{path} holds no data rows")
    header = [name.strip() for name in rows.pop(0)]
    widths = np.fromiter(map(len, rows), np.intp, len(rows))
    if (wrong := np.flatnonzero(widths != len(header))).size:
        i = int(wrong[0])
        raise DatasetError(
            f"{path}: data row {i + 1} has {widths[i]} cells, expected {len(header)}"
        )
    # An object array keeps each cell whole: a fixed-width str array would
    # drop trailing NULs and read "0\x00" as "0".
    cells = _strip(np.array(rows, dtype=object))
    binary = cells[:, : len(header) - text_columns]
    ones = binary == "1"
    valid = ones | (binary == "0")
    if not valid.all():
        i, j = np.unravel_index(np.argmin(valid), valid.shape)
        raise NonBinaryValueError(int(i) + 1, header[j], binary[i, j])
    return header, ones.view(np.uint8), cells[:, binary.shape[1] :]


def _write_binary_csv(
    path: str | Path,
    header: Sequence[str],
    bits: np.ndarray,
    text: Iterable[str] | None = None,
) -> None:
    """Write what `_read_binary_csv` reads back unchanged: the header, then
    one row per row of the 0/1 matrix bits, in the bytes csv.writer writes.

    The header goes through csv.writer. In the body a digit sits at every
    even offset of a row, with commas between; the row's cell of text, when
    given (one per row, needing no quotes, such as a float's repr), follows
    its bits after a comma; and "\r\n" ends each row. A header that would
    not read back unchanged (a name with surrounding spaces as str.strip
    sees them, say, or one csv.writer refuses) and a matrix without rows
    raise DatasetError before anything is written.
    """
    buf = io.StringIO(newline="")
    try:
        csv.writer(buf).writerow(header)
        line = buf.getvalue()
        line.encode("utf-8")
        read = next(csv.reader(io.StringIO(line, newline="")))
    except (csv.Error, UnicodeEncodeError) as exc:
        raise DatasetError(f"cannot write header {header!r}: {exc}") from exc
    for name, back in zip(header, read):
        if back.strip() != name:
            raise DatasetError(f"name {name!r} would read back as {back.strip()!r}")
    n, k = bits.shape
    if not n:
        raise DatasetError(f"no data rows to write to {path}")
    # Each row is its k digits, a comma after each, then "\n".
    rows = np.full((n, 2 * k + 1), ord(","), np.uint8)
    rows[:, 0 : 2 * k : 2] = bits + ord("0")
    rows[:, -1] = ord("\n")
    if text is None:
        rows[:, -2] = ord("\r")
        body = rows.tobytes().decode("ascii")
    else:
        heads = rows.tobytes().decode("ascii").split("\n")
        body = "".join(map("{}{}\r\n".format, heads, text))
    with write_artifact(path) as fh:
        fh.write(line)
        fh.write(body)


def load_csv(path: str | Path, response: str | None = None) -> DataSet:
    """Load a binary dataset from a CSV that `_read_binary_csv` accepts.

    The response column is `response`, or the last column when it is None.
    """
    header, data, _ = _read_binary_csv(path)
    response = header[-1] if response is None else response
    if response not in header:
        raise SchemaMismatchError(f"response column {response!r} not in header")
    pos = header.index(response)
    schema = PredictorSchema(tuple(header[:pos] + header[pos + 1 :]), response)
    return DataSet(schema, np.delete(data, pos, axis=1), data[:, pos])


def write_csv(ds: DataSet, path: str | Path) -> None:
    """Write a dataset as CSV, the response last; `load_csv` reproduces it
    bit-exactly. A name that would not read back unchanged raises
    DatasetError, and nothing is written."""
    names = list(ds.schema.names) + [ds.schema.response_name]
    _write_binary_csv(path, names, np.column_stack([ds.X, ds.y]))


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


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    The steps of the common C implementation (brentq), with xtol=1e-12,
    rtol=4*eps and at most 100 iterations: the tests check that it calls f
    at the same points in the same order and returns the same root bits.
    f(xa) and f(xb) must differ in sign.
    """
    xtol, rtol = 1e-12, 4.0 * np.finfo(float).eps
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(100):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SynthesisError("intercept solve did not converge in 100 iterations")


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
    return _brentq(gap, lo, hi)


def synthesize(spec: SynthSpec) -> DataSet:
    """Draw a dataset from the spec's additive log-odds model.

    Columns are independent Bernoulli(on_rate_j); the response is Bernoulli
    of sigmoid(alpha + effects . x) with alpha tuned on the realized design
    so the mean response probability equals `base_rate` exactly.

    X is filled a block of rows at a time, so beyond X itself (one byte per
    cell) and a few float64 n-vectors, the draw holds one block's uniforms
    and their float64 copy: at most max(`_SYNTH_CELLS`, 4p) cells, and one
    row more in a last block. The blocks consume the generator as one
    (n, p) draw does and give every row the path through the signal
    product that one product would, so X, the signal, alpha and y keep the
    bits of the one-shot draw.
    """
    rng = np.random.default_rng(spec.seed)
    on = np.asarray(spec.predictor_on_rates)
    effects = np.asarray(spec.effects)
    fit = 0.0 < spec.base_rate < 1.0
    X = np.empty((spec.n, spec.p), np.uint8)
    signal = np.empty(spec.n) if fit else None
    # OpenBLAS's gemv kernels take rows in groups of four, and numpy takes
    # a one-row product as a dot product: whole groups per block and no
    # one-row last block give each row the path the whole product gives it.
    rows = max(4, _SYNTH_CELLS // spec.p // 4 * 4)
    edges = [*range(0, spec.n, rows), spec.n]
    if len(edges) > 2 and spec.n - edges[-2] == 1:
        del edges[-2]
    for lo, hi in zip(edges, edges[1:]):
        block = X[lo:hi]
        np.less(rng.random(block.shape), on, out=block)
        if fit:
            signal[lo:hi] = block.astype(np.float64) @ effects

    if fit:
        alpha = _solve_intercept(signal, spec.base_rate)
        with np.errstate(over="ignore"):  # exp overflows to inf: probability 0
            probs = 1.0 / (1.0 + np.exp(-(alpha + signal)))
        y = (rng.random(spec.n) < probs).astype(np.uint8)
    else:  # base rate 0 or 1
        y = np.full(spec.n, spec.base_rate, np.uint8)
    return DataSet(PredictorSchema.default(spec.p), X, y)


def base_rate(ds: DataSet) -> float:
    """Marginal frequency of the positive response."""
    return float(ds.y.mean())
