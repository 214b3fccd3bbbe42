"""Conventional (unweighted) logistic regression baseline.

Fit by iteratively reweighted least squares with step-halving. This model
exists to demonstrate how maximum-likelihood logistic regression behaves on
very unbalanced responses: fitted probabilities bunch near the base rate
and rarely cross 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataSet
from .errors import FitError, SingularMatrixError

__all__ = ["LogisticModel", "fit_logistic", "predict_logistic"]

# Coefficient magnitude beyond which the MLE is treated as divergent
# (complete or quasi-complete separation).
_SEPARATION_NORM = 30.0

# IRLS stops once the gradient's largest entry is below _TOL, or after
# _MAX_ITER steps.
_MAX_ITER = 50
_TOL = 1e-8


@dataclass(frozen=True)
class LogisticModel:
    intercept: float
    coefficients: np.ndarray
    converged: bool
    iterations: int
    diagnostic: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, np.float64)
        )
        if self.converged and not (
            np.isfinite(self.intercept)
            and np.all(np.isfinite(self.coefficients))
        ):
            raise FitError("converged model must have finite parameters")

    @property
    def p(self) -> int:
        return len(self.coefficients)


def _expit(x: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)), with the C library's exp.

    np.exp can differ from the C library's exp in the last bit, so exp is
    taken one value at a time with math.exp, where an overflow is inf.
    The tests check it bit for bit against the compiled expit ufunc.
    """
    neg = (-np.asarray(x, np.float64)).ravel().tolist()
    try:  # the common case, at about half the cost of _exp_or_inf
        e = np.fromiter(map(math.exp, neg), np.float64, len(neg))
    except OverflowError:  # some x below -709.78
        e = np.fromiter(map(_exp_or_inf, neg), np.float64, len(neg))
    return (1.0 / (1.0 + e)).reshape(np.shape(x))


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _neg_loglik(y: np.ndarray, z: np.ndarray) -> float:
    return float(np.sum(np.logaddexp(0.0, z) - y * z))


def fit_logistic(ds: DataSet) -> LogisticModel:
    """Maximum-likelihood fit via IRLS with step-halving.

    Zero-variance predictor columns are excluded from the solve and get a
    coefficient of exactly 0. Remaining collinearity raises
    SingularMatrixError naming the implicated columns. Diverging
    coefficients (separation) or hitting _MAX_ITER return converged=False
    with a diagnostic instead of raising; the baseline is illustrative.
    """
    y = ds.y.astype(np.float64)
    if y.min() == y.max():
        raise FitError("response is constant; logistic MLE undefined")

    Xf = ds.X.astype(np.float64)
    variable = ~np.all(Xf == Xf[0], axis=0)
    active = np.flatnonzero(variable)
    design = np.column_stack([np.ones(ds.n), Xf[:, active]])

    rank = np.linalg.matrix_rank(design)
    if rank < design.shape[1]:
        # Name columns contributing to the null space of the design.
        _, _, vt = np.linalg.svd(design, full_matrices=True)
        null = vt[rank:]
        implicated = np.flatnonzero(np.any(np.abs(null) > 1e-8, axis=0))
        names = [
            "(intercept)" if k == 0 else ds.schema.names[active[k - 1]]
            for k in implicated
        ]
        raise SingularMatrixError(
            f"design matrix is rank deficient ({rank}/{design.shape[1]})",
            columns=names,
        )

    beta = np.zeros(design.shape[1])
    nll = _neg_loglik(y, design @ beta)
    converged = False
    diagnostic = ""
    it = 0
    for it in range(1, _MAX_ITER + 1):
        z = design @ beta
        prob = _expit(z)
        grad = design.T @ (y - prob)
        if np.max(np.abs(grad)) < _TOL:
            converged = True
            break
        wdiag = np.maximum(prob * (1.0 - prob), 1e-12)
        H = design.T @ (design * wdiag[:, None])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, grad, rcond=None)
        # Step-halving: never accept an increase in the negative
        # log-likelihood.
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            cand_nll = _neg_loglik(y, design @ cand)
            if cand_nll <= nll + 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
        nll = _neg_loglik(y, design @ beta)
        if np.max(np.abs(beta)) > _SEPARATION_NORM:
            diagnostic = (
                "coefficient norm diverging; data appear separated and the "
                "MLE does not exist"
            )
            break
    else:
        z = design @ beta
        if np.max(np.abs(design.T @ (y - _expit(z)))) < _TOL:
            converged = True

    if not converged and not diagnostic:
        diagnostic = f"gradient not below tol after {it} iterations"

    coefs = np.zeros(ds.p)
    coefs[active] = beta[1:]
    return LogisticModel(
        intercept=float(beta[0]),
        coefficients=coefs,
        converged=converged,
        iterations=it,
        diagnostic=diagnostic,
    )


def predict_logistic(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Fitted probabilities sigmoid(intercept + X @ coefficients)."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != model.p:
        raise FitError(
            f"X must be 2-d with {model.p} columns, got shape {X.shape}"
        )
    return _expit(model.intercept + X.astype(np.float64) @ model.coefficients)
