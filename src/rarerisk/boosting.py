"""Cost-weighted stochastic gradient boosting on binary predictors.

The loss is the weighted negative Bernoulli log-likelihood where positive
observations carry weight `cost_ratio` and negatives weight 1. Each
iteration fits a depth-limited regression tree to the working residuals on
a random bag of rows. Splits are chosen to maximize the exact reduction in
weighted deviance, with each candidate child evaluated at its own optimal
log-odds increment; final leaf values are then refit as the exact per-leaf
minimizers over all training rows they contain. Because every leaf value
minimizes the convex per-leaf loss, a shrunken step can never increase the
training deviance, so the recorded deviance curve is non-increasing by
construction.

Trees grow a level at a time: the level's nodes are packed into
cache-sized Newton solves, and a candidate split whose deviance bounds, at
the start or after one Newton step, show that it cannot win is not solved
further. A recheck against the exact results, with a full solve as the
fallback, keeps every tree bit-identical to solving each node's candidates
in full, one node at a time. Within a solve, the first step is summed from
per-row terms, and a problem whose iterates repeat exactly ends at once on
the iterate the iteration cap would leave it at.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from ._io import write_artifact
from .dataset import DataSet
from .errors import FitError, StratificationError

__all__ = [
    "BoostConfig",
    "RegressionTree",
    "BoostModel",
    "ConfusionTable",
    "fit_boost",
    "fit_boost_cv",
    "confusion",
    "in_sample_importance",
    "save_model",
    "load_model",
]

# Leaf log-odds increments are clipped to this magnitude; pure leaves would
# otherwise diverge. exp(12) ~ 1.6e5 on the odds scale, far past saturation.
GAMMA_CLIP = 12.0
_STEP_CLIP = 4.0
_MARGIN_CLIP = 36.0  # sigmoid(36) is within 2e-16 of 1
# The traversal kernel walks at most this many rows, and sums at most this
# many trees into one block of margins, at a time.
_CHUNK_ROWS = 512
_TREE_BLOCK = 128
# Split search packs the nodes of a tree level into solves of at most this
# many bag rows, so their matrices stay cache-sized.
_PACK_ROWS = 4096
# Damped Newton stops after this many steps.
_NEWTON_ITERS = 80


@dataclass(frozen=True)
class BoostConfig:
    """Tuning constants for the boosted ensemble.

    cost_ratio multiplies the loss weight of positive-class observations;
    interaction_depth is the maximum number of splits along any
    root-to-leaf path.
    """

    cost_ratio: float = 10.0
    interaction_depth: int = 10
    shrinkage: float = 0.1
    bag_fraction: float = 0.5
    min_node: int = 10
    max_trees: int = 3000
    cv_folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.cost_ratio <= 0:
            raise FitError("cost_ratio must be positive")
        if self.interaction_depth < 1:
            raise FitError("interaction_depth must be at least 1")
        if self.shrinkage <= 0:
            raise FitError("shrinkage must be positive")
        if not 0.0 < self.bag_fraction <= 1.0:
            raise FitError("bag_fraction must be in (0, 1]")
        if self.min_node < 1:
            raise FitError("min_node must be at least 1")
        if self.max_trees < 0:
            raise FitError("max_trees must be non-negative")
        if self.cv_folds < 2:
            raise FitError("cv_folds must be at least 2")
        if self.seed < 0:
            raise FitError("seed must be a non-negative integer")


@dataclass(frozen=True)
class RegressionTree:
    """Flat-array binary tree over {0,1} predictors.

    feature[k] is the split predictor of node k, or -1 for a leaf. A row
    goes left when the split predictor is 0 and right when it is 1.
    value[k] holds the (unshrunken) log-odds increment of leaf k; fitted
    trees hold 0.0 at internal nodes.
    deviance_reduction[j] is the total exact deviance reduction credited
    to splits on predictor j while this tree was grown.
    """

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    deviance_reduction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, np.int32))
        object.__setattr__(self, "left", np.asarray(self.left, np.int32))
        object.__setattr__(self, "right", np.asarray(self.right, np.int32))
        object.__setattr__(self, "value", np.asarray(self.value, np.float64))
        object.__setattr__(
            self,
            "deviance_reduction",
            np.asarray(self.deviance_reduction, np.float64),
        )
        n = self.n_nodes
        arrays = (self.feature, self.left, self.right, self.value)
        if n == 0 or {a.shape for a in arrays} != {(n,)}:
            raise FitError("tree arrays must be 1-d, non-empty and of equal length")
        # Leaves have no children, an internal node k has both in (k, n),
        # and no node is claimed twice: the nodes reachable from the root
        # then form a tree, so every root-to-leaf walk ends.
        leaves = self.feature < 0
        k = np.arange(n, dtype=np.int32)
        lt, rt = self.left, self.right
        leaf_ok = (lt == -1) & (rt == -1)
        kids_ok = (lt > k) & (rt > k) & (lt < n) & (rt < n)
        if (
            self.feature.min() < -1
            or self.feature.max() >= len(self.deviance_reduction)
            or not np.where(leaves, leaf_ok, kids_ok).all()
            or np.bincount(np.concatenate([lt, rt]) + 1, minlength=n + 1)[1:].max() > 1
        ):
            raise FitError("tree arrays do not form a valid binary tree")
        if not np.isfinite(self.value).all():
            raise FitError("tree values must be finite")
        if not np.all(self.deviance_reduction >= 0):
            raise FitError("deviance reductions must be non-negative")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def leaf_index(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id per row of X, which has one column per predictor."""
        X = np.asarray(X)
        p = len(self.deviance_reduction)
        if X.ndim != 2 or X.shape[1] != p:
            raise FitError(f"X must be a 2-d matrix with {p} columns")
        st = _stack((self,), 1.0)
        idx = np.empty(X.shape[0], dtype=np.int32)
        for lo in range(0, X.shape[0], _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            idx[lo:hi] = _walk(st, st.root, X[lo:hi])[0]
        return idx


@dataclass(frozen=True)
class _Stacked:
    """Trees concatenated into one flat table of packed next-node codes.

    A node's code is (2k << shift) | feature[k]: its global id k and its
    split predictor (0 at leaves), where shift is the bit width of the
    largest predictor index. code[2k + x] is the code of the node that k
    sends a row with predictor value x to; a leaf sends every row to
    itself, so extra steps past a leaf are harmless. The table is int32
    when every code fits and int64 otherwise. value[k] is node k's
    shrunken leaf value, root[t] is the code of tree t's root and depth is
    the longest root-to-leaf path.
    """

    code: np.ndarray
    value: np.ndarray
    root: np.ndarray
    depth: int
    shift: int


def _stack(trees: tuple[RegressionTree, ...], shrinkage: float) -> _Stacked:
    if not trees:
        return _Stacked(np.zeros(0, np.int32), np.zeros(0), np.zeros(0, np.int32), 0, 1)
    sizes = [t.n_nodes for t in trees]
    start = np.cumsum([0] + sizes[:-1])
    shift = max(max(int(t.feature.max()) for t in trees), 1).bit_length()
    dtype = np.int32 if (2 * sum(sizes)) << shift < 2**31 else np.int64
    # Filled a tree at a time, so no temporary is larger than one tree.
    code = np.empty((sum(sizes), 2), dtype)
    for t, s in zip(trees, start):
        own = np.arange(t.n_nodes)[:, None]
        kid = np.where(t.feature[:, None] < 0, own, np.column_stack([t.left, t.right]))
        code[s : s + t.n_nodes] = (kid + s).astype(dtype) << (shift + 1)
        code[s : s + t.n_nodes] |= np.maximum(t.feature, 0)[kid]
    depth, frontier = 0, start
    while True:
        kid = code[frontier] >> (shift + 1)
        frontier = kid[kid[:, 0] != frontier].ravel()  # a leaf points to itself
        if not len(frontier):
            break
        depth += 1
    split = np.array([max(t.feature[0], 0) for t in trees], dtype)  # at the roots
    root = start.astype(dtype) << (shift + 1) | split
    value = shrinkage * np.concatenate([t.value for t in trees])
    return _Stacked(code.ravel(), value, root, depth, shift)


def _walk(st: _Stacked, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Global leaf ids of the m rows of X: a (len(roots), m) array with one
    row per tree, for the trees whose root codes are roots.

    All cursors advance together, depth steps in all, each a node code.
    A step is two gathers: the row's bit of the node's split predictor,
    at the code's low bits plus the row's offset in X, then the next code,
    at the code's high bits plus that bit. A row goes right only where its
    value is exactly 1; any other value goes left. Every index is in range
    because X has a column for every split predictor, so the gathers skip
    their bounds checks.
    """
    m, p = X.shape
    bits = (X == 1).ravel()
    # Index arithmetic in int32 where it fits: half the memory traffic of
    # intp outweighs take's cast of the indices.
    dtype = np.int32 if st.code.dtype == np.int32 and m * p < 2**31 else np.int64
    row = np.arange(0, m * p, p, dtype=dtype)
    mask = (1 << st.shift) - 1
    cur = np.repeat(roots, m).reshape(len(roots), m)
    i = np.empty(cur.shape, dtype)
    b = np.empty(cur.shape, bits.dtype)
    for _ in range(st.depth):
        np.bitwise_and(cur, mask, out=i)
        i += row
        bits.take(i, out=b, mode="clip")
        np.right_shift(cur, st.shift, out=i)
        i += b
        st.code.take(i, out=cur, mode="clip")
    return np.right_shift(cur, st.shift + 1, out=i)


def _staged_margins(st: _Stacked, base: float, X: np.ndarray):
    """Yield (t0, F) for successive blocks of at most _TREE_BLOCK trees.

    F[i] is every row's margin after tree t0 + i, starting from base. Each
    margin is accumulated one tree at a time in tree order, so it equals
    the sum of base and the trees' shrunken values taken in that order.
    """
    n = X.shape[0]
    F = np.full(n, base)
    for t0 in range(0, len(st.root), _TREE_BLOCK):
        roots = st.root[t0 : t0 + _TREE_BLOCK]
        terms = np.empty((len(roots) + 1, n))
        terms[0] = F
        for lo in range(0, n, _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            st.value.take(_walk(st, roots, X[lo:hi]), out=terms[1:, lo:hi], mode="clip")
        # add.accumulate runs along axis 0 in order for every row count;
        # sum(axis=0) turns pairwise when there is only one row.
        np.cumsum(terms, axis=0, out=terms)
        yield t0, terms[1:]
        F = terms[-1].copy()


@dataclass(frozen=True)
class BoostModel:
    """Additive log-odds ensemble: intercept + shrinkage * sum of trees.

    predictor_names, when known, name the columns of X in order.
    """

    intercept: float
    trees: tuple[RegressionTree, ...]
    shrinkage: float
    n_trees_used: int
    config: BoostConfig
    n_predictors: int
    train_deviance: np.ndarray = field(default_factory=lambda: np.empty(0))
    cv_curve: np.ndarray | None = None
    predictor_names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if self.predictor_names is not None:
            names = tuple(str(n) for n in self.predictor_names)
            object.__setattr__(self, "predictor_names", names)
            if len(names) != self.n_predictors:
                raise FitError("predictor_names length must equal n_predictors")
        if self.n_predictors < 1:
            raise FitError("n_predictors must be at least 1")
        # json reads NaN and Infinity, and either would poison every margin.
        if not math.isfinite(self.intercept):
            raise FitError("intercept must be finite")
        if not (math.isfinite(self.shrinkage) and self.shrinkage > 0):
            raise FitError("shrinkage must be finite and positive")
        if len(self.train_deviance) not in (0, len(self.trees)):
            raise FitError("train_deviance length must be 0 or the tree count")
        if not 0 <= self.n_trees_used <= len(self.trees):
            raise FitError("n_trees_used must be between 0 and the tree count")
        if self.cv_curve is not None and len(self.cv_curve) != len(self.trees):
            raise FitError("cv_curve length must equal the tree count")
        for tree in self.trees:
            if len(tree.deviance_reduction) != self.n_predictors:
                raise FitError("tree bookkeeping disagrees with n_predictors")

    @property
    def p(self) -> int:
        return self.n_predictors

    @functools.cached_property
    def _stacked(self) -> _Stacked:
        # Built on first use; dataclasses.replace makes a new instance, so
        # a model with another n_trees_used never sees this one's tables.
        return _stack(self.trees[: self.n_trees_used], self.shrinkage)

    def margin(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if X.ndim != 2:
            raise FitError("X must be a 2-d matrix")
        if X.shape[1] != self.p:
            raise FitError(
                f"X has {X.shape[1]} columns, model expects {self.p}"
            )
        total = np.full(X.shape[0], self.intercept, dtype=np.float64)
        for _, F in _staged_margins(self._stacked, self.intercept, X):
            total = F[-1]
        return np.array(total)  # a copy, not a view into the last block

    def predict(self, X: np.ndarray) -> np.ndarray:
        return expit(self.margin(X))


# ---------------------------------------------------------------------------
# Loss helpers


def _loss_terms(y: np.ndarray, F: np.ndarray) -> np.ndarray:
    # Per-point negative log-likelihood log(1+e^F) - y*F, stable for any F.
    return np.logaddexp(0.0, F) - y * F


def weighted_deviance(y: np.ndarray, w: np.ndarray, F: np.ndarray) -> float:
    """Weighted mean Bernoulli deviance (-2 log-likelihood per unit weight)."""
    return float(2.0 * np.sum(w * _loss_terms(y, F)) / np.sum(w))


def _deviance_sum(y: np.ndarray, w: np.ndarray, F: np.ndarray) -> float:
    return float(2.0 * np.sum(w * _loss_terms(y, F)))


def _segment_optima(
    seg: np.ndarray,
    n_seg: int,
    y: np.ndarray,
    w: np.ndarray,
    F: np.ndarray,
    prune=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact leaf optima of many leaf problems at once.

    seg is an (m, k) integer matrix: in column c, row i belongs to problem
    seg[i, c], so each column partitions the m rows among some of the
    n_seg problems. y, w and F have length m. Returns per-problem
    (gamma, deviance): the minimizer of the problem's weighted loss over
    [-GAMMA_CLIP, GAMMA_CLIP] by damped Newton, and the problem's total
    deviance there. A gamma never increases its problem's loss relative to
    gamma = 0, and a problem without rows gets gamma = 0.

    Only problems still moving are iterated, and the result equals the
    plain loop over every entry bit for bit. A pure problem (no weighted
    positives, or no weighted negatives) starts at the clip, where the
    loop would end after steps of at least 1. Every other problem starts
    at gamma = 0, where all entries of a row hold the same terms, so the
    first step and the loss there are sums of per-row vectors. Once fewer
    than half the entries belong to moving problems, only theirs are kept,
    in order, so each problem's sums add the same terms in the same order.
    A problem's next iterate is thus a fixed function of its gamma: one
    that repeats, bit for bit, its iterate from 2 to 4 steps before is in
    a cycle, and it ends at once on the iterate that the cap of
    _NEWTON_ITERS steps would leave it at.

    prune, when given, is called at the start as prune(L, g, h, gamma,
    fresh), and again after the first Newton step if any problem is still
    moving. L, g and h are per problem the weighted loss at gamma, its
    negative slope and its curvature; fresh marks the problems they hold
    for: all of them at the start (a problem started at the clip is summed
    from its own entries there), and those not yet done after the step.
    It returns a mask of problems to stop. A stopped problem is not
    iterated again and its deviance is NaN. No problem's path depends on
    another's, so every other problem gets the bits it would get without
    the hook.
    """

    def sums(v: np.ndarray, at: np.ndarray = seg) -> np.ndarray:
        return np.bincount(at.ravel(), np.broadcast_to(v, at.shape).ravel(), n_seg)

    # sigma(F+gamma) is formed as E*t/(1+E*t) with E = exp(F) cached, so
    # the iterations are exp-free in the data dimension. Clipping F only
    # matters past sigmoid saturation.
    Fr = np.clip(F, -_MARGIN_CLIP, _MARGIN_CLIP)
    Er = np.exp(Fr)
    Fc, E, wcol, ycol = Fr[:, None], Er[:, None], w[:, None], y[:, None]
    wt, wy = sums(wcol), sums(wcol * ycol)

    def entry_sums(at, rows, Ea, wa, loss=False):
        # The loss at gamma (if asked for), its negative slope and its
        # curvature, summed over the entries at of the rows rows (every
        # entry of seg when rows is None); Ea and wa are E and w per entry.
        S = Ea * np.exp(gamma)[at]
        L = None
        if loss:
            ya, Fa = (ycol, Fc) if rows is None else (y[rows], Fr[rows])
            L = np.log1p(S)
            z = gamma[at]
            z += Fa
            z *= ya
            L -= z
            L = sums(np.multiply(L, wa, out=L), at)
        P = np.add(S, 1.0)
        P = np.divide(S, P, out=P)
        WP = np.multiply(wa, P, out=S)
        g = wy - sums(WP, at)
        return L, g, sums(np.multiply(WP, np.subtract(1.0, P, out=P), out=P), at)

    # Pure problems start where the plain loop ends: at the clip, reached
    # by steps g/h >= 1. That needs h > 1e-300 on the way (h is at least
    # 1e-21 times the largest weight there) and g >= h: exact when wy = 0,
    # but wy - sum(w P) cancels, so upwards only while every positive row
    # keeps (1 - P)^2 >= 4 (entries + 1) eps at +GAMMA_CLIP.
    heavy = wt > 1e-250
    gamma = np.where(heavy & (wy == 0.0), -GAMMA_CLIP, 0.0)
    top = Fr[y == 1].max(initial=-_MARGIN_CLIP) + GAMMA_CLIP
    if (1.0 + np.exp(top)) ** -2 >= 4 * (seg.size + 1) * np.finfo(float).eps:
        gamma[heavy & (wy == wt)] = GAMMA_CLIP
    # A problem without weight has no curvature; it stays at 0.
    done = (gamma != 0.0) | (wt == 0.0)
    stopped = np.zeros(n_seg, dtype=bool)
    count = np.bincount(seg.ravel(), minlength=n_seg)

    # At gamma = 0 the per-row terms are the per-entry terms of the plain
    # loop, so these sums add the same numbers in the same order. L0 is
    # also the safeguard's base.
    P = E / (1.0 + E)
    WP = wcol * P
    L0 = sums(wcol * (np.log1p(E) - ycol * Fc))
    g, h = wy - sums(WP), sums(WP * (1.0 - P))
    if prune is not None:
        L, gs, hs = L0, g, h
        clip = gamma != 0.0
        if clip.any():
            # A problem started at the clip is summed from its own entries
            # there; which rows it holds says nothing certain of its sign.
            sel = np.flatnonzero(clip[seg])
            rows = sel // seg.shape[1]
            Lc, gc, hc = entry_sums(seg.ravel()[sel], rows, Er[rows], w[rows], True)
            L, gs, hs = (np.where(clip, c, v) for c, v in ((Lc, L), (gc, g), (hc, h)))
        stopped = prune(L, gs, hs, gamma, np.ones(n_seg, dtype=bool))
        done |= stopped

    at, rows, Ea, wa = seg, None, E, wcol
    ring = np.empty((4, n_seg))  # iterate it of each problem in row it % 4
    for it in range(_NEWTON_ITERS):
        if done.all():
            break
        if it > 0:
            if 2 * count[~done].sum() < at.size:
                sel = np.flatnonzero(~done[at])
                rows = sel // seg.shape[1] if rows is None else rows[sel]
                at, Ea, wa = at.ravel()[sel], Er[rows], w[rows]
            hook = prune is not None and it == 1
            L, g, h = entry_sums(at, rows, Ea, wa, hook)
            if hook:
                stopped |= prune(L, g, h, gamma, ~done)
                done |= stopped
        # A problem without curvature, or done, gets no step.
        step = np.divide(g, h, out=np.zeros(n_seg), where=~done & (h > 1e-300))
        new = (gamma + step.clip(-_STEP_CLIP, _STEP_CLIP)).clip(-GAMMA_CLIP, GAMMA_CLIP)
        done |= np.abs(new - gamma) < 1e-12
        # new is iterate it + 1. Equal to iterate it + 1 - k, it repeats the
        # last k iterates until the cap, which leaves it at the one below.
        ring[it % 4] = gamma
        bits, past = new.view(np.int64), ring.view(np.int64)
        for k in range(2, min(it + 1, 4) + 1):
            cyc = ~done & (bits == past[(it + 1 - k) % 4])
            if cyc.any():
                new[cyc] = ring[(it + 1 - k + (_NEWTON_ITERS - 1 - it) % k) % 4, cyc]
                done |= cyc
        gamma = new

    # Only the problems not stopped get a deviance, from their entries in order.
    at, Ea, ya, Fa, wa = seg, E, ycol, Fc, wcol
    if stopped.any():
        sel = np.flatnonzero(~stopped[seg])
        rows = sel // seg.shape[1]
        at, Ea, ya, Fa, wa = seg.ravel()[sel], Er[rows], y[rows], Fr[rows], w[rows]

    def deviance(gamma: np.ndarray) -> np.ndarray:
        # log(1+e^z) - y*z with z = Fc + gamma, as log1p(E*e^gamma) - y*z.
        L = np.log1p(Ea * np.exp(gamma)[at])
        L -= ya * (Fa + gamma[at])
        L *= wa
        return 2.0 * sums(L, at)

    # Safeguard: halve any gamma that loses to gamma = 0; zero it after 60.
    # A stopped problem has no entries here and is never worse.
    base = np.where(stopped, np.inf, 2.0 * L0)
    dev = deviance(gamma)
    for _ in range(60):
        worse = dev > base
        if not worse.any():
            break
        gamma = np.where(worse, 0.5 * gamma, gamma)
        dev = deviance(gamma)
    worse = dev > base
    gamma[worse] = 0.0
    dev = np.where(worse, base, dev)
    dev[stopped] = np.nan
    return gamma, dev


def _deviance_bounds(
    L: np.ndarray, g: np.ndarray, h: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on each problem's least deviance over the clip.

    L, -g and h are the problem's weighted loss and its first two
    derivatives at gamma. Every row's loss phi has |phi'''| <= phi''
    (generalized self-concordance; Bach, EJS 2010), so a step of t >= 0
    downhill, as far as the clip, lands between L - a t + h (e^-t + t - 1)
    and L - a t + h (e^t - t - 1), where a = |g|. The bounds are the least
    values of these two curves.
    """
    a = np.abs(g)
    reach = np.where(g > 0, GAMMA_CLIP - gamma, GAMMA_CLIP + gamma)
    # The lower curve is least at t = -log(1 - a/h), the upper at
    # t = log(1 + a/h), or at the clip where that is further.
    inner = a < -h * np.expm1(-reach)
    q = np.divide(a, h, out=np.zeros_like(a), where=inner)
    d = np.where(inner, -np.log1p(-q), reach)
    inner = a < h * np.expm1(reach)
    q = np.divide(a, h, out=np.zeros_like(a), where=inner)
    u = np.where(inner, np.log1p(q), reach)
    lo = L - a * d + h * (np.expm1(-d) + d)
    hi = L - a * u + h * (np.expm1(u) - u)
    return 2.0 * lo, 2.0 * hi


def _weights(y: np.ndarray, cost_ratio: float) -> np.ndarray:
    return np.where(y == 1, cost_ratio, 1.0)


# ---------------------------------------------------------------------------
# Tree growing


def _best_splits(
    Xg: np.ndarray,
    yg: np.ndarray,
    wg: np.ndarray,
    Fg: np.ndarray,
    sizes: np.ndarray,
    valid: np.ndarray,
    node: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split predictor, gain and children's deviances of K nodes in one solve.

    The rows of node k are the k-th block of sizes[k] rows of Xg, yg, wg
    and Fg, node[k] is its deviance as one leaf, and valid[k, j] says
    whether both children of splitting it on predictor j meet the minimum
    node size. Problem 2 (k p + j) + x is side x of predictor j in node k.
    A split's gain is node[k] minus its children's deviances, each at its
    own optimum. The split predictor is the lowest index whose gain is at
    least top - 1e-9 max(1, |top|), top being the node's best gain, so
    float noise cannot decide between tied predictors; it is -1 unless
    that gain exceeds 1e-12. Its two children's deviances come back too.

    At the start and again after the first Newton step, _deviance_bounds
    bounds every child, each time within the bounds found before. A
    candidate whose gain upper bound lies more than 1e-6 max(1, |best|)
    below best, the largest gain lower bound in its node, is stopped, and
    so is every invalid one. Once solved, each stopped candidate's upper
    bound is checked against the exact tie window; if any could still
    reach it, the group is solved again in full.
    """
    K, p = valid.shape
    seg = np.repeat(np.arange(0, 2 * K * p, 2 * p), sizes)[:, None] + 2 * np.arange(p)
    seg += Xg

    def gains(sides: np.ndarray) -> np.ndarray:
        return node[:, None] - (sides[..., 0] + sides[..., 1])

    live = valid.copy()  # the candidates solved to the end
    lo = np.full((K, p, 2), -np.inf)
    hi = -lo

    def prune(L, g, h, gamma, fresh):
        # Each call's bounds hold, so they are intersected: a stopped
        # candidate stays stopped.
        l, u = (b.reshape(K, p, 2) for b in _deviance_bounds(L, g, h, gamma))
        fresh = fresh.reshape(K, p, 2)
        np.maximum(lo, l, out=lo, where=fresh)
        np.minimum(hi, u, out=hi, where=fresh)
        best = np.where(valid, gains(hi), -np.inf).max(axis=1, keepdims=True)
        live[:] &= ~(gains(lo) < best - 1e-6 * np.maximum(1.0, np.abs(best)))
        return np.repeat(~live, 2, axis=1).ravel()

    def solve(hook):
        dev = _segment_optima(seg, 2 * K * p, yg, wg, Fg, hook)[1].reshape(K, p, 2)
        gain = np.where(live, gains(dev), -np.inf)
        top = gain.max(axis=1, keepdims=True)
        return dev, gain, top - 1e-9 * np.maximum(1.0, np.abs(top))

    dev, gain, window = solve(prune)
    if not (gains(lo) < window)[valid & ~live].all():
        live[:] = valid
        dev, gain, window = solve(None)
    k = np.arange(K)
    j = np.argmax(gain >= window, axis=1)
    best = gain[k, j]
    return np.where(best > 1e-12, j, -1), best, dev[k, j]


def _grow_tree(
    Xb: np.ndarray,
    yb: np.ndarray,
    wb: np.ndarray,
    Fb: np.ndarray,
    bags: list[int],
    config: BoostConfig,
    p: int,
) -> list[RegressionTree]:
    """Grow one tree's splits per bag; every value is 0 until refit.

    Bag i is the i-th block of bags[i] rows of Xb, yb, wb and Fb, and level
    0 holds one root per bag. The trees grow a level at a time. One row
    order per level holds the rows of its splittable nodes, grouped by node
    in level order. These nodes are packed, in order, into groups of at
    most _PACK_ROWS rows (a larger node goes alone), and each group, a
    slice of the order, is one _best_splits call. A node's deviance as one
    leaf comes from the split that made it; only the roots' are solved
    here, in one call. Node ids and the deviance reductions are then
    assigned per tree in depth-first order, right child first, as one node
    at a time would assign them.
    """
    min_node = config.min_node
    # The level's node count, and the row count, the deviance and the rows
    # of each of its nodes (in level order) or, once filtered, of its
    # splittable ones.
    n_level, sizes, order = len(bags), np.array(bags), np.arange(len(yb))
    roots = np.repeat(np.arange(n_level), sizes)[:, None]
    dev = _segment_optima(roots, n_level, yb, wb, Fb)[1]
    # levels[d] is (predictor, gain, index of the left child in level
    # d + 1) per node of level d; the predictor is -1 at a leaf.
    levels = []
    for _ in range(config.interaction_depth):
        Xo = Xb[order]
        n1 = np.add.reduceat(Xo, np.cumsum(sizes) - sizes, axis=0, dtype=np.int64)
        valid = (n1 >= min_node) & (sizes[:, None] - n1 >= min_node)
        splittable = valid.any(axis=1)
        idx = np.flatnonzero(splittable)
        if len(idx) < n_level:
            rows = np.repeat(splittable, sizes)
            Xo, order = Xo[rows], order[rows]
            sizes, n1, valid, dev = sizes[idx], n1[idx], valid[idx], dev[idx]
        yo, wo, Fo = yb[order], wb[order], Fb[order]
        js, best = np.empty(len(idx), np.intp), np.empty(len(idx))
        kids = np.empty((len(idx), 2))  # the deviances of each split's children
        ends = np.cumsum(sizes).tolist()
        a = 0  # the first node of the open group
        for b in range(1, len(idx) + 1):
            r0 = ends[a - 1] if a else 0
            if b == len(idx) or ends[b] - r0 > _PACK_ROWS:
                r1 = ends[b - 1]
                js[a:b], best[a:b], kids[a:b] = _best_splits(
                    Xo[r0:r1], yo[r0:r1], wo[r0:r1], Fo[r0:r1],
                    sizes[a:b], valid[a:b], dev[a:b],
                )
                a = b
        split = js >= 0
        n_split = int(split.sum())
        feature, gain, child = np.full(n_level, -1), np.zeros(n_level), np.full(n_level, -1)
        feature[idx[split]] = js[split]
        gain[idx[split]] = best[split]
        child[idx[split]] = np.arange(0, 2 * n_split, 2)
        levels.append((feature.tolist(), gain.tolist(), child.tolist()))
        if not n_split:
            break
        # Side x of the r-th split node is node 2r + x of the next level.
        # A stable sort on that keeps each child's rows in bag order.
        rows = np.repeat(split, sizes)
        js, sizes, n1 = js[split], sizes[split], n1[split]
        key = np.repeat(np.arange(0, 2 * n_split, 2), sizes) + Xo[rows, np.repeat(js, sizes)]
        order = order[rows][np.argsort(key, kind="stable")]
        right = n1[np.arange(n_split), js]
        n_level, sizes = 2 * n_split, np.column_stack([sizes - right, right]).ravel()
        dev = kids[split].ravel()

    trees = []
    for root in range(len(bags)):
        feature, left, right = [-1], [-1], [-1]
        reduction = np.zeros(p)
        stack = [(0, 0, root)]  # (node id, level, index in level)
        while stack:
            node, d, i = stack.pop()
            if d == len(levels) or levels[d][0][i] < 0:
                continue
            j, gain, c = (column[i] for column in levels[d])
            reduction[j] += gain
            feature[node] = j
            left[node], right[node] = len(feature), len(feature) + 1
            feature += [-1, -1]
            left += [-1, -1]
            right += [-1, -1]
            stack.append((left[node], d + 1, c))
            stack.append((right[node], d + 1, c + 1))
        trees.append(RegressionTree(feature, left, right, np.zeros(len(feature)), reduction))
    return trees


def _refit_leaves(
    trees: list[RegressionTree],
    Xs: list[np.ndarray],
    y: np.ndarray,
    w: np.ndarray,
    F: np.ndarray,
) -> tuple[list[RegressionTree], np.ndarray]:
    """Refit every leaf value of each tree as the exact optimum over the
    full training rows it receives, in one solve. Tree i's rows are Xs[i],
    and the i-th block of y, w and F. Returns the updated trees and each
    row's leaf value."""
    start = np.cumsum([0] + [t.n_nodes for t in trees])
    idx = np.concatenate([t.leaf_index(X) + s for t, X, s in zip(trees, Xs, start)])
    values, _ = _segment_optima(idx[:, None], start[-1], y, w, F)
    parts = np.split(values, start[1:-1])
    return [dataclasses.replace(t, value=v) for t, v in zip(trees, parts)], values[idx]


def fit_boost(train: DataSet, config: BoostConfig) -> BoostModel:
    """Fit the cost-weighted boosted ensemble on the training data."""
    return _fit_lockstep([train], [config])[0]


def _fit_lockstep(sets: list[DataSet], configs: list[BoostConfig]) -> list[BoostModel]:
    """fit_boost of each data set under its config (the configs differ in
    their seeds alone), every fit checked before the first tree. The fits'
    t-th trees grow in one _grow_tree call and are refit in one solve; no
    fit's numbers depend on another's, so each model is the one it would be
    alone."""
    config = configs[0]
    for train in sets:
        if train.y.min() == train.y.max():
            raise FitError("response contains a single class; cannot boost")
        if config.min_node > train.n:
            raise FitError(
                f"min_node={config.min_node} exceeds the {train.n} training rows"
            )

    ys = [train.y.astype(np.float64) for train in sets]
    ws = [_weights(y, config.cost_ratio) for y in ys]
    wmean = [float(np.dot(w, y) / float(w.sum())) for y, w in zip(ys, ws)]
    intercept = [math.log(m / (1.0 - m)) for m in wmean]

    # y, w and F of every fit, one block after another.
    y, w = np.concatenate(ys), np.concatenate(ws)
    start = np.cumsum([0] + [train.n for train in sets])
    F = np.repeat(intercept, np.diff(start))
    n_bag = [max(1, int(config.bag_fraction * train.n)) for train in sets]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    trees = [[] for _ in sets]
    train_dev = np.empty((len(sets), config.max_trees))

    for t in range(config.max_trees):
        bags = [
            np.sort(rng.choice(train.n, size=b, replace=False)) if b < train.n
            else np.arange(train.n)
            for train, b, rng in zip(sets, n_bag, rngs)
        ]
        Xb = np.concatenate([train.X[bag] for train, bag in zip(sets, bags)])
        bag = np.concatenate([bag + s for bag, s in zip(bags, start)])
        grown = _grow_tree(Xb, y[bag], w[bag], F[bag], n_bag, config, sets[0].p)
        grown, row_values = _refit_leaves(grown, [train.X for train in sets], y, w, F)
        F = F + config.shrinkage * row_values
        for i, tree in enumerate(grown):
            trees[i].append(tree)
            train_dev[i, t] = weighted_deviance(ys[i], ws[i], F[start[i] : start[i + 1]])

    return [
        BoostModel(
            intercept=b,
            trees=tuple(fit_trees),
            shrinkage=config.shrinkage,
            n_trees_used=len(fit_trees),
            config=c,
            n_predictors=train.p,
            train_deviance=dev,
            predictor_names=train.schema.names,
        )
        for train, b, fit_trees, c, dev in zip(sets, intercept, trees, configs, train_dev)
    ]


# ---------------------------------------------------------------------------
# Cross-validation


def _stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold label per row; every fold receives both classes."""
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if len(pos) < k or len(neg) < k:
        raise StratificationError(
            f"cannot stratify {len(pos)} positives / {len(neg)} negatives "
            f"into {k} folds"
        )
    folds = np.empty(len(y), dtype=np.int32)
    folds[rng.permutation(pos)] = np.arange(len(pos)) % k
    folds[rng.permutation(neg)] = np.arange(len(neg)) % k
    return folds


def _staged_deviance_sums(
    model: BoostModel, X: np.ndarray, y: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Total weighted deviance on (X, y) after each successive tree."""
    out = np.empty(len(model.trees))
    st = _stack(model.trees, model.shrinkage)
    for t0, F in _staged_margins(st, model.intercept, X):
        for i, Fi in enumerate(F):
            out[t0 + i] = _deviance_sum(y, w, Fi)
    return out


def _fit_group(train: DataSet, fold: np.ndarray, fits: list) -> list:
    """Fit each (k, config) of fits in lockstep: on the rows outside fold k,
    or on every row when k is None. A fold gives its staged deviance sums
    and weight on its held-out rows; the fit on every row gives its model."""
    sets = [train if k is None else train.take(np.flatnonzero(fold != k)) for k, _ in fits]
    models = _fit_lockstep(sets, [config for _, config in fits])
    for i, (k, config) in enumerate(fits):
        if k is not None:
            yk = train.y[fold == k].astype(np.float64)
            wk = _weights(yk, config.cost_ratio)
            dev = _staged_deviance_sums(models[i], train.X[fold == k], yk, wk)
            models[i] = dev, float(wk.sum())
    return models


def _workers(n_tasks: int) -> int:
    """One worker per usable CPU, at most one per task. A daemonic process
    may not have children, so it runs the tasks itself."""
    if multiprocessing.current_process().daemon or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: exit once orphaned, not wait for tasks for ever."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _run_tasks(tasks: list) -> list:
    """fn(*args) of each (fn, args) task, in order, run at once in workers. The
    first error ends the other workers and is re-raised; none outlives the call."""
    if (workers := _workers(len(tasks))) == 1:
        return [fn(*args) for fn, args in tasks]
    fork = multiprocessing.get_context("fork")  # spawn would need a __main__ guard
    with ProcessPoolExecutor(workers, fork, _exit_with_parent, (os.getpid(),)) as pool:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:
            for proc in list(pool._processes.values()):  # shutdown would wait
                proc.terminate()
            raise
    return [future.result() for future in futures]


def fit_boost_cv(train: DataSet, config: BoostConfig) -> BoostModel:
    """Fit on all training rows, beside the CV folds, with the tree count
    that minimises the CV curve, the mean held-out deviance after each
    tree. Folds are stratified by class; they and their fits derive from
    config.seed."""
    if config.max_trees < 1:
        raise FitError("cross-validation needs max_trees >= 1")
    seqs = np.random.SeedSequence(config.seed).spawn(config.cv_folds + 1)
    fold = _stratified_folds(train.y, config.cv_folds, np.random.default_rng(seqs[0]))
    seeds = [int(s.generate_state(1, np.uint64)[0]) for s in seqs[1:]]
    fits = [(k, dataclasses.replace(config, seed=s)) for k, s in enumerate(seeds)]
    fits.append((None, config))
    # Fit i goes to group i mod W, one group per worker.
    W = _workers(len(fits))
    groups = _run_tasks([(_fit_group, (train, fold, fits[g::W])) for g in range(W)])
    *folds, model = (groups[i % W][i // W] for i in range(len(fits)))
    dev, weight = np.zeros(config.max_trees), 0.0
    for fold_dev, fold_weight in folds:  # in fold order
        dev, weight = dev + fold_dev, weight + fold_weight
    curve = dev / weight
    n_sel = int(np.argmin(curve)) + 1
    return dataclasses.replace(model, n_trees_used=n_sel, cv_curve=curve)


# ---------------------------------------------------------------------------
# Prediction and summaries


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else math.nan


@dataclass(frozen=True)
class ConfusionTable:
    """Counts of a thresholded classifier; rows = actual, columns = forecast.

    Classification errors are row-wise misclassification rates; forecasting
    errors are column-wise wrong-forecast rates. Degenerate denominators
    yield NaN.
    """

    tn: int
    fp: int
    fn: int
    tp: int
    threshold: float = 0.5

    @property
    def classification_error_neg(self) -> float:
        return _rate(self.fp, self.tn + self.fp)

    @property
    def classification_error_pos(self) -> float:
        return _rate(self.fn, self.fn + self.tp)

    @property
    def forecast_error_neg(self) -> float:
        return _rate(self.fn, self.tn + self.fn)

    @property
    def forecast_error_pos(self) -> float:
        return _rate(self.fp, self.fp + self.tp)

    @property
    def achieved_cost_ratio(self) -> float:
        """Realized false-positive to false-negative ratio."""
        if self.fn == 0:
            return math.nan if self.fp == 0 else math.inf
        return self.fp / self.fn

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "tp": self.tp,
            "classification_error_neg": self.classification_error_neg,
            "classification_error_pos": self.classification_error_pos,
            "forecast_error_neg": self.forecast_error_neg,
            "forecast_error_pos": self.forecast_error_pos,
            "achieved_cost_ratio": self.achieved_cost_ratio,
        }


def confusion(
    model: BoostModel, ds: DataSet, threshold: float = 0.5
) -> ConfusionTable:
    """Confusion counts at the given probability threshold.

    A row is forecast positive iff its predicted probability is strictly
    greater than the threshold; exact ties classify negative.
    """
    probs = model.predict(ds.X)
    pred = probs > threshold
    actual = ds.y == 1
    return ConfusionTable(
        tn=int(np.sum(~actual & ~pred)),
        fp=int(np.sum(~actual & pred)),
        fn=int(np.sum(actual & ~pred)),
        tp=int(np.sum(actual & pred)),
        threshold=threshold,
    )


def in_sample_importance(model: BoostModel) -> np.ndarray:
    """Per-predictor share of total deviance reduction, summing to 100.

    Predictors never chosen by any split score exactly zero. An
    intercept-only model has no reductions; the result is all zeros with
    a warning.
    """
    total = np.zeros(model.p)
    for tree in model.trees[: model.n_trees_used]:
        total += tree.deviance_reduction
    grand = total.sum()
    if grand <= 0.0:
        warnings.warn(
            "no deviance reduction recorded; importance is all zeros",
            RuntimeWarning,
            stacklevel=2,
        )
        return total
    return 100.0 * total / grand


# ---------------------------------------------------------------------------
# Serialization

_FORMAT = "rarerisk.boost_model"
_VERSION = 1


def model_to_dict(model: BoostModel) -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "intercept": model.intercept,
        "shrinkage": model.shrinkage,
        "n_trees_used": model.n_trees_used,
        "n_predictors": model.n_predictors,
        "config": dataclasses.asdict(model.config),
        "train_deviance": model.train_deviance.tolist(),
        "cv_curve": None if model.cv_curve is None else model.cv_curve.tolist(),
        "predictor_names": (
            None if model.predictor_names is None else list(model.predictor_names)
        ),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
                "deviance_reduction": t.deviance_reduction.tolist(),
            }
            for t in model.trees
        ],
    }


def model_from_dict(data: dict) -> BoostModel:
    if not isinstance(data, dict):
        raise FitError("a boost model document must be a JSON object")
    if data.get("format") != _FORMAT:
        raise FitError(f"not a boost model document: {data.get('format')!r}")
    if data.get("version") != _VERSION:
        raise FitError(f"unsupported model version {data.get('version')!r}")
    trees = tuple(
        RegressionTree(
            np.array(t["feature"], np.int32),
            np.array(t["left"], np.int32),
            np.array(t["right"], np.int32),
            np.array(t["value"], np.float64),
            np.array(t["deviance_reduction"], np.float64),
        )
        for t in data["trees"]
    )
    cv = data.get("cv_curve")
    return BoostModel(
        intercept=float(data["intercept"]),
        trees=trees,
        shrinkage=float(data["shrinkage"]),
        n_trees_used=int(data["n_trees_used"]),
        config=BoostConfig(**data["config"]),
        n_predictors=int(data["n_predictors"]),
        train_deviance=np.array(data["train_deviance"], np.float64),
        cv_curve=None if cv is None else np.array(cv, np.float64),
        predictor_names=data.get("predictor_names"),
    )


def save_model(model: BoostModel, path: str | Path) -> None:
    """Write the model as JSON; floats round-trip bit-exactly."""
    with write_artifact(path) as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")


def load_model(path: str | Path) -> BoostModel:
    """Inverse of save_model; a truncated or malformed file is a FitError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return model_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise FitError(f"malformed model file {path}: {exc!r}") from exc
