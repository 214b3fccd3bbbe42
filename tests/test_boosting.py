import dataclasses
import json
import math
import multiprocessing
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import expit, logit

from rarerisk import boosting
from rarerisk.boosting import (
    _MARGIN_CLIP,
    _STEP_CLIP,
    GAMMA_CLIP,
    BoostConfig,
    ConfusionTable,
    RegressionTree,
    confusion,
    fit_boost,
    fit_boost_cv,
    in_sample_importance,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    weighted_deviance,
)
from rarerisk.dataset import SynthSpec, synthesize
from rarerisk.errors import FitError, StratificationError

from conftest import binary_dataset, make_model, make_stump


# ---------------------------------------------------------------------------
# Independent oracle: exhaustive depth-1 enumeration minimizing weighted
# deviance, leaf values found by a bounded scalar minimizer.


def oracle_leaf(y, w, F):
    def dev(gamma):
        z = F + gamma
        return float(2.0 * np.sum(w * (np.logaddexp(0.0, z) - y * z)))

    res = minimize_scalar(
        dev, bounds=(-12.0, 12.0), method="bounded",
        options={"xatol": 1e-11},
    )
    return float(res.x), dev(float(res.x))


def oracle_stump(X, y, w, F, min_node):
    """Best depth-1 split: (j, gamma0, gamma1, gain) or None."""
    n, p = X.shape
    g_parent, dev_parent = oracle_leaf(y, w, F)
    best = None
    for j in range(p):
        on = X[:, j] == 1
        if on.sum() < min_node or (~on).sum() < min_node:
            continue
        g0, d0 = oracle_leaf(y[~on], w[~on], F[~on])
        g1, d1 = oracle_leaf(y[on], w[on], F[on])
        gain = dev_parent - (d0 + d1)
        if best is None or gain > best[3] + 1e-12:
            best = (j, g0, g1, gain)
    return best


def synth(n=600, p=6, effects=None, seed=0, base_rate=0.15):
    if effects is None:
        effects = tuple([1.2] * 3 + [0.0] * (p - 3))
    spec = SynthSpec(
        n=n,
        p=p,
        base_rate=base_rate,
        effects=effects,
        predictor_on_rates=tuple([0.5] * p),
        seed=seed,
    )
    return synthesize(spec)


def small_config(**kw):
    base = dict(
        cost_ratio=5.0,
        interaction_depth=3,
        shrinkage=0.1,
        bag_fraction=0.5,
        min_node=5,
        max_trees=30,
        cv_folds=3,
        seed=1,
    )
    base.update(kw)
    return BoostConfig(**base)


class TestFit:
    def test_intercept_only_when_no_trees(self):
        ds = synth(n=300)
        cfg = small_config(max_trees=0, cost_ratio=10.0)
        m = fit_boost(ds, cfg)
        y = ds.y.astype(float)
        w = np.where(y == 1, 10.0, 1.0)
        expected = float(np.dot(w, y) / w.sum())
        probs = m.predict(ds.X)
        assert np.allclose(probs, expected, atol=1e-12)

    def test_unweighted_intercept_is_base_rate_logit(self):
        # n = 8 keeps the weighted mean exactly representable.
        X = np.array([[0], [1]] * 4, np.uint8)
        y = np.array([1, 0, 0, 1, 1, 0, 0, 0])
        ds = binary_dataset(X, y)
        m = fit_boost(ds, small_config(cost_ratio=1.0, max_trees=0, min_node=1))
        assert m.intercept == math.log((3 / 8) / (5 / 8))

    def test_single_class_rejected(self):
        ds = binary_dataset(np.array([[0], [1]]), np.array([1, 1]))
        with pytest.raises(FitError):
            fit_boost(ds, small_config())

    def test_min_node_larger_than_n_rejected(self):
        ds = binary_dataset(np.array([[0], [1]]), np.array([1, 0]))
        with pytest.raises(FitError):
            fit_boost(ds, small_config(min_node=5))

    def test_config_echo(self):
        ds = synth(n=400)
        cfg = small_config(interaction_depth=10, cv_folds=5, max_trees=3)
        m = fit_boost(ds, cfg)
        assert m.config.interaction_depth == 10
        assert m.config.cv_folds == 5
        assert m.config is cfg

    def test_training_deviance_non_increasing(self):
        for seed in range(6):
            ds = synth(n=400, seed=seed)
            m = fit_boost(ds, small_config(seed=seed, max_trees=40))
            diffs = np.diff(m.train_deviance)
            assert np.all(diffs <= 1e-12), f"seed {seed}: max rise {diffs.max()}"

    def test_bagging_reproducible(self):
        ds = synth(n=500, seed=3)
        cfg = small_config(seed=17)
        m1 = fit_boost(ds, cfg)
        m2 = fit_boost(ds, cfg)
        assert m1.intercept == m2.intercept
        for t1, t2 in zip(m1.trees, m2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.value, t2.value)
            assert np.array_equal(t1.deviance_reduction, t2.deviance_reduction)

    def test_depth_limit_respected(self):
        ds = synth(n=800, seed=5)
        cfg = small_config(interaction_depth=2, max_trees=10, bag_fraction=1.0)
        m = fit_boost(ds, cfg)
        for tree in m.trees:
            depth = {0: 0}
            for node in range(tree.n_nodes):
                if tree.feature[node] >= 0:
                    for child in (tree.left[node], tree.right[node]):
                        depth[int(child)] = depth[node] + 1
            assert max(depth.values()) <= 2


class TestStumpOracle:
    def test_depth1_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        checked = 0
        for trial in range(300):
            n = int(rng.integers(4, 9))
            p = int(rng.integers(1, 3))
            X = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
            y = rng.integers(0, 2, size=n).astype(np.uint8)
            if y.min() == y.max():
                continue
            cost = float(rng.choice([1.0, 3.0, 10.0]))
            cfg = BoostConfig(
                cost_ratio=cost,
                interaction_depth=1,
                shrinkage=1.0,
                bag_fraction=1.0,
                min_node=1,
                max_trees=1,
                cv_folds=2,
                seed=0,
            )
            ds = binary_dataset(X, y)
            m = fit_boost(ds, cfg)
            tree = m.trees[0]

            yf = y.astype(float)
            w = np.where(y == 1, cost, 1.0)
            F = np.full(n, m.intercept)
            best = oracle_stump(X, yf, w, F, 1)

            if best is None or best[3] <= 1e-9:
                # No split worth making; the tree must be a bare leaf.
                if best is None:
                    assert tree.feature[0] == -1
                continue
            # Skip genuine near-ties, where "the" minimizer is not unique.
            margins = []
            for j in range(p):
                alt = oracle_stump(X[:, [j]], yf, w, F, 1)
                margins.append(-np.inf if alt is None else alt[3])
            order = sorted(margins, reverse=True)
            if len(order) > 1 and order[0] - order[1] < 1e-9:
                continue

            checked += 1
            assert tree.feature[0] == best[0], f"trial {trial}"
            leaf0 = tree.value[tree.left[0]]
            leaf1 = tree.value[tree.right[0]]
            assert abs(leaf0 - best[1]) < 1e-6
            assert abs(leaf1 - best[2]) < 1e-6
        assert checked >= 100


class TestTieRule:
    def test_exact_tie_picks_lower_index(self):
        # Column 1 is column 0 with rows permuted within each class, so both
        # candidates have the same class counts on each side and, in tree 0
        # where F is constant, mathematically equal gains. Float noise in
        # the sums must not decide between them.
        cfg = BoostConfig(
            cost_ratio=3.0, interaction_depth=1, shrinkage=1.0,
            bag_fraction=1.0, min_node=1, max_trees=1, cv_folds=2, seed=0,
        )
        split = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = (rng.random(60) < 0.3).astype(np.uint8)
            x0 = (rng.random(60) < 0.5).astype(np.uint8)
            x1 = x0.copy()
            for c in (0, 1):
                rows = np.flatnonzero(y == c)
                x1[rows] = x0[rng.permutation(rows)]
            tree = fit_boost(binary_dataset(np.column_stack([x0, x1]), y), cfg).trees[0]
            assert tree.feature[0] in (-1, 0), f"seed {seed}"
            split += tree.feature[0] == 0
        assert split >= 10


class TestLeafRefit:
    def test_depth2_leaves_match_oracle(self):
        # Rows with x0 = x1 = 1 are all negative: that leaf's optimum is the
        # clip bound. Bagging half the rows checks that leaves are refit on
        # all training rows, not just the bag the tree was grown on.
        rng = np.random.default_rng(7)
        X = rng.integers(0, 2, size=(400, 3), dtype=np.uint8)
        y = (rng.random(400) < 0.5).astype(np.uint8)
        y[(X[:, 0] == 1) & (X[:, 1] == 1)] = 0
        cfg = small_config(
            interaction_depth=2, max_trees=1, shrinkage=1.0, bag_fraction=0.5,
            min_node=5, cost_ratio=3.0,
        )
        m = fit_boost(binary_dataset(X, y), cfg)
        tree = m.trees[0]
        assert tree.n_nodes == 7
        assert np.all(tree.value[tree.feature >= 0] == 0.0)
        idx = tree.leaf_index(X)
        yf = y.astype(float)
        w = np.where(y == 1, 3.0, 1.0)
        F = np.full(len(y), m.intercept)
        for leaf in np.unique(idx):
            rows = idx == leaf
            expected, _ = oracle_leaf(yf[rows], w[rows], F[rows])
            assert abs(tree.value[leaf] - expected) < 1e-6, f"leaf {leaf}"
        assert -GAMMA_CLIP in tree.value[np.unique(idx)]


def _reference_segment_optima(seg, n_seg, y, w, F, history=None):
    """The plain segmented Newton solver: every iteration sweeps every
    entry of seg until all problems have converged. _segment_optima must
    return exactly its bits. A history list, when given, receives every
    iterate, the start included."""
    flat = seg.ravel()

    def sums(v):
        return np.bincount(flat, np.broadcast_to(v, seg.shape).ravel(), n_seg)

    Fc = np.clip(F, -_MARGIN_CLIP, _MARGIN_CLIP)[:, None]
    E = np.exp(Fc)
    wcol = w[:, None]
    wy = sums(wcol * y[:, None])

    def deviance(gamma):
        S = E * np.exp(gamma)[seg]
        return 2.0 * sums(wcol * (np.log1p(S) - y[:, None] * (Fc + gamma[seg])))

    gamma = np.zeros(n_seg)
    done = np.zeros(n_seg, dtype=bool)
    if history is not None:
        history.append(gamma)
    for _ in range(80):
        S = E * np.exp(gamma)[seg]
        P = S / (1.0 + S)
        WP = wcol * P
        g = wy - sums(WP)
        h = sums(WP * (1.0 - P))
        step = np.clip(g / np.maximum(h, 1e-300), -_STEP_CLIP, _STEP_CLIP)
        live = ~done & (h > 1e-300)
        new = np.where(live, np.clip(gamma + step, -GAMMA_CLIP, GAMMA_CLIP), gamma)
        done |= np.abs(new - gamma) < 1e-12
        gamma = new
        if history is not None:
            history.append(gamma)
        if done.all():
            break

    base = deviance(np.zeros(n_seg))
    dev = deviance(gamma)
    for _ in range(60):
        worse = dev > base
        if not worse.any():
            break
        gamma = np.where(worse, 0.5 * gamma, gamma)
        dev = deviance(gamma)
    worse = dev > base
    gamma[worse] = 0.0
    return gamma, np.where(worse, base, dev)


def assert_solver_matches_reference(seg, n_seg, y, w, F):
    expected = _reference_segment_optima(seg, n_seg, y, w, F)
    # A problem dropped from the iterations must not leave an overflowing
    # or undefined step behind.
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = boosting._segment_optima(seg, n_seg, y, w, F)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    return got


class TestSegmentOptima:
    @given(
        m=st.integers(1, 40),
        k=st.integers(1, 3),
        n_seg=st.integers(1, 12),
        pure_columns=st.integers(0, 3),
        prevalence=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        cost_ratio=st.sampled_from([0.1, 10.0, 3e8]),
        centre=st.floats(-60.0, 60.0),
        spread=st.sampled_from([0.0, 1.0, 30.0]),
        late=st.sampled_from([True, False]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_bit_for_bit(
        self, m, k, n_seg, pure_columns, prevalence, cost_ratio, centre, spread, late, seed
    ):
        # k columns draw ids from range(n_seg), which leaves some problems
        # without rows; each pure column splits the rows by class into two
        # problems of its own, so they can hold most entries. Centres past
        # +-36 saturate every margin. In about half the examples a leaf of
        # a late tree (saturated positives, hundreds of negatives) joins
        # the last problem of the first column, and in some of those the
        # plain loop runs to its iteration cap, most often in a cycle.
        rng = np.random.default_rng(seed)
        y = (rng.random(m) < prevalence).astype(np.float64)
        F = rng.normal(centre, spread, m)
        if late:
            n_pos, n_neg = rng.integers(20, 80), rng.integers(200, 1500)
            y = np.r_[y, np.ones(n_pos), np.zeros(n_neg)]
            F = np.r_[F, rng.normal(20.0, 4.0, n_pos), rng.normal(-8.0, 1.5, n_neg)]
        pure = [n_seg + 2 * c + y.astype(np.intp) for c in range(pure_columns)]
        seg = np.column_stack([rng.integers(0, n_seg, size=(len(y), k)), *pure])
        seg[m:, 0] = n_seg - 1
        w = boosting._weights(y, cost_ratio)
        assert_solver_matches_reference(seg, n_seg + 2 * pure_columns, y, w, F)

    @given(
        m=st.integers(1, 40),
        k=st.integers(1, 3),
        n_seg=st.integers(1, 12),
        prevalence=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        cost_ratio=st.sampled_from([0.1, 10.0, 3e8, 1e17]),
        centre=st.floats(-60.0, 60.0),
        spread=st.sampled_from([0.0, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stopped_problems_leave_the_rest_unchanged(
        self, m, k, n_seg, prevalence, cost_ratio, centre, spread, seed
    ):
        # The hook is called at the start, where every gamma is 0 or a
        # clip, and again after the first step on the problems not yet
        # done; each time it sees the loss, slope and curvature of those
        # problems at their gamma. The problems it never stops keep the
        # plain loop's bits. Those it stops come back with a NaN deviance,
        # and one stopped at the start stays stopped although the second
        # call does not name it again.
        rng = np.random.default_rng(seed)
        y = (rng.random(m) < prevalence).astype(np.float64)
        seg = rng.integers(0, n_seg, size=(m, k))
        w = boosting._weights(y, cost_ratio)
        F = rng.normal(centre, spread, m)
        stop = rng.random((2, n_seg)) < 0.3
        calls = []

        def prune(L, g, h, gamma, fresh):
            z = np.clip(F, -_MARGIN_CLIP, _MARGIN_CLIP)[:, None] + gamma[seg]
            P = expit(z)
            yc = y[:, None]
            # Each sum is checked to rounding in its largest terms.
            for got, terms, size in [
                (L, np.logaddexp(0.0, z) - yc * z, np.logaddexp(0.0, z) + yc * np.abs(z)),
                (g, yc - P, yc + P),
                (h, P * (1.0 - P), P),
            ]:
                want, scale = (
                    np.bincount(seg.ravel(), (w[:, None] * v).ravel(), n_seg)
                    for v in (terms, size)
                )
                assert np.all((np.abs(got - want) <= 1e-12 * scale)[fresh])
            calls.append((gamma.copy(), fresh.copy()))
            return stop[len(calls) - 1] & fresh

        history = []
        gamma_ref, dev_ref = _reference_segment_optima(seg, n_seg, y, w, F, history)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            gamma, dev = boosting._segment_optima(seg, n_seg, y, w, F, prune)
        assert 1 <= len(calls) <= 2
        start, fresh = calls[0]
        assert fresh.all()
        assert np.isin(start, [0.0, -GAMMA_CLIP, GAMMA_CLIP]).all()
        stopped = stop[0].copy()
        if len(calls) == 2:
            after, fresh = calls[1]
            assert not (fresh & stop[0]).any()
            assert np.array_equal(after[fresh], history[1][fresh])
            stopped |= stop[1] & fresh
        assert np.array_equal(gamma[~stopped], gamma_ref[~stopped])
        assert np.array_equal(dev[~stopped], dev_ref[~stopped])
        assert np.isnan(dev[stopped]).all()

    def test_start_bounds_of_a_heavy_problem_with_a_negative_row(self):
        # At cost_ratio 1e17 the 100 negative rows' weight is lost in wt,
        # so wy == wt and the problem starts at +GAMMA_CLIP although it
        # holds y = 0 rows. Their loss there (about 16 each) is what the
        # start bounds must count to bracket the solver's deviance.
        y = np.r_[np.ones(3), np.zeros(100)]
        w = boosting._weights(y, 1e17)
        F = np.where(y == 1, 2.0, 4.0)
        seg = np.zeros((len(y), 1), np.intp)
        assert np.bincount(seg[:, 0], w * y) == np.bincount(seg[:, 0], w)
        bounds = []

        def prune(L, g, h, gamma, fresh):
            assert gamma[0] == GAMMA_CLIP
            bounds.append(boosting._deviance_bounds(L, g, h, gamma))
            return np.zeros(1, bool)

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            gamma, (dev,) = boosting._segment_optima(seg, 1, y, w, F, prune)
        assert len(bounds) == 1 and gamma[0] == GAMMA_CLIP
        (lo,), (hi,) = bounds[0]
        slack = 1e-9 * abs(dev)
        assert lo <= dev + slack
        assert dev <= hi + slack

    @pytest.mark.parametrize("seed, period", [(26, 2), (17, 3), (125, None)])
    def test_problem_at_the_cap_exits_its_cycle(self, seed, period, monkeypatch):
        # A leaf like those of late trees: 65 positives of weight 10 at
        # saturated margins and 1250 negatives, so wt = 1900, wy = 650 and
        # h is about 0.1 at the optimum. g is then an ulp of wy, steps
        # stay above 1e-12, and the plain loop runs to the cap, repeating
        # a 2- or 3-cycle from its 10th iterate on, or drifting without
        # ever repeating. The solver must return the capped bits, and in
        # a cycle it must stop sweeping soon after the cycle closes.
        rng = np.random.default_rng(seed)
        y = np.r_[np.ones(65), np.zeros(1250)]
        w = boosting._weights(y, 10.0)
        F = np.r_[rng.normal(20.0, 4.0, 65), rng.normal(-8.0, 1.5, 1250)]
        seg = np.zeros((len(y), 1), np.intp)
        history = []
        want = _reference_segment_optima(seg, 1, y, w, F, history)
        bits = np.array(history)[:, 0].view(np.int64)
        assert len(bits) == 81
        if period is None:
            assert len(set(bits.tolist())) == 81
        else:
            assert bits[10] == bits[10 + period] != bits[11]
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
        got = boosting._segment_optima(seg, 1, y, w, F)
        monkeypatch.undo()
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        # Six set-up sums, two per step, and the deviance.
        assert len(calls) < 30 if period else len(calls) >= 6 + 2 * 79 + 1

    def test_pure_majority_is_dropped_at_once(self):
        # Two of three columns are pure and start done, so the first
        # iteration already runs on the third column's entries only. Their
        # sums must add in the original order, and the dropped pure-positive
        # problems (wy = 3e8 per row) must not be divided by h = 0.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            y = (rng.random(60) < 0.3).astype(np.float64)
            w = boosting._weights(y, 3e8)
            F = rng.normal(-1.0, 2.0, 60)
            cls = y.astype(np.intp)
            seg = np.column_stack([6 + cls, 8 + cls, rng.integers(0, 6, 60)])
            gamma, _ = assert_solver_matches_reference(seg, 10, y, w, F)
            assert np.array_equal(gamma[6:], [-GAMMA_CLIP, GAMMA_CLIP] * 2)

    def test_one_slow_problem_outlasts_the_rest(self):
        # Problem 0 holds 4 of 400 entries, and damped Newton cycles on it
        # until the iteration cap; every other problem is done within a
        # few iterations, so the last ones run on problem 0's entries only.
        rng = np.random.default_rng(3)
        m = 200
        y = (rng.random(m) < 0.3).astype(np.float64)
        y[:4] = [0.0, 1.0, 0.0, 1.0]
        w = boosting._weights(y, 10.0)
        F = rng.normal(-1.0, 1.0, m)
        F[:4] = [-1.0, 26.0, -1.0, 24.0]
        seg = np.column_stack([rng.integers(1, 6, m), rng.integers(6, 10, m)])
        seg[:4, 0] = 0
        gamma, _ = assert_solver_matches_reference(seg, 10, y, w, F)
        assert -GAMMA_CLIP < gamma[0] < GAMMA_CLIP

    def test_every_problem_pure(self):
        rng = np.random.default_rng(4)
        y = (rng.random(60) < 0.2).astype(np.float64)
        w = boosting._weights(y, 10.0)
        F = rng.normal(-2.0, 1.0, 60)
        seg = np.column_stack([y.astype(int) + 2 * c for c in range(3)])
        gamma, _ = assert_solver_matches_reference(seg, 6, y, w, F)
        assert np.array_equal(gamma, np.tile([-GAMMA_CLIP, GAMMA_CLIP], 3))

    def test_pure_positive_with_saturated_margins(self):
        # 1 - P rounds away near saturation, so the plain loop stops short
        # of the clip; such problems must not start there.
        y = np.ones(50)
        seg = np.zeros((50, 1), dtype=np.intp)
        for margin in (0.0, 24.0, 26.0, 30.0, 40.0):
            F = np.full(50, margin)
            assert_solver_matches_reference(seg, 1, y, np.full(50, 10.0), F)

    def test_pure_problems_with_tiny_weights(self):
        # Below ~1e-280 the curvature can fall under its 1e-300 floor on the
        # way to the clip, and the plain loop stops there.
        seg = np.zeros((5, 1), dtype=np.intp)
        for weight in (1e-250, 1e-290, 1e-310):
            for label, margin in ((0.0, -30.0), (1.0, 0.0)):
                y, F = np.full(5, label), np.full(5, margin)
                assert_solver_matches_reference(seg, 1, y, np.full(5, weight), F)

    def test_single_column_refit_matrix(self):
        # The refit passes one column of leaf ids; internal nodes get no
        # rows and must come back as 0.0.
        rng = np.random.default_rng(5)
        y = (rng.random(300) < 0.1).astype(np.float64)
        leaf = rng.choice([3, 4, 5, 6], 300)
        leaf[y == 1] = np.where(leaf[y == 1] == 6, 5, leaf[y == 1])
        w = boosting._weights(y, 10.0)
        F = rng.normal(-2.0, 0.5, 300)
        gamma, _ = assert_solver_matches_reference(leaf[:, None], 7, y, w, F)
        assert np.array_equal(gamma[:3], np.zeros(3))
        assert gamma[6] == -GAMMA_CLIP


# ---------------------------------------------------------------------------
# Split search oracle: one node at a time, depth first, every candidate
# solved to the end by the plain loop. _grow_tree must give its trees bit
# for bit.


def _reference_candidate_split(Xs, ys, ws, Fs, min_node):
    m, p = Xs.shape
    n1 = Xs.sum(axis=0, dtype=np.int64)
    valid = (n1 >= min_node) & (m - n1 >= min_node)
    gains = np.full(p, -np.inf)
    nv = int(valid.sum())
    if nv == 0:
        return gains
    seg = np.empty((m, nv + 1), dtype=np.intp)
    seg[:, :nv] = Xs[:, valid] + 2 * np.arange(nv)
    seg[:, nv] = 2 * nv
    _, dev = _reference_segment_optima(seg, 2 * nv + 1, ys, ws, Fs)
    sides = dev[:-1].reshape(nv, 2)
    gains[valid] = dev[-1] - (sides[:, 0] + sides[:, 1])
    return gains


def _reference_grow_tree(Xb, yb, wb, Fb, config, p):
    feature, left, right = [-1], [-1], [-1]
    reduction = np.zeros(p)
    stack = [(0, np.arange(len(yb)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if depth >= config.interaction_depth or len(rows) < 2 * config.min_node:
            continue
        gains = _reference_candidate_split(
            Xb[rows], yb[rows], wb[rows], Fb[rows], config.min_node
        )
        top = gains.max()
        j = int(np.argmax(gains >= top - 1e-9 * max(1.0, abs(top))))
        if not gains[j] > 1e-12:
            continue
        reduction[j] += gains[j]
        feature[node] = j
        left[node], right[node] = len(feature), len(feature) + 1
        feature += [-1, -1]
        left += [-1, -1]
        right += [-1, -1]
        mask = Xb[rows, j] == 1
        stack.append((left[node], rows[~mask], depth + 1))
        stack.append((right[node], rows[mask], depth + 1))
    return RegressionTree(feature, left, right, np.zeros(len(feature)), reduction)


def _reference_grow_trees(Xb, yb, wb, Fb, bags, config, p):
    # Each bag on its own, as the consecutive blocks of _grow_tree's rows.
    ends = np.cumsum(bags)
    return [
        _reference_grow_tree(Xb[a:b], yb[a:b], wb[a:b], Fb[a:b], config, p)
        for a, b in zip(ends - bags, ends)
    ]


def tie_data(seed, n=1200, p=9, base_rate=0.08):
    """Planted signal on columns 0, 2 and 5. Column 1 duplicates column 0
    (exact ties), column 3 is column 2 with one row flipped (near-ties),
    and column 4 is constant."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, p)) < 0.5).astype(np.uint8)
    X[:, 1] = X[:, 0]
    X[:, 3] = X[:, 2]
    X[rng.integers(n), 3] ^= 1
    X[:, 4] = 0
    eta = logit(base_rate) + X[:, [0, 2, 5]] @ np.array([1.0, 0.8, 0.6])
    y = (rng.random(n) < expit(eta)).astype(np.uint8)
    return binary_dataset(X, y)


class SolverSpy:
    """Wraps _segment_optima and records, per call, whether it was pruned
    and the deviances it returned. A pruned call is a split search over
    K nodes of p candidates each; it must hold their 2 K p sides alone."""

    def __init__(self, monkeypatch, p):
        self.calls = []
        self.callers = []  # the name of the function that made each call
        self.real = boosting._segment_optima
        self.p = p
        monkeypatch.setattr(boosting, "_segment_optima", self)

    def __call__(self, seg, n_seg, y, w, F, prune=None):
        if prune is not None:
            n_nodes = len(np.unique(seg[:, 0] // (2 * self.p)))
            assert seg.shape[1] == self.p and n_seg == 2 * n_nodes * self.p
        out = self.real(seg, n_seg, y, w, F, prune)
        self.calls.append((prune is not None, seg.shape[1], out[1]))
        self.callers.append(sys._getframe(1).f_code.co_name)
        return out

    @property
    def stopped(self):
        return sum(int(np.isnan(dev).sum()) for pruned, _, dev in self.calls if pruned)

    @property
    def fallbacks(self):
        # The leaf refit passes one column; a split search without the hook
        # is a group solved again.
        return sum(not pruned and k > 1 for pruned, k, _ in self.calls)


def assert_trees_match_oracle(cfg, monkeypatch, *sets):
    # The data sets are fitted in lockstep, and each must get the model
    # that the reference grows for it alone.
    got = boosting._fit_lockstep(list(sets), [cfg] * len(sets))
    with monkeypatch.context() as mp:
        mp.setattr(boosting, "_grow_tree", _reference_grow_trees)
        want = [fit_boost(ds, cfg) for ds in sets]
    for g, m in zip(got, want, strict=True):
        for a, b in zip(g.trees, m.trees, strict=True):
            for name in ("feature", "left", "right", "value", "deviance_reduction"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert np.array_equal(g.train_deviance, m.train_deviance)


class TestSplitSearchOracle:
    @pytest.mark.parametrize("depth", [1, 3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trees_match_node_by_node_search(self, depth, seed, monkeypatch):
        ds = tie_data(seed)
        spy = SolverSpy(monkeypatch, ds.p)
        cfg = small_config(interaction_depth=depth, min_node=4, max_trees=4,
                           cost_ratio=10.0, seed=seed)
        assert_trees_match_oracle(cfg, monkeypatch, ds)
        assert spy.stopped > 0
        assert spy.fallbacks == 0

    def test_nodes_just_above_twice_min_node(self, monkeypatch):
        # min_node 30 on 400 rows leaves many nodes of 60-80 rows, where
        # only a few candidates are valid, and pure nodes at a 3 % base rate.
        cfg = small_config(interaction_depth=10, min_node=30, max_trees=6,
                           bag_fraction=1.0, cost_ratio=20.0)
        assert_trees_match_oracle(cfg, monkeypatch, tie_data(3, n=400, base_rate=0.03))

    def test_pure_and_tiny_nodes(self, monkeypatch):
        # min_node 1: nodes split down to single rows and pure leaves.
        cfg = small_config(interaction_depth=10, min_node=1, max_trees=3)
        assert_trees_match_oracle(cfg, monkeypatch, tie_data(4, n=150, base_rate=0.2))

    def test_bag_larger_than_a_pack(self, monkeypatch):
        # The large root goes alone, and level 1 needs two calls; a second,
        # smaller bag grows beside it.
        ds = tie_data(5, n=9000, p=6)
        spy = SolverSpy(monkeypatch, ds.p)
        cfg = small_config(interaction_depth=3, min_node=10, max_trees=2)
        assert int(cfg.bag_fraction * ds.n) > boosting._PACK_ROWS
        assert_trees_match_oracle(cfg, monkeypatch, ds, tie_data(8, n=700, p=6))
        assert spy.fallbacks == 0

    @pytest.mark.parametrize("pack", [1, 50, 700])
    def test_any_packing_gives_the_same_tree(self, pack, monkeypatch):
        monkeypatch.setattr(boosting, "_PACK_ROWS", pack)
        cfg = small_config(interaction_depth=10, min_node=3, max_trees=3)
        assert_trees_match_oracle(cfg, monkeypatch, tie_data(6))

    def test_wrong_bounds_take_the_fallback(self, monkeypatch):
        # Swapped bounds claim every candidate is far behind some other one,
        # so winners get stopped; the recheck must solve those groups again.
        real = boosting._deviance_bounds
        monkeypatch.setattr(
            boosting, "_deviance_bounds", lambda *a: real(*a)[::-1]
        )
        ds = tie_data(7)
        spy = SolverSpy(monkeypatch, ds.p)
        cfg = small_config(interaction_depth=6, min_node=4, max_trees=1,
                           bag_fraction=1.0, cost_ratio=10.0)
        y = ds.y.astype(np.float64)
        w = boosting._weights(y, cfg.cost_ratio)
        F = np.full(ds.n, logit(np.dot(w, y) / w.sum()))
        (tree,) = boosting._grow_tree(ds.X, y, w, F, [ds.n], cfg, ds.p)
        want = _reference_grow_tree(ds.X, y, w, F, cfg, ds.p)
        for name in ("feature", "left", "right", "deviance_reduction"):
            assert np.array_equal(getattr(tree, name), getattr(want, name)), name
        assert tree.n_nodes > 15
        assert spy.fallbacks > 0
        # Some node had every candidate stopped, its winner included.
        assert any(
            np.isnan(dev.reshape(-1, 2 * ds.p)).all(axis=1).any()
            for pruned, _, dev in spy.calls if pruned
        )

    @given(
        bags=st.lists(
            st.tuples(st.integers(2, 300), st.sampled_from([0.0, 1.0, 8.0, 30.0])),
            min_size=1,
            max_size=3,
        ),
        p=st.integers(1, 8),
        base_rate=st.sampled_from([0.02, 0.1, 0.5]),
        cost_ratio=st.sampled_from([1.0, 10.0, 1e4, 3e8]),
        depth=st.integers(1, 6),
        min_node=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_bags_match_node_by_node_search(
        self, bags, p, base_rate, cost_ratio, depth, min_node, seed
    ):
        # Each bag has its own (n, noise). Margins scatter around the
        # weighted logit, as in trees after the first, with saturated ones
        # at the widest noise; columns come at rare and even on-rates, and
        # the last repeats the first, so exact ties are common.
        rng = np.random.default_rng(seed)
        on_rate = rng.choice([0.05, 0.5], p)
        effect = rng.normal(0.0, 1.0, p)
        parts = []
        for n, noise in bags:
            X = (rng.random((n, p)) < on_rate).astype(np.uint8)
            X[:, -1] = X[:, 0]
            y = (rng.random(n) < expit(logit(base_rate) + X @ effect)).astype(np.float64)
            y[:2] = [1.0, 0.0]
            w = boosting._weights(y, cost_ratio)
            F = logit(np.dot(w, y) / w.sum()) + rng.normal(0.0, noise, n)
            parts.append((X, y, w, F))
        X, y, w, F = (np.concatenate(a) for a in zip(*parts))
        cfg = small_config(interaction_depth=depth, min_node=min_node, cost_ratio=cost_ratio)
        sizes = [n for n, _ in bags]
        with pytest.MonkeyPatch.context() as mp:
            spy = SolverSpy(mp, p)
            trees = boosting._grow_tree(X, y, w, F, sizes, cfg, p)
        for tree, part in zip(trees, parts, strict=True):
            want = _reference_grow_tree(*part, cfg, p)
            for name in ("feature", "left", "right", "deviance_reduction"):
                assert np.array_equal(getattr(tree, name), getattr(want, name)), name
        # The roots are the only nodes solved as one leaf, all in one
        # single-column call with one problem per bag; every other node's
        # deviance comes from the split that made it.
        roots = [c for c, f in zip(spy.calls, spy.callers) if f == "_grow_tree"]
        assert [(k, len(dev)) for _, k, dev in roots] == [(1, len(bags))]


class TestDevianceBounds:
    @given(
        m=st.integers(1, 30),
        prevalence=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        cost_ratio=st.sampled_from([1e-3, 10.0, 3e8]),
        centre=st.floats(-60.0, 60.0),
        spread=st.sampled_from([0.0, 1.0, 30.0]),
        start=st.floats(-GAMMA_CLIP, GAMMA_CLIP),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bounds_bracket_the_optimum(
        self, m, prevalence, cost_ratio, centre, spread, start, seed
    ):
        # Bounds taken at any start bracket the solver's deviance, and the
        # arithmetic neither overflows nor divides 0 by 0.
        rng = np.random.default_rng(seed)
        y = (rng.random(m) < prevalence).astype(np.float64)
        w = boosting._weights(y, cost_ratio)
        F = np.clip(rng.normal(centre, spread, m), -_MARGIN_CLIP, _MARGIN_CLIP)
        _, (dev,) = boosting._segment_optima(np.zeros((m, 1), np.intp), 1, y, w, F)
        P = expit(F + start)
        L = np.array([np.sum(w * (np.logaddexp(0.0, F + start) - y * (F + start)))])
        g = np.array([np.sum(w * (y - P))])
        h = np.array([np.sum(w * P * (1.0 - P))])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            lo, hi = boosting._deviance_bounds(L, g, h, np.array([start]))
        slack = 1e-9 * max(1.0, abs(dev))
        assert lo[0] <= dev + slack
        assert dev <= hi[0] + slack


class TestTopology:
    VALID = dict(feature=[0, -1, -1], left=[1, -1, -1], right=[2, -1, -1])

    @pytest.mark.parametrize(
        "change",
        [
            dict(feature=[0, -1]),
            dict(feature=[], left=[], right=[]),
            dict(feature=[2, -1, -1]),
            dict(feature=[-2, -1, -1]),
            dict(feature=[0, 0, -1], left=[1, 0, -1], right=[2, 2, -1]),
            dict(left=[1, -1, 1]),
            dict(right=[1, -1, -1]),
            dict(right=[3, -1, -1]),
            dict(feature=[0, 1, -1, -1], left=[1, 2, -1, -1], right=[2, 3, -1, -1]),
        ],
        ids=[
            "unequal-lengths", "empty", "feature-too-large", "feature-below-leaf",
            "cycle", "leaf-with-child", "same-child-twice", "child-out-of-range",
            "two-parents",
        ],
    )
    def test_malformed_tree_rejected(self, change):
        arrays = {**self.VALID, **change}
        n = len(arrays["feature"])
        with pytest.raises(FitError):
            RegressionTree(value=np.zeros(n), deviance_reduction=np.zeros(2), **arrays)

    def test_non_finite_numbers_rejected(self):
        with pytest.raises(FitError):
            RegressionTree(value=[0.0, np.inf, 0.0], deviance_reduction=np.zeros(2), **self.VALID)
        with pytest.raises(FitError):
            RegressionTree(value=np.zeros(3), deviance_reduction=[np.nan, 0.0], **self.VALID)


class TestCv:
    def test_single_candidate(self):
        ds = synth(n=300, seed=2)
        assert fit_boost_cv(ds, small_config(max_trees=1)).n_trees_used == 1

    def test_planted_signal_selects_many_and_beats_intercept(self):
        ds = synth(n=900, p=6, seed=8, base_rate=0.2)
        cfg = small_config(max_trees=60, cv_folds=5, seed=4, cost_ratio=2.0)
        curve = fit_boost_cv(ds, cfg).cv_curve
        n_sel = int(np.argmin(curve)) + 1
        assert n_sel > 1
        intercept_dev = _pooled_intercept_cv_deviance(ds, cfg)
        assert curve[n_sel - 1] < intercept_dev

    def test_pure_noise_stays_near_intercept(self):
        ds = synth(
            n=900, p=5, effects=tuple([0.0] * 5), seed=9, base_rate=0.2
        )
        cfg = small_config(max_trees=25, cv_folds=5, seed=5, cost_ratio=2.0)
        curve = fit_boost_cv(ds, cfg).cv_curve
        intercept_dev = _pooled_intercept_cv_deviance(ds, cfg)
        assert abs(curve.min() - intercept_dev) / intercept_dev < 0.01

    def test_stratification_failure(self):
        X = np.array([[0], [1]] * 3, np.uint8)
        y = np.array([1, 0, 0, 0, 0, 0])
        ds = binary_dataset(X, y)
        with pytest.raises(StratificationError):
            fit_boost_cv(ds, small_config(cv_folds=3, min_node=1))

    def test_fit_boost_cv_stores_curve(self):
        ds = synth(n=500, seed=10, base_rate=0.2)
        cfg = small_config(max_trees=15, seed=6, cost_ratio=2.0)
        m = fit_boost_cv(ds, cfg)
        assert m.cv_curve is not None and len(m.cv_curve) == 15
        assert m.n_trees_used == int(np.argmin(m.cv_curve)) + 1
        assert len(m.trees) == 15

    def test_results_do_not_depend_on_worker_count(self, monkeypatch):
        # Five folds (six tasks with the refit) spread unevenly over the
        # workers; 1 runs them in-process.
        ds = synth(n=500, seed=11, base_rate=0.2)
        cfg = small_config(max_trees=12, cv_folds=5, seed=9, cost_ratio=2.0)
        models = []
        for workers in (1, 2, 3, 4, 6):
            monkeypatch.setattr(boosting, "_workers", lambda n, w=workers: w)
            models.append(model_to_dict(fit_boost_cv(ds, cfg)))
        assert all(m == models[0] for m in models[1:])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_fold_surfaces_at_once(self, monkeypatch, workers):
        # Each fold trains on 2000 of the 4000 rows, fewer than min_node, so
        # both folds fail at once. The full-data fit is valid (stumps only,
        # as no node has 2 * min_node rows) but takes half a minute or more;
        # it must be ended, not waited for.
        monkeypatch.setattr(boosting, "_workers", lambda n: workers)
        X = np.random.default_rng(0).integers(0, 2, size=(4000, 3))
        ds = binary_dataset(X, np.repeat([1, 0], [800, 3200]))
        cfg = small_config(cv_folds=2, min_node=2001, max_trees=40000)
        start = time.monotonic()
        with pytest.raises(FitError, match=r"^min_node=2001 exceeds the 2000 training rows$"):
            fit_boost_cv(ds, cfg)
        assert time.monotonic() - start < 5
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_daemonic_caller_fits_in_process(self):
        # A multiprocessing.Pool worker is daemonic and may not start
        # processes of its own, so it runs the folds itself.
        ds = synth(n=300, seed=12)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_small_cv_fit, (ds,)) == _small_cv_fit(ds)


def _small_cv_fit(ds):
    return model_to_dict(fit_boost_cv(ds, small_config(max_trees=5, cv_folds=2)))


def _pooled_intercept_cv_deviance(ds, cfg):
    """Held-out deviance of the per-fold weighted base-rate model, pooled
    the same way the CV curve pools folds."""
    from rarerisk.boosting import _loss_terms, _stratified_folds, _weights

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.cv_folds + 1)
    folds = _stratified_folds(ds.y, cfg.cv_folds, np.random.default_rng(children[0]))
    total, weight = 0.0, 0.0
    for k in range(cfg.cv_folds):
        held = folds == k
        ytr = ds.y[~held].astype(float)
        wtr = _weights(ytr, cfg.cost_ratio)
        mean = float(np.dot(wtr, ytr) / wtr.sum())
        intercept = math.log(mean / (1 - mean))
        yk = ds.y[held].astype(float)
        wk = _weights(yk, cfg.cost_ratio)
        total += 2.0 * float(
            np.sum(wk * _loss_terms(yk, np.full(yk.shape, intercept)))
        )
        weight += wk.sum()
    return total / weight


class TestPredict:
    def test_single_tree_stub(self):
        # Leaves chosen so that shrunken outputs are logit(.3)/logit(.7).
        shrink = 0.5
        tree = make_stump(0, logit(0.3) / shrink, logit(0.7) / shrink, p=2)
        m = make_model([tree], p=2, shrinkage=shrink)
        X = np.array([[0, 1], [1, 0]], np.uint8)
        probs = m.predict(X)
        assert abs(probs[0] - 0.3) < 1e-12
        assert abs(probs[1] - 0.7) < 1e-12

    def test_identical_rows_identical_probs(self):
        ds = synth(n=300, seed=12)
        m = fit_boost(ds, small_config(max_trees=10))
        X = np.tile(ds.X[:1], (5, 1))
        probs = m.predict(X)
        assert np.all(probs == probs[0])

    def test_unused_predictor_ignored(self):
        tree = make_stump(0, -1.0, 1.0, p=3)
        m = make_model([tree], p=3)
        X0 = np.array([[1, 0, 0]], np.uint8)
        X1 = np.array([[1, 1, 1]], np.uint8)
        assert m.predict(X0) == m.predict(X1)

    def test_dimension_mismatch(self):
        m = make_model([make_stump(0, 0.0, 1.0, p=2)], p=2)
        with pytest.raises(FitError):
            m.predict(np.zeros((2, 3), np.uint8))


# ---------------------------------------------------------------------------
# Oracle for the stacked traversal kernel: the per-tree walk it replaced,
# one numpy step per depth level per tree, summed tree by tree.


def oracle_leaf_index(tree, X):
    n = X.shape[0]
    idx = np.zeros(n, dtype=np.int32)
    while True:
        f = tree.feature[idx]
        internal = f >= 0
        if not internal.any():
            return idx
        cols = np.where(internal, f, 0)
        xv = X[np.arange(n), cols]
        nxt = np.where(xv == 1, tree.right[idx], tree.left[idx])
        idx = np.where(internal, nxt, idx)


def oracle_margin(model, X):
    total = np.full(X.shape[0], model.intercept)
    for tree in model.trees[: model.n_trees_used]:
        total += model.shrinkage * tree.value[oracle_leaf_index(tree, X)]
    return total


def oracle_staged_deviance_sums(model, X, y, w):
    F = np.full(X.shape[0], model.intercept)
    out = np.empty(len(model.trees))
    for t, tree in enumerate(model.trees):
        F += model.shrinkage * tree.value[oracle_leaf_index(tree, X)]
        out[t] = boosting._deviance_sum(y, w, F)
    return out


def random_tree(rng, p, max_depth):
    """A valid tree whose shape, depth and child order are random.

    Internal nodes carry non-zero values too, so a walk that stops short
    of a leaf shows in the margin.
    """
    feature, left, right = [-1], [-1], [-1]
    stack = [(0, 0)]
    while stack:
        node, depth = stack.pop()
        if depth >= max_depth or rng.random() < 0.2:
            continue
        kids = [len(feature), len(feature) + 1]
        if rng.random() < 0.5:
            kids.reverse()
        feature[node] = int(rng.integers(p))
        left[node], right[node] = kids
        feature += [-1, -1]
        left += [-1, -1]
        right += [-1, -1]
        stack += [(kids[0], depth + 1), (kids[1], depth + 1)]
    value = rng.standard_normal(len(feature))
    return RegressionTree(feature, left, right, value, np.zeros(p))


def random_ensemble(seed, n_trees, p=5, max_depth=6):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, p, int(rng.integers(0, max_depth + 1))) for _ in range(n_trees)]
    trees[0] = RegressionTree([-1], [-1], [-1], [0.7], np.zeros(p))
    return make_model(trees, p=p, intercept=-1.3, shrinkage=0.1)


def relabel(tree, rng):
    """The same tree with its nodes renumbered in a random order that still
    puts every parent before its children."""
    order, ready = [], [0]
    while ready:
        node = ready.pop(int(rng.integers(len(ready))))
        order.append(node)
        if tree.feature[node] >= 0:
            ready += [int(tree.left[node]), int(tree.right[node])]
    new_id = np.empty(len(order), np.int32)
    new_id[order] = np.arange(len(order))
    kid = lambda a: np.where(a < 0, -1, new_id[a])
    return RegressionTree(
        tree.feature[order], kid(tree.left[order]), kid(tree.right[order]),
        tree.value[order], tree.deviance_reduction,
    )


# Children that are neither (left, left + 1) nor in depth-first order.
SCRAMBLED = RegressionTree(
    feature=[2, 0, 1, -1, -1, -1, -1],
    left=[4, 6, 5, -1, -1, -1, -1],
    right=[1, 2, 3, -1, -1, -1, -1],
    value=[0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0],
    deviance_reduction=np.zeros(3),
)


class TestStackedTraversal:
    @pytest.mark.parametrize("n_rows", [0, 1, 2, boosting._CHUNK_ROWS + 1])
    @pytest.mark.parametrize("n_used", [0, 1, 9, 40])
    def test_margin_bit_identical(self, n_rows, n_used):
        model = dataclasses.replace(random_ensemble(3, 40), n_trees_used=n_used)
        X = np.random.default_rng(n_rows).integers(0, 2, size=(n_rows, 5), dtype=np.uint8)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))

    @pytest.mark.parametrize("n_rows", [1, 3])
    def test_more_trees_than_one_block(self, n_rows):
        # With one row, a sum over the tree axis would be pairwise.
        model = random_ensemble(4, 2 * boosting._TREE_BLOCK + 7, max_depth=3)
        X = np.random.default_rng(1).integers(0, 2, size=(n_rows, 5), dtype=np.uint8)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))

    def test_scrambled_children(self):
        X = np.array(list(np.ndindex(2, 2, 2)), np.uint8)
        assert np.array_equal(SCRAMBLED.leaf_index(X), oracle_leaf_index(SCRAMBLED, X))
        model = make_model([SCRAMBLED, SCRAMBLED], p=3, shrinkage=0.5)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))
        assert sorted(set(SCRAMBLED.leaf_index(X))) == [3, 4, 5, 6]

    def test_leaf_index_over_several_chunks(self):
        tree = random_tree(np.random.default_rng(5), 5, 8)
        X = np.random.default_rng(6).integers(0, 2, size=(3 * boosting._CHUNK_ROWS - 5, 5))
        assert np.array_equal(tree.leaf_index(X), oracle_leaf_index(tree, X))

    def test_replace_never_reuses_tables(self):
        model = random_ensemble(7, 30)
        X = np.random.default_rng(8).integers(0, 2, size=(50, 5), dtype=np.uint8)
        full = model.margin(X)
        for k in (0, 1, 12):
            fewer = dataclasses.replace(model, n_trees_used=k)
            assert np.array_equal(fewer.margin(X), oracle_margin(fewer, X))
        assert np.array_equal(model.margin(X), full)
        assert np.array_equal(full, oracle_margin(model, X))

    @pytest.mark.parametrize(
        "X",
        [
            np.array([[True, False, True], [False, True, True]]),
            np.array([[2, 1, -1], [1, 2, 0], [-1, 0, 1]], np.int64),
            np.array([[2.0, np.nan, 1.0], [np.nan, 1.0, 2.0], [1.0, 0.5, -1.0]]),
        ],
        ids=["bool", "int64", "float"],
    )
    def test_only_exactly_one_goes_right(self, X):
        assert np.array_equal(SCRAMBLED.leaf_index(X), oracle_leaf_index(SCRAMBLED, X))
        model = make_model([SCRAMBLED, SCRAMBLED], p=3, shrinkage=0.5)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(1, 6),
        p=st.integers(1, 70),  # the codes' feature field is 1 to 7 bits wide
        max_depth=st.integers(0, 7),
        n_rows=st.integers(0, 40),
    )
    def test_random_forests_match_the_oracle(self, seed, n_trees, p, max_depth, n_rows):
        rng = np.random.default_rng(seed)
        forest = random_ensemble(seed, n_trees, p=p, max_depth=max_depth)
        trees = [relabel(tree, rng) for tree in forest.trees]
        model = make_model(trees, p=p, intercept=-1.3, shrinkage=0.1)
        X = rng.choice(np.array([0, 1, 2, 255], np.uint8), size=(n_rows, p))
        for tree in trees:
            assert np.array_equal(tree.leaf_index(X), oracle_leaf_index(tree, X))
        assert np.array_equal(model.margin(X), oracle_margin(model, X))

    @pytest.mark.parametrize("n_rows", [0, 1, 7])
    def test_empty_forest(self, n_rows):
        model = make_model([], p=3, intercept=-0.4)
        X = np.ones((n_rows, 3), np.uint8)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))
        assert np.array_equal(model.margin(X), np.full(n_rows, -0.4))

    def test_wide_predictor_index_takes_an_int64_table(self):
        # 1023 nodes and a split on predictor 2**20 need codes past 2**31.
        p = 2**20 + 1
        rng = np.random.default_rng(12)
        internal = 2**9 - 1
        k = np.arange(internal)
        feature = np.full(2 * internal + 1, -1)
        feature[:internal] = rng.integers(p - 64, p, internal)
        feature[0] = p - 1
        left, right = np.full_like(feature, -1), np.full_like(feature, -1)
        left[k], right[k] = 2 * k + 2, 2 * k + 1
        tree = RegressionTree(feature, left, right, rng.standard_normal(len(feature)), np.zeros(p))
        assert boosting._stack((tree,), 1.0).code.dtype == np.int64
        X = rng.integers(0, 2, size=(8, p), dtype=np.uint8)
        assert np.array_equal(tree.leaf_index(X), oracle_leaf_index(tree, X))
        model = make_model([tree, tree], p=p, shrinkage=0.5)
        assert np.array_equal(model.margin(X), oracle_margin(model, X))

    @pytest.mark.parametrize(
        "X",
        [
            np.array([[1, 0], [1, 1], [0, 0]]),
            np.ones((3, 4), np.uint8),
            np.ones(3, np.uint8),
            np.ones((1, 2, 3), np.uint8),
        ],
        ids=["too-narrow", "too-wide", "1-d", "3-d"],
    )
    def test_leaf_index_checks_the_width_of_X(self, X):
        # Root on column 0, its right child on column 2: a walk that trusted
        # a two-column X would read row 1's bit for row 0.
        tree = RegressionTree(
            feature=[0, -1, 2, -1, -1],
            left=[1, -1, 3, -1, -1],
            right=[2, -1, 4, -1, -1],
            value=np.zeros(5),
            deviance_reduction=np.zeros(3),
        )
        with pytest.raises(FitError):
            tree.leaf_index(X)

    def test_staged_deviance_sums_bit_identical(self):
        model = random_ensemble(9, boosting._TREE_BLOCK + 20)
        rng = np.random.default_rng(10)
        X = rng.integers(0, 2, size=(boosting._CHUNK_ROWS + 30, 5), dtype=np.uint8)
        y = (rng.random(len(X)) < 0.3).astype(np.float64)
        w = np.where(y == 1, 4.0, 1.0)
        assert np.array_equal(
            boosting._staged_deviance_sums(model, X, y, w),
            oracle_staged_deviance_sums(model, X, y, w),
        )

    def test_fitted_model_bit_identical(self):
        ds = synth(n=700, seed=11)
        model = fit_boost(ds, small_config(max_trees=12, interaction_depth=4))
        assert np.array_equal(model.margin(ds.X), oracle_margin(model, ds.X))


class TestConfusion:
    # Reference counts whose derived rates are frozen from direct division.
    FIXTURE = dict(tn=1542, fp=763, fn=77, tp=67)

    def test_fixture_arithmetic(self):
        t = ConfusionTable(**self.FIXTURE)
        assert t.classification_error_neg == 763 / 2305
        assert t.classification_error_pos == 77 / 144
        assert t.forecast_error_neg == 77 / 1619
        assert t.forecast_error_pos == 763 / 830
        assert t.achieved_cost_ratio == 763 / 77

    def test_perfect_classifier(self):
        t = ConfusionTable(tn=10, fp=0, fn=0, tp=5)
        assert t.classification_error_neg == 0.0
        assert t.classification_error_pos == 0.0
        assert t.forecast_error_neg == 0.0
        assert t.forecast_error_pos == 0.0
        assert math.isnan(t.achieved_cost_ratio)

    def test_all_negative_predictions(self):
        t = ConfusionTable(tn=8, fp=0, fn=3, tp=0)
        assert math.isnan(t.forecast_error_pos)
        assert t.classification_error_pos == 1.0

    def test_threshold_ties_classify_negative(self):
        tree = make_stump(0, 0.0, 2.0, p=1)
        m = make_model([tree], p=1)  # x=0 -> exactly 0.5
        ds = binary_dataset(np.array([[0], [1]]), np.array([1, 1]))
        t = confusion(m, ds, threshold=0.5)
        assert (t.fn, t.tp) == (1, 1)

    def test_counts_on_fitted_model(self):
        ds = synth(n=700, seed=13, base_rate=0.3)
        m = fit_boost(ds, small_config(max_trees=20, cost_ratio=2.0))
        t = confusion(m, ds)
        assert t.tn + t.fp + t.fn + t.tp == ds.n


class TestImportance:
    def test_sums_to_100_with_exact_zeros(self):
        ds = synth(n=700, p=8, seed=14)
        m = fit_boost(ds, small_config(max_trees=25, seed=2))
        imp = in_sample_importance(m)
        assert abs(imp.sum() - 100.0) < 1e-9
        assert np.all(imp >= 0)
        used = set()
        for tree in m.trees[: m.n_trees_used]:
            used |= {int(f) for f in tree.feature if f >= 0}
        for j in range(ds.p):
            if j not in used:
                assert imp[j] == 0.0

    def test_intercept_only_warns_all_zero(self):
        ds = synth(n=300, seed=15)
        m = fit_boost(ds, small_config(max_trees=0))
        with pytest.warns(RuntimeWarning):
            imp = in_sample_importance(m)
        assert np.all(imp == 0.0)

    def test_never_split_predictor_zero(self):
        tree = make_stump(0, -1.0, 1.0, p=4)
        tree = dataclasses.replace(
            tree, deviance_reduction=np.array([5.0, 0.0, 0.0, 0.0])
        )
        m = make_model([tree], p=4)
        imp = in_sample_importance(m)
        assert imp.tolist() == [100.0, 0.0, 0.0, 0.0]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = synth(n=500, seed=16)
        m = fit_boost_cv(ds, small_config(max_trees=12, seed=7, cost_ratio=2.0))
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        assert back.intercept == m.intercept
        assert back.shrinkage == m.shrinkage
        assert back.n_trees_used == m.n_trees_used
        assert back.config == m.config
        assert np.array_equal(back.cv_curve, m.cv_curve)
        for t1, t2 in zip(m.trees, back.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.left, t2.left)
            assert np.array_equal(t1.right, t2.right)
            assert np.array_equal(t1.value, t2.value)
            assert np.array_equal(t1.deviance_reduction, t2.deviance_reduction)
        probs_before = m.predict(ds.X)
        probs_after = back.predict(ds.X)
        assert np.array_equal(probs_before, probs_after)

    def test_rejects_wrong_format(self):
        with pytest.raises(FitError):
            model_from_dict({"format": "something-else"})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("intercept", "NaN"),
            ("intercept", "-Infinity"),
            ("shrinkage", "Infinity"),
            ("shrinkage", "NaN"),
            ("shrinkage", "-0.1"),
            ("shrinkage", "0.0"),
            ("train_deviance", "[0.5]"),
        ],
    )
    def test_rejects_corrupt_values(self, key, value, tmp_path):
        # json reads NaN and Infinity; such a model used to load and
        # predict NaN everywhere.
        m = fit_boost(synth(n=300, seed=18), small_config(max_trees=2))
        doc = model_to_dict(m)
        doc[key] = "@"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc).replace('"@"', value), "utf-8")
        with pytest.raises(FitError, match=key):
            load_model(path)

    def test_predictor_names_round_trip(self):
        base = synth(n=300, p=3, seed=19)
        ds = binary_dataset(base.X, base.y, names=("age", "smoker", "male"))
        m = fit_boost(ds, small_config(max_trees=2))
        assert m.predictor_names == ("age", "smoker", "male")
        doc = model_to_dict(m)
        assert model_from_dict(doc).predictor_names == m.predictor_names
        del doc["predictor_names"]
        assert model_from_dict(doc).predictor_names is None

    def test_dict_round_trip(self):
        ds = synth(n=300, seed=17)
        m = fit_boost(ds, small_config(max_trees=5))
        again = model_from_dict(model_to_dict(m))
        assert np.array_equal(again.predict(ds.X), m.predict(ds.X))


class TestWeightedDeviance:
    def test_matches_direct_formula(self):
        y = np.array([1.0, 0.0, 1.0])
        w = np.array([10.0, 1.0, 10.0])
        F = np.array([0.5, -0.3, 1.0])
        p = expit(F)
        direct = -2 * np.sum(w * (y * np.log(p) + (1 - y) * np.log(1 - p)))
        assert abs(weighted_deviance(y, w, F) - direct / w.sum()) < 1e-12
