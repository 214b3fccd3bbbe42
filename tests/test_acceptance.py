"""Acceptance suite.

Each test family test_cNN_* checks one numbered acceptance criterion at
its stated tolerance; the conftest summary hook prints one line per
criterion at the end of the run.
"""

import json
import time
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import expit, logit

from rarerisk.analysis import reverse_coding_importance
from rarerisk.boosting import (
    BoostConfig,
    ConfusionTable,
    fit_boost,
    in_sample_importance,
)
from rarerisk.clustering import (
    DissimilarityMatrix,
    agnes_average_linkage,
    gower_binary_dissimilarity,
)
from rarerisk.dataset import SynthSpec, split_train_test, synthesize
from rarerisk.genetic import GaConfig, Population, evolve
from rarerisk.logistic import fit_logistic, predict_logistic
from rarerisk.pipeline import config_from_dict, run_pipeline

from conftest import make_model, make_stump
from test_boosting import oracle_stump
from test_clustering import naive_average_linkage

pytestmark = pytest.mark.acceptance


# ---------------------------------------------------------------------------
# Criterion 1: confusion arithmetic fixture.
#
# NOTE: the reference is a test-data confusion table at a 5% base rate
# (tn=1542, fp=763, fn=77, tp=67; the 22449 - 20000 test split) with five
# rounded rates. Its counts give fp/(tn+fp)=0.3310, fn/(fn+tp)=0.5347,
# fn/(tn+fn)=0.0476, fp/(fp+tp)=0.9193 and fp/fn=9.9091. Three causes kept
# three of the five stated targets from matching:
#
# 1. Band. The cost ratio is stated to one decimal (9.9), so a fixed
#    +-0.005 band was too narrow for it. Each target's band is now half a
#    unit in its own last stated decimal place: +-0.05 for 9.9 and still
#    +-0.005 for the four two-decimal rates.
# 2. classification_error_pos is stated as 0.47, which no counts can give
#    together with the three targets that hold. With f = fp/(fp+tp) = 0.92
#    and r = fp/fn = 9.9, fn/(fn+tp) = f / (f + r*(1-f)), which lies in
#    [0.520, 0.556] over the stated bands. 0.47 is close to 67/144 = 0.465,
#    the share of actual positives forecast correctly: the complement.
#    The interval allows 0.52-0.55; 0.53 = 1 - 0.47 undoes that slip.
# 3. forecast_error_neg is stated as 0.04. With c = fp/(tn+fp) = 0.33,
#    fn/(tn+fn) = c / (c + r*(1-c)), which lies in [0.046, 0.049]. 0.04 is
#    0.0476 truncated; the other targets are rounded (0.919 is 0.92).
#
# _C1_CASES keeps the targets as the reference states them; _C1_ERRATA
# holds the corrected values that the two rates are checked against.
# PAPER.md holds only the abstract, so whether the paper's printed table
# has these slips cannot be settled here.

_C1_TABLE = ConfusionTable(tn=1542, fp=763, fn=77, tp=67)
_C1_CASES = [
    ("classification_error_neg", _C1_TABLE.classification_error_neg, 0.33),
    ("classification_error_pos", _C1_TABLE.classification_error_pos, 0.47),
    ("forecast_error_neg", _C1_TABLE.forecast_error_neg, 0.04),
    ("forecast_error_pos", _C1_TABLE.forecast_error_pos, 0.92),
    ("achieved_cost_ratio", _C1_TABLE.achieved_cost_ratio, 9.9),
]
_C1_ERRATA = {
    # stated 0.47 is 1 - 0.53, the share of positives forecast correctly
    "classification_error_pos": 0.53,
    # stated 0.04 is 0.0476 truncated instead of rounded
    "forecast_error_neg": 0.05,
}
# Each erratum rate as a function of a rate that holds and the cost ratio r.
_C1_IMPLIED = {
    "classification_error_pos": (
        "forecast_error_pos", lambda f, r: f / (f + r * (1 - f))
    ),
    "forecast_error_neg": (
        "classification_error_neg", lambda c, r: c / (c + r * (1 - c))
    ),
}


def _half_unit(target):
    """Half a unit in the last stated decimal place of target."""
    return 0.5 * 10.0 ** Decimal(str(target)).as_tuple().exponent


def _c1_implied_interval(name):
    """Range of rate `name` over the stated bands of the targets it follows from."""
    stated = {case: target for case, _, target in _C1_CASES}
    source, rate = _C1_IMPLIED[name]
    x, r = stated[source], stated["achieved_cost_ratio"]
    hx, hr = _half_unit(x), _half_unit(r)
    # The rate is monotone in each argument, so the corners bound it.
    corners = [rate(x + dx, r + dr) for dx in (-hx, hx) for dr in (-hr, hr)]
    return min(corners), max(corners)


@pytest.mark.parametrize("name,computed,target", _C1_CASES)
def test_c01_confusion_fixture(name, computed, target):
    band = _half_unit(target)
    expected = _C1_ERRATA.get(name, target)
    if name in _C1_ERRATA:
        # The erratum follows from the targets that hold, not from the counts.
        lo, hi = _c1_implied_interval(name)
        assert target + band < lo or target - band > hi, (
            f"{name}: stated {target} fits the implied [{lo:.4f}, {hi:.4f}]"
        )
        assert expected - band <= hi and expected + band >= lo, (
            f"{name}: corrected {expected} misses the implied "
            f"[{lo:.4f}, {hi:.4f}]"
        )
    assert abs(computed - expected) <= band, (
        f"{name}: computed {computed:.6f} vs stated {target}, "
        f"corrected {expected} (band {band:g})"
    )


# ---------------------------------------------------------------------------
# Criterion 2: low-base-rate contrast. 10 seeds, at least 9 must show the
# logistic ceiling below 0.5 while 10:1-weighted boosting pushes >= 10% of
# test rows past 0.5. Total runtime must stay under 5 minutes.

def test_c02_low_base_rate_contrast():
    t_start = time.perf_counter()
    p = 34
    effects = tuple([0.55] * 10 + [0.0] * 24)
    on_rates = tuple([0.5] * p)
    passes = 0
    for seed in range(10):
        spec = SynthSpec(
            n=22449,
            p=p,
            base_rate=0.05,
            effects=effects,
            predictor_on_rates=on_rates,
            seed=1000 + seed,
        )
        ds = synthesize(spec)
        train, test = split_train_test(ds, 20000, seed=2000 + seed)

        baseline = fit_logistic(train)
        logistic_max = float(predict_logistic(baseline, train.X).max())

        cfg = BoostConfig(
            cost_ratio=10.0,
            interaction_depth=3,
            shrinkage=0.1,
            bag_fraction=0.5,
            min_node=10,
            max_trees=150,
            cv_folds=5,
            seed=3000 + seed,
        )
        model = fit_boost(train, cfg)
        frac_high = float(np.mean(model.predict(test.X) > 0.5))
        if logistic_max < 0.5 and frac_high >= 0.10:
            passes += 1
    elapsed = time.perf_counter() - t_start
    assert passes >= 9, f"only {passes}/10 seeds passed"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 minutes"


# ---------------------------------------------------------------------------
# Criterion 3: boosting correctness.

def test_c03_boosting_monotone_deviance():
    for seed in range(20):
        spec = SynthSpec(
            n=400,
            p=6,
            base_rate=0.15,
            effects=tuple([1.0] * 3 + [0.0] * 3),
            predictor_on_rates=tuple([0.5] * 6),
            seed=seed,
        )
        ds = synthesize(spec)
        cfg = BoostConfig(
            cost_ratio=5.0,
            interaction_depth=3,
            shrinkage=0.1,
            bag_fraction=0.5,
            min_node=5,
            max_trees=40,
            cv_folds=5,
            seed=seed,
        )
        model = fit_boost(ds, cfg)
        diffs = np.diff(model.train_deviance)
        assert np.all(diffs <= 1e-12), (
            f"seed {seed}: deviance rose by {diffs.max():.3e}"
        )


def test_c03_depth1_split_matches_enumeration():
    rng = np.random.default_rng(202408)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, 3))
        X = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
        y = rng.integers(0, 2, size=n).astype(np.uint8)
        if y.min() == y.max():
            continue
        cost = float(rng.choice([1.0, 5.0, 10.0]))
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
        from conftest import binary_dataset

        model = fit_boost(binary_dataset(X, y), cfg)
        tree = model.trees[0]
        yf, w = y.astype(float), np.where(y == 1, cost, 1.0)
        F = np.full(n, model.intercept)
        best = oracle_stump(X, yf, w, F, 1)
        if best is None or best[3] <= 1e-9:
            if best is None:
                assert tree.feature[0] == -1
            continue
        # A unique minimizer is required for "the" choice to be defined.
        gains = []
        for j in range(p):
            alt = oracle_stump(X[:, [j]], yf, w, F, 1)
            gains.append(-np.inf if alt is None else alt[3])
        top = sorted(gains, reverse=True)
        if len(top) > 1 and top[0] - top[1] < 1e-9:
            continue
        checked += 1
        assert int(tree.feature[0]) == best[0]
        assert abs(tree.value[tree.left[0]] - best[1]) < 1e-6
        assert abs(tree.value[tree.right[0]] - best[2]) < 1e-6
    assert checked >= 150, f"only {checked} informative instances"


def test_c03_importance_normalization():
    spec = SynthSpec(
        n=900,
        p=10,
        base_rate=0.2,
        effects=tuple([1.2, 1.0, 0.8] + [0.0] * 7),
        predictor_on_rates=tuple([0.5] * 10),
        seed=77,
    )
    ds = synthesize(spec)
    cfg = BoostConfig(
        cost_ratio=3.0,
        interaction_depth=2,
        shrinkage=0.1,
        bag_fraction=0.7,
        min_node=10,
        max_trees=30,
        cv_folds=5,
        seed=7,
    )
    model = fit_boost(ds, cfg)
    imp = in_sample_importance(model)
    assert abs(imp.sum() - 100.0) <= 1e-9
    used = set()
    for tree in model.trees:
        used |= {int(f) for f in tree.feature if f >= 0}
    for j in range(ds.p):
        if j not in used:
            assert imp[j] == 0.0
        else:
            assert imp[j] > 0.0


# ---------------------------------------------------------------------------
# Criterion 4: genetic search with stock settings finds the monotone
# optimum and the elitism invariant holds on every run.

def test_c04_ga_optimization():
    t_start = time.perf_counter()

    def ones_fraction(members):
        return members.mean(axis=1)

    found = 0
    monotone = 0
    for seed in range(100):
        cfg = GaConfig(
            pop_size=500,
            generations=100,
            p_mutation=0.10,
            p_crossover=0.80,
            elitism_fraction=0.05,
            seed=seed,
        )
        trace = evolve(None, 15, cfg, batch_fitness=ones_fraction)
        if np.any(trace.final.members.sum(axis=1) == 15):
            found += 1
        if np.all(np.diff(trace.best) >= 0):
            monotone += 1
    elapsed = time.perf_counter() - t_start
    assert found >= 95, f"optimum present in only {found}/100 runs"
    assert monotone == 100, f"best-fitness trace decreased in {100 - monotone} runs"
    assert elapsed < 180.0, f"runtime {elapsed:.0f}s exceeds 3 minutes"


# ---------------------------------------------------------------------------
# Criterion 5: commonality saturates for a predictor that raises the
# stub-model probability 0.3 -> 0.7 and empties for one that lowers it.
# The criterion fixes no search settings; a low mutation rate is used so
# the mutation floor (p_mutation per gene per offspring) sits well below
# the 0.99 / 0.01 thresholds.

def test_c05_commonality_saturation():
    p = 10
    trees = [
        make_stump(0, logit(0.3), logit(0.7), p),  # on raises 0.3 -> 0.7
        make_stump(1, 0.0, -1.2, p),  # on lowers fitness
    ]
    model = make_model(trees, p=p)
    cfg_base = dict(
        pop_size=500,
        generations=60,
        p_mutation=0.002,
        p_crossover=0.8,
        elitism_fraction=0.05,
    )
    for seed in range(10):
        trace = evolve(
            None, p, GaConfig(seed=seed, **cfg_base), batch_fitness=model.predict
        )
        common = trace.final.members.mean(axis=0)
        assert common[0] >= 0.99, f"seed {seed}: commonality {common[0]:.4f}"
        assert common[1] <= 0.01, f"seed {seed}: commonality {common[1]:.4f}"


# ---------------------------------------------------------------------------
# Criterion 6: reverse-coding drops are exact for an additive stub whose
# members are identical on every model column, and the population is
# restored bit-for-bit after each evaluation.

def test_c06_reverse_coding_exactness():
    p = 6
    contributions = {0: 0.9, 1: -0.4, 2: 1.6}
    trees = [make_stump(j, 0.0, t, p) for j, t in contributions.items()]
    model = make_model(trees, p=p, intercept=0.3)

    members = np.ones((500, p), np.uint8)
    members[:, 4] = 0  # always-off, unused by the model
    pop = Population(members, np.full(500, 0.5))
    before = pop.members.copy()

    report = reverse_coding_importance(model, pop)
    assert np.array_equal(pop.members, before), "population mutated"

    s = 0.3 + sum(contributions.values())
    assert abs(report.benchmark_mean - expit(s)) <= 1e-12
    for k, j in enumerate(report.predictors):
        if j in contributions:
            expected = expit(s) - expit(s - contributions[j])
        else:
            expected = 0.0
        assert abs(report.drop[k] - expected) <= 1e-12, (
            f"predictor {j}: drop {report.drop[k]!r} vs {expected!r}"
        )


# ---------------------------------------------------------------------------
# Criterion 7: average-linkage merges match the naive cubic-time oracle on
# 100 random populations; heights never decrease; the hand example's
# agglomerative coefficient is exactly 0.3.

def test_c07_clustering_oracle_equivalence():
    rng = np.random.default_rng(55)
    for trial in range(100):
        members = rng.integers(0, 2, size=(200, 12), dtype=np.uint8)
        pop = Population(members, np.full(200, 0.5))
        dm = gower_binary_dissimilarity(pop)
        dg = agnes_average_linkage(dm)
        merges, heights = naive_average_linkage(dm.values)
        assert dg.merges.tolist() == [list(m) for m in merges], f"trial {trial}"
        assert np.max(np.abs(dg.heights - np.array(heights))) <= 1e-12
        assert np.all(np.diff(dg.heights) >= 0)


def test_c07_hand_example_coefficient():
    d = np.array(
        [
            [0.0, 0.2, 0.5, 0.5],
            [0.2, 0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0, 0.5],
            [0.5, 0.5, 0.5, 0.0],
        ]
    )
    dg = agnes_average_linkage(
        DissimilarityMatrix(d, ("a", "b", "c", "d"))
    )
    assert dg.first_merge.tolist() == [0.2, 0.2, 0.5, 0.5]
    assert dg.agglomerative_coefficient == 0.3


# ---------------------------------------------------------------------------
# Criterion 8: the dissimilarity entries equal disagreement counts over
# population size, exactly, against brute force on 1000 random pairs.

def test_c08_gower_binary_identity():
    rng = np.random.default_rng(88)
    members = rng.integers(0, 2, size=(300, 40), dtype=np.uint8)
    pop = Population(members, np.full(300, 0.5))
    d = gower_binary_dissimilarity(pop)
    for _ in range(1000):
        j, k = rng.choice(40, size=2, replace=False)
        direct = int(np.sum(members[:, j] != members[:, k])) / 300
        assert d.values[j, k] == direct


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end determinism of the full pipeline at desk scale.

_C9_DOC = {
    "dataset": {
        "synth": {
            "n": 4000,
            "p": 20,
            "base_rate": 0.05,
            "effects": [0.8] * 8 + [0.0] * 12,
            "on_rates": 0.5,
            "seed": 41,
        }
    },
    "split": {"n_train": 3000, "seed": 42},
    "boost": {
        "cost_ratio": 10,
        "interaction_depth": 3,
        "shrinkage": 0.1,
        "bag_fraction": 0.5,
        "min_node": 10,
        "max_trees": 60,
        "cv_folds": 5,
        "cv": True,
        "seed": 43,
    },
    "ga": {
        "pop_size": 200,
        "generations": 40,
        "p_mutation": 0.05,
        "p_crossover": 0.8,
        "elitism_fraction": 0.05,
        "seed": 44,
        "repeats": 1,
    },
    "analysis": {"epsilon": 0.0},
    "report": {"histogram_bins": 20},
}


def test_c09_pipeline_determinism(tmp_path):
    import hashlib

    t_start = time.perf_counter()
    digests = []
    for name in ("run_a", "run_b"):
        doc = json.loads(json.dumps(_C9_DOC))
        doc["output_dir"] = name
        config = config_from_dict(doc, base_dir=tmp_path)
        manifest = run_pipeline(config)
        assert manifest.status == "ok"
        run = {}
        for f in sorted(config.output_dir.iterdir()):
            if f.name in ("manifest.json", ".lock"):
                continue  # the manifest alone carries timestamps
            run[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        digests.append(run)
    elapsed = time.perf_counter() - t_start
    assert digests[0] == digests[1], "artifacts differ between identical runs"
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"
