import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from rarerisk import analysis
from rarerisk.analysis import (
    SwitchClass,
    commonality_importance,
    nearest_match,
    reverse_coding_importance,
)
from rarerisk.dataset import DataSet, PredictorSchema
from rarerisk.errors import RareRiskError
from rarerisk.genetic import Population

from conftest import binary_dataset, make_model, make_stump


def uniform_population(members):
    members = np.asarray(members, np.uint8)
    return Population(members, np.full(members.shape[0], 0.5))


def agreement_oracle(members, X):
    """Best agreement count per member, by comparing integers."""
    return (members[:, None] == X[None]).sum(-1).max(1)


class TestCommonality:
    def test_all_on_column(self):
        pop = uniform_population([[1, 0], [1, 1], [1, 0], [1, 1]])
        rep = commonality_importance(pop)
        assert rep.proportion_on[0] == 1.0
        assert rep.switch_class[0] is SwitchClass.ALWAYS_ON
        assert rep.proportion_on[1] == 0.5
        assert rep.switch_class[1] is SwitchClass.IN_BETWEEN

    def test_all_off_column(self):
        pop = uniform_population([[0, 1], [0, 1]])
        rep = commonality_importance(pop)
        assert rep.switch_class[0] is SwitchClass.ALWAYS_OFF
        assert rep.switch_class[1] is SwitchClass.ALWAYS_ON

    def test_reference_proportions_classify(self):
        # 0.43 is in between, 0.00 is always off at the strict default.
        members = np.zeros((100, 2), np.uint8)
        members[:43, 0] = 1
        rep = commonality_importance(uniform_population(members))
        assert abs(rep.proportion_on[0] - 0.43) < 1e-12
        assert rep.switch_class[0] is SwitchClass.IN_BETWEEN
        assert rep.proportion_on[1] == 0.0
        assert rep.switch_class[1] is SwitchClass.ALWAYS_OFF

    def test_epsilon_tolerance(self):
        members = np.ones((100, 1), np.uint8)
        members[:2, 0] = 0  # 98% on
        strict = commonality_importance(uniform_population(members))
        loose = commonality_importance(uniform_population(members), epsilon=0.05)
        assert strict.switch_class[0] is SwitchClass.IN_BETWEEN
        assert loose.switch_class[0] is SwitchClass.ALWAYS_ON

    def test_proportions_are_exact_column_means(self, rng):
        members = rng.integers(0, 2, size=(41, 7), dtype=np.uint8)
        rep = commonality_importance(uniform_population(members))
        assert np.array_equal(rep.proportion_on, members.mean(axis=0))


class TestReverseCoding:
    def make_additive_model(self, p, used, intercept=-0.5):
        trees = [make_stump(j, 0.0, t, p) for j, t in used.items()]
        return make_model(trees, p=p, intercept=intercept)

    def test_unused_predictor_drop_zero(self):
        model = self.make_additive_model(3, {0: 1.0})
        members = np.ones((10, 3), np.uint8)
        members[:, 2] = 0
        pop = uniform_population(members)
        rep = reverse_coding_importance(model, pop)
        # predictor 2 is always off and unused by the model
        k = rep.predictors.index(2)
        assert rep.drop[k] == 0.0
        assert rep.recoded_mean[k] == rep.benchmark_mean

    def test_known_delta_exact(self):
        # Identical members, so flipping column j moves every probability
        # from sigmoid(s) to sigmoid(s - t_j) exactly.
        used = {0: 0.8, 1: -0.6, 2: 1.5}
        model = self.make_additive_model(4, used, intercept=0.25)
        members = np.ones((500, 4), np.uint8)
        pop = uniform_population(members)
        rep = reverse_coding_importance(model, pop)
        s = 0.25 + sum(used.values())
        assert abs(rep.benchmark_mean - expit(s)) < 1e-12
        for j, t in used.items():
            k = rep.predictors.index(j)
            expected_drop = expit(s) - expit(s - t)
            assert abs(rep.drop[k] - expected_drop) < 1e-12

    def test_population_restored_bit_exact(self):
        model = self.make_additive_model(3, {0: 1.0, 1: 0.5})
        members = np.ones((50, 3), np.uint8)
        pop = uniform_population(members)
        before = pop.members.copy()
        reverse_coding_importance(model, pop)
        assert np.array_equal(pop.members, before)

    def test_no_universal_predictors_warns_empty(self):
        model = self.make_additive_model(2, {0: 1.0})
        members = np.array([[0, 1], [1, 0]], np.uint8)
        pop = uniform_population(members)
        with pytest.warns(RuntimeWarning):
            rep = reverse_coding_importance(model, pop)
        assert rep.predictors == ()
        assert rep.recoded_mean.size == 0

    def test_explicit_subset_allowed(self):
        model = self.make_additive_model(3, {0: 1.0, 1: 0.5})
        members = np.array([[0, 1, 0], [1, 0, 1]], np.uint8)
        pop = uniform_population(members)
        rep = reverse_coding_importance(model, pop, predictors=[1])
        assert rep.predictors == (1,)

    def test_brute_force_equivalence(self, rng):
        # Rebuild each recoded dataset from scratch and recompute.
        for trial in range(10):
            p = int(rng.integers(2, 9))
            m = int(rng.integers(2, 17))
            used = {
                int(j): float(rng.normal())
                for j in rng.choice(p, size=min(p, 3), replace=False)
            }
            model = self.make_additive_model(p, used, intercept=float(rng.normal()))
            members = rng.integers(0, 2, size=(m, p), dtype=np.uint8)
            members[:, : max(1, p // 2)] = 1  # force some universals
            pop = uniform_population(members)
            rep = reverse_coding_importance(model, pop)
            for k, j in enumerate(rep.predictors):
                rebuilt = np.array(members)
                rebuilt[:, j] = 1 - rebuilt[:, j]
                expected = float(model.predict(rebuilt).mean())
                assert abs(rep.recoded_mean[k] - expected) <= 1e-15

    def test_arity_mismatch_rejected(self):
        model = self.make_additive_model(3, {0: 1.0})
        pop = uniform_population(np.ones((4, 2), np.uint8))
        with pytest.raises(RareRiskError):
            reverse_coding_importance(model, pop)


class TestNearestMatch:
    def test_identical_member_scores_p(self):
        X = np.array([[1, 0, 1, 1], [0, 0, 0, 1]], np.uint8)
        ds = binary_dataset(X, [0, 1])
        pop = uniform_population([[1, 0, 1, 1]])
        best, global_max = nearest_match(pop, ds)
        assert best.tolist() == [4]
        assert global_max == 4

    def test_complementary_single_row(self):
        ds = binary_dataset(np.array([[1]], np.uint8), [0])
        pop = uniform_population([[0]])
        best, global_max = nearest_match(pop, ds)
        assert best.tolist() == [0]
        assert global_max == 0

    def test_population_against_itself(self, rng):
        members = rng.integers(0, 2, size=(12, 9), dtype=np.uint8)
        pop = uniform_population(members)
        ds = DataSet(
            PredictorSchema.default(9), members, np.zeros(12, np.uint8)
        )
        best, global_max = nearest_match(pop, ds)
        assert np.all(best == 9)
        assert global_max == 9

    def test_brute_force_equivalence(self, rng):
        members = rng.integers(0, 2, size=(8, 6), dtype=np.uint8)
        X = rng.integers(0, 2, size=(30, 6), dtype=np.uint8)
        ds = binary_dataset(X, rng.integers(0, 2, size=30))
        pop = uniform_population(members)
        best, _ = nearest_match(pop, ds)
        for i in range(8):
            direct = max(int(np.sum(members[i] == X[r])) for r in range(30))
            assert best[i] == direct

    @pytest.mark.parametrize("block", [1, 7, 29, 30, 4096])
    def test_blocks_match_whole_dataset(self, rng, monkeypatch, block):
        # A budget of 11 * block cells makes blocks of `block` rows for the
        # 11 members: 29 leaves a last block of one row.
        members = rng.integers(0, 2, size=(11, 6), dtype=np.uint8)
        X = rng.integers(0, 2, size=(30, 6), dtype=np.uint8)
        A, B = members.astype(float), X.astype(float)
        whole = np.rint((A @ B.T + (1 - A) @ (1 - B).T).max(axis=1)).astype(np.int64)
        monkeypatch.setattr(analysis, "_MATCH_CELLS", 11 * block)
        best, global_max = nearest_match(uniform_population(members), binary_dataset(X, np.zeros(30)))
        assert np.array_equal(best, whole)
        assert global_max == whole.max()

    def test_population_over_budget(self, rng, monkeypatch):
        # More members than cells: each block holds one row.
        members = rng.integers(0, 2, size=(11, 6), dtype=np.uint8)
        X = rng.integers(0, 2, size=(5, 6), dtype=np.uint8)
        monkeypatch.setattr(analysis, "_MATCH_CELLS", 10)
        best, global_max = nearest_match(uniform_population(members), binary_dataset(X, np.zeros(5)))
        direct = [max(int(np.sum(m == x)) for x in X) for m in members]
        assert best.tolist() == direct
        assert global_max == max(direct)

    @given(
        m=st.integers(1, 20),
        n=st.integers(1, 40),
        p=st.integers(1, 300),
        cells=st.integers(1, 200),
        rate=st.sampled_from([0.02, 0.5, 0.98]),
        wide=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_integer_oracle(self, m, n, p, cells, rate, wide, seed):
        # Some members copy a row, so agreements reach p; `wide` takes the
        # float64 path that p >= 2**24 would take.
        rng = np.random.default_rng(seed)
        X = (rng.random((n, p)) < rate).astype(np.uint8)
        members = (rng.random((m, p)) < rate).astype(np.uint8)
        members[: m // 2] = X[rng.integers(0, n, m // 2)]
        with mock.patch.object(analysis, "_MATCH_CELLS", cells), mock.patch.object(
            analysis, "_FLOAT32_EXACT", 1 if wide else analysis._FLOAT32_EXACT
        ):
            best, global_max = nearest_match(
                uniform_population(members), binary_dataset(X, np.zeros(n))
            )
        want = agreement_oracle(members, X)
        assert best.dtype == np.int64 and np.array_equal(best, want)
        assert global_max == want.max()

    def test_peak_memory_is_one_block(self, rng):
        # search_paper's size: 500 members against 22449 rows of 34.
        members = rng.integers(0, 2, size=(500, 34), dtype=np.uint8)
        X = rng.integers(0, 2, size=(22449, 34), dtype=np.uint8)
        pop, ds = uniform_population(members), binary_dataset(X, np.zeros(22449))
        tracemalloc.start()
        try:
            best, _ = nearest_match(pop, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(best[:20], agreement_oracle(members[:20], X))

    def test_empty_rejected(self):
        ds = binary_dataset(np.array([[1]], np.uint8), [0])
        with pytest.raises(RareRiskError):
            nearest_match(
                uniform_population(np.ones((1, 2), np.uint8)), ds
            )
