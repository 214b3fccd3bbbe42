import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rarerisk.clustering import gower_binary_dissimilarity
from rarerisk.errors import GeneticError
from rarerisk.genetic import (
    GaConfig,
    Population,
    evolve,
    load_population_csv,
    _breed,
    _rank_probabilities,
    mutate,
    save_population_csv,
)


def single_point_crossover(
    a: np.ndarray, b: np.ndarray, cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """_breed's oracle for one pair: swap all genes to the right of the cut.

    Children keep their parent's genes at positions <= cut (1-based) and
    exchange the rest. cut may range from 0 (full swap) to p (no change).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise GeneticError("parents must be 1-d vectors of equal length")
    p = len(a)
    if not 0 <= cut <= p:
        raise GeneticError(f"cut must lie in [0, {p}], got {cut}")
    child1 = np.concatenate([a[:cut], b[cut:]])
    child2 = np.concatenate([b[:cut], a[cut:]])
    return child1, child2


def quick_config(**kw):
    base = dict(
        pop_size=60,
        generations=30,
        p_mutation=0.05,
        p_crossover=0.8,
        elitism_fraction=0.05,
        seed=0,
    )
    base.update(kw)
    return GaConfig(**base)


def ones_fraction(genes):
    return float(np.mean(genes))


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(GeneticError):
            quick_config(p_mutation=1.5)

    def test_elitism_needs_one_member(self):
        with pytest.raises(GeneticError):
            quick_config(pop_size=5, elitism_fraction=0.01)

    def test_defaults(self):
        cfg = GaConfig(seed=0)
        assert (cfg.pop_size, cfg.generations) == (500, 100)
        assert (cfg.p_mutation, cfg.p_crossover) == (0.10, 0.80)
        assert cfg.elitism_fraction == 0.05
        assert cfg.n_elite == 25


class TestOperators:
    def test_crossover_forced_example(self):
        a = np.array([1, 1, 1, 0, 0, 0], np.uint8)
        b = np.array([0, 0, 0, 1, 1, 1], np.uint8)
        c1, c2 = single_point_crossover(a, b, cut=3)
        assert c1.tolist() == [1, 1, 1, 1, 1, 1]
        assert c2.tolist() == [0, 0, 0, 0, 0, 0]

    def test_crossover_cut_p_identity(self):
        a = np.array([1, 0, 1], np.uint8)
        b = np.array([0, 1, 0], np.uint8)
        c1, c2 = single_point_crossover(a, b, cut=3)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)

    def test_crossover_cut_out_of_range(self):
        a = np.array([1, 0], np.uint8)
        with pytest.raises(GeneticError):
            single_point_crossover(a, a, cut=3)

    @given(
        genes=st.lists(st.integers(0, 1), min_size=2, max_size=20),
        other=st.data(),
    )
    def test_crossover_preserves_positionwise_multiset(self, genes, other):
        p = len(genes)
        a = np.array(genes, np.uint8)
        b = np.array(
            other.draw(st.lists(st.integers(0, 1), min_size=p, max_size=p)),
            np.uint8,
        )
        cut = other.draw(st.integers(0, p))
        c1, c2 = single_point_crossover(a, b, cut=cut)
        assert np.array_equal(np.sort(np.stack([a, b]), 0), np.sort(np.stack([c1, c2]), 0))

    @staticmethod
    def pairwise_breed(members, parent_idx, do_cross, cuts):
        children = []
        for k in range(len(do_cross)):
            a, b = members[parent_idx[2 * k]], members[parent_idx[2 * k + 1]]
            if do_cross[k]:
                children += single_point_crossover(a, b, cut=int(cuts[k]))
            else:
                children += [a.copy(), b.copy()]
        return np.array(children, np.uint8).reshape(len(parent_idx), members.shape[1])

    @given(data=st.data())
    def test_breed_matches_pairwise_crossover(self, data):
        p = data.draw(st.integers(1, 9), label="p")
        n = data.draw(st.integers(1, 6), label="n")
        pairs = data.draw(st.integers(0, 6), label="pairs")
        genes = data.draw(st.lists(st.integers(0, 1), min_size=n * p, max_size=n * p))
        members = np.array(genes, np.uint8).reshape(n, p)
        parent_idx = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=2 * pairs, max_size=2 * pairs)),
            np.int64,
        )
        do_cross = np.array(
            data.draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs)), bool
        )
        cuts = np.array(
            data.draw(st.lists(st.integers(0, p), min_size=pairs, max_size=pairs)), np.int64
        )
        got = _breed(members, parent_idx, do_cross, cuts)
        assert got.dtype == np.uint8
        assert np.array_equal(got, self.pairwise_breed(members, parent_idx, do_cross, cuts))

    def test_breed_single_gene_and_pass_through(self):
        # evolve draws cut = p when p == 1; rows without crossover pass through.
        members = np.array([[0], [1], [1]], np.uint8)
        parent_idx = np.array([0, 1, 2, 0])
        for do_cross in ([True, False], [False, True]):
            do_cross = np.array(do_cross)
            got = _breed(members, parent_idx, do_cross, np.ones(2, np.int64))
            assert got.tolist() == [[0], [1], [1], [0]]
            expected = self.pairwise_breed(members, parent_idx, do_cross, np.ones(2))
            assert np.array_equal(got, expected)

    def test_mutate_zero_identity(self, rng):
        c = rng.integers(0, 2, 30, dtype=np.uint8)
        assert np.array_equal(mutate(c, 0.0, rng), c)

    def test_mutate_one_complement(self, rng):
        c = rng.integers(0, 2, 30, dtype=np.uint8)
        assert np.array_equal(mutate(c, 1.0, rng), 1 - c)

    def test_mutate_mean_flip_rate(self):
        # Mean flips over N trials ~ Normal(p*rate, p*rate*(1-rate)/N).
        rng = np.random.default_rng(77)
        p, rate, trials = 20, 0.1, 100_000
        c = np.zeros(p, np.uint8)
        flips = np.count_nonzero(rng.random((trials, p)) < rate, axis=1)
        mean = flips.mean()
        sigma = np.sqrt(p * rate * (1 - rate) / trials)
        assert abs(mean - p * rate) < 3 * sigma
        # and the operator itself matches the direct mask construction
        rng2 = np.random.default_rng(78)
        flipped = sum(
            int(np.sum(mutate(c, rate, rng2) != c)) for _ in range(2000)
        )
        sigma2 = np.sqrt(p * rate * (1 - rate) / 2000)
        assert abs(flipped / 2000 - p * rate) < 3 * sigma2


class TestRankSelect:
    # evolve draws parents with these probabilities.
    def test_single_member(self):
        assert _rank_probabilities(np.array([0.4])).tolist() == [1.0]

    def test_two_member_odds(self):
        # Linear rank weights 1 and 2: the fitter member wins 2/3 of draws.
        probs = _rank_probabilities(np.array([0.9, 0.1]))
        assert probs.tolist() == [2 / 3, 1 / 3]

    def test_exact_rank_weights(self):
        m = 6
        fitness = np.array([0.45, 0.9, 0.15, 0.75, 0.3, 0.6])
        rank = np.argsort(np.argsort(fitness))  # 0 for the least fit
        weights = np.arange(1, m + 1) / np.arange(1, m + 1).sum()
        assert np.array_equal(_rank_probabilities(fitness), weights[rank])


class TestEvolve:
    def test_constant_fitness_flat_trace(self):
        trace = evolve(lambda c: 0.5, p=8, config=quick_config())
        assert np.all(trace.best == 0.5)
        assert np.all(trace.mean == 0.5)

    def test_onemax_reaches_optimum(self):
        hits = 0
        for seed in range(5):
            trace = evolve(
                ones_fraction,
                p=10,
                config=quick_config(
                    pop_size=100, generations=40, p_mutation=0.02, seed=seed
                ),
            )
            members = trace.final.members
            if np.any(members.sum(axis=1) == 10):
                hits += 1
        assert hits == 5

    def test_elitism_makes_best_non_decreasing(self):
        for seed in range(10):
            trace = evolve(ones_fraction, p=12, config=quick_config(seed=seed))
            assert np.all(np.diff(trace.best) >= 0)

    def test_deterministic(self):
        cfg = quick_config(seed=123)
        t1 = evolve(ones_fraction, p=9, config=cfg)
        t2 = evolve(ones_fraction, p=9, config=cfg)
        assert np.array_equal(t1.final.members, t2.final.members)
        assert np.array_equal(t1.final.fitness, t2.final.fitness)
        assert np.array_equal(t1.best, t2.best)

    def test_population_size_and_shape_constant(self):
        cfg = quick_config(pop_size=40, generations=10)
        trace = evolve(ones_fraction, p=7, config=cfg)
        assert trace.final.members.shape == (40, 7)
        assert set(np.unique(trace.final.members)) <= {0, 1}

    def test_no_elitism(self):
        # With no elites every member of a generation is bred and scored.
        cfg = quick_config(elitism_fraction=0.0, generations=12, seed=4)
        t1, t2 = (
            evolve(None, p=9, config=cfg, batch_fitness=lambda m: m.mean(axis=1))
            for _ in range(2)
        )
        assert np.array_equal(t1.final.members, t2.final.members)
        assert np.array_equal(t1.best, t2.best)
        assert len(t1.best) == 13
        assert np.array_equal(t1.final.fitness, t1.final.members.mean(axis=1))

    def test_trace_length(self):
        cfg = quick_config(generations=12)
        trace = evolve(ones_fraction, p=5, config=cfg)
        assert len(trace.best) == 13
        assert trace.n_generations == 12

    def test_non_finite_fitness_aborts(self):
        def bad(c):
            return float("nan")

        with pytest.raises(GeneticError):
            evolve(bad, p=4, config=quick_config(generations=1))

    def test_batch_fitness_matches_scalar(self):
        cfg = quick_config(seed=9)
        t1 = evolve(ones_fraction, p=8, config=cfg)
        t2 = evolve(
            None,
            p=8,
            config=cfg,
            batch_fitness=lambda m: m.mean(axis=1),
        )
        assert np.array_equal(t1.final.members, t2.final.members)
        assert np.array_equal(t1.best, t2.best)

    def test_exhaustive_small_p_finds_global_max(self):
        # p = 4: compare against direct enumeration of all 16 fitness values.
        rng = np.random.default_rng(1000)
        table = rng.random(16) * 0.8 + 0.1

        def fitness(c):
            return float(table[int("".join(map(str, c)), 2)])

        target = table.max()
        wins = 0
        for seed in range(20):
            trace = evolve(fitness, p=4, config=GaConfig(seed=seed))
            if abs(trace.best[-1] - target) < 1e-12:
                wins += 1
        assert wins == 20


class TestPopulationIo:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        pop = Population(
            rng.integers(0, 2, size=(25, 6), dtype=np.uint8),
            rng.random(25),
        )
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path, names=[f"p{i}" for i in range(6)])
        back, names = load_population_csv(path)
        assert names == [f"p{i}" for i in range(6)]
        assert np.array_equal(back.members, pop.members)
        assert np.array_equal(back.fitness, pop.fitness)

    @pytest.mark.parametrize(
        "p, first, last", [(3, "x01", "x03"), (100, "x001", "x100")]
    )
    def test_default_names(self, tmp_path, p, first, last):
        pop = Population(np.eye(4, p, dtype=np.uint8), np.zeros(4))
        path = tmp_path / "pop.csv"
        save_population_csv(pop, path)
        header = path.read_text("utf-8").splitlines()[0].split(",")
        assert [header[0], header[-2], header[-1]] == [first, last, "fitness"]
        assert tuple(header[:-1]) == gower_binary_dissimilarity(pop).labels

    def test_rejects_invalid_members(self):
        with pytest.raises(GeneticError):
            Population(np.array([[2]]), np.array([0.5]))
