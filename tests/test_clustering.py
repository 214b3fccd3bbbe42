import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rarerisk.clustering import (
    Dendrogram,
    DissimilarityMatrix,
    agnes_average_linkage,
    cut_clusters,
    dendrogram_to_newick,
    gower_binary_dissimilarity,
)
from rarerisk.errors import ClusteringError
from rarerisk.genetic import Population


def naive_average_linkage(d, tie_tol=1e-12):
    """Cubic-time oracle: recompute every cluster distance directly from
    the original matrix as the mean over all cross-cluster object pairs,
    with the same tolerance-banded lexicographic tie-break."""
    p = d.shape[0]
    clusters = {i: [i] for i in range(p)}
    next_id = p
    merges, heights = [], []
    while len(clusters) > 1:
        ids = sorted(clusters)
        dists = {}
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                dists[(a, b)] = float(
                    np.mean(
                        [d[x, y] for x in clusters[a] for y in clusters[b]]
                    )
                )
        dmin = min(dists.values())
        a, b = min(k for k, v in dists.items() if v <= dmin + tie_tol)
        merges.append((a, b))
        heights.append(dists[(a, b)])
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges, heights


def random_matrix(rng, p):
    m = rng.random((p, p))
    d = (m + m.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


def labels_for(p):
    return tuple(f"v{i}" for i in range(p))


def gower_of(members):
    members = np.asarray(members, np.uint8)
    pop = Population(members, np.full(members.shape[0], 0.5))
    return gower_binary_dissimilarity(pop).values


@st.composite
def gower_matrices(draw):
    # Entries are multiples of 1/m, so the tie band decides many merges.
    m, p = draw(st.integers(1, 8)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return gower_of(rng.integers(0, 2, size=(m, p)))


@st.composite
def random_matrices(draw):
    p = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_matrix(rng, p)


class TestGower:
    def pop(self, members):
        members = np.asarray(members, np.uint8)
        return Population(members, np.full(members.shape[0], 0.5))

    def test_identical_columns_zero(self):
        pop = self.pop([[1, 1], [0, 0], [1, 1]])
        d = gower_binary_dissimilarity(pop)
        assert d.values[0, 1] == 0.0

    def test_complementary_columns_one(self):
        pop = self.pop([[1, 0], [0, 1], [1, 0]])
        d = gower_binary_dissimilarity(pop)
        assert d.values[0, 1] == 1.0

    def test_half_disagreement(self):
        pop = self.pop([[1, 1], [1, 0], [0, 0], [0, 1]])
        d = gower_binary_dissimilarity(pop)
        assert d.values[0, 1] == 0.5

    def test_brute_force_exact(self, rng):
        members = rng.integers(0, 2, size=(64, 10), dtype=np.uint8)
        pop = self.pop(members)
        d = gower_binary_dissimilarity(pop)
        for _ in range(200):
            j, k = rng.choice(10, size=2, replace=False)
            direct = np.sum(members[:, j] != members[:, k]) / 64
            assert d.values[j, k] == direct

    def test_needs_two_predictors(self):
        with pytest.raises(ClusteringError):
            gower_binary_dissimilarity(self.pop([[1], [0]]))


class TestAverageLinkage:
    def test_duplicate_pairs_merge_at_zero(self):
        d = np.array(
            [
                [0.0, 0.0, 0.8, 0.8],
                [0.0, 0.0, 0.8, 0.8],
                [0.8, 0.8, 0.0, 0.0],
                [0.8, 0.8, 0.0, 0.0],
            ]
        )
        dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(4)))
        assert dg.heights[0] == 0.0 and dg.heights[1] == 0.0
        assert dg.heights[2] == 0.8

    def test_three_object_hand_example(self):
        d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.4], [0.6, 0.4, 0.0]])
        dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(3)))
        assert dg.merges[0].tolist() == [0, 1]
        assert dg.heights[0] == 0.2
        assert abs(dg.heights[1] - 0.5) < 1e-15

    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            d = random_matrix(rng, 12)
            dm = DissimilarityMatrix(d, labels_for(12))
            dg = agnes_average_linkage(dm)
            merges, heights = naive_average_linkage(d)
            assert dg.merges.tolist() == [list(m) for m in merges]
            assert np.max(np.abs(dg.heights - np.array(heights))) < 1e-12

    def test_heights_non_decreasing(self, rng):
        for _ in range(20):
            d = random_matrix(rng, 9)
            dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(9)))
            assert np.all(np.diff(dg.heights) >= 0)

    def test_permutation_invariance(self, rng):
        for _ in range(5):
            p = 8
            d = random_matrix(rng, p)
            base = agnes_average_linkage(
                DissimilarityMatrix(d, labels_for(p))
            )
            perm = rng.permutation(p)
            dperm = d[np.ix_(perm, perm)]
            permuted = agnes_average_linkage(
                DissimilarityMatrix(
                    dperm, tuple(labels_for(p)[i] for i in perm)
                )
            )
            assert np.max(np.abs(base.heights - permuted.heights)) < 1e-12
            assert _partition_labels(base) == _partition_labels(permuted)


class TestMergeLoopOracle:
    @given(d=st.one_of(gower_matrices(), random_matrices()))
    @example(d=np.zeros((5, 5)))  # all columns identical: every height 0
    @example(d=np.array([[0.0, 0.25], [0.25, 0.0]]))  # p = 2
    @example(  # a 3-member population: thirds, mostly tied
        d=gower_of([[1, 0, 1, 1, 0, 0], [0, 0, 1, 1, 1, 0], [1, 1, 0, 1, 0, 1]])
    )
    def test_matches_naive_oracle_on_ties(self, d):
        p = d.shape[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(p)))
        merges, heights = naive_average_linkage(d)
        assert dg.merges.tolist() == [list(m) for m in merges]
        assert np.max(np.abs(dg.heights - np.array(heights))) < 1e-12
        # An object's first merge is the oracle's merge that names it.
        expected = np.full(p, np.nan)
        for step, pair in enumerate(merges):
            for obj in pair:
                if obj < p:
                    expected[obj] = heights[step]
        assert np.max(np.abs(dg.first_merge - expected)) < 1e-12
        top = dg.heights[-1]
        if top > 0.0:
            assert not caught
            assert dg.agglomerative_coefficient == float(
                np.mean(1.0 - dg.first_merge / top)
            )
        else:
            assert [w.category for w in caught] == [RuntimeWarning]
            assert dg.agglomerative_coefficient == 1.0


def _partition_labels(dg):
    """Set of frozen label-sets created at each merge step."""
    sets = {i: frozenset([dg.labels[i]]) for i in range(dg.p)}
    out = set()
    for step, (a, b) in enumerate(dg.merges):
        sets[dg.p + step] = sets[int(a)] | sets[int(b)]
        out.add(sets[dg.p + step])
    return out


class TestCoefficient:
    def four_object_example(self):
        d = np.array(
            [
                [0.0, 0.2, 0.5, 0.5],
                [0.2, 0.0, 0.5, 0.5],
                [0.5, 0.5, 0.0, 0.5],
                [0.5, 0.5, 0.5, 0.0],
            ]
        )
        return agnes_average_linkage(DissimilarityMatrix(d, labels_for(4)))

    def test_hand_computed_value(self):
        dg = self.four_object_example()
        assert dg.first_merge.tolist() == [0.2, 0.2, 0.5, 0.5]
        assert dg.agglomerative_coefficient == 0.3

    def test_tight_far_clusters_give_one(self):
        d = np.array(
            [
                [0.0, 0.0, 0.9, 0.9],
                [0.0, 0.0, 0.9, 0.9],
                [0.9, 0.9, 0.0, 0.0],
                [0.9, 0.9, 0.0, 0.0],
            ]
        )
        dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(4)))
        assert dg.agglomerative_coefficient == 1.0

    def test_degenerate_all_identical(self):
        d = np.zeros((3, 3))
        with pytest.warns(RuntimeWarning):
            dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(3)))
        assert dg.agglomerative_coefficient == 1.0

    def test_always_in_unit_interval(self, rng):
        for _ in range(20):
            d = random_matrix(rng, 7)
            dg = agnes_average_linkage(DissimilarityMatrix(d, labels_for(7)))
            ac = dg.agglomerative_coefficient
            assert 0.0 <= ac <= 1.0


class TestCut:
    def dendrogram(self):
        d = np.array([[0.0, 0.2, 0.6], [0.2, 0.0, 0.4], [0.6, 0.4, 0.0]])
        return agnes_average_linkage(DissimilarityMatrix(d, labels_for(3)))

    def test_k_one(self):
        assert cut_clusters(self.dendrogram(), k=1) == [[0, 1, 2]]

    def test_k_p(self):
        assert cut_clusters(self.dendrogram(), k=3) == [[0], [1], [2]]

    def test_invalid_k(self):
        with pytest.raises(ClusteringError):
            cut_clusters(self.dendrogram(), k=5)


class TestNewick:
    def test_two_leaves(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        dg = agnes_average_linkage(DissimilarityMatrix(d, ("aa", "bb")))
        assert dendrogram_to_newick(dg) == "(aa:0.4,bb:0.4);"

    def test_quoting(self):
        # A Newick reader takes [...] as a comment and an unquoted _ as a
        # blank; default names such as x01 stay bare.
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        for label in ("needs space", "prior[dv]", "a]b", "prior_arrest",
                      "tab\tx", "line\nbreak", "nbsp\u00a0x"):
            dg = agnes_average_linkage(DissimilarityMatrix(d, (label, "x01")))
            assert dendrogram_to_newick(dg) == f"('{label}':0.4,x01:0.4);"


class TestValidation:
    def test_asymmetry_rejected(self):
        # The second differs by 1e-7, within numpy's default rtol.
        for d in (
            [[0.0, 0.2], [0.3, 0.0]],
            [[0.0, 0.3, 0.5], [0.3000001, 0.0, 0.5], [0.5, 0.5, 0.0]],
        ):
            with pytest.raises(ClusteringError, match="symmetric"):
                DissimilarityMatrix(np.array(d), labels_for(len(d)))

    def test_nonzero_diagonal_rejected(self):
        d = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ClusteringError):
            DissimilarityMatrix(d, labels_for(2))

    def test_out_of_range_rejected(self):
        d = np.array([[0.0, 1.2], [1.2, 0.0]])
        with pytest.raises(ClusteringError):
            DissimilarityMatrix(d, labels_for(2))

    def test_dendrogram_requires_monotone_heights(self):
        with pytest.raises(ClusteringError):
            Dendrogram(
                merges=np.array([[0, 1], [2, 3]]),
                heights=np.array([0.5, 0.2]),
                first_merge=np.array([0.5, 0.5, 0.2]),
                labels=("a", "b", "c"),
                agglomerative_coefficient=0.5,
            )
