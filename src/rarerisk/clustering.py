"""Predictor clustering: Gower dissimilarity over binary columns plus
unweighted average-linkage (UPGMA) agglomerative clustering.

Both 0 and 1 carry meaning for these indicators, so predictors are treated
as binary symmetric attributes and the Gower coefficient reduces to simple
matching distance: the fraction of population members on which two
predictor columns disagree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import PredictorSchema
from .errors import ClusteringError
from .genetic import Population

__all__ = [
    "DissimilarityMatrix",
    "Dendrogram",
    "gower_binary_dissimilarity",
    "agnes_average_linkage",
    "agglomerative_coefficient",
    "cut_clusters",
    "dendrogram_to_newick",
]

# Distances this close to a step's minimum are treated as exact ties.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric p x p distances in [0, 1] with a zero diagonal."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        d = np.asarray(self.values, np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ClusteringError("dissimilarity matrix must be square")
        if d.shape[0] < 2:
            raise ClusteringError("need at least two objects to cluster")
        if not np.allclose(d, d.T, atol=0.0):
            raise ClusteringError("dissimilarity matrix must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ClusteringError("diagonal must be exactly zero")
        if d.min() < 0.0 or d.max() > 1.0:
            raise ClusteringError("entries must lie in [0, 1]")
        if len(self.labels) != d.shape[0]:
            raise ClusteringError("one label per object required")
        d = np.ascontiguousarray(d)
        d.flags.writeable = False
        object.__setattr__(self, "values", d)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def p(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Dendrogram:
    """Merge history of agglomerative clustering.

    Cluster ids follow the usual convention: 0..p-1 are the original
    objects and merge k creates cluster p+k. merges is a (p-1, 2) int
    array of the two cluster ids joined at heights[k]. first_merge[i] is
    the height at which object i is first absorbed into a cluster.
    """

    merges: np.ndarray
    heights: np.ndarray
    first_merge: np.ndarray
    labels: tuple[str, ...]
    agglomerative_coefficient: float

    def __post_init__(self):
        object.__setattr__(self, "merges", np.asarray(self.merges, np.int64))
        object.__setattr__(self, "heights", np.asarray(self.heights, np.float64))
        object.__setattr__(
            self, "first_merge", np.asarray(self.first_merge, np.float64)
        )
        object.__setattr__(self, "labels", tuple(self.labels))
        p = len(self.labels)
        if self.merges.shape != (p - 1, 2) or len(self.heights) != p - 1:
            raise ClusteringError("a dendrogram over p objects has p-1 merges")
        if np.any(np.diff(self.heights) < 0):
            raise ClusteringError("merge heights must be non-decreasing")

    @property
    def p(self) -> int:
        return len(self.labels)

    @property
    def normalized_heights(self) -> np.ndarray:
        """Heights divided by the final merge height (all zero if flat)."""
        top = self.heights[-1]
        if top <= 0.0:
            return np.zeros_like(self.heights)
        return self.heights / top


def gower_binary_dissimilarity(pop: Population) -> DissimilarityMatrix:
    """Pairwise disagreement rates between predictor columns.

    d(j, k) = (#members where gene_j != gene_k) / pop_size, the Gower
    dissimilarity for binary symmetric attributes.
    """
    if pop.p < 2:
        raise ClusteringError("need at least two predictors")
    X = pop.members.astype(np.float64)
    m = pop.size
    mism = X.T @ (1.0 - X)
    d = (mism + mism.T) / m
    np.fill_diagonal(d, 0.0)
    return DissimilarityMatrix(d, PredictorSchema.default(pop.p).names)


def agnes_average_linkage(
    d: DissimilarityMatrix, labels: Sequence[str] | None = None
) -> Dendrogram:
    """Agglomerative clustering with unweighted average linkage.

    The distance between clusters is the mean dissimilarity over all
    cross-cluster object pairs, maintained with the Lance-Williams update.
    At every step the minimum-distance active pair is merged. Distances
    within 1e-12 of the step minimum count as tied and the tie breaks
    toward the lexicographically smallest (id_i, id_j); the band makes the
    tie-break independent of the float path used to compute equal means.
    """
    p = d.p
    labels = tuple(labels) if labels is not None else d.labels
    if len(labels) != p:
        raise ClusteringError("label count must match matrix size")

    work = np.array(d.values)
    np.fill_diagonal(work, np.inf)
    cluster_id = list(range(p))  # id of the active cluster in each slot
    size = [1] * p
    active = [True] * p

    merges = np.empty((p - 1, 2), dtype=np.int64)
    heights = np.empty(p - 1)
    first_merge = np.full(p, np.nan)
    leaf_sets: list[list[int]] = [[i] for i in range(p)]

    for step in range(p - 1):
        slots = [s for s in range(p) if active[s]]
        dmin = min(work[a, b] for i, a in enumerate(slots) for b in slots[i + 1:])
        best = None  # (id_a, id_b) among pairs tied with the minimum
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                if work[a, b] > dmin + TIE_TOL:
                    continue
                ia, ib = cluster_id[a], cluster_id[b]
                key = (min(ia, ib), max(ia, ib))
                if best is None or key < best:
                    best = key
                    slot_a, slot_b = a, b
                    height = float(work[a, b])
        ida, idb = best
        merges[step] = (ida, idb)
        heights[step] = height
        for leaf in leaf_sets[slot_a] + leaf_sets[slot_b]:
            if math.isnan(first_merge[leaf]):
                first_merge[leaf] = height

        # Lance-Williams update for UPGMA: size-weighted mean of the two
        # merged clusters' distances to every other active cluster.
        na, nb = size[slot_a], size[slot_b]
        for c in range(p):
            if c in (slot_a, slot_b) or not active[c]:
                continue
            work[slot_a, c] = work[c, slot_a] = (
                na * work[slot_a, c] + nb * work[slot_b, c]
            ) / (na + nb)
        active[slot_b] = False
        work[slot_b, :] = np.inf
        work[:, slot_b] = np.inf
        size[slot_a] = na + nb
        cluster_id[slot_a] = p + step
        leaf_sets[slot_a] = leaf_sets[slot_a] + leaf_sets[slot_b]

    heights = np.maximum.accumulate(heights)  # guard float jitter on ties
    ac = _coefficient_from_heights(first_merge, heights[-1])
    return Dendrogram(merges, heights, first_merge, labels, ac)


def _coefficient_from_heights(first_merge: np.ndarray, top: float) -> float:
    if top <= 0.0:
        warnings.warn(
            "all merge heights are zero (identical objects); coefficient "
            "defined as 1",
            RuntimeWarning,
            stacklevel=3,
        )
        return 1.0
    return float(np.mean(1.0 - first_merge / top))


def agglomerative_coefficient(dg: Dendrogram) -> float:
    """Mean over objects of 1 - (first-merge height / final height).

    Close to 1 when objects join tight clusters long before the final
    merge; degenerate all-zero dendrograms are defined as 1.
    """
    return _coefficient_from_heights(dg.first_merge, float(dg.heights[-1]))


def cut_clusters(
    dg: Dendrogram, k: int | None = None, height: float | None = None
) -> list[list[int]]:
    """Partition of object indices induced by stopping the merges.

    Give exactly one of k (number of clusters) or height (apply all merges
    with height <= the cut). Clusters are ordered by their smallest member.
    """
    if (k is None) == (height is None):
        raise ClusteringError("give exactly one of k or height")
    p = dg.p
    if k is not None:
        if not 1 <= k <= p:
            raise ClusteringError(f"k must lie in [1, {p}], got {k}")
        n_merges = p - k
    else:
        if height < 0:
            raise ClusteringError("height must be non-negative")
        n_merges = int(np.sum(dg.heights <= height))

    sets: dict[int, list[int]] = {i: [i] for i in range(p)}
    for step in range(n_merges):
        a, b = dg.merges[step]
        sets[p + step] = sets.pop(int(a)) + sets.pop(int(b))
    return sorted((sorted(v) for v in sets.values()), key=lambda s: s[0])


def dendrogram_to_newick(dg: Dendrogram) -> str:
    """Newick string with branch lengths from merge heights."""
    height_of: dict[int, float] = {i: 0.0 for i in range(dg.p)}
    text: dict[int, str] = {
        i: _escape_newick(lbl) for i, lbl in enumerate(dg.labels)
    }
    for step, (a, b) in enumerate(dg.merges):
        h = float(dg.heights[step])
        parts = []
        for child in (int(a), int(b)):
            branch = h - height_of[child]
            parts.append(f"{text[child]}:{branch:.10g}")
        node = dg.p + step
        text[node] = "(" + ",".join(parts) + ")"
        height_of[node] = h
    return text[dg.p + len(dg.merges) - 1] + ";"


def _escape_newick(label: str) -> str:
    if any(ch in label for ch in "(),:;' \t"):
        return "'" + label.replace("'", "''") + "'"
    return label
