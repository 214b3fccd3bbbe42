"""Genetic search over binary predictor profiles.

A chromosome is a length-p {0,1} vector. Selection is linear-rank
(scale-invariant, which suits probability-valued fitness crowding toward
1), reproduction is single-point crossover plus independent per-gene
mutation, and the fittest fraction of each generation is carried over
unchanged, which makes the best-fitness trace non-decreasing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._io import write_artifact
from .dataset import PredictorSchema
from .errors import GeneticError

__all__ = [
    "GaConfig",
    "Population",
    "GaTrace",
    "evolve",
    "mutate",
    "save_population_csv",
    "load_population_csv",
]

SELECTION_OPERATOR = "linear_rank"
REPLACEMENT_SCHEME = "generational_with_elitism"

FitnessFn = Callable[[np.ndarray], float]
BatchFitnessFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GaConfig:
    pop_size: int = 500
    generations: int = 100
    p_mutation: float = 0.10
    p_crossover: float = 0.80
    elitism_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 2:
            raise GeneticError("pop_size must be at least 2")
        if self.generations < 1:
            raise GeneticError("generations must be at least 1")
        for name in ("p_mutation", "p_crossover", "elitism_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise GeneticError(f"{name} must lie in [0, 1], got {v}")
        if 0 < self.elitism_fraction and self.n_elite < 1:
            raise GeneticError(
                "elitism_fraction too small: fewer than one elite per generation"
            )
        if self.seed < 0:
            raise GeneticError("seed must be a non-negative integer")

    @property
    def n_elite(self) -> int:
        return int(round(self.elitism_fraction * self.pop_size))


@dataclass(frozen=True)
class Population:
    """Fixed-size set of chromosomes with their cached fitness values."""

    members: np.ndarray  # (pop_size, p) uint8
    fitness: np.ndarray  # (pop_size,) float64

    def __post_init__(self):
        members = np.asarray(self.members, np.uint8)
        fitness = np.asarray(self.fitness, np.float64)
        if members.ndim != 2:
            raise GeneticError("members must be a 2-d matrix")
        if members.size and members.max() > 1:
            raise GeneticError("chromosome genes must be 0 or 1")
        if fitness.shape != (members.shape[0],):
            raise GeneticError("fitness must parallel members")
        members = np.ascontiguousarray(members)
        members.flags.writeable = False
        fitness = np.ascontiguousarray(fitness)
        fitness.flags.writeable = False
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "fitness", fitness)

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def p(self) -> int:
        return self.members.shape[1]


@dataclass(frozen=True)
class GaTrace:
    """Per-generation statistics plus the final population.

    Row 0 describes the initial random population; one row follows for
    each evolution step, so there are generations + 1 records in total.
    """

    best: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    final: Population
    config: GaConfig
    selection_operator: str = SELECTION_OPERATOR
    replacement_scheme: str = REPLACEMENT_SCHEME

    @property
    def n_generations(self) -> int:
        return len(self.best) - 1


def _rank_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Linear-rank selection weights: worst gets 1, best gets n."""
    n = len(fitness)
    order = np.argsort(fitness, kind="stable")
    weights = np.empty(n)
    weights[order] = np.arange(1, n + 1, dtype=np.float64)
    return weights / weights.sum()


def _breed(
    members: np.ndarray,
    parent_idx: np.ndarray,
    do_cross: np.ndarray,
    cuts: np.ndarray,
) -> np.ndarray:
    """Children of the parent pairs (parent_idx[2k], parent_idx[2k+1]).

    Where do_cross[k] holds, pair k's children are crossed at cuts[k]:
    each keeps its own parent's first cuts[k] genes and takes the other
    parent's genes after them. Otherwise both parents pass through
    unchanged.
    """
    a = members[parent_idx[0::2]]
    b = members[parent_idx[1::2]]
    keep = ~do_cross[:, None] | (np.arange(members.shape[1]) < cuts[:, None])
    children = np.empty((len(parent_idx),) + members.shape[1:], members.dtype)
    children[0::2] = np.where(keep, a, b)
    children[1::2] = np.where(keep, b, a)
    return children


def mutate(
    c: np.ndarray, p_mutation: float, rng: np.random.Generator
) -> np.ndarray:
    """Flip each gene independently with probability p_mutation."""
    c = np.asarray(c)
    flips = rng.random(c.shape) < p_mutation
    return np.where(flips, 1 - c, c).astype(c.dtype)


def _evaluate(
    batch_fitness: BatchFitnessFn,
    members: np.ndarray,
    out: np.ndarray,
    rows: np.ndarray,
) -> None:
    values = np.asarray(batch_fitness(members[rows]), np.float64)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise GeneticError(
            f"fitness returned non-finite value {float(values[k])!r} for "
            f"chromosome {members[rows[k]].tolist()}"
        )
    out[rows] = values


def evolve(
    fitness: FitnessFn | None,
    p: int,
    config: GaConfig,
    *,
    batch_fitness: BatchFitnessFn | None = None,
) -> GaTrace:
    """Run the genetic search and return the full trace.

    The initial population is uniform random. Each step: elites are copied
    unchanged, the rest of the next generation is bred by rank selection,
    single-point crossover (probability p_crossover, else the parents pass
    through) and per-gene mutation. Deterministic given config.seed.

    batch_fitness, when given, evaluates a whole (m, p) matrix at once and
    takes precedence over the per-chromosome callable.
    """
    if p < 1:
        raise GeneticError("chromosome length p must be at least 1")
    if batch_fitness is None:
        if fitness is None:
            raise GeneticError("a fitness function is required")

        def batch_fitness(members: np.ndarray) -> np.ndarray:
            return np.array([float(fitness(c)) for c in members])

    rng = np.random.default_rng(config.seed)
    n, n_elite = config.pop_size, config.n_elite

    members = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
    fit = np.empty(n)
    _evaluate(batch_fitness, members, fit, np.arange(n))

    best = [float(fit.max())]
    mean = [float(fit.mean())]
    median = [float(np.median(fit))]

    for _ in range(config.generations):
        probs = _rank_probabilities(fit)
        n_children = n - n_elite
        # Parents for the whole brood are drawn up front from one stream.
        parent_idx = rng.choice(n, size=(n_children + 1) // 2 * 2, p=probs)
        do_cross = rng.random(len(parent_idx) // 2) < config.p_crossover
        cuts = (
            rng.integers(1, p, size=len(do_cross))
            if p > 1
            else np.full(len(do_cross), p)
        )

        children = _breed(members, parent_idx, do_cross, cuts)
        children = mutate(children[:n_children], config.p_mutation, rng)

        # Highest-fitness members survive unchanged, fitness cached.
        elite_idx = np.argsort(fit, kind="stable")[::-1][:n_elite]
        new_members = np.vstack([members[elite_idx], children])
        new_fit = np.empty(n)
        new_fit[:n_elite] = fit[elite_idx]
        members = new_members
        fit = new_fit
        _evaluate(batch_fitness, members, fit, np.arange(n_elite, n))

        best.append(float(fit.max()))
        mean.append(float(fit.mean()))
        median.append(float(np.median(fit)))

    return GaTrace(
        best=np.array(best),
        mean=np.array(mean),
        median=np.array(median),
        final=Population(members, fit),
        config=config,
    )


def save_population_csv(
    pop: Population, path: str | Path, names: Sequence[str] | None = None
) -> None:
    """Write members plus a fitness column; reload is bit-identical."""
    if names is None:
        names = PredictorSchema.default(pop.p).names
    if len(names) != pop.p:
        raise GeneticError(f"need {pop.p} predictor names, got {len(names)}")
    with write_artifact(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["fitness"])
        for genes, fv in zip(pop.members, pop.fitness):
            writer.writerow([str(int(g)) for g in genes] + [repr(float(fv))])


def load_population_csv(path: str | Path) -> tuple[Population, list[str]]:
    """Inverse of save_population_csv; returns (population, names)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "fitness":
            raise GeneticError("population CSV must end with a fitness column")
        names = header[:-1]
        genes_rows, fitness = [], []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise GeneticError(
                    f"population CSV line {line} has {len(row)} cells, "
                    f"expected {len(header)}"
                )
            try:
                genes = [int(v) for v in row[:-1]]
                fitness.append(float(row[-1]))
            except ValueError as exc:
                raise GeneticError(
                    f"population CSV line {line}: {exc}"
                ) from None
            if bad := [g for g in genes if g not in (0, 1)]:
                raise GeneticError(f"population CSV line {line}: gene {bad[0]} is not 0 or 1")
            genes_rows.append(genes)
    if not genes_rows:
        raise GeneticError("population CSV has no members")
    pop = Population(
        np.array(genes_rows, np.uint8), np.array(fitness, np.float64)
    )
    return pop, names
