"""NSGA-II (Deb, Pratap, Agarwal, Meyarivan — TEVC 2002).

The paper's resource share analyzer "uses NSGA-II algorithm [8] to
efficiently search the provisioning plan space" (Sec. 3.2). This is a
from-scratch implementation of the full algorithm:

* fast non-dominated sorting (dominance-matrix variant);
* crowding-distance diversity preservation;
* binary tournament selection under Deb's *constrained-dominance*
  rule (feasible beats infeasible; two infeasibles compare by total
  violation; two feasibles by rank, then crowding) over two *distinct*
  entrants per tournament;
* simulated binary crossover (SBX) and polynomial mutation, with
  bound repair and integer rounding for discrete resource counts.

The evolutionary loop is **batched**: every generation draws all of
its random numbers up front (see :meth:`NSGA2._draw_generation` for
the pinned call pattern) and then applies the variation operators and
the non-dominated sort either as numpy matrix operations
(``vectorized=True``, the default) or as per-individual Python loops
over the *same* pre-drawn numbers (``vectorized=False``). Both paths
perform identical elementwise arithmetic, so the same seed yields the
same Pareto front either way — the equivalence test suite pins this.

RNG call pattern (changing this invalidates seeded results):

1. initial population — per decision variable ``d``:
   ``uniform(0, 1, pop)`` then ``shuffle`` of the stratified column;
2. per generation, in order:
   a. ``integers(0, n, pop)``      — first tournament entrant per slot;
   b. ``integers(0, n - 1, pop)``  — second entrant, shifted past the
      first so the two are always distinct (Deb's binary tournament);
   c. ``random(pop)``              — tournament tie-break coins;
   d. ``random(pop // 2)``         — SBX per-pair crossover gates;
   e. ``random((pop // 2, n_var))``— SBX per-variable apply draws;
   f. ``random((pop // 2, n_var))``— SBX beta spread draws;
   g. ``random((pop, n_var))``     — mutation apply draws;
   h. ``random((pop, n_var))``     — mutation delta draws.

Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.errors import OptimizationError
from repro.optimization.problem import Problem


@dataclass
class Individual:
    """One candidate solution with its evaluation and NSGA-II metadata."""

    x: np.ndarray
    f: np.ndarray
    violation: float
    rank: int = 0
    crowding: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.violation == 0.0


@dataclass(frozen=True)
class NSGA2Config:
    """Algorithm hyper-parameters (defaults follow Deb et al.)."""

    population_size: int = 100
    generations: int = 250
    crossover_probability: float = 0.9
    crossover_eta: float = 15.0
    mutation_probability: float | None = None  # default 1/n_var
    mutation_eta: float = 20.0

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise OptimizationError("population_size must be an even number >= 4")
        if self.generations < 1:
            raise OptimizationError("generations must be >= 1")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise OptimizationError("crossover_probability must be in [0, 1]")
        if self.mutation_probability is not None and not 0.0 <= self.mutation_probability <= 1.0:
            raise OptimizationError("mutation_probability must be in [0, 1]")
        if self.crossover_eta <= 0 or self.mutation_eta <= 0:
            raise OptimizationError("distribution indices must be positive")


@dataclass
class NSGA2Result:
    """Final population plus the feasible first front."""

    population: list[Individual]
    generations_run: int
    evaluations: int

    @property
    def front(self) -> list[Individual]:
        """Feasible, rank-0, objective-unique individuals."""
        seen: set[tuple[float, ...]] = set()
        front: list[Individual] = []
        for ind in self.population:
            if ind.rank != 0 or not ind.feasible:
                continue
            key = tuple(np.round(ind.f, 12))
            if key in seen:
                continue
            seen.add(key)
            front.append(ind)
        return front

    @property
    def pareto_x(self) -> np.ndarray:
        front = self.front
        return np.array([ind.x for ind in front]) if front else np.empty((0, 0))

    @property
    def pareto_f(self) -> np.ndarray:
        front = self.front
        return np.array([ind.f for ind in front]) if front else np.empty((0, 0))


def constrained_dominates(a: Individual, b: Individual) -> bool:
    """Deb's constrained-dominance relation."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if not a.feasible and not b.feasible:
        return a.violation < b.violation
    return bool(np.all(a.f <= b.f) and np.any(a.f < b.f))


def fast_non_dominated_sort(population: list[Individual]) -> list[list[int]]:
    """Assign ranks in place; return the fronts as index lists."""
    n = len(population)
    dominated_by: list[list[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: list[list[int]] = [[]]
    for i in range(n):
        for j in range(i + 1, n):
            if constrained_dominates(population[i], population[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif constrained_dominates(population[j], population[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            population[i].rank = 0
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: list[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    population[j].rank = current + 1
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # trailing empty front
    return fronts


def crowding_distance(population: list[Individual], front: list[int]) -> None:
    """Assign crowding distances in place for one front."""
    size = len(front)
    for i in front:
        population[i].crowding = 0.0
    if size <= 2:
        for i in front:
            population[i].crowding = np.inf
        return
    n_obj = len(population[front[0]].f)
    for m in range(n_obj):
        ordered = sorted(front, key=lambda i: population[i].f[m])
        low = population[ordered[0]].f[m]
        high = population[ordered[-1]].f[m]
        population[ordered[0]].crowding = np.inf
        population[ordered[-1]].crowding = np.inf
        span = high - low
        if span == 0:
            continue
        for k in range(1, size - 1):
            gap = population[ordered[k + 1]].f[m] - population[ordered[k - 1]].f[m]
            population[ordered[k]].crowding += gap / span


def dominance_matrix(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Boolean matrix ``D[i, j]`` = "i constrained-dominates j".

    ``F`` is the ``(n, n_obj)`` objective matrix, ``V`` the ``(n,)``
    total-violation vector (0 means feasible).
    """
    feasible = V == 0.0
    less_eq = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    less = np.any(F[:, None, :] < F[None, :, :], axis=2)
    pareto = less_eq & less
    fi = feasible[:, None]
    fj = feasible[None, :]
    by_violation = V[:, None] < V[None, :]
    dom = np.where(fi & fj, pareto, np.where(fi & ~fj, True, np.where(~fi & fj, False, by_violation)))
    np.fill_diagonal(dom, False)
    return dom


class _GenerationDraws(NamedTuple):
    """One generation's pre-drawn random numbers (see module docstring)."""

    entrant_a: np.ndarray  # (pop,) first tournament entrant
    entrant_b: np.ndarray  # (pop,) second entrant, distinct from the first
    tie: np.ndarray        # (pop,) tournament tie-break coins
    sbx_gate: np.ndarray   # (pop // 2,) per-pair crossover gates
    sbx_apply: np.ndarray  # (pop // 2, n_var) per-variable apply draws
    sbx_u: np.ndarray      # (pop // 2, n_var) beta spread draws
    mut_apply: np.ndarray  # (pop, n_var) mutation apply draws
    mut_u: np.ndarray      # (pop, n_var) mutation delta draws


class NSGA2:
    """The evolutionary loop (batched; vectorized by default)."""

    def __init__(
        self,
        problem: Problem,
        config: NSGA2Config | None = None,
        seed: int = 0,
        vectorized: bool = True,
    ) -> None:
        if seed < 0:
            raise OptimizationError(f"seed must be a non-negative integer, got {seed}")
        self.problem = problem
        self.config = config or NSGA2Config()
        self.vectorized = bool(vectorized)
        self._rng = np.random.default_rng(seed)
        self._evaluations = 0
        mutation_p = self.config.mutation_probability
        self._mutation_p = mutation_p if mutation_p is not None else 1.0 / problem.n_var

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> NSGA2Result:
        X, F, V = self._evaluate(self._initial_samples())
        rank, crowd = self._rank(F, V)
        for _generation in range(self.config.generations):
            draws = self._draw_generation(len(X))
            parents = self._select_parents(rank, crowd, draws)
            children = self._variation(X[parents], draws)
            Xo, Fo, Vo = self._evaluate(children)
            X, F, V, rank, crowd = self._environmental_selection(
                np.vstack([X, Xo]), np.vstack([F, Fo]), np.concatenate([V, Vo])
            )
        population = [
            Individual(
                x=X[i].copy(),
                f=F[i].copy(),
                violation=float(V[i]),
                rank=int(rank[i]),
                crowding=float(crowd[i]),
            )
            for i in range(len(X))
        ]
        return NSGA2Result(
            population=population,
            generations_run=self.config.generations,
            evaluations=self._evaluations,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Repair and evaluate a whole batch; returns ``(X, F, V)``."""
        X = self.problem.repair(np.asarray(X, dtype=float))
        F, violations = self.problem.evaluate_batch(X)
        F = np.asarray(F, dtype=float)
        violations = np.asarray(violations, dtype=float)
        if F.shape != (len(X), self.problem.n_obj):
            raise OptimizationError(
                f"problem returned {F.shape} objectives, expected ({len(X)}, {self.problem.n_obj})"
            )
        if violations.ndim != 2 or len(violations) != len(X):
            raise OptimizationError(
                f"violations must be ({len(X)}, n_con), got shape {violations.shape}"
            )
        self._evaluations += len(X)
        return X, F, violations.sum(axis=1)

    def _initial_samples(self) -> np.ndarray:
        lower, upper = self.problem.lower, self.problem.upper
        size = self.config.population_size
        # Latin-hypercube style stratified start for better coverage.
        samples = np.empty((size, self.problem.n_var))
        for d in range(self.problem.n_var):
            strata = (np.arange(size) + self._rng.uniform(0, 1, size)) / size
            self._rng.shuffle(strata)
            samples[:, d] = lower[d] + strata * (upper[d] - lower[d])
        return samples

    # ------------------------------------------------------------------
    # Sorting, crowding, ranking
    # ------------------------------------------------------------------
    def _fronts(self, F: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
        """Non-dominated fronts as ascending index arrays."""
        if self.vectorized:
            return self._fronts_vectorized(F, V)
        return self._fronts_scalar(F, V)

    @staticmethod
    def _fronts_vectorized(F: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
        dom = dominance_matrix(F, V)
        remaining = dom.sum(axis=0)
        assigned = np.zeros(len(F), dtype=bool)
        fronts: list[np.ndarray] = []
        while not assigned.all():
            front = np.where((remaining == 0) & ~assigned)[0]
            fronts.append(front)
            assigned[front] = True
            remaining = remaining - dom[front].sum(axis=0)
        return fronts

    @staticmethod
    def _dominates_scalar(fi: np.ndarray, vi: float, fj: np.ndarray, vj: float) -> bool:
        if vi == 0.0 and vj != 0.0:
            return True
        if vi != 0.0 and vj == 0.0:
            return False
        if vi != 0.0:
            return vi < vj
        return bool(np.all(fi <= fj) and np.any(fi < fj))

    def _fronts_scalar(self, F: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
        n = len(F)
        dominated_by: list[list[int]] = [[] for _ in range(n)]
        remaining = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and self._dominates_scalar(F[i], V[i], F[j], V[j]):
                    dominated_by[i].append(j)
                    remaining[j] += 1
        assigned = [False] * n
        fronts: list[np.ndarray] = []
        while not all(assigned):
            front = [i for i in range(n) if not assigned[i] and remaining[i] == 0]
            for i in front:
                assigned[i] = True
            for i in front:
                for j in dominated_by[i]:
                    remaining[j] -= 1
            fronts.append(np.array(front, dtype=int))
        return fronts

    def _crowding(self, F: np.ndarray, front: np.ndarray) -> np.ndarray:
        """Crowding distances for one front (aligned with ``front``)."""
        size = len(front)
        if size <= 2:
            return np.full(size, np.inf)
        if self.vectorized:
            return self._crowding_vectorized(F, front)
        return self._crowding_scalar(F, front)

    def _crowding_vectorized(self, F: np.ndarray, front: np.ndarray) -> np.ndarray:
        crowd = np.zeros(len(front))
        for m in range(self.problem.n_obj):
            order = np.argsort(F[front, m], kind="stable")
            vals = F[front[order], m]
            crowd[order[0]] = np.inf
            crowd[order[-1]] = np.inf
            span = vals[-1] - vals[0]
            if span == 0:
                continue
            crowd[order[1:-1]] += (vals[2:] - vals[:-2]) / span
        return crowd

    def _crowding_scalar(self, F: np.ndarray, front: np.ndarray) -> np.ndarray:
        size = len(front)
        crowd = np.zeros(size)
        for m in range(self.problem.n_obj):
            order = sorted(range(size), key=lambda k: F[front[k], m])
            vals = [F[front[k], m] for k in order]
            crowd[order[0]] = np.inf
            crowd[order[-1]] = np.inf
            span = vals[-1] - vals[0]
            if span == 0:
                continue
            for k in range(1, size - 1):
                crowd[order[k]] += (vals[k + 1] - vals[k - 1]) / span
        return crowd

    def _rank(self, F: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fronts = self._fronts(F, V)
        rank = np.empty(len(F), dtype=int)
        crowd = np.empty(len(F), dtype=float)
        for r, front in enumerate(fronts):
            rank[front] = r
            crowd[front] = self._crowding(F, front)
        return rank, crowd

    # ------------------------------------------------------------------
    # Selection and variation
    # ------------------------------------------------------------------
    def _draw_generation(self, n: int) -> _GenerationDraws:
        """All random numbers for one generation, in the pinned order."""
        pop = self.config.population_size
        n_var = self.problem.n_var
        entrant_a = self._rng.integers(0, n, size=pop)
        entrant_b = self._rng.integers(0, n - 1, size=pop)
        entrant_b = entrant_b + (entrant_b >= entrant_a)  # skip a: always distinct
        return _GenerationDraws(
            entrant_a=entrant_a,
            entrant_b=entrant_b,
            tie=self._rng.random(pop),
            sbx_gate=self._rng.random(pop // 2),
            sbx_apply=self._rng.random((pop // 2, n_var)),
            sbx_u=self._rng.random((pop // 2, n_var)),
            mut_apply=self._rng.random((pop, n_var)),
            mut_u=self._rng.random((pop, n_var)),
        )

    def _select_parents(
        self, rank: np.ndarray, crowd: np.ndarray, draws: _GenerationDraws
    ) -> np.ndarray:
        """Binary tournaments: lower rank wins, then higher crowding, then coin.

        Within a ranked population constrained dominance implies a lower
        rank, so comparing ``(rank, -crowding)`` reproduces Deb's
        dominance-first tournament exactly.
        """
        a, b = draws.entrant_a, draws.entrant_b
        if self.vectorized:
            a_wins = (rank[a] < rank[b]) | ((rank[a] == rank[b]) & (crowd[a] > crowd[b]))
            tied = (rank[a] == rank[b]) & (crowd[a] == crowd[b])
            return np.where(a_wins | (tied & (draws.tie < 0.5)), a, b)
        winners = np.empty(len(a), dtype=int)
        for k in range(len(a)):
            i, j = int(a[k]), int(b[k])
            if rank[i] != rank[j]:
                winners[k] = i if rank[i] < rank[j] else j
            elif crowd[i] != crowd[j]:
                winners[k] = i if crowd[i] > crowd[j] else j
            else:
                winners[k] = i if draws.tie[k] < 0.5 else j
        return winners

    def _operator_tables(self, draws: _GenerationDraws) -> tuple[np.ndarray, np.ndarray]:
        """SBX ``beta`` and mutation ``delta`` tables from the raw draws.

        Always computed in matrix form: ``x ** y`` can differ by one ULP
        between numpy's scalar and SIMD code paths, so deriving the
        transcendental tables once and sharing them keeps the scalar and
        vectorized operator applications bit-identical.
        """
        u = draws.sbx_u
        exponent = 1.0 / (self.config.crossover_eta + 1.0)
        beta = np.where(
            u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 * (1.0 - u))) ** exponent
        )
        mu = draws.mut_u
        m_exponent = 1.0 / (self.config.mutation_eta + 1.0)
        delta = np.where(
            mu < 0.5,
            (2.0 * mu) ** m_exponent - 1.0,
            1.0 - (2.0 * (1.0 - mu)) ** m_exponent,
        )
        return beta, delta

    def _variation(self, parents: np.ndarray, draws: _GenerationDraws) -> np.ndarray:
        """SBX crossover on consecutive parent pairs, then polynomial mutation."""
        beta, delta = self._operator_tables(draws)
        if self.vectorized:
            return self._variation_vectorized(parents, draws, beta, delta)
        return self._variation_scalar(parents, draws, beta, delta)

    def _variation_vectorized(
        self,
        parents: np.ndarray,
        draws: _GenerationDraws,
        beta: np.ndarray,
        delta: np.ndarray,
    ) -> np.ndarray:
        pop, n_var = parents.shape
        x1, x2 = parents[0::2], parents[1::2]
        apply = (
            (draws.sbx_gate <= self.config.crossover_probability)[:, None]
            & (draws.sbx_apply <= 0.5)
            & (np.abs(x1 - x2) >= 1e-14)
        )
        y1, y2 = np.minimum(x1, x2), np.maximum(x1, x2)
        c1 = 0.5 * ((y1 + y2) - beta * (y2 - y1))
        c2 = 0.5 * ((y1 + y2) + beta * (y2 - y1))
        children = np.empty((pop, n_var))
        children[0::2] = np.where(apply, c1, x1)
        children[1::2] = np.where(apply, c2, x2)
        # Polynomial mutation over the whole offspring batch.
        span = self.problem.upper - self.problem.lower
        mutate = (draws.mut_apply <= self._mutation_p) & (span > 0)
        return np.where(mutate, children + delta * span, children)

    def _variation_scalar(
        self,
        parents: np.ndarray,
        draws: _GenerationDraws,
        beta: np.ndarray,
        delta: np.ndarray,
    ) -> np.ndarray:
        pop, n_var = parents.shape
        children = parents.copy()
        for p in range(pop // 2):
            x1, x2 = parents[2 * p], parents[2 * p + 1]
            if draws.sbx_gate[p] > self.config.crossover_probability:
                continue
            for d in range(n_var):
                if draws.sbx_apply[p, d] > 0.5 or abs(x1[d] - x2[d]) < 1e-14:
                    continue
                y1, y2 = np.minimum(x1[d], x2[d]), np.maximum(x1[d], x2[d])
                b = beta[p, d]
                children[2 * p, d] = 0.5 * ((y1 + y2) - b * (y2 - y1))
                children[2 * p + 1, d] = 0.5 * ((y1 + y2) + b * (y2 - y1))
        span = self.problem.upper - self.problem.lower
        for i in range(pop):
            for d in range(n_var):
                if draws.mut_apply[i, d] > self._mutation_p or span[d] <= 0:
                    continue
                children[i, d] = children[i, d] + delta[i, d] * span[d]
        return children

    # ------------------------------------------------------------------
    # Environmental selection
    # ------------------------------------------------------------------
    def _environmental_selection(
        self, X: np.ndarray, F: np.ndarray, V: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        fronts = self._fronts(F, V)
        target = self.config.population_size
        selected: list[int] = []
        for front in fronts:
            if len(selected) + len(front) <= target:
                selected.extend(front.tolist())
                continue
            crowd_front = self._crowding(F, front)
            remaining = target - len(selected)
            if self.vectorized:
                order = np.argsort(-crowd_front, kind="stable")[:remaining]
            else:
                order = sorted(
                    range(len(front)), key=lambda k: crowd_front[k], reverse=True
                )[:remaining]
            selected.extend(front[np.asarray(order, dtype=int)].tolist())
            break
        idx = np.asarray(selected, dtype=int)
        Xs, Fs, Vs = X[idx], F[idx], V[idx]
        # Re-rank the survivor set so ranks/crowding reflect the new population.
        rank, crowd = self._rank(Fs, Vs)
        return Xs, Fs, Vs, rank, crowd
