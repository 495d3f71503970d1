"""Per-flow resource share analysis for a multi-flow region.

The single-flow share analyzer (``share_analyzer.py``) answers Eq. 3–5
for one flow's three layers against one budget. A region fleet faces
the generalized question: *N* flows share one budget **and** one set of
account limits (total instances, total shards, total provisioned
throughput), so the shares must be arbitrated *across flows*, not
derived per-flow in isolation.

This module casts that as the natural NSGA-II generalization:

* decision vector: ``3N`` variables — each flow's (ingestion,
  analytics, storage) allocation, in ``FLEET_LAYER_ORDER`` per flow;
* objectives: ``N`` — maximize each flow's *worst* normalized layer
  share (the "balanced" reading of Eq. 3 applied per tenant), so the
  Pareto front spans the fairness trade-offs between flows;
* constraints: the region budget (Eq. 4 summed over flows), one
  account-limit row per resource kind (Σ shards, Σ instances,
  Σ write units across flows), and each flow's own Eq. 5 dependency
  bands mapped onto its variable block.

The scalar/vectorized bit-equivalence contract of the optimizer is
preserved the same way ``_ShareProblem`` preserves it: objectives and
constraints are elementwise/broadcast-and-sum expressions, never BLAS
matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.pricing import PriceBook
from repro.cloud.region import LAYER_RESOURCE, RegionLimits
from repro.core.errors import OptimizationError
from repro.core.flow import FlowSpec, LayerKind
from repro.optimization.nsga2 import NSGA2, NSGA2Config
from repro.optimization.problem import Problem
from repro.optimization.share_analyzer import LAYER_ORDER, ResourceShare, ShareConstraint

#: Per-flow variable block order (same as the single-flow analyzer).
FLEET_LAYER_ORDER = LAYER_ORDER


@dataclass(frozen=True)
class FlowShareSpec:
    """One flow's inputs to the fleet-wide share analysis."""

    flow_id: str
    flow: FlowSpec
    constraints: tuple[ShareConstraint, ...] = ()
    #: Relative importance in pick strategies that weight flows.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.flow_id:
            raise OptimizationError("flow_id must be non-empty")
        if self.weight <= 0:
            raise OptimizationError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class FleetShare:
    """One Pareto-optimal fleet allocation: a share per flow."""

    shares: tuple[tuple[str, ResourceShare], ...]
    hourly_cost: float

    def __getitem__(self, flow_id: str) -> ResourceShare:
        for fid, share in self.shares:
            if fid == flow_id:
                return share
        raise OptimizationError(f"no share for flow {flow_id!r}")

    def as_dict(self) -> dict[str, ResourceShare]:
        return dict(self.shares)

    def __str__(self) -> str:
        parts = ", ".join(f"{fid}:[{share}]" for fid, share in self.shares)
        return f"{parts} (${self.hourly_cost:.3f}/h total)"


@dataclass
class FleetShareAnalysisResult:
    """The Pareto set of fleet allocations for one budget window."""

    solutions: list[FleetShare]
    budget_per_hour: float
    specs: tuple[FlowShareSpec, ...]
    evaluations: int = 0
    _rng_seed: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return len(self.solutions)

    def pick(self, strategy: str = "balanced", seed: int | None = None) -> FleetShare:
        """Select one fleet allocation from the front.

        Strategies: ``balanced`` (maximize the worst flow's worst
        normalized layer share — the fairest front point), ``random``,
        ``cheapest``, ``max:<flow_id>`` (favor one flow's worst layer).
        """
        if not self.solutions:
            raise OptimizationError("no feasible fleet allocations to pick from")
        if strategy == "random":
            rng = np.random.default_rng(self._rng_seed if seed is None else seed)
            return self.solutions[int(rng.integers(0, len(self.solutions)))]
        if strategy == "cheapest":
            return min(self.solutions, key=lambda s: s.hourly_cost)
        if strategy == "balanced":
            return max(self.solutions, key=self._worst_flow_score)
        if strategy.startswith("max:"):
            flow_id = strategy[4:]
            if flow_id not in {spec.flow_id for spec in self.specs}:
                raise OptimizationError(f"unknown flow in strategy {strategy!r}")
            return max(self.solutions, key=lambda s: self._flow_score(s, flow_id))
        raise OptimizationError(f"unknown strategy {strategy!r}")

    def _flow_score(self, solution: FleetShare, flow_id: str) -> float:
        spec = next(spec for spec in self.specs if spec.flow_id == flow_id)
        share = solution[flow_id]
        return min(
            share[kind] / spec.flow.layer(kind).max_units for kind in FLEET_LAYER_ORDER
        )

    def _worst_flow_score(self, solution: FleetShare) -> float:
        return min(self._flow_score(solution, spec.flow_id) for spec in self.specs)


class _FleetShareProblem(Problem):
    """Eq. 3–5 over N flow blocks plus shared account-limit rows."""

    def __init__(
        self,
        specs: tuple[FlowShareSpec, ...],
        book: PriceBook,
        limits: RegionLimits,
        budget_per_hour: float,
    ) -> None:
        n = len(specs)
        lower: list[float] = []
        upper: list[float] = []
        rates: list[float] = []
        scales: list[float] = []
        for spec in specs:
            for kind in FLEET_LAYER_ORDER:
                layer = spec.flow.layer(kind)
                limit = limits.limit(LAYER_RESOURCE[kind])
                lower.append(float(layer.min_units))
                upper.append(float(min(layer.max_units, limit)))
                rates.append(book.price(layer.resource).hourly)
                scales.append(float(layer.max_units))
        super().__init__(n_var=3 * n, n_obj=n, lower=lower, upper=upper, integer=True)
        self._n_flows = n
        self._rates = np.array(rates)
        self._scales = np.array(scales).reshape(n, 3)
        # Dense A x + b <= 0: row 0 the fleet budget (Eq. 4 summed over
        # flows), one row per account limit, then each flow's own
        # constraints mapped onto its variable block.
        rows = [self._rates]
        consts = [-float(budget_per_hour)]
        for d, kind in enumerate(FLEET_LAYER_ORDER):
            row = np.zeros(3 * n)
            row[d::3] = 1.0
            rows.append(row)
            consts.append(-float(limits.limit(LAYER_RESOURCE[kind])))
        for f, spec in enumerate(specs):
            for constraint in spec.constraints:
                row = np.zeros(3 * n)
                row[3 * f : 3 * f + 3] = constraint.coefficient_vector(FLEET_LAYER_ORDER)
                rows.append(row)
                consts.append(float(constraint.constant))
        self._A = np.vstack(rows)
        self._b = np.array(consts)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        objectives, violations = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return objectives[0], violations[0]

    def evaluate_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and violations for a population in matrix form.

        Objective f is ``-min_d x_fd / scale_fd`` (minimize the negated
        worst normalized layer share of flow f). Like the single-flow
        problem, constraints use broadcast-and-sum rather than ``X @
        A.T`` so scalar and batch evaluation agree bit-for-bit.
        """
        X = np.asarray(X, dtype=float)
        normalized = X.reshape(len(X), self._n_flows, 3) / self._scales
        objectives = -normalized.min(axis=2)
        violations = np.maximum(0.0, (X[:, None, :] * self._A).sum(axis=2) + self._b)
        return objectives, violations


class FleetShareAnalyzer:
    """Arbitrates resource shares across a region's flows (Eq. 3–5 × N)."""

    def __init__(
        self,
        specs: list[FlowShareSpec],
        limits: RegionLimits | None = None,
        price_book: PriceBook | None = None,
    ) -> None:
        if not specs:
            raise OptimizationError("need at least one flow spec")
        ids = [spec.flow_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise OptimizationError(f"flow ids must be unique, got {ids}")
        self.specs = tuple(specs)
        self.limits = limits or RegionLimits()
        self.price_book = price_book or PriceBook()

    def hourly_cost(self, shares: dict[str, dict[LayerKind, float]]) -> float:
        """Eq. 4's left-hand side summed over all flows."""
        total = 0.0
        for spec in self.specs:
            for kind in FLEET_LAYER_ORDER:
                layer = spec.flow.layer(kind)
                total += self.price_book.hourly_rate(
                    layer.resource, shares[spec.flow_id][kind]
                )
        return total

    def analyze(
        self,
        budget_per_hour: float,
        population_size: int = 100,
        generations: int = 250,
        seed: int = 0,
        vectorized: bool = True,
    ) -> FleetShareAnalysisResult:
        """Search the fleet provisioning space; return the Pareto front.

        Mirrors :meth:`ResourceShareAnalyzer.analyze`: solutions are
        de-duplicated on the integer allocation tuple and sorted for
        stable presentation; ``vectorized=False`` selects the scalar
        reference path (same seed, same front).
        """
        if budget_per_hour <= 0:
            raise OptimizationError(f"budget must be positive, got {budget_per_hour}")
        problem = _FleetShareProblem(
            self.specs, self.price_book, self.limits, budget_per_hour
        )
        optimizer = NSGA2(
            problem,
            NSGA2Config(population_size=population_size, generations=generations),
            seed=seed,
            vectorized=vectorized,
        )
        outcome = optimizer.run()
        unique: dict[tuple[int, ...], FleetShare] = {}
        for individual in outcome.front:
            units = tuple(int(round(v)) for v in individual.x)
            shares_by_flow: dict[str, dict[LayerKind, float]] = {}
            flow_shares: list[tuple[str, ResourceShare]] = []
            for f, spec in enumerate(self.specs):
                block = units[3 * f : 3 * f + 3]
                shares = dict(zip(FLEET_LAYER_ORDER, (float(u) for u in block)))
                shares_by_flow[spec.flow_id] = shares
                flow_cost = sum(
                    self.price_book.hourly_rate(
                        spec.flow.layer(kind).resource, shares[kind]
                    )
                    for kind in FLEET_LAYER_ORDER
                )
                flow_shares.append(
                    (
                        spec.flow_id,
                        ResourceShare(
                            shares=tuple(zip(FLEET_LAYER_ORDER, block)),
                            hourly_cost=flow_cost,
                        ),
                    )
                )
            unique[units] = FleetShare(
                shares=tuple(flow_shares),
                hourly_cost=self.hourly_cost(shares_by_flow),
            )
        solutions = sorted(unique.values(), key=lambda s: tuple(
            share[kind]
            for _fid, share in s.shares
            for kind in FLEET_LAYER_ORDER
        ))
        return FleetShareAnalysisResult(
            solutions=solutions,
            budget_per_hour=budget_per_hour,
            specs=self.specs,
            evaluations=outcome.evaluations,
            _rng_seed=seed,
        )
