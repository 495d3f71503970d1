"""Running scenarios and gating the catalog's scorecard matrix.

:func:`run_scenario` compiles one :class:`~repro.scenarios.spec.Scenario`
into a managed run and condenses it to a
:class:`~repro.analysis.scorecard.RunScorecard` (scored against the
scenario's own SLO band, wall-clock fields zeroed so the card is a pure
function of the spec). :func:`run_catalog` fans a set of scenarios over
the deterministic process-parallel runner — results are byte-identical
at any ``jobs`` because every card is already machine-independent — and
folds them into a :class:`CatalogMatrix`: the committed
``results/SCORECARD_catalog.json`` artifact the CI ``gates`` job
diffs, per scenario and per field, against a fresh run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.analysis.runner import SweepCase, run_scenarios
from repro.analysis.scorecard import RunScorecard
from repro.core.errors import ConfigurationError
from repro.scenarios.spec import Scenario


def run_scenario(scenario: Scenario, *, fast: bool = False) -> RunScorecard:
    """Run one scenario and condense it into a deterministic scorecard.

    ``fast`` overrides the spec onto the approximate workload path; the
    card then carries ``exact=False`` and refuses to gate against exact
    baselines. Wall-clock fields are zeroed: same spec, same card bytes,
    on any machine at any parallelism.
    """
    manager = scenario.build_manager(exact=False if fast else None)
    result = manager.run(scenario.duration)
    card = RunScorecard.from_result(
        scenario.name, result,
        slo_band=scenario.slo.utilization_band, seed=scenario.seed,
    )
    return card.without_wall_clock()


def _run_catalog_entry(spec: dict, fast: bool) -> RunScorecard:
    """Module-level sweep worker (picklable by reference)."""
    return run_scenario(Scenario.from_dict(spec), fast=fast)


@dataclass(frozen=True)
class CatalogEntry:
    """One scenario's row in the matrix: its card plus the verdicts
    only the spec can compute (SLO tolerance, budget compliance)."""

    card: RunScorecard
    #: Worst per-layer SLO violation rate within the spec's tolerance.
    slo_ok: bool
    #: Cost within ``budget_usd_per_hour * hours``; None when the
    #: scenario declares no budget.
    within_budget: bool | None

    @classmethod
    def from_card(cls, scenario: Scenario, card: RunScorecard) -> "CatalogEntry":
        worst = max(card.slo_violation_pct.values(), default=0.0)
        budget = scenario.budget_usd_per_hour
        return cls(
            card=card,
            slo_ok=worst <= scenario.slo.max_violation_pct,
            within_budget=(
                None if budget is None
                else card.total_cost <= budget * card.duration_seconds / 3600.0
            ),
        )

    def to_dict(self) -> dict:
        return {
            "slo_ok": self.slo_ok,
            "within_budget": self.within_budget,
            "card": self.card.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CatalogEntry":
        return cls(
            card=RunScorecard.from_dict(data["card"]),
            slo_ok=bool(data.get("slo_ok", False)),
            within_budget=(
                None if data.get("within_budget") is None
                else bool(data["within_budget"])
            ),
        )


@dataclass(frozen=True)
class CatalogMatrix:
    """The per-scenario scorecard matrix: the catalog's regression gate.

    One :class:`CatalogEntry` per scenario, plus the variant and
    workload exactness the matrix was produced under. Serialises to the
    committed ``results/SCORECARD_catalog.json`` baseline, which the
    CLI gate diffs against a fresh matrix's ``to_dict()`` with
    :func:`~repro.analysis.scorecard.drift`, so a scenario added,
    removed, or renamed is drift, not silence.
    """

    variant: str
    exact: bool = True
    entries: dict[str, CatalogEntry] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Identification in the gate's failure line (duck-types cards)."""
        return f"catalog[{self.variant}]"

    def to_dict(self) -> dict:
        return {
            "kind": "scenario-catalog",
            "variant": self.variant,
            "exact": self.exact,
            "scenarios": {
                name: entry.to_dict() for name, entry in sorted(self.entries.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping) -> "CatalogMatrix":
        if data.get("kind") != "scenario-catalog":
            raise ConfigurationError(
                f"not a scenario-catalog matrix (kind={data.get('kind')!r})"
            )
        return cls(
            variant=str(data.get("variant", "smoke")),
            exact=bool(data.get("exact", True)),
            entries={
                str(name): CatalogEntry.from_dict(entry)
                for name, entry in data.get("scenarios", {}).items()
            },
        )

    @classmethod
    def from_json_file(cls, path: str | Path) -> "CatalogMatrix":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def summary(self) -> str:
        """One-line-per-scenario matrix rendering (the CLI's output)."""
        exactness = "" if self.exact else ", APPROXIMATE fast workload path"
        lines = [
            f"scenario catalog [{self.variant}] — "
            f"{len(self.entries)} scenarios{exactness}",
            f"  {'scenario':<28} {'cost $':>9} {'worst slo%':>10} "
            f"{'slo':>4} {'budget':>7} {'mttr':>12} {'inv':>4}",
        ]
        for name, entry in sorted(self.entries.items()):
            card = entry.card
            worst = max(card.slo_violation_pct.values(), default=0.0)
            recovered = sum(1 for v in card.mttr_by_fault.values() if v is not None)
            mttr = (
                f"{recovered}/{len(card.mttr_by_fault)} rec"
                if card.mttr_by_fault else "-"
            )
            budget = (
                "-" if entry.within_budget is None
                else ("ok" if entry.within_budget else "OVER")
            )
            lines.append(
                f"  {name:<28} {card.total_cost:>9.4f} {worst:>10.2f} "
                f"{'ok' if entry.slo_ok else 'VIOL':>4} {budget:>7} {mttr:>12} "
                f"{'ok' if card.invariants_ok else 'BAD':>4}"
            )
        return "\n".join(lines)


def run_catalog(
    scenarios: Mapping[str, Scenario] | Sequence[Scenario],
    *,
    variant: str = "smoke",
    jobs: int = 1,
    fast: bool = False,
) -> CatalogMatrix:
    """Run scenarios on the deterministic parallel runner; fold the
    cards into a :class:`CatalogMatrix`.

    Every scenario carries its own seed and every card is wall-clock
    free, so the matrix JSON is byte-identical at any ``jobs``.
    """
    ordered = (
        list(scenarios.values()) if isinstance(scenarios, Mapping) else list(scenarios)
    )
    cases = [
        SweepCase(
            name=scenario.name,
            fn=_run_catalog_entry,
            kwargs={"spec": scenario.to_dict(), "fast": fast},
        )
        for scenario in ordered
    ]
    cards = run_scenarios(cases, jobs=jobs)
    return CatalogMatrix(
        variant=variant,
        exact=not fast and all(s.exact for s in ordered),
        entries={
            scenario.name: CatalogEntry.from_card(scenario, card)
            for scenario, card in zip(ordered, cards)
        },
    )
