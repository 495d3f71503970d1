"""Declarative scenarios: the DSL, the curated catalog, and the gate.

A :class:`Scenario` declares one evaluation case — workload pattern ×
chaos schedule × SLO targets × budget × controller style × exactness —
as validated pure data with lossless JSON round-trips, the way the
chaos DSL declares faults. :mod:`repro.scenarios.catalog` curates nine
named scenarios; :func:`run_catalog` runs any set of them on the
deterministic parallel runner and folds the per-scenario scorecards
into a :class:`CatalogMatrix`, whose committed serialisation
(``results/SCORECARD_catalog.json``) the CI ``gates`` job diffs
on every change. External traces enter through the ``trace`` pattern
kind, replayed bit-exactly by
:class:`~repro.workload.generators.TracePattern`.
"""

from repro.scenarios.catalog import (
    CATALOG_NAMES,
    CATALOG_SEED,
    VARIANT_DURATIONS,
    catalog,
    catalog_scenario,
)
from repro.scenarios.runner import (
    CatalogEntry,
    CatalogMatrix,
    run_catalog,
    run_scenario,
)
from repro.scenarios.spec import PatternSpec, Scenario, SLOTargets

__all__ = [
    "PatternSpec",
    "Scenario",
    "SLOTargets",
    "CATALOG_NAMES",
    "CATALOG_SEED",
    "VARIANT_DURATIONS",
    "catalog",
    "catalog_scenario",
    "CatalogEntry",
    "CatalogMatrix",
    "run_catalog",
    "run_scenario",
]
