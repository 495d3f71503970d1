"""The scenario DSL: workload × faults × SLO × budget, as pure data.

A :class:`Scenario` declares one complete evaluation case — a workload
shape (:class:`PatternSpec`), an optional
:class:`~repro.chaos.schedule.ChaosSchedule`, SLO targets, a cost
budget, the controller style, initial capacities, and workload
exactness — with no behaviour of its own. Like the chaos DSL it
round-trips losslessly through plain dicts/JSON (``parse(serialize(s))
== s``, pinned by hypothesis in ``tests/test_scenarios_property.py``),
and every field is validated at construction: an invalid spec raises
:class:`ConfigurationError` naming the offending field.

:meth:`Scenario.build_manager` is the only bridge to behaviour: it
compiles the spec into a ready-to-run
:class:`~repro.core.manager.FlowElasticityManager`. Stochastic pattern
nodes (``bursty``, ``noisy``) derive their RNG stream from the scenario
seed and the node's *path* in the spec tree, so editing one branch of a
workload never reshuffles the randomness of its siblings.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.chaos.schedule import ChaosSchedule
from repro.core.config import CONTROLLER_FACTORIES
from repro.core.errors import ConfigurationError
from repro.simulation.rng import derive_scenario_seed
from repro.workload.generators import (
    BurstyRate,
    CompositeRate,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NoisyRate,
    RampRate,
    RatePattern,
    SinusoidalRate,
    StepRate,
    TracePattern,
    WeeklyRate,
)
from repro.workload.traces import Trace


def _reject(where: str, field_name: str, problem: str) -> ConfigurationError:
    """The DSL's one error shape: always names the offending field."""
    return ConfigurationError(f"scenario spec: {where}.{field_name} {problem}")


def _as_float(where: str, name: str, value, *, minimum: float | None = None,
              maximum: float | None = None, exclusive_min: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(where, name, f"must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _reject(where, name, f"must be finite, got {value!r}")
    if minimum is not None:
        if exclusive_min and value <= minimum:
            raise _reject(where, name, f"must be > {minimum}, got {value}")
        if not exclusive_min and value < minimum:
            raise _reject(where, name, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _reject(where, name, f"must be <= {maximum}, got {value}")
    return value


def _as_int(where: str, name: str, value, *, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _reject(where, name, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _reject(where, name, f"must be >= {minimum}, got {value}")
    return int(value)


# ----------------------------------------------------------------------
# Pattern specs
# ----------------------------------------------------------------------

#: ``kind -> (validator, children)`` where ``children`` is the exact
#: child-count a node takes, or ``"+"`` for one-or-more. Validators
#: take ``(params, where)`` and return the normalised params mapping.
_PATTERN_KINDS: dict[str, tuple[Callable[[Mapping, str], dict], int | str]] = {}


def _pattern_kind(kind: str, children: int | str = 0):
    def register(validator):
        _PATTERN_KINDS[kind] = (validator, children)
        return validator
    return register


@_pattern_kind("constant")
def _check_constant(p: Mapping, where: str) -> dict:
    return {"value": _as_float(where, "value", p.get("value"), minimum=0.0)}


@_pattern_kind("step")
def _check_step(p: Mapping, where: str) -> dict:
    out = {
        "base": _as_float(where, "base", p.get("base"), minimum=0.0),
        "level": _as_float(where, "level", p.get("level"), minimum=0.0),
        "at": _as_int(where, "at", p.get("at"), minimum=0),
    }
    until = p.get("until")
    if until is not None:
        until = _as_int(where, "until", until)
        if until <= out["at"]:
            raise _reject(where, "until", f"must be after at={out['at']}, got {until}")
    out["until"] = until
    return out


@_pattern_kind("ramp")
def _check_ramp(p: Mapping, where: str) -> dict:
    out = {
        "start_rate": _as_float(where, "start_rate", p.get("start_rate"), minimum=0.0),
        "end_rate": _as_float(where, "end_rate", p.get("end_rate"), minimum=0.0),
        "t0": _as_int(where, "t0", p.get("t0"), minimum=0),
        "t1": _as_int(where, "t1", p.get("t1")),
    }
    if out["t1"] <= out["t0"]:
        raise _reject(where, "t1", f"must be after t0={out['t0']}, got {out['t1']}")
    return out


@_pattern_kind("sinusoid")
def _check_sinusoid(p: Mapping, where: str) -> dict:
    return {
        "mean": _as_float(where, "mean", p.get("mean"), minimum=0.0),
        "amplitude": _as_float(where, "amplitude", p.get("amplitude"), minimum=0.0),
        "period": _as_int(where, "period", p.get("period"), minimum=1),
        "phase": _as_int(where, "phase", p.get("phase", 0)),
    }


@_pattern_kind("diurnal")
def _check_diurnal(p: Mapping, where: str) -> dict:
    return {
        "mean": _as_float(where, "mean", p.get("mean"), minimum=0.0),
        "amplitude": _as_float(where, "amplitude", p.get("amplitude"), minimum=0.0),
        "peak_hour": _as_float(where, "peak_hour", p.get("peak_hour", 20.0),
                               minimum=0.0, maximum=24.0),
    }


@_pattern_kind("flash_crowd")
def _check_flash_crowd(p: Mapping, where: str) -> dict:
    return {
        "peak": _as_float(where, "peak", p.get("peak"), minimum=0.0),
        "at": _as_int(where, "at", p.get("at"), minimum=0),
        "rise_seconds": _as_int(where, "rise_seconds", p.get("rise_seconds", 60), minimum=1),
        "decay_seconds": _as_int(where, "decay_seconds", p.get("decay_seconds", 600), minimum=1),
    }


@_pattern_kind("weekly", children=1)
def _check_weekly(p: Mapping, where: str) -> dict:
    factors = p.get("day_factors")
    if not isinstance(factors, (list, tuple)) or len(factors) != 7:
        raise _reject(where, "day_factors", f"must be a list of 7 numbers, got {factors!r}")
    return {
        "day_factors": [
            _as_float(where, f"day_factors[{i}]", f, minimum=0.0)
            for i, f in enumerate(factors)
        ]
    }


@_pattern_kind("bursty", children=1)
def _check_bursty(p: Mapping, where: str) -> dict:
    return {
        "bursts_per_hour": _as_float(where, "bursts_per_hour",
                                     p.get("bursts_per_hour", 0.5), minimum=0.0),
        "multiplier": _as_float(where, "multiplier", p.get("multiplier", 2.5), minimum=1.0),
        "duration_seconds": _as_int(where, "duration_seconds",
                                    p.get("duration_seconds", 300), minimum=1),
    }


@_pattern_kind("noisy", children=1)
def _check_noisy(p: Mapping, where: str) -> dict:
    return {
        "sigma": _as_float(where, "sigma", p.get("sigma", 0.1), minimum=0.0),
        "interval": _as_int(where, "interval", p.get("interval", 60), minimum=1),
    }


@_pattern_kind("sum", children="+")
def _check_sum(p: Mapping, where: str) -> dict:
    return {}


@_pattern_kind("product", children="+")
def _check_product(p: Mapping, where: str) -> dict:
    return {}


@_pattern_kind("trace")
def _check_trace(p: Mapping, where: str) -> dict:
    csv = p.get("csv")
    points = p.get("points")
    if (csv is None) == (points is None):
        raise _reject(where, "csv", "or .points: exactly one must be set")
    out: dict = {"scale": _as_float(where, "scale", p.get("scale", 1.0), exclusive_min=True,
                                    minimum=0.0)}
    if csv is not None:
        if not isinstance(csv, str) or not csv:
            raise _reject(where, "csv", f"must be a non-empty path string, got {csv!r}")
        out["csv"] = csv
        out["points"] = None
    else:
        if not isinstance(points, (list, tuple)) or not points:
            raise _reject(where, "points", f"must be a non-empty list of [time, value] pairs, "
                                           f"got {points!r}")
        normalised = []
        last_t: int | None = None
        for i, pair in enumerate(points):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise _reject(where, f"points[{i}]", f"must be a [time, value] pair, got {pair!r}")
            t = _as_int(where, f"points[{i}].time", pair[0], minimum=0)
            v = _as_float(where, f"points[{i}].value", pair[1], minimum=0.0)
            if last_t is not None and t <= last_t:
                raise _reject(where, f"points[{i}].time",
                              f"must be strictly increasing, got {t} after {last_t}")
            normalised.append([t, v])
            last_t = t
        out["csv"] = None
        out["points"] = normalised
    return out


#: Where ``trace`` specs with a bare (relative) ``csv`` filename are
#: resolved first; falls back to the working directory.
def _data_dir() -> Path:
    return Path(str(resources.files("repro.scenarios") / "data"))


@dataclass(frozen=True, eq=True)
class PatternSpec:
    """One node of a declarative workload tree (see module docstring).

    ``kind`` selects a :class:`~repro.workload.generators.RatePattern`;
    ``params`` are its validated, normalised knobs; ``inner`` holds the
    child specs of wrapper/composite kinds (``weekly``, ``bursty``,
    ``noisy`` take exactly one; ``sum``/``product`` one or more).
    """

    kind: str
    params: dict = field(default_factory=dict)
    inner: tuple["PatternSpec", ...] = ()

    def __post_init__(self) -> None:
        self._validate("workload")

    def _validate(self, where: str) -> None:
        if self.kind not in _PATTERN_KINDS:
            raise _reject(where, "kind",
                          f"must be one of {sorted(_PATTERN_KINDS)}, got {self.kind!r}")
        validator, children = _PATTERN_KINDS[self.kind]
        object.__setattr__(self, "inner", tuple(self.inner))
        for child in self.inner:
            if not isinstance(child, PatternSpec):
                raise _reject(where, "inner", f"entries must be PatternSpec, got {child!r}")
        if children == "+":
            if not self.inner:
                raise _reject(where, "inner",
                              f"{self.kind!r} needs at least one child pattern")
        elif len(self.inner) != children:
            raise _reject(where, "inner",
                          f"{self.kind!r} takes exactly {children} child pattern(s), "
                          f"got {len(self.inner)}")
        if not isinstance(self.params, Mapping):
            raise _reject(where, "params", f"must be a mapping, got {self.params!r}")
        unknown = sorted(set(self.params) - set(_param_names(self.kind)))
        if unknown:
            raise _reject(where, unknown[0],
                          f"is not a parameter of pattern kind {self.kind!r}")
        object.__setattr__(self, "params", validator(self.params, where))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, **self.params}
        if self.inner:
            out["inner"] = [child.to_dict() for child in self.inner]
        return out

    @classmethod
    def from_dict(cls, data, where: str = "workload") -> "PatternSpec":
        if not isinstance(data, Mapping):
            raise _reject(where, "kind", f"pattern must be a mapping, got {data!r}")
        kind = data.get("kind")
        if kind not in _PATTERN_KINDS:
            raise _reject(where, "kind",
                          f"must be one of {sorted(_PATTERN_KINDS)}, got {kind!r}")
        inner = tuple(
            cls.from_dict(child, where=f"{where}.inner[{i}]")
            for i, child in enumerate(data.get("inner", ()))
        )
        params = {k: v for k, v in data.items() if k not in ("kind", "inner")}
        return cls(kind=kind, params=params, inner=inner)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def build(self, seed: int, horizon: int, where: str = "workload") -> RatePattern:
        """Compile into a concrete :class:`RatePattern`.

        ``seed`` and ``horizon`` come from the enclosing scenario;
        stochastic nodes derive an independent RNG stream from
        ``(seed, where)`` so the draw is a pure function of the spec
        path, never of evaluation order.
        """
        p = self.params
        children = [
            child.build(seed, horizon, where=f"{where}.inner[{i}]")
            for i, child in enumerate(self.inner)
        ]
        if self.kind == "constant":
            return ConstantRate(p["value"])
        if self.kind == "step":
            return StepRate(p["base"], p["level"], p["at"], p["until"])
        if self.kind == "ramp":
            return RampRate(p["start_rate"], p["end_rate"], p["t0"], p["t1"])
        if self.kind == "sinusoid":
            return SinusoidalRate(p["mean"], p["amplitude"], p["period"], p["phase"])
        if self.kind == "diurnal":
            return DiurnalRate(p["mean"], p["amplitude"], p["peak_hour"])
        if self.kind == "flash_crowd":
            return FlashCrowdRate(p["peak"], p["at"], p["rise_seconds"], p["decay_seconds"])
        if self.kind == "weekly":
            return WeeklyRate(children[0], p["day_factors"])
        if self.kind == "bursty":
            return BurstyRate(
                children[0], self._rng(seed, where), horizon,
                bursts_per_hour=p["bursts_per_hour"], multiplier=p["multiplier"],
                duration_seconds=p["duration_seconds"],
            )
        if self.kind == "noisy":
            return NoisyRate(
                children[0], self._rng(seed, where), horizon,
                sigma=p["sigma"], interval=p["interval"],
            )
        if self.kind == "sum":
            return CompositeRate(children, mode="sum")
        if self.kind == "product":
            return CompositeRate(children, mode="product")
        if self.kind == "trace":
            return TracePattern(self._load_trace(where), scale=p["scale"])
        raise _reject(where, "kind", f"unbuildable pattern kind {self.kind!r}")  # pragma: no cover

    def _load_trace(self, where: str) -> Trace:
        if self.params["points"] is not None:
            return Trace("inline", ((t, v) for t, v in self.params["points"]))
        csv = self.params["csv"]
        path = Path(csv)
        if not path.is_absolute():
            candidate = _data_dir() / csv
            if candidate.exists():
                path = candidate
        if not path.exists():
            raise _reject(where, "csv",
                          f"file {csv!r} not found (looked in the scenario data "
                          f"directory and {Path.cwd()})")
        return Trace.from_csv(path)

    @staticmethod
    def _rng(seed: int, where: str) -> np.random.Generator:
        return np.random.default_rng(derive_scenario_seed(seed, f"pattern:{where}"))


def _param_names(kind: str) -> tuple[str, ...]:
    """The parameter names a pattern kind accepts (for unknown-key
    rejection without re-running its validator)."""
    return {
        "constant": ("value",),
        "step": ("base", "level", "at", "until"),
        "ramp": ("start_rate", "end_rate", "t0", "t1"),
        "sinusoid": ("mean", "amplitude", "period", "phase"),
        "diurnal": ("mean", "amplitude", "peak_hour"),
        "flash_crowd": ("peak", "at", "rise_seconds", "decay_seconds"),
        "weekly": ("day_factors",),
        "bursty": ("bursts_per_hour", "multiplier", "duration_seconds"),
        "noisy": ("sigma", "interval"),
        "sum": (),
        "product": (),
        "trace": ("csv", "points", "scale"),
    }[kind]


# ----------------------------------------------------------------------
# SLO targets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SLOTargets:
    """What "healthy" means for a scenario run.

    ``utilization_band`` is the per-layer utilisation ceiling (%) the
    scorecard scores violations against; ``max_violation_pct`` is the
    worst per-layer violation rate (%) the scenario tolerates before
    its ``slo_ok`` verdict flips.
    """

    utilization_band: float = 85.0
    max_violation_pct: float = 15.0

    def __post_init__(self) -> None:
        band = _as_float("slo", "utilization_band", self.utilization_band,
                         minimum=0.0, maximum=100.0, exclusive_min=True)
        worst = _as_float("slo", "max_violation_pct", self.max_violation_pct,
                          minimum=0.0, maximum=100.0)
        object.__setattr__(self, "utilization_band", band)
        object.__setattr__(self, "max_violation_pct", worst)

    def to_dict(self) -> dict:
        return {
            "utilization_band": self.utilization_band,
            "max_violation_pct": self.max_violation_pct,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SLOTargets":
        unknown = sorted(set(data) - {"utilization_band", "max_violation_pct"})
        if unknown:
            raise _reject("slo", unknown[0], "is not a recognised SLO field")
        return cls(
            utilization_band=data.get("utilization_band", 85.0),
            max_violation_pct=data.get("max_violation_pct", 15.0),
        )


# ----------------------------------------------------------------------
# The scenario itself
# ----------------------------------------------------------------------

_SCENARIO_FIELDS = frozenset({
    "name", "description", "workload", "duration", "seed", "controller",
    "reference", "control_period", "capacity", "slo", "budget_usd_per_hour",
    "chaos", "exact", "key_skew",
})

_CAPACITY_FIELDS = ("shards", "vms", "write_units")


@dataclass(frozen=True)
class Scenario:
    """One declarative evaluation case (see module docstring)."""

    name: str
    workload: PatternSpec
    duration: int
    description: str = ""
    seed: int = 7
    controller: str = "adaptive"
    reference: float = 60.0
    control_period: int = 60
    shards: int = 2
    vms: int = 2
    write_units: int = 300
    slo: SLOTargets = SLOTargets()
    budget_usd_per_hour: float | None = None
    chaos: ChaosSchedule | None = None
    #: Click-stream page-popularity skew (zipf exponent); 1.0 is the
    #: generator default, higher is more adversarial hot-keying.
    key_skew: float = 1.0
    exact: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise _reject("scenario", "name", f"must be a non-empty string, got {self.name!r}")
        if any(c.isspace() or c == "/" for c in self.name):
            raise _reject("scenario", "name",
                          f"must not contain whitespace or '/', got {self.name!r}")
        if not isinstance(self.description, str):
            raise _reject("scenario", "description",
                          f"must be a string, got {self.description!r}")
        if not isinstance(self.workload, PatternSpec):
            raise _reject("scenario", "workload",
                          f"must be a PatternSpec, got {self.workload!r}")
        _as_int("scenario", "duration", self.duration, minimum=1)
        _as_int("scenario", "seed", self.seed, minimum=0)
        if self.controller not in CONTROLLER_FACTORIES:
            raise _reject("scenario", "controller",
                          f"must be one of {sorted(CONTROLLER_FACTORIES)}, "
                          f"got {self.controller!r}")
        object.__setattr__(self, "reference", _as_float(
            "scenario", "reference", self.reference,
            minimum=0.0, maximum=100.0, exclusive_min=True))
        _as_int("scenario", "control_period", self.control_period, minimum=1)
        if self.control_period > self.duration:
            raise _reject("scenario", "control_period",
                          f"must not exceed duration={self.duration}, "
                          f"got {self.control_period}")
        for name in _CAPACITY_FIELDS:
            _as_int("scenario", f"capacity.{name}", getattr(self, name), minimum=1)
        if not isinstance(self.slo, SLOTargets):
            raise _reject("scenario", "slo", f"must be SLOTargets, got {self.slo!r}")
        if self.budget_usd_per_hour is not None:
            object.__setattr__(self, "budget_usd_per_hour", _as_float(
                "scenario", "budget_usd_per_hour", self.budget_usd_per_hour,
                minimum=0.0, exclusive_min=True))
        if self.chaos is not None:
            if not isinstance(self.chaos, ChaosSchedule):
                raise _reject("scenario", "chaos",
                              f"must be a ChaosSchedule, got {self.chaos!r}")
            for spec in self.chaos.faults:
                if spec.start >= self.duration:
                    raise _reject("scenario", "chaos",
                                  f"fault {spec.kind.value}@{spec.start} starts at or "
                                  f"after duration={self.duration} and would never fire")
        object.__setattr__(self, "key_skew", _as_float(
            "scenario", "key_skew", self.key_skew, minimum=0.0))
        if not isinstance(self.exact, bool):
            raise _reject("scenario", "exact", f"must be a boolean, got {self.exact!r}")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "workload": self.workload.to_dict(),
            "duration": self.duration,
            "seed": self.seed,
            "controller": self.controller,
            "reference": self.reference,
            "control_period": self.control_period,
            "capacity": {name: getattr(self, name) for name in _CAPACITY_FIELDS},
            "slo": self.slo.to_dict(),
            "budget_usd_per_hour": self.budget_usd_per_hour,
            "chaos": self.chaos.to_dict() if self.chaos is not None else None,
            "key_skew": self.key_skew,
            "exact": self.exact,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        if not isinstance(data, Mapping):
            raise _reject("scenario", "spec", f"must be a mapping, got {data!r}")
        unknown = sorted(set(data) - _SCENARIO_FIELDS)
        if unknown:
            raise _reject("scenario", unknown[0], "is not a recognised scenario field")
        if "workload" not in data:
            raise _reject("scenario", "workload", "is required")
        if "duration" not in data:
            raise _reject("scenario", "duration", "is required")
        capacity = data.get("capacity", {})
        if not isinstance(capacity, Mapping):
            raise _reject("scenario", "capacity", f"must be a mapping, got {capacity!r}")
        unknown = sorted(set(capacity) - set(_CAPACITY_FIELDS))
        if unknown:
            raise _reject("scenario", f"capacity.{unknown[0]}",
                          "is not a recognised capacity field")
        chaos = data.get("chaos")
        if chaos is not None and not isinstance(chaos, ChaosSchedule):
            try:
                chaos = ChaosSchedule.from_dict(chaos)
            except (TypeError, KeyError, ValueError) as exc:
                raise _reject("scenario", "chaos", f"is not a valid chaos schedule: {exc}")
        slo = data.get("slo")
        if slo is None:
            slo = SLOTargets()
        elif not isinstance(slo, SLOTargets):
            if not isinstance(slo, Mapping):
                raise _reject("scenario", "slo", f"must be a mapping, got {slo!r}")
            slo = SLOTargets.from_dict(slo)
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            workload=PatternSpec.from_dict(data["workload"]),
            duration=data["duration"],
            seed=data.get("seed", 7),
            controller=data.get("controller", "adaptive"),
            reference=data.get("reference", 60.0),
            control_period=data.get("control_period", 60),
            shards=capacity.get("shards", 2),
            vms=capacity.get("vms", 2),
            write_units=capacity.get("write_units", 300),
            slo=slo,
            budget_usd_per_hour=data.get("budget_usd_per_hour"),
            chaos=chaos,
            key_skew=data.get("key_skew", 1.0),
            exact=data.get("exact", True),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"scenario spec: invalid JSON: {exc}") from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def build_manager(self, *, exact: bool | None = None):
        """Compile into a ready-to-run flow manager.

        ``exact`` overrides the spec's workload path (the CLI's
        ``--fast``); the run result and its scorecard then carry the
        effective exactness, so a fast run can never gate against an
        exact baseline.
        """
        # Imported here: repro.core.builder transitively imports the
        # analysis layer — a cycle at module-import time only.
        from repro.cloud.dynamodb import DynamoDBConfig
        from repro.cloud.storm import StormConfig
        from repro.core.builder import FlowBuilder
        from repro.workload.clickstream import ClickStreamConfig

        pattern = self.workload.build(self.seed, self.duration)
        # Load-bound analytics VMs and a 10-second burst bucket, so
        # injected faults surface observable symptoms: the 5-minute
        # default bucket absorbs a throttle storm's whole deficit until
        # the controller reacts.
        builder = (
            FlowBuilder(f"scenario-{self.name}", seed=self.seed)
            .ingestion(shards=self.shards)
            .analytics(vms=self.vms, storm=StormConfig(records_per_vm_per_second=1000))
            .storage(write_units=self.write_units, config=DynamoDBConfig(burst_seconds=10))
            .workload(pattern, clickstream=ClickStreamConfig(zipf_exponent=self.key_skew))
            .control_all(style=self.controller, reference=self.reference,
                         period=self.control_period)
            .exact(self.exact if exact is None else exact)
            .observe()
        )
        if self.chaos is not None:
            builder.chaos(self.chaos)
        return builder.build()
