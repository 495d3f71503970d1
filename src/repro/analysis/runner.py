"""Process-parallel scenario runner for experiment sweeps.

Controller shootouts (E4), parameter sweeps (E9) and per-window share
analyses are embarrassingly parallel: every scenario is a pure function
of its arguments and a seed. This module fans such scenarios across a
:class:`concurrent.futures.ProcessPoolExecutor` while keeping the
results **indistinguishable from a serial run**:

* scenarios execute as submitted and results return in submission
  order, never completion order;
* every scenario's seed is derived from the sweep's base seed and the
  scenario *name* (not its position or worker id), so adding, removing
  or reordering scenarios does not reshuffle the randomness of the
  others;
* ``jobs=1`` runs in-process with no executor, and the parallel path
  must produce byte-identical results (the test suite pickles both and
  compares);
* the worker start method is pinned (see :data:`START_METHOD`), so the
  same sweep launches the same kind of worker on every platform.

Each :class:`SweepCase` calls a module-level function (picklable by
reference); its keyword arguments must be picklable values.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.errors import FlowerError

#: Pinned worker start method for every sweep pool.
#:
#: ``fork`` is deliberately excluded even where it is the platform
#: default: a forked worker inherits the parent's full mutable state —
#: warmed caches, monkeypatched modules, open handles — so a sweep's
#: behaviour could depend on what the parent process happened to have
#: done first, and ``fork`` does not exist on Windows (or survive as
#: the macOS default). ``forkserver`` (POSIX) and ``spawn`` (everywhere)
#: both hand every scenario an import-fresh interpreter, which is what
#: makes jobs=1 and jobs=N byte-identical by construction rather than
#: by luck. ``forkserver`` is preferred where available because the
#: server process imports ``repro`` once (see :func:`pool_context`) and
#: each worker is then a cheap fork *of that clean server*, not of the
#: arbitrary parent.
START_METHOD = (
    "forkserver"
    if "forkserver" in multiprocessing.get_all_start_methods()
    else "spawn"
)


def pool_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every sweep pool must use.

    Warm-up: under ``forkserver`` the package is preloaded into the
    fork server, so the per-worker cost is one fork instead of a full
    interpreter boot + import of numpy and repro per process. (The
    preload call is a no-op once the server is running.)
    """
    context = multiprocessing.get_context(START_METHOD)
    if START_METHOD == "forkserver":
        context.set_forkserver_preload(["repro"])
    return context


class RunnerError(FlowerError):
    """The scenario runner was misused."""


@dataclass(frozen=True)
class SweepCase:
    """One unit of sweep work: a named call to a module-level function."""

    name: str
    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


def _call(scenario: SweepCase) -> Any:
    return scenario.fn(**scenario.kwargs)


def run_scenarios(scenarios: Sequence[SweepCase], jobs: int = 1) -> list[Any]:
    """Run every scenario; return results in scenario order.

    ``jobs=1`` (the default) runs serially in-process. ``jobs > 1``
    distributes scenarios over that many worker processes. Either way
    the returned list lines up index-for-index with ``scenarios`` and —
    because scenarios are deterministic in their arguments — holds
    byte-identical values.

    A scenario that raises propagates its exception to the caller (the
    remaining futures are cancelled by executor shutdown).
    """
    if jobs < 1:
        raise RunnerError(f"jobs must be >= 1, got {jobs}")
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise RunnerError(f"scenario names must be unique, got {names}")
    scenarios = list(scenarios)
    if jobs == 1 or len(scenarios) <= 1:
        return [_call(scenario) for scenario in scenarios]
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(scenarios)), mp_context=pool_context()
    ) as pool:
        futures = [pool.submit(_call, scenario) for scenario in scenarios]
        try:
            return [future.result() for future in futures]
        except BaseException:
            # Fail fast: without cancel_futures the context manager's
            # shutdown(wait=True) would still run every queued scenario.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def run_scenarios_dict(scenarios: Sequence[SweepCase], jobs: int = 1) -> dict[str, Any]:
    """Like :func:`run_scenarios` but keyed by scenario name."""
    results = run_scenarios(scenarios, jobs=jobs)
    return {scenario.name: result for scenario, result in zip(scenarios, results)}
