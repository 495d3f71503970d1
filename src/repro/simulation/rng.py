"""Seeded random-number utilities.

Simulations need many independent random streams (workload arrivals,
record sizes, noise on CPU measurements, NSGA-II operators, ...). To
keep runs reproducible *and* streams statistically independent, every
stream is derived from a root seed plus a string label using
:class:`numpy.random.SeedSequence` entropy spawning.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.core.errors import ConfigurationError


def derive_rng(seed: int, label: str = "") -> np.random.Generator:
    """Return an independent generator derived from ``seed`` and ``label``.

    Two calls with the same ``(seed, label)`` yield identical streams;
    different labels under the same seed yield statistically independent
    streams. The label is folded into the seed material via CRC32 so
    that human-readable stream names stay cheap. A negative seed raises
    :class:`ConfigurationError`.
    """
    return np.random.default_rng(_seed_sequence(seed, label))


def derive_scenario_seed(base_seed: int, name: str) -> int:
    """A deterministic per-scenario seed from a sweep's seed and name.

    Folds the name as :func:`derive_rng` folds its label, so two sweeps
    with the same base seed give a scenario the same stream regardless
    of where it sits in the list or which worker process runs it. A
    negative seed raises :class:`ConfigurationError`, as there.
    """
    return int(_seed_sequence(base_seed, name).generate_state(1)[0])


def _seed_sequence(seed: int, label: str) -> np.random.SeedSequence:
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence([int(seed), zlib.crc32(label.encode("utf-8"))])


def spawn_streams(seed: int, labels: list[str]) -> dict[str, np.random.Generator]:
    """Derive one independent generator per label from a root seed."""
    return {label: derive_rng(seed, label) for label in labels}
