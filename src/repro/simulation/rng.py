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
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    label_entropy = zlib.crc32(label.encode("utf-8"))
    sequence = np.random.SeedSequence([int(seed), label_entropy])
    return np.random.default_rng(sequence)


def spawn_streams(seed: int, labels: list[str]) -> dict[str, np.random.Generator]:
    """Derive one independent generator per label from a root seed."""
    return {label: derive_rng(seed, label) for label in labels}
