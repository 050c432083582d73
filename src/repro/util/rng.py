"""Deterministic random-number streams.

Every randomised component of the library receives an explicit seed (or an
already-constructed :class:`numpy.random.Generator`).  Experiments that fan
out over many draws use :func:`spawn_streams` so each draw gets an
*independent* child stream: results are reproducible regardless of the
order in which draws are executed (important when sweeps are parallelised
or subsampled).
"""

from __future__ import annotations

import numpy as np

#: Alias used throughout the library for type annotations.
RngStream = np.random.Generator


def derive_rng(seed: int | None | RngStream, *path: int) -> RngStream:
    """Return a Generator derived from ``seed`` and an integer path.

    ``seed`` may be:

    - ``None`` — non-deterministic OS entropy,
    - an ``int`` — root seed,
    - a ``Generator`` — returned unchanged when ``path`` is empty,
      otherwise used to derive a child.

    The ``path`` integers name a node in a derivation tree, so
    ``derive_rng(42, 3, 7)`` is stable and independent from
    ``derive_rng(42, 3, 8)``.
    """
    if isinstance(seed, np.random.Generator):
        if not path:
            return seed
        # Derive a child deterministically from the generator state.
        child_seed = int(seed.integers(0, 2**63 - 1))
        return np.random.default_rng(np.random.SeedSequence((child_seed, *path)))
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence((int(seed), *path)))


def spawn_streams(seed: int | None, count: int) -> list[RngStream]:
    """Return ``count`` independent generators derived from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, the recommended way
    to create statistically independent parallel streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(count)]
