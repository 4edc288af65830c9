"""Deterministic random-number streams.

Every stochastic routine in the package takes an explicit stream handle.
A stream is addressed by a seed and an integer path, so the same address
always yields the same draw sequence regardless of how many other streams
exist or in which order they are consumed.  That is what lets the Monte
Carlo evaluator (`revenue._run_streams`) run an estimate's streams on
several threads at once: each generator is built and used by the one
worker that runs its stream, and is never shared.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator addressed by an arbitrary integer path.

    `substream(seed, i)` is stream i of the seed; a computation that owns a
    family of streams (e.g. one per enumerated profile per worker) uses a
    longer path: ``substream(seed, profile, worker)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))
