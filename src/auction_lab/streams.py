"""Deterministic random-number streams.

Every stochastic routine in the package takes an explicit stream handle.
Streams are derived from a (seed, stream-index) pair, so the same pair
always yields the same draw sequence regardless of how many other streams
exist or in which order they are consumed.  That is what lets the Monte
Carlo evaluator (`revenue._run_streams`) run an estimate's streams on
several threads at once: each generator is built and used by the one
worker that runs its stream, and is never shared.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "substream"]


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for stream `index` of the given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator addressed by an arbitrary integer path.

    Used when a computation owns a family of streams (e.g. one per
    enumerated profile per worker): ``substream(seed, profile, worker)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))
