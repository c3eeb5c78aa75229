"""Deterministic substream derivation for seeded Monte Carlo.

Every random computation takes an explicit numpy Generator.  Each
purpose (and sample-size index) derives an independent stream from
(seed, path), so results depend only on the seed.
"""

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream addressed by (seed, *path).

    Philox is counter-based, so streams with distinct spawn keys are
    independent and the mapping is stable across runs and platforms.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
