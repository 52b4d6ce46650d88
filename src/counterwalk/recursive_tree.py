"""Random recursive / increasing trees: samplers of the odd-vertex count.

The simulator reads each tree only through its size and its even-minus-odd
count (`walk_engine.WalkRun.trees`, two counts over every step's root),
which tell the shapes of size <= 3 apart.  The exact parity laws of these
trees live in `eulerian`.  Random trees are sampled as `walk_engine.forest`
forests without innovations, in the draw layout of `walk_engine`.
"""

from __future__ import annotations

import numpy as np

from .walk_engine import _TILE_CELLS, _tiles


def sample_odd_counts(n: int, reps: int, seed: int) -> np.ndarray:
    """Odd-vertex counts of ``reps`` independent uniform attachment trees.

    Each tree is a `forest` without innovations, drawn in the blocks of
    `walk_engine.simulate_batch` at ``p = 0`` (the `walk_engine` docstring
    pins the layout), so the counts equal
    ``(n - simulate_batch(n, 0, StepLaw.dirac(1), reps, seed)) / 2``
    and the first ``k`` replicas equal the run with ``reps = k``.
    """
    if n < 1:
        raise ValueError("tree size must be >= 1")
    return _tiles(seed, n, 0.0, reps,
                  lambda innov, root, odd, steps: odd.reshape(-1, n).sum(axis=1), np.int64)


def tanny_sample_batch(n: int, reps: int, seed: int) -> np.ndarray:
    """Ceiling of a sum of ``n`` independent uniforms on [0, 1] (0 for
    n = 0), once per replica, drawn from ``np.random.default_rng(seed)``.

    Equal in law to the odd-vertex count of a size-``n+1`` random
    recursive tree, which makes it a fast sampler for parity statistics.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if n == 0:
        return np.zeros(reps, dtype=np.int64)
    rng = np.random.default_rng(seed)
    out = np.empty(reps, dtype=np.int64)
    # rows drawn in chunks of about _TILE_CELLS cells, in order from one
    # stream, so the draws do not depend on the chunk size
    chunk = max(1, _TILE_CELLS // n)
    for start in range(0, reps, chunk):
        stop = min(start + chunk, reps)
        sums = rng.random((stop - start, n)).sum(axis=1)
        out[start:stop] = np.ceil(sums).astype(np.int64)
    return out
