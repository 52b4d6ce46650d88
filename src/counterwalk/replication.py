"""Deterministic seed derivation and replica scheduling.

Every replica draws from its own stream whose seed is a 64-bit avalanche
mix of the master seed and the replica index, so a replica's result does
not depend on how many replicas run.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

T = TypeVar("T")
U = TypeVar("U")


def splitmix64(z: int) -> int:
    """One round of the splitmix64 avalanche mixer."""
    z = (z + _GOLDEN) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def child_seed(master: int, index: int) -> int:
    """Collision-resistant child seed for replica ``index``."""
    return splitmix64((master & _MASK) ^ splitmix64(index & _MASK))


def run_replicas(fn: Callable[[U], T], tasks: Sequence[U], workers: int | None = None) -> list[T]:
    """Evaluate ``fn`` on each replica task, one at a time and in
    replica-index order, in this process.

    ``workers`` is ignored; ``perfbench/tracer.py`` wraps this function by
    name and still passes it.
    """
    return [fn(task) for task in tasks]

