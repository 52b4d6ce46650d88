"""Exact Eulerian-number combinatorics and the parity laws they induce.

Everything in this module is exact: the descent triangle is built with
Python big integers, and every law is an `ExactPmf`, integer weights over
one common denominator; floating point never enters.

The triangle entry ``<n, k>`` counts permutations of ``{1..n}`` with
exactly ``k`` descents.  Two conventions matter throughout:

* ``<0, -1> = 1`` (the single entry of row zero), so that the odd-vertex
  law below also covers the one-vertex tree;
* any other index outside ``0 <= k < n`` yields 0, which lets double sums
  over the triangle run without edge-case guards.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

Value = Union[int, Fraction]
Number = Union[int, float, Fraction]

#: Rows up to this index are memoised.  Past it two rows are kept: the last
#: one asked for and the largest one built so far, and a request starts from
#: the largest kept row at or below it (row ``ROW_MEMO_CAP`` if neither
#: slot qualifies).  Either way only half rows (see below) are stored.
ROW_MEMO_CAP = 64

# Every row is symmetric, <n,k> = <n,n-1-k>, so only its first ceil(n/2)
# entries are stored (the half row).  Rows 0 and 1 are seeded by hand: row 0
# holds the conventional entry <0,-1> = 1, and the recurrence below is only
# valid from row 2 on.
_rows: list[list[int]] = [[1], [1]]
# The two far slots past the cap, each (index, half row) or None.  They
# change only under the lock and may hold the same row.
_last: tuple[int, list[int]] | None = None
_largest: tuple[int, list[int]] | None = None
_rows_lock = threading.Lock()


def _next_row(prev: list[int], n: int) -> list[int]:
    # half row n from half row n-1 (n >= 2):
    # <n,k> = (n-k) <n-1,k-1> + (k+1) <n-1,k>; for odd n the last entry reads
    # <n-1,(n-1)/2> = <n-1,(n-1)/2-1>, the last entry of prev
    half = [prev[0]]
    half += [(n - k) * prev[k - 1] + (k + 1) * prev[k] for k in range(1, n // 2)]
    if n & 1:
        half.append((n + 1) * prev[-1])
    return half


def _half_row(n: int) -> list[int]:
    global _last, _largest
    if n < len(_rows):
        return _rows[n]
    with _rows_lock:
        while len(_rows) <= min(n, ROW_MEMO_CAP):
            m = len(_rows)
            _rows.append(_next_row(_rows[m - 1], m))
        if n <= ROW_MEMO_CAP:
            return _rows[n]
        kept = [(ROW_MEMO_CAP, _rows[ROW_MEMO_CAP]), _last, _largest]
        start, row = max((k for k in kept if k is not None and k[0] <= n), key=lambda k: k[0])
        for m in range(start + 1, n + 1):
            row = _next_row(row, m)
        _last = (n, row)
        if _largest is None or n > _largest[0]:
            _largest = _last
        return row


def _row_values(n: int) -> tuple[int, ...]:
    half = _half_row(n)
    return (*half, *reversed(half[: n // 2]))


@dataclass(frozen=True)
class EulerianRow:
    """One row of the descent triangle: entries ``<n,0> .. <n,n-1>``."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = 1 if self.n == 0 else self.n
        if len(self.values) != expected:
            raise ValueError(f"row {self.n} must have {expected} entries")
        if sum(self.values) != math.factorial(self.n):
            raise ValueError(f"row {self.n} does not sum to {self.n}!")


def eulerian_row(n: int) -> EulerianRow:
    """Full row ``n`` of the triangle (row 0 is the conventional entry)."""
    if n < 0:
        raise ValueError("row index must be >= 0")
    return EulerianRow(n, _row_values(n))


def eulerian_number(n: int, k: int) -> int:
    """Entry ``<n,k>`` via the two-term recurrence, 0 outside the triangle.

    The only out-of-range index with a nonzero value is ``<0,-1> = 1``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1 if k == -1 else 0
    if k < 0 or k >= n:
        return 0
    return _half_row(n)[min(k, n - 1 - k)]


def eulerian_number_by_sum(n: int, k: int) -> int:
    """Entry ``<n,k>`` via the alternating binomial sum.

    Independent of the recurrence route on purpose: the two are checked
    against each other, so this must stay a separate code path.  It sums
    ``min(k, n-1-k) + 1`` terms by reflecting ``k`` through the row's
    symmetry, which it applies itself: it reads no stored row, so the
    reflection keeps it independent of the recurrence.
    """
    if n < 1:
        raise ValueError("the alternating sum needs n >= 1")
    if k < 0 or k >= n:
        return 0
    k = min(k, n - 1 - k)
    total = 0
    binom = 1  # C(n+1, j)
    for j in range(k + 1):
        term = binom * (k + 1 - j) ** n
        total += -term if j & 1 else term
        binom = binom * (n + 1 - j) // (j + 1)
    return total


def _probability(p: Number) -> Fraction:
    """The innovation probability ``p`` as an exact rational in [0, 1]."""
    try:
        p = Fraction(p)
    except (ValueError, TypeError, OverflowError):
        raise ValueError(f"innovation probability must be a rational number, got {p!r}") from None
    if not 0 <= p <= 1:
        raise ValueError("innovation probability must lie in [0, 1]")
    return p


def _as_exact(x: Value) -> Value:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class ExactPmf:
    """Finite-support pmf with exact rational probabilities
    ``weights[i] / denom``.

    Support values are integers (or exact rationals for laws living on a
    scaled lattice), sorted strictly increasing; weights are positive
    integers summing to ``denom``, with no factor common to all of them and
    ``denom``, so that equal laws compare equal.
    """

    values: tuple[Value, ...]
    weights: tuple[int, ...]
    denom: int

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("support and weights must be nonempty and aligned")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("support must be sorted strictly increasing")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights) != self.denom:
            raise ValueError("weights must sum to the denominator exactly")
        if math.gcd(self.denom, *self.weights) != 1:
            raise ValueError("weights and denominator must be in lowest terms")

    @classmethod
    def from_weights(cls, pairs: Iterable[tuple[Value, int]], denom: int) -> "ExactPmf":
        """The law ``value -> weight / denom`` of ``(value, weight)`` pairs:
        equal values merge, zero weights drop out, and the weights and
        ``denom`` are divided by their common gcd."""
        merged: dict[Value, int] = {}
        for v, w in pairs:
            v = _as_exact(v)
            merged[v] = merged.get(v, 0) + w
        items = sorted((v, w) for v, w in merged.items() if w)
        g = math.gcd(denom, *(w for _, w in items)) or 1
        return cls(tuple(v for v, _ in items), tuple(w // g for _, w in items), denom // g)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.denom) for w in self.weights)

    def mean(self) -> Fraction:
        return self.moment(1)

    def moment(self, r: int) -> Fraction:
        if r < 0:
            raise ValueError("moment order must be >= 0")
        return Fraction(sum(w * v**r for v, w in zip(self.values, self.weights)), self.denom)

    def abs_moment(self, r: int) -> Fraction:
        return Fraction(sum(w * abs(v) ** r for v, w in zip(self.values, self.weights)), self.denom)

    def pushforward(self, fn: Callable[[Value], Value]) -> "ExactPmf":
        pairs = ((fn(v), w) for v, w in zip(self.values, self.weights))
        return ExactPmf.from_weights(pairs, self.denom)


def odd_count_pmf(n: int) -> ExactPmf:
    """Exact law of the number of odd-depth vertices in a size-``n``
    random recursive tree: ``P(ell) = <n-1, ell-1> / (n-1)!``."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return ExactPmf((0,), (1,), 1)
    # the row in lowest terms already: its first entry is 1
    return ExactPmf(tuple(range(1, n)), _row_values(n - 1), math.factorial(n - 1))


def delta_pmf(n: int) -> ExactPmf:
    """Exact law of the even-minus-odd vertex count, the pushforward of
    the odd-count law under ``ell -> n - 2*ell``."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    return odd_count_pmf(n).pushforward(lambda ell: n - 2 * ell)


def delta_moment(n: int, r: int) -> Fraction:
    """Exact r-th moment of the even-minus-odd count at size ``n``."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if n == 1:
        return Fraction(1)
    # sum over the odd-count law P(ell) = <n-1, ell-1> / (n-1)! in integers
    row = _row_values(n - 1)
    total = sum(c * (n - 2 * ell) ** r for ell, c in enumerate(row, start=1))
    return Fraction(total, math.factorial(n - 1))
