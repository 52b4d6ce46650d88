"""Exact Eulerian-number combinatorics and the parity laws they induce.

Everything in this module is exact: the descent triangle is built with
Python big integers and the probability masses are `fractions.Fraction`;
floating point never enters.

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
from typing import Callable, Iterable, Mapping, Union

Value = Union[int, Fraction]

#: Rows up to this index are memoised.  Past it only the last row asked for
#: is kept: a request at or above it extends that row, any other request
#: starts again from row ``ROW_MEMO_CAP``.
ROW_MEMO_CAP = 200

# Rows 0 and 1 are seeded by hand: row 0 holds the conventional entry
# <0,-1> = 1, and the recurrence below is only valid from row 2 on.
_rows: list[list[int]] = [[1], [1]]
# The most recent row past the cap, as (index, row).
_far: tuple[int, list[int]] | None = None
_rows_lock = threading.Lock()


def _next_row(prev: list[int], n: int) -> list[int]:
    # <n,k> = (n-k) <n-1,k-1> + (k+1) <n-1,k> for the first ceil(n/2) entries
    # (n >= 2, so <n-1,k> is a regular entry there); the rest mirror them,
    # since <n,k> = <n,n-1-k>
    half = [prev[0]]
    half += [(n - k) * prev[k - 1] + (k + 1) * prev[k] for k in range(1, (n + 1) // 2)]
    return half + half[: n // 2][::-1]


def _row_values(n: int) -> list[int]:
    global _far
    if n < len(_rows):
        return _rows[n]
    with _rows_lock:
        while len(_rows) <= min(n, ROW_MEMO_CAP):
            m = len(_rows)
            _rows.append(_next_row(_rows[m - 1], m))
        if n <= ROW_MEMO_CAP:
            return _rows[n]
        if _far is not None and _far[0] <= n:
            start, row = _far
        else:
            start, row = ROW_MEMO_CAP, _rows[ROW_MEMO_CAP]
        for m in range(start + 1, n + 1):
            row = _next_row(row, m)
        _far = (n, row)
        return row


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
    return EulerianRow(n, tuple(_row_values(n)))


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
    return _row_values(n)[k]


def eulerian_number_by_sum(n: int, k: int) -> int:
    """Entry ``<n,k>`` via the alternating binomial sum.

    Independent of the recurrence route on purpose: the two are checked
    against each other, so this must stay a separate code path.
    """
    if n < 1:
        raise ValueError("the alternating sum needs n >= 1")
    if k < 0 or k >= n:
        return 0
    total = 0
    binom = 1  # C(n+1, j)
    for j in range(k + 1):
        term = binom * (k + 1 - j) ** n
        total += -term if j & 1 else term
        binom = binom * (n + 1 - j) // (j + 1)
    return total


def _exact_sum(terms: Iterable[Fraction]) -> Fraction:
    # one gcd for the whole sum instead of one per addition
    terms = list(terms)
    den = math.lcm(*(t.denominator for t in terms))
    return Fraction(sum(t.numerator * (den // t.denominator) for t in terms), den)


def _as_exact(x: Value) -> Value:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class ExactPmf:
    """Finite-support pmf with exact rational probabilities.

    Support values are integers (or exact rationals for laws living on a
    scaled lattice), sorted strictly increasing; probabilities are positive
    Fractions summing to exactly 1.
    """

    values: tuple[Value, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("support and probabilities must be nonempty and aligned")
        if any(self.values[i] >= self.values[i + 1] for i in range(len(self.values) - 1)):
            raise ValueError("support must be sorted strictly increasing")
        if any(p <= 0 for p in self.probs):
            raise ValueError("probabilities must be positive")
        if _exact_sum(self.probs) != 1:
            raise ValueError("probabilities must sum to 1 exactly")

    @classmethod
    def from_mapping(cls, mapping: Mapping[Value, Fraction]) -> "ExactPmf":
        items = sorted((_as_exact(v), Fraction(p)) for v, p in mapping.items() if p != 0)
        return cls(tuple(v for v, _ in items), tuple(p for _, p in items))

    def items(self) -> Iterable[tuple[Value, Fraction]]:
        return zip(self.values, self.probs)

    def mean(self) -> Fraction:
        return _exact_sum(p * v for v, p in self.items())

    def moment(self, r: int) -> Fraction:
        if r < 0:
            raise ValueError("moment order must be >= 0")
        return _exact_sum(p * v**r for v, p in self.items())

    def abs_moment(self, r: int) -> Fraction:
        return _exact_sum(p * abs(v) ** r for v, p in self.items())

    def pushforward(self, fn: Callable[[Value], Value]) -> "ExactPmf":
        out: dict[Value, Fraction] = {}
        for v, p in self.items():
            w = _as_exact(fn(v))
            out[w] = out[w] + p if w in out else p
        return ExactPmf.from_mapping(out)


def odd_count_pmf(n: int) -> ExactPmf:
    """Exact law of the number of odd-depth vertices in a size-``n``
    random recursive tree: ``P(ell) = <n-1, ell-1> / (n-1)!``."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n == 1:
        return ExactPmf((0,), (Fraction(1),))
    row = _row_values(n - 1)
    denom = math.factorial(n - 1)
    # the law is symmetric (ell <-> n - ell), like the row: reduce half of it
    half = [Fraction(c, denom) for c in row[: n // 2]]
    return ExactPmf(tuple(range(1, n)), tuple(half + half[: (n - 1) // 2][::-1]))


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
