"""Coupled simulation of counterbalanced and reinforced partial sums.

Step ``m`` is an innovation with probability ``p`` (step 1 always is) and
then draws a fresh value; otherwise it picks a uniform earlier step ``u``
and takes the opposite of ``u``'s step.  The picks form a genealogical
forest: every innovation roots a random recursive tree, and a step's
counterbalanced value is its tree's draw times ``(-1)**depth``, while the
reinforced walk takes the draw itself.  `forest` recovers each step's root
and depth parity from the picks by pointer jumping; every simulator and
every reduction in this module runs on its output.

`simulate` consumes its generator in a fixed order: ``n`` innovation
uniforms (step ``j``, 0-based, is an innovation when its uniform is below
``p``; the first is drawn but ignored), then ``n`` pick uniforms (step
``j`` picks ``floor(uniform * j)``), then one fresh step per innovation.
Lattice laws (``rademacher``, ``dirac``) are simulated as int64 multiples of
their lattice step, so their sums are exact; float laws finish their sums
with `math.fsum` and compensate their partial sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .replication import child_seed

Number = Union[int, float, Fraction]

_KINDS = ("rademacher", "dirac", "uniform", "gauss", "pareto")


def _exact(x: Number) -> Number:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class StepLaw:
    """Step distribution with sampler and exact moments where they exist.

    ``m1``/``m2`` are present iff analytically finite, as exact rationals.
    ``discrete_support``/``discrete_probs`` are set only for finitely
    supported laws (they feed the exhaustive oracle).
    """

    kind: str
    params: tuple[Fraction, ...]
    m1: Fraction | None
    m2: Fraction | None
    discrete_support: tuple[Number, ...] | None
    discrete_probs: tuple[Fraction, ...] | None
    exact: bool

    @classmethod
    def rademacher(cls) -> "StepLaw":
        return cls(
            "rademacher", (), Fraction(0), Fraction(1),
            (-1, 1), (Fraction(1, 2), Fraction(1, 2)), True,
        )

    @classmethod
    def dirac(cls, c: Number) -> "StepLaw":
        c = Fraction(c)
        return cls("dirac", (c,), c, c * c, (_exact(c),), (Fraction(1),), True)

    @classmethod
    def uniform_symmetric(cls) -> "StepLaw":
        return cls("uniform", (), Fraction(0), Fraction(1, 3), None, None, False)

    @classmethod
    def gaussian(cls, mean: Number, variance: Number) -> "StepLaw":
        mean, variance = Fraction(mean), Fraction(variance)
        if variance < 0:
            raise ValueError("gaussian variance must be >= 0")
        return cls("gauss", (mean, variance), mean, variance + mean * mean, None, None, False)

    @classmethod
    def pareto_symmetric(cls, alpha: Number) -> "StepLaw":
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("pareto exponent must be > 0")
        m1 = Fraction(0) if alpha > 1 else None
        m2 = alpha / (alpha - 2) if alpha > 2 else None
        return cls("pareto", (alpha,), m1, m2, None, None, False)

    def spec_string(self) -> str:
        """Canonical spec string; `parse_mu_spec` round-trips it."""
        if self.kind == "rademacher":
            return "rademacher"
        if self.kind == "dirac":
            return f"dirac:{self.params[0]}"
        if self.kind == "uniform":
            return "uniform"
        if self.kind == "gauss":
            return f"gauss:{self.params[0]},{self.params[1]}"
        return f"pareto:{self.params[0]}"

    @property
    def lattice_step(self) -> Fraction | None:
        """Step of the lattice an exact law lives on; ``None`` for float laws."""
        if self.kind == "rademacher":
            return Fraction(1)
        if self.kind == "dirac":
            return self.params[0]
        return None

    def sample_units(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of an exact law as int64 multiples of `lattice_step`."""
        if self.kind == "rademacher":
            return 2 * rng.integers(0, 2, size=size) - 1
        if self.kind == "dirac":
            return np.ones(size, dtype=np.int64)
        raise ValueError(f"{self.kind} is not a lattice law")

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as float64 (an exact law's draws are its lattice
        step, rounded to float, times `sample_units`)."""
        if self.exact:
            return float(self.lattice_step) * self.sample_units(rng, size)
        if self.kind == "uniform":
            return rng.uniform(-1.0, 1.0, size=size)
        if self.kind == "gauss":
            mean, var = self.params
            return rng.normal(float(mean), math.sqrt(float(var)), size=size)
        alpha = float(self.params[0])
        mag = (1.0 - rng.random(size)) ** (-1.0 / alpha)
        sign = 2 * rng.integers(0, 2, size=size) - 1
        return mag * sign


def parse_mu_spec(spec: str) -> StepLaw:
    """Parse the step-law grammar:

    ``rademacher | dirac:C | uniform | gauss:MEAN,VAR | pareto:ALPHA``

    Numeric fields accept integers, decimals, and ``a/b`` fractions, all
    parsed exactly.
    """
    head, _, tail = spec.strip().partition(":")
    head = head.lower()
    try:
        if head == "rademacher":
            _require_no_params(head, tail)
            return StepLaw.rademacher()
        if head == "uniform":
            _require_no_params(head, tail)
            return StepLaw.uniform_symmetric()
        if head == "dirac":
            return StepLaw.dirac(_parse_number(tail, "dirac needs one value, e.g. dirac:1"))
        if head == "gauss":
            parts = tail.split(",")
            if len(parts) != 2:
                raise ValueError("gauss needs mean and variance, e.g. gauss:0,1")
            return StepLaw.gaussian(_parse_number(parts[0], "bad gauss mean"),
                                    _parse_number(parts[1], "bad gauss variance"))
        if head == "pareto":
            return StepLaw.pareto_symmetric(_parse_number(tail, "pareto needs an exponent, e.g. pareto:1.5"))
    except ValueError as exc:
        raise ValueError(f"invalid step-law spec {spec!r}: {exc}") from None
    raise ValueError(
        f"invalid step-law spec {spec!r}: unknown kind {head!r} "
        f"(expected one of {', '.join(_KINDS)})"
    )


def _require_no_params(head: str, tail: str) -> None:
    if tail:
        raise ValueError(f"{head} takes no parameters")


def _parse_number(text: str, message: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(message) from None




def forest(innov: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and depth parity of every vertex of a genealogical forest.

    Axis 0 of ``innov`` (bool) and ``picks`` (int) is the 0-based step; any
    further axes are independent replicas.  Step ``j`` roots a tree when
    ``innov[j]`` holds or ``j == 0``, and otherwise hangs below step
    ``picks[j] < j``.  Returns ``(root, odd)``: the step that founded each
    vertex's tree, and whether the vertex sits at odd depth in it.

    Pointer jumping (Wyllie 1979): roots are self-loops, and each round XORs
    the parity bit of a vertex's current target into its own and then jumps
    to the target's target.  A round halves every remaining path, so a
    recursive tree of depth about ``e ln n`` needs about ``log2(e ln n)``
    rounds.
    """
    n = innov.shape[0]
    step = np.arange(n).reshape((n,) + (1,) * (innov.ndim - 1))
    parent = np.where(innov, step, picks)
    parent[0] = 0
    odd = (parent != step).ravel()
    width = parent.size // n
    # flat indices in C order, so one gather serves every replica at once
    target = (parent * width + np.arange(width).reshape(innov.shape[1:])).ravel()
    while True:
        jump = target[target]
        if np.array_equal(jump, target):
            return (target // width).reshape(innov.shape), odd.reshape(innov.shape)
        odd ^= odd[target]
        target = jump


def _picks(u: np.ndarray) -> np.ndarray:
    """Parent picks ``floor(u[j] * j)`` from pick uniforms (axis 0 is the step)."""
    step = np.arange(u.shape[0]).reshape((-1,) + (1,) * (u.ndim - 1))
    return (u * step).astype(np.int64)


def _total(law: StepLaw, a: np.ndarray) -> Number:
    """Sum of an array of step values: exact for lattice laws (``a`` counts
    lattice steps), correctly rounded (`math.fsum`) for float laws."""
    if law.exact:
        return _exact(law.lattice_step * int(a.sum()))
    return math.fsum(a.tolist())


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Prefix sums: exact for int64 lattice counts; for float64 the plain
    running sum plus its accumulated rounding errors, each recovered exactly
    by TwoSum, which is as accurate as Kahan summation."""
    s = np.cumsum(a)
    if s.dtype.kind != "f":
        return s
    prev = np.concatenate(([0.0], s[:-1]))
    b = s - prev
    return s + np.cumsum((prev - (s - b)) + (a - b))


@dataclass(eq=False)
class WalkRun:
    """One realization of the coupled pair of walks.

    Per-step arrays are indexed by step: entry ``m-1`` belongs to step ``m``.
    ``eps`` marks innovations, ``v`` holds each counterbalancing step's pick
    ``u`` in ``1..m-1`` (0 on innovation steps), ``x`` holds one fresh draw
    per innovation, and ``(tree_id, parity)`` is the genealogical forest:
    the founding innovation's index (1-based) and the depth parity (True =
    odd) of every vertex.  For lattice laws ``x`` and the derived step and
    sum arrays count lattice steps of ``law.lattice_step`` (int64); for
    float laws they hold float64 values.  `as_float` turns either into
    values.
    """

    n: int
    p: Fraction
    law: StepLaw
    seed: int | None
    eps: np.ndarray
    v: np.ndarray
    x: np.ndarray
    tree_id: np.ndarray
    parity: np.ndarray

    @property
    def x_check(self) -> np.ndarray:
        """Counterbalanced steps: the tree's draw, negated at odd depth."""
        base = self.x[self.tree_id - 1]
        return np.where(self.parity, -base, base)

    @property
    def s_check(self) -> np.ndarray:
        """Partial sums of the counterbalanced walk."""
        return _running_sum(self.x_check)

    @property
    def s_hat(self) -> np.ndarray:
        """Partial sums of the reinforced walk."""
        return _running_sum(self.x[self.tree_id - 1])

    @property
    def final_check(self) -> Number:
        return _total(self.law, self.x_check)

    @property
    def final_hat(self) -> Number:
        return _total(self.law, self.x[self.tree_id - 1])

    @property
    def innovations(self) -> int:
        return len(self.x)

    def as_float(self, a: np.ndarray) -> np.ndarray:
        """Float64 values of ``a``, one of this run's step or sum arrays
        (correctly rounded while ``|a| * numerator`` stays below 2**53)."""
        step = self.law.lattice_step
        if step is None:
            return a
        return a * step.numerator / step.denominator


def simulate(n: int, p: Number, law: StepLaw, rng: np.random.Generator, seed: int | None = None) -> WalkRun:
    """Run the coupled recursion for ``n`` steps, drawing from ``rng`` in the
    order the module docstring pins; the same stream state reproduces the
    run bit for bit."""
    if n < 1:
        raise ValueError("horizon must be >= 1")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("innovation probability must lie in [0, 1]")
    eps = rng.random(n) < float(p)
    eps[0] = True
    picks = _picks(rng.random(n))
    root, odd = forest(eps, picks)
    i_n = int(eps.sum())
    x = law.sample_units(rng, i_n) if law.exact else law.sample_batch(rng, i_n)
    tree_id = np.cumsum(eps)[root]
    v = np.where(eps, 0, picks + 1)
    return WalkRun(n, p, law, seed, eps, v, x, tree_id, odd)


def simulate_seeded(n: int, p: Number, law: StepLaw, seed: int) -> WalkRun:
    """`simulate` with a fresh ``np.random.default_rng(seed)`` stream."""
    return simulate(n, p, law, np.random.default_rng(seed), seed=seed)


@dataclass(frozen=True)
class ForestCensus:
    """Occurrence statistics of the genealogical forest of one run.

    ``occurrences[j-1]`` counts how often innovation ``j`` was used,
    ``nu[k]`` counts trees of size ``k``, ``nu_shape`` counts trees of
    size <= ``shape_cap`` keyed by their local parent sequence, and
    ``delta_per_tree`` holds each tree's even-minus-odd vertex count.
    """

    occurrences: np.ndarray
    nu: dict[int, int]
    nu_shape: dict[tuple[int, ...], int]
    delta_per_tree: np.ndarray
    shape_cap: int


def _tree_stats(run: WalkRun) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree sizes and even-minus-odd deltas, in innovation order."""
    t = run.tree_id - 1
    counts = np.bincount(t, minlength=run.innovations)
    odd = np.bincount(t, weights=run.parity, minlength=run.innovations).astype(np.int64)
    return counts, counts - 2 * odd


def forest_census(run: WalkRun, shape_cap: int = 6) -> ForestCensus:
    """Cut innovation edges and census the resulting trees.

    Satisfies ``sum(k * nu[k]) == n`` and ``sum(nu.values()) == i(n)``.
    Shapes are tracked only up to ``shape_cap`` vertices; larger trees
    still contribute to ``nu`` and ``delta_per_tree``.  A tree's shape is
    the sequence of its vertices' parents, numbered by arrival inside the
    tree.
    """
    counts, deltas = _tree_stats(run)
    sizes, freq = np.unique(counts, return_counts=True)
    nu = dict(zip(sizes.tolist(), freq.tolist()))
    nu_shape: dict[tuple[int, ...], int] = {}
    if shape_cap >= 1 and 1 in nu:
        nu_shape[()] = nu[1]
    big = [k for k in nu if 2 <= k <= shape_cap]
    if big:
        t = run.tree_id - 1
        order = np.argsort(t, kind="stable")  # vertices grouped by tree, in step order
        local = np.empty(run.n, dtype=np.int64)
        local[order] = np.arange(1, run.n + 1) - np.repeat(np.cumsum(counts) - counts, counts)
        size_of = counts[t[order]]
        for k in big:
            # the k-1 non-root vertices of each size-k tree are adjacent in `order`
            members = order[(size_of == k) & ~run.eps[order]]
            seqs, seq_freq = np.unique(local[run.v[members] - 1].reshape(-1, k - 1),
                                       axis=0, return_counts=True)
            for seq, c in zip(seqs.tolist(), seq_freq.tolist()):
                nu_shape[tuple(seq)] = c
    return ForestCensus(counts, nu, nu_shape, deltas, shape_cap)


def decompose(run: WalkRun) -> dict[int, Number]:
    """Split the counterbalanced sum by occurrence count.

    Component ``k`` collects ``delta(tree) * draw`` over the trees of size
    ``k``; the components reconstruct the final position (exactly for
    exact laws, to 1e-9 relative for float laws).
    """
    counts, deltas = _tree_stats(run)
    order = np.argsort(counts, kind="stable")
    sizes, starts = np.unique(counts[order], return_index=True)
    groups = np.split((deltas * run.x)[order], starts[1:])
    return {int(k): _total(run.law, terms) for k, terms in zip(sizes, groups)}


def representation_residual(run: WalkRun) -> Number:
    """Gap between the per-step sum of the counterbalanced walk and the
    forest form ``sum_j delta(tree_j) * draw_j``: exactly 0 for exact laws,
    tiny (<= 1e-9 relative) for float laws."""
    _, deltas = _tree_stats(run)
    return abs(run.final_check - _total(run.law, deltas * run.x))


@dataclass
class BatchSummary:
    """Final-value statistics of many independent replicas.

    Census fields are ``None`` when the census was skipped; ``nu_k`` column
    ``k-1`` counts trees of size ``k`` (sizes above ``nu_kmax`` are only
    reflected in ``i_n``).
    """

    n: int
    p: Fraction
    law: StepLaw
    seed: int
    reps: int
    s_check: np.ndarray
    s_hat: np.ndarray
    i_n: np.ndarray
    nu1: np.ndarray | None
    nu_k: np.ndarray | None
    sum_delta_sq: np.ndarray | None


#: Cells per `forest` call in `simulate_batch`: small enough that a block's
#: pointer arrays stay in cache.
_BLOCK_CELLS = 1 << 17


def simulate_batch(
    n: int,
    p: Number,
    law: StepLaw,
    reps: int,
    seed: int,
    *,
    census: bool = True,
    nu_kmax: int = 8,
) -> BatchSummary:
    """High-throughput final-value runner, vectorized across replicas.

    Each replica follows the same recursion as `simulate`.  Replicas run in
    chunks; each chunk draws from its own substream (seeded by an avalanche
    mix of ``seed`` and the chunk index) three ``(n, rows_in_chunk)``
    matrices in turn: innovation uniforms, pick uniforms, fresh steps.
    Results are deterministic for fixed arguments, but a replica's draws
    depend on how many replicas share its chunk, so changing ``reps``
    changes every replica's result, the shared ones included.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("innovation probability must lie in [0, 1]")
    pf = float(p)

    s_check = np.empty(reps)
    s_hat = np.empty(reps)
    i_n = np.empty(reps, dtype=np.int64)
    nu1 = np.empty(reps, dtype=np.int64) if census else None
    nu_k = np.empty((reps, nu_kmax), dtype=np.int64) if census else None
    sum_dsq = np.empty(reps) if census else None

    # layout is (step, replica); the chunk budget keeps a chunk's draws
    # well under a gigabyte
    chunk_rows = max(1, min(65536, (1 << 24) // n))
    block = max(1, _BLOCK_CELLS // n)
    for ci, start in enumerate(range(0, reps, chunk_rows)):
        stop = min(start + chunk_rows, reps)
        rows_n = stop - start
        rng = np.random.default_rng(child_seed(seed, ci))
        eps_mat = rng.random((n, rows_n)) < pf
        u_att = rng.random((n, rows_n))
        xval = law.sample_batch(rng, n * rows_n).reshape(n, rows_n)
        i_n[start:stop] = 1 + eps_mat[1:].sum(axis=0, dtype=np.int64)
        odd = np.empty((n, rows_n), dtype=bool)
        for b0 in range(0, rows_n, block):
            cols = slice(b0, min(b0 + block, rows_n))
            root, odd[:, cols] = forest(eps_mat[:, cols], _picks(u_att[:, cols]))
            # every step takes its root's fresh draw (the reinforced step)
            xval[:, cols] = np.take_along_axis(xval[:, cols], root, axis=0)
            if census:
                rows = slice(start + cols.start, start + cols.stop)
                nu1[rows], nu_k[rows], sum_dsq[rows] = _census_block(root, odd[:, cols], nu_kmax)
        del eps_mat, u_att
        # the summation order (along the step axis of the (n, rows) layout)
        # fixes the bits of the float totals; keep it
        s_hat[start:stop] = xval.sum(axis=0)
        np.negative(xval, out=xval, where=odd)
        s_check[start:stop] = xval.sum(axis=0)

    return BatchSummary(n, p, law, seed, reps, s_check, s_hat, i_n, nu1, nu_k, sum_dsq)


def _census_block(root: np.ndarray, odd: np.ndarray, nu_kmax: int):
    """Singleton count, trees per size ``1..nu_kmax`` and sum of squared
    deltas of each replica whose forest is a column of ``(root, odd)``."""
    n, width = root.shape
    key = (root + n * np.arange(width)).ravel()
    counts = np.bincount(key, minlength=n * width).reshape(width, n)
    odds = np.bincount(key, weights=odd.ravel(), minlength=n * width).reshape(width, n)
    deltas = counts - 2 * odds.astype(np.int64)
    # trees per size, larger sizes pooled in the last column
    cap = max(nu_kmax, 1) + 1
    sizes = np.minimum(counts, cap) + (cap + 1) * np.arange(width)[:, None]
    hist = np.bincount(sizes.ravel(), minlength=(cap + 1) * width).reshape(width, cap + 1)
    return hist[:, 1], hist[:, 1 : nu_kmax + 1], (deltas * deltas).sum(axis=1)
