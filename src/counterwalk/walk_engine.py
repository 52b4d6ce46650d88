"""Coupled simulation of counterbalanced and reinforced partial sums.

Step ``m`` is an innovation with probability ``p`` (step 1 always is) and
then draws a fresh value; otherwise it picks a uniform earlier step ``u``
and takes the opposite of ``u``'s step.  The picks form a genealogical
forest: every innovation roots a random recursive tree, and a step's
counterbalanced value is its tree's draw times ``(-1)**depth``, while the
reinforced walk takes the draw itself.  `forest` recovers each step's root
and depth parity from the picks by pointer jumping; every simulator and
every reduction in this module, and the tree sampler of `recursive_tree`,
runs on its output.

Draw layout, shared by `simulate`, `simulate_batch`, `singleton_counts` and
`recursive_tree.sample_odd_counts`: a block of ``w`` replicas on
``seq = np.random.SeedSequence(seed)`` draws from ``default_rng(seq)``,
replica by replica, ``n`` innovation uniforms (step ``j``, 0-based, is an
innovation when its uniform is below ``p``; the first is drawn but ignored)
and then ``n`` pick uniforms (step ``j`` picks ``floor(uniform * j)``);
``seq``'s first spawned child draws one fresh step per innovation, in
replica and step order.  A narrower block draws a prefix of a wider one,
and a block computed in tiles of consecutive replicas draws exactly what it
draws whole, so the tile size changes no value.
Lattice laws (``rademacher``, ``dirac``) are simulated as int64 multiples of
their lattice step, so their sums are exact; float laws finish their sums
as the exact weighted sum over trees, rounded once, by exact integer binning
(`_float_total`), and compensate their partial sums.

numpy is imported by the functions that draw or reduce, not by the module:
the law grammar (`parse_mu_spec`) and the `StepLaw` constructors run
without numpy, so the exact walk oracle and the limit constants never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .eulerian import ExactPmf, Number, _as_exact, _probability
from .replication import child_seed

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StepLaw:
    """Step distribution with sampler and exact moments where they exist.

    ``m1``/``m2`` are present iff analytically finite, as exact rationals.
    ``pmf`` is set only for finitely supported laws (it feeds the exact
    walk oracle).
    """

    kind: str
    params: tuple[Fraction, ...]
    m1: Fraction | None
    m2: Fraction | None
    pmf: ExactPmf | None

    @classmethod
    def rademacher(cls) -> "StepLaw":
        return cls("rademacher", (), Fraction(0), Fraction(1), ExactPmf((-1, 1), (1, 1), 2))

    @classmethod
    def dirac(cls, c: Number) -> "StepLaw":
        c = _float_sized(Fraction(c), "dirac value")
        return cls("dirac", (c,), c, c * c, ExactPmf((_as_exact(c),), (1,), 1))

    @classmethod
    def uniform_symmetric(cls) -> "StepLaw":
        return cls("uniform", (), Fraction(0), Fraction(1, 3), None)

    @classmethod
    def gaussian(cls, mean: Number, variance: Number) -> "StepLaw":
        mean = _float_sized(Fraction(mean), "gaussian mean")
        variance = _float_sized(Fraction(variance), "gaussian variance")
        if variance < 0:
            raise ValueError("gaussian variance must be >= 0")
        return cls("gauss", (mean, variance), mean, variance + mean * mean, None)

    @classmethod
    def pareto_symmetric(cls, alpha: Number) -> "StepLaw":
        alpha = _float_sized(Fraction(alpha), "pareto exponent")
        if float(alpha) <= 0:  # also refuses an exponent that rounds to 0.0
            raise ValueError("pareto exponent must be > 0")
        m1 = Fraction(0) if alpha > 1 else None
        m2 = alpha / (alpha - 2) if alpha > 2 else None
        return cls("pareto", (alpha,), m1, m2, None)

    def spec_string(self) -> str:
        """Canonical spec string; `parse_mu_spec` round-trips it."""
        return f"{self.kind}:{','.join(map(str, self.params))}" if self.params else self.kind

    @property
    def lattice_step(self) -> int | Fraction | None:
        """Step of the lattice an exact law lives on, its pmf's largest value
        (``c`` of ``{-c, +c}`` or of ``dirac:c``); ``None`` for float laws."""
        return None if self.pmf is None else self.pmf.values[-1]

    @property
    def exact(self) -> bool:
        """Whether draws are simulated exactly, as lattice multiples."""
        return self.lattice_step is not None

    def sample_units(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of an exact law as int64 multiples of `lattice_step`."""
        import numpy as np

        if self.kind == "rademacher":
            return 2 * rng.integers(0, 2, size=size) - 1
        if self.kind == "dirac":
            return np.ones(size, dtype=np.int64)
        raise ValueError(f"{self.kind} is not a lattice law")

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as float64 (an exact law's draws are its lattice
        step, rounded to float, times `sample_units`).  Draws are consumed
        one step at a time, so calls of sizes ``k`` and ``m`` in turn give
        the draws of one call of size ``k + m`` from the same generator
        state; the first ``k`` draws are ``sample_batch(rng, k)``.  A draw
        beyond the float range raises `OverflowError`."""
        import numpy as np

        if self.exact:
            return float(self.lattice_step) * self.sample_units(rng, size)
        if self.kind == "uniform":
            return rng.uniform(-1.0, 1.0, size=size)
        if self.kind == "gauss":
            mean, var = self.params
            return rng.normal(float(mean), math.sqrt(float(var)), size=size)
        # one (magnitude, sign) uniform pair per step
        u = rng.random((size, 2))
        x = np.subtract(1.0, u[:, 0])
        with np.errstate(over="ignore"):
            x **= -1.0 / float(self.params[0])
        if x.max(initial=1.0) == math.inf:
            raise OverflowError(f"a {self.spec_string()} step draw")
        # x >= 1 takes the sign of u - 1/2: exact, + at 1/2, shifted in place
        u[:, 1] -= 0.5
        return np.copysign(x, u[:, 1], out=x)


def _float_sized(x: Fraction, name: str) -> Fraction:
    """``x``, once its float64 value is known to be finite: the samplers
    draw in float64."""
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    return x


#: The step-law grammar: kind -> (constructor, parameter count, what the
#: parameters are).  The constructors check the values.
_GRAMMAR = {
    "rademacher": (StepLaw.rademacher, 0, None),
    "dirac": (StepLaw.dirac, 1, "one value, e.g. dirac:1"),
    "uniform": (StepLaw.uniform_symmetric, 0, None),
    "gauss": (StepLaw.gaussian, 2, "mean and variance, e.g. gauss:0,1"),
    "pareto": (StepLaw.pareto_symmetric, 1, "an exponent, e.g. pareto:1.5"),
}


def parse_mu_spec(spec: str) -> StepLaw:
    """Parse the step-law grammar of `_GRAMMAR`:

    ``rademacher | dirac:C | uniform | gauss:MEAN,VAR | pareto:ALPHA``

    Numeric fields accept integers, decimals, and ``a/b`` fractions, all
    parsed exactly.
    """
    head, _, tail = spec.strip().partition(":")
    kind = head.strip().lower()
    if kind not in _GRAMMAR:
        raise ValueError(
            f"invalid step-law spec {spec!r}: unknown kind {kind!r} "
            f"(expected one of {', '.join(_GRAMMAR)})"
        )
    make, count, what = _GRAMMAR[kind]
    try:
        params = [Fraction(field.strip()) for field in tail.split(",")] if tail else []
    except (ValueError, ZeroDivisionError):
        params = None
    try:
        if params is None or len(params) != count:
            raise ValueError(f"{kind} needs {what}" if count else f"{kind} takes no parameters")
        return make(*params)
    except ValueError as exc:
        raise ValueError(f"invalid step-law spec {spec!r}: {exc}") from None


def forest(innov: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and depth parity of every vertex of a genealogical forest.

    The last axis of ``innov`` (bool) and ``picks`` (int) is the 0-based
    step, as in the draw layout of the module docstring; any leading axes
    are independent replicas.  Step ``j`` roots a tree when ``innov[..., j]``
    holds or ``j == 0``, and otherwise hangs below step ``picks[..., j] < j``.
    Returns ``(root, odd)``: the flat (C-order) index of the cell that
    founded each vertex's tree, which is its step for a single replica, and
    whether the vertex sits at odd depth in it.

    Pointer jumping (Wyllie 1979): roots are self-loops, and each round XORs
    the parity bit of a vertex's current target into its own and then jumps
    to the target's target.  A round halves every remaining path, so a
    recursive tree of depth about ``e ln n`` needs about ``log2(e ln n)``
    rounds.
    """
    import numpy as np

    n = innov.shape[-1]
    step = np.arange(n)
    parent = np.where(innov, step, picks)
    parent[..., 0] = 0
    # a hanging step's pick is below it, so exactly the hanging steps start odd
    odd = (~innov).ravel()
    odd[::n] = False
    # flat indices in C order, so one gather serves every replica at once
    target = (parent + n * np.arange(parent.size // n).reshape(innov.shape[:-1] + (1,))).ravel()
    while True:
        jump = target[target]
        if (jump == target).all():
            return target.reshape(innov.shape), odd.reshape(innov.shape)
        odd ^= odd[target]
        target = jump


#: Cells per block of `_tiles`, which fixes the replicas that share a seed,
#: and per tile, which changes no output: small enough that a tile's arrays
#: are reused, not paged in anew.  `recursive_tree` sums uniforms in tiles too.
_BLOCK_CELLS = 1 << 17
_TILE_CELLS = 1 << 13


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The uniform and the fresh-step generator of the block on ``seed``."""
    import numpy as np

    seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])


def _tile(rng: np.random.Generator, n: int, p: float, w: int) -> tuple:
    """The next ``w`` replicas of a block whose uniforms ``rng`` draws:
    returns ``(innov, root, odd)``, each of shape ``(w, n)``."""
    import numpy as np

    u = rng.random((w, 2, n))
    innov = u[:, 0] < p
    innov[:, 0] = True
    picks = (u[:, 1] * np.arange(n)).astype(np.int64)
    # `u` lives through `forest`: freed before it, its pages were faulted in anew each block
    root, odd = forest(innov, picks)
    return innov, root, odd


def _tiles(seed: int, n: int, p: float, reps: int, reduce: Callable, dtype) -> np.ndarray:
    """The one block scheduler, a map over replicas: returns the ``reps``
    values of ``dtype`` that ``reduce(innov, root, odd, steps)`` gives, tile
    by tile.  Blocks of ``_BLOCK_CELLS // n`` replicas, block ``b`` on
    ``child_seed(seed, b)``, run in tiles of ``_TILE_CELLS // n`` (each at
    least 1); a tile draws its fresh steps from ``steps`` before the next.
    Besides the output a call holds one tile, about ``max(n, _TILE_CELLS)``
    cells, at a time, however large ``reps`` is."""
    import numpy as np

    if n < 1:
        raise ValueError("horizon must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    out = np.empty(reps, dtype=dtype)
    width = max(1, _BLOCK_CELLS // n)
    tile = max(1, _TILE_CELLS // n)
    for b, block in enumerate(range(0, reps, width)):
        rng, steps = _streams(child_seed(seed, b))
        end = min(block + width, reps)
        for start in range(block, end, tile):
            stop = min(start + tile, end)
            out[start:stop] = reduce(*_tile(rng, n, p, stop - start), steps)
    return out


def _total(law: StepLaw, a: np.ndarray, weights: np.ndarray) -> Number:
    """``sum(weights * a)`` for integer ``weights``: exact for lattice laws
    (``a`` counts lattice steps); for float laws the exact sum rounded once,
    by exact integer binning (`_float_total`)."""
    if law.exact:
        return _as_exact(law.lattice_step * int(a @ weights))
    return _float_total(a, weights)


def _float_total(a: np.ndarray, weights: np.ndarray) -> float:
    """Correctly rounded ``sum(weights * a)`` of a float64 array and integer
    weights, without one Python float per value (binned exact summation, as
    in Neal 2015, arXiv:1505.05571).

    ``frexp`` writes each value as ``f * 2**e`` with ``0.5 <= |f| < 1``
    (subnormals included), so ``f * 2**53`` is an integer; it is cut into
    signed pieces of 17, 18 and 18 bits, each piece times its weight is
    summed into the bin of ``e`` with `np.bincount`.  A bin's float64 sum
    stays exact while ``sum(|weights|)`` stays below 2**35.  The bins are
    then combined in Python integers and divided once, correctly rounded.
    The result is the exact ``sum(w * a)`` rounded once, which is
    `math.fsum` of each value repeated ``|w|`` times with ``w``'s sign, not
    `math.fsum` of the rounded products ``a * w``; an exact sum beyond the
    float range raises `OverflowError`, and a non-finite input gets exactly
    the value or error of `math.fsum` of the products.
    """
    import numpy as np

    if not np.isfinite(a).all():
        return math.fsum((a * weights).tolist())
    frac, exp = np.frexp(a)
    key = exp.astype(np.intp)
    key += 1073  # frexp exponents of finite doubles lie in -1073..1024
    frac *= 2.0 ** 17
    piece = np.trunc(frac)
    hi = np.bincount(key, weights=piece * weights)
    frac -= piece
    frac *= 2.0 ** 18
    np.trunc(frac, out=piece)
    mid = np.bincount(key, weights=piece * weights)
    frac -= piece
    frac *= 2.0 ** 18
    lo = np.bincount(key, weights=frac * weights)
    used = np.flatnonzero((hi != 0) | (mid != 0) | (lo != 0))
    total = 0
    for k, h, m, low in zip(used.tolist(), hi[used].tolist(), mid[used].tolist(), lo[used].tolist()):
        total += ((int(h) << 36) + (int(m) << 18) + int(low)) << k
    # a value in bin k is (its 53-bit integer) * 2**(k - 1126)
    return total / (1 << 1126)


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Prefix sums: exact for int64 lattice counts; for float64 the plain
    running sum plus its accumulated rounding errors, each recovered exactly
    by TwoSum, which is as accurate as Kahan summation."""
    import numpy as np

    s = np.cumsum(a)
    if s.dtype.kind != "f":
        return s
    prev = np.concatenate(([0.0], s[:-1]))
    b = s - prev
    return s + np.cumsum((prev - (s - b)) + (a - b))


@dataclass(frozen=True, eq=False)
class WalkRun:
    """One realization of the coupled pair of walks.

    Per-step arrays are indexed by step: entry ``m-1`` belongs to step ``m``.
    ``eps`` marks innovations, ``x`` holds one fresh draw per innovation,
    and ``(tree, parity)`` is the genealogical forest: the 0-based index of
    the founding innovation (into ``x``) and the depth parity (True = odd)
    of every vertex.  The finals are weighted sums over trees, read from
    `trees`: ``final_check = sum delta(tree) * draw`` and ``final_hat =
    sum size(tree) * draw``.  For lattice laws ``x`` and the derived step
    and sum arrays count lattice steps of ``law.lattice_step`` (int64); for
    float laws they hold float64 values.  `as_float` turns either into
    values.
    """

    n: int
    law: StepLaw
    eps: np.ndarray
    x: np.ndarray
    tree: np.ndarray
    parity: np.ndarray

    @cached_property
    def trees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-tree ``(size, delta)``, in innovation order: the vertex count
        and the even-minus-odd vertex count (computed once per run)."""
        import numpy as np

        size = np.bincount(self.tree, minlength=self.innovations)
        odd = np.bincount(self.tree, weights=self.parity, minlength=self.innovations)
        return size, size - 2 * odd.astype(np.int64)

    @cached_property
    def x_check(self) -> np.ndarray:
        """Counterbalanced steps: the tree's draw, negated at odd depth
        (computed once per run)."""
        import numpy as np

        base = self.x[self.tree]
        return np.where(self.parity, -base, base)

    @property
    def s_check(self) -> np.ndarray:
        """Partial sums of the counterbalanced walk."""
        return _running_sum(self.x_check)

    @property
    def s_hat(self) -> np.ndarray:
        """Partial sums of the reinforced walk."""
        return _running_sum(self.x[self.tree])

    @property
    def final_check(self) -> Number:
        return _total(self.law, self.x, self.trees[1])

    @property
    def final_hat(self) -> Number:
        return _total(self.law, self.x, self.trees[0])

    @property
    def innovations(self) -> int:
        return len(self.x)

    def as_float(self, a: np.ndarray) -> np.ndarray:
        """Float64 values of ``a``, one of this run's step or sum arrays,
        each correctly rounded: a lattice count times the step's numerator
        is a Python integer, divided once by its denominator."""
        import numpy as np

        step = self.law.lattice_step
        if step is None:
            return a
        num, den = step.numerator, step.denominator
        return np.array([u * num / den for u in a.tolist()], dtype=np.float64)


def simulate(n: int, p: Number, law: StepLaw, seed: int) -> WalkRun:
    """Run the coupled recursion for ``n`` steps as the one-replica block
    on ``seed`` of the module docstring's draw layout; the same seed
    reproduces the run bit for bit."""
    import numpy as np

    if n < 1:
        raise ValueError("horizon must be >= 1")
    rng, steps = _streams(seed)
    (eps,), (root,), (odd,) = _tile(rng, n, float(_probability(p)), 1)
    i_n = int(eps.sum())
    x = law.sample_units(steps, i_n) if law.exact else law.sample_batch(steps, i_n)
    tree = (np.cumsum(eps) - 1)[root]
    return WalkRun(n, law, eps, x, tree, odd)


def forest_census(run: WalkRun) -> dict[int, int]:
    """The tree-size histogram ``nu`` of ``run.trees``: ``nu[k]`` trees
    have ``k`` vertices.

    Satisfies ``sum(k * nu[k]) == n`` and ``sum(nu.values()) == i(n)``.
    """
    import numpy as np

    freq = np.bincount(run.trees[0])
    sizes = np.flatnonzero(freq)
    return dict(zip(sizes.tolist(), freq[sizes].tolist()))


def decompose(run: WalkRun) -> dict[int, Number]:
    """Split the counterbalanced sum by occurrence count.

    Component ``k`` is the weighted sum over trees ``sum delta(tree) *
    draw`` restricted to the trees of size ``k``: exact for exact laws,
    correctly rounded for float laws.
    """
    import numpy as np

    size, delta = run.trees
    return {k: _total(run.law, run.x[size == k], delta[size == k])
            for k in np.unique(size).tolist()}


def representation_residual(run: WalkRun) -> Number:
    """Gap between the counterbalanced walk added up step by step (an
    integer sum for lattice laws, `math.fsum` for float laws) and the forest
    form ``final_check = sum_j delta(tree_j) * draw_j``: exactly 0, since
    both are exact or correctly rounded sums of the same number."""
    steps = run.x_check
    if run.law.exact:
        direct = _as_exact(run.law.lattice_step * int(steps.sum()))
    else:  # a memoryview yields one Python float at a time, with no n-long list
        direct = math.fsum(memoryview(steps))
    return abs(direct - run.final_check)


def simulate_batch(n: int, p: Number, law: StepLaw, reps: int, seed: int) -> np.ndarray:
    """Final counterbalanced sums of ``reps`` independent replicas.

    Each replica follows the same recursion as `simulate`, in the blocks of
    `_tiles`: ``W = max(1, _BLOCK_CELLS // n)`` replicas each, block ``b``
    the module docstring's block on ``child_seed(seed, b)``, so replica 0 is
    the run of ``simulate(n, p, law, child_seed(seed, 0))``.  Its value is
    the forest form ``sum over its trees of delta(tree) * draw``, added up
    in step order.

    Prefix stability: ``W`` depends on ``n`` only, and a short last block
    draws a prefix of what a full block would, so the first ``k`` replicas
    of any run equal the run with ``reps = k``, bit for bit.
    """
    import numpy as np

    def final(innov, root, odd, steps):
        w = len(innov)
        # flat root cells come out replica by replica, as their steps are drawn
        key = root.ravel()
        sign = (1 - 2 * odd.view(np.int8)).astype(np.float64)  # far faster than from bool
        cells = np.flatnonzero(innov)
        delta = np.bincount(key, weights=sign.ravel(), minlength=key.size)[cells]
        x = law.sample_batch(steps, delta.size)
        return np.bincount(cells // n, weights=delta * x, minlength=w)

    return _tiles(seed, n, float(_probability(p)), reps, final, np.float64)


def singleton_counts(n: int, p: Number, reps: int, seed: int) -> np.ndarray:
    """Singleton-tree counts ``nu1`` of the replicas `simulate_batch` runs
    on the same ``n``, ``p``, ``reps`` and ``seed``, whatever its law, read
    from the forest alone: fresh steps have their own generator, so none is
    drawn.  Replica 0 is ``forest_census(simulate(n, p, law,
    child_seed(seed, 0))).get(1, 0)``."""
    import numpy as np

    def singles(innov, root, odd, steps):
        # the size of each tree sits at its root cell
        sizes = np.bincount(root.ravel(), minlength=root.size)
        return (sizes == 1).reshape(root.shape).sum(axis=1)

    return _tiles(seed, n, float(_probability(p)), reps, singles, np.int64)
