"""Coupled simulation of counterbalanced and reinforced partial sums.

Step ``m`` is an innovation with probability ``p`` (step 1 always is) and
then draws a fresh value; otherwise it picks a uniform earlier step ``u``
and takes the opposite of ``u``'s step.  The picks form a genealogical
forest: every innovation roots a random recursive tree, and a step's
counterbalanced value is its tree's draw times ``(-1)**depth``, while the
reinforced walk takes the draw itself.  `forest` recovers each step's root
and depth parity by pointer jumping over the parent cells that `_tile`
builds from the picks; every simulator and
every reduction in this module, and the tree sampler of `recursive_tree`,
runs on its output.

Draw layout, shared by `simulate_runs` (and `simulate`, its one-seed
case), `simulate_batch`, `singleton_counts` and
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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .eulerian import ExactPmf, Number, _as_exact, _probability, _rational
from .replication import child_seed

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StepLaw:
    """Step distribution with sampler and exact moments where they exist.

    ``m1``/``m2`` are present iff analytically finite, as exact rationals.
    ``pmf`` is set only for finitely supported laws, and such a law is its
    pmf: the walk oracle, `lattice_step` and `sample_units` all read it, so
    a law on ``{-c, +c}`` needs no sampler of its own.
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
        c = _float_sized(c, "dirac value")
        return cls("dirac", (c,), c, c * c, ExactPmf((_as_exact(c),), (1,), 1))

    @classmethod
    def uniform_symmetric(cls) -> "StepLaw":
        return cls("uniform", (), Fraction(0), Fraction(1, 3), None)

    @classmethod
    def gaussian(cls, mean: Number, variance: Number) -> "StepLaw":
        mean = _float_sized(mean, "gaussian mean")
        variance = _float_sized(variance, "gaussian variance")
        if variance < 0:
            raise ValueError("gaussian variance must be >= 0")
        return cls("gauss", (mean, variance), mean, variance + mean * mean, None)

    @classmethod
    def pareto_symmetric(cls, alpha: Number) -> "StepLaw":
        alpha = _float_sized(alpha, "pareto exponent")
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
        """``size`` draws of an exact law as int64 multiples of `lattice_step`:
        a uniform integer below ``pmf.denom`` indexes the table that repeats
        each unit by its weight, which inverts the pmf by a gather, not a search."""
        import numpy as np

        if self.pmf is None:
            raise ValueError(f"{self.kind} is not a lattice law")
        if len(self.pmf.values) == 1:  # one unit, dirac:0 too; `integers(0, 1)` would draw nothing
            return np.ones(size, dtype=np.int64)
        units, rest = zip(*(divmod(v, self.lattice_step) for v in self.pmf.values))
        if any(rest):
            raise ValueError(f"{self.kind} does not live on the lattice of its largest value")
        table = np.repeat(np.array(units, dtype=np.int64), self.pmf.weights)
        return table[rng.integers(0, self.pmf.denom, size=size)]

    def sample_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as float64 (an exact law's draws are its lattice
        step, rounded to float, times `sample_units`).  Draws are consumed
        one step at a time, so calls of sizes ``k`` and ``m`` in turn give
        the draws of one call of size ``k + m`` from the same generator
        state; the first ``k`` draws are ``sample_batch(rng, k)``.  A draw
        beyond the float range raises `OverflowError`."""
        if self.exact:
            return float(self.lattice_step) * self.sample_units(rng, size)
        return _GRAMMAR[self.kind][3](self, rng, size)


def _gauss_draws(law: StepLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    mean, var = law.params
    return rng.normal(float(mean), math.sqrt(float(var)), size=size)


def _pareto_draws(law: StepLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """One (magnitude, sign) uniform pair per step of `pareto_phi1`'s law."""
    import numpy as np

    u = rng.random((size, 2))
    x = np.subtract(1.0, u[:, 0])
    with np.errstate(over="ignore"):
        x **= -1.0 / float(law.params[0])
    if x.max(initial=1.0) == math.inf:
        raise OverflowError(f"a {law.spec_string()} step draw")
    # x >= 1 takes the sign of u - 1/2: exact, + at 1/2, shifted in place
    u[:, 1] -= 0.5
    return np.copysign(x, u[:, 1], out=x)


def pareto_phi1(alpha: float, n: int) -> float:
    """Exact finite-``n`` unit exponent ``-n log phi_X(t)``, ``t = n**(-1/alpha)``,
    of the symmetric Pareto law ``P(|X| > x) = x**-alpha`` (``x >= 1``), so
    that ``exp(-phi1)`` is the characteristic function of the i.i.d. sum
    ``(X_1 + ... + X_n) / n**(1/alpha)`` at 1.

    Uses ``1 - phi_X(t) = alpha t^alpha [C - sum_{k>=1} (-1)^(k+1)
    t^(2k-alpha) / ((2k)! (2k-alpha))]``, where ``C = int_0^inf (1 - cos u)
    u^(-alpha-1) du = -Gamma(-alpha) cos(pi alpha / 2)``, evaluated in its
    reflected form ``pi / (2 Gamma(1+alpha) sin(pi alpha / 2))``; that form
    has no pole at ``alpha = 1``, where ``C = pi / 2``.
    """
    if not 0 < alpha < 2:
        raise ValueError("alpha must lie in (0, 2)")
    if n < 1:
        raise ValueError("n must be >= 1")
    t = n ** (-1.0 / alpha)
    c = math.pi / (2.0 * math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))
    # t <= 1, so ten terms reach double precision: the next is below 1/22!
    series = sum((-1) ** (k + 1) * t ** (2 * k - alpha) / (math.factorial(2 * k) * (2 * k - alpha))
                 for k in range(1, 11))
    # alpha * t**alpha is alpha / n
    one_minus_phi = alpha / n * (c - series)
    if one_minus_phi >= 1.0:
        raise ValueError("characteristic function is not positive at t = n**(-1/alpha)")
    return -n * math.log1p(-one_minus_phi)


def _float_sized(x: Number | str, name: str) -> Fraction:
    """``x`` as an exact rational with a finite float64 value: the samplers draw in float64."""
    x = _rational(x, name)
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    return x


#: The step-law grammar, one row per kind: (constructor, parameter count,
#: what the parameters are, float sampler ``(law, rng, size)`` that
#: `StepLaw.sample_batch` calls).  The constructors check the values; a
#: lattice kind has no sampler, as it draws from its pmf.
_GRAMMAR = {
    "rademacher": (StepLaw.rademacher, 0, None, None),
    "dirac": (StepLaw.dirac, 1, "one value, e.g. dirac:1", None),
    "uniform": (StepLaw.uniform_symmetric, 0, None, lambda law, rng, size: rng.uniform(-1.0, 1.0, size=size)),
    "gauss": (StepLaw.gaussian, 2, "mean and variance, e.g. gauss:0,1", _gauss_draws),
    "pareto": (StepLaw.pareto_symmetric, 1, "an exponent, e.g. pareto:1.5", _pareto_draws),
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
    make, count, what, _ = _GRAMMAR[kind]
    try:
        params = [_rational(field, kind) for field in tail.split(",")] if tail else []
    except ValueError:
        params = None
    try:
        if params is None or len(params) != count:
            raise ValueError(f"{kind} needs {what}" if count else f"{kind} takes no parameters")
        return make(*params)
    except ValueError as exc:
        raise ValueError(f"invalid step-law spec {spec!r}: {exc}") from None


def forest(innov: np.ndarray, parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root and depth parity of every cell of a genealogical forest.

    ``innov`` (bool) and ``parent`` (int) are flat arrays over the same
    cells, the steps of one or more replicas in C order as `_tile` lays
    them out.  A root has ``innov`` set and is its own parent; any other
    cell hangs below ``parent``, an earlier cell of its own replica.
    Returns ``(root, odd)``, flat: the cell that founded each cell's tree,
    which is its step for a single replica, and whether the cell sits at
    odd depth in it.

    Pointer jumping (Wyllie 1979): roots are self-loops, and each round XORs
    the parity bit of a cell's current target into its own and then jumps
    to the target's target.  A round halves every remaining path, so a
    recursive tree of depth about ``e ln n`` needs about ``log2(e ln n)``
    rounds.
    """
    # a hanging cell sits one level below its parent, so exactly those start odd
    odd = ~innov
    target = parent
    while True:
        jump = target[target]
        if (jump == target).all():
            return target, odd
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


def _grid(n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's step (float64) and row base ``r * n`` (int64), flat in C
    order over a tile of ``w`` replicas of ``n`` steps; a narrower tile
    reads a prefix."""
    import numpy as np

    return np.tile(np.arange(n, dtype=np.float64), w), np.repeat(np.arange(0, w * n, n), n)


def _tile(rng: np.random.Generator, n: int, p: float, w: int, grid: tuple) -> tuple:
    """The next ``w`` replicas of a block whose uniforms ``rng`` draws, on a
    `_grid` of at least ``w`` replicas: returns ``(innov, root, odd)``, flat
    over the tile's cells in C order.

    One pass reads the innovation half of the draws and one the pick half,
    each into contiguous cells; every later pass runs over the flat cells,
    not over the short step axis.  A cell's parent is
    ``floor(max(u1, innov) * step)`` plus its row base: for a hanging step
    its pick, as ``u1 < 1`` puts ``u1 * step`` below the step (for steps
    below 2**53), and for an innovation the cell itself, a self-loop that
    `forest` reads as a root."""
    import numpy as np

    m = w * n
    step, base = grid[0][:m], grid[1][:m]
    u = rng.random((w, 2, n))
    innov = u[:, 0] < p
    innov[:, 0] = True
    parent = np.maximum(u[:, 1], innov).reshape(m)
    parent *= step
    parent = parent.astype(np.int64)
    parent += base
    innov = innov.reshape(m)
    # `u` lives through `forest`: freed before it, its pages were faulted in anew each block
    root, odd = forest(innov, parent)
    return innov, root, odd


def _tiles(seed: int, n: int, p: float, reps: int, reduce: Callable, dtype) -> np.ndarray:
    """The one block scheduler, a map over replicas: returns the ``reps``
    values of ``dtype`` that ``reduce(innov, root, odd, steps)`` gives, tile
    by tile.  Blocks of ``_BLOCK_CELLS // n`` replicas, block ``b`` on
    ``child_seed(seed, b)``, run in tiles of ``_TILE_CELLS // n`` (each at
    least 1), all on one `_grid` built for the widest tile; a tile draws
    its fresh steps from ``steps`` before the next.  Besides the output a
    call holds that grid and one tile, each about ``max(n, _TILE_CELLS)``
    cells, at a time, however large ``reps`` is."""
    import numpy as np

    if n < 1:
        raise ValueError("horizon must be >= 1")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    out = np.empty(reps, dtype=dtype)
    width = max(1, _BLOCK_CELLS // n)
    tile = max(1, _TILE_CELLS // n)
    grid = _grid(n, min(tile, reps))
    for b, block in enumerate(range(0, reps, width)):
        rng, steps = _streams(child_seed(seed, b))
        end = min(block + width, reps)
        for start in range(block, end, tile):
            stop = min(start + tile, end)
            out[start:stop] = reduce(*_tile(rng, n, p, stop - start, grid), steps)
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
    """One realization of the coupled pair of walks, held as the forest
    `_tile` draws.

    Per-step arrays are indexed by step: entry ``m-1`` belongs to step ``m``.
    ``eps`` marks innovations, ``x`` holds one fresh draw per innovation,
    and ``(root, parity)`` is the genealogical forest: the step of the
    innovation that founded each vertex's tree and the vertex's depth
    parity (True = odd).  Everything a run reports is a reduction over it;
    the finals are weighted sums over trees, read from `trees`:
    ``final_check = sum delta(tree) * draw`` and ``final_hat = sum
    size(tree) * draw``.  For lattice laws ``x`` and the derived step and
    sum arrays count lattice steps of ``law.lattice_step`` (int64); for
    float laws they hold float64 values.  `as_float` turns either into
    values.
    """

    n: int
    law: StepLaw
    eps: np.ndarray
    x: np.ndarray
    root: np.ndarray
    parity: np.ndarray

    @property
    def tree(self) -> np.ndarray:
        """Each step's tree as the 0-based index of its draw in ``x``."""
        import numpy as np

        return (np.cumsum(self.eps) - 1)[self.root]

    @cached_property
    def trees(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-tree ``(size, delta)``, in innovation order: the vertex count
        and the even-minus-odd vertex count, which sit at each tree's root
        step (computed once per run)."""
        import numpy as np

        # read at the root steps by index: an `eps` mask, random bits, is several times slower
        cells = np.flatnonzero(self.eps)
        size = np.bincount(self.root, minlength=self.n)[cells]
        odd = np.bincount(self.root, weights=self.parity, minlength=self.n)[cells]
        return size, size - 2 * odd.astype(np.int64)

    @cached_property
    def x_hat(self) -> np.ndarray:
        """Reinforced steps: each step takes its tree's draw, scattered to
        the root steps and gathered at every step's root (computed once per
        run)."""
        import numpy as np

        draw = np.empty(self.n, dtype=self.x.dtype)
        draw[np.flatnonzero(self.eps)] = self.x
        return draw[self.root]

    @cached_property
    def x_check(self) -> np.ndarray:
        """Counterbalanced steps: the tree's draw, negated at odd depth
        (computed once per run)."""
        import numpy as np

        return np.where(self.parity, -self.x_hat, self.x_hat)

    @property
    def s_check(self) -> np.ndarray:
        """Partial sums of the counterbalanced walk."""
        return _running_sum(self.x_check)

    @property
    def s_hat(self) -> np.ndarray:
        """Partial sums of the reinforced walk."""
        return _running_sum(self.x_hat)

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
    return next(simulate_runs(n, p, law, (seed,)))


def simulate_runs(n: int, p: Number, law: StepLaw, seeds: Iterable[int]) -> Iterator[WalkRun]:
    """``simulate(n, p, law, seed)`` for each of ``seeds`` in turn, lazily,
    with ``p`` parsed and the one-replica `_grid` built once, when called.
    A run's fresh steps are drawn as it is yielded, so an overflowing draw
    raises from the iterator."""
    import numpy as np

    if n < 1:
        raise ValueError("horizon must be >= 1")
    p = float(_probability(p))
    grid = _grid(n, 1)

    def run(seed: int) -> WalkRun:
        rng, steps = _streams(seed)
        eps, root, odd = _tile(rng, n, p, 1, grid)
        i_n = int(np.count_nonzero(eps))
        x = law.sample_units(steps, i_n) if law.exact else law.sample_batch(steps, i_n)
        return WalkRun(n, law, eps, x, root, odd)

    return map(run, seeds)


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
        # the root cells come out replica by replica, as their steps are drawn
        sign = (1 - 2 * odd.view(np.int8)).astype(np.float64)  # far faster than from bool
        cells = np.flatnonzero(innov)
        delta = np.bincount(root, weights=sign, minlength=root.size)[cells]
        x = law.sample_batch(steps, delta.size)
        return np.bincount(cells // n, weights=delta * x, minlength=root.size // n)

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
        sizes = np.bincount(root, minlength=root.size)
        return (sizes == 1).reshape(-1, n).sum(axis=1)

    return _tiles(seed, n, float(_probability(p)), reps, singles, np.int64)
