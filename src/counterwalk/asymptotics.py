"""Closed-form limit constants, series identities, and the stable exponent.

All rational-input operations return exact `Fraction` values; the only
floating point lives in the float heads of `yule_simon_series` and
`sigma_sq_series`, in the stable characteristic exponent and in
`pareto_phi1`.  Every Beta-weighted series takes ``B_k = B(k, 1+rho)`` from
one recurrence, `_betas` (`beta_of_k` looks up one ``B_k`` in closed form),
never from gamma-function floats, and closes with the telescoped remainder
of `beta_remainders`, so the identity checks can demand exact equality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .eulerian import Number, _probability, delta_moment, odd_count_pmf


def _frac(x: Number, name: str) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name} must be a rational number") from exc


def _open01(p: Number, allow_one: bool = False) -> Fraction:
    p = _frac(p, "p")
    if allow_one:
        if not 0 < p <= 1:
            raise ValueError("innovation probability must lie in (0, 1]")
    elif not 0 < p < 1:
        raise ValueError("innovation probability must lie strictly in (0, 1)")
    return p


def rho_of(p: Number) -> Fraction:
    """The reinforcement exponent ``1 / (1 - p)``."""
    p = _frac(p, "p")
    if p >= 1:
        raise ValueError("rho is finite only for p < 1")
    return 1 / (1 - p)


def rising_factorial(x: Number, k: int) -> Fraction:
    """``x (x+1) ... (x+k-1)`` with the empty product equal to 1."""
    if k < 0:
        raise ValueError("order must be >= 0")
    x = _frac(x, "x")
    if x <= 0:
        raise ValueError("base must be > 0")
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def beta_of_k(k: int, p: Number) -> Fraction:
    """``B(k, 1 + rho)`` as an exact rational: ``(k-1)! / (1+rho)^(rising k)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = _open01(p)
    return Fraction(math.factorial(k - 1)) / rising_factorial(1 + rho_of(p), k)


def _betas(rho: Number) -> Iterator[Number]:
    """``B_k = B(k, 1+rho)`` for ``k = 1, 2, ...`` by plain arithmetic: exact
    for a `Fraction` ``rho``, float for a float one."""
    b = 1 / (1 + rho)
    for k in itertools.count(1):
        yield b
        b *= k / (k + 1 + rho)


def beta_remainders(k: int, b_k: Number, rho: Number) -> tuple[Number, Number]:
    """``(sum_{j>=k} B_j, sum_{j>=k} j B_j)`` for ``B_j = B(j, 1+rho)``, from
    ``B_k`` alone: the step of `_betas` telescopes both sums to
    ``B_k (k+rho)/rho`` and ``k B_k (k+rho)/(rho-1)``.  Plain arithmetic, so
    `Fraction` inputs give exact remainders and floats give float ones."""
    return b_k * (k + rho) / rho, k * b_k * (k + rho) / (rho - 1)


def velocity(p: Number, m1: Number) -> Fraction:
    """Asymptotic speed ``p * m1 / (2 - p)`` of the counterbalanced walk."""
    p = _probability(p)
    return p * _frac(m1, "m1") / (2 - p)


def clt_variance(p: Number, m1: Number, m2: Number) -> Fraction:
    """Variance ``(m2 - (p m1 / (2-p))^2) / (3 - 2p)`` of the Gaussian limit
    of the centered, sqrt(n)-scaled walk.  Defined for ``p`` in (0, 1]; the
    no-innovation regime has a different (non-Gaussian) limit and is
    rejected."""
    p = _open01(p, allow_one=True)
    m1, m2 = _frac(m1, "m1"), _frac(m2, "m2")
    if m2 < m1 * m1:
        raise ValueError("m2 must be >= m1^2")
    drift = p * m1 / (2 - p)
    return (m2 - drift * drift) / (3 - 2 * p)


def nu1_clt_variance(p: Number) -> Fraction:
    """Variance ``(2p^3 - 8p^2 + 6p) / ((3-2p)(2-p)^2)`` of the Gaussian
    fluctuations of the singleton-tree count."""
    p = _open01(p, allow_one=True)
    return (2 * p**3 - 8 * p**2 + 6 * p) / ((3 - 2 * p) * (2 - p) ** 2)


def yule_simon_pmf(k: int, p: Number) -> Fraction:
    """Yule-Simon mass ``rho * B(k, 1 + rho)`` with ``rho = 1/(1-p)``: the
    limit frequency (relative to the innovation count) of trees of size
    ``k`` in the genealogical forest."""
    p = _open01(p)
    return rho_of(p) * beta_of_k(k, p)


def sigma_sq_k(k: int, p: Number, m1: Number, m2: Number) -> Fraction:
    """Component variances of the occurrence-count decomposition:
    size-1 trees carry the drift correction, size-2 trees contribute
    nothing, and size ``k >= 3`` contributes ``k p m2 B(k,1+rho)/(3(1-p))``."""
    b_k = beta_of_k(k, p)  # checks k and p
    return _sigma_sq(k, _frac(p, "p"), _frac(m1, "m1"), _frac(m2, "m2"), b_k)


def _sigma_sq(k: int, p: Fraction, m1: Fraction, m2: Fraction, b_k: Fraction) -> Fraction:
    """`sigma_sq_k` on checked inputs, given ``B_k = B(k, 1+rho)``."""
    if k == 1:
        return p * m2 / (2 - p) - p**2 * m1**2 / ((3 - 2 * p) * (2 - p) ** 2)
    if k == 2:
        return Fraction(0)
    return k * p * m2 * b_k / (3 * (1 - p))


def exact_mean(n: int, p: Number, m1: Number) -> Fraction:
    """Exact mean of the walk at horizon ``n``.

    Solves the one-step mean recursion
    ``E(n+1) = p m1 + (1 - (1-p)/n) E(n)``, ``E(1) = m1`` in closed
    product form (identical value, no quadratic blow-up of gcd work), so
    horizons in the tens of thousands stay cheap.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    p = _probability(p)
    m1 = _frac(m1, "m1")
    a, b = p.numerator, p.denominator
    num = 1
    den = 1
    for j in range(1, n):
        num *= (j - 1) * b + a
        den *= j * b
    correction = 2 * (1 - p) * m1 / (2 - p) * Fraction(num, den)
    return velocity(p, m1) * n + correction


def tree_freq_limit(size: int, p: Number) -> Fraction:
    """Limit of ``nu_tau(n) / n`` for any fixed increasing tree shape ``tau``
    with ``size`` vertices: ``p / ((1-p) (1+rho)^(rising size))``."""
    if size < 1:
        raise ValueError("tree size must be >= 1")
    p = _open01(p)
    return p / ((1 - p) * rising_factorial(1 + rho_of(p), size))


@dataclass(frozen=True)
class StableSpec:
    """A symmetric stable limit law via its characteristic exponent
    ``phi(theta) = |theta|**alpha * phi_plus``; ``a_n = n**(1/alpha)`` is
    the matching scaling sequence.
    """

    alpha: float
    phi_plus: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 2:
            raise ValueError("alpha must lie in (0, 2)")
        if not 0 < self.phi_plus < math.inf:
            raise ValueError("phi_plus must be finite and > 0")

    def phi(self, theta: float) -> float:
        return abs(theta) ** self.alpha * self.phi_plus

    def a_n(self, n: int) -> float:
        return n ** (1.0 / self.alpha)


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


def stable_check_exponent(
    theta: float, p: Number, spec: StableSpec, kmax: int = 50
) -> tuple[float, float]:
    """Truncated characteristic exponent of the counterbalanced stable limit.

    Sums, over tree sizes ``k <= kmax``, the expected exponent of
    ``theta * (k - 2 * Odd)`` under the exact parity law of size ``k``,
    weighted by ``(p/(1-p)) B(k, 1+rho)``.  Returns the partial sum and a
    bound on the rest: ``E|delta_k|^alpha <= (k/3)^(alpha/2)`` for ``k >= 3``
    (Jensen, ``E delta_k^2 = k/3``), so the shells past ``K = kmax`` add up to at
    most ``phi(theta) p/(1-p) 3^(-alpha/2) (K+1)^(alpha/2-1) sum_{k>K} k B_k``.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    p = _open01(p)
    rho = float(rho_of(p))
    prefac = float(p / (1 - p))

    total = 0.0
    betas = _betas(rho)
    for k, b in zip(range(1, kmax + 1), betas):
        pmf = odd_count_pmf(k)
        mean_phi = sum(w / pmf.denom * spec.phi((k - 2 * ell) * theta)
                       for ell, w in zip(pmf.values, pmf.weights))
        total += prefac * b * mean_phi

    half = spec.alpha / 2.0
    _, mean_tail = beta_remainders(kmax + 1, next(betas), rho)
    tail = spec.phi(theta) * prefac * 3.0 ** -half * (kmax + 1) ** (half - 1.0) * mean_tail
    return total, tail


def yule_simon_series(p: Number, kmax: int = 10_000) -> dict[str, float]:
    """Float partial sums of the Yule-Simon mass and mean over ``k <= kmax``
    with their telescoped remainders; the exact limits are 1 and ``1/p``."""
    p = _open01(p)
    rho = float(rho_of(p))
    betas = _betas(rho)
    mass = 0.0
    mean = 0.0
    for k, b in zip(range(1, kmax + 1), betas):
        mass += rho * b
        mean += k * rho * b
    mass_tail, mean_tail = beta_remainders(max(kmax, 0) + 1, next(betas), rho)
    return {"mass": mass, "mean": mean, "mass_tail": rho * mass_tail, "mean_tail": rho * mean_tail}


def sigma_sq_series(p: Number, m1: Number, m2: Number, kmax: int = 10_000) -> dict[str, float]:
    """Float check data for the two variance-decomposition identities.

    ``sigma_total`` is ``sigma_1^2 + sum_{3<=k<=kmax} sigma_k^2`` and,
    plus ``tail`` (the telescoped remainder over ``k > max(kmax, 2)``),
    should match `clt_variance`; ``closing_lhs`` is ``p m2/(2-p)`` plus the
    same partial sum and, plus ``tail``, should match ``m2 / (3 - 2p)``.
    """
    p = _open01(p)
    m1f, m2f = float(_frac(m1, "m1")), float(_frac(m2, "m2"))
    rho = float(rho_of(p))
    pf = float(p)
    coef = pf * m2f / (3.0 * (1.0 - pf))
    betas = itertools.islice(_betas(rho), 2, None)  # from B_3
    head = 0.0
    for k, b in zip(range(3, kmax + 1), betas):
        head += coef * k * b
    sigma1 = float(sigma_sq_k(1, p, m1, m2))
    return {
        "sigma_total": sigma1 + head,
        "clt_variance": float(clt_variance(p, m1, m2)),
        "closing_lhs": pf * m2f / (2.0 - pf) + head,
        "closing_rhs": m2f / (3.0 - 2.0 * pf),
        "tail": coef * beta_remainders(max(kmax, 2) + 1, next(betas), rho)[1],
    }


@dataclass(frozen=True)
class ShapeWeightedSum:
    """Exact evaluation of the size-plus-parity weighted shape series
    ``sum_tau (|tau| + delta(tau)^2) / (1+rho)^(rising |tau|)``.

    The ``(k-1)!`` increasing trees of size ``k`` are equally likely, so
    the size-``k`` shell is ``B(k, 1+rho) (k + E(delta_k^2))``.
    ``truncated`` sums these shells up to ``size_cap`` with the exact
    parity moments of `eulerian.delta_moment`; above the cap
    ``E(delta_k^2) = k/3``, so ``tail`` is ``4/3`` of the telescoped
    remainder ``sum_{k>cap} k B_k``.  Their sum ``total`` is the exact
    value of the series, ``((1-p)/p) (1 + delta_sq_rate(p))``, which c14
    asserts.
    """

    size_cap: int
    truncated: Fraction
    tail: Fraction
    total: Fraction


def shape_weighted_sum(p: Number, size_cap: int = 9) -> ShapeWeightedSum:
    p = _open01(p)
    if size_cap < 3:
        raise ValueError("size_cap must be >= 3")
    betas = _betas(rho_of(p))
    truncated = sum(b * (k + delta_moment(k, 2)) for k, b in zip(range(1, size_cap + 1), betas))
    _, k_tail = beta_remainders(size_cap + 1, next(betas), rho_of(p))
    tail = Fraction(4, 3) * k_tail
    return ShapeWeightedSum(size_cap, truncated, tail, truncated + tail)


def delta_sq_rate(p: Number) -> Fraction:
    """Limit of ``E(sum_j delta(tree_j)^2) / n`` using the exact small-size
    parity moments: ``(p/(1-p)) sum_k B(k,1+rho) E(delta_k^2)``."""
    p = _open01(p)
    b1, b2 = itertools.islice(_betas(rho_of(p)), 2)
    series = Fraction(2, 3) * (b1 - b2) + (1 - p) / (3 * p)
    return p / (1 - p) * series


def limit_constants(p: Number, m1: Number | None, m2: Number | None, kmax: int = 8) -> dict[str, Fraction]:
    """Every constant defined at ``p`` in (0, 1] and the given moments, by the
    name and in the order `counterwalk limits` prints them: ``velocity``
    (needs ``m1``), ``clt_variance`` (needs ``m1`` and ``m2``),
    ``nu1_clt_variance``, and for ``p < 1`` ``rho``, ``sigma_sq_k`` (needs
    both moments) and ``yule_simon_k`` for ``k = 1 .. kmax``."""
    p = _open01(p, allow_one=True)
    out = {}
    if m1 is not None:
        out["velocity"] = velocity(p, m1)
    if m1 is not None and m2 is not None:
        m1, m2 = _frac(m1, "m1"), _frac(m2, "m2")
        out["clt_variance"] = clt_variance(p, m1, m2)
    out["nu1_clt_variance"] = nu1_clt_variance(p)
    if p < 1:
        rho = out["rho"] = rho_of(p)
        shells = list(zip(range(1, kmax + 1), _betas(rho)))
        if "clt_variance" in out:
            out.update((f"sigma_sq_{k}", _sigma_sq(k, p, m1, m2, b)) for k, b in shells)
        out.update((f"yule_simon_{k}", rho * b) for k, b in shells)
    return out
