"""Exact brute-force oracles and statistical acceptance machinery.

The exhaustive oracle enumerates every trajectory of the walk recursion on
tiny horizons with exact rational weights; it shares no code with the
simulator beyond the step-law description, which is what makes the
agreement checks meaningful.

Statistical checks use fixed generous bands (4-sigma z-tests, a
``1.63/sqrt(M)`` Kolmogorov-Smirnov band, total-variation caps) with
pinned seeds: determinism in CI beats formal hypothesis testing here.
The KS band corresponds to roughly a 1% asymptotic level and is a
documented heuristic, not a calibrated finite-sample test.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

import numpy as np

from .eulerian import ExactPmf
from .walk_engine import StepLaw

Number = Union[int, float, Fraction]

#: KS acceptance band multiplier (approximately the 1% asymptotic level).
KS_BAND = 1.63
#: Default z-score band for moment checks.
Z_BAND = 4.0

BRUTE_FORCE_MAX_N = 7
BRUTE_FORCE_MAX_SUPPORT = 2


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check, serializable with full provenance."""

    name: str
    statistic: str  # "tv_distance" | "ks_statistic" | "z_score" | "relative_error"
    value: float
    threshold: float
    passed: bool
    sample_size: int
    seed: int | None
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "statistic": self.statistic,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
            "sample_size": self.sample_size,
            "seed": self.seed,
            "config": self.config,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, default=str)


def make_report(
    name: str,
    statistic: str,
    value: float,
    threshold: float,
    sample_size: int,
    seed: int | None,
    config: dict | None = None,
    details: dict | None = None,
) -> CheckReport:
    value = float(value)
    threshold = float(threshold)
    return CheckReport(
        name, statistic, value, threshold, value <= threshold,
        sample_size, seed, config or {}, details or {},
    )


@lru_cache(maxsize=None)
def _walk_structures(n: int) -> tuple[tuple[int, tuple[int, ...], Fraction], ...]:
    """Exhaustive law of the genealogical forest at horizon ``n``.

    Enumerates every innovation pattern (first step fixed as innovation)
    and every attachment choice, and aggregates the exact probability
    weight of each ``(innovation count, sorted per-tree parity deltas)``
    class.  The innovation-bit probabilities are factored out so one
    enumeration serves every ``p``.
    """
    acc: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    if n == 1:
        acc[(1, (1,))] = Fraction(1)
    else:
        for bits in itertools.product((0, 1), repeat=n - 1):
            cb_steps = [m for m, bit in zip(range(2, n + 1), bits) if bit == 0]
            weight_v = Fraction(1, math.prod(m - 1 for m in cb_steps)) if cb_steps else Fraction(1)
            innovations = 1 + sum(bits)
            for parents in itertools.product(*(range(1, m) for m in cb_steps)):
                pick = dict(zip(cb_steps, parents))
                tree = [1]
                parity = [0]
                deltas = [1]
                trees = 1
                for m, bit in zip(range(2, n + 1), bits):
                    if bit:
                        trees += 1
                        tree.append(trees)
                        parity.append(0)
                        deltas.append(1)
                    else:
                        u = pick[m]
                        t = tree[u - 1]
                        par = parity[u - 1] ^ 1
                        tree.append(t)
                        parity.append(par)
                        deltas[t - 1] += 1 - 2 * par
                key = (innovations, tuple(sorted(deltas)))
                acc[key] = acc.get(key, Fraction(0)) + weight_v
    return tuple((i, ms, w) for (i, ms), w in sorted(acc.items()))


@lru_cache(maxsize=None)
def _delta_convolution(
    deltas: tuple[int, ...],
    support: tuple[Number, ...],
    probs: tuple[Fraction, ...],
) -> tuple[tuple[Number, Fraction], ...]:
    """Exact law of ``sum_j deltas[j] * X_j`` for i.i.d. finite-support X."""
    dist: dict[Number, Fraction] = {0: Fraction(1)}
    for d in deltas:
        nxt: dict[Number, Fraction] = {}
        for value, w in dist.items():
            for s, q in zip(support, probs):
                key = value + d * s
                nxt[key] = nxt.get(key, Fraction(0)) + w * q
        dist = nxt
    return tuple(sorted(dist.items()))


def brute_force_walk_pmf(n: int, p: Number, law: StepLaw) -> ExactPmf:
    """Exact law of the counterbalanced position at horizon ``n`` by
    exhaustive enumeration (independent of the simulator).

    Capped at ``n <= 7`` and two-point step supports; beyond that the
    weighted path space blows up.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"exhaustive oracle capped at n <= {BRUTE_FORCE_MAX_N}")
    if law.discrete_support is None or law.discrete_probs is None:
        raise ValueError("exhaustive oracle needs a finitely supported step law")
    if len(law.discrete_support) > BRUTE_FORCE_MAX_SUPPORT:
        raise ValueError(f"exhaustive oracle capped at support size {BRUTE_FORCE_MAX_SUPPORT}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("innovation probability must lie in [0, 1]")

    out: dict[Number, Fraction] = {}
    for innovations, deltas, weight in _walk_structures(n):
        eps_weight = p ** (innovations - 1) * (1 - p) ** (n - innovations)
        if eps_weight == 0:
            continue
        for value, q in _delta_convolution(deltas, law.discrete_support, law.discrete_probs):
            out[value] = out.get(value, Fraction(0)) + eps_weight * weight * q
    return ExactPmf.from_mapping(out)


def _as_prob_items(dist: "ExactPmf | Mapping[Number, Number]") -> list[tuple[Number, Fraction | float]]:
    if isinstance(dist, ExactPmf):
        return list(dist.items())
    if isinstance(dist, Mapping):
        if not dist:
            raise ValueError("empty distribution")
        total = sum(dist.values())
        if total <= 0:
            raise ValueError("distribution weights must have positive total")
        if any(w < 0 for w in dist.values()):
            raise ValueError("distribution weights must be nonnegative")
        if all(isinstance(w, (int, Fraction)) for w in dist.values()):
            return [(v, Fraction(w) / Fraction(total)) for v, w in dist.items()]
        return [(v, float(w) / float(total)) for v, w in dist.items()]
    raise ValueError("expected an ExactPmf or a value -> weight mapping")


def tv_distance(a: "ExactPmf | Mapping[Number, Number]", b: "ExactPmf | Mapping[Number, Number]") -> float:
    """Total variation distance: half the L1 gap between two pmfs.

    Inputs may be exact pmfs or raw histograms (value -> count); histograms
    are normalized.  Values must live on a common lattice of exact numbers
    (Python's numeric hashing makes 1, 1.0 and Fraction(1) the same key).
    """
    da = dict(_as_prob_items(a))
    db = dict(_as_prob_items(b))
    keys = set(da) | set(db)
    gap = sum(abs(float(da.get(k, 0)) - float(db.get(k, 0))) for k in keys)
    return 0.5 * gap


def ks_normal(
    samples: Sequence[float] | np.ndarray,
    mean: float,
    variance: float,
    *,
    name: str = "ks_normal",
    seed: int | None = None,
    threshold: float | None = None,
    config: dict | None = None,
) -> CheckReport:
    """One-sample Kolmogorov-Smirnov statistic against a fixed Gaussian.

    The default acceptance band ``1.63/sqrt(M)`` is a generous asymptotic
    1%-level band, used as a deterministic gate rather than a test.
    """
    from scipy.special import ndtr  # here, so that importing the package does not load scipy

    x = np.asarray(samples, dtype=np.float64)
    m = x.size
    if m < 100:
        raise ValueError("KS check needs at least 100 samples")
    if not variance > 0:
        raise ValueError("target variance must be positive")
    z = (np.sort(x) - mean) / math.sqrt(variance)
    cdf = ndtr(z)
    grid = np.arange(1, m + 1, dtype=np.float64) / m
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / m))))
    if threshold is None:
        threshold = KS_BAND / math.sqrt(m)
    cfg = {"mean": mean, "variance": variance}
    cfg.update(config or {})
    return make_report(name, "ks_statistic", stat, threshold, m, seed, cfg)


def moment_check(
    samples: Sequence[float] | np.ndarray,
    target: float,
    sd_of_estimator: float,
    band: float = Z_BAND,
    *,
    name: str = "moment_check",
    seed: int | None = None,
    config: dict | None = None,
) -> CheckReport:
    """Standardized z-score of the sample mean against ``target``."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("moment check needs at least 2 samples")
    diff = abs(float(np.mean(x)) - target)
    if sd_of_estimator < 0:
        raise ValueError("estimator sd must be >= 0")
    if sd_of_estimator == 0:
        z = 0.0 if diff == 0 else math.inf
    else:
        z = diff / sd_of_estimator
    cfg = {"target": target, "sd_of_estimator": sd_of_estimator}
    cfg.update(config or {})
    return make_report(name, "z_score", z, band, int(x.size), seed, cfg,
                       details={"sample_mean": float(np.mean(x))})


@dataclass(frozen=True)
class CfEstimate:
    """Empirical characteristic function value with per-component sd."""

    value: complex
    sd_real: float
    sd_imag: float


def empirical_cf(samples: Sequence[float] | np.ndarray, theta: float) -> CfEstimate:
    """Monte Carlo estimate of ``E exp(i theta X)``.

    Component standard errors are sample sds over sqrt(M), hence always
    at most ``1/sqrt(M)`` for the bounded integrand.
    """
    x = np.asarray(samples, dtype=np.float64)
    m = x.size
    if m < 1000:
        raise ValueError("characteristic-function estimate needs at least 1000 samples")
    if theta == 0:
        return CfEstimate(1.0 + 0.0j, 0.0, 0.0)
    re = np.cos(theta * x)
    im = np.sin(theta * x)
    return CfEstimate(
        complex(float(re.mean()), float(im.mean())),
        float(re.std(ddof=1) / math.sqrt(m)),
        float(im.std(ddof=1) / math.sqrt(m)),
    )
