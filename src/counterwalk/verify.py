"""Exact walk oracle and statistical acceptance machinery.

The walk oracle gives the exact law of the position for step laws on
``{+c, -c}`` as a Markov chain on the number of ``+c`` steps, with integer
weights over one common denominator, up to ``n = 1000``.  It shares no
code with the simulator beyond the step-law description, which is what
makes the agreement checks meaningful.

Statistical checks use fixed generous bands with pinned seeds:
z-tests at 3 or 4 estimator sd, relative-error bands on sample
variances, a ``1.63/sqrt(M)`` Kolmogorov-Smirnov band and
total-variation caps.  Determinism in CI beats formal hypothesis testing
here.
The KS band corresponds to roughly a 1% asymptotic level and is a
documented heuristic, not a calibrated finite-sample test.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Sequence

from .eulerian import ExactPmf, Number, _probability

if TYPE_CHECKING:
    import numpy as np

    from .walk_engine import StepLaw

#: KS acceptance band multiplier (approximately the 1% asymptotic level).
KS_BAND = 1.63
#: Default z-score band for moment checks.
Z_BAND = 4.0

#: Largest horizon of the walk oracle (its denominator has about n log2 n bits).
WALK_ORACLE_MAX_N = 1000


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
        return json.dumps(asdict(self), sort_keys=True, default=str)

    @property
    def margin(self) -> float:
        """``value / threshold``: below 1 passes.  An exact identity
        (threshold 0) counts 0 when it holds and infinity when it fails."""
        if self.threshold > 0:
            return self.value / self.threshold
        return 0.0 if self.value == 0 else math.inf


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


def brute_force_walk_pmf(n: int, p: Number, law: StepLaw) -> ExactPmf:
    """Exact law of the counterbalanced position at horizon ``n`` for a step
    law on ``{+c, -c}``, by the position chain.

    Step 1 is ``+c`` with probability ``q``, the law's mass on ``+c`` (its
    last support value; the chain is the same with the roles swapped).  A
    counterbalancing step negates a uniform earlier step, so when ``j`` of
    the ``k = m - 1`` earlier steps are ``+c``, step ``m`` is ``+c`` with
    probability ``p q + (1 - p) (k - j) / k``.  The chain on ``(m, j)``
    carries integer weights over one common denominator; the position is
    ``c (2 j - n)``.  It shares no code with the simulator's `forest` and
    enumerates no path, which keeps it an independent oracle.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if n > WALK_ORACLE_MAX_N:
        raise ValueError(f"walk oracle capped at n <= {WALK_ORACLE_MAX_N}")
    if law.pmf is None:
        raise ValueError("walk oracle needs a finitely supported step law")
    c = law.pmf.values[-1]
    if any(abs(v) != abs(c) for v in law.pmf.values):
        raise ValueError("walk oracle needs a step law on {+c, -c}")
    p = _probability(p)

    # w[j]: weight of j steps +c among the first m, over s * (b s)**(m-1) * (m-1)!
    a, b = p.numerator, p.denominator
    r, s = law.pmf.weights[-1], law.pmf.denom
    w = [s - r, r]
    for k in range(1, n):
        up = [a * r * k + (b - a) * s * (k - j) for j in range(k + 1)]
        down = [b * s * k - u for u in up]
        w = [x * d + y * u for x, d, y, u in zip(w + [0], down + [0], [0] + w, [0] + up)]
    den = s * (b * s) ** (n - 1) * math.factorial(n - 1)
    # `dirac:0` sends every state to 0: `from_weights` merges equal values
    return ExactPmf.from_weights(((c * (2 * j - n), x) for j, x in enumerate(w)), den)


def tv_distance(a: ExactPmf, b: ExactPmf) -> float:
    """Total variation distance: half the L1 gap between two pmfs.

    A histogram enters as ``ExactPmf.from_weights(counts, total)``.  Each
    probability is ``weight / denom``, the correctly rounded float of the
    exact ratio.  Values must live on a common lattice of exact numbers
    (Python's numeric hashing makes 1, 1.0 and Fraction(1) the same key).
    """
    da = {v: w / a.denom for v, w in zip(a.values, a.weights)}
    db = {v: w / b.denom for v, w in zip(b.values, b.weights)}
    keys = set(da) | set(db)
    gap = sum(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)
    return 0.5 * gap


def ks_normal(
    samples: Sequence[float] | np.ndarray,
    mean: float,
    variance: float,
    *,
    name: str = "ks_normal",
    seed: int | None = None,
    config: dict | None = None,
) -> CheckReport:
    """One-sample Kolmogorov-Smirnov statistic against a fixed Gaussian.

    The acceptance band ``1.63/sqrt(M)`` is a generous asymptotic 1%-level
    band, used as a deterministic gate rather than a test.
    """
    import numpy as np

    x = np.asarray(samples, dtype=np.float64)
    m = x.size
    if m < 100:
        raise ValueError("KS check needs at least 100 samples")
    if not variance > 0:
        raise ValueError("target variance must be positive")
    z = (np.sort(x) - mean) / math.sqrt(variance)
    cdf = 0.5 * np.array([math.erfc(t) for t in (-z / math.sqrt(2.0)).tolist()])
    grid = np.arange(1, m + 1, dtype=np.float64) / m
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / m))))
    cfg = {"mean": mean, "variance": variance}
    cfg.update(config or {})
    return make_report(name, "ks_statistic", stat, KS_BAND / math.sqrt(m), m, seed, cfg)


def moment_check(
    samples: Sequence[float] | np.ndarray,
    target: float,
    band: float = Z_BAND,
    *,
    name: str = "moment_check",
    seed: int | None = None,
    config: dict | None = None,
) -> CheckReport:
    """Standardized z-score of the sample mean against ``target``, in units
    of its standard error ``std(ddof=1) / sqrt(M)``."""
    import numpy as np

    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("moment check needs at least 2 samples")
    diff = abs(float(np.mean(x)) - target)
    sd_of_estimator = float(x.std(ddof=1)) / math.sqrt(x.size)
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
    import numpy as np

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
