"""The acceptance suite: one deterministic runner per exit criterion.

Exact criteria assert rational equalities; statistical criteria pin their
seeds and use the generous bands documented in `verify`, so a green suite
is reproducible run over run.  ``fast=True`` scales replica counts and
the largest horizons down roughly 10x and widens the Monte-Carlo-bound
thresholds by sqrt(10); it is a smoke mode for CI, the official gate is
the full-scale run.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

from . import asymptotics as asym
from .eulerian import (
    ExactPmf,
    delta_moment,
    eulerian_number,
    eulerian_number_by_sum,
    odd_count_pmf,
)
from .recursive_tree import sample_odd_counts, tanny_sample_batch
from .replication import child_seed
from .verify import (
    CheckReport,
    brute_force_walk_pmf,
    empirical_cf,
    ks_normal,
    make_report,
    moment_check,
    tv_distance,
)
from .walk_engine import (
    StepLaw,
    forest_census,
    pareto_phi1,
    representation_residual,
    simulate,
    simulate_batch,
    singleton_counts,
)

DEFAULT_SEED = 20260809

_SQRT10 = math.sqrt(10.0)


def _hist(values: np.ndarray) -> ExactPmf:
    keys, counts = np.unique(np.rint(values).astype(np.int64), return_counts=True)
    return ExactPmf.from_weights(zip(keys.tolist(), counts.tolist()), len(values))


def c01_eulerian_exact(seed: int, fast: bool = False) -> list[CheckReport]:
    """Recurrence vs alternating-sum entries (n <= 30) and factorial row
    sums (n <= 50), all exact.  Rows are summed entry by entry, because
    `eulerian_row` refuses a wrong sum before it could be counted here."""
    mismatches = checks = 0
    for n in range(1, 31):
        for k in range(-1, n + 1):
            checks += 1
            mismatches += eulerian_number(n, k) != eulerian_number_by_sum(n, k)
    for n in range(0, 51):
        checks += 1
        mismatches += sum(eulerian_number(n, k) for k in range(-1, n)) != math.factorial(n)
    return [
        make_report(
            "c01_eulerian_exact", "relative_error", float(mismatches), 0.0,
            checks, seed, config={"max_n_entries": 30, "max_n_rowsum": 50},
        )
    ]


def c02_rrt_parity_tv(seed: int, fast: bool = False) -> list[CheckReport]:
    """Sampled odd-vertex counts at size 10 vs the exact law."""
    reps = 10_000 if fast else 100_000
    threshold = 0.01 * (_SQRT10 if fast else 1.0)
    odd = sample_odd_counts(10, reps, child_seed(seed, 2))
    tv = tv_distance(_hist(odd), odd_count_pmf(10))
    return [
        make_report("c02_rrt_parity_tv", "tv_distance", tv, threshold, reps, seed,
                    config={"n": 10, "reps": reps})
    ]


def c03_tanny_tv(seed: int, fast: bool = False) -> list[CheckReport]:
    """Ceiling-of-uniform-sums draws vs the exact odd-count law."""
    reps = 10_000 if fast else 100_000
    threshold = 0.01 * (_SQRT10 if fast else 1.0)
    draws = tanny_sample_batch(9, reps, child_seed(seed, 3))
    tv = tv_distance(_hist(draws), odd_count_pmf(10))
    return [
        make_report("c03_tanny_tv", "tv_distance", tv, threshold, reps, seed,
                    config={"uniforms": 9, "reps": reps})
    ]


def c04_parity_moments(seed: int, fast: bool = False) -> list[CheckReport]:
    """Exact parity-difference moments: zero mean, second moment n/3,
    fourth moment below 6 n^2."""
    mismatches = 0
    checks = 0
    for n in range(2, 41):
        checks += 1
        if delta_moment(n, 1) != 0:
            mismatches += 1
    for n in range(3, 41):
        checks += 1
        if delta_moment(n, 2) != Fraction(n, 3):
            mismatches += 1
    for n in range(1, 41):
        checks += 1
        if delta_moment(n, 4) > 6 * n * n:
            mismatches += 1
    return [
        make_report("c04_parity_moments", "relative_error", float(mismatches), 0.0,
                    checks, seed, config={"max_n": 40})
    ]


_ORACLE_PS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


def c05_oracle_agreement(seed: int, fast: bool = False) -> list[CheckReport]:
    """Exact walk oracle vs exact means (rational equality) and vs the
    batch simulator (total variation) on the small grid."""
    reps = 10_000 if fast else 100_000
    tv_threshold = 0.02 * (_SQRT10 if fast else 1.0)
    laws = (StepLaw.dirac(1), StepLaw.rademacher())

    mean_mismatches = 0
    mean_checks = 0
    max_tv = 0.0
    tv_details: dict[str, float] = {}
    combo = 0
    for n in range(1, 7):
        for p in _ORACLE_PS:
            for law in laws:
                combo += 1
                pmf = brute_force_walk_pmf(n, p, law)
                mean_checks += 1
                if pmf.mean() != asym.exact_mean(n, p, law.m1):
                    mean_mismatches += 1
                finals = simulate_batch(n, p, law, reps, child_seed(seed, 500 + combo))
                tv = tv_distance(_hist(finals), pmf)
                tv_details[f"n={n},p={p},mu={law.spec_string()}"] = round(tv, 6)
                max_tv = max(max_tv, tv)
    return [
        make_report("c05_oracle_mean_equality", "relative_error", float(mean_mismatches),
                    0.0, mean_checks, seed, config={"max_n": 6}),
        make_report("c05_oracle_simulation_tv", "tv_distance", max_tv, tv_threshold,
                    reps, seed, config={"max_n": 6, "reps_per_combo": reps},
                    details={"per_combo": tv_details}),
    ]


def c06_forest_representation(seed: int, fast: bool = False) -> list[CheckReport]:
    """The forest form of the final position equals the step-by-step sum,
    exactly: the two are exact or correctly rounded sums of one number."""
    n = 10_000 if fast else 100_000
    n_exact = 3 if fast else 30
    n_gauss = 4 if fast else 40
    p = Fraction(1, 2)

    max_exact = 0.0
    for i, law in enumerate((StepLaw.dirac(1), StepLaw.rademacher())):
        for r in range(n_exact):
            run = simulate(n, p, law, child_seed(seed, 600 + 100 * i + r))
            max_exact = max(max_exact, float(representation_residual(run)))
    gauss = StepLaw.gaussian(0, 1)
    max_gauss = 0.0
    for r in range(n_gauss):
        run = simulate(n, p, gauss, child_seed(seed, 900 + r))
        rel = float(representation_residual(run)) / (1.0 + abs(float(run.final_check)))
        max_gauss = max(max_gauss, rel)
    return [
        make_report("c06_representation_exact", "relative_error", max_exact, 0.0,
                    2 * n_exact, seed, config={"n": n}),
        make_report("c06_representation_gauss", "relative_error", max_gauss, 0.0,
                    n_gauss, seed, config={"n": n}),
    ]


def c07_velocity(seed: int, fast: bool = False) -> list[CheckReport]:
    """Mean of the normalized final position vs the closed-form speed."""
    n = 10_000 if fast else 100_000
    reps = 10 if fast else 100
    p = Fraction(1, 2)
    law = StepLaw.dirac(1)
    samples = simulate_batch(n, p, law, reps, child_seed(seed, 7)) / n
    target = float(asym.velocity(p, law.m1))
    return [moment_check(samples, target, band=4.0, name="c07_velocity", seed=seed,
                         config={"n": n, "reps": reps, "p": "1/2", "mu": law.spec_string()})]


def c08_walk_clt(seed: int, fast: bool = False) -> list[CheckReport]:
    """Gaussian limit of the centered, sqrt(n)-scaled walk: variance and
    Kolmogorov-Smirnov fit."""
    n = 1_000 if fast else 10_000
    reps = 500 if fast else 5_000
    var_band = 0.20 if fast else 0.05
    p = Fraction(1, 2)
    target_var = float(asym.clt_variance(p, 1, 1))  # 4/9 for a unit point mass
    finals = simulate_batch(n, p, StepLaw.dirac(1), reps, child_seed(seed, 8))
    y = (finals - n * float(asym.velocity(p, 1))) / math.sqrt(n)
    var = float(y.var(ddof=1))
    rel = abs(var - target_var) / target_var
    reports = [
        make_report("c08_clt_variance", "relative_error", rel, var_band, reps, seed,
                    config={"n": n, "reps": reps, "target_variance": target_var},
                    details={"sample_variance": var}),
        ks_normal(y, 0.0, target_var, name="c08_clt_ks", seed=seed,
                  config={"n": n, "reps": reps}),
    ]
    return reports


def c09_pure_counterbalance_clt(seed: int, fast: bool = False) -> list[CheckReport]:
    """No-innovation regime: scaled parity difference vs N(0, 1/3)."""
    n = 1_000 if fast else 10_000
    reps = 500 if fast else 5_000
    odd = sample_odd_counts(n, reps, child_seed(seed, 9))
    y = (n - 2 * odd) / math.sqrt(n)
    return [
        ks_normal(y, 0.0, 1.0 / 3.0, name="c09_pure_counterbalance_ks", seed=seed,
                  config={"n": n, "reps": reps})
    ]


def c10_tree_size_frequencies(seed: int, fast: bool = False) -> list[CheckReport]:
    """Forest size frequencies vs the Yule-Simon law, k = 1..5."""
    n = 10_000 if fast else 100_000
    reps = 8 if fast else 32
    p = Fraction(1, 2)
    law = StepLaw.dirac(1)
    nus = [forest_census(simulate(n, p, law, child_seed(seed, 1000 + r))) for r in range(reps)]
    reports = []
    pn = float(p) * n
    for k in range(1, 6):
        samples = np.array([nu.get(k, 0) / pn for nu in nus])
        target = float(asym.yule_simon_pmf(k, p))
        reports.append(
            moment_check(samples, target, band=3.0, name=f"c10_yule_simon_k{k}",
                         seed=seed, config={"n": n, "reps": reps, "k": k})
        )
    nu1_frac = np.array([nu.get(1, 0) / n for nu in nus])
    reports.append(
        moment_check(nu1_frac, float(p / (2 - p)), band=3.0,
                     name="c10_singleton_fraction", seed=seed, config={"n": n, "reps": reps})
    )
    return reports


def c11_singleton_fluctuations(seed: int, fast: bool = False) -> list[CheckReport]:
    """Variance of the sqrt(n)-scaled singleton-count fluctuations."""
    n = 1_000 if fast else 10_000
    reps = 500 if fast else 5_000
    band = 0.20 if fast else 0.05
    p = Fraction(1, 2)
    nu1 = singleton_counts(n, p, reps, child_seed(seed, 11))
    y = (nu1 - n * float(p / (2 - p))) / math.sqrt(n)
    target = float(asym.nu1_clt_variance(p))  # 5/18 at p = 1/2
    var = float(y.var(ddof=1))
    rel = abs(var - target) / target
    return [
        make_report("c11_singleton_variance", "relative_error", rel, band, reps, seed,
                    config={"n": n, "reps": reps, "target_variance": target},
                    details={"sample_variance": var})
    ]


_MOMENT_PAIRS = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))


_C12_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
_C12_HEAD = 12


def c12_variance_decomposition(seed: int, fast: bool = False) -> list[CheckReport]:
    """Component variances resum to the Gaussian limit variance, and the
    second-moment closing identity holds, exactly: the first K = 12
    components plus the telescoped remainder ``sum_{k>K} sigma_k^2``, a
    multiple of ``sum_{k>K} k B(k, 1+rho)`` (`asymptotics.beta_remainders`)."""
    max_rel_total = Fraction(0)
    max_rel_closing = Fraction(0)
    start = _C12_HEAD + 1
    for p in _C12_PS:
        _, k_tail = asym.beta_remainders(start, asym.beta_of_k(start, p), asym.rho_of(p))
        for m1, m2 in _MOMENT_PAIRS:
            sigma1 = asym.sigma_sq_k(1, p, m1, m2)
            tail = p * m2 * k_tail / (3 * (1 - p))
            rest = sum(asym.sigma_sq_k(k, p, m1, m2) for k in range(2, start)) + tail
            clt = asym.clt_variance(p, m1, m2)
            closing = m2 / (3 - 2 * p)
            max_rel_total = max(max_rel_total, abs(sigma1 + rest - clt) / clt)
            max_rel_closing = max(max_rel_closing, abs(p * m2 / (2 - p) + rest - closing) / closing)
    checks = len(_C12_PS) * len(_MOMENT_PAIRS)
    config = {"p": [str(p) for p in _C12_PS], "head_terms": _C12_HEAD}
    return [
        make_report("c12_sigma_resummation", "relative_error", float(max_rel_total), 0.0,
                    checks, seed, config=config),
        make_report("c12_closing_identity", "relative_error", float(max_rel_closing), 0.0,
                    checks, seed, config=config),
    ]


def c13_stable_limit(seed: int, fast: bool = False) -> list[CheckReport]:
    """Heavy-tailed steps: empirical characteristic function of the scaled
    walk vs the truncated stable exponent, with the unit exponent value
    taken from the exact finite-n characteristic function of the step law."""
    n = 1_000 if fast else 10_000
    reps = 2_000 if fast else 20_000
    band = 0.03 * (_SQRT10 if fast else 1.0)
    kmax = 50
    p = Fraction(1, 2)
    law = StepLaw.pareto_symmetric(Fraction(3, 2))
    alpha = float(law.params[0])

    phi1 = pareto_phi1(alpha, n)
    spec = asym.StableSpec(alpha, phi1)

    y = simulate_batch(n, p, law, reps, child_seed(seed, 1301)) / spec.a_n(n)

    reports = []
    for theta in (0.5, 1.0, 2.0):
        exponent, tail = asym.stable_check_exponent(theta, p, spec, kmax=kmax)
        target = math.exp(-exponent)
        cf = empirical_cf(y, theta)
        value = max(abs(cf.value.real - target), abs(cf.value.imag))
        reports.append(
            make_report(
                f"c13_stable_cf_theta_{theta}", "relative_error", value, band, reps, seed,
                config={"alpha": alpha, "n": n, "reps": reps, "kmax": kmax},
                details={
                    "phi1": phi1,
                    "target": target,
                    "empirical_re": cf.value.real,
                    "empirical_im": cf.value.imag,
                    "cf_sd_re": cf.sd_real,
                    "cf_sd_im": cf.sd_imag,
                    "exponent_tail_estimate": tail,
                },
            )
        )
    return reports


# (size, delta) of each shape: the cherry (1, 1) has two odd vertices, the path (1, 2) one
_SMALL_SHAPES = {(): (1, 1), (1,): (2, 0), (1, 1): (3, -1), (1, 2): (3, 1)}


def c14_shape_frequencies(seed: int, fast: bool = False) -> list[CheckReport]:
    """Per-shape frequencies for trees of size <= 3 and the per-replica
    parity rate ``sum_j delta(tree_j)^2 / n`` against their limits, plus the
    exact closed form of the parity-weighted shape series."""
    n = 10_000 if fast else 100_000
    reps = 8 if fast else 32
    p = Fraction(1, 2)
    law = StepLaw.dirac(1)
    shape_counts = np.empty((len(_SMALL_SHAPES), reps), dtype=np.int64)
    dsq_rates = []
    for r in range(reps):
        size, delta = simulate(n, p, law, child_seed(seed, 1400 + r)).trees
        for i, (k, d) in enumerate(_SMALL_SHAPES.values()):
            shape_counts[i, r] = ((size == k) & (delta == d)).sum()
        dsq_rates.append(int(delta @ delta) / n)
    reports = []
    for shape, samples in zip(_SMALL_SHAPES, shape_counts / n):
        target = float(asym.tree_freq_limit(len(shape) + 1, p))
        label = "root" if not shape else "-".join(map(str, shape))
        reports.append(
            moment_check(samples, target, band=3.0,
                         name=f"c14_shape_{len(shape) + 1}v_{label}", seed=seed,
                         config={"n": n, "reps": reps, "shape": list(shape)})
        )

    sws = asym.shape_weighted_sum(p, size_cap=9)
    closed_form = (1 - p) / p * (1 + asym.delta_sq_rate(p))
    reports.append(
        make_report("c14_shape_series_identity", "relative_error",
                    float(abs(sws.total - closed_form) / closed_form), 0.0, 1, seed,
                    config={"size_cap": sws.size_cap, "p": "1/2"},
                    details={"series_total": str(sws.total), "closed_form": str(closed_form)})
    )
    reports.append(
        moment_check(dsq_rates, float(asym.delta_sq_rate(p)), band=3.0, name="c14_delta_sq_rate",
                     seed=seed, config={"n": n, "reps": reps})
    )
    return reports


Criterion = Callable[[int, bool], "list[CheckReport]"]

ACCEPTANCE_CRITERIA: tuple[tuple[str, str, Criterion], ...] = (
    ("c01", "descent-triangle exactness", c01_eulerian_exact),
    ("c02", "tree parity law vs sampling", c02_rrt_parity_tv),
    ("c03", "uniform-sum parity sampler", c03_tanny_tv),
    ("c04", "exact parity moments", c04_parity_moments),
    ("c05", "exact walk oracle agreement", c05_oracle_agreement),
    ("c06", "forest representation identity", c06_forest_representation),
    ("c07", "ballistic velocity", c07_velocity),
    ("c08", "diffusive Gaussian limit", c08_walk_clt),
    ("c09", "pure-counterbalance Gaussian limit", c09_pure_counterbalance_clt),
    ("c10", "tree size frequencies", c10_tree_size_frequencies),
    ("c11", "singleton-count fluctuations", c11_singleton_fluctuations),
    ("c12", "variance decomposition identities", c12_variance_decomposition),
    ("c13", "stable limit characteristic function", c13_stable_limit),
    ("c14", "tree shape frequencies", c14_shape_frequencies),
)


def run_criterion(cid: str, seed: int = DEFAULT_SEED, fast: bool = False) -> list[CheckReport]:
    for criterion_id, _, fn in ACCEPTANCE_CRITERIA:
        if criterion_id == cid:
            return fn(child_seed(seed, int(cid[1:])), fast)
    raise KeyError(f"unknown criterion {cid!r}")


def run_all(
    seed: int = DEFAULT_SEED,
    fast: bool = False,
    done: Callable[[str, "list[CheckReport]", float], None] | None = None,
) -> list[CheckReport]:
    """Run every criterion in order; optionally hand each criterion's id,
    reports and wall seconds to ``done`` as soon as it finishes."""
    reports: list[CheckReport] = []
    for cid, _, _ in ACCEPTANCE_CRITERIA:
        start = time.perf_counter()
        batch = run_criterion(cid, seed, fast)
        seconds = time.perf_counter() - start
        reports += batch
        if done is not None:
            done(cid, batch, seconds)
    return reports
