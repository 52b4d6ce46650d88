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
from fractions import Fraction
from typing import Callable

import numpy as np

from . import asymptotics as asym
from .eulerian import (
    delta_moment,
    delta_pmf,
    eulerian_number,
    eulerian_number_by_sum,
    eulerian_row,
    odd_count_pmf,
)
from .recursive_tree import Tree, sample_odd_counts, tanny_sample_batch
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
    representation_residual,
    simulate_batch,
    simulate_seeded,
)

DEFAULT_SEED = 20260809

_SQRT10 = math.sqrt(10.0)


def _hist(values: np.ndarray) -> dict[int, int]:
    keys, counts = np.unique(np.rint(values).astype(np.int64), return_counts=True)
    return {int(k): int(c) for k, c in zip(keys, counts)}


def c01_eulerian_exact(seed: int, fast: bool = False) -> list[CheckReport]:
    """Recurrence vs alternating-sum entries (n <= 30) and factorial row
    sums (n <= 50), all exact."""
    mismatches = 0
    checks = 0
    for n in range(1, 31):
        for k in range(-1, n + 1):
            checks += 1
            a = eulerian_number(n, k)
            b = eulerian_number_by_sum(n, k)
            if a != b:
                mismatches += 1
    for n in range(0, 51):
        checks += 1
        if sum(eulerian_row(n).values) != math.factorial(n):
            mismatches += 1
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
    rng = np.random.default_rng(child_seed(seed, 2))
    odd = sample_odd_counts(10, reps, rng)
    tv = tv_distance(_hist(odd), odd_count_pmf(10))
    return [
        make_report("c02_rrt_parity_tv", "tv_distance", tv, threshold, reps, seed,
                    config={"n": 10, "reps": reps})
    ]


def c03_tanny_tv(seed: int, fast: bool = False) -> list[CheckReport]:
    """Ceiling-of-uniform-sums draws vs the exact odd-count law."""
    reps = 10_000 if fast else 100_000
    threshold = 0.01 * (_SQRT10 if fast else 1.0)
    rng = np.random.default_rng(child_seed(seed, 3))
    draws = tanny_sample_batch(9, reps, rng)
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
    """Exhaustive oracle vs exact means (rational equality) and vs the
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
                batch = simulate_batch(n, p, law, reps, child_seed(seed, 500 + combo), census=False)
                tv = tv_distance(_hist(batch.s_check), pmf)
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
    """The forest form of the final position: exact for exact laws,
    below 1e-9 relative for Gaussian steps."""
    n = 10_000 if fast else 100_000
    n_exact = 3 if fast else 30
    n_gauss = 4 if fast else 40
    p = Fraction(1, 2)

    max_exact = 0.0
    runs = 0
    for i, law in enumerate((StepLaw.dirac(1), StepLaw.rademacher())):
        for r in range(n_exact):
            run = simulate_seeded(n, p, law, child_seed(seed, 600 + 100 * i + r))
            max_exact = max(max_exact, float(representation_residual(run)))
            runs += 1
    gauss = StepLaw.gaussian(0, 1)
    max_gauss = 0.0
    for r in range(n_gauss):
        run = simulate_seeded(n, p, gauss, child_seed(seed, 900 + r))
        rel = float(representation_residual(run)) / (1.0 + abs(float(run.final_check)))
        max_gauss = max(max_gauss, rel)
        runs += 1
    return [
        make_report("c06_representation_exact", "relative_error", max_exact, 0.0,
                    2 * n_exact, seed, config={"n": n}),
        make_report("c06_representation_gauss", "relative_error", max_gauss, 1e-9,
                    n_gauss, seed, config={"n": n}),
    ]


def c07_velocity(seed: int, fast: bool = False) -> list[CheckReport]:
    """Mean of the normalized final position vs the closed-form speed."""
    n = 10_000 if fast else 100_000
    reps = 10 if fast else 100
    p = Fraction(1, 2)
    batch = simulate_batch(n, p, StepLaw.dirac(1), reps, child_seed(seed, 7), census=False)
    samples = batch.s_check / n
    sd = float(samples.std(ddof=1)) / math.sqrt(reps)
    target = float(asym.velocity(p, 1))
    rep = moment_check(samples, target, sd, band=4.0, name="c07_velocity", seed=seed,
                       config={"n": n, "reps": reps, "p": "1/2", "mu": "dirac:1"})
    return [rep]


def c08_walk_clt(seed: int, fast: bool = False) -> list[CheckReport]:
    """Gaussian limit of the centered, sqrt(n)-scaled walk: variance and
    Kolmogorov-Smirnov fit."""
    n = 1_000 if fast else 10_000
    reps = 500 if fast else 5_000
    var_band = 0.20 if fast else 0.05
    p = Fraction(1, 2)
    target_var = float(asym.clt_variance(p, 1, 1))  # 4/9 for a unit point mass
    batch = simulate_batch(n, p, StepLaw.dirac(1), reps, child_seed(seed, 8), census=False)
    y = (batch.s_check - n * float(asym.velocity(p, 1))) / math.sqrt(n)
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
    rng = np.random.default_rng(child_seed(seed, 9))
    odd = sample_odd_counts(n, reps, rng)
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
    nus: list[dict[int, int]] = []
    for r in range(reps):
        run = simulate_seeded(n, p, law, child_seed(seed, 1000 + r))
        nus.append(forest_census(run, shape_cap=1).nu)
    reports = []
    pn = float(p) * n
    for k in range(1, 6):
        samples = np.array([nu.get(k, 0) / pn for nu in nus])
        target = float(asym.yule_simon_pmf(k, p))
        sd = float(samples.std(ddof=1)) / math.sqrt(reps)
        reports.append(
            moment_check(samples, target, sd, band=3.0, name=f"c10_yule_simon_k{k}",
                         seed=seed, config={"n": n, "reps": reps, "k": k})
        )
    nu1_frac = np.array([nu.get(1, 0) / n for nu in nus])
    sd1 = float(nu1_frac.std(ddof=1)) / math.sqrt(reps)
    reports.append(
        moment_check(nu1_frac, float(p / (2 - p)), sd1, band=3.0,
                     name="c10_singleton_fraction", seed=seed, config={"n": n, "reps": reps})
    )
    return reports


def c11_singleton_fluctuations(seed: int, fast: bool = False) -> list[CheckReport]:
    """Variance of the sqrt(n)-scaled singleton-count fluctuations."""
    n = 1_000 if fast else 10_000
    reps = 500 if fast else 5_000
    band = 0.20 if fast else 0.05
    p = Fraction(1, 2)
    batch = simulate_batch(n, p, StepLaw.dirac(1), reps, child_seed(seed, 11), census=True)
    y = (batch.nu1 - n * float(p / (2 - p))) / math.sqrt(n)
    target = float(asym.nu1_clt_variance(p))  # 5/18 at p = 1/2
    var = float(y.var(ddof=1))
    rel = abs(var - target) / target
    return [
        make_report("c11_singleton_variance", "relative_error", rel, band, reps, seed,
                    config={"n": n, "reps": reps, "target_variance": target},
                    details={"sample_variance": var})
    ]


_MOMENT_PAIRS = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)))


def c12_variance_decomposition(seed: int, fast: bool = False) -> list[CheckReport]:
    """Component variances resum to the Gaussian limit variance, and the
    second-moment closing identity holds, to 1e-3 relative at K = 10^4."""
    kmax = 10_000
    p = Fraction(1, 2)
    max_rel_total = 0.0
    max_rel_closing = 0.0
    details: dict[str, dict[str, float]] = {}
    for m1, m2 in _MOMENT_PAIRS:
        series = asym.sigma_sq_series(p, m1, m2, kmax=kmax)
        rel_total = abs(series["sigma_total"] - series["clt_variance"]) / series["clt_variance"]
        rel_closing = abs(series["closing_lhs"] - series["closing_rhs"]) / series["closing_rhs"]
        max_rel_total = max(max_rel_total, rel_total)
        max_rel_closing = max(max_rel_closing, rel_closing)
        details[f"m1={m1},m2={m2}"] = {
            "sigma_total": series["sigma_total"],
            "clt_variance": series["clt_variance"],
            "closing_lhs": series["closing_lhs"],
            "closing_rhs": series["closing_rhs"],
            "tail_estimate": series["tail"],
        }
    return [
        make_report("c12_sigma_resummation", "relative_error", max_rel_total, 1e-3,
                    kmax, seed, config={"p": "1/2", "kmax": kmax}, details=details),
        make_report("c12_closing_identity", "relative_error", max_rel_closing, 1e-3,
                    kmax, seed, config={"p": "1/2", "kmax": kmax}),
    ]


def _pareto_iid_scaled_sums(law: StepLaw, n: int, reps: int, alpha: float, seed: int) -> np.ndarray:
    """Scaled i.i.d. partial sums (the criterion's own stable oracle)."""
    out = np.empty(reps)
    scale = n ** (1.0 / alpha)
    chunk = max(1, (1 << 23) // n)
    for ci, start in enumerate(range(0, reps, chunk)):
        stop = min(start + chunk, reps)
        rng = np.random.default_rng(child_seed(seed, ci))
        draws = law.sample_batch(rng, (stop - start) * n).reshape(stop - start, n)
        out[start:stop] = draws.sum(axis=1) / scale
    return out


def c13_stable_limit(seed: int, fast: bool = False) -> list[CheckReport]:
    """Heavy-tailed steps: empirical characteristic function of the scaled
    walk vs the truncated stable exponent, with the unit exponent value
    estimated from plain i.i.d. sums."""
    alpha = 1.5
    n = 1_000 if fast else 10_000
    reps = 2_000 if fast else 20_000
    oracle_reps = 6_000 if fast else 60_000
    band = 0.03 * (_SQRT10 if fast else 1.0)
    kmax = 50
    p = Fraction(1, 2)
    law = StepLaw.pareto_symmetric(Fraction(3, 2))

    oracle = _pareto_iid_scaled_sums(law, n, oracle_reps, alpha, child_seed(seed, 1300))
    cf_oracle = empirical_cf(oracle, 1.0)
    re_part = cf_oracle.value.real
    if re_part <= 0:
        return [
            make_report("c13_stable_cf", "relative_error", math.inf, band, reps, seed,
                        details={"error": "oracle characteristic function not positive"})
        ]
    phi1 = -math.log(re_part)
    spec = asym.StableSpec(alpha, phi1)

    batch = simulate_batch(n, p, law, reps, child_seed(seed, 1301), census=False)
    y = batch.s_check / spec.a_n(n)

    reports = []
    for theta in (0.5, 1.0, 2.0):
        exponent, tail = asym.stable_check_exponent(theta, p, spec, kmax=kmax)
        target = math.exp(-exponent)
        cf = empirical_cf(y, theta)
        value = max(abs(cf.value.real - target), abs(cf.value.imag))
        reports.append(
            make_report(
                f"c13_stable_cf_theta_{theta}", "relative_error", value, band, reps, seed,
                config={"alpha": alpha, "n": n, "reps": reps, "kmax": kmax,
                        "oracle_reps": oracle_reps},
                details={
                    "phi1_estimate": phi1,
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


_SMALL_SHAPES = ((), (1,), (1, 1), (1, 2))


def c14_shape_frequencies(seed: int, fast: bool = False) -> list[CheckReport]:
    """Per-shape frequencies for trees of size <= 3, plus the report-only
    evaluation of the parity-weighted shape series."""
    n = 10_000 if fast else 100_000
    reps = 8 if fast else 32
    p = Fraction(1, 2)
    law = StepLaw.dirac(1)
    shape_counts: list[dict[tuple[int, ...], int]] = []
    dsq_rates = []
    for r in range(reps):
        run = simulate_seeded(n, p, law, child_seed(seed, 1400 + r))
        census = forest_census(run, shape_cap=3)
        shape_counts.append(census.nu_shape)
        dsq_rates.append(int(census.delta_per_tree @ census.delta_per_tree) / n)
    reports = []
    for shape in _SMALL_SHAPES:
        samples = np.array([sc.get(shape, 0) / n for sc in shape_counts])
        target = float(asym.tree_freq_limit(Tree(shape), p))
        sd = float(samples.std(ddof=1)) / math.sqrt(reps)
        label = "root" if not shape else "-".join(map(str, shape))
        reports.append(
            moment_check(samples, target, sd, band=3.0,
                         name=f"c14_shape_{len(shape) + 1}v_{label}", seed=seed,
                         config={"n": n, "reps": reps, "shape": list(shape)})
        )

    sws = asym.shape_weighted_sum(p, size_cap=9)
    dsq = np.array(dsq_rates)
    reports.append(
        make_report(
            "c14_shape_series_report", "relative_error", 0.0, math.inf, reps, seed,
            config={"size_cap": sws.size_cap, "p": "1/2"},
            details={
                "truncated_sum": str(sws.truncated),
                "truncated_sum_float": float(sws.truncated),
                "tail_exact": str(sws.tail),
                "series_total": str(sws.total),
                "series_total_float": float(sws.total),
                "candidate_simple": str(sws.candidate_simple),
                "candidate_simple_float": float(sws.candidate_simple),
                "candidate_grouped": str(sws.candidate_grouped),
                "candidate_grouped_float": float(sws.candidate_grouped),
                "note": "report only: the series value is computed, neither candidate is asserted",
                "delta_sq_rate_empirical_mean": float(dsq.mean()),
                "delta_sq_rate_empirical_sd": float(dsq.std(ddof=1) / math.sqrt(reps)),
                "delta_sq_rate_predicted": float(asym.delta_sq_rate(p)),
            },
        )
    )
    return reports


Criterion = Callable[[int, bool], "list[CheckReport]"]

ACCEPTANCE_CRITERIA: tuple[tuple[str, str, Criterion], ...] = (
    ("c01", "descent-triangle exactness", c01_eulerian_exact),
    ("c02", "tree parity law vs sampling", c02_rrt_parity_tv),
    ("c03", "uniform-sum parity sampler", c03_tanny_tv),
    ("c04", "exact parity moments", c04_parity_moments),
    ("c05", "exhaustive oracle agreement", c05_oracle_agreement),
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
    emit: Callable[[CheckReport], None] | None = None,
) -> list[CheckReport]:
    """Run every criterion in order; optionally stream reports as they land."""
    reports: list[CheckReport] = []
    for cid, _, _ in ACCEPTANCE_CRITERIA:
        for report in run_criterion(cid, seed, fast):
            reports.append(report)
            if emit is not None:
                emit(report)
    return reports
