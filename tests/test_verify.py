import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk.asymptotics import exact_mean
from counterwalk.eulerian import ExactPmf, delta_pmf, odd_count_pmf
from counterwalk.verify import (
    WALK_ORACLE_MAX_N,
    CheckReport,
    brute_force_walk_pmf,
    empirical_cf,
    ks_normal,
    make_report,
    moment_check,
    tv_distance,
)
from counterwalk.walk_engine import StepLaw, parse_mu_spec

HALF = Fraction(1, 2)
P_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))


# Exhaustive reference for the position chain: every innovation pattern and
# every attachment choice at n <= 7, then each tree's parity delta convolved
# with the step law.


@lru_cache(maxsize=None)
def _walk_structures(n):
    """Exact weight of each ``(innovation count, sorted per-tree parity
    deltas)`` class, with the innovation-bit probabilities factored out."""
    acc = {}
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
    return sorted(acc.items())


def _delta_convolution(deltas, support, probs):
    """Exact law of ``sum_j deltas[j] * X_j`` for i.i.d. finite-support X."""
    dist = {0: Fraction(1)}
    for d in deltas:
        nxt = {}
        for value, w in dist.items():
            for s, q in zip(support, probs):
                key = value + d * s
                nxt[key] = nxt.get(key, Fraction(0)) + w * q
        dist = nxt
    return dist.items()


def enumerated_walk_pmf(n, p, law):
    out = {}
    for (innovations, deltas), weight in _walk_structures(n):
        eps_weight = p ** (innovations - 1) * (1 - p) ** (n - innovations)
        if eps_weight == 0:
            continue
        for value, q in _delta_convolution(deltas, law.pmf.values, law.pmf.probs):
            out[value] = out.get(value, Fraction(0)) + eps_weight * weight * q
    # the Fraction sums as weights over their lcm
    den = math.lcm(*(q.denominator for q in out.values()))
    weights = ((v, q.numerator * (den // q.denominator)) for v, q in out.items())
    return ExactPmf.from_weights(weights, den)


def _probs(pmf):
    return dict(zip(pmf.values, pmf.probs))


class TestBruteForce:
    def test_single_step(self):
        assert brute_force_walk_pmf(1, HALF, StepLaw.dirac(1)) == ExactPmf((1,), (1,), 1)

    def test_two_steps_point_mass(self):
        # innovation stacks 1+1, counterbalance cancels 1-1
        for p in P_GRID:
            pmf = brute_force_walk_pmf(2, p, StepLaw.dirac(1))
            expected = {}
            if p < 1:
                expected[0] = 1 - p
            if p > 0:
                expected[2] = p
            assert _probs(pmf) == expected

    def test_two_steps_rademacher(self):
        p = Fraction(1, 3)
        pmf = brute_force_walk_pmf(2, p, StepLaw.rademacher())
        assert _probs(pmf) == {
            -2: p / 4,
            0: p / 2 + (1 - p),
            2: p / 4,
        }

    def test_no_innovation_reduces_to_parity_law(self):
        # p = 0 is one random recursive tree: the Eulerian parity law
        for n in range(1, 121):
            pmf = brute_force_walk_pmf(n, Fraction(0), StepLaw.dirac(1))
            assert pmf == delta_pmf(n)

    def test_all_innovations_are_iid_steps(self):
        for n in (1, 2, 7, 50):
            pmf = brute_force_walk_pmf(n, Fraction(1), StepLaw.rademacher())
            binomial = {2 * j - n: Fraction(math.comb(n, j), 2**n) for j in range(n + 1)}
            assert _probs(pmf) == binomial
            for c in (1, Fraction(1, 2), -2):
                point = brute_force_walk_pmf(n, Fraction(1), StepLaw.dirac(c))
                assert point == ExactPmf((n * c,), (1,), 1)

    def test_zero_step_merges_every_state_at_zero(self):
        for n in (1, 2, 7, 100):
            for p in P_GRID:
                assert brute_force_walk_pmf(n, p, StepLaw.dirac(0)) == ExactPmf((0,), (1,), 1)

    def test_mean_matches_exact_recursion(self):
        for n in (*range(1, 7), 100, 300):
            for p in P_GRID:
                for law in (StepLaw.dirac(1), StepLaw.rademacher()):
                    assert brute_force_walk_pmf(n, p, law).mean() == exact_mean(n, p, law.m1)

    def test_chain_matches_enumeration(self):
        # 7 horizons x 6 values of p x 5 laws = 210 cases
        ps = (Fraction(0), Fraction(1, 4), Fraction(1, 3), HALF, Fraction(3, 4), Fraction(1))
        laws = [parse_mu_spec(spec) for spec in ("dirac:1", "dirac:1/2", "dirac:-2", "dirac:0", "rademacher")]
        for n in range(1, 8):
            for p in ps:
                for law in laws:
                    chain = brute_force_walk_pmf(n, p, law)
                    reference = enumerated_walk_pmf(n, p, law)
                    assert chain == reference, (n, p, law.spec_string())
                    assert [type(v) for v in chain.values] == [type(v) for v in reference.values]

    def test_scaled_point_mass_support(self):
        pmf = brute_force_walk_pmf(2, HALF, StepLaw.dirac(Fraction(1, 2)))
        assert pmf == ExactPmf((0, 1), (1, 1), 2)

    def test_caps(self):
        n = WALK_ORACLE_MAX_N
        assert n == 1000
        pmf = brute_force_walk_pmf(n, HALF, StepLaw.dirac(1))
        assert sum(pmf.probs) == 1
        assert pmf.mean() == exact_mean(n, HALF, 1)
        with pytest.raises(ValueError, match="capped"):
            brute_force_walk_pmf(n + 1, HALF, StepLaw.dirac(1))
        with pytest.raises(ValueError):
            brute_force_walk_pmf(3, HALF, StepLaw.uniform_symmetric())
        with pytest.raises(ValueError, match="on {\\+c, -c}"):
            brute_force_walk_pmf(3, HALF, StepLaw("custom", (), HALF, HALF, ExactPmf((0, 1), (1, 1), 2)))
        with pytest.raises(ValueError):
            brute_force_walk_pmf(0, HALF, StepLaw.dirac(1))


class TestTvDistance:
    def test_identical_pmfs(self):
        assert tv_distance(odd_count_pmf(5), odd_count_pmf(5)) == 0.0

    def test_disjoint_supports(self):
        a = ExactPmf((0,), (1,), 1)
        b = ExactPmf((1,), (1,), 1)
        assert tv_distance(a, b) == 1.0

    def test_histogram_against_pmf(self):
        hist = ExactPmf.from_weights([(1, 10), (2, 40), (3, 10)], 60)
        assert hist == odd_count_pmf(4)
        assert tv_distance(hist, odd_count_pmf(4)) == 0.0
        near = ExactPmf.from_weights([(1, 11), (2, 39), (3, 10)], 60)
        assert tv_distance(near, odd_count_pmf(4)) == pytest.approx(1 / 60)

    def test_mixed_key_types_share_a_lattice(self):
        one = ExactPmf((1,), (1,), 1)
        assert tv_distance(one, ExactPmf((1.0,), (1,), 1)) == 0.0
        assert tv_distance(one, ExactPmf((Fraction(1),), (1,), 1)) == 0.0

    def test_denominator_past_the_float_range(self):
        # 299! has 613 digits: each weight / denom must be one int division
        pmf = odd_count_pmf(300)
        mode = ExactPmf((150,), (1,), 1)
        assert tv_distance(pmf, mode) == pytest.approx(1 - float(pmf.probs[149]), rel=1e-12)

    def test_rejects_bad_input(self):
        # a histogram is built by `from_weights`, which rejects what is not a law
        with pytest.raises(ValueError):
            ExactPmf.from_weights([], 0)
        with pytest.raises(ValueError):
            ExactPmf.from_weights([(0, -1), (1, 2)], 1)

    @given(
        st.dictionaries(st.integers(-5, 5), st.integers(1, 50), min_size=1, max_size=8),
        st.dictionaries(st.integers(-5, 5), st.integers(1, 50), min_size=1, max_size=8),
    )
    def test_bounds_and_symmetry(self, a, b):
        a = ExactPmf.from_weights(a.items(), sum(a.values()))
        b = ExactPmf.from_weights(b.items(), sum(b.values()))
        d = tv_distance(a, b)
        assert 0 <= d <= 1 + 1e-12
        assert d == pytest.approx(tv_distance(b, a))


class TestKsNormal:
    def test_calibration_on_its_own_null(self):
        rng = np.random.default_rng(100)
        samples = rng.normal(1.0, 2.0, size=10_000)
        report = ks_normal(samples, 1.0, 4.0, seed=100)
        assert report.passed
        assert report.statistic == "ks_statistic"
        assert report.threshold == pytest.approx(1.63 / math.sqrt(10_000))

    def test_detects_wrong_shape_with_matched_moments(self):
        rng = np.random.default_rng(101)
        samples = rng.uniform(-1.0, 1.0, size=5_000)
        report = ks_normal(samples, 0.0, 1.0 / 3.0, seed=101)
        assert not report.passed

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            ks_normal(np.zeros(50), 0.0, 1.0)
        with pytest.raises(ValueError):
            ks_normal(np.zeros(500), 0.0, 0.0)


class TestMomentCheck:
    def test_constant_samples_hit_target(self):
        report = moment_check(np.full(100, 2.5), 2.5)
        assert report.value == 0.0 and report.passed

    def test_calibration(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0.0, 1.0, size=40_000)
        report = moment_check(samples, 0.0)
        assert report.passed

    def test_missed_target_fails(self):
        report = moment_check(np.full(100, 2.5), 3.0)
        assert not report.passed

    def test_standard_error_comes_from_the_samples(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        sd = float(samples.std(ddof=1)) / 2.0
        report = moment_check(samples, 0.0, band=3.0)
        assert report.config["sd_of_estimator"] == sd
        assert report.value == 2.5 / sd
        assert not report.passed

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            moment_check(np.ones(1), 1.0)


class TestEmpiricalCf:
    def test_zero_samples_give_unity(self):
        est = empirical_cf(np.zeros(2000), 1.7)
        assert est.value == pytest.approx(1.0 + 0.0j)

    def test_zero_theta_is_exact(self):
        rng = np.random.default_rng(3)
        est = empirical_cf(rng.normal(size=2000), 0.0)
        assert est.value == 1.0 + 0.0j
        assert est.sd_real == 0.0

    def test_sd_bounded_by_inverse_sqrt_m(self):
        rng = np.random.default_rng(4)
        est = empirical_cf(rng.normal(size=5000), 2.0)
        assert est.sd_real <= 1 / math.sqrt(5000)
        assert est.sd_imag <= 1 / math.sqrt(5000)

    def test_gaussian_target(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(0.0, 1.0, size=50_000)
        est = empirical_cf(samples, 1.0)
        assert est.value.real == pytest.approx(math.exp(-0.5), abs=5 / math.sqrt(50_000))
        assert abs(est.value.imag) <= 5 / math.sqrt(50_000)

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            empirical_cf(np.zeros(10), 1.0)


class TestCheckReport:
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_pass_iff_within_threshold(self, value, threshold):
        report = make_report("x", "z_score", value, threshold, 1, None)
        assert report.passed == (report.value <= report.threshold)

    def test_json_round_trip(self):
        report = make_report(
            "demo", "tv_distance", 0.004, 0.01, 1000, 17,
            config={"n": 10}, details={"note": "ok"},
        )
        payload = json.loads(report.to_json())
        assert payload["name"] == "demo"
        assert payload["passed"] is True
        assert payload["seed"] == 17
        assert payload["config"] == {"n": 10}

    def test_json_bytes_are_pinned(self):
        # exact rationals in the config print as strings; keys sort at every level
        report = make_report(
            "demo", "tv_distance", 0.004, 0.01, 1000, 17,
            config={"p": Fraction(1, 3), "n": 10},
            details={"per_k": {"k2": 0.5, "k1": [1, 2]}, "note": "ok"},
        )
        assert report.to_json() == (
            '{"config": {"n": 10, "p": "1/3"}, "details": {"note": "ok", "per_k": '
            '{"k1": [1, 2], "k2": 0.5}}, "name": "demo", "passed": true, "sample_size": 1000, '
            '"seed": 17, "statistic": "tv_distance", "threshold": 0.01, "value": 0.004}'
        )

    def test_margin(self):
        assert make_report("x", "z_score", 1.5, 3.0, 1, None).margin == 0.5
        assert make_report("x", "relative_error", 0.0, 0.0, 1, None).margin == 0.0
        assert make_report("x", "relative_error", 1.0, 0.0, 1, None).margin == math.inf
        assert make_report("x", "relative_error", 7.0, math.inf, 1, None).margin == 0.0
        # not a serialized field: the report stream keeps its keys
        assert "margin" not in json.loads(make_report("x", "z_score", 1.0, 2.0, 1, None).to_json())
