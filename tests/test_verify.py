import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk.asymptotics import exact_mean
from counterwalk.eulerian import delta_pmf, odd_count_pmf
from counterwalk.verify import (
    CheckReport,
    brute_force_walk_pmf,
    empirical_cf,
    ks_normal,
    make_report,
    moment_check,
    tv_distance,
)
from counterwalk.walk_engine import StepLaw

HALF = Fraction(1, 2)
P_GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))


class TestBruteForce:
    def test_single_step(self):
        assert dict(brute_force_walk_pmf(1, HALF, StepLaw.dirac(1)).items()) == {1: Fraction(1)}

    def test_two_steps_point_mass(self):
        # innovation stacks 1+1, counterbalance cancels 1-1
        for p in P_GRID:
            pmf = brute_force_walk_pmf(2, p, StepLaw.dirac(1))
            expected = {}
            if p < 1:
                expected[0] = 1 - p
            if p > 0:
                expected[2] = p
            assert dict(pmf.items()) == expected

    def test_two_steps_rademacher(self):
        p = Fraction(1, 3)
        pmf = brute_force_walk_pmf(2, p, StepLaw.rademacher())
        assert dict(pmf.items()) == {
            -2: p / 4,
            0: p / 2 + (1 - p),
            2: p / 4,
        }

    def test_no_innovation_reduces_to_parity_law(self):
        for n in range(1, 8):
            pmf = brute_force_walk_pmf(n, Fraction(0), StepLaw.dirac(1))
            assert dict(pmf.items()) == dict(delta_pmf(n).items())

    def test_mean_matches_exact_recursion(self):
        for n in range(1, 7):
            for p in P_GRID:
                for law in (StepLaw.dirac(1), StepLaw.rademacher()):
                    assert brute_force_walk_pmf(n, p, law).mean() == exact_mean(n, p, law.m1)

    def test_scaled_point_mass_support(self):
        pmf = brute_force_walk_pmf(2, HALF, StepLaw.dirac(Fraction(1, 2)))
        assert dict(pmf.items()) == {0: HALF, 1: HALF}

    def test_caps(self):
        with pytest.raises(ValueError):
            brute_force_walk_pmf(8, HALF, StepLaw.dirac(1))
        with pytest.raises(ValueError):
            brute_force_walk_pmf(3, HALF, StepLaw.uniform_symmetric())
        with pytest.raises(ValueError):
            brute_force_walk_pmf(0, HALF, StepLaw.dirac(1))


class TestTvDistance:
    def test_identical_pmfs(self):
        assert tv_distance(odd_count_pmf(5), odd_count_pmf(5)) == 0.0

    def test_disjoint_supports(self):
        a = {0: 1}
        b = {1: 1}
        assert tv_distance(a, b) == 1.0

    def test_histogram_against_pmf(self):
        hist = {1: 10, 2: 40, 3: 10}
        assert tv_distance(hist, odd_count_pmf(4)) == pytest.approx(0.0)

    def test_mixed_key_types_share_a_lattice(self):
        assert tv_distance({1: 1}, {1.0: 1.0}) == pytest.approx(0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tv_distance({}, {0: 1})
        with pytest.raises(ValueError):
            tv_distance({0: -1, 1: 2}, {0: 1})
        with pytest.raises(ValueError):
            tv_distance(3, {0: 1})

    @given(
        st.dictionaries(st.integers(-5, 5), st.integers(1, 50), min_size=1, max_size=8),
        st.dictionaries(st.integers(-5, 5), st.integers(1, 50), min_size=1, max_size=8),
    )
    def test_bounds_and_symmetry(self, a, b):
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
        report = moment_check(np.full(100, 2.5), 2.5, 0.0)
        assert report.value == 0.0 and report.passed

    def test_calibration(self):
        rng = np.random.default_rng(7)
        samples = rng.normal(0.0, 1.0, size=40_000)
        report = moment_check(samples, 0.0, 1.0 / math.sqrt(40_000))
        assert report.passed

    def test_missed_target_fails(self):
        report = moment_check(np.full(100, 2.5), 3.0, 0.01)
        assert not report.passed

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            moment_check(np.ones(1), 1.0, 1.0)


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
