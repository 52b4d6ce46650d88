import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk.acceptance import _MOMENT_PAIRS
from counterwalk.asymptotics import (
    StableSpec,
    _betas,
    beta_of_k,
    beta_remainders,
    clt_variance,
    delta_sq_rate,
    exact_mean,
    limit_constants,
    nu1_clt_variance,
    pareto_phi1,
    rho_of,
    rising_factorial,
    shape_weighted_sum,
    sigma_sq_k,
    sigma_sq_series,
    stable_check_exponent,
    tree_freq_limit,
    velocity,
    yule_simon_pmf,
    yule_simon_series,
)
from counterwalk.eulerian import delta_moment

HALF = Fraction(1, 2)

rational_p = st.fractions(min_value=0, max_value=1, max_denominator=50).filter(
    lambda q: 0 < q < 1
)


class TestVelocity:
    def test_examples(self):
        assert velocity(1, 5) == 5
        assert velocity(0, 7) == 0
        assert velocity(Fraction(2, 3), 1) == HALF

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            velocity(Fraction(3, 2), 1)


class TestCltVariance:
    def test_pure_innovation_is_classical(self):
        assert clt_variance(1, 3, 10) == 1

    def test_centered_steps(self):
        for p in (Fraction(1, 4), HALF, Fraction(9, 10)):
            assert clt_variance(p, 0, Fraction(5)) == Fraction(5) / (3 - 2 * p)

    def test_point_mass_value(self):
        assert clt_variance(HALF, 1, 1) == Fraction(4, 9)

    def test_point_mass_maximizer(self):
        # for a point mass the variance is 4(1-p) m2 / ((3-2p)(2-p)^2);
        # its critical point solves 4p^2 - 9p + 4 = 0
        p_star = (9 - math.sqrt(17)) / 8
        assert abs(4 * p_star**2 - 9 * p_star + 4) < 1e-12

        def var(p: float) -> float:
            return 4 * (1 - p) / ((3 - 2 * p) * (2 - p) ** 2)

        grid = [i / 1000 for i in range(1, 1000)]
        assert max(grid, key=var) == pytest.approx(p_star, abs=1e-3)

    def test_rejects_no_innovation_and_bad_moments(self):
        with pytest.raises(ValueError):
            clt_variance(0, 0, 1)
        with pytest.raises(ValueError):
            clt_variance(HALF, 2, 1)

    @given(rational_p)
    def test_nonnegative(self, p):
        assert clt_variance(p, 1, 2) >= 0


class TestNu1Variance:
    def test_examples(self):
        assert nu1_clt_variance(1) == 0
        assert nu1_clt_variance(HALF) == Fraction(5, 18)
        # direct substitution: (2 p^3 - 8 p^2 + 6 p) = 27/32 and
        # (3-2p)(2-p)^2 = 75/32 at p = 3/4
        assert nu1_clt_variance(Fraction(3, 4)) == Fraction(9, 25)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nu1_clt_variance(0)

    @given(rational_p)
    def test_nonnegative(self, p):
        assert nu1_clt_variance(p) >= 0


class TestYuleSimon:
    def test_example(self):
        assert yule_simon_pmf(1, HALF) == Fraction(2, 3)

    def test_rejects_boundary(self):
        for p in (0, 1):
            with pytest.raises(ValueError):
                yule_simon_pmf(1, p)

    def test_series_identities(self):
        # head plus the telescoped remainder, from kmax = 0 (all remainder) on
        for kmax in (0, 1, 2, 3, 10_000):
            for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
                series = yule_simon_series(p, kmax=kmax)
                assert series["mass"] + series["mass_tail"] == pytest.approx(1, rel=0, abs=1e-12)
                assert series["mean"] + series["mean_tail"] == pytest.approx(
                    float(1 / p), rel=0, abs=1e-12)

    def test_partial_sums_monotone_bounded(self):
        total = Fraction(0)
        prev = Fraction(0)
        for k in range(1, 40):
            total += yule_simon_pmf(k, Fraction(1, 3))
            assert prev < total <= 1
            prev = total

    @given(rational_p, st.integers(min_value=1, max_value=40))
    def test_beta_remainders_telescope(self, p, k):
        rho = rho_of(p)
        b = beta_of_k(k, p)
        mass, mean = beta_remainders(k, b, rho)
        next_mass, next_mean = beta_remainders(k + 1, beta_of_k(k + 1, p), rho)
        assert (b + next_mass, k * b + next_mean) == (mass, mean)
        assert beta_remainders(1, beta_of_k(1, p), rho) == (1 / rho, (1 - p) / p)

    @given(rational_p, st.integers(min_value=1, max_value=40))
    def test_beta_identity_with_rising_factorial(self, p, k):
        rho = rho_of(p)
        assert beta_of_k(k, p) * rising_factorial(1 + rho, k) == math.factorial(k - 1)
        # the recurrence every Beta-weighted series reads, against the closed form
        assert next(itertools.islice(_betas(rho), k - 1, None)) == beta_of_k(k, p)


class TestRisingFactorial:
    def test_examples(self):
        assert rising_factorial(5, 0) == 1
        assert rising_factorial(2, 3) == 24

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            rising_factorial(0, 2)
        with pytest.raises(ValueError):
            rising_factorial(-1, 2)


class TestSigma:
    def test_pair_component_is_zero(self):
        assert sigma_sq_k(2, HALF, 1, 1) == 0

    def test_rejects_boundary(self):
        for p in (0, 1):
            with pytest.raises(ValueError):
                sigma_sq_k(3, p, 1, 1)

    def test_resummation_identities(self):
        # the remainder starts at k = 3 however short the head
        for kmax in (0, 1, 2, 3, 5000):
            for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
                for m1, m2 in ((1, 1), (0, 1), (1, 2)):
                    series = sigma_sq_series(p, m1, m2, kmax=kmax)
                    assert series["clt_variance"] == float(clt_variance(p, m1, m2))
                    assert series["sigma_total"] + series["tail"] == pytest.approx(
                        series["clt_variance"], rel=0, abs=1e-12)
                    assert series["closing_lhs"] + series["tail"] == pytest.approx(
                        series["closing_rhs"], rel=0, abs=1e-12)

    def test_first_component_plus_tail_structure(self):
        # sigma_1^2 alone underestimates the full variance
        assert sigma_sq_k(1, HALF, 0, 1) < clt_variance(HALF, 0, 1)


class TestExactMean:
    def test_base_cases(self):
        assert exact_mean(1, HALF, 5) == 5
        for p in (Fraction(0), Fraction(1, 4), HALF, Fraction(1)):
            assert exact_mean(2, p, 3) == 2 * p * 3

    def test_no_innovation_collapses(self):
        for n in range(2, 10):
            assert exact_mean(n, 0, 7) == 0

    @given(
        rational_p,
        st.integers(min_value=1, max_value=60),
        st.fractions(min_value=-3, max_value=3, max_denominator=20),
    )
    @settings(max_examples=60)
    def test_satisfies_the_mean_recursion(self, p, n, m1):
        lhs = exact_mean(n + 1, p, m1)
        rhs = p * m1 + (1 - (1 - p) / n) * exact_mean(n, p, m1)
        assert lhs == rhs

    def test_brute_force_two_steps(self):
        # by hand: innovation gives X1 + X2, counterbalance gives X1 - X1
        p = Fraction(1, 3)
        assert exact_mean(2, p, 1) == p * 2

    def test_velocity_asymptote(self):
        value = exact_mean(10_000, HALF, 1) / 10_000
        target = velocity(HALF, 1)
        assert abs(float(value - target)) / float(target) < 0.01


class TestTreeFreqLimit:
    def test_singleton_matches_velocity_scale(self):
        for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
            assert tree_freq_limit(1, p) == p / (2 - p)

    def test_pair_shape(self):
        for p in (Fraction(1, 4), HALF):
            expected = p * (1 - p) / ((2 - p) * (3 - 2 * p))
            assert tree_freq_limit(2, p) == expected

    def test_shapes_of_fixed_size_recover_size_frequency(self):
        # the (k-1)! increasing shapes of size k share one limit
        p = Fraction(2, 5)
        for k in range(1, 7):
            total = math.factorial(k - 1) * tree_freq_limit(k, p)
            assert total == p * yule_simon_pmf(k, p)

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            tree_freq_limit(1, 1)
        with pytest.raises(ValueError):
            tree_freq_limit(0, HALF)


class TestStableExponent:
    @pytest.mark.parametrize("phi_plus", [-1.0, 0.0, math.nan, math.inf])
    def test_spec_rejects_bad_unit_exponent(self, phi_plus):
        with pytest.raises(ValueError):
            StableSpec(1.5, phi_plus)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta(self, theta):
        with pytest.raises(ValueError):
            stable_check_exponent(theta, HALF, StableSpec(1.5, 1.0), kmax=5)

    def test_zero_theta(self):
        spec = StableSpec(1.5, 1.0)
        value, tail = stable_check_exponent(0.0, HALF, spec, kmax=30)
        assert value == 0.0 and tail == 0.0

    def test_pair_shell_contributes_nothing(self):
        spec = StableSpec(1.5, 1.0)
        one, _ = stable_check_exponent(1.0, HALF, spec, kmax=1)
        two, _ = stable_check_exponent(1.0, HALF, spec, kmax=2)
        assert one == two

    def test_first_shell_weight(self):
        spec = StableSpec(1.2, 2.0)
        for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
            value, _ = stable_check_exponent(1.5, p, spec, kmax=1)
            assert value == pytest.approx(float(p / (2 - p)) * spec.phi(1.5))

    def test_near_pure_innovation_recovers_input_exponent(self):
        spec = StableSpec(1.5, 1.0)
        p = Fraction(999_999, 1_000_000)
        value, tail = stable_check_exponent(1.0, p, spec, kmax=60)
        assert value == pytest.approx(spec.phi(1.0), abs=1e-4)

    def test_even_in_theta_for_symmetric_input(self):
        spec = StableSpec(1.5, 1.0)
        plus, _ = stable_check_exponent(1.3, HALF, spec, kmax=40)
        minus, _ = stable_check_exponent(-1.3, HALF, spec, kmax=40)
        assert plus == pytest.approx(minus)

    def test_rejects_bad_arguments(self):
        spec = StableSpec(1.5, 1.0)
        with pytest.raises(ValueError):
            stable_check_exponent(1.0, 0, spec)
        with pytest.raises(ValueError):
            stable_check_exponent(1.0, HALF, spec, kmax=0)
        with pytest.raises(ValueError):
            StableSpec(2.5, 1.0)

    def test_tail_bounds_the_omitted_shells(self):
        # at kmax = 50 the bound covers value(kmax=1500) - value(kmax=50),
        # here summed from float parity laws, which match the exact shells
        alphas = (0.5, 1.0, 1.5, 1.9)
        far = 1500
        moments = shell_abs_moments(far, alphas)
        for p in (Fraction(1, 4), HALF, Fraction(3, 4)):
            rho, prefac = float(rho_of(p)), float(p / (1 - p))
            weights = [prefac * b for b in itertools.islice(_betas(rho), far)]
            for alpha in alphas:
                spec = StableSpec(alpha, 1.0)
                head, _ = stable_check_exponent(1.0, p, spec, kmax=60)
                shells = [w * m for w, m in zip(weights, moments[alpha])]
                assert math.fsum(shells[:60]) == pytest.approx(head, rel=1e-12)
                _, tail = stable_check_exponent(1.0, p, spec, kmax=50)
                assert tail >= math.fsum(shells[50:])

    def test_homogeneity(self):
        spec = StableSpec(1.5, 2.0)
        assert spec.phi(3.0) == pytest.approx(3.0**1.5 * 2.0)
        assert spec.phi(-3.0) == pytest.approx(3.0**1.5 * 2.0)
        assert spec.a_n(16) == pytest.approx(16 ** (2 / 3))


def shell_abs_moments(kmax, alphas):
    """``E|delta_k|^alpha`` for ``k = 1..kmax`` and each ``alpha``, from the
    float Eulerian rows: ``P(Odd = ell) = <k-1, ell-1> / (k-1)!``, each row
    from the last by ``<n, m> = (m+1) <n-1, m> + (n-m) <n-1, m-1>``."""
    import numpy as np

    out = {alpha: [1.0] for alpha in alphas}  # a lone root: delta = 1
    row = np.ones(1)  # <1, 0> / 1!
    for k in range(2, kmax + 1):
        n = k - 1
        if n > 1:
            m = np.arange(n)
            nxt = np.zeros(n)
            nxt[:-1] += (m[:-1] + 1) * row
            nxt[1:] += (n - m[1:]) * row
            row = nxt / n
        delta = np.abs(k - 2 * (np.arange(n) + 1.0))
        for alpha in alphas:
            out[alpha].append(float(row @ delta**alpha))
    return out


def quadrature_phi1(alpha, n):
    """``-n log phi_X(t)`` by quadrature of ``1 - phi_X(t) = alpha t^alpha
    int_t^inf (1 - cos u) u^(-alpha-1) du``, split at u = 1 so that neither
    piece cancels: ``[t, 1]`` directly, ``[1, inf)`` as ``1/alpha`` minus a
    Fourier integral."""
    from scipy.integrate import quad

    t = n ** (-1.0 / alpha)
    near, _ = quad(lambda u: (1 - math.cos(u)) * u ** (-alpha - 1), t, 1.0,
                   epsabs=0.0, epsrel=1e-12, limit=200)
    far, _ = quad(lambda u: u ** (-alpha - 1), 1.0, math.inf, weight="cos", wvar=1.0)
    return -n * math.log1p(-alpha * t**alpha * (near + 1.0 / alpha - far))


class TestParetoPhi1:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.5, 1.9])
    @pytest.mark.parametrize("n", [1_000, 10_000])
    def test_matches_quadrature(self, alpha, n):
        assert pareto_phi1(alpha, n) == pytest.approx(quadrature_phi1(alpha, n), rel=1e-8)

    def test_pinned_values(self):
        assert pareto_phi1(1.5, 1_000) == pytest.approx(2.3594097440, abs=1e-10)
        assert pareto_phi1(1.5, 10_000) == pytest.approx(2.4373014453, abs=1e-10)

    def test_continuous_through_alpha_one(self):
        # C_alpha has the limit pi/2 at alpha = 1, where Gamma(-alpha) has a pole
        at_one = pareto_phi1(1.0, 10_000)
        assert pareto_phi1(1.0 - 1e-7, 10_000) == pytest.approx(at_one, rel=1e-5)
        assert pareto_phi1(1.0 + 1e-7, 10_000) == pytest.approx(at_one, rel=1e-5)
        # the unit exponent tends to C_1 = pi/2 as n grows
        assert pareto_phi1(1.0, 10**12) == pytest.approx(math.pi / 2, rel=1e-9)

    def test_leading_terms_at_large_n(self):
        # n (1 - phi_X(t)) = alpha (C - t^(2-alpha) / (2 (2-alpha)) + ...), C = -Gamma(-alpha) cos(pi alpha/2)
        alpha, n = 1.5, 10**9
        c = -math.gamma(-alpha) * math.cos(math.pi * alpha / 2)
        t = n ** (-1 / alpha)
        expected = alpha * (c - t ** (2 - alpha) / (2 * (2 - alpha)))
        assert pareto_phi1(alpha, n) == pytest.approx(expected, rel=1e-8)

    def test_rejects_bad_arguments(self):
        for alpha in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                pareto_phi1(alpha, 100)
        with pytest.raises(ValueError):
            pareto_phi1(1.5, 0)
        with pytest.raises(ValueError):
            pareto_phi1(0.5, 1)  # E cos X < 0 at t = 1


class TestShapeSeries:
    def test_enumeration_matches_closed_form(self):
        # E delta_k^2 is 1, 0 and k/3 for k = 1, 2 and k >= 3, and
        # B_1 - B_2 = (1-p)/(3-2p), so the total is
        # (4/3)(1-p)/p + (2/3)(1-p)/(3-2p) = ((1-p)/p)(1 + delta_sq_rate(p))
        for p in (Fraction(1, 7), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(9, 10)):
            for cap in (3, 7, 12):
                total = shape_weighted_sum(p, size_cap=cap).total
                assert total == Fraction(4, 3) * (1 - p) / p + Fraction(2, 3) * (1 - p) / (3 - 2 * p)
                assert total == (1 - p) / p * (1 + delta_sq_rate(p))

    def test_pinned_half_at_the_gate_cap(self):
        # exact literals for the series that c14 checks (size_cap = 9)
        sws = shape_weighted_sum(HALF, 9)
        assert (sws.truncated, sws.tail, sws.total) == (Fraction(83, 66), Fraction(8, 33), Fraction(3, 2))

    def test_delta_sq_rate_against_term_by_term_sum(self):
        p = HALF
        # independent route: exact per-size parity moments times beta masses;
        # the neglected tail beyond k=300 is below 0.5% of the total
        partial = sum(
            float(beta_of_k(k, p)) * float(delta_moment(k, 2)) for k in range(1, 301)
        )
        expected = float(p / (1 - p)) * partial
        assert float(delta_sq_rate(p)) == pytest.approx(expected, rel=1e-2)


class TestLimitConstants:
    def test_interior_point(self):
        constants = limit_constants(HALF, 1, 1)
        assert constants["velocity"] == Fraction(1, 3)
        assert constants["clt_variance"] == Fraction(4, 9)
        assert constants["nu1_clt_variance"] == Fraction(5, 18)
        assert constants["rho"] == 2
        assert constants["sigma_sq_2"] == 0
        assert constants["yule_simon_1"] == Fraction(2, 3)

    def test_keys_come_in_printed_order(self):
        assert list(limit_constants(HALF, 1, 1, kmax=2)) == [
            "velocity", "clt_variance", "nu1_clt_variance", "rho",
            "sigma_sq_1", "sigma_sq_2", "yule_simon_1", "yule_simon_2",
        ]

    def test_one_pass_matches_per_size_lookups(self):
        for p in (Fraction(1, 4), Fraction(2, 7), HALF, Fraction(3, 4), Fraction(99, 100)):
            for m1, m2 in _MOMENT_PAIRS:
                constants = limit_constants(p, m1, m2, kmax=40)
                for k in range(1, 41):
                    assert constants[f"sigma_sq_{k}"] == sigma_sq_k(k, p, m1, m2)
                    assert constants[f"yule_simon_{k}"] == yule_simon_pmf(k, p)
                assert "sigma_sq_41" not in constants and "yule_simon_41" not in constants

    def test_pure_innovation_point(self):
        constants = limit_constants(1, 0, 1)
        assert constants["clt_variance"] == 1
        assert list(constants) == ["velocity", "clt_variance", "nu1_clt_variance"]

    def test_heavy_tail_missing_moments(self):
        constants = limit_constants(HALF, 0, None)
        assert "clt_variance" not in constants
        assert constants["velocity"] == 0
        assert not any(name.startswith("sigma_sq_") for name in constants)
