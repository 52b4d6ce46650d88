import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk.replication import child_seed
from counterwalk.verify import brute_force_walk_pmf, tv_distance
from counterwalk.walk_engine import (
    StepLaw,
    decompose,
    forest,
    forest_census,
    parse_mu_spec,
    representation_residual,
    simulate,
    simulate_batch,
    simulate_seeded,
)

ALL_LAWS = (
    StepLaw.rademacher(),
    StepLaw.dirac(1),
    StepLaw.uniform_symmetric(),
    StepLaw.gaussian(0, 1),
    StepLaw.pareto_symmetric(Fraction(3, 2)),
)


def reference_forest(innov, picks):
    """The forest by its sequential definition: step 0 and innovations are
    roots; any other step joins its pick's tree one level deeper."""
    root = np.arange(len(innov))
    odd = np.zeros(len(innov), dtype=bool)
    for j in range(1, len(innov)):
        if not innov[j]:
            root[j] = root[picks[j]]
            odd[j] = not odd[picks[j]]
    return root, odd


def random_forest_input(n, p, rng, width=None):
    shape = (n,) if width is None else (n, width)
    innov = rng.random(shape) < p
    steps = np.arange(n).reshape((n,) + (1,) * (len(shape) - 1))
    return innov, (rng.random(shape) * steps).astype(np.int64)


class TestStepLaw:
    def test_spec_round_trip(self):
        for law in ALL_LAWS + (StepLaw.dirac(Fraction(3, 2)), StepLaw.gaussian(Fraction(1, 2), 2)):
            again = parse_mu_spec(law.spec_string())
            assert again == law

    def test_grammar_accepts_fractions_and_decimals(self):
        assert parse_mu_spec("dirac:1/2").params[0] == Fraction(1, 2)
        assert parse_mu_spec("dirac:0.25").params[0] == Fraction(1, 4)
        assert parse_mu_spec("gauss:0,1").m2 == 1
        assert parse_mu_spec("pareto:1.5").params[0] == Fraction(3, 2)

    def test_grammar_rejects_garbage(self):
        for bad in ("cauchy", "dirac", "dirac:x", "gauss:1", "gauss:1,2,3", "pareto:0", "pareto:-1", "uniform:3"):
            with pytest.raises(ValueError):
                parse_mu_spec(bad)

    def test_gaussian_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            StepLaw.gaussian(0, -1)

    def test_exact_moments(self):
        assert (StepLaw.rademacher().m1, StepLaw.rademacher().m2) == (0, 1)
        law = StepLaw.dirac(Fraction(3, 2))
        assert (law.m1, law.m2) == (Fraction(3, 2), Fraction(9, 4))
        assert StepLaw.uniform_symmetric().m2 == Fraction(1, 3)
        assert StepLaw.gaussian(2, 3).m2 == 7

    def test_pareto_moment_availability(self):
        assert StepLaw.pareto_symmetric(Fraction(3, 2)).m1 == 0
        assert StepLaw.pareto_symmetric(Fraction(3, 2)).m2 is None
        assert StepLaw.pareto_symmetric(Fraction(4, 5)).m1 is None
        assert StepLaw.pareto_symmetric(3).m2 == 3

    def test_pareto_magnitudes_at_least_scale(self):
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        batch = law.sample_batch(np.random.default_rng(0), 1000)
        assert np.all(np.abs(batch) >= 1.0)


class TestForest:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_matches_reference_loop(self, p):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 17, 1000):
            innov, picks = random_forest_input(n, p, rng)
            root, odd = forest(innov, picks)
            ref_root, ref_odd = reference_forest(innov, picks)
            assert root.tolist() == ref_root.tolist()
            assert odd.tolist() == ref_odd.tolist()

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_replica_axis_matches_reference_loop(self, p):
        rng = np.random.default_rng(32)
        for n, width in ((1, 4), (5, 1), (300, 7)):
            innov, picks = random_forest_input(n, p, rng, width)
            root, odd = forest(innov, picks)
            assert root.shape == odd.shape == (n, width)
            for r in range(width):
                ref_root, ref_odd = reference_forest(innov[:, r], picks[:, r])
                assert root[:, r].tolist() == ref_root.tolist()
                assert odd[:, r].tolist() == ref_odd.tolist()

    def test_first_step_is_a_root_whatever_its_bit(self):
        root, odd = forest(np.zeros(4, dtype=bool), np.zeros(4, dtype=np.int64))
        assert root.tolist() == [0, 0, 0, 0]
        assert odd.tolist() == [False, True, True, True]


class TestSimulate:
    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate(0, Fraction(1, 2), StepLaw.dirac(1), rng)
        with pytest.raises(ValueError):
            simulate(5, Fraction(3, 2), StepLaw.dirac(1), rng)

    def test_first_step_is_always_an_innovation(self):
        for seed in range(5):
            run = simulate_seeded(20, Fraction(0), StepLaw.rademacher(), seed)
            assert run.eps[0]
            assert run.tree_id[0] == 1 and not run.parity[0]

    def test_innovation_count_tracks_bits(self):
        run = simulate_seeded(200, Fraction(1, 3), StepLaw.dirac(1), 3)
        running = 0
        for bit, tree in zip(run.eps, run.tree_id):
            running += bit
            assert tree <= running
            if bit:
                assert tree == running
        assert len(run.x) == run.innovations == running

    def test_pick_only_drawn_when_counterbalancing(self):
        run = simulate_seeded(100, Fraction(1, 2), StepLaw.dirac(1), 4)
        for m in range(2, 101):
            if run.eps[m - 1]:
                assert run.v[m - 1] == 0
            else:
                assert 1 <= run.v[m - 1] <= m - 1

    def test_pure_innovation_is_plain_random_walk(self):
        run = simulate_seeded(100, Fraction(1), StepLaw.rademacher(), 7)
        assert np.array_equal(run.x_check, run.x)
        assert np.array_equal(run.x[run.tree_id - 1], run.x)
        assert run.final_check == sum(run.x)
        parts = decompose(run)
        assert set(parts) == {1}
        assert parts[1] == run.final_check

    def test_pure_counterbalance_follows_tree_parity(self):
        run = simulate_seeded(300, Fraction(0), StepLaw.dirac(1), 11)
        assert run.innovations == 1
        partial = 0
        for m in range(1, 301):
            partial += 1 - 2 * run.parity[m - 1]
            assert run.s_check[m - 1] == partial
        census = forest_census(run)
        assert run.final_check == census.delta_per_tree[0]

    def test_coupling_and_sign_rule(self):
        for law in ALL_LAWS:
            run = simulate_seeded(400, Fraction(1, 3), law, 21)
            for xc, xh, par in zip(run.x_check, run.x[run.tree_id - 1], run.parity):
                assert abs(xc) == abs(xh)
                if par == 0:
                    assert xc == xh
                else:
                    assert xc == -xh

    def test_parity_matches_independent_reconstruction(self):
        run = simulate_seeded(300, Fraction(2, 5), StepLaw.dirac(1), 33)
        parity = [0] * (run.n + 1)
        for m in range(1, run.n + 1):
            if run.eps[m - 1]:
                parity[m] = 0
            else:
                parity[m] = parity[run.v[m - 1]] ^ 1
        assert run.parity.tolist() == [parity[m] for m in range(1, run.n + 1)]
        root, odd = reference_forest(run.eps, run.v - 1)
        assert np.array_equal(run.tree_id, np.cumsum(run.eps)[root])
        assert np.array_equal(run.parity, odd)

    def test_reinforced_walk_of_unit_masses_is_deterministic(self):
        # constant step draws make the reinforced sum exactly the step index
        run = simulate_seeded(250, Fraction(1, 2), StepLaw.dirac(1), 8)
        assert run.s_hat.tolist() == list(range(1, 251))

    def test_determinism(self):
        a = simulate_seeded(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 77)
        b = simulate_seeded(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 77)
        assert np.array_equal(a.s_check, b.s_check)
        assert np.array_equal(a.eps, b.eps) and np.array_equal(a.v, b.v) and np.array_equal(a.x, b.x)
        c = simulate_seeded(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 78)
        assert not np.array_equal(c.s_check, a.s_check)

    def test_float_partial_sums_are_compensated(self):
        # within one ulp of the correctly rounded prefix sums, which a plain
        # float64 running sum misses by many ulps at this length
        run = simulate_seeded(20_000, Fraction(1, 2), StepLaw.gaussian(0, 1), 12)
        walks = ((run.s_check, run.x_check), (run.s_hat, run.x[run.tree_id - 1]))
        for sums, steps in walks:
            for k in (1, 777, 20_000):
                exact = math.fsum(steps[:k].tolist())
                assert abs(sums[k - 1] - exact) <= np.spacing(abs(exact))
        assert abs(run.s_check[-1] - run.final_check) <= np.spacing(abs(run.final_check))

    def test_lattice_laws_stay_exact(self):
        law = StepLaw.dirac(Fraction(1, 3))
        run = simulate_seeded(500, Fraction(1, 2), law, 6)
        steps = [Fraction(1, 3) * (-1 if par else 1) for par in run.parity]
        assert run.final_check == sum(steps)
        assert isinstance(run.final_check, (int, Fraction))
        assert run.final_hat == Fraction(500, 3)
        assert run.as_float(run.s_check).tolist() == [
            float(sum(steps[:m])) for m in range(1, 501)
        ]


class TestForestCensus:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1)]),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_counting_invariants(self, seed, p, n):
        run = simulate_seeded(n, p, StepLaw.rademacher(), seed)
        census = forest_census(run, shape_cap=4)
        assert sum(k * cnt for k, cnt in census.nu.items()) == n
        assert sum(census.nu.values()) == run.innovations
        assert sum(census.occurrences) == n
        assert len(census.occurrences) == run.innovations
        # shapes of size <= cap partition the size classes they cover
        for k in range(1, 5):
            shape_total = sum(
                cnt for seq, cnt in census.nu_shape.items() if len(seq) + 1 == k
            )
            assert shape_total == census.nu.get(k, 0)

    def test_deltas_bounded_by_sizes(self):
        run = simulate_seeded(500, Fraction(1, 3), StepLaw.dirac(1), 5)
        census = forest_census(run)
        for size, delta in zip(census.occurrences, census.delta_per_tree):
            assert abs(delta) <= size
            assert (delta - size) % 2 == 0

    def test_singleton_fraction_near_limit(self):
        n = 100_000
        run = simulate_seeded(n, Fraction(1, 2), StepLaw.dirac(1), 17)
        census = forest_census(run, shape_cap=1)
        nu1 = census.nu.get(1, 0)
        # crude Poisson-scale band around n/3
        assert abs(nu1 - n / 3) <= 4 * math.sqrt(n / 3)

    def test_conditional_shape_law_is_uniform(self):
        # given its size, a genealogical tree is uniform over the
        # (k-1)! increasing shapes of that size
        from scipy.stats import chisquare

        run = simulate_seeded(100_000, Fraction(1, 2), StepLaw.dirac(1), 4242)
        census = forest_census(run, shape_cap=4)
        for k in (3, 4):
            counts = [cnt for seq, cnt in census.nu_shape.items() if len(seq) + 1 == k]
            assert len(counts) == math.factorial(k - 1)
            _, pvalue = chisquare(counts)
            assert pvalue > 1e-3


class TestDecompose:
    def test_reconstructs_exactly_for_exact_laws(self):
        for law in (StepLaw.dirac(1), StepLaw.rademacher(), StepLaw.dirac(Fraction(1, 2))):
            run = simulate_seeded(400, Fraction(1, 3), law, 2)
            parts = decompose(run)
            assert sum(parts.values()) == run.final_check

    def test_reconstructs_to_tolerance_for_float_laws(self):
        run = simulate_seeded(10_000, Fraction(1, 2), StepLaw.gaussian(0, 1), 3)
        parts = decompose(run)
        gap = abs(sum(parts.values()) - run.final_check)
        assert gap <= 1e-9 * (1 + abs(run.final_check))

    def test_pair_component_vanishes(self):
        # two-vertex trees have one even and one odd vertex, so they cancel
        for seed in range(5):
            run = simulate_seeded(300, Fraction(1, 2), StepLaw.gaussian(0, 1), seed)
            parts = decompose(run)
            if 2 in parts:
                assert parts[2] == 0


class TestRepresentationResidual:
    def test_exact_laws_have_zero_residual(self):
        for law in (StepLaw.dirac(1), StepLaw.rademacher()):
            for seed in range(5):
                run = simulate_seeded(2000, Fraction(1, 4), law, seed)
                assert representation_residual(run) == 0

    def test_float_laws_stay_below_relative_band(self):
        for seed in range(3):
            run = simulate_seeded(20_000, Fraction(1, 2), StepLaw.gaussian(0, 1), seed)
            res = float(representation_residual(run))
            assert res <= 1e-9 * (1 + abs(float(run.final_check)))


class TestBatch:
    def test_deterministic(self):
        a = simulate_batch(50, Fraction(1, 2), StepLaw.rademacher(), 500, 42)
        b = simulate_batch(50, Fraction(1, 2), StepLaw.rademacher(), 500, 42)
        assert np.array_equal(a.s_check, b.s_check)
        assert np.array_equal(a.nu_k, b.nu_k)

    def test_census_invariants(self):
        batch = simulate_batch(8, Fraction(1, 2), StepLaw.dirac(1), 2000, 1, nu_kmax=8)
        sizes = np.arange(1, 9)
        assert np.all((batch.nu_k * sizes).sum(axis=1) == 8)
        assert np.all(batch.nu_k.sum(axis=1) == batch.i_n)
        assert np.array_equal(batch.nu1, batch.nu_k[:, 0])
        assert np.all(batch.i_n >= 1) and np.all(batch.i_n <= 8)

    def test_unit_mass_reinforced_sum_is_horizon(self):
        batch = simulate_batch(30, Fraction(1, 3), StepLaw.dirac(1), 300, 9)
        assert np.allclose(batch.s_hat, 30.0)

    def test_extreme_innovation_rates(self):
        ones = simulate_batch(10, Fraction(1), StepLaw.dirac(1), 100, 5)
        assert np.all(ones.i_n == 10)
        assert np.allclose(ones.s_check, 10.0)
        zeros = simulate_batch(10, Fraction(0), StepLaw.dirac(1), 100, 5)
        assert np.all(zeros.i_n == 1)

    def test_matches_exhaustive_law(self):
        pmf = brute_force_walk_pmf(5, Fraction(1, 2), StepLaw.rademacher())
        batch = simulate_batch(5, Fraction(1, 2), StepLaw.rademacher(), 20_000, 77, census=False)
        values, counts = np.unique(np.rint(batch.s_check).astype(int), return_counts=True)
        hist = {int(v): int(c) for v, c in zip(values, counts)}
        assert tv_distance(hist, pmf) <= 0.05

    def test_sum_delta_sq_consistent_with_check_sum(self):
        # for a unit point mass the walk equals the sum of per-tree deltas
        batch = simulate_batch(40, Fraction(1, 2), StepLaw.dirac(1), 500, 13)
        assert batch.sum_delta_sq is not None
        assert np.all(batch.sum_delta_sq >= 1.0)

    @pytest.mark.parametrize("n,p,law,reps", [
        (1, Fraction(1, 2), StepLaw.rademacher(), 3),
        (40, Fraction(1, 2), StepLaw.rademacher(), 200),
        (60, Fraction(0), StepLaw.dirac(1), 30),
        (60, Fraction(1), StepLaw.uniform_symmetric(), 30),
        (200, Fraction(1, 4), StepLaw.gaussian(0, 1), 50),
        (150, Fraction(1, 2), StepLaw.pareto_symmetric(Fraction(3, 2)), 1),
    ])
    def test_bit_identical_to_reference_loop_on_the_chunk_draws(self, n, p, law, reps):
        # the chunk draws and the float summation order of every earlier
        # release: a (n, rows) matrix summed along the step axis
        seed, kmax = 2024, 4
        rng = np.random.default_rng(child_seed(seed, 0))
        innov = rng.random((n, reps)) < float(p)
        u = rng.random((n, reps))
        draws = law.sample_batch(rng, n * reps).reshape(n, reps)
        hat = np.empty((n, reps))
        odd = np.empty((n, reps), dtype=bool)
        sizes = np.empty((reps, kmax), dtype=np.int64)
        dsq = np.empty(reps)
        for r in range(reps):
            root, odd[:, r] = reference_forest(innov[:, r], (u[:, r] * np.arange(n)).astype(np.int64))
            hat[:, r] = draws[root, r]
            counts = np.bincount(root, minlength=n)
            sizes[r] = [(counts == k).sum() for k in range(1, kmax + 1)]
            dsq[r] = (np.bincount(root, weights=1 - 2 * odd[:, r].astype(int), minlength=n) ** 2).sum()
        batch = simulate_batch(n, p, law, reps, seed, nu_kmax=kmax)
        assert batch.s_hat.tobytes() == hat.sum(axis=0).tobytes()
        assert batch.s_check.tobytes() == np.where(odd, -hat, hat).sum(axis=0).tobytes()
        assert np.array_equal(batch.i_n, 1 + innov[1:].sum(axis=0))
        assert np.array_equal(batch.nu_k, sizes)
        assert np.array_equal(batch.nu1, sizes[:, 0])
        assert batch.sum_delta_sq.tobytes() == dsq.tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_batch(0, Fraction(1, 2), StepLaw.dirac(1), 10, 0)
        with pytest.raises(ValueError):
            simulate_batch(5, Fraction(1, 2), StepLaw.dirac(1), 0, 0)
        with pytest.raises(ValueError):
            simulate_batch(5, 2, StepLaw.dirac(1), 10, 0)
