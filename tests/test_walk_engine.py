import dataclasses
import math
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from counterwalk import walk_engine
from counterwalk.acceptance import _SMALL_SHAPES
from counterwalk.eulerian import ExactPmf, delta_pmf
from counterwalk.replication import child_seed
from counterwalk.verify import brute_force_walk_pmf, tv_distance
from counterwalk.walk_engine import (
    _BLOCK_CELLS,
    _GRAMMAR,
    _TILE_CELLS,
    StepLaw,
    _float_total,
    decompose,
    forest,
    forest_census,
    parse_mu_spec,
    representation_residual,
    simulate,
    simulate_batch,
    simulate_runs,
    singleton_counts,
)


def layout_picks(n, seed):
    """The 0-based pick of every step of ``simulate(n, p, law, seed)``,
    re-derived from the draw layout: the second row of ``n`` uniforms."""
    u = np.random.default_rng(seed).random((2, n))
    return (u[1] * np.arange(n)).astype(np.int64)


def parent_sequences(run, picks):
    """Each tree's parent sequence, its vertices numbered by arrival in the
    tree, read off the run's picks one step at a time."""
    local, seqs = [], {}
    for innov, pick, tree in zip(run.eps.tolist(), picks.tolist(), run.tree.tolist()):
        seq = seqs.setdefault(tree, [])
        if not innov:
            seq.append(local[pick])
        local.append(len(seq) + 1)
    return [tuple(seq) for seq in seqs.values()]


ALL_LAWS = (
    StepLaw.rademacher(),
    StepLaw.dirac(1),
    StepLaw.uniform_symmetric(),
    StepLaw.gaussian(0, 1),
    StepLaw.pareto_symmetric(Fraction(3, 2)),
)


def _values(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=10**12)


#: in-range parameters of every kind of the step-law grammar (a kind missing
#: here fails its round-trip test)
GRAMMAR_PARAMS = {
    "rademacher": (),
    "dirac": (_values(-10**12, 10**12),),
    "uniform": (),
    "gauss": (_values(-10**12, 10**12), _values(0, 10**12)),
    "pareto": (_values(Fraction(1, 10**6), 10**6),),
}


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


def forest_of(innov, picks):
    """`forest` on per-step ``innov`` and ``picks`` (the last axis is the
    step, any leading axes are replicas), handed over as the flat parent
    cells `_tile` builds: step 0 and the innovations are self-loops, and
    every other step points at its pick's cell.  Returns ``(root, odd)``
    in ``innov``'s shape."""
    n = innov.shape[-1]
    innov = innov.copy()
    innov[..., 0] = True
    base = n * np.arange(innov.size // n).reshape(innov.shape[:-1] + (1,))
    parent = np.where(innov, np.arange(n), picks) + base
    root, odd = forest(innov.ravel(), parent.ravel())
    return root.reshape(innov.shape), odd.reshape(innov.shape)


def tile_uniforms(innov, picks, p=0.5):
    """Uniforms of shape ``(w, 2, n)`` that `_tile` turns into the given
    innovation bits (at rate ``p``) and picks ``0 <= pick < max(step, 1)``."""
    step = np.maximum(np.arange(innov.shape[-1]), 1)
    return np.stack((np.where(innov, p / 2, (1 + p) / 2), (picks + 0.5) / step), axis=1)


class FixedUniforms:
    """Generator stub: `random` returns a fresh copy of the given uniforms,
    whose shape must be the one asked for."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shape):
        assert self.u.shape == tuple(np.atleast_1d(shape))
        return self.u.copy()


def random_forest_input(n, p, rng, width=None):
    shape = (n,) if width is None else (width, n)
    innov = rng.random(shape) < p
    return innov, (rng.random(shape) * np.arange(n)).astype(np.int64)


class TestStepLaw:
    def test_spec_round_trip(self):
        for law in ALL_LAWS + (StepLaw.dirac(Fraction(3, 2)), StepLaw.gaussian(Fraction(1, 2), 2)):
            again = parse_mu_spec(law.spec_string())
            assert again == law

    @pytest.mark.parametrize("kind", list(_GRAMMAR))
    @given(data=st.data())
    def test_every_grammar_kind_round_trips(self, kind, data):
        make, count, _, _ = _GRAMMAR[kind]
        params = data.draw(st.tuples(*GRAMMAR_PARAMS[kind]))
        assert len(params) == count
        law = make(*params)
        assert parse_mu_spec(law.spec_string()) == law

    def test_a_row_has_a_sampler_iff_its_kind_is_not_lattice(self):
        for law in ALL_LAWS:
            assert (_GRAMMAR[law.kind][3] is None) == law.exact

    def test_grammar_accepts_fractions_and_decimals(self):
        assert parse_mu_spec("dirac:1/2").params[0] == Fraction(1, 2)
        assert parse_mu_spec("dirac:0.25").params[0] == Fraction(1, 4)
        assert parse_mu_spec("gauss:0,1").m2 == 1
        assert parse_mu_spec("pareto:1.5").params[0] == Fraction(3, 2)

    def test_grammar_ignores_whitespace_around_the_kind_and_fields(self):
        assert parse_mu_spec(" gauss : 0 , 1 ") == parse_mu_spec("gauss:0,1")
        assert parse_mu_spec(" Uniform ") == parse_mu_spec("uniform")

    def test_grammar_rejects_garbage(self):
        for bad in ("cauchy", "dirac", "dirac:x", "gauss:1", "gauss:1,2,3", "pareto:0", "pareto:-1", "uniform:3"):
            with pytest.raises(ValueError):
                parse_mu_spec(bad)

    @pytest.mark.parametrize("make", [
        lambda: StepLaw.dirac(10**400),
        lambda: StepLaw.dirac(-(10**400)),
        lambda: StepLaw.gaussian(0, 10**700),
        lambda: StepLaw.gaussian(Fraction(-(10**400), 3), 1),
        lambda: StepLaw.pareto_symmetric(10**400),
        lambda: StepLaw.pareto_symmetric(Fraction(1, 10**400)),  # rounds to 0.0
        lambda: parse_mu_spec("dirac:1e400"),
        lambda: parse_mu_spec("gauss:0,1e700"),
    ])
    def test_parameters_must_fit_a_float(self, make):
        # the samplers draw in float64; before this check `simulate_batch`
        # and the CLI died with OverflowError
        with pytest.raises(ValueError):
            make()

    def test_parameters_at_the_float_edges_are_accepted(self):
        assert StepLaw.dirac(Fraction(1, 10**400)).lattice_step == Fraction(1, 10**400)
        assert StepLaw.gaussian(0, Fraction(1, 10**700)).params[1] == Fraction(1, 10**700)
        big = int(np.finfo(np.float64).max)
        assert simulate_batch(5, Fraction(1, 2), StepLaw.gaussian(0, big), 3, 1).shape == (3,)

    def test_overflowing_pareto_draw_raises(self):
        law = StepLaw.pareto_symmetric(Fraction(1, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape("a pareto:1/100 step draw")):
                simulate_batch(1000, Fraction(1, 2), law, 3, 0)
            with pytest.raises(OverflowError, match=re.escape("a pareto:1/100 step draw")):
                law.sample_batch(np.random.default_rng(0), 1000)

    def test_gaussian_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            StepLaw.gaussian(0, -1)

    def test_exact_moments(self):
        assert (StepLaw.rademacher().m1, StepLaw.rademacher().m2) == (0, 1)
        law = StepLaw.dirac(Fraction(3, 2))
        assert (law.m1, law.m2) == (Fraction(3, 2), Fraction(9, 4))
        assert StepLaw.uniform_symmetric().m2 == Fraction(1, 3)
        assert StepLaw.gaussian(2, 3).m2 == 7

    @pytest.mark.parametrize("spec", ["rademacher", "dirac:1/2", "uniform", "gauss:0,1", "pareto:3/2"])
    def test_exact_iff_lattice_iff_finite_support(self, spec):
        law = parse_mu_spec(spec)
        assert law.exact == (law.lattice_step is not None) == (law.pmf is not None)
        step = {"rademacher": 1, "dirac:1/2": Fraction(1, 2)}.get(spec)
        assert law.lattice_step == step
        # the sampler's units agree with the step the pmf gives
        if law.exact:
            values = law.sample_batch(np.random.default_rng(0), 100).tolist()
            assert set(values) <= {float(v) for v in law.pmf.values}

    def test_lattice_draws_invert_the_pmf(self):
        # a law on {-c, +c} that the grammar does not name, with weights 1/4
        # and 3/4: the sampler reads its pmf, not its kind
        c = Fraction(1, 2)
        law = StepLaw("skewed", (), c / 2, c * c, ExactPmf((-c, c), (1, 3), 4))
        u = np.random.default_rng(3).integers(0, 4, size=1000)
        units = law.sample_units(np.random.default_rng(3), 1000)
        assert units.tobytes() == np.where(u < 1, -1, 1).tobytes()
        reps = 20_000
        finals = simulate_batch(1, Fraction(1, 2), law, reps, 5)
        values, counts = np.unique(finals, return_counts=True)
        hist = ExactPmf.from_weights(zip(map(Fraction, values.tolist()), counts.tolist()), reps)
        # fair signs would sit at TV 1/4 from this law
        assert tv_distance(hist, brute_force_walk_pmf(1, Fraction(1, 2), law)) < 0.02

    def test_lattice_draws_refuse_values_off_the_step(self):
        # {-1, 2} is not a set of multiples of its largest value, the step
        law = StepLaw("skewed", (), Fraction(1, 2), Fraction(5, 2), ExactPmf((-1, 2), (1, 1), 2))
        with pytest.raises(ValueError, match="does not live on the lattice of its largest value"):
            law.sample_units(np.random.default_rng(0), 10)

    def test_finite_laws_carry_their_pmf(self):
        assert StepLaw.rademacher().pmf == ExactPmf((-1, 1), (1, 1), 2)
        assert StepLaw.dirac(Fraction(3, 2)).pmf == ExactPmf((Fraction(3, 2),), (1,), 1)
        assert [type(v) for v in parse_mu_spec("dirac:4/2").pmf.values] == [int]

    def test_pareto_moment_availability(self):
        assert StepLaw.pareto_symmetric(Fraction(3, 2)).m1 == 0
        assert StepLaw.pareto_symmetric(Fraction(3, 2)).m2 is None
        assert StepLaw.pareto_symmetric(Fraction(4, 5)).m1 is None
        assert StepLaw.pareto_symmetric(3).m2 == 3

    def test_pareto_magnitudes_at_least_scale(self):
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        batch = law.sample_batch(np.random.default_rng(0), 1000)
        assert np.all(np.abs(batch) >= 1.0)

    @pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(4, 5), Fraction(3)])
    def test_pareto_matches_out_of_place_expression(self, alpha):
        # each step's magnitude and sign come from one row of uniform pairs
        u = np.random.default_rng(2024).random((5000, 2))
        mag = (1.0 - u[:, 0]) ** (-1.0 / float(alpha))
        expected = np.where(u[:, 1] < 0.5, -mag, mag)
        draws = StepLaw.pareto_symmetric(alpha).sample_batch(np.random.default_rng(2024), 5000)
        assert draws.tobytes() == expected.tobytes()

    def test_pareto_signs_at_the_edges(self):
        # sign uniforms on both sides of 1/2, which itself gives +
        signs = [0.0, 0.5 - 2.0**-53, 0.5, 0.75]
        mags = [0.0, 0.3, 1.0 - 2.0**-53]
        u = np.array([(m, s) for m in mags for s in signs])
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        draws = law.sample_batch(FixedUniforms(u), len(u))
        mag = (1.0 - u[:, 0]) ** (-1.0 / 1.5)
        assert draws.tobytes() == np.where(u[:, 1] < 0.5, -mag, mag).tobytes()
        assert np.signbit(draws).tolist() == [True, True, False, False] * len(mags)

    def test_pareto_draws_hold_only_uniforms_and_output(self):
        # the sign column is shifted in place: no mask and no shifted copy
        size = 100_000
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        law.sample_batch(np.random.default_rng(1), 10)  # lazy imports stay out of the trace
        tracemalloc.start()
        try:
            law.sample_batch(np.random.default_rng(1), size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size * 2 * 8 + size * 8 + 64 * 1024

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
    def test_sample_batch_prefix_is_a_shorter_batch(self, law):
        # the batch engine draws a short last block as a prefix of a full one
        for size, k in ((1000, 1), (1000, 999), (7, 3)):
            full = law.sample_batch(np.random.default_rng(13), size)
            part = law.sample_batch(np.random.default_rng(13), k)
            assert full[:k].tobytes() == part.tobytes()

    def test_laws_cover_the_grammar(self):
        assert sorted(law.kind for law in ALL_LAWS) == sorted(_GRAMMAR)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(0, 600), split=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
    def test_consecutive_batches_are_one_batch(self, law, size, split, seed):
        # the tiles of a batch block draw their steps one after the other
        k = min(split, size)
        rng = np.random.default_rng(seed)
        parts = np.concatenate((law.sample_batch(rng, k), law.sample_batch(rng, size - k)))
        whole = law.sample_batch(np.random.default_rng(seed), size)
        assert parts.tobytes() == whole.tobytes()


class TestForest:
    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_matches_reference_loop(self, p):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 17, 1000):
            innov, picks = random_forest_input(n, p, rng)
            root, odd = forest_of(innov, picks)
            ref_root, ref_odd = reference_forest(innov, picks)
            assert root.tolist() == ref_root.tolist()
            assert odd.tolist() == ref_odd.tolist()

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
    def test_replica_axis_matches_reference_loop(self, p):
        rng = np.random.default_rng(32)
        for n, width in ((1, 4), (5, 1), (300, 7)):
            innov, picks = random_forest_input(n, p, rng, width)
            root, odd = forest_of(innov, picks)
            assert root.shape == odd.shape == (width, n)
            for r in range(width):
                ref_root, ref_odd = reference_forest(innov[r], picks[r])
                assert (root[r] - r * n).tolist() == ref_root.tolist()
                assert odd[r].tolist() == ref_odd.tolist()

    def test_first_step_is_a_root_whatever_its_bit(self):
        # `_tile` draws step 0's innovation uniform but roots a tree there anyway
        u = tile_uniforms(np.zeros((1, 4), dtype=bool), np.zeros((1, 4)))
        _, root, odd = walk_engine._tile(FixedUniforms(u), 4, 0.5, 1, walk_engine._grid(4, 1))
        assert root.tolist() == [0, 0, 0, 0]
        assert odd.tolist() == [False, True, True, True]
        # every replica of a tile, with innovations after step 0 or none
        innov = np.array([[False, False, True, False],
                          [False, True, False, False],
                          [False, False, False, False]])
        picks = np.array([[0, 0, 0, 2], [0, 0, 1, 0], [0, 0, 1, 2]])
        u = tile_uniforms(innov, picks)
        _, root, odd = walk_engine._tile(FixedUniforms(u), 4, 0.5, 3, walk_engine._grid(4, 3))
        root, odd = root.reshape(3, 4), odd.reshape(3, 4)
        assert root.tolist() == [[0, 0, 2, 2], [4, 5, 5, 4], [8, 8, 8, 8]]
        assert odd.tolist() == [[False, True, False, True],
                                [False, False, True, True],
                                [False, True, False, True]]

    def test_largest_uniform_picks_below_the_step(self):
        # `forest` starts exactly the hanging steps at odd depth, which
        # needs every pick below its step: at the largest uniform, step j
        # picks j - 1, so a tile without innovations is one path
        n = 2**20 + 1
        top = 1.0 - 2.0**-53
        grid = walk_engine._grid(n, 1)
        innov, root, odd = walk_engine._tile(FixedUniforms(np.full((1, 2, n), top)), n, 0.0, 1, grid)
        step = np.arange(n)
        # a pick at its own step would root a tree there
        assert not root.any()
        assert (odd == (step % 2 == 1)).all()
        # at p = 1 every step is an innovation, whose weight 1 makes it its
        # own parent: every cell is its own root, none at odd depth
        innov, root, odd = walk_engine._tile(FixedUniforms(np.full((1, 2, n), top)), n, 1.0, 1, grid)
        assert innov.all() and (root == step).all() and not odd.any()
        # a two-replica tile at n = 2: each row is the forest of its own picks
        for p in (0.0, 1.0):
            innov, root, odd = walk_engine._tile(FixedUniforms(np.full((2, 2, 2), top)), 2, p, 2,
                                                 walk_engine._grid(2, 2))
            for r in range(2):
                row = slice(2 * r, 2 * r + 2)
                ref_root, ref_odd = reference_forest(innov[row], (top * np.arange(2)).astype(np.int64))
                assert (root[row] - 2 * r).tolist() == ref_root.tolist()
                assert odd[row].tolist() == ref_odd.tolist()
        # the same product for steps near 2**53, the last exact float64 integers
        j = np.array([2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.int64)
        assert ((top * j).astype(np.int64) < j).all()


class TestSimulate:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate(0, Fraction(1, 2), StepLaw.dirac(1), 0)
        with pytest.raises(ValueError):
            simulate(5, Fraction(3, 2), StepLaw.dirac(1), 0)

    def test_first_step_is_always_an_innovation(self):
        for seed in range(5):
            run = simulate(20, Fraction(0), StepLaw.rademacher(), seed)
            assert run.eps[0]
            assert run.tree[0] == 0 and not run.parity[0]

    def test_innovation_count_tracks_bits(self):
        run = simulate(200, Fraction(1, 3), StepLaw.dirac(1), 3)
        running = 0
        for bit, tree in zip(run.eps, run.tree):
            running += bit
            assert tree < running
            if bit:
                assert tree == running - 1
        assert len(run.x) == run.innovations == running

    def test_pick_only_drawn_when_counterbalancing(self):
        # a counterbalancing step joins its pick's tree one level deeper;
        # an innovation roots its own tree whatever its pick uniform was
        run = simulate(100, Fraction(1, 2), StepLaw.dirac(1), 4)
        picks = layout_picks(100, 4)
        for j in range(1, 100):
            if run.eps[j]:
                assert run.tree[j] == run.eps[:j + 1].sum() - 1 and not run.parity[j]
            else:
                assert 0 <= picks[j] < j
                assert run.tree[j] == run.tree[picks[j]]
                assert run.parity[j] != run.parity[picks[j]]

    def test_pure_innovation_is_plain_random_walk(self):
        run = simulate(100, Fraction(1), StepLaw.rademacher(), 7)
        assert np.array_equal(run.x_check, run.x)
        assert np.array_equal(run.x[run.tree], run.x)
        assert run.final_check == sum(run.x)
        parts = decompose(run)
        assert set(parts) == {1}
        assert parts[1] == run.final_check

    def test_pure_counterbalance_follows_tree_parity(self):
        run = simulate(300, Fraction(0), StepLaw.dirac(1), 11)
        assert run.innovations == 1
        partial = 0
        for m in range(1, 301):
            partial += 1 - 2 * run.parity[m - 1]
            assert run.s_check[m - 1] == partial
        assert run.final_check == run.trees[1][0]

    def test_coupling_and_sign_rule(self):
        for law in ALL_LAWS:
            run = simulate(400, Fraction(1, 3), law, 21)
            for xc, xh, par in zip(run.x_check, run.x[run.tree], run.parity):
                assert abs(xc) == abs(xh)
                if par == 0:
                    assert xc == xh
                else:
                    assert xc == -xh

    def test_parity_matches_independent_reconstruction(self):
        run = simulate(300, Fraction(2, 5), StepLaw.dirac(1), 33)
        picks = layout_picks(300, 33)
        parity = [0] * run.n
        for j in range(1, run.n):
            if not run.eps[j]:
                parity[j] = parity[picks[j]] ^ 1
        assert run.parity.tolist() == parity
        root, odd = reference_forest(run.eps, picks)
        assert np.array_equal(run.tree, (np.cumsum(run.eps) - 1)[root])
        assert np.array_equal(run.parity, odd)

    def test_reinforced_walk_of_unit_masses_is_deterministic(self):
        # constant step draws make the reinforced sum exactly the step index
        run = simulate(250, Fraction(1, 2), StepLaw.dirac(1), 8)
        assert run.s_hat.tolist() == list(range(1, 251))

    @pytest.mark.parametrize("n", [1, 2, 500])
    def test_innovations_and_picks_are_the_first_2n_uniforms(self, n):
        # the innovation row and then the pick row of default_rng(seed); only
        # the fresh steps come from the spawned child
        u = np.random.default_rng(41).random(2 * n)
        eps = u[:n] < 0.3
        eps[0] = True
        root, odd = reference_forest(eps, (u[n:] * np.arange(n)).astype(np.int64))
        for law in ALL_LAWS:
            run = simulate(n, 0.3, law, 41)
            assert np.array_equal(run.eps, eps)
            assert np.array_equal(run.tree, (np.cumsum(eps) - 1)[root])
            assert np.array_equal(run.parity, odd)

    def test_determinism(self):
        a = simulate(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 77)
        b = simulate(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 77)
        assert np.array_equal(a.s_check, b.s_check)
        assert np.array_equal(a.eps, b.eps) and np.array_equal(a.x, b.x)
        assert np.array_equal(a.tree, b.tree) and np.array_equal(a.parity, b.parity)
        c = simulate(1000, Fraction(1, 2), StepLaw.gaussian(0, 1), 78)
        assert not np.array_equal(c.s_check, a.s_check)

    def test_float_partial_sums_are_compensated(self):
        # within one ulp of the correctly rounded prefix sums, which a plain
        # float64 running sum misses by many ulps at this length
        run = simulate(20_000, Fraction(1, 2), StepLaw.gaussian(0, 1), 12)
        walks = ((run.s_check, run.x_check), (run.s_hat, run.x[run.tree]))
        for sums, steps in walks:
            for k in (1, 777, 20_000):
                exact = math.fsum(steps[:k].tolist())
                assert abs(sums[k - 1] - exact) <= np.spacing(abs(exact))
        assert abs(run.s_check[-1] - run.final_check) <= np.spacing(abs(run.final_check))

    def test_run_is_frozen_and_shares_its_counterbalanced_steps(self):
        run = simulate(500, Fraction(1, 2), StepLaw.gaussian(0, 1), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.n = 1
        steps = run.x_check
        assert run.x_check is steps
        assert run.final_check == math.fsum(steps.tolist())
        assert run.s_check[-1] == pytest.approx(run.final_check)

    def test_lattice_laws_stay_exact(self):
        law = StepLaw.dirac(Fraction(1, 3))
        run = simulate(500, Fraction(1, 2), law, 6)
        steps = [Fraction(1, 3) * (-1 if par else 1) for par in run.parity]
        assert run.final_check == sum(steps)
        assert isinstance(run.final_check, (int, Fraction))
        assert run.final_hat == Fraction(500, 3)
        assert run.as_float(run.s_check).tolist() == [
            float(sum(steps[:m])) for m in range(1, 501)
        ]

    @pytest.mark.parametrize("c", [10**15, 10**20, Fraction(10**17 + 1, 3)])
    def test_as_float_rounds_large_lattice_values_once(self, c):
        # int64 products of these counts and numerators overflow
        n = 20_000
        run = simulate(n, Fraction(1, 2), StepLaw.dirac(c), 4)
        assert run.as_float(run.s_hat).tolist() == [float(m * c) for m in range(1, n + 1)]
        counts = run.s_check.tolist()
        assert run.as_float(run.s_check).tolist() == [float(k * c) for k in counts]
        assert run.as_float(run.s_check)[-1] == float(run.final_check)


ROW_LAWS = [*(kind + (":" + ",".join(["1"] * count) if count else "")
              for kind, (_, count, _, _) in _GRAMMAR.items()), "pareto:3/2", "dirac:1/3", "dirac:0"]


class TestSimulateRows:
    """The runs that `counterwalk simulate` reads its rows from: `simulate_runs`."""

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
                             ids=["0", "1/3", "1/2", "1"])
    @pytest.mark.parametrize("mu", ROW_LAWS)
    def test_rows_are_the_runs_of_simulate(self, mu, p):
        # run for run the forest and draws of `simulate` on each seed, at
        # horizons below, at and past one tile; the per-tree table is the one
        # read off each step's tree index
        law, seeds = parse_mu_spec(mu), [child_seed(29, r) for r in range(3)]
        for n in (1, 2, 7, _TILE_CELLS, _TILE_CELLS + 1):
            runs = list(simulate_runs(n, p, law, seeds))
            assert len(runs) == len(seeds)
            for seed, run in zip(seeds, runs):
                want = simulate(n, p, law, seed)
                for name in ("eps", "x", "root", "parity"):
                    got, ref = getattr(run, name), getattr(want, name)
                    assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), (n, seed, name)
                tree = (np.cumsum(run.eps) - 1)[run.root]
                size = np.bincount(tree, minlength=run.innovations)
                odd = np.bincount(tree, weights=run.parity, minlength=run.innovations)
                assert np.array_equal(run.trees[0], size)
                assert np.array_equal(run.trees[1], size - 2 * odd.astype(np.int64))
                assert np.array_equal(run.tree, tree)
                assert run.x_hat.tobytes() == run.x[tree].tobytes()

    def test_a_draw_overflows_in_the_iterator_and_a_final_when_read(self):
        seeds = [child_seed(0, r) for r in range(3)]
        runs = simulate_runs(1000, Fraction(1, 2), parse_mu_spec("pareto:0.01"), seeds)
        with pytest.raises(OverflowError, match=re.escape("a pareto:1/100 step draw")):
            list(runs)
        for mu in ("dirac:1e308", "gauss:1e308,0"):
            run, = simulate_runs(20, Fraction(1, 2), parse_mu_spec(mu), seeds[:1])
            assert run.innovations == len(run.trees[0]) and run.x_hat.size == 20
            with pytest.raises(OverflowError):
                float(run.final_check)

    def test_rejects_bad_arguments_when_called(self):
        with pytest.raises(ValueError):
            simulate_runs(0, Fraction(1, 2), StepLaw.dirac(1), [0])
        with pytest.raises(ValueError):
            simulate_runs(5, Fraction(3, 2), StepLaw.dirac(1), [0])


class TestForestCensus:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10), Fraction(1)]),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_counting_invariants(self, seed, p, n):
        run = simulate(n, p, StepLaw.rademacher(), seed)
        nu = forest_census(run)
        size, delta = run.trees
        assert sum(k * cnt for k, cnt in nu.items()) == n
        assert sum(nu.values()) == run.innovations
        assert sum(size) == n
        assert len(size) == len(delta) == run.innovations

    @pytest.mark.parametrize("seed", range(6))
    def test_size_census_matches_unique_counts(self, seed):
        run = simulate(3000, Fraction(seed + 1, 8), StepLaw.rademacher(), seed)
        sizes, freq = np.unique(np.bincount(run.tree), return_counts=True)
        assert forest_census(run) == dict(zip(sizes.tolist(), freq.tolist()))

    def test_deltas_bounded_by_sizes(self):
        run = simulate(500, Fraction(1, 3), StepLaw.dirac(1), 5)
        for size, delta in zip(*run.trees):
            assert abs(delta) <= size
            assert (delta - size) % 2 == 0

    def test_singleton_fraction_near_limit(self):
        n = 100_000
        run = simulate(n, Fraction(1, 2), StepLaw.dirac(1), 17)
        nu1 = forest_census(run).get(1, 0)
        # crude Poisson-scale band around n/3
        assert abs(nu1 - n / 3) <= 4 * math.sqrt(n / 3)

    def test_conditional_shape_law_is_uniform(self):
        # given its size, a genealogical tree is uniform over the
        # (k-1)! increasing shapes of that size
        from scipy.stats import chisquare

        run = simulate(100_000, Fraction(1, 2), StepLaw.dirac(1), 4242)
        shapes = Counter(parent_sequences(run, layout_picks(100_000, 4242)))
        for k in (3, 4):
            counts = [cnt for seq, cnt in shapes.items() if len(seq) + 1 == k]
            assert len(counts) == math.factorial(k - 1)
            _, pvalue = chisquare(counts)
            assert pvalue > 1e-3

    def test_small_shape_table_counts_shapes(self):
        # c14 counts each shape of size <= 3 as the trees of its (size, delta)
        run = simulate(20_000, Fraction(1, 2), StepLaw.dirac(1), 99)
        size, delta = run.trees
        shapes = Counter(parent_sequences(run, layout_picks(20_000, 99)))
        for shape, (k, d) in _SMALL_SHAPES.items():
            count = ((size == k) & (delta == d)).sum()
            assert count == shapes[shape] > 0

    def test_tree_parity_follows_the_eulerian_law(self):
        # given its size k, a tree's delta has the law of a uniform increasing
        # tree of size k; each value's count lies within 4 sd of its mean
        run = simulate(200_000, Fraction(1, 2), StepLaw.dirac(1), 2718)
        size, delta = run.trees
        for k in range(1, 7):
            deltas = delta[size == k]
            law = delta_pmf(k)
            assert set(deltas.tolist()) <= set(law.values)
            for d, q in zip(law.values, map(float, law.probs)):
                mean = deltas.size * q
                assert abs(int((deltas == d).sum()) - mean) <= 4 * math.sqrt(mean * (1 - q))


class TestDecompose:
    def test_reconstructs_exactly_for_exact_laws(self):
        for law in (StepLaw.dirac(1), StepLaw.rademacher(), StepLaw.dirac(Fraction(1, 2))):
            run = simulate(400, Fraction(1, 3), law, 2)
            parts = decompose(run)
            assert sum(parts.values()) == run.final_check

    def test_reconstructs_to_tolerance_for_float_laws(self):
        run = simulate(10_000, Fraction(1, 2), StepLaw.gaussian(0, 1), 3)
        parts = decompose(run)
        gap = abs(sum(parts.values()) - run.final_check)
        assert gap <= 1e-9 * (1 + abs(run.final_check))

    def test_pair_component_vanishes(self):
        # two-vertex trees have one even and one odd vertex, so they cancel
        for seed in range(5):
            run = simulate(300, Fraction(1, 2), StepLaw.gaussian(0, 1), seed)
            parts = decompose(run)
            if 2 in parts:
                assert parts[2] == 0


class TestRepresentationResidual:
    def test_exact_laws_have_zero_residual(self):
        for law in (StepLaw.dirac(1), StepLaw.rademacher()):
            for seed in range(5):
                run = simulate(2000, Fraction(1, 4), law, seed)
                assert representation_residual(run) == 0

    def test_float_laws_stay_below_relative_band(self):
        # both sides are correctly rounded sums of the same number
        for seed in range(3):
            run = simulate(20_000, Fraction(1, 2), StepLaw.gaussian(0, 1), seed)
            assert representation_residual(run) == 0


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: one value from each corner of the float64 range, subnormals included
EXTREMES = st.sampled_from([5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-150, 0.1, 1.0,
                            3.0, 2.0**52 + 1, 1e150, 1e300, 1.7976931348623157e308])
SIGNED_EXTREMES = st.builds(lambda x, neg: -x if neg else x, EXTREMES, st.booleans())


def same_float(got, want):
    """Equal as floats, the sign of zero and nan included."""
    return repr(got) == repr(want)


def unit_total(a):
    return _float_total(a, np.ones(a.size, dtype=np.int64))


def exact_sum(values, weights):
    return sum((Fraction(x) * k for x, k in zip(values, weights)), Fraction(0))


def check_against_exact(values, weights=None):
    """`_float_total` against the exact rational sum of ``weights * values``
    (unit weights by default), rounded once, and for unit weights against
    `math.fsum` too, wherever it returns."""
    a = np.array(values, dtype=np.float64)
    w = np.ones(a.size, dtype=np.int64) if weights is None else np.array(weights, dtype=np.int64)
    try:
        want = math.fsum(values) if weights is None else None
    except OverflowError:
        want = None
    try:
        exact = float(exact_sum(values, w.tolist()))
    except OverflowError:
        with pytest.raises(OverflowError):
            _float_total(a, w)
        return
    got = _float_total(a, w)
    assert got == exact
    if want is not None:
        assert same_float(got, want)


class TestFloatTotal:
    @given(hnp.arrays(np.float64, st.integers(0, 80), elements=FINITE))
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_on_arbitrary_arrays(self, a):
        check_against_exact(a.tolist())

    @given(st.lists(st.one_of(SIGNED_EXTREMES, FINITE), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_on_mixed_extreme_exponents(self, values):
        check_against_exact(values)

    @given(st.lists(st.one_of(SIGNED_EXTREMES, FINITE), min_size=1, max_size=40),
           st.lists(SIGNED_EXTREMES, max_size=3), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_fsum_under_heavy_cancellation(self, values, rest, rnd):
        values = values + [-x for x in values] + rest
        rnd.shuffle(values)
        check_against_exact(values)

    @given(st.lists(st.tuples(st.one_of(SIGNED_EXTREMES, FINITE), st.integers(-2**13, 2**13)),
                    max_size=60),
           st.lists(st.tuples(SIGNED_EXTREMES, st.integers(-2**13, 2**13)), max_size=3),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_weighted_sum_equals_exact(self, pairs, rest, cancel, rnd):
        # sum(|w|) stays below 2**20; with ``cancel`` every term comes back
        # with its weight negated, so the rest decides the sum; weights of
        # extreme values push the exact sum past the float range
        if cancel:
            pairs = pairs + [(x, -k) for x, k in pairs]
        pairs = pairs + rest
        rnd.shuffle(pairs)
        check_against_exact([x for x, _ in pairs], [k for _, k in pairs])

    @pytest.mark.parametrize("values,weights", [
        ([1.0 - 2.0**-53, -(1.0 - 2.0**-53)], [2**20 - 1, -(2**20 - 2)]),
        ([2.0**-1074, 1.0], [2**20, 0]),
        ([1.7976931348623157e308, -1.7976931348623157e308], [3, -2]),
        ([1.7976931348623157e308, 1e308], [1, 1]),
        ([0.1, 0.2, 0.3], [0, 0, 0]),
    ])
    def test_weighted_small_cases(self, values, weights):
        check_against_exact(values, weights)

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [-5e-324, 5e-324, 5e-324],
        [2.2250738585072014e-308, -5e-324], [1.0], [-2.5], [1e16, 1.0, -1e16],
        [1.0, 2.0**-53, 2.0**-105], [0.1] * 10, [1.7976931348623157e308, -1.7976931348623157e308, 1.0],
    ])
    def test_small_cases(self, values):
        check_against_exact(values)

    def test_long_normal_arrays(self):
        rng = np.random.default_rng(5)
        for a in (rng.normal(size=100_000), rng.standard_cauchy(size=50_000),
                  rng.normal(size=20_000) * 10.0 ** rng.integers(-300, 300, size=20_000)):
            assert same_float(unit_total(a), math.fsum(a.tolist()))

    def test_exact_where_fsum_overflows_midway(self):
        big = 1.7976931348623157e308
        with pytest.raises(OverflowError):
            math.fsum([big, big, -big])
        assert unit_total(np.array([big, big, -big])) == big

    @pytest.mark.parametrize("values", [
        [1.7976931348623157e308, 1.7976931348623157e308],
        [-1.7976931348623157e308, -1e292],
    ])
    def test_sum_beyond_float_range_overflows(self, values):
        with pytest.raises(OverflowError):
            unit_total(np.array(values))

    @pytest.mark.parametrize("values", [
        [math.inf, 1.0], [-math.inf, -1e308, -1e308], [math.nan, 1.0], [math.inf, math.nan],
        [math.inf, -math.inf], [1e308, 1e308, math.inf],
    ])
    def test_non_finite_inputs_behave_as_fsum(self, values):
        try:
            want = math.fsum(values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                unit_total(np.array(values))
        else:
            assert same_float(unit_total(np.array(values)), want)

    @pytest.mark.parametrize("law", [StepLaw.gaussian(0, 1), StepLaw.uniform_symmetric(),
                                     StepLaw.pareto_symmetric(Fraction(1, 2))])
    def test_run_totals_are_correctly_rounded(self, law):
        run = simulate(5000, Fraction(1, 3), law, 8)
        steps = run.x_check.tolist()
        assert same_float(run.final_check, float(exact_sum(steps, [1] * len(steps))))
        assert same_float(run.final_hat, float(exact_sum(run.x[run.tree].tolist(), [1] * run.n)))
        size, delta = run.trees
        for k, part in decompose(run).items():
            picked = size == k
            want = exact_sum(run.x[picked].tolist(), delta[picked].tolist())
            assert same_float(part, float(want))
        assert representation_residual(run) == 0

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
    @pytest.mark.parametrize("n", [1, 7, 5000])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1)])
    def test_finals_equal_fsum_of_the_steps(self, law, n, p):
        # the finals are weighted sums over trees; the per-step walks they
        # must equal are added up by `math.fsum`
        run = simulate(n, p, law, 8)
        reinforced = run.as_float(run.x[run.tree]).tolist()
        assert same_float(float(run.final_check), math.fsum(run.as_float(run.x_check).tolist()))
        assert same_float(float(run.final_hat), math.fsum(reinforced))


class TestBatch:
    def test_deterministic(self):
        a = simulate_batch(50, Fraction(1, 2), StepLaw.rademacher(), 500, 42)
        b = simulate_batch(50, Fraction(1, 2), StepLaw.rademacher(), 500, 42)
        assert np.array_equal(a, b)
        a = singleton_counts(50, Fraction(1, 2), 500, 42)
        assert np.array_equal(a, singleton_counts(50, Fraction(1, 2), 500, 42))

    def test_extreme_innovation_rates(self):
        # every step an innovation: each replica sums n unit draws
        ones = simulate_batch(10, Fraction(1), StepLaw.dirac(1), 100, 5)
        assert np.all(ones == 10.0)
        assert np.all(singleton_counts(10, Fraction(1), 100, 5) == 10)
        # a single tree: one root at even depth and the rest alternate
        zeros = simulate_batch(10, Fraction(0), StepLaw.dirac(1), 100, 5)
        assert np.all(np.abs(zeros) <= 10.0)
        assert np.all(zeros % 2 == 0)
        assert np.all(singleton_counts(10, Fraction(0), 100, 5) == 0)

    def test_singleton_counts_draw_no_step(self, monkeypatch):
        # with no fresh-step generator at all, any step draw would fail
        want = singleton_counts(20, Fraction(1, 2), 50, 3)
        streams = walk_engine._streams
        monkeypatch.setattr(walk_engine, "_streams", lambda seed: (streams(seed)[0], None))
        nu1 = singleton_counts(20, Fraction(1, 2), 50, 3)
        assert nu1.dtype == np.int64 and nu1.tobytes() == want.tobytes()
        monkeypatch.undo()
        finals = simulate_batch(20, Fraction(1, 2), StepLaw.dirac(1), 50, 3)
        assert finals.dtype == np.float64 and finals.shape == (50,)

    def test_matches_exhaustive_law(self):
        pmf = brute_force_walk_pmf(5, Fraction(1, 2), StepLaw.rademacher())
        batch = simulate_batch(5, Fraction(1, 2), StepLaw.rademacher(), 20_000, 77)
        values, counts = np.unique(np.rint(batch).astype(int), return_counts=True)
        hist = ExactPmf.from_weights(zip(values.tolist(), counts.tolist()), batch.size)
        assert tv_distance(hist, pmf) <= 0.05

    @pytest.mark.parametrize("n,p,law,reps", [
        (1, Fraction(1, 2), StepLaw.rademacher(), 3),
        (40, Fraction(1, 2), StepLaw.rademacher(), 200),
        (60, Fraction(0), StepLaw.dirac(1), 30),
        (60, Fraction(1), StepLaw.uniform_symmetric(), 30),
        (200, Fraction(1, 4), StepLaw.gaussian(0, 1), 50),
        (150, Fraction(1, 2), StepLaw.pareto_symmetric(Fraction(3, 2)), 1),
        # tiny horizons whose replicas span two tiles, the shapes c05 runs
        (2, Fraction(1, 2), StepLaw.rademacher(), _TILE_CELLS // 2 + 7),
        (6, Fraction(0), StepLaw.dirac(1), _TILE_CELLS // 6 + 7),
        (3, Fraction(1, 4), StepLaw.gaussian(0, 1), _TILE_CELLS // 3 + 7),
    ])
    def test_bit_identical_to_reference_loop_on_the_chunk_draws(self, n, p, law, reps):
        # the draws of one block: per replica n innovation uniforms, then n
        # pick uniforms; the first spawned child sequence draws one step per
        # innovation; each replica adds delta(tree) * draw in step order
        seed = 2024
        seq = np.random.SeedSequence(child_seed(seed, 0))
        u = np.random.default_rng(seq).random((reps, 2, n))
        innov = u[:, 0] < float(p)
        innov[:, 0] = True
        draws = iter(law.sample_batch(np.random.default_rng(seq.spawn(1)[0]), int(innov.sum())))
        check = np.empty(reps)
        singletons = np.empty(reps, dtype=np.int64)
        for r in range(reps):
            root, odd = reference_forest(innov[r], (u[r, 1] * np.arange(n)).astype(np.int64))
            total = 0.0
            for j in np.flatnonzero(innov[r]):
                delta = int((root == j).sum()) - 2 * int(odd[root == j].sum())
                total += delta * next(draws)
            check[r] = total
            singletons[r] = (np.bincount(root, minlength=n) == 1).sum()
        assert simulate_batch(n, p, law, reps, seed).tobytes() == check.tobytes()
        assert np.array_equal(singleton_counts(n, p, reps, seed), singletons)

    @pytest.mark.parametrize("law", ALL_LAWS + (StepLaw.dirac(Fraction(1, 3)),),
                             ids=lambda law: law.spec_string())
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_replica_zero_is_simulate(self, law, n):
        # block 0 of the batch is drawn from child_seed(seed, 0), and its
        # first replica consumes the draws `simulate` does from that seed
        seed = 314
        expected = simulate(n, Fraction(1, 2), law, child_seed(seed, 0)).final_check
        got = simulate_batch(n, Fraction(1, 2), law, 5, seed)[0]
        if law.spec_string() in ("rademacher", "dirac:1"):
            assert got == expected
        else:
            assert got == pytest.approx(float(expected), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 7, _TILE_CELLS + 1])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    def test_singleton_replica_zero_is_simulate(self, n, p):
        # the forest of block 0's first replica is `simulate`'s on child_seed(seed, 0)
        seed = 271
        run = simulate(n, p, StepLaw.gaussian(0, 1), child_seed(seed, 0))
        assert singleton_counts(n, p, 3, seed)[0] == forest_census(run).get(1, 0)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
    def test_replica_prefix_is_stable(self, law):
        # W = 131 replicas per block at n = 1000; 2W + 5 spans three blocks
        n, width = 1000, _BLOCK_CELLS // 1000
        full = simulate_batch(n, Fraction(1, 2), law, 2 * width + 5, 99)
        full_nu1 = singleton_counts(n, Fraction(1, 2), 2 * width + 5, 99)
        for k in (1, 40, width - 1):
            part = simulate_batch(n, Fraction(1, 2), law, k, 99)
            assert full[:k].tobytes() == part.tobytes()
            assert np.array_equal(full_nu1[:k], singleton_counts(n, Fraction(1, 2), k, 99))

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.kind)
    @pytest.mark.parametrize("n", [1, 6, _TILE_CELLS - 1, _TILE_CELLS, _TILE_CELLS + 1,
                                   3 * _TILE_CELLS])
    def test_tiles_are_bit_identical_to_whole_blocks(self, law, n, monkeypatch):
        # two full blocks and a short third one; a short last tile wherever
        # a tile holds several replicas
        width = max(1, _BLOCK_CELLS // n)
        reps = 2 * width + width // 2 + 1
        tiled = simulate_batch(n, Fraction(1, 2), law, reps, 17)
        tiled_nu1 = singleton_counts(n, Fraction(1, 2), reps, 17)
        monkeypatch.setattr(walk_engine, "_TILE_CELLS", _BLOCK_CELLS)
        whole = simulate_batch(n, Fraction(1, 2), law, reps, 17)
        assert tiled.tobytes() == whole.tobytes()
        assert np.array_equal(tiled_nu1, singleton_counts(n, Fraction(1, 2), reps, 17))

    def test_memory_is_bounded_by_the_tile(self):
        # a tile's arrays come to about a dozen float64 arrays of _TILE_CELLS
        # cells; a whole block of _BLOCK_CELLS cells holds 16 times as many
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        reps = 2 * (_BLOCK_CELLS // 1000) + 5
        for run in (lambda r: simulate_batch(1000, Fraction(1, 2), law, r, 5),
                    lambda r: singleton_counts(1000, Fraction(1, 2), r, 5)):
            run(1)  # lazy imports stay out of the trace
            tracemalloc.start()
            try:
                run(reps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * _TILE_CELLS * 8

    def test_memory_does_not_grow_with_reps(self):
        law = StepLaw.pareto_symmetric(Fraction(3, 2))
        width = _BLOCK_CELLS // 1000

        def peak(run, reps):
            tracemalloc.start()
            try:
                run(reps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for run in (lambda r: simulate_batch(1000, Fraction(1, 2), law, r, 5),
                    lambda r: singleton_counts(1000, Fraction(1, 2), r, 5)):
            assert peak(run, 20 * width) <= 1.5 * peak(run, 2 * width)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_batch(0, Fraction(1, 2), StepLaw.dirac(1), 10, 0)
        with pytest.raises(ValueError):
            simulate_batch(5, Fraction(1, 2), StepLaw.dirac(1), 0, 0)
        with pytest.raises(ValueError):
            simulate_batch(5, 2, StepLaw.dirac(1), 10, 0)
        with pytest.raises(ValueError):
            singleton_counts(0, Fraction(1, 2), 10, 0)
        with pytest.raises(ValueError):
            singleton_counts(5, Fraction(1, 2), 0, 0)
        with pytest.raises(ValueError):
            singleton_counts(5, 2, 10, 0)
