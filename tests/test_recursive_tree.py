import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk import walk_engine
from counterwalk.acceptance import _SMALL_SHAPES
from counterwalk.eulerian import ExactPmf, delta_moment, odd_count_pmf
from counterwalk.recursive_tree import sample_odd_counts, tanny_sample_batch
from counterwalk.replication import child_seed
from counterwalk.walk_engine import _BLOCK_CELLS, _TILE_CELLS, StepLaw, simulate_batch
from counterwalk.verify import tv_distance


# Tree-by-tree reference for the exact parity laws: one `Tree` per parent
# sequence and a forward parity pass over it.

#: Exhaustive enumeration is refused above this size ((k-1)! trees).
ENUMERATION_CAP = 9


@dataclass(frozen=True)
class Tree:
    """Increasing tree given by its parent sequence ``(par(2)..par(k))``."""

    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, par in enumerate(self.parents):
            if not 1 <= par <= i + 1:
                raise ValueError(f"parent of vertex {i + 2} must lie in 1..{i + 1}")

    @property
    def size(self) -> int:
        return len(self.parents) + 1


def parity_profile(tree: Tree) -> tuple[int, int, int]:
    """Census ``(even, odd, delta)`` of depth parities, ``delta = even - odd``."""
    k = tree.size
    parity = [0] * (k + 1)
    for j, par in enumerate(tree.parents, start=2):
        parity[j] = parity[par] ^ 1
    odd = sum(parity[1:])
    return k - odd, odd, k - 2 * odd


def enumerate_increasing_trees(k: int, cap: int = ENUMERATION_CAP) -> list[Tree]:
    """All ``(k-1)!`` increasing trees of size ``k`` in lexicographic order
    of their parent sequences."""
    if not 1 <= k <= cap:
        raise ValueError(f"tree size {k} outside 1..{cap}")
    return [Tree(seq) for seq in itertools.product(*(range(1, j) for j in range(2, k + 1)))]


def _hist(values):
    return ExactPmf.from_weights(((int(v), 1) for v in values), len(values))


class TestTree:
    def test_rejects_bad_parent(self):
        with pytest.raises(ValueError):
            Tree((2,))  # vertex 2 cannot attach to vertex 2
        with pytest.raises(ValueError):
            Tree((1, 3))

    def test_size(self):
        assert Tree(()).size == 1
        assert Tree((1, 1, 2)).size == 4


class TestParityProfile:
    def test_path(self):
        assert parity_profile(Tree((1, 2))) == (2, 1, 1)

    def test_star(self):
        assert parity_profile(Tree((1, 1))) == (1, 2, -1)

    def test_singleton(self):
        assert parity_profile(Tree(())) == (1, 0, 1)

    @given(st.data(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=50)
    def test_census_invariants(self, data, n):
        parents = tuple(data.draw(st.integers(min_value=1, max_value=j - 1)) for j in range(2, n + 1))
        even, odd, delta = parity_profile(Tree(parents))
        assert even + odd == n
        assert delta == even - odd
        assert abs(delta) <= n
        assert (delta - n) % 2 == 0


class TestEnumeration:
    def test_counts(self):
        for k in range(1, 8):
            assert len(enumerate_increasing_trees(k)) == math.factorial(k - 1)

    def test_size_three_shapes(self):
        trees = enumerate_increasing_trees(3)
        assert [t.parents for t in trees] == [(1, 1), (1, 2)]

    def test_size_and_parity_tell_small_shapes_apart(self):
        # c14 counts each shape of size <= 3 as the trees of its (size, delta)
        table = {t.parents: (t.size, parity_profile(t)[2])
                 for k in range(1, 4) for t in enumerate_increasing_trees(k)}
        assert len(set(table.values())) == len(table)
        assert table == _SMALL_SHAPES

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_increasing_trees(10)
        with pytest.raises(ValueError):
            enumerate_increasing_trees(0)

    def test_uniform_law_matches_exact_moments(self):
        # averaging over the full enumeration is the exact expectation, for
        # every size the shape series of c14 sums (size_cap = 9)
        for k in range(1, ENUMERATION_CAP + 1):
            trees = enumerate_increasing_trees(k)
            mean_delta = Fraction(sum(parity_profile(t)[2] for t in trees), len(trees))
            mean_delta_sq = Fraction(sum(parity_profile(t)[2] ** 2 for t in trees), len(trees))
            assert mean_delta == delta_moment(k, 1)
            assert mean_delta_sq == delta_moment(k, 2)


class TestSampling:
    def test_trivial_sizes(self):
        assert np.all(sample_odd_counts(1, 20, 0) == 0)
        assert np.all(sample_odd_counts(2, 20, 0) == 1)
        with pytest.raises(ValueError):
            sample_odd_counts(0, 1, 0)

    def test_third_vertex_attachment_frequency(self):
        # vertex 3 hangs below the root (two odd vertices) or below vertex 2 (one)
        reps = 20_000
        hits = int((sample_odd_counts(3, reps, 1234) == 2).sum())
        sd = math.sqrt(reps * 0.25)
        assert abs(hits - reps / 2) <= 3 * sd

    def test_empirical_parity_law(self):
        reps = 20_000
        deltas = 8 - 2 * sample_odd_counts(8, reps, 99)
        exact = odd_count_pmf(8).pushforward(lambda ell: 8 - 2 * ell)
        assert tv_distance(_hist(deltas), exact) <= 0.02


class TestTanny:
    def test_trivial_values(self):
        assert tanny_sample_batch(0, 1, 5)[0] == 0
        assert np.all(tanny_sample_batch(1, 20, 5) == 1)

    def test_range(self):
        draws = tanny_sample_batch(9, 200, 6)
        assert np.all((1 <= draws) & (draws <= 9))

    def test_matches_odd_count_law(self):
        # n uniforms against the odd-count law of a size-(n+1) tree, n = 1..8
        for n in range(1, 9):
            draws = tanny_sample_batch(n, 20_000, 2024)
            assert tv_distance(_hist(draws), odd_count_pmf(n + 1)) <= 0.02

    def test_batch_matches_scalar_law(self):
        draws = tanny_sample_batch(9, 20_000, 7)
        assert tv_distance(_hist(draws), odd_count_pmf(10)) <= 0.02

    def test_batch_edge_cases(self):
        assert np.array_equal(tanny_sample_batch(0, 5, 8), np.zeros(5, dtype=np.int64))
        assert np.all(tanny_sample_batch(1, 100, 8) == 1)

    def test_batch_deterministic(self):
        a = tanny_sample_batch(9, 1000, 42)
        b = tanny_sample_batch(9, 1000, 42)
        assert np.array_equal(a, b)

    def test_chunks_draw_the_rows_of_one_matrix(self):
        # 3 full chunks of _TILE_CELLS // n rows and a partial fourth
        n = 1000
        reps = 3 * (_TILE_CELLS // n) + 7
        one = np.random.default_rng(3).random((reps, n)).sum(axis=1)
        draws = tanny_sample_batch(n, reps, 3)
        assert draws.tobytes() == np.ceil(one).astype(np.int64).tobytes()

    def test_memory_does_not_grow_with_reps(self):
        n = 1000
        width = _BLOCK_CELLS // n

        def peak(reps):
            tracemalloc.start()
            try:
                tanny_sample_batch(n, reps, 4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20 * width) <= 1.5 * peak(2 * width)


class TestBatchParity:
    def test_matches_exact_law(self):
        odd = sample_odd_counts(6, 20_000, 11)
        assert tv_distance(_hist(odd), odd_count_pmf(6)) <= 0.02

    def test_two_sample_agreement_with_tanny(self):
        odd = sample_odd_counts(10, 20_000, 12)
        tanny = tanny_sample_batch(9, 20_000, 13)
        assert tv_distance(_hist(odd), _hist(tanny)) <= 0.03

    def test_single_vertex(self):
        odd = sample_odd_counts(1, 50, 14)
        assert np.all(odd == 0)

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_bit_identical_to_reference_loop(self, n):
        # three blocks, the last one partial; block b draws, replica by
        # replica, n innovation uniforms (unused at p = 0) and n pick uniforms
        # from SeedSequence(child_seed(seed, b))
        width = max(1, _BLOCK_CELLS // n)
        reps = 2 * width + 3
        expected = []
        for b, start in enumerate(range(0, reps, width)):
            u = np.random.default_rng(child_seed(n, b)).random((min(width, reps - start), 2, n))
            for row in u[:, 1]:
                odd = [False] * n
                for j in range(1, n):
                    odd[j] = not odd[int(row[j] * j)]
                expected.append(sum(odd))
        assert sample_odd_counts(n, reps, n).tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_equals_the_batch_parity_identity(self, n):
        # at p = 0 a unit-mass batch replica ends at even - odd = n - 2 * odd
        reps = 2 * max(1, _BLOCK_CELLS // n) + 3
        finals = simulate_batch(n, 0, StepLaw.dirac(1), reps, 21)
        assert np.array_equal(sample_odd_counts(n, reps, 21), (n - finals) / 2)

    @pytest.mark.parametrize("n", [1, 6, _TILE_CELLS - 1, _TILE_CELLS, _TILE_CELLS + 1,
                                   3 * _TILE_CELLS])
    def test_tiles_are_bit_identical_to_whole_blocks(self, n, monkeypatch):
        width = max(1, _BLOCK_CELLS // n)
        reps = 2 * width + width // 2 + 1
        tiled = sample_odd_counts(n, reps, 23)
        monkeypatch.setattr(walk_engine, "_TILE_CELLS", _BLOCK_CELLS)
        assert np.array_equal(tiled, sample_odd_counts(n, reps, 23))

    def test_replica_prefix_is_stable(self):
        n = 1000
        width = _BLOCK_CELLS // n
        full = sample_odd_counts(n, 2 * width + 5, 8)
        for k in (1, 40, width - 1, width + 1):
            assert np.array_equal(full[:k], sample_odd_counts(n, k, 8))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_odd_counts(0, 10, 0)
        with pytest.raises(ValueError):
            sample_odd_counts(5, 0, 0)
