import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counterwalk import eulerian
from counterwalk.eulerian import (
    ROW_MEMO_CAP,
    ExactPmf,
    delta_moment,
    delta_pmf,
    eulerian_number,
    eulerian_number_by_sum,
    eulerian_row,
    odd_count_pmf,
)


def _descents(perm):
    return sum(perm[i] > perm[i + 1] for i in range(len(perm) - 1))


def _eulerian_by_permutations(n, k):
    """Third, definition-level route: count descents over all permutations."""
    return sum(1 for perm in itertools.permutations(range(n)) if _descents(perm) == k)


def _reference_row_stream():
    """Rows 0, 1, 2, ... by the full two-term recurrence, no symmetry used."""
    yield [1]
    row = [1]
    for n in itertools.count(2):
        yield row
        prev = row + [0]
        row = [(n - k) * (prev[k - 1] if k else 0) + (k + 1) * prev[k] for k in range(n)]


def _reference_rows(n_max):
    return list(itertools.islice(_reference_row_stream(), n_max + 1))


def _reference_rows_at(wanted):
    """The rows in ``wanted``, keeping no other on the way."""
    rows = zip(range(max(wanted) + 1), _reference_row_stream())
    return {n: row for n, row in rows if n in wanted}


def _first_half(row):
    return row[: (len(row) + 1) // 2]


def _clear_far_slots(monkeypatch):
    monkeypatch.setattr(eulerian, "_last", None)
    monkeypatch.setattr(eulerian, "_largest", None)


def _count_next_row(monkeypatch):
    calls = []
    next_row = eulerian._next_row

    def counted(prev, n):
        calls.append(n)
        return next_row(prev, n)

    monkeypatch.setattr(eulerian, "_next_row", counted)
    return calls


class _NoAccess:
    """Stands in for the row store; any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"row store read ({name})")

    def __len__(self):
        raise AssertionError("row store read (len)")

    def __getitem__(self, item):
        raise AssertionError("row store read ([])")

    def __iter__(self):
        raise AssertionError("row store read (iter)")


class TestTriangle:
    def test_matches_descent_enumeration(self):
        for n in range(1, 8):
            for k in range(n):
                assert eulerian_number(n, k) == _eulerian_by_permutations(n, k)

    def test_conventional_corner_entry(self):
        assert eulerian_number(0, -1) == 1
        assert eulerian_number(0, 0) == 0

    def test_known_entries(self):
        assert eulerian_number(1, 0) == 1
        assert eulerian_number(3, 1) == 4
        assert eulerian_row(1).values == (1,)
        assert eulerian_row(4).values == (1, 11, 11, 1)
        assert sum(eulerian_row(4).values) == 24

    def test_out_of_range_is_zero(self):
        assert eulerian_number(5, -1) == 0
        assert eulerian_number(5, 5) == 0
        assert eulerian_number(2, 17) == 0

    def test_rejects_negative_row(self):
        with pytest.raises(ValueError):
            eulerian_number(-1, 0)
        with pytest.raises(ValueError):
            eulerian_row(-3)

    def test_big_row_sum_is_exact_factorial(self):
        assert sum(eulerian_row(20).values) == math.factorial(20)
        assert sum(eulerian_row(50).values) == math.factorial(50)

    def test_recurrence_agrees_with_alternating_sum(self):
        for n in range(1, 31):
            for k in range(n):
                assert eulerian_number(n, k) == eulerian_number_by_sum(n, k)

    def test_half_row_recurrence_matches_full_recurrence(self):
        rows = _reference_rows(80)
        for n in range(2, 81):
            assert eulerian._next_row(_first_half(rows[n - 1]), n) == _first_half(rows[n])

    def test_alternating_sum_reads_no_stored_row(self, monkeypatch):
        expected = {(n, k): eulerian_number(n, k) for n in (1, 2, 7, 40, 230) for k in range(-1, n + 1)}
        for holder in ("_rows", "_last", "_largest"):
            monkeypatch.setattr(eulerian, holder, _NoAccess())
        for (n, k), value in expected.items():
            assert eulerian_number_by_sum(n, k) == value

    def test_alternating_sum_matches_binomial_expression(self):
        for n in range(1, 41):
            for k in range(n):
                expected = sum(
                    (-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)
                )
                assert eulerian_number_by_sum(n, k) == expected

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=-2, max_value=41))
    def test_total_function_agreement(self, n, k):
        lhs = eulerian_number(n, k)
        rhs = eulerian_number_by_sum(n, k)
        assert lhs == rhs


class TestRowsPastTheCap:
    ORDER = [230, 205, 260, 260, 210, 201, ROW_MEMO_CAP + 30, 240]

    def test_any_request_order_gives_the_reference_rows(self, monkeypatch):
        _clear_far_slots(monkeypatch)
        rows = _reference_rows(260)
        for n in self.ORDER:
            row = eulerian_row(n).values
            assert list(row) == rows[n]
            for k in (0, 1, n // 3, n // 2):
                assert row[k] == eulerian_number_by_sum(n, k)

    def test_concurrent_requests_agree(self, monkeypatch):
        _clear_far_slots(monkeypatch)
        expected = {n: eulerian_row(n).values for n in self.ORDER}
        _clear_far_slots(monkeypatch)
        results = [[] for _ in range(4)]

        def worker(i):
            order = list(self.ORDER)
            random.Random(i).shuffle(order)
            for n in order:
                results[i].append((n, eulerian_row(n).values))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert len(got) == len(self.ORDER)
            assert all(values == expected[n] for n, values in got)
        m, row = eulerian._largest  # a lost update could leave a smaller row here
        assert m == max(self.ORDER) and list(row) == list(expected[m][: (m + 1) // 2])

    def test_far_store_keeps_one_half_row(self, monkeypatch):
        # the last slot holds the half row just asked for
        _clear_far_slots(monkeypatch)
        for n in self.ORDER + [ROW_MEMO_CAP + 1, 300, 250, 301, 201]:
            eulerian_row(n)
            m, row = eulerian._last
            assert m == n and len(row) == (n + 1) // 2

    def test_rising_sweep_extends_the_last_far_row(self, monkeypatch):
        eulerian_row(ROW_MEMO_CAP)  # fill the memo
        _clear_far_slots(monkeypatch)
        calls = _count_next_row(monkeypatch)
        for n in range(ROW_MEMO_CAP + 1, ROW_MEMO_CAP + 31):
            eulerian_row(n)
        assert len(calls) == 30
        calls.clear()
        eulerian_row(ROW_MEMO_CAP + 30)
        assert calls == []

    def test_repeat_of_the_largest_row_builds_nothing(self, monkeypatch):
        _clear_far_slots(monkeypatch)
        eulerian_row(300)
        for n in (250, 280, ROW_MEMO_CAP + 5, 299):
            eulerian_row(n)
        calls = _count_next_row(monkeypatch)
        eulerian_row(300)
        assert calls == []
        eulerian_row(302)  # and a request just past it extends it
        assert calls == [301, 302]

    def test_at_most_two_half_rows_past_the_cap(self, monkeypatch):
        _clear_far_slots(monkeypatch)
        for n in self.ORDER + [300, 250, 301, 201, 310, 305]:
            eulerian_row(n)
            assert len(eulerian._rows) == ROW_MEMO_CAP + 1
            held = {id(row): (m, row) for m, row in (eulerian._last, eulerian._largest)}
            assert len(held) <= 2
            assert all(len(row) == (m + 1) // 2 for m, row in held.values())

    def test_exact_workload_request_order(self, monkeypatch):
        # the row the `exact` benchmark workload asks for past the cap, in its order
        _clear_far_slots(monkeypatch)
        order = (800, 299, 599, 800, 499)
        rows = _reference_rows_at(set(order))
        for n in order:
            assert list(eulerian_row(n).values) == rows[n]


class TestOddCountPmf:
    def test_single_vertex(self):
        assert odd_count_pmf(1) == ExactPmf((0,), (1,), 1)

    def test_two_vertices(self):
        assert odd_count_pmf(2) == ExactPmf((1,), (1,), 1)

    def test_four_vertices(self):
        assert odd_count_pmf(4) == ExactPmf((1, 2, 3), (1, 4, 1), 6)
        assert odd_count_pmf(4).probs == (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))

    def test_weights_are_the_eulerian_row_over_the_factorial(self):
        for n in (2, 10, 201, 300):
            pmf = odd_count_pmf(n)
            assert pmf.weights == eulerian_row(n - 1).values
            assert pmf.denom == math.factorial(n - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            odd_count_pmf(0)

    @given(st.integers(min_value=2, max_value=40))
    def test_symmetric_about_half_size(self, n):
        pmf = odd_count_pmf(n)
        assert pmf.values == tuple(range(1, n))
        assert pmf.weights == pmf.weights[::-1]


class TestDeltaPmf:
    def test_examples(self):
        assert delta_pmf(1) == ExactPmf((1,), (1,), 1)
        assert delta_pmf(2) == ExactPmf((0,), (1,), 1)
        assert delta_pmf(3) == ExactPmf((-1, 1), (1, 1), 2)
        assert delta_pmf(4) == ExactPmf((-2, 0, 2), (1, 4, 1), 6)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            delta_pmf(0)

    def test_moment_examples(self):
        assert delta_moment(3, 2) == 1
        assert delta_moment(5, 1) == 0
        assert delta_moment(4, 4) == Fraction(16, 3)

    def test_small_size_second_moments(self):
        # the n/3 rule starts at three vertices
        assert delta_moment(1, 2) == 1
        assert delta_moment(2, 2) == 0

    def test_moment_table(self):
        for n in range(2, 41):
            assert delta_moment(n, 1) == 0
        for n in range(3, 41):
            assert delta_moment(n, 2) == Fraction(n, 3)
        for n in range(1, 41):
            assert delta_moment(n, 4) <= 6 * n * n

    def test_integer_moments_match_the_pmf(self):
        for n in range(1, 61):
            law = delta_pmf(n)
            for r in range(1, 5):
                assert delta_moment(n, r) == law.moment(r)


class TestExactPmf:
    def test_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            ExactPmf((1, 0), (1, 1), 2)
        with pytest.raises(ValueError, match="sum"):
            ExactPmf((0, 1), (2, 1), 4)  # 3/4 of the mass
        with pytest.raises(ValueError, match="positive"):
            ExactPmf((0, 1), (0, 1), 1)
        with pytest.raises(ValueError, match="nonempty"):
            ExactPmf((), (), 1)
        with pytest.raises(ValueError, match="aligned"):
            ExactPmf((0, 1), (1,), 1)

    def test_rejects_big_denominator_mass_short_of_one(self):
        # short by exactly 1/(n-1)! at n = 30
        n = 30
        law = odd_count_pmf(n)
        weights = (law.weights[0], law.weights[1] - 1) + law.weights[2:]
        assert law.denom == math.factorial(n - 1)
        assert sum(weights) == law.denom - 1
        with pytest.raises(ValueError, match="sum"):
            ExactPmf(law.values, weights, law.denom)

    def test_rejects_weights_not_in_lowest_terms(self):
        with pytest.raises(ValueError, match="lowest terms"):
            ExactPmf((0, 1), (2, 2), 4)
        law = odd_count_pmf(30)
        with pytest.raises(ValueError, match="lowest terms"):
            ExactPmf(law.values, tuple(3 * w for w in law.weights), 3 * law.denom)

    def test_from_weights_merges_drops_sorts_and_reduces(self):
        pmf = ExactPmf.from_weights([(2, 1), (0, 0), (1, 2), (2, 3), (Fraction(1), 0)], 6)
        assert pmf == ExactPmf((1, 2), (1, 2), 3)
        assert [type(v) for v in pmf.values] == [int, int]
        assert ExactPmf.from_weights([(Fraction(4, 2), 5)], 5) == ExactPmf((2,), (1,), 1)

    def test_equal_laws_compare_equal(self):
        a = ExactPmf.from_weights([(0, 3), (1, 3)], 6)
        b = ExactPmf.from_weights([(1, 50), (0, 50)], 100)
        assert a == b == ExactPmf((0, 1), (1, 1), 2)
        assert hash(a) == hash(b)

    def test_pushforward_merges(self):
        pmf = ExactPmf((-1, 1), (1, 1), 2)
        assert pmf.pushforward(lambda v: v * v) == ExactPmf((1,), (1,), 1)
        sq = ExactPmf((-2, -1, 0, 1, 2), (1, 2, 3, 2, 1), 9).pushforward(lambda v: v * v)
        assert sq == ExactPmf((0, 1, 4), (3, 4, 2), 9)

    def test_mean_and_moment(self):
        pmf = ExactPmf((0, 3), (2, 1), 3)
        assert pmf.mean() == 1
        assert pmf.moment(2) == 3
        assert pmf.abs_moment(1) == 1


class TestProbabilityRule:
    """Every entry point that takes an innovation probability checks it
    through `eulerian._probability`, so all of them refuse the same values
    with the same error."""

    @staticmethod
    def entry_points():
        from counterwalk.asymptotics import exact_mean, rho_of, velocity
        from counterwalk.verify import brute_force_walk_pmf
        from counterwalk.walk_engine import StepLaw, simulate, simulate_batch, singleton_counts

        law = StepLaw.dirac(1)
        return {
            "simulate": lambda p: simulate(5, p, law, 0),
            "simulate_batch": lambda p: simulate_batch(5, p, law, 2, 0),
            "singleton_counts": lambda p: singleton_counts(5, p, 2, 0),
            "brute_force_walk_pmf": lambda p: brute_force_walk_pmf(5, p, law),
            "velocity": lambda p: velocity(p, 1),
            "exact_mean": lambda p: exact_mean(5, p, 1),
            "rho_of": rho_of,
        }

    @pytest.mark.parametrize("name", ["simulate", "simulate_batch", "singleton_counts",
                                      "brute_force_walk_pmf", "velocity", "exact_mean", "rho_of"])
    @pytest.mark.parametrize("p", [Fraction(-1, 10), Fraction(11, 10), None],
                             ids=["-1/10", "11/10", "None"])
    def test_rejects_values_outside_the_unit_interval(self, name, p):
        call = self.entry_points()[name]
        message = "must lie in [0, 1]" if p is not None else "must be a rational number"
        with pytest.raises(ValueError, match=re.escape(f"innovation probability {message}")):
            call(p)
        call(Fraction(1, 2))

    @pytest.mark.parametrize("p", [0, 1, 0.25, Fraction(1, 3), "1/2"])
    def test_accepts_the_closed_interval(self, p):
        assert eulerian._probability(p) == Fraction(p)

    @pytest.mark.parametrize("p", [math.nan, math.inf, "x", 1j, "1/0"])
    def test_non_rational_values_are_value_errors(self, p):
        with pytest.raises(ValueError, match="innovation probability must be a rational number"):
            eulerian._probability(p)


class TestRationalRule:
    """Every exact input is parsed by `eulerian._rational`, so a value that
    is not a rational number is a `ValueError` naming the input, never a
    `ZeroDivisionError` or an `OverflowError`."""

    @staticmethod
    def calls():
        from counterwalk.asymptotics import clt_variance, exact_mean, velocity
        from counterwalk.walk_engine import StepLaw

        return {
            "velocity-inf": (lambda: velocity(Fraction(1, 2), math.inf), "m1"),
            "clt_variance-1/0": (lambda: clt_variance(Fraction(1, 2), 0, "1/0"), "m2"),
            "exact_mean-1/0": (lambda: exact_mean(3, Fraction(1, 2), "1/0"), "m1"),
            "dirac-inf": (lambda: StepLaw.dirac(math.inf), "dirac value"),
            "dirac-1/0": (lambda: StepLaw.dirac("1/0"), "dirac value"),
        }

    @pytest.mark.parametrize("name", ["velocity-inf", "clt_variance-1/0", "exact_mean-1/0",
                                      "dirac-inf", "dirac-1/0"])
    def test_non_rational_inputs_are_value_errors(self, name):
        call, what = self.calls()[name]
        with pytest.raises(ValueError, match=re.escape(f"{what} must be a rational number, got ")):
            call()
