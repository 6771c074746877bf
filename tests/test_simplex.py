import numpy as np
import pytest

from posterior_debias.errors import CapExceededError
from posterior_debias.simplex import (
    CountsVector,
    ProbVector,
    SignedProbVector,
    enumerate_lattice,
    lattice_size,
    multinomial_pmf_vector,
)

from oracles import brute_lattice, exact_multinomial_pmf, to_fractions


class TestProbVector:
    def test_valid(self):
        p = ProbVector([0.25, 0.75])
        assert p.m == 2
        assert np.array_equal(np.asarray(p), [0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbVector([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbVector([0.5, 0.4])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ProbVector([np.nan, 1.0])

    def test_immutable(self):
        p = ProbVector([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_does_not_alias_input(self):
        raw = np.array([0.5, 0.5])
        p = ProbVector(raw)
        raw[0] = 0.9
        assert p.probs[0] == 0.5


class TestSignedProbVector:
    def test_negative_entries_allowed(self):
        v = SignedProbVector([1.2, -0.2])
        assert v.m == 2

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            SignedProbVector([0.7, 0.2])


class TestCountsVector:
    def test_basic(self):
        c = CountsVector([3, 0, 2])
        assert c.n == 5
        assert c.m == 3
        assert np.allclose(c.fractions(), [0.6, 0.0, 0.4])

    def test_float_integers_accepted(self):
        c = CountsVector(np.array([2.0, 3.0]))
        assert c.counts.dtype == np.int64

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            CountsVector([1.5, 2.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CountsVector([-1, 2])

    def test_rejects_empty_sum(self):
        with pytest.raises(ValueError):
            CountsVector([0, 0])


class TestLattice:
    @pytest.mark.parametrize(
        "n,m",
        [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (1, 5), (7, 2)],
    )
    def test_matches_brute_force(self, n, m):
        lat = enumerate_lattice(n, m)
        expected = brute_lattice(n, m)
        assert lat.size == len(expected)
        got = [tuple(int(v) for v in row) for row in lat.points]
        assert got == expected
        assert np.allclose(lat.grid(), lat.points / n)

    def test_known_order_n2_m2(self):
        got = [tuple(int(v) for v in row) for row in enumerate_lattice(2, 2).points]
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_known_order_n1_m3(self):
        got = [tuple(int(v) for v in row) for row in enumerate_lattice(1, 3).points]
        assert got == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_same_order_as_recursive_enumeration(self, m):
        def recursive(n, m):
            if m == 1:
                return np.array([[n]], dtype=np.int64)
            blocks = []
            for v in range(n + 1):
                tail = recursive(n - v, m - 1)
                head = np.full((tail.shape[0], 1), v, dtype=np.int64)
                blocks.append(np.hstack([head, tail]))
            return np.vstack(blocks)

        for n in (1, 2, 5, 9):
            points = enumerate_lattice(n, m).points
            assert points.dtype == np.int64
            assert np.array_equal(points, recursive(n, m))

    @pytest.mark.parametrize(
        "n,m", [(4, 2), (5, 3), (3, 4), (4096, 2), (60, 3), (20, 4)]
    )
    def test_index_of_round_trips(self, n, m):
        lat = enumerate_lattice(n, m)
        for i in range(lat.size):
            assert lat.index_of(lat.point(i)) == i

    def test_binary_index_is_first_coordinate(self):
        lat = enumerate_lattice(10, 2)
        for t in range(11):
            assert lat.index_of([t, 10 - t]) == t

    def test_index_of_rejects_foreign_counts(self):
        lat = enumerate_lattice(4, 2)
        with pytest.raises(ValueError):
            lat.index_of([3, 3])

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (4, 4), (100, 2)])
    def test_size_formula(self, n, m):
        from math import comb

        assert lattice_size(n, m) == comb(n + m - 1, m - 1)
        if n <= 6:
            assert lattice_size(n, m) == len(brute_lattice(n, m))

    def test_cap_raises_before_building(self):
        with pytest.raises(CapExceededError):
            enumerate_lattice(3000, 4)


class TestMultinomialPmf:
    @pytest.mark.parametrize("n,m,q", [(5, 2, (0.3, 0.7)), (4, 3, (0.2, 0.5, 0.3))])
    def test_matches_exact_fractions(self, n, m, q):
        lat = enumerate_lattice(n, m)
        probs = multinomial_pmf_vector(lat, ProbVector(q))
        fracs = to_fractions(q)
        for i in range(lat.size):
            exact = float(exact_multinomial_pmf(lat.point(i).counts, fracs))
            assert probs[i] == pytest.approx(exact, rel=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)

    def test_zero_prior_entry_gives_exact_zeros(self):
        lat = enumerate_lattice(4, 3)
        probs = multinomial_pmf_vector(lat, ProbVector([0.0, 0.4, 0.6]))
        counts = lat.points
        off_support = counts[:, 0] > 0
        assert np.all(probs[off_support] == 0.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-13)
        # restriction = binomial over the remaining two categories
        fracs = to_fractions([0.4, 0.6])
        for i in np.flatnonzero(~off_support):
            exact = float(exact_multinomial_pmf(counts[i, 1:], fracs))
            assert probs[i] == pytest.approx(exact, rel=1e-12)
