import numpy as np
import pytest
from scipy.special import gammaln

from posterior_debias import simplex
from posterior_debias.bayes import DiscreteBayesMap, GaussianMixture, WeightedSampleSet
from posterior_debias.errors import CapExceededError
from posterior_debias.operators import LatticeFunction
from posterior_debias.simplex import (
    DEFAULT_LATTICE_CAP,
    CountsVector,
    ProbVector,
    SimplexLattice,
    enumerate_lattice,
    lattice_size,
    multinomial_pmf_vector,
    _log_coef,
    _log_factorial,
    _log_factorials,
)

from oracles import brute_lattice, exact_multinomial_pmf, to_fractions

# Each vector value type with a valid value for every field; the fields
# named in VECTOR_FIELDS must each be a nonempty 1-d finite vector.
VALID_VALUES = {
    CountsVector: {"counts": [3.0, 2.0]},
    ProbVector: {"probs": [0.25, 0.75]},
    WeightedSampleSet: {"points": [0.5, -1.0, 2.0]},
    DiscreteBayesMap: {"likelihoods": [1.0, 2.0]},
    LatticeFunction: {"lattice": enumerate_lattice(1, 2), "values": [0.5, 1.5]},
    GaussianMixture: {"weights": [0.25, 0.75], "means": [0.0, 1.0], "variances": [1.0, 2.0]},
}
VECTOR_FIELDS = [
    (cls, name) for cls, values in VALID_VALUES.items() for name in values if name != "lattice"
]


def with_field(cls, name, value):
    return cls(**{**VALID_VALUES[cls], name: value})


# Ways to spoil a valid vector v, each of which breaks the rule.
SPOILED = {
    "nan": lambda v: [np.nan, *v[1:]],
    "inf": lambda v: [np.inf, *v[1:]],
    "empty": lambda v: [],
    "2d": lambda v: [v],
}


class TestVectorRule:
    @pytest.mark.parametrize("cls,name", VECTOR_FIELDS)
    @pytest.mark.parametrize("spoil", SPOILED.values(), ids=SPOILED.keys())
    def test_rejects_and_names_the_field(self, cls, name, spoil):
        with pytest.raises(ValueError, match=name):
            with_field(cls, name, np.array(spoil(VALID_VALUES[cls][name]), dtype=float))

    @pytest.mark.parametrize("cls,name", VECTOR_FIELDS)
    def test_keeps_a_read_only_copy(self, cls, name):
        given = np.array(VALID_VALUES[cls][name], dtype=float)
        kept = getattr(with_field(cls, name, given), name)
        assert np.array_equal(kept, given)
        assert not kept.flags.writeable
        assert not np.shares_memory(kept, given)
        assert given.flags.writeable  # the caller's array is left as it was


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

    def test_nan_count_reads_not_finite(self):
        # The shared vector rule runs first; a NaN used to read "not integers".
        with pytest.raises(ValueError, match="counts must be finite"):
            CountsVector([np.nan, 2.0])


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

    @pytest.mark.parametrize("n,m", [(4, 2), (5, 3), (3, 4), (1, 1)])
    def test_built_from_n_and_m_alone(self, n, m):
        lat = SimplexLattice(n, m)
        assert all(lat.index_of(point) == i for i, point in enumerate(lat.points))
        assert np.array_equal(lat.points, enumerate_lattice(n, m).points)
        assert not lat.points.flags.writeable
        wide = SimplexLattice(np.int64(n), np.int32(m))
        assert wide == lat and (type(wide.n), type(wide.m)) == (int, int)
        assert np.array_equal(wide.points, lat.points)

    def test_points_are_not_an_argument(self):
        # Points handed in could disagree with (n, m): these two are not
        # the n = 3 lattice.
        with pytest.raises(TypeError):
            SimplexLattice(n=3, m=2, points=[[1, 0], [0, 1]])

    def test_constructor_keeps_the_dims_rule_and_the_cap(self):
        with pytest.raises(ValueError, match="need n >= 1 and m >= 1"):
            SimplexLattice(0, 2)
        with pytest.raises(CapExceededError, match="over the cap of"):
            SimplexLattice(3000, 4)

    @pytest.mark.parametrize("index", [-1, 5, True, np.True_, 1.5, 2.0])
    def test_point_takes_an_index_in_range(self, index):
        # point(-1) was (4, 0), whose index_of is 4, not -1.
        with pytest.raises(ValueError, match=r"\bindex\b"):
            enumerate_lattice(4, 2).point(index)

    def test_point_takes_numpy_integers(self):
        lat = enumerate_lattice(4, 2)
        for i in range(lat.size):
            assert np.array_equal(lat.point(np.int64(i)).counts, lat.point(i).counts)


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

    @pytest.mark.parametrize("q", [[-0.5, 1.5], [0.5, 0.7], [np.nan, 1.0]])
    def test_rejects_a_vector_that_is_no_distribution(self, q):
        with pytest.raises(ValueError):
            multinomial_pmf_vector(enumerate_lattice(4, 2), q)

    def test_rejects_wrong_category_count(self):
        with pytest.raises(ValueError, match="expected 3 probabilities"):
            multinomial_pmf_vector(enumerate_lattice(4, 3), ProbVector([0.5, 0.5]))

    def test_raw_vector_gives_the_prob_vector_bits(self):
        lat = enumerate_lattice(9, 3)
        raw = np.array([0.2, 0.45, 0.35])
        assert np.array_equal(
            multinomial_pmf_vector(lat, raw), multinomial_pmf_vector(lat, ProbVector(raw))
        )

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


@pytest.fixture
def empty_table(monkeypatch):
    """A fresh log-factorial table slot for one test; the old one is put back."""
    monkeypatch.setattr(simplex, "_log_factorial_table", np.empty(0))


class TestLogFactorials:
    # The table replaces scipy.special.gammaln, so it must keep its bits: the
    # exact path and its golden values rest on them.
    def test_table_equals_gammaln_bitwise(self, empty_table):
        j = np.arange(2**16 + 1)
        assert np.array_equal(_log_factorials(2**16)[: j.size], gammaln(j + 1.0))

    @pytest.mark.parametrize(
        "x",
        # Cephes' branch edges (x < 13, x < 1000), the first x where a
        # vectorised np.log misses a bit, and sizes up to the lattice cap.
        [1, 2, 3, 12, 13, 14, 999, 1000, 1001, 9170, 9171, 65537, 10**6, 4_999_999, 5_000_001],
    )
    def test_spot_values_equal_gammaln_bitwise(self, x):
        assert _log_factorial(x - 1) == gammaln(float(x))

    @pytest.mark.parametrize("n,m", [(4096, 2), (60, 3), (20, 4), (1, 5)])
    def test_log_coef_keeps_the_gammaln_bits(self, n, m):
        lat = enumerate_lattice(n, m)
        expected = gammaln(n + 1) - gammaln(lat.points + 1).sum(axis=1)
        assert np.array_equal(_log_coef(lat), expected)

    def test_grows_only_as_far_as_asked(self, empty_table):
        first = _log_factorials(10)
        assert first.size == 11
        assert _log_factorials(5) is first
        grown = _log_factorials(20)
        assert grown.size == 21
        assert grown[:11].tobytes() == first.tobytes()
        assert not grown.flags.writeable

    def test_table_is_capped(self, empty_table):
        with pytest.raises(CapExceededError):
            _log_factorials(DEFAULT_LATTICE_CAP)
        assert simplex._log_factorial_table.size == 0
