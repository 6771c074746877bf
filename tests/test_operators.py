import gc
import tracemalloc
import weakref
from fractions import Fraction
from math import comb, exp

import numpy as np
import pytest

from posterior_debias.bayes import DiscreteBayesMap
from posterior_debias.errors import CapExceededError
from posterior_debias.operators import (
    LatticeFunction,
    TransferMatrix,
    debias_weights,
    central_moment,
    contraction_norm,
    debiased_estimate,
    debiased_estimate_mean,
    exact_bias,
    exact_variance,
    iterate_operator,
    transfer_matrix,
)
from posterior_debias.simplex import CountsVector, ProbVector, enumerate_lattice, multinomial_pmf_vector

from oracles import (
    debias_combination_at,
    debiased_mean_direct,
    exact_multinomial_pmf,
    resample_expectation,
    resample_power,
    to_fractions,
)


def binary_posterior_map(alpha):
    def g(x):
        x = np.asarray(x, dtype=float)
        return alpha * x[1] / (alpha * x[1] + x[0])

    return g


G_BINARY = binary_posterior_map(exp(1.5))


def ternary_g(x):
    x = np.asarray(x, dtype=float)
    return x[0] ** 2 + 0.5 * np.sin(x[1]) + 0.25 * x[2]


class TestDebiasWeights:
    def test_known_rows(self):
        assert debias_weights(1).tolist() == [1.0]
        assert debias_weights(2).tolist() == [2.0, -1.0]
        assert debias_weights(3).tolist() == [3.0, -3.0, 1.0]
        assert debias_weights(4).tolist() == [4.0, -6.0, 4.0, -1.0]

    def test_binomial_form(self):
        for k in range(1, 21):
            w = debias_weights(k)
            expected = [comb(k, j + 1) * (-1) ** j for j in range(k)]
            assert w.tolist() == expected

    def test_one_read_only_array_per_order(self):
        w = debias_weights(3)
        assert w is debias_weights(3)
        assert not w.flags.writeable

    @pytest.mark.parametrize("k", range(1, 21))
    def test_weights_sum_to_one_exactly(self, k):
        assert debias_weights(k).sum() == 1.0

    @pytest.mark.parametrize("k", [0, -1, 21])
    def test_order_range(self, k):
        with pytest.raises(ValueError):
            debias_weights(k)


class TestTransferMatrix:
    @pytest.mark.parametrize("n,m", [(4, 2), (8, 2), (3, 3), (5, 3)])
    def test_rows_stochastic(self, n, m):
        M = transfer_matrix(n, m)
        sums = M.rows.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-10
        assert np.all(M.rows >= 0)

    def test_entries_match_exact_pmf(self):
        n, m = 6, 3
        lat = enumerate_lattice(n, m)
        M = transfer_matrix(n, m).rows
        for row in (0, 7, 15, lat.size - 1):
            mu = lat.points[row]
            fracs = [Fraction(int(c), n) for c in mu]
            for col in range(lat.size):
                exact = float(exact_multinomial_pmf(lat.points[col], fracs))
                assert M[row, col] == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_entry_cap(self):
        with pytest.raises(CapExceededError):
            transfer_matrix(200, 3)

    def test_built_rows_read_only(self):
        with pytest.raises(ValueError):
            transfer_matrix(4, 2).rows[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_row(self, bad):
        lat = enumerate_lattice(2, 2)
        rows = np.eye(3)
        rows[1] = [bad, 0.5, 0.5]
        with pytest.raises(ValueError, match="rows sum to 1"):
            TransferMatrix(lattice=lat, rows=rows)

    def test_rejects_negative_entry(self):
        lat = enumerate_lattice(2, 2)
        rows = np.eye(3)
        rows[1] = [-0.25, 0.75, 0.5]  # sums to 1
        with pytest.raises(ValueError, match="non-negative"):
            TransferMatrix(lattice=lat, rows=rows)

    @pytest.mark.parametrize(
        "n,m", [(1, 2), (7, 2), (1024, 2), (12, 3), (60, 3), (20, 4), (5, 5), (4096, 2)]
    )
    def test_rows_are_the_pmf_bit_for_bit(self, n, m):
        # Includes boundary rows, where the log-zero sentinel applies, and at
        # n = 4096 rows where over half the entries underflow to 0.
        lat = enumerate_lattice(n, m)
        M = transfer_matrix(n, m).rows
        if lat.size > 2000:
            rows = sorted({0, 1, lat.size // 2, lat.size - 1, *range(0, lat.size, 97)})
        else:
            rows = range(lat.size)
        for i in rows:
            assert np.array_equal(M[i], multinomial_pmf_vector(lat, lat.points[i] / n))

    def test_build_allocates_only_the_matrix(self):
        tracemalloc.start()
        try:
            M = transfer_matrix(512, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * M.rows.nbytes

    def test_caller_array_copied(self):
        built = transfer_matrix(4, 2)
        mine = np.array(built.rows)  # writeable, owned by the caller
        M = TransferMatrix(lattice=built.lattice, rows=mine)
        mine[:] = 0.0
        assert np.array_equal(M.rows, built.rows)
        assert not M.rows.flags.writeable


class TestOperatorAction:
    def test_iterate_zero_is_identity(self):
        lat = enumerate_lattice(5, 2)
        M = transfer_matrix(5, 2)
        f = LatticeFunction.from_callable(G_BINARY, lat)
        assert np.array_equal(iterate_operator(f, M, 0).values, f.values)

    def test_single_iterate_matches_direct_sum(self):
        n = 5
        lat = enumerate_lattice(n, 2)
        M = transfer_matrix(n, 2)
        f = LatticeFunction.from_callable(G_BINARY, lat)
        out = iterate_operator(f, M, 1).values
        for i in range(lat.size):
            fracs = [Fraction(int(c), n) for c in lat.points[i]]
            expected = resample_expectation(G_BINARY, fracs, n)
            assert out[i] == pytest.approx(expected, rel=1e-12)

    def test_double_iterate_matches_nested_oracle(self):
        n = 3
        lat = enumerate_lattice(n, 2)
        M = transfer_matrix(n, 2)
        f = LatticeFunction.from_callable(G_BINARY, lat)
        out = iterate_operator(f, M, 2).values
        for i in range(lat.size):
            fracs = [Fraction(int(c), n) for c in lat.points[i]]
            expected = resample_power(G_BINARY, fracs, n, 2)
            assert out[i] == pytest.approx(expected, rel=1e-12)

    def test_bernstein_apply_off_lattice(self):
        n = 5
        q = [Fraction(37, 100), Fraction(63, 100)]
        expected = resample_expectation(G_BINARY, q, n)
        got = debiased_estimate_mean(G_BINARY, ProbVector([0.37, 0.63]), n, 1)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_bernstein_apply_ternary(self):
        n = 4
        q = to_fractions([0.2, 0.5, 0.3])
        expected = resample_expectation(ternary_g, q, n)
        got = debiased_estimate_mean(ternary_g, ProbVector([0.2, 0.5, 0.3]), n, 1)
        assert got == pytest.approx(expected, rel=1e-12)


class TestDebiasedEstimate:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_nested_oracle_binary(self, k):
        T = CountsVector([2, 3])
        expected = debias_combination_at(G_BINARY, (2, 3), k)
        got = debiased_estimate(G_BINARY, T, k)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_matches_nested_oracle_ternary(self):
        T = CountsVector([1, 2, 1])
        expected = debias_combination_at(ternary_g, (1, 2, 1), 2)
        got = debiased_estimate(ternary_g, T, 2)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_k1_is_plugin(self):
        T = CountsVector([4, 6])
        assert debiased_estimate(G_BINARY, T, 1) == pytest.approx(
            G_BINARY([0.4, 0.6]), rel=1e-14
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_affine_functions_pass_through(self, k):
        def affine(x):
            return 0.3 * x[0] - 0.7 * x[1] + 0.2

        n = 8
        lat = enumerate_lattice(n, 2)
        for i in range(lat.size):
            T = lat.point(i)
            got = debiased_estimate(affine, T, k)
            assert abs(got - affine(T.fractions())) < 1e-12


class TestDebiasedMean:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (3, 4)])
    def test_matches_nested_oracle(self, n, k):
        q = to_fractions([0.3, 0.7])
        expected = debiased_mean_direct(G_BINARY, q, n, k)
        got = debiased_estimate_mean(G_BINARY, ProbVector([0.3, 0.7]), n, k)
        assert got == pytest.approx(expected, rel=1e-11)

    def test_adjoint_identity_small(self):
        # averaging the estimate over datasets equals the mean-map value
        n, k = 6, 3
        q = ProbVector([0.35, 0.65])
        lat = enumerate_lattice(n, 2)
        pmf = multinomial_pmf_vector(lat, q)
        avg = sum(
            pmf[i] * debiased_estimate(G_BINARY, lat.point(i), k)
            for i in range(lat.size)
        )
        assert avg == pytest.approx(debiased_estimate_mean(G_BINARY, q, n, k), abs=1e-12)


# exact_bias and exact_variance of the last posterior component of a
# DiscreteBayesMap at m = 3 and m = 4, k = 1..4, as float.hex, recorded before
# the exact path's dispatch was trimmed: (n, likelihoods, prior, rows of
# (k, bias.hex(), variance.hex())).
EXACT_GOLDEN_M34 = [
    (
        12,
        [0.8, 1.6, 1.1],
        [0.3, 0.45, 0.25],
        [
            (1, "0x1.c62fbdc4a7f00p-9", "0x1.caf654ff419f0p-7"),
            (2, "0x1.ff5dd42cf8e00p-12", "0x1.c42535ef011b0p-7"),
            (3, "0x1.9f3de23bae000p-15", "0x1.c2afe023b2d0cp-7"),
            (4, "-0x1.85e161ba64000p-17", "0x1.c259f89ef1a90p-7"),
        ],
    ),
    (
        8,
        [0.7, 1.3, 1.9, 0.9],
        [0.1, 0.2, 0.3, 0.4],
        [
            (1, "0x1.f268d79c0d140p-7", "0x1.94354343b5b0cp-6"),
            (2, "0x1.f2b90cd5b6e00p-10", "0x1.840ac1c2d09acp-6"),
            (3, "0x1.a12dff47f2000p-15", "0x1.7eb4d7628c4f0p-6"),
            (4, "-0x1.6612cfd6a5000p-13", "0x1.7cbcaa5f3cef0p-6"),
        ],
    ),
]


class TestBiasAndVariance:
    @pytest.mark.parametrize("n,ell,prior,golden", EXACT_GOLDEN_M34)
    def test_golden_values_m3_m4(self, n, ell, prior, golden):
        g = DiscreteBayesMap(ell).component(len(ell) - 1)
        q = ProbVector(prior)
        got = [
            (k, exact_bias(g, q, n, k).hex(), exact_variance(g, q, n, k).hex())
            for k, _, _ in golden
        ]
        assert got == golden

    def test_raw_prior_gives_the_prob_vector_bits(self):
        raw = np.array([0.35, 0.65])
        for n, k in [(16, 1), (40, 3)]:
            assert exact_bias(G_BINARY, raw, n, k) == exact_bias(G_BINARY, ProbVector(raw), n, k)

    def test_rejects_a_prior_that_is_no_distribution(self):
        for public in (exact_bias, exact_variance, debiased_estimate_mean):
            with pytest.raises(ValueError):
                public(G_BINARY, [0.5, 0.7], 8, 2)

    def test_bias_matches_oracle(self):
        q = to_fractions([0.4, 0.6])
        for n, k in [(3, 1), (4, 2)]:
            expected = debiased_mean_direct(G_BINARY, q, n, k) - G_BINARY(
                np.array([0.4, 0.6])
            )
            got = exact_bias(G_BINARY, ProbVector([0.4, 0.6]), n, k)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_bias_shrinks_with_order(self):
        q = ProbVector([0.6, 0.4])
        b1 = abs(exact_bias(G_BINARY, q, 64, 1))
        b2 = abs(exact_bias(G_BINARY, q, 64, 2))
        b3 = abs(exact_bias(G_BINARY, q, 64, 3))
        assert b2 < b1 / 10
        assert b3 < b2

    def test_variance_matches_brute_force(self):
        # Var = E[D^2] - (E[D])^2 with D enumerated over all datasets
        n, k = 5, 2
        q = ProbVector([0.3, 0.7])
        lat = enumerate_lattice(n, 2)
        pmf = multinomial_pmf_vector(lat, q)
        d_vals = np.array(
            [debiased_estimate(G_BINARY, lat.point(i), k) for i in range(lat.size)]
        )
        expected = float(pmf @ d_vals**2 - (pmf @ d_vals) ** 2)
        got = exact_variance(G_BINARY, q, n, k)
        assert got == pytest.approx(expected, rel=1e-11)
        assert got >= 0.0

    def test_variance_scales_inverse_n(self):
        q = ProbVector([0.6, 0.4])
        v64 = exact_variance(G_BINARY, q, 64, 1)
        v128 = exact_variance(G_BINARY, q, 128, 1)
        assert 1.6 < v64 / v128 < 2.4


class TestCentralMoment:
    @pytest.mark.parametrize(
        "alpha", [(2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (2, 2), (0, 4)]
    )
    def test_matches_direct_enumeration(self, alpha):
        n = 8
        q = [0.3, 0.7]
        fracs = to_fractions(q)
        lat = enumerate_lattice(n, 2)
        expected = 0.0
        for i in range(lat.size):
            w = float(exact_multinomial_pmf(lat.points[i], fracs))
            dev = lat.points[i] / n - np.array(q)
            expected += w * float(np.prod(dev ** np.array(alpha)))
        got = central_moment(n, ProbVector(q), alpha)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_known_second_moment(self):
        # E[(nu_0/n - q_0)^2] = q_0(1-q_0)/n for the marginal binomial
        n = 16
        got = central_moment(n, ProbVector([0.3, 0.7]), (2, 0))
        assert got == pytest.approx(0.3 * 0.7 / n, rel=1e-12)

    def test_cross_moment_sign(self):
        got = central_moment(12, ProbVector([0.3, 0.7]), (1, 1))
        assert got == pytest.approx(-0.3 * 0.7 / 12, rel=1e-12)

    def test_rejects_bad_alpha(self):
        q = ProbVector([0.5, 0.5])
        with pytest.raises(ValueError):
            central_moment(4, q, (1, -1))
        with pytest.raises(ValueError):
            central_moment(4, q, (5, 5))


class TestContraction:
    def test_r1_matches_direct(self):
        n = 6
        lat = enumerate_lattice(n, 2)
        M = transfer_matrix(n, 2)
        f = LatticeFunction.from_callable(G_BINARY, lat)
        expected = np.max(np.abs(iterate_operator(f, M, 1).values - f.values))
        assert contraction_norm(G_BINARY, n, 2, 1) == pytest.approx(expected, rel=1e-13)

    def test_decreases_with_n(self):
        c8 = contraction_norm(G_BINARY, 8, 2, 1)
        c32 = contraction_norm(G_BINARY, 32, 2, 1)
        assert c32 < c8 / 2

    def test_higher_order_smaller(self):
        c1 = contraction_norm(G_BINARY, 16, 2, 1)
        c2 = contraction_norm(G_BINARY, 16, 2, 2)
        assert c2 < c1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            contraction_norm(G_BINARY, 8, 2, 0)


class TestOperatorState:
    def test_callable_not_kept_after_call(self):
        g = DiscreteBayesMap((1.0, exp(1.5))).component(1)
        ref = weakref.ref(g)
        exact_bias(g, ProbVector([0.6, 0.4]), 32, 3)
        del g
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_slot_eviction_changes_no_bits(self, k):
        q = ProbVector([0.6, 0.4])

        def row(n, g):
            return exact_bias(g, q, n, k), exact_variance(g, q, n, k)

        def fresh():
            return DiscreteBayesMap((1.0, exp(1.5))).component(1)

        g_a, g_b = fresh(), fresh()
        swept = [row(64, g_a), row(128, g_b), row(64, g_b)]
        uninterrupted = {n: row(n, fresh()) for n in (64, 128)}
        assert swept == [uninterrupted[64], uninterrupted[128], uninterrupted[64]]

    def test_one_matrix_alive_while_the_next_is_built(self):
        # The n = 256 matrix is dropped before the n = 512 one is built, so
        # the traced peak is about one n = 512 matrix, not both of them.
        g = DiscreteBayesMap((1.0, exp(1.5))).component(1)
        q = ProbVector([0.6, 0.4])
        tracemalloc.start()
        try:
            exact_bias(g, q, 256, 2)
            tracemalloc.reset_peak()
            exact_bias(g, q, 512, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 513 * 513 * 8
