import re
import tracemalloc
import warnings
from math import exp, log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, stats

from posterior_debias.bayes import (
    BoundedLikelihood,
    _choice_cuts,
    _choice_labels,
    _plugin_expectation,
    DiscreteBayesMap,
    GaussianMixture,
    WeightedSampleSet,
    discrete_bayes,
    gaussian_likelihood,
    mixture_posterior_tail_prob,
    plugin_expectation,
    plugin_posterior_prob,
)
from posterior_debias.errors import DegenerateError
from posterior_debias.operators import LatticeFunction
from posterior_debias.simplex import ProbVector, enumerate_lattice

from oracles import plugin_expectation_whole

HALF = lambda x: x >= 0.5


def quadrature_tail_prob(mix, noise_var, y_obs, threshold):
    """Direct Bayes-integral oracle: ∫_A ell*prior / ∫ ell*prior by quadrature."""

    def prior_pdf(x):
        total = 0.0
        for w, mu, v in zip(mix.weights, mix.means, mix.variances):
            total += w * np.exp(-((x - mu) ** 2) / (2 * v)) / sqrt(2 * np.pi * v)
        return total

    def integrand(x):
        return prior_pdf(x) * np.exp(-((y_obs - x) ** 2) / (2 * noise_var))

    hi, _ = integrate.quad(integrand, threshold, np.inf, epsabs=1e-14, epsrel=1e-12, limit=300)
    lo, _ = integrate.quad(integrand, -np.inf, threshold, epsabs=1e-14, epsrel=1e-12, limit=300)
    return hi / (hi + lo)


class TestGaussianLikelihood:
    def test_matches_scipy_logpdf(self):
        lik = gaussian_likelihood(0.8, 1 / 16)
        xs = np.array([-1.0, 0.0, 0.5, 0.8, 3.0])
        expected = stats.norm.logpdf(0.8, loc=xs, scale=0.25)
        assert np.allclose(lik.log(xs), expected, rtol=1e-13)

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            gaussian_likelihood(0.0, 0.0)

    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(3).normal(0.0, 10.0, 1000),
            np.arange(-6.0, 6.0).reshape(3, 4),
            np.float64(0.3),
            np.array(-1.25),
            2.0,
            [0.1, 0.8, 2.5],
        ],
    )
    def test_log_equals_plain_expression_bitwise(self, x):
        # The log is built in place in one temporary; the operations and
        # their order are those of the plain expression, so are the bits.
        y_obs, v = 0.8, 1 / 16
        xa = np.asarray(x, dtype=float)
        ref = np.asarray(-0.5 * log(2 * pi * v) - (y_obs - xa) ** 2 * (0.5 / v))
        got = gaussian_likelihood(y_obs, v).log(x)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


class TestDiscreteBayesMap:
    def test_posterior_hand_formula(self):
        bmap = DiscreteBayesMap([2.0, 1.0, 1.0])
        post = bmap.posterior(ProbVector([0.5, 0.25, 0.25]))
        denom = 2 * 0.5 + 0.25 + 0.25
        assert np.allclose(post.probs, [1.0 / denom, 0.25 / denom, 0.25 / denom])

    def test_binary_closed_form_setting_one(self):
        alpha = exp(1.5)
        bmap = DiscreteBayesMap([1.0, alpha])
        q = 0.4
        got = bmap.posterior(ProbVector([1 - q, q])).probs[1]
        assert got == pytest.approx(alpha * q / (alpha * q + 1 - q), rel=1e-14)

    def test_binary_closed_form_setting_two(self):
        alpha = exp(2.0)
        q = 3 / 11
        bmap = DiscreteBayesMap([1.0, alpha])
        got = bmap.posterior(ProbVector([1 - q, q])).probs[1]
        # alpha*q/(alpha*q + 1 - q) = 3e^2/(3e^2 + 8)
        assert got == pytest.approx(3 * exp(2) / (3 * exp(2) + 8), rel=1e-14)
        assert got == pytest.approx(0.7348110395614845, rel=1e-12)

    def test_rescaling_invariance(self):
        ell = np.array([0.7, 1.3, 0.4])
        q = ProbVector([0.2, 0.3, 0.5])
        a = DiscreteBayesMap(ell).posterior(q).probs
        b = DiscreteBayesMap(3.0 * ell).posterior(q).probs
        assert np.max(np.abs(a - b)) < 1e-14

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(np.random.SeedSequence([11]))
        for _ in range(20):
            m = int(rng.integers(2, 6))
            ell = rng.uniform(0.1, 5.0, m)
            raw = rng.dirichlet(np.ones(m))
            post = DiscreteBayesMap(ell).posterior(ProbVector(raw))
            assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_component_matches_posterior(self):
        bmap = DiscreteBayesMap([0.5, 2.0])
        q = np.array([0.3, 0.7])
        for s in range(2):
            assert bmap.component(s)(q) == pytest.approx(
                bmap.posterior(ProbVector(q)).probs[s], rel=1e-14
            )

    def test_component_degenerate(self):
        g = DiscreteBayesMap([1.0, 1.0]).component(0)
        with pytest.raises(DegenerateError):
            g(np.array([0.0, 0.0]))

    def test_component_on_grid_has_the_per_point_bits(self):
        # Likelihoods from e^-700 to e^700, lattices of m = 2..8 atoms.
        rng = np.random.default_rng(np.random.SeedSequence([21]))
        sizes = {2: 300, 3: 40, 4: 16, 5: 10, 6: 7, 7: 6, 8: 5}
        for trial in range(120):
            m = int(rng.integers(2, 9))
            spread = [1.0, 50.0, 700.0][trial % 3]
            g = DiscreteBayesMap(np.exp(rng.uniform(-spread, spread, m))).component(
                int(rng.integers(0, m))
            )
            lat = enumerate_lattice(int(rng.integers(1, sizes[m] + 1)), m)
            per_point = np.array([float(g(x)) for x in lat.grid()])
            assert g.on_grid(lat.grid()).tobytes() == per_point.tobytes(), trial
            sampled = LatticeFunction.from_callable(g, lat).values
            assert sampled.tobytes() == per_point.tobytes(), trial

    def test_component_on_grid_degenerate(self):
        # At (2, 2)/4 both terms round to 0.0: 0.5 * 5e-324 is a tie, to even.
        g = DiscreteBayesMap([5e-324, 5e-324]).component(1)
        grid = enumerate_lattice(4, 2).grid()
        with pytest.raises(DegenerateError):
            [g(x) for x in grid]
        with pytest.raises(DegenerateError):
            g.on_grid(grid)

    def test_rejects_nonpositive_likelihood(self):
        with pytest.raises(ValueError):
            DiscreteBayesMap([1.0, 0.0])

    @pytest.mark.parametrize("q", [[0.5, 0.7], [-0.5, 1.5], [0.5, np.nan]])
    def test_posterior_rejects_a_prior_that_is_no_distribution(self, q):
        with pytest.raises(ValueError):
            DiscreteBayesMap([1.0, 2.0]).posterior(q)

    def test_posterior_rejects_wrong_support_size(self):
        with pytest.raises(ValueError, match="expected 2 prior entries"):
            DiscreteBayesMap([1.0, 2.0]).posterior(ProbVector([0.2, 0.3, 0.5]))

    def test_discrete_bayes_wrapper(self):
        bmap = DiscreteBayesMap([1.0, 2.0])
        q = ProbVector([0.5, 0.5])
        assert np.array_equal(discrete_bayes(bmap, q).probs, bmap.posterior(q).probs)


class TestPluginFunctionals:
    def test_two_point_hand_value(self):
        # samples {0, 1}: weight ratio ell(1)/ell(0) = e^{8 (2*0.8 - 1)} = e^{4.8}
        samples = WeightedSampleSet(np.array([0.0, 1.0]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        ratio = exp(4.8)
        expected = ratio / (1 + ratio)
        assert plugin_posterior_prob(samples, lik, HALF) == pytest.approx(expected, rel=1e-13)

    def test_full_and_empty_event(self):
        samples = WeightedSampleSet(np.array([0.2, 0.9, 1.4]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        assert plugin_posterior_prob(samples, lik, lambda x: x == x) == 1.0
        assert plugin_posterior_prob(samples, lik, lambda x: x != x) == 0.0

    def test_constant_likelihood_counts_fraction(self):
        samples = WeightedSampleSet(np.array([0.0, 1.0, 1.0, 0.3, 0.9]))
        flat = BoundedLikelihood(log_fn=lambda x: np.zeros(np.shape(x)))
        assert plugin_posterior_prob(samples, flat, HALF) == 3 / 5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(np.random.SeedSequence([5]))
        pts = rng.normal(0.5, 1.0, 40)
        lik = gaussian_likelihood(0.8, 1 / 16)
        a = plugin_posterior_prob(WeightedSampleSet(pts), lik, HALF)
        b = plugin_posterior_prob(WeightedSampleSet(pts[::-1].copy()), lik, HALF)
        assert a == pytest.approx(b, rel=1e-15)

    def test_rescale_invariance(self):
        pts = np.array([0.1, 0.6, 1.1])
        base = gaussian_likelihood(0.8, 1 / 16)
        scaled = BoundedLikelihood(log_fn=lambda x: base.log(x) + np.log(7.0))
        a = plugin_posterior_prob(WeightedSampleSet(pts), base, HALF)
        b = plugin_posterior_prob(WeightedSampleSet(pts), scaled, HALF)
        assert a == pytest.approx(b, rel=1e-14)

    def test_far_samples_do_not_underflow(self):
        # raw densities underflow to 0; the shifted computation must not
        samples = WeightedSampleSet(np.array([100.0, 101.0]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        got = plugin_posterior_prob(samples, lik, HALF)
        assert np.isfinite(got)
        assert got == 1.0  # both samples are >= 0.5

    def test_all_underflow_raises(self):
        neg_inf = BoundedLikelihood(log_fn=lambda x: np.full(np.shape(x), -np.inf))
        with pytest.raises(DegenerateError):
            plugin_posterior_prob(WeightedSampleSet(np.array([0.0, 1.0])), neg_inf, HALF)

    def test_bad_event_shape(self):
        samples = WeightedSampleSet(np.array([0.0, 1.0]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        with pytest.raises(ValueError):
            plugin_posterior_prob(samples, lik, lambda x: np.array([True]))

    def test_expectation_consistency_with_prob(self):
        samples = WeightedSampleSet(np.array([0.2, 0.7, 1.3, -0.4]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        prob = plugin_posterior_prob(samples, lik, HALF)
        expect = plugin_expectation(samples, lik, lambda x: (x >= 0.5).astype(float))
        assert prob == expect

    def test_expectation_constant_is_exact(self):
        samples = WeightedSampleSet(np.array([0.2, 0.7, 1.3]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        assert plugin_expectation(samples, lik, lambda x: np.full(np.shape(x), 1.0)) == 1.0

    def test_expectation_identity_map(self):
        samples = WeightedSampleSet(np.array([0.0, 1.0]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        ratio = exp(4.8)
        assert plugin_expectation(samples, lik, lambda x: x) == pytest.approx(
            ratio / (1 + ratio), rel=1e-13
        )


B = 2**14  # block size of the plug-in expectation


class TestPluginExpectationBlocks:
    @pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 3 * B + 5, 2**18])
    def test_equals_whole_array_bit_for_bit(self, n):
        rng = np.random.default_rng(np.random.SeedSequence([n]))
        samples = WeightedSampleSet(rng.normal(0.5, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)
        for h in (lambda x: (x >= 0.5).astype(float), lambda x: x, np.sin):
            assert plugin_expectation(samples, lik, h) == plugin_expectation_whole(
                samples, lik, h
            )

    def test_unit_function_is_exactly_one_over_blocks(self):
        rng = np.random.default_rng(np.random.SeedSequence([5]))
        samples = WeightedSampleSet(rng.normal(0.5, 1.0, 3 * B + 5))
        lik = gaussian_likelihood(0.8, 1 / 16)
        assert plugin_expectation(samples, lik, lambda x: np.ones(np.shape(x))) == 1.0

    def test_applies_likelihood_and_h_blockwise(self):
        # The documented contract: log_fn and h each see consecutive slices
        # of at most B points, every point once (the log weights are kept
        # between the shift pass and the sums pass).
        seen_log, seen_h = [], []

        def log_fn(x):
            seen_log.append(x.copy())
            return -x * x

        def h(x):
            seen_h.append(x.copy())
            return x

        samples = WeightedSampleSet(np.linspace(-1.0, 1.0, 3 * B + 5))
        plugin_expectation(samples, BoundedLikelihood(log_fn=log_fn), h)
        assert max(x.size for x in seen_log + seen_h) <= B
        assert np.array_equal(np.concatenate(seen_h), samples.points)
        assert np.array_equal(np.concatenate(seen_log), samples.points)

    def test_non_elementwise_h_is_applied_per_block(self):
        # An h that is not elementwise is centred on each block it is given,
        # not on the whole array: past one block the answer is that of the
        # per-block h, and differs from the whole-array one.
        samples = WeightedSampleSet(np.linspace(0.0, 1.0, 2 * B + 3))
        lik = gaussian_likelihood(0.8, 1 / 16)
        pieces = []

        def centred(x):
            pieces.append(x - x.mean())
            return pieces[-1]

        got = plugin_expectation(samples, lik, centred)
        assert len(pieces) > 1
        per_block = np.concatenate(pieces)
        assert got == plugin_expectation_whole(samples, lik, lambda x: per_block)
        assert got != plugin_expectation_whole(samples, lik, lambda x: x - x.mean())

    def test_nan_in_last_block_raises(self):
        pts = np.zeros(3 * B + 5)
        pts[-1] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.nan, 0.0))
        with pytest.raises(ValueError, match="NaN"):
            plugin_expectation(WeightedSampleSet(pts), lik, lambda x: x)

    def test_all_underflow_raises_over_blocks(self):
        neg_inf = BoundedLikelihood(log_fn=lambda x: np.full(np.shape(x), -np.inf))
        with pytest.raises(DegenerateError):
            plugin_expectation(WeightedSampleSet(np.zeros(3 * B + 5)), neg_inf, lambda x: x)

    def test_bad_h_shape_raises_over_blocks(self):
        lik = gaussian_likelihood(0.8, 1 / 16)
        with pytest.raises(ValueError, match="one value per sample"):
            plugin_expectation(WeightedSampleSet(np.zeros(3 * B + 5)), lik, lambda x: x[:-1])

    def test_bad_likelihood_shape_raises(self):
        lik = BoundedLikelihood(log_fn=lambda x: 0.0)
        with pytest.raises(ValueError, match="one value per sample"):
            plugin_expectation(WeightedSampleSet(np.zeros(B + 1)), lik, lambda x: x)

    @pytest.mark.parametrize("n", [7, 3 * B + 5])
    def test_unbounded_likelihood_raises_before_any_exp(self, n):
        # One +inf log weight used to give inf - inf = NaN and a NaN result
        # with a RuntimeWarning.
        pts = np.zeros(n)
        pts[-1] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.inf, 0.0))
        samples = WeightedSampleSet(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"likelihood returned \+inf; it must be bounded"):
                plugin_expectation(samples, lik, lambda x: x)
            with pytest.raises(ValueError, match=r"likelihood returned \+inf; it must be bounded"):
                plugin_posterior_prob(samples, lik, HALF)


_BAD_H = {
    "complex": lambda x: x + 1j,
    "None entries": lambda x: np.array([None] * x.size, dtype=object).reshape(x.shape),
    "strings": lambda x: x.astype(str),
}
_BAD_LOG_FN = {
    "complex": lambda x: -x * x + 0j,
    "bool": lambda x: x > 0,
    "strings": lambda x: (-x * x).astype(str),
}


class TestRealReturns:
    """What h and a likelihood's log_fn return keeps the package's real-number
    rule: a complex, string or object result raises ValueError naming h or
    the likelihood, with no warning and no number. An h may return bools."""

    @pytest.mark.parametrize("name", sorted(_BAD_H))
    @pytest.mark.parametrize("n", [7, 2 * B + 3])
    def test_bad_h_raises(self, name, n):
        samples = WeightedSampleSet(np.linspace(-1.0, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^h must return bools or real numbers"):
                plugin_expectation(samples, lik, _BAD_H[name])
            with pytest.raises(ValueError, match="^h must return bools or real numbers"):
                _plugin_expectation(np.tile(samples.points[:, None], 3), lik, _BAD_H[name])

    def test_bad_h_in_last_block_raises(self):
        # h is checked on every block it returns, not on the first only.
        h = lambda x: x + 1j if x.size < B else x
        with pytest.raises(ValueError, match="^h must return bools or real numbers"):
            plugin_expectation(
                WeightedSampleSet(np.zeros(2 * B + 3)), gaussian_likelihood(0.8, 1 / 16), h
            )

    @pytest.mark.parametrize("name", sorted(_BAD_LOG_FN))
    def test_bad_log_fn_raises(self, name):
        lik = BoundedLikelihood(log_fn=_BAD_LOG_FN[name])
        points = np.linspace(-1.0, 1.0, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^likelihood must return real numbers"):
                plugin_expectation(WeightedSampleSet(points), lik, lambda x: x)
            with pytest.raises(ValueError, match="^likelihood must return real numbers"):
                _plugin_expectation(np.tile(points[:, None], 3), lik, HALF)

    def test_int_and_bool_h_give_the_float_bits(self):
        pts = np.random.default_rng(9).normal(0.5, 1.0, size=(40, 3))
        lik = gaussian_likelihood(0.8, 1 / 16)
        ref = _plugin_expectation(pts, lik, lambda x: (x >= 0.5).astype(float))
        for h in (HALF, lambda x: (x >= 0.5).astype(np.int32)):
            assert _plugin_expectation(pts, lik, h).tobytes() == ref.tobytes()


class TestLogOut:
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (B + 3,)])
    def test_gaussian_fills_out_with_the_bits_of_a_new_array(self, shape):
        x = np.random.default_rng(np.random.SeedSequence([17])).normal(0.5, 1.0, shape)
        lik = gaussian_likelihood(0.8, 1 / 16)
        out = np.full(shape, np.nan)
        got = lik.log(x, out=out)
        assert got is out
        assert out.tobytes() == lik.log(x).tobytes()

    def test_other_log_fn_is_copied_into_out(self):
        x = np.linspace(-1.0, 1.0, 11)
        lik = BoundedLikelihood(log_fn=lambda v: (-v * v).astype(np.float32))
        out = np.full(x.shape, np.nan)
        assert lik.log(x, out=out) is out
        assert out.tobytes() == lik.log(x).tobytes()

    @pytest.mark.parametrize("bad", [lambda x: 0.0, lambda x: x[:-1], lambda x: np.zeros((2,) + x.shape)])
    def test_wrong_shape_on_the_out_path_raises(self, bad):
        x = np.linspace(-1.0, 1.0, 11)
        out = np.full(x.shape, np.nan)
        with pytest.raises(ValueError, match="one value per sample"):
            BoundedLikelihood(log_fn=bad).log(x, out=out)
        assert np.isnan(out).all()
        with pytest.raises(ValueError, match="one value per sample"):
            plugin_expectation(WeightedSampleSet(x), BoundedLikelihood(log_fn=bad), lambda v: v)

    @pytest.mark.parametrize("n", [B - 1, B + 1, 3 * B + 5, 2**18])
    def test_log_fn_without_out_gives_the_builtin_bits(self, n):
        rng = np.random.default_rng(np.random.SeedSequence([n, 4]))
        samples = WeightedSampleSet(rng.normal(0.5, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)
        wrapped = BoundedLikelihood(log_fn=lambda x: lik.log_fn(x))
        for h in (HALF, lambda x: x):
            assert plugin_expectation(samples, wrapped, h) == plugin_expectation(samples, lik, h)


def assert_close_to_one_set(got, want, n):
    # A column of a chunk sums its points in point order, a single set
    # pairwise; the two orders coincide below 8 points, and above they
    # differ by rounding: n * eps relative, or one subnormal step where the
    # quotient is subnormal.
    if n < 8:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=n * np.finfo(float).eps, abs=2**-1074)


class TestPluginPosteriorColumns:
    """The plug-in kernel over a point-major chunk, one sample set per
    column, with a boolean event as h: what run_mixture_mc's batch
    functional computes."""

    @settings(max_examples=200, deadline=None)
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 80), st.integers(1, 6)),
            elements=st.floats(-20.0, 20.0),
        ),
        y_obs=st.floats(-5.0, 5.0),
        threshold=st.floats(-3.0, 3.0),
    )
    def test_each_column_equals_plugin_prob(self, points, y_obs, threshold):
        lik = gaussian_likelihood(y_obs, 1 / 16)
        event = lambda x: x >= threshold
        cols = _plugin_expectation(points, lik, event)
        assert cols.shape == points.shape[1:]
        for j, column in enumerate(points.T):
            want = plugin_posterior_prob(WeightedSampleSet(column), lik, event)
            assert_close_to_one_set(cols[j], want, points.shape[0])

    def test_underflow_in_one_column_raises(self):
        # only the second column has every likelihood at zero
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, -np.inf, 0.0))
        with pytest.raises(DegenerateError):
            _plugin_expectation(np.array([[0.0, 9.0], [9.0, 9.0]]).T, lik, HALF)

    def test_nan_likelihood_raises(self):
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.nan, 0.0))
        with pytest.raises(ValueError):
            _plugin_expectation(np.array([[0.0, 1.0], [0.0, 9.0]]).T, lik, HALF)

    def test_columns_past_one_block_equal_prob_and_whole_array(self):
        rng = np.random.default_rng(np.random.SeedSequence([3, B]))
        points = rng.normal(0.5, 1.0, (3 * B + 5, 3))
        lik = gaussian_likelihood(0.8, 1 / 16)
        cols = _plugin_expectation(points, lik, HALF)
        log_w = lik.log(points)
        w = np.exp(log_w - log_w.max(axis=0))
        whole = (w * HALF(points)).sum(axis=0) / w.sum(axis=0)
        assert cols.shape == (3,)
        assert np.array_equal(cols, whole)
        for j, column in enumerate(points.T):
            want = plugin_posterior_prob(WeightedSampleSet(column), lik, HALF)
            assert_close_to_one_set(cols[j], want, points.shape[0])

    def test_nan_in_last_block_of_one_column_raises(self):
        points = np.zeros((3 * B + 5, 3))
        points[-1, 1] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.nan, 0.0))
        with pytest.raises(ValueError, match="NaN"):
            _plugin_expectation(points, lik, HALF)

    def test_all_underflow_in_last_column_raises_past_one_block(self):
        # Columns 0 and 1 are fine; every weight of column 2 is zero, across
        # all four blocks.
        points = np.zeros((3 * B + 5, 3))
        points[:, 2] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, -np.inf, 0.0))
        with pytest.raises(DegenerateError):
            _plugin_expectation(points, lik, HALF)

    @pytest.mark.parametrize("n", [7, B, B + 5])
    def test_boolean_event_equals_float_event_bitwise(self, n):
        # A boolean event multiplies the weights as it is; a float h goes
        # through its float values. Both give the same bits, on a chunk and
        # on each single set.
        pts = np.random.default_rng(n).normal(0.5, 1.0, size=(n, 3))
        lik = gaussian_likelihood(0.8, 1 / 16)
        as_float = lambda x: HALF(x).astype(float)
        cols = _plugin_expectation(pts, lik, HALF)
        assert cols.tobytes() == _plugin_expectation(pts, lik, as_float).tobytes()
        for j, column in enumerate(pts.T):
            one = WeightedSampleSet(column)
            want = plugin_expectation(one, lik, as_float)
            assert plugin_posterior_prob(one, lik, HALF).hex() == want.hex()
            assert_close_to_one_set(cols[j], want, n)


def _columns_by_column_max(points, likelihood, h):
    # The plug-in over whole columns with each column's shift from
    # max(axis=0), faults checked in the kernel's order.
    log_w = likelihood.log(points)
    shift = log_w.max(axis=0)
    if np.isnan(shift).any():
        raise ValueError("likelihood returned NaN")
    if (shift == np.inf).any():
        raise ValueError("likelihood returned +inf; it must be bounded")
    if (shift == -np.inf).any():
        raise DegenerateError("all sample likelihoods underflowed to zero")
    w = np.exp(log_w - shift)
    return (w * h(points)).sum(axis=0) / w.sum(axis=0)


COLUMN_SHAPES = [(16, 1), (1, 512), (16, 512), (64, 7), (8, 2), (B, 3), (3 * B + 5, 1), (3 * B + 5, 3)]


class TestColumnShift:
    """Every call takes its column shifts from one maximum reduce over the
    points axis, one column or many, within one block or past it; every
    result and every fault must be what per-column maxima give."""

    @pytest.mark.parametrize("shape", COLUMN_SHAPES)
    @pytest.mark.parametrize("fault", [None, np.nan, np.inf, -np.inf])
    def test_equals_column_max(self, shape, fault):
        # The identity log_fn makes the points the log weights. The last
        # column's max is a zero of either sign; one column holds the
        # fault, or underflows entirely for -inf.
        points = np.random.default_rng(shape).normal(0.0, 3.0, shape)
        points[:, -1] = -np.abs(points[:, -1])
        points[::2, -1] = -0.0
        points[-1, -1] = 0.0
        col = shape[1] // 2
        if fault == -np.inf:
            points[:, col] = -np.inf
        elif fault is not None:
            points[-1, col] = fault
        lik = BoundedLikelihood(log_fn=lambda x: x)
        try:
            want = _columns_by_column_max(points, lik, HALF)
        except (ValueError, DegenerateError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _plugin_expectation(points, lik, HALF)
            return
        got = _plugin_expectation(points, lik, HALF)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("shape", COLUMN_SHAPES)
    def test_unit_h_is_exactly_one_in_every_column(self, shape):
        # num and den take the same sums, column by column.
        points = np.random.default_rng(shape).normal(0.5, 1.0, shape)
        lik = gaussian_likelihood(0.8, 1 / 16)
        got = _plugin_expectation(points, lik, lambda x: np.ones(x.shape))
        assert got.shape == shape[1:]
        assert (got == 1.0).all()


class TestGaussianMixture:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.6], [0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.5], [0.0], [1.0, 1.0])

    def test_sample_shape_and_moments(self):
        mix = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
        rng = np.random.default_rng(np.random.SeedSequence([7]))
        x = mix.sample(200_000, rng)
        assert x.shape == (200_000,)
        # mean 0.5, var = 1 + 0.25; allow 5 sigma
        assert abs(x.mean() - 0.5) < 5 * sqrt(1.25 / 200_000)

    def test_int_size_equals_one_d_shape(self):
        mix = GaussianMixture([0.3, 0.7], [0.0, 2.0], [1.0, 0.5])
        a = mix.sample(37, np.random.default_rng(np.random.SeedSequence([9])))
        b = mix.sample((37,), np.random.default_rng(np.random.SeedSequence([9])))
        assert np.array_equal(a, b)
        assert mix.sample((4, 37), np.random.default_rng(0)).shape == (4, 37)

    @pytest.mark.parametrize("size", [True, np.True_, 2.0, -1, (2, 1.5), (2, -1)], ids=repr)
    def test_size_keeps_the_integer_rule(self, size):
        mix = GaussianMixture([0.3, 0.7], [0.0, 2.0], [1.0, 0.5])
        with pytest.raises(ValueError, match=r"\bsize\b"):
            mix.sample(size, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "size, plain", [(np.int64(3), 3), ((np.int32(2), 3), (2, 3)), (0, 0), ((), ())], ids=repr
    )
    def test_numpy_integer_sizes_give_the_bits_of_ints(self, size, plain):
        mix = GaussianMixture([0.3, 0.7], [0.0, 2.0], [1.0, 0.5])
        got = mix.sample(size, np.random.default_rng(4))
        want = mix.sample(plain, np.random.default_rng(4))
        assert got.shape == np.shape(want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "weights",
        [[0.3, 0.7], [0.2, 0.0, 0.8], [0.0, 0.5, 0.5], [0.5, 0.3, 0.2], [1.0]],
    )
    @pytest.mark.parametrize("size", [1000, (3, 5), (512, 16)])
    def test_same_stream_as_choice(self, weights, size):
        # Reference: labels from rng.choice with p=weights, then one standard
        # normal per draw, scaled by the label's standard deviation.
        m = len(weights)
        mix = GaussianMixture(weights, np.arange(m) - 1.0, 0.5 + np.arange(m))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            comp = rng.choice(m, size=size, p=mix.weights)
            ref = mix.means[comp] + np.sqrt(mix.variances[comp]) * rng.standard_normal(size)
            assert np.array_equal(mix.sample(size, np.random.default_rng(seed)), ref)

    @pytest.mark.parametrize("size", [1024, 2048, 4096])
    @pytest.mark.parametrize("cuts", [0, 1, 2, 3, 6, 7, 8, 32, 33, 64, 65])
    def test_choice_labels_equal_searchsorted(self, cuts, size):
        # Counting passes up to the cut count _COUNTED allows at the size,
        # the binary search past it. A zero weight repeats the first cut,
        # and one uniform sits on each cut.
        rng = np.random.default_rng(cuts)
        weights = rng.dirichlet(np.ones(cuts + 1))
        if cuts >= 2:
            weights[1] = 0.0
        cut_points = _choice_cuts(weights / weights.sum())
        assert cut_points.size == cuts
        u = rng.random(size)
        u[:cuts] = cut_points
        labels = np.full(u.shape, -7, np.intp)
        _choice_labels(u, cut_points, labels, np.empty(u.shape, bool))
        assert np.array_equal(labels, cut_points.searchsorted(u, side="right"))

    @pytest.mark.parametrize("cuts", [0, 1, 2, 6, 7, 8, 32, 33, 64, 65])
    @pytest.mark.parametrize("size", [1, 16, 1023, 1024, 2048, 4096])
    def test_choice_labels_equal_searchsorted_at_any_size(self, cuts, size):
        # Calls under 1,024 uniforms take the search whatever the cut count,
        # as counting passes have a fixed cost; larger ones count up to the
        # cut count _COUNTED allows at their size. Either way the labels are
        # the search's.
        rng = np.random.default_rng([cuts, size])
        cut_points = _choice_cuts(rng.dirichlet(np.ones(cuts + 1)))
        u = rng.random(size)
        u[: min(cuts, size)] = cut_points[:size]
        labels = np.full(u.shape, -7, np.intp)
        _choice_labels(u, cut_points, labels, np.empty(u.shape, bool))
        assert np.array_equal(labels, cut_points.searchsorted(u, side="right"))

    @pytest.mark.parametrize("m", [2, 3, 33])
    @pytest.mark.parametrize("size", [1, 16, 1023])
    def test_small_draws_same_labels_as_choice(self, m, size):
        # GaussianMixture.sample(16) in the per-replicate outer_mc, the last
        # short chunk of a _fill and the last piece of the rejection sampler
        # take the search: the stream of rng.choice.
        weights = np.random.default_rng(m).dirichlet(np.ones(m))
        mix = GaussianMixture(weights, np.arange(m) * 0.5, np.ones(m))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            comp = rng.choice(m, size=size, p=mix.weights)
            ref = mix.means[comp] + np.sqrt(mix.variances[comp]) * rng.standard_normal(size)
            assert np.array_equal(mix.sample(size, np.random.default_rng(seed)), ref)

    @pytest.mark.parametrize("m", [3, 33])
    def test_warm_fill_allocates_no_iterator_buffer(self, m):
        # The counting passes add bytes to bytes. Adding the bool mask to
        # the integer labels cast it through a 64 KB buffer on every pass
        # after the first: a 65,800 B traced peak at 8,192 draws and m = 3.
        mix = GaussianMixture(np.full(m, 1 / m), np.arange(m) * 0.5, np.ones(m))
        out = np.empty(8192)
        rng = np.random.default_rng(m)
        mix._fill(out, rng)
        tracemalloc.start()
        try:
            mix._fill(out, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8192, f"{peak} B traced peak of a warm _fill"

    @pytest.mark.parametrize("m", [33, 34, 100])
    def test_many_components_same_labels_as_choice(self, m):
        # At 5,000 uniforms the labels of up to 64 cut points come from one
        # counting pass per cut, and past 64 from a binary search over the
        # cuts: the same labels either way.
        weights = np.random.default_rng(m).dirichlet(np.ones(m))
        weights[::5] = 0.0
        mix = GaussianMixture(weights / weights.sum(), np.arange(m) * 0.5, np.ones(m))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            comp = rng.choice(m, size=5000, p=mix.weights)
            ref = mix.means[comp] + np.sqrt(mix.variances[comp]) * rng.standard_normal(5000)
            assert np.array_equal(mix.sample(5000, np.random.default_rng(seed)), ref)


class TestMixtureTailOracle:
    MIX = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])

    def test_reference_setting_value(self):
        got = mixture_posterior_tail_prob(self.MIX, 1 / 16, 0.8, 0.5)
        assert got == pytest.approx(0.8795404134930043, rel=1e-12)

    def test_reference_setting_against_quadrature(self):
        got = mixture_posterior_tail_prob(self.MIX, 1 / 16, 0.8, 0.5)
        oracle = quadrature_tail_prob(self.MIX, 1 / 16, 0.8, 0.5)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_no_information_limit(self):
        # enormous noise: posterior collapses to the prior
        from scipy.stats import norm

        prior_tail = 0.5 * norm.sf(0.5, 0, 1) + 0.5 * norm.sf(0.5, 1, 1)
        got = mixture_posterior_tail_prob(self.MIX, 1e8, 0.8, 0.5)
        assert got == pytest.approx(prior_tail, abs=1e-4)

    def test_symmetric_case(self):
        got = mixture_posterior_tail_prob(self.MIX, 1 / 4, 0.5, 0.5)
        assert got == pytest.approx(0.5, abs=1e-13)

    def test_quadrature_grid(self):
        pairs = [(y, t) for y in (-0.5, 0.2, 0.5, 0.8, 1.5) for t in (-0.3, 0.25, 0.5, 1.1)]
        assert len(pairs) == 20
        for y, t in pairs:
            got = mixture_posterior_tail_prob(self.MIX, 1 / 16, y, t)
            oracle = quadrature_tail_prob(self.MIX, 1 / 16, y, t)
            assert got == pytest.approx(oracle, abs=1e-7), (y, t)

    def test_single_component_conjugate(self):
        # one component: posterior N(y/2, 1/2) when prior N(0,1), noise 1
        single = GaussianMixture([1.0], [0.0], [1.0])
        got = mixture_posterior_tail_prob(single, 1.0, 0.0, 0.0)
        assert got == pytest.approx(0.5, abs=1e-14)

    # float.hex of the probability at the default mixture-mc setting, at the
    # benchmark's tail setting, and at a 4-component prior (with both
    # infinite thresholds), recorded with numpy 2.4.6.
    MIX4 = GaussianMixture([0.1, 0.2, 0.3, 0.4], [-1.0, 0.0, 0.5, 2.0], [0.5, 1.0, 2.0, 0.25])
    PINNED = [
        ("default", 1 / 16, 0.8, 0.5, "0x1.c2531efeecf04p-1"),
        ("default", 1 / 16, 3.5, 3.3, "0x1.297a055650640p-1"),
        ("four", 0.3, 1.2, 0.7, "0x1.bd98f5c0fa5eap-1"),
        ("four", 0.3, 1.2, float("inf"), "0x0.0p+0"),
        ("four", 0.3, 1.2, -float("inf"), "0x1.0000000000000p+0"),
    ]

    @pytest.mark.parametrize("prior, noise_var, y_obs, threshold, want", PINNED)
    def test_bits_are_pinned(self, prior, noise_var, y_obs, threshold, want):
        mix = self.MIX if prior == "default" else self.MIX4
        got = mixture_posterior_tail_prob(mix, noise_var, y_obs, threshold)
        assert type(got) is float and got.hex() == want

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            mixture_posterior_tail_prob(self.MIX, 0.0, 0.8, 0.5)

    def test_degenerate_observation_raises(self):
        # (y_obs - mu)^2 overflows for every component, so no log weight is
        # finite; the probability used to come out NaN.
        with pytest.raises(DegenerateError, match="no mixture component"):
            mixture_posterior_tail_prob(self.MIX, 1 / 16, 1e200, 0.5)
