from math import exp, sqrt

import numpy as np
import pytest

from posterior_debias.bayes import (
    BoundedLikelihood,
    DiscreteBayesMap,
    WeightedSampleSet,
    gaussian_likelihood,
    plugin_posterior_prob,
    plugin_posterior_rows,
)
from posterior_debias.operators import debias_weights, debiased_estimate_mean
from posterior_debias.resampling import (
    MCConfig,
    build_chain,
    debiased_expectation,
    debiased_realization,
    _batch_rows,
    exhaustive_chain_expectation,
    outer_mc,
    outer_mc_batched,
)
from posterior_debias.simplex import ProbVector

from oracles import chain_realization_mean, to_fractions


def lookup_likelihood(values):
    table = np.log(np.asarray(values, dtype=float))

    def log_fn(x):
        return table[np.rint(np.asarray(x)).astype(int)]

    return BoundedLikelihood(log_fn=log_fn)


def atom_prob_functional(values, s):
    lik = lookup_likelihood(values)

    def functional(ws):
        return plugin_posterior_prob(ws, lik, lambda x: np.rint(x).astype(int) == s)

    return functional


class TestBuildChain:
    def test_k1_is_data_verbatim(self):
        data = WeightedSampleSet(np.array([0.0, 1.0, 1.0]))
        chain = build_chain(data, 1, seed=42)
        assert len(chain) == 1
        assert np.array_equal(chain[0].points, data.points)

    def test_stage_shape_and_containment(self):
        rng = np.random.default_rng(np.random.SeedSequence([3]))
        data = WeightedSampleSet(rng.normal(size=5))
        chain = build_chain(data, 3, seed=7)
        assert len(chain) == 3
        for later, earlier in zip(chain[1:], chain[:-1]):
            assert later.points.shape == (5,)
            assert set(later.points).issubset(set(earlier.points))

    def test_degenerate_data(self):
        data = WeightedSampleSet(np.full(4, 2.5))
        chain = build_chain(data, 3, seed=0)
        for stage in chain:
            assert np.array_equal(stage.points, data.points)

    def test_reproducible(self):
        data = WeightedSampleSet(np.arange(6.0))
        a = build_chain(data, 3, seed=123)
        b = build_chain(data, 3, seed=123)
        c = build_chain(data, 3, seed=124)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.points, s2.points)
        assert any(
            not np.array_equal(s1.points, s3.points)
            for s1, s3 in zip(a, c)
        )


class TestDebiasedRealization:
    def test_k1_plugin_value(self):
        data = WeightedSampleSet(np.array([0.0, 1.0, 1.0, 0.0]))
        functional = atom_prob_functional([1.0, 3.0], 1)
        chain = build_chain(data, 1, seed=5)
        assert debiased_realization(chain, functional) == pytest.approx(
            functional(data), rel=1e-15
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_functional(self, k):
        data = WeightedSampleSet(np.arange(5.0))
        chain = build_chain(data, k, seed=11)
        assert debiased_realization(chain, lambda ws: 0.625) == 0.625

    def test_manual_weighted_sum(self):
        data = WeightedSampleSet(np.array([0.0, 0.0, 1.0]))
        functional = atom_prob_functional([1.0, 2.0], 1)
        chain = build_chain(data, 3, seed=9)
        w = debias_weights(3)
        expected = sum(w[j] * functional(chain[j]) for j in range(3))
        assert debiased_realization(chain, functional) == pytest.approx(expected, rel=1e-14)

    def test_requires_enough_stages(self):
        data = WeightedSampleSet(np.arange(4.0))
        chain = build_chain(data, 2, seed=1)
        with pytest.raises(ValueError):
            debiased_realization(chain, lambda ws: 1.0, k=3)


class TestExhaustiveChainExpectation:
    """Three-way agreement: chain enumeration through the production code
    path, an independent recursive oracle, and the exact operator mean."""

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (2, 3), (4, 2)])
    def test_binary_three_way(self, n, k):
        ell = [1.0, exp(1.5)]
        prior = ProbVector([0.6, 0.4])
        functional = atom_prob_functional(ell, 1)
        enum = exhaustive_chain_expectation(functional, prior, n, k)

        g = DiscreteBayesMap(ell).component(1)
        exact = debiased_estimate_mean(g, prior, n, k)

        values = {}
        for t in range(n + 1):
            counts = (n - t, t)
            ws = WeightedSampleSet(np.repeat([0.0, 1.0], counts))
            values[counts] = functional(ws)
        oracle = chain_realization_mean(
            values, to_fractions([0.6, 0.4]), n, k, debias_weights(k)
        )

        assert enum == pytest.approx(oracle, abs=1e-12)
        assert enum == pytest.approx(exact, abs=1e-11)

    def test_ternary_matches_operator_mean(self):
        ell = [0.8, 1.6, 1.1]
        prior = ProbVector([0.3, 0.45, 0.25])
        functional = atom_prob_functional(ell, 2)
        g = DiscreteBayesMap(ell).component(2)
        enum = exhaustive_chain_expectation(functional, prior, 3, 2)
        exact = debiased_estimate_mean(g, prior, 3, 2)
        assert enum == pytest.approx(exact, abs=1e-11)

    def test_corrupted_weights_break_identity(self, corrupt_k2_weights):
        ell = [1.0, exp(1.5)]
        prior = ProbVector([0.6, 0.4])
        functional = atom_prob_functional(ell, 1)
        g = DiscreteBayesMap(ell).component(1)
        exact = debiased_estimate_mean(g, prior, 3, 2)
        bad = exhaustive_chain_expectation(functional, prior, 3, 2)
        assert abs(bad - exact) > 1e-4


class TestOuterMC:
    @staticmethod
    def _binary_sampler(q):
        def sampler(n, rng):
            return WeightedSampleSet(rng.choice([0.0, 1.0], size=n, p=[1 - q, q]))

        return sampler

    def test_constant_functional(self):
        cfg = MCConfig(n=4, k=2, n_reps=50, root_seed=1)
        res = outer_mc(self._binary_sampler(0.4), lambda ws: 3.25, cfg)
        assert res.mean == 3.25
        assert res.variance == 0.0
        assert res.std_error == 0.0

    def test_matches_manual_k1_reduction(self):
        # replicate values recomputed in-test from the published seeding rule
        q, n, reps, seed = 0.35, 6, 100, 99
        functional = atom_prob_functional([1.0, 2.0], 1)
        sampler = self._binary_sampler(q)
        cfg = MCConfig(n=n, k=1, n_reps=reps, root_seed=seed)
        res = outer_mc(sampler, functional, cfg)
        vals = []
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
            vals.append(functional(sampler(n, rng)))
        vals = np.array(vals)
        assert res.mean == pytest.approx(vals.mean(), rel=1e-13)
        assert res.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
        assert res.std_error == pytest.approx(sqrt(res.variance / reps), rel=1e-15)

    def test_matches_manual_k2_reduction(self):
        # replicate values recomputed in-test from the published seeding rule:
        # the data stream also draws the chain seed, which keys the resample
        q, n, reps, seed = 0.35, 6, 100, 99
        functional = atom_prob_functional([1.0, 2.0], 1)
        sampler = self._binary_sampler(q)
        cfg = MCConfig(n=n, k=2, n_reps=reps, root_seed=seed)
        res = outer_mc(sampler, functional, cfg)
        vals = []
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
            data = sampler(n, rng)
            chain_seed = int(rng.integers(0, 2**63))
            chain_rng = np.random.default_rng(np.random.SeedSequence([chain_seed]))
            resample = WeightedSampleSet(data.points[chain_rng.integers(0, n, size=n)])
            vals.append(2.0 * functional(data) - 1.0 * functional(resample))
        vals = np.array(vals)
        assert res.mean == pytest.approx(vals.mean(), rel=1e-13)
        assert res.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
        assert res.std_error == pytest.approx(sqrt(res.variance / reps), rel=1e-15)

    def test_mean_approaches_operator_value(self):
        # k=1 plug-in mean equals the one-step operator applied to g
        q, n = 0.4, 8
        ell = [1.0, exp(1.5)]
        functional = atom_prob_functional(ell, 1)
        g = DiscreteBayesMap(ell).component(1)
        exact = debiased_estimate_mean(g, ProbVector([1 - q, q]), n, 1)
        cfg = MCConfig(n=n, k=1, n_reps=40_000, root_seed=7)
        res = outer_mc(self._binary_sampler(q), functional, cfg)
        assert abs(res.mean - exact) < 4 * res.std_error

    @pytest.mark.parametrize("threads", [1, 3, 4, 16])
    def test_thread_count_invariance(self, threads):
        functional = atom_prob_functional([1.0, 2.0], 1)
        base = MCConfig(n=5, k=2, n_reps=9000, root_seed=31)
        ref = outer_mc(self._binary_sampler(0.3), functional, base)
        cfg = MCConfig(n=5, k=2, n_reps=9000, root_seed=31, threads=threads)
        got = outer_mc(self._binary_sampler(0.3), functional, cfg)
        assert got.mean == ref.mean
        assert got.variance == ref.variance
        assert got.std_error == ref.std_error

    def test_single_partial_chunk(self):
        functional = atom_prob_functional([1.0, 2.0], 1)
        cfg = MCConfig(n=4, k=1, n_reps=37, root_seed=2, threads=4)
        ref = MCConfig(n=4, k=1, n_reps=37, root_seed=2)
        a = outer_mc(self._binary_sampler(0.5), functional, cfg)
        b = outer_mc(self._binary_sampler(0.5), functional, ref)
        assert a.mean == b.mean and a.variance == b.variance

    def test_nan_functional_aborts(self):
        cfg = MCConfig(n=3, k=1, n_reps=10, root_seed=0)
        with pytest.raises(FloatingPointError):
            outer_mc(self._binary_sampler(0.5), lambda ws: float("nan"), cfg)

    def test_variance_halves_when_n_doubles(self):
        ell = [1.0, exp(1.5)]
        functional = atom_prob_functional(ell, 1)
        results = {}
        for n in (64, 128, 256):
            cfg = MCConfig(n=n, k=1, n_reps=100_000, root_seed=13)
            results[n] = outer_mc(self._binary_sampler(0.4), functional, cfg).variance
        assert 1.4 < results[64] / results[128] < 2.6
        assert 1.4 < results[128] / results[256] < 2.6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(n=0, k=1, n_reps=1, root_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=0, n_reps=1, root_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=21, n_reps=1, root_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=1, n_reps=0, root_seed=0)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=1, n_reps=1, root_seed=-1)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=1, n_reps=1, root_seed=2**64)
        with pytest.raises(ValueError):
            MCConfig(n=1, k=1, n_reps=1, root_seed=0, threads=0)


class TestOuterMCBatched:
    Q = 0.35
    ELL = [1.0, 2.0]

    @classmethod
    def _sampler(cls, b, n, rng):
        return rng.choice([0.0, 1.0], size=(b, n), p=[1 - cls.Q, cls.Q])

    @classmethod
    def _functional(cls, x):
        lik = lookup_likelihood(cls.ELL)
        return plugin_posterior_rows(x, lik, lambda v: np.rint(v).astype(int) == 1)

    def test_chunk_rows_depend_on_n_only(self):
        assert _batch_rows(1) == 4096
        assert _batch_rows(64) == 4096
        assert _batch_rows(65) == 4032
        assert _batch_rows(10**4) == 26
        assert _batch_rows(2**18) == 1
        assert _batch_rows(10**6) == 1

    def test_matches_manual_chunk_reduction(self):
        # replicate values recomputed in-test from the published layout:
        # chunk c of _batch_rows(n) replicates draws from
        # SeedSequence([root, 1, c]), first the data, then the resample
        # indices; weights [2, -1]. Two full chunks and one partial chunk.
        n, seed = 10**4, 99
        rows = _batch_rows(n)
        reps = 2 * rows + 5
        functional = atom_prob_functional(self.ELL, 1)
        cfg = MCConfig(n=n, k=2, n_reps=reps, root_seed=seed)
        res = outer_mc_batched(self._sampler, self._functional, cfg)
        vals = []
        for c, lo in enumerate(range(0, reps, rows)):
            b = min(rows, reps - lo)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1, c]))
            data = self._sampler(b, n, rng)
            idx = rng.integers(0, n, size=(b, n))
            for i in range(b):
                first = functional(WeightedSampleSet(data[i]))
                second = functional(WeightedSampleSet(data[i][idx[i]]))
                vals.append(2.0 * first - 1.0 * second)
        vals = np.array(vals)
        assert res.n_reps == reps == vals.size
        assert res.mean == pytest.approx(vals.mean(), rel=1e-13)
        assert res.variance == pytest.approx(vals.var(ddof=1), rel=1e-12)
        assert res.std_error == pytest.approx(sqrt(res.variance / reps), rel=1e-15)

    @pytest.mark.parametrize("threads", [1, 3, 4, 16])
    def test_thread_count_invariance(self, threads):
        # three chunks of 4096, 4096 and 808 replicates
        base = MCConfig(n=5, k=2, n_reps=9000, root_seed=31)
        ref = outer_mc_batched(self._sampler, self._functional, base)
        cfg = MCConfig(n=5, k=2, n_reps=9000, root_seed=31, threads=threads)
        got = outer_mc_batched(self._sampler, self._functional, cfg)
        assert (got.mean, got.variance, got.std_error, got.n_reps) == (
            ref.mean, ref.variance, ref.std_error, ref.n_reps
        )

    def test_constant_functional(self):
        cfg = MCConfig(n=4, k=3, n_reps=50, root_seed=1)
        res = outer_mc_batched(self._sampler, lambda x: np.full(x.shape[0], 3.25), cfg)
        assert res.mean == 3.25
        assert res.variance == 0.0

    def test_nan_functional_aborts(self):
        # two chunks on two threads: the worker's error reaches the caller
        cfg = MCConfig(n=3, k=1, n_reps=5000, root_seed=0, threads=2)
        with pytest.raises(FloatingPointError):
            outer_mc_batched(self._sampler, lambda x: np.full(x.shape[0], np.nan), cfg)


class TestDebiasedExpectation:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_unit_function_is_exactly_one(self, k):
        rng = np.random.default_rng(np.random.SeedSequence([21]))
        data = WeightedSampleSet(rng.normal(0.5, 1.0, 12))
        lik = gaussian_likelihood(0.8, 1 / 16)
        got = debiased_expectation(data, lik, lambda x: np.ones(np.shape(x)), k, seed=4)
        assert got == 1.0

    def test_k1_equals_plugin(self):
        data = WeightedSampleSet(np.array([0.1, 0.9, 1.2]))
        lik = gaussian_likelihood(0.8, 1 / 16)
        from posterior_debias.bayes import plugin_expectation

        got = debiased_expectation(data, lik, lambda x: x, 1, seed=0)
        assert got == pytest.approx(plugin_expectation(data, lik, lambda x: x), rel=1e-15)
