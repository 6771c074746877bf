import concurrent.futures
import os
import subprocess
import sys
import warnings
from math import comb, exp, sqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from posterior_debias.bayes import (
    BoundedLikelihood,
    DiscreteBayesMap,
    WeightedSampleSet,
    _plugin_expectation,
    gaussian_likelihood,
    plugin_posterior_prob,
)
from posterior_debias.errors import DegenerateError
from posterior_debias.operators import MAX_ORDER, debias_weights, debiased_estimate_mean
from posterior_debias import resampling
from posterior_debias.resampling import (
    MCConfig,
    _drive,
    _index_blocks,
    _resample,
    _stages,
    build_chain,
    debiased_expectation,
    debiased_realization,
    _batch_rows,
    exhaustive_chain_expectation,
    outer_mc,
    outer_mc_batched,
)
from posterior_debias.simplex import ProbVector

from oracles import chain_realization_mean, plugin_expectation_whole, to_fractions


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
        assert debiased_realization(chain, functional, 1) == pytest.approx(
            functional(data), rel=1e-15
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_constant_functional(self, k):
        data = WeightedSampleSet(np.arange(5.0))
        chain = build_chain(data, k, seed=11)
        assert debiased_realization(chain, lambda ws: 0.625, k) == 0.625

    def test_manual_weighted_sum(self):
        data = WeightedSampleSet(np.array([0.0, 0.0, 1.0]))
        functional = atom_prob_functional([1.0, 2.0], 1)
        chain = build_chain(data, 3, seed=9)
        w = debias_weights(3)
        expected = sum(w[j] * functional(chain[j]) for j in range(3))
        assert debiased_realization(chain, functional, 3) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "k,expected", [(1, "0x1.1c37937e08000p+53"), (2, "0x1.1c37937e08000p+54"),
                       (3, "0x1.1c37937e07fffp+54")],
    )
    def test_adds_left_to_right(self, k, expected):
        # 3e16 - 3 rounds to 3e16 - 4 before -1e16 is added; any other order,
        # or a compensated sum, gives 2e16 - 2 or 2e16 - 3 instead.
        got = debiased_realization([1e16, 1.0, -1e16], float, k)
        assert type(got) is float and got.hex() == expected

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

    @pytest.mark.parametrize(
        "ell,s,prior,n,k,expected",
        [
            ([0.8, 1.6, 1.1], 2, [0.3, 0.45, 0.25], 4, 3, "0x1.cc4592981648cp-3"),
            ([1.0, exp(1.5)], 1, [0.6, 0.4], 6, 3, "0x1.8277a5c3afb8fp-1"),
        ],
    )
    def test_functional_evaluated_once_per_lattice_point(self, ell, s, prior, n, k, expected):
        functional = atom_prob_functional(ell, s)
        calls = []

        def counting(ws):
            calls.append(ws)
            return functional(ws)

        got = exhaustive_chain_expectation(counting, ProbVector(prior), n, k)
        assert got.hex() == expected  # recorded before the functional was memoized
        assert len(calls) <= comb(n + len(prior) - 1, len(prior) - 1)
        assert all(isinstance(ws, WeightedSampleSet) for ws in calls)

    def test_k1_builds_no_matrix(self, exact_builds):
        # k = 1 reads only the pmf of the prior, on the lattice the operator
        # mean then reuses; a matrix at n = 2000 would take 32 MB.
        ell, prior = [1.0, exp(1.5)], ProbVector([0.6, 0.4])
        enum = exhaustive_chain_expectation(atom_prob_functional(ell, 1), prior, 2000, 1)
        exact = debiased_estimate_mean(DiscreteBayesMap(ell).component(1), prior, 2000, 1)
        assert exact_builds == {"matrices": 0, "lattices": 1}
        assert enum == pytest.approx(exact, abs=1e-12)

    def test_corrupted_weights_break_identity(self, corrupt_k2_weights):
        ell = [1.0, exp(1.5)]
        prior = ProbVector([0.6, 0.4])
        functional = atom_prob_functional(ell, 1)
        g = DiscreteBayesMap(ell).component(1)
        exact = debiased_estimate_mean(g, prior, 3, 2)
        bad = exhaustive_chain_expectation(functional, prior, 3, 2)
        assert abs(bad - exact) > 1e-4


def leaf_by_leaf_reference(functional, prior, n, k):
    """exhaustive_chain_expectation as it combined every chain on its own
    with debiased_realization, one recursion level per stage."""
    prior = ProbVector(prior)
    lat = resampling._cached_lattice(n, prior.m)
    step = resampling._cached_matrix(n, prior.m).rows if k > 1 else None
    pts = np.arange(prior.m, dtype=float)
    values = {}

    def value(i):
        if i not in values:
            values[i] = functional(WeightedSampleSet(np.repeat(pts, lat.points[i])))
        return values[i]

    def recurse(prefix, prob):
        if prob == 0.0:
            return 0.0
        if len(prefix) == k:
            return prob * debiased_realization(prefix, value, k)
        total = 0.0
        for j, p in enumerate(step[prefix[-1]].tolist()):
            if p > 0.0:
                total += recurse(prefix + [j], prob * p)
        return total

    total = 0.0
    for i, p in enumerate(resampling.multinomial_pmf_vector(lat, prior).tolist()):
        if p > 0.0:
            total += recurse([i], p)
    return total


class TestExhaustiveLeafSums:
    """Leaves summed at their parent keep the bits of one
    debiased_realization per chain, and the functional's calls."""

    @staticmethod
    def table_functional(m, seed, calls):
        # Signed values with zeros of both signs, keyed on the counts, and
        # alternately a numpy and a Python float.
        rng = np.random.default_rng(seed)

        def functional(ws):
            counts = tuple(np.bincount(ws.points.astype(int), minlength=m).tolist())
            calls.append(counts)
            h = hash(counts) % 7
            if h == 0:
                return 0.0
            if h == 1:
                return -0.0
            v = float(np.random.default_rng([seed, *counts]).normal(scale=3.0))
            return np.float64(v) if h % 2 else v

        return functional

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "prior",
        [[0.25, 0.75], [0.6, 0.4], [0.2, 0.5, 0.3], [0.0, 0.45, 0.55], [0.1, 0.2, 0.3, 0.4],
         [0.5, 0.0, 0.25, 0.25]],
    )
    def test_bits_and_calls_equal_the_leaf_by_leaf_sum(self, prior, k):
        m = len(prior)
        n = {2: 6, 3: 3, 4: 2}[m]
        ref_calls, calls = [], []
        ref = leaf_by_leaf_reference(self.table_functional(m, 5, ref_calls), prior, n, k)
        got = exhaustive_chain_expectation(self.table_functional(m, 5, calls), ProbVector(prior), n, k)
        assert got.hex() == ref.hex()
        assert calls == ref_calls  # the same points, once each, in the same order
        assert len(set(calls)) == len(calls)

    def test_unreached_points_are_not_evaluated(self):
        # A prior with an empty atom: no chain reaches a point that puts
        # counts on it, so the functional never sees one.
        calls = []
        got = exhaustive_chain_expectation(self.table_functional(3, 9, calls), ProbVector([0.0, 0.5, 0.5]), 3, 3)
        assert calls and all(c[0] == 0 for c in calls)
        assert np.isfinite(got)


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

    # outer_mc runs its spans serially whatever the thread count; one case
    # pins that the setting leaves results alone.
    @pytest.mark.parametrize("threads", [16])
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
    def _draw(cls, b, n, rng):
        return rng.choice([0.0, 1.0], size=(b, n), p=[1 - cls.Q, cls.Q])

    @classmethod
    def _sampler(cls, out, rng):
        out[...] = cls._draw(*out.shape, rng)

    @classmethod
    def _functional(cls, x):
        lik = lookup_likelihood(cls.ELL)
        return _plugin_expectation(x, lik, lambda v: np.rint(v).astype(int) == 1)

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
            data = self._draw(b, n, rng)
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

    def test_later_stages_equal_take_along_axis(self):
        # Each later stage is take_along_axis of the stage before with the
        # chunk's next (b, n) integer draw, bit for bit; two chunks.
        n, k, seed = 7, 3, 5
        reps = _batch_rows(n) + 10
        seen = []

        def sampler(out, rng):
            rng.standard_normal(out=out)

        def functional(x):
            seen.append(x.copy())
            return np.zeros(x.shape[0])

        outer_mc_batched(sampler, functional, MCConfig(n=n, k=k, n_reps=reps, root_seed=seed))
        expected = []
        for c, lo in enumerate(range(0, reps, _batch_rows(n))):
            b = min(_batch_rows(n), reps - lo)
            rng = np.random.default_rng(np.random.SeedSequence([seed, 1, c]))
            stage = rng.standard_normal((b, n))
            expected.append(stage)
            for _ in range(k - 1):
                stage = np.take_along_axis(stage, rng.integers(0, n, size=(b, n)), axis=1)
                expected.append(stage)
        assert len(seen) == len(expected) == 2 * k
        for got, ref in zip(seen, expected):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

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

    def test_variance_halves_when_n_doubles(self):
        q = 0.4
        lik = lookup_likelihood([1.0, exp(1.5)])

        def sampler(out, rng):
            out[...] = rng.choice([0.0, 1.0], size=out.shape, p=[1 - q, q])

        def functional(x):
            return _plugin_expectation(x, lik, lambda v: np.rint(v).astype(int) == 1)

        results = {}
        for n in (64, 128, 256):
            cfg = MCConfig(n=n, k=1, n_reps=100_000, root_seed=13)
            results[n] = outer_mc_batched(sampler, functional, cfg).variance
        assert 1.4 < results[64] / results[128] < 2.6
        assert 1.4 < results[128] / results[256] < 2.6

    @pytest.mark.parametrize("threads,pool", [(5000, 3), (2, 2)])
    def test_pool_has_at_most_one_thread_per_cpu(self, monkeypatch, threads, pool):
        # 10^7 replicates at n = 64 make 2,442 chunks: a pool of one thread
        # per chunk would start 2,442 threads. The stub records the pool
        # size and runs the chunks inline, starting no thread.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # _drive imports the pool class from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(resampling.os, "cpu_count", lambda: 3)
        (res,) = _drive(lambda c, lo, hi: [(hi - lo, 1.5, 0.0)], 10**7, _batch_rows(64), threads)
        assert sizes == [pool]
        assert (res.n_reps, res.mean, res.variance) == (10**7, 1.5, 0.0)

    def test_package_import_loads_no_thread_pool(self):
        # concurrent.futures, and the logging and queue it loads, come in only
        # when a run asks for more than one worker.
        probe = (
            "import sys, posterior_debias; "
            "print(*[m for m in ('concurrent.futures', 'logging', 'queue') if m in sys.modules])"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_functional_writing_into_a_stage_raises(self, k):
        # Every stage, the sampler's own included, reaches the functional
        # read-only, so it cannot change the draws of a later stage.
        def functional(x):
            x += 1.0
            return np.zeros(x.shape[0])

        cfg = MCConfig(n=8, k=k, n_reps=10, root_seed=2)
        with pytest.raises(ValueError, match="read-only"):
            outer_mc_batched(self._sampler, functional, cfg)

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


B = 2**14  # block size of the stages and of the plug-in expectation


def build_chain_whole(data, k, seed):
    """The chain with one n-sized index draw and gather per stage: the
    whole-array loop build_chain ran before it drew its stages in blocks."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    stages, pts = [data], data.points
    for _ in range(k - 1):
        pts = pts[rng.integers(0, data.n, size=data.n)]
        stages.append(WeightedSampleSet(pts))
    return stages


class TestDebiasedExpectationBlocks:
    @pytest.fixture(scope="class", params=[1, 7, 16, B - 1, B, B + 1, B + 3, 3 * B + 5, 2**18])
    def data(self, request):
        rng = np.random.default_rng(np.random.SeedSequence([request.param, 2]))
        return WeightedSampleSet(rng.normal(0.5, 1.0, request.param))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_equals_whole_array_composition(self, data, k):
        lik = gaussian_likelihood(0.8, 1 / 16)
        h = lambda x: (x >= 0.5).astype(float)
        seed = 1000 + k
        expected = debiased_realization(
            build_chain_whole(data, k, seed),
            lambda s: plugin_expectation_whole(s, lik, h),
            k,
        )
        assert debiased_expectation(data, lik, h, k, seed) == expected

    def test_stages_equal_build_chain_draws(self, data):
        got = build_chain(data, 4, 77)
        assert got[0] is data
        for stage, want in zip(got, build_chain_whole(data, 4, 77), strict=True):
            assert np.array_equal(stage.points, want.points)

    @pytest.mark.parametrize("n", [7, 3 * B + 5])
    def test_callable_writing_into_a_stage_raises(self, n):
        # Stages are read-only, as a WeightedSampleSet's points are, so a
        # callable that writes into its input cannot change later draws.
        data = WeightedSampleSet(np.linspace(0.0, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)

        # Stage 1 is the data's own read-only array; write only into the
        # stages the chain draws.
        def h(x):
            if not np.shares_memory(x, data.points):
                x += 1.0
            return x

        def log_fn(x):
            if not np.shares_memory(x, data.points):
                x *= 2.0
            return -x * x

        with pytest.raises(ValueError, match="read-only"):
            debiased_expectation(data, lik, h, 3, seed=4)
        with pytest.raises(ValueError, match="read-only"):
            debiased_expectation(data, BoundedLikelihood(log_fn=log_fn), lambda x: x, 3, seed=4)

    def test_every_stage_is_read_only(self):
        # A data set's points are read-only; a writable first stage is a
        # caller's work buffer. Either way every stage is handed out read-only.
        points = WeightedSampleSet(np.linspace(0.0, 1.0, B + 1)).points.reshape(1, -1)
        for first in (points, points.copy()):
            for stage in _stages(first, 5, np.random.default_rng(8)):
                assert not stage.flags.writeable

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unit_function_is_exactly_one_over_blocks(self, k):
        rng = np.random.default_rng(np.random.SeedSequence([22]))
        data = WeightedSampleSet(rng.normal(0.5, 1.0, 3 * B + 5))
        lik = gaussian_likelihood(0.8, 1 / 16)
        assert debiased_expectation(data, lik, lambda x: np.ones(np.shape(x)), k, seed=6) == 1.0

    def test_blockwise_integers_equal_one_call(self):
        # The stages draw their indices B at a time; numpy's bounded-integer
        # path hands out 32-bit halves of 64-bit draws, so check that the
        # blocks take the stream of a single call and leave it where one
        # call leaves it.
        n = 3 * B + 5
        one = np.random.default_rng(np.random.SeedSequence([9]))
        blocks = np.random.default_rng(np.random.SeedSequence([9]))
        whole = one.integers(0, n, size=n)
        pieces = [blocks.integers(0, n, size=min(B, n - lo)) for lo in range(0, n, B)]
        assert np.array_equal(np.concatenate(pieces), whole)
        assert np.array_equal(blocks.integers(0, n, size=5), one.integers(0, n, size=5))

    def test_nan_in_last_block_of_a_stage_raises(self):
        pts = np.zeros(3 * B + 5)
        pts[-1] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.nan, 0.0))
        with pytest.raises(ValueError, match="NaN"):
            debiased_expectation(WeightedSampleSet(pts), lik, lambda x: x, 2, seed=0)

    def test_all_underflow_raises(self):
        neg_inf = BoundedLikelihood(log_fn=lambda x: np.full(np.shape(x), -np.inf))
        data = WeightedSampleSet(np.zeros(3 * B + 5))
        with pytest.raises(DegenerateError):
            debiased_expectation(data, neg_inf, lambda x: x, 2, seed=0)

    def test_bad_h_shape_raises(self):
        lik = gaussian_likelihood(0.8, 1 / 16)
        data = WeightedSampleSet(np.zeros(3 * B + 5))
        with pytest.raises(ValueError, match="one value per sample"):
            debiased_expectation(data, lik, lambda x: x[:1], 2, seed=0)

    @pytest.mark.parametrize("n", [7, 3 * B + 5])
    def test_unbounded_likelihood_raises(self, n):
        pts = np.zeros(n)
        pts[-1] = 9.0
        lik = BoundedLikelihood(log_fn=lambda x: np.where(x > 5, np.inf, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"likelihood returned \+inf; it must be bounded"):
                debiased_expectation(WeightedSampleSet(pts), lik, lambda x: x, 2, seed=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_likelihood_and_h_see_each_point_once_per_stage(self, k):
        # Each stage runs the likelihood over all its blocks, then h over
        # all of them: k runs of each, every run adding up to n points.
        n = 3 * B + 5
        calls = []

        def log_fn(x):
            calls.append(("log", x.size))
            return -x * x

        def h(x):
            calls.append(("h", x.size))
            return x

        data = WeightedSampleSet(np.linspace(-1.0, 1.0, n))
        debiased_expectation(data, BoundedLikelihood(log_fn=log_fn), h, k, seed=3)
        assert max(size for _, size in calls) <= B
        runs = []
        for name, size in calls:
            if runs and runs[-1][0] == name:
                runs[-1][1] += size
            else:
                runs.append([name, size])
        assert runs == [["log", n], ["h", n]] * k

    @pytest.mark.parametrize("n", [B - 1, B + 1, 3 * B + 5, 2**18])
    def test_log_fn_without_out_gives_the_builtin_bits(self, n):
        rng = np.random.default_rng(np.random.SeedSequence([n, 5]))
        data = WeightedSampleSet(rng.normal(0.5, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)
        wrapped = BoundedLikelihood(log_fn=lambda x: lik.log_fn(x))
        h = lambda x: (x >= 0.5).astype(float)
        for k in (1, 2, 3, 4):
            want = debiased_expectation(data, lik, h, k, seed=k)
            assert debiased_expectation(data, wrapped, h, k, seed=k) == want

    @pytest.mark.parametrize(
        "k,seed", [(0, 1), (MAX_ORDER + 1, 1), (2, -1), (2, 2**64), (2, 1.5), (2, True)]
    )
    def test_bad_order_or_seed_raises_before_any_work(self, k, seed):
        calls = []

        def log_fn(x):
            calls.append(x.size)
            return -x * x

        data = WeightedSampleSet(np.zeros(B + 1))
        with pytest.raises(ValueError):
            debiased_expectation(data, BoundedLikelihood(log_fn=log_fn), lambda x: x, k, seed)
        with pytest.raises(ValueError):
            build_chain(data, k, seed)
        assert calls == []


# Fewest indices drawn from raw PCG64 words, for any n and for a power of two.
RAW_MIN, RAW_MIN_POW2 = resampling._RAW_MIN, resampling._RAW_MIN_POW2
# Lemire rejects a 32-bit half u when (u * n) mod 2^32 < (2^32 - n) mod n:
# never for a power of two, about once in four halves at 3 * 2^30 and once in
# two at 2^31 + 1.
N_VALUES = [2, 3, 12, 48, 10**4, 2**18 - 1, 2**18, 2**31 + 1, 3 * 2**30, 2**32 - 1]
SIZES = [1, 2, 7, RAW_MIN_POW2 - 1, RAW_MIN_POW2, RAW_MIN - 1, RAW_MIN, RAW_MIN + 1, B + 1]


def seeded(seed, prior):
    """A chain generator after ``prior`` odd-size draws: one leaves the
    high half of a word pending in the state, two leave none pending."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    for _ in range(prior):
        rng.integers(0, 5, size=3)
    return rng


def assert_same_generator(got, want, n):
    np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.integers(0, n, size=5), want.integers(0, n, size=5))
    assert got.random() == want.random()


class TestIndexBlocks:
    def test_chains_use_pcg64(self):
        # The raw-word path applies to PCG64 only; every chain generator is
        # default_rng(SeedSequence(...)).
        rng = np.random.default_rng(np.random.SeedSequence([1]))
        assert type(rng.bit_generator) is np.random.PCG64

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from(N_VALUES),
        sizes=st.lists(st.sampled_from(SIZES), min_size=1, max_size=3),
        prior=st.integers(0, 2),
        raw_min=st.sampled_from([(0, 0), (RAW_MIN, RAW_MIN_POW2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_equal_one_integers_call(self, n, sizes, prior, raw_min, seed):
        # raw_min (0, 0) sends every call, however small, through the raw words.
        want_rng = seeded(seed, prior)
        want = want_rng.integers(0, n, size=sum(sizes))
        rng = seeded(seed, prior)
        with (
            mock.patch.object(resampling, "_RAW_MIN", raw_min[0]),
            mock.patch.object(resampling, "_RAW_MIN_POW2", raw_min[1]),
        ):
            got = [block.copy() for block in _index_blocks(rng, n, sizes)]
        assert [block.size for block in got] == sizes
        assert all(block.dtype == np.int64 for block in got)
        assert np.array_equal(np.concatenate(got), want)
        assert_same_generator(rng, want_rng, n)

    @pytest.mark.parametrize(
        "n, bit_generator",
        [(1, np.random.PCG64), (2**32 + 1, np.random.PCG64), (10**4, np.random.MT19937)],
    )
    def test_other_cases_are_left_to_integers(self, n, bit_generator):
        # n = 1 draws nothing; n > 2^32 and other generators draw otherwise.
        rng, want_rng = np.random.Generator(bit_generator(3)), np.random.Generator(bit_generator(3))
        got = np.concatenate([b.copy() for b in _index_blocks(rng, n, [B, 5])])
        assert np.array_equal(got, want_rng.integers(0, n, size=B + 5))
        assert_same_generator(rng, want_rng, n)

    @pytest.mark.parametrize(
        "b, n",
        [(1, 10_001), (1, 3 * B + 5), (2, B + 3), (3, 7), (26, 10**4), (4096, 16), (5, 999), (7, 999)],
    )
    @pytest.mark.parametrize("prior", [0, 1])
    def test_resample_leaves_the_state_of_one_integers_call(self, b, n, prior):
        prev = np.random.default_rng(b).standard_normal((b, n))
        stage = np.empty_like(prev)
        rng, want_rng = seeded(n, prior), seeded(n, prior)
        _resample(prev, stage, rng)
        want = np.take_along_axis(prev, want_rng.integers(0, n, size=(b, n)), axis=1)
        assert np.array_equal(stage, want)
        assert_same_generator(rng, want_rng, n)

    @pytest.mark.parametrize(
        "n, size, raw",
        [(2**18, RAW_MIN_POW2, True), (2**18, RAW_MIN_POW2 - 1, False), (16, RAW_MIN_POW2, True),
         (2**18 - 1, RAW_MIN - 1, False), (2**18 - 1, RAW_MIN, True), (12, RAW_MIN_POW2, False)],
    )
    def test_crossover_depends_on_a_power_of_two_n(self, monkeypatch, n, size, raw):
        # A power of two reads raw words from _RAW_MIN_POW2 indices on, any
        # other n from _RAW_MIN; either way the values are one integers call's.
        fills = []
        fill = resampling._lemire_fill
        monkeypatch.setattr(resampling, "_lemire_fill", lambda *a: fills.append(1) or fill(*a))
        rng, want_rng = seeded(n, 1), seeded(n, 1)
        got = np.concatenate([b.copy() for b in _index_blocks(rng, n, [size - 5, 5])])
        assert np.array_equal(got, want_rng.integers(0, n, size=size))
        assert_same_generator(rng, want_rng, n)
        assert bool(fills) is raw

    def test_odd_n_above_the_crossover_matches_manual_draws(self):
        # n = 10,001 is odd and past RAW_MIN, so each stage rejects some
        # halves and leaves one pending for the next.
        n, k, seed = 10_001, 4, 12
        data = WeightedSampleSet(np.random.default_rng(3).normal(0.5, 1.0, n))
        want = build_chain_whole(data, k, seed)
        for stage, ref in zip(build_chain(data, k, seed), want, strict=True):
            assert np.array_equal(stage.points, ref.points)
        lik = gaussian_likelihood(0.8, 1 / 16)
        h = lambda x: (x >= 0.5).astype(float)
        expected = debiased_realization(want, lambda s: plugin_expectation_whole(s, lik, h), k)
        assert debiased_expectation(data, lik, h, k, seed) == expected
