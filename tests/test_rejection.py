import numpy as np
import pytest
from scipy import stats

from posterior_debias.errors import IterationCapError, SupportError
from posterior_debias.rejection import (
    make_rejection_spec,
    rejection_sample_batch,
)
from posterior_debias.simplex import ProbVector, SignedProbVector


class TestMakeSpec:
    def test_target_equals_proposal(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.5, 0.5]))
        assert spec.bound == pytest.approx(1.0, rel=1e-15)
        assert 1.0 / spec.bound == pytest.approx(1.0, rel=1e-15)
        assert spec.clamped_mass == 0.0

    def test_direct_ratio(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.6, 0.4]))
        assert spec.bound == pytest.approx(1.2, rel=1e-14)
        assert np.allclose(spec.target, [0.6, 0.4])

    def test_clamp_and_renormalize(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([1.1, -0.1]))
        assert np.allclose(spec.target, [1.0, 0.0])
        assert spec.clamped_mass == pytest.approx(0.1, rel=1e-12)
        assert spec.bound == pytest.approx(2.0, rel=1e-12)

    def test_support_error(self):
        with pytest.raises(SupportError):
            make_rejection_spec(ProbVector([1.0, 0.0]), SignedProbVector([0.5, 0.5]))

    def test_zero_zero_ratio_ignored(self):
        spec = make_rejection_spec(ProbVector([1.0, 0.0]), SignedProbVector([1.0, 0.0]))
        assert spec.bound == pytest.approx(1.0, rel=1e-15)
        assert spec.ratio[1] == 0.0

    def test_accepts_raw_arrays(self):
        spec = make_rejection_spec(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert spec.bound == pytest.approx(2.0, rel=1e-14)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.4, 0.3, 0.3]))


class TestSampling:
    def test_identical_target_accepts_first_draw(self):
        spec = make_rejection_spec(ProbVector([0.3, 0.7]), SignedProbVector([0.3, 0.7]))
        idx, attempts = rejection_sample_batch(spec, 1000, seed=8)
        assert attempts == 1000

    def test_point_mass_target(self):
        spec = make_rejection_spec(
            ProbVector([0.25, 0.25, 0.25, 0.25]), SignedProbVector([0.0, 0.0, 1.0, 0.0])
        )
        idx, _ = rejection_sample_batch(spec, 500, seed=3)
        assert np.all(idx == 2)

    def test_binomial_three_sigma(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.7, 0.3]))
        size = 100_000
        idx, _ = rejection_sample_batch(spec, size, seed=12)
        ones = int((idx == 0).sum())
        sigma = np.sqrt(size * 0.7 * 0.3)
        assert abs(ones - 0.7 * size) < 3 * sigma

    def test_deterministic_given_seed(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.8, 0.2]))
        a, na = rejection_sample_batch(spec, 200, seed=5)
        b, nb = rejection_sample_batch(spec, 200, seed=5)
        c, _ = rejection_sample_batch(spec, 200, seed=6)
        assert np.array_equal(a, b) and na == nb
        assert not np.array_equal(a, c)

    def test_iteration_cap(self):
        # acceptance probability 1e-4; 50 attempts will practically never hit it
        eps = 1e-4
        spec = make_rejection_spec(
            ProbVector([1 - eps, eps]), SignedProbVector([0.0, 1.0])
        )
        with pytest.raises(IterationCapError):
            rejection_sample_batch(spec, 1, seed=4, attempt_cap=50)

    def test_default_cap_scales_with_request(self):
        # More accepts than a fixed budget of 10^6 proposals could give.
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.5, 0.5]))
        idx, attempts = rejection_sample_batch(spec, 1_000_001, seed=0)
        assert idx.size == attempts == 1_000_001

    def test_size_validation(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), SignedProbVector([0.5, 0.5]))
        with pytest.raises(ValueError):
            rejection_sample_batch(spec, 0, seed=1)

    def test_chi_square_fit_twenty_random_specs(self):
        root = np.random.SeedSequence([2024])
        size = 100_000
        for trial, child in enumerate(root.spawn(20)):
            rng = np.random.default_rng(child)
            m = int(rng.integers(2, 9))
            proposal = rng.dirichlet(np.ones(m)) * 0.8 + 0.2 / m
            proposal /= proposal.sum()
            signed = rng.dirichlet(np.ones(m)) * 1.2
            signed[rng.integers(0, m)] -= 0.2 * signed.sum()
            signed /= signed.sum()
            spec = make_rejection_spec(proposal, signed)
            # keep expected counts comfortably above the chi-square guideline
            if spec.target.min() * size < 50:
                keep = np.maximum(spec.target, 50 / size)
                spec = make_rejection_spec(proposal, keep / keep.sum())
            cap = int(50 * size * max(spec.bound, 1.0))
            idx, attempts = rejection_sample_batch(spec, size, seed=1000 + trial, attempt_cap=cap)
            observed = np.bincount(idx, minlength=m)
            _, p = stats.chisquare(observed, size * spec.target)
            assert p > 0.001, f"trial {trial}: p={p}"
            mean_draws = attempts / size
            assert 0.9 * spec.bound <= mean_draws <= 1.1 * spec.bound

    def test_attempt_accounting_unbiased(self):
        # mean attempts per acceptance converges to the ratio bound
        spec = make_rejection_spec(ProbVector([0.8, 0.2]), SignedProbVector([0.3, 0.7]))
        size = 50_000
        _, attempts = rejection_sample_batch(spec, size, seed=9)
        assert attempts / size == pytest.approx(spec.bound, rel=0.05)
