import numpy as np
import pytest
from scipy import stats

from posterior_debias.errors import CapExceededError, IterationCapError, SupportError
from posterior_debias.rejection import (
    PROPOSAL_CAP,
    RejectionSpec,
    make_rejection_spec,
    rejection_sample_batch,
)
from posterior_debias.simplex import ProbVector


class TestMakeSpec:
    def test_target_equals_proposal(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.5, 0.5])
        assert spec.bound == pytest.approx(1.0, rel=1e-15)
        assert 1.0 / spec.bound == pytest.approx(1.0, rel=1e-15)
        assert spec.clamped_mass == 0.0

    def test_direct_ratio(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.6, 0.4])
        assert spec.bound == pytest.approx(1.2, rel=1e-14)
        assert np.allclose(spec.target, [0.6, 0.4])

    def test_clamp_and_renormalize(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [1.1, -0.1])
        assert np.allclose(spec.target, [1.0, 0.0])
        assert spec.clamped_mass == pytest.approx(0.1, rel=1e-12)
        assert spec.bound == pytest.approx(2.0, rel=1e-12)

    def test_support_error(self):
        with pytest.raises(SupportError):
            make_rejection_spec(ProbVector([1.0, 0.0]), [0.5, 0.5])

    def test_zero_zero_ratio_ignored(self):
        spec = make_rejection_spec(ProbVector([1.0, 0.0]), [1.0, 0.0])
        assert spec.bound == pytest.approx(1.0, rel=1e-15)
        assert spec.ratio[1] == 0.0

    def test_accepts_raw_arrays(self):
        spec = make_rejection_spec(np.array([0.25, 0.75]), np.array([0.5, 0.5]))
        assert spec.bound == pytest.approx(2.0, rel=1e-14)

    def test_target_entries_must_sum_to_one(self):
        with pytest.raises(ValueError, match="signed entries sum to"):
            make_rejection_spec([0.5, 0.5], [0.7, 0.2])
        make_rejection_spec([0.5, 0.5], [0.7, 0.3 + 5e-11])  # within 1e-10

    @pytest.mark.parametrize("target", [[1.5, np.nan], [np.inf, 0.0], [], [[0.5, 0.5]]])
    def test_target_keeps_the_vector_rule(self, target):
        with pytest.raises(ValueError, match="target"):
            make_rejection_spec([0.5, 0.5], target)

    def test_arrays_are_read_only_copies(self):
        proposal, target = np.array([0.5, 0.5]), np.array([0.6, 0.4])
        spec = make_rejection_spec(proposal, target)
        for kept in (spec.proposal, spec.target, spec.ratio):
            assert not kept.flags.writeable
            assert not np.shares_memory(kept, proposal) and not np.shares_memory(kept, target)
        assert proposal.flags.writeable and target.flags.writeable

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            make_rejection_spec(ProbVector([0.5, 0.5]), [0.4, 0.3, 0.3])


class TestSampling:
    def test_identical_target_accepts_first_draw(self):
        spec = make_rejection_spec(ProbVector([0.3, 0.7]), [0.3, 0.7])
        idx, attempts = rejection_sample_batch(spec, 1000, seed=8)
        assert attempts == 1000

    def test_point_mass_target(self):
        spec = make_rejection_spec(
            ProbVector([0.25, 0.25, 0.25, 0.25]), [0.0, 0.0, 1.0, 0.0]
        )
        idx, _ = rejection_sample_batch(spec, 500, seed=3)
        assert np.all(idx == 2)

    def test_binomial_three_sigma(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.7, 0.3])
        size = 100_000
        idx, _ = rejection_sample_batch(spec, size, seed=12)
        ones = int((idx == 0).sum())
        sigma = np.sqrt(size * 0.7 * 0.3)
        assert abs(ones - 0.7 * size) < 3 * sigma

    def test_deterministic_given_seed(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.8, 0.2])
        a, na = rejection_sample_batch(spec, 200, seed=5)
        b, nb = rejection_sample_batch(spec, 200, seed=5)
        c, _ = rejection_sample_batch(spec, 200, seed=6)
        assert np.array_equal(a, b) and na == nb
        assert not np.array_equal(a, c)

    def test_iteration_cap(self):
        # acceptance probability 1e-4; 50 attempts will practically never hit it
        eps = 1e-4
        spec = make_rejection_spec(
            ProbVector([1 - eps, eps]), [0.0, 1.0]
        )
        with pytest.raises(IterationCapError):
            rejection_sample_batch(spec, 1, seed=4, attempt_cap=50)

    def test_default_cap_scales_with_request(self):
        # More accepts than a fixed budget of 10^6 proposals could give.
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.5, 0.5])
        idx, attempts = rejection_sample_batch(spec, 1_000_001, seed=0)
        assert idx.size == attempts == 1_000_001

    def test_size_validation(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.5, 0.5])
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
        spec = make_rejection_spec(ProbVector([0.8, 0.2]), [0.3, 0.7])
        size = 50_000
        _, attempts = rejection_sample_batch(spec, size, seed=9)
        assert attempts / size == pytest.approx(spec.bound, rel=0.05)


def choice_loop_reference(spec, size, seed, attempt_cap=None):
    """The sampler as it drew its labels with rng.choice, one call per
    block: the stream the labels counted against cut points must equal.
    Also returns the number of blocks drawn."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if attempt_cap is None:
        attempt_cap = int(10 * spec.bound * size)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m = spec.proposal.size
    out = np.empty(size, dtype=np.int64)
    filled = attempts = blocks = 0
    while filled < size:
        want = size - filled
        block = min(max(128, int(2 * want * spec.bound)), max(1, attempt_cap - attempts))
        blocks += 1
        draws = rng.choice(m, size=block, p=spec.proposal)
        u = rng.uniform(0.0, spec.bound, size=block)
        hits = np.flatnonzero(u < spec.ratio[draws])
        if hits.size >= want:
            out[filled:] = draws[hits[:want]]
            attempts += int(hits[want - 1]) + 1
            break
        out[filled : filled + hits.size] = draws[hits]
        filled += hits.size
        attempts += block
        if attempts >= attempt_cap:
            raise IterationCapError(
                f"{attempts} proposal draws produced only {filled}/{size} accepts"
            )
    return out, attempts, blocks


def seeded_specs(count, seed):
    for child in np.random.SeedSequence([seed]).spawn(count):
        rng = np.random.default_rng(child)
        m = int(rng.integers(2, 9))
        proposal = 0.5 * rng.dirichlet(np.ones(m)) + 0.5 / m  # ratio bound <= 2m
        proposal /= proposal.sum()
        signed = rng.dirichlet(np.ones(m)) * 1.2
        signed[rng.integers(0, m)] -= 0.2 * signed.sum()  # something to clamp
        yield make_rejection_spec(proposal, signed / signed.sum())


class TestPiecewiseBlocks:
    """A block is walked in pieces of at most 2^16 proposals; the stream,
    the draws and the attempts stay those of the choice loop."""

    def test_block_of_many_pieces(self):
        # At bound 3, 3e5 draws make one block of 1.8e6 proposals (28
        # pieces), of which about 9e5 are walked before it fills.
        spec = make_rejection_spec(
            ProbVector([0.5, 0.25, 0.25]), [0.125, 0.125, 0.75]
        )
        assert spec.bound == 3.0
        ref, ref_attempts, blocks = choice_loop_reference(spec, 300_000, 19)
        got, attempts = rejection_sample_batch(spec, 300_000, seed=19)
        assert np.array_equal(got, ref) and attempts == ref_attempts
        assert blocks == 1 and attempts > 10 * 2**16

    def test_capped_blocks_of_many_pieces(self):
        spec = make_rejection_spec(ProbVector([0.5, 0.5]), [0.9, 0.1])
        for seed, cap in [(2, 150_000), (3, 250_001)]:
            with pytest.raises(IterationCapError) as ref:
                choice_loop_reference(spec, 200_000, seed, attempt_cap=cap)
            with pytest.raises(IterationCapError) as got:
                rejection_sample_batch(spec, 200_000, seed=seed, attempt_cap=cap)
            assert str(got.value) == str(ref.value)


class TestSamePinnedStream:
    """The labels are counted against rng.choice's cut points instead of
    searched for; indices, dtype and attempts stay those of the choice loop."""

    @pytest.mark.parametrize("size", [1, 7, 1000, 50_000])
    def test_seeded_specs(self, size):
        for trial, spec in enumerate(seeded_specs(32, 4242)):
            seed = 31 * trial + size
            ref, ref_attempts, _ = choice_loop_reference(spec, size, seed)
            got, attempts = rejection_sample_batch(spec, size, seed=seed)
            assert got.dtype == ref.dtype == np.int64
            assert np.array_equal(got, ref) and attempts == ref_attempts, trial

    def test_many_atoms(self):
        # Past 32 cut points the labels come from a binary search instead.
        rng = np.random.default_rng(60)
        proposal = 0.5 * rng.dirichlet(np.ones(60)) + 0.5 / 60
        spec = make_rejection_spec(proposal / proposal.sum(), rng.dirichlet(np.ones(60)))
        ref, ref_attempts, _ = choice_loop_reference(spec, 5000, 11)
        got, attempts = rejection_sample_batch(spec, 5000, seed=11)
        assert np.array_equal(got, ref) and attempts == ref_attempts

    def test_multi_block_requests(self):
        # Acceptance about 1/40: a 128-proposal block often yields no accept.
        spec = make_rejection_spec(ProbVector([0.975, 0.025]), [0.0, 1.0])
        blocks = []
        for seed in range(40):
            ref, ref_attempts, n_blocks = choice_loop_reference(spec, 1, seed)
            got, attempts = rejection_sample_batch(spec, 1, seed=seed)
            assert np.array_equal(got, ref) and attempts == ref_attempts
            blocks.append(n_blocks)
        assert max(blocks) >= 2

    def test_iteration_cap_reached_at_the_same_draw(self):
        eps = 1e-3
        spec = make_rejection_spec(ProbVector([1 - eps, eps]), [0.0, 1.0])
        for seed, cap in [(4, 50), (5, 300), (6, 1)]:
            with pytest.raises(IterationCapError) as ref:
                choice_loop_reference(spec, 3, seed, attempt_cap=cap)
            with pytest.raises(IterationCapError) as got:
                rejection_sample_batch(spec, 3, seed=seed, attempt_cap=cap)
            assert str(got.value) == str(ref.value)


class TestSpecChecksItself:
    """A RejectionSpec is built from its proposal and signed target alone and
    checks both when it is built, so its fields cannot disagree and the
    sampler takes any spec as it is."""

    @pytest.mark.parametrize(
        "proposal",
        [
            [[0.5, 0.5]],  # not 1-d
            [0.5, np.nan],
            [1.5, -0.5],  # negative entry
            [0.5, 0.4],  # sum off by more than 1e-12
            [0.5, 0.5 + 1e-9],  # within rng.choice's sqrt(eps), not ProbVector's 1e-12
            [],
        ],
    )
    def test_proposal_keeps_the_probvector_rule(self, proposal):
        with pytest.raises(ValueError):
            RejectionSpec(proposal, proposal)

    @pytest.mark.parametrize(
        "target", [[1.0], [0.4, 0.3, 0.3], [[0.5, 0.5]], [1.0, np.nan], [1.0, np.inf]]
    )
    def test_signed_target_is_finite_with_one_entry_per_atom(self, target):
        with pytest.raises(ValueError, match="target"):
            RejectionSpec([0.5, 0.5], target)

    def test_keeps_read_only_copies(self):
        proposal, signed = np.array([0.25, 0.75]), np.array([1.25, -0.25])
        spec = RejectionSpec(proposal, signed)
        assert np.array_equal(spec.proposal, proposal) and not np.shares_memory(spec.proposal, proposal)
        for kept in (spec.proposal, spec.target, spec.ratio):
            assert not kept.flags.writeable and not np.shares_memory(kept, signed)
        assert spec.target.tolist() == [1.0, 0.0] and spec.ratio.tolist() == [4.0, 0.0]
        assert type(spec.bound) is float and spec.bound == 4.0 and spec.clamped_mass == 0.25

    def test_derived_fields_agree(self):
        # Random pairs, some with a proposal atom of no mass under a clamped
        # target entry.
        for child in np.random.SeedSequence([2718]).spawn(64):
            rng = np.random.default_rng(child)
            m = int(rng.integers(2, 9))
            proposal = rng.dirichlet(np.ones(m))
            signed = rng.dirichlet(np.ones(m))
            dead = rng.integers(0, m)
            signed[dead] = -0.2 * rng.random()
            if rng.random() < 0.5:
                proposal[dead] = 0.0
            spec = RejectionSpec(proposal / proposal.sum(), signed / signed.sum())
            live = spec.proposal > 0
            assert spec.bound == spec.ratio.max()
            assert np.array_equal(spec.ratio[live], spec.target[live] / spec.proposal[live])
            assert not spec.ratio[~live].any()
            assert spec.target.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("target, bound", [([0.9, 0.1], 1.0), ([0.1, 0.9], 1.8)])
    def test_derived_fields_are_not_arguments(self, target, bound):
        # Given by hand, a bound below the largest ratio drew [0.833, 0.167]
        # for a target of [0.9, 0.1], and a ratio of another target drew
        # [0.9, 0.1] for [0.1, 0.9].
        with pytest.raises(TypeError):
            RejectionSpec(
                proposal=[0.5, 0.5], target=target, ratio=[1.8, 0.2], bound=bound, clamped_mass=0.0
            )

    def test_ratio_overflow_raises_when_built(self):
        # A subnormal proposal entry under a unit target mass: 1/5e-324 is inf.
        with pytest.raises(ValueError, match="ratio must be finite"):
            make_rejection_spec([1.0, 5e-324], [0.0, 1.0])


class TestSamplerInputChecks:
    SPEC = make_rejection_spec(ProbVector([0.5, 0.5]), [0.6, 0.4])

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, True])
    def test_seed_goes_through_the_package_check(self, seed):
        with pytest.raises(ValueError, match="seed"):
            rejection_sample_batch(self.SPEC, 10, seed=seed)

    def test_largest_seed_is_accepted(self):
        idx, _ = rejection_sample_batch(self.SPEC, 10, seed=2**64 - 1)
        assert idx.size == 10

    @pytest.mark.parametrize("size", [True, 2.0, 0, -3])
    def test_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValueError, match="size"):
            rejection_sample_batch(self.SPEC, size, seed=1)

    def test_past_the_proposal_cap_raises_before_any_draw(self):
        # Bound 4e7 at 10^5 draws expects 4e12 proposals.
        spec = make_rejection_spec(ProbVector([1 - 2.5e-8, 2.5e-8]), [0.0, 1.0])
        with pytest.raises(CapExceededError, match=f"over the cap of {PROPOSAL_CAP}"):
            rejection_sample_batch(spec, 100_000, seed=1)

    def test_proposal_cap_holds_for_any_attempt_cap(self):
        spec = make_rejection_spec([0.5, 0.5], [1.0, 0.0])
        assert spec.bound == 2.0
        for attempt_cap in (None, 100):
            with pytest.raises(CapExceededError):
                rejection_sample_batch(spec, PROPOSAL_CAP // 2 + 1, seed=1, attempt_cap=attempt_cap)

    @pytest.mark.parametrize("cap", [0, -1, 50.0, True])
    def test_attempt_cap_must_be_a_positive_integer(self, cap):
        with pytest.raises(ValueError, match="attempt_cap"):
            rejection_sample_batch(self.SPEC, 5, seed=1, attempt_cap=cap)

    def test_numpy_integers_are_accepted(self):
        a, na = rejection_sample_batch(self.SPEC, np.int64(50), seed=np.uint64(7), attempt_cap=np.int32(10_000))
        b, nb = rejection_sample_batch(self.SPEC, 50, seed=7, attempt_cap=10_000)
        assert np.array_equal(a, b) and na == nb
