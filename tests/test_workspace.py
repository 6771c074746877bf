"""The Monte Carlo kernels' shared work-buffer pool: the draws it serves are
the public sampler's, nested and concurrent callers never share a buffer,
buffers are reused and bounded, and a warm process takes no page faults."""

import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from posterior_debias import _workspace
from posterior_debias.bayes import (
    GaussianMixture,
    WeightedSampleSet,
    _plugin_expectation,
    gaussian_likelihood,
)
from posterior_debias.experiments import default_mixture_config, run_mixture_mc
from posterior_debias.rejection import make_rejection_spec, rejection_sample_batch
from posterior_debias.resampling import debiased_expectation, outer_mc_batched

B = 2**14  # block size of the stages and of the plug-in expectation
SMALL = _workspace._SMALL  # requests from this size up go through the pool
CHUNK = _workspace._CHUNK_ELEMENTS  # float64 entries of every kept buffer
SRC = Path(__file__).resolve().parents[1] / "src"


def in_pool(buf) -> bool:
    return any(kept is buf for kept in _workspace._free)


class TestFill:
    @pytest.mark.parametrize("weights", [[0.3, 0.7], [0.2, 0.0, 0.8], [1.0], [0.5, 0.3, 0.2]])
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (512, 64), (4096, 16), (3, 20000)])
    def test_fill_of_a_pooled_buffer_equals_sample(self, weights, shape):
        m = len(weights)
        mix = GaussianMixture(weights, np.arange(m, dtype=float), np.linspace(0.5, 2.0, m))
        ref_rng = np.random.default_rng(np.random.SeedSequence([11, m]))
        fill_rng = np.random.default_rng(np.random.SeedSequence([11, m]))
        size = shape[0] * shape[1]
        buf = _workspace.checkout(size)
        try:
            for _ in range(2):  # the second draw starts where the first left the stream
                out = buf.reshape(shape)
                out.fill(np.nan)
                mix._fill(out, fill_rng)
                assert out.tobytes() == mix.sample(shape, ref_rng).tobytes()
        finally:
            _workspace.release(buf)
        assert fill_rng.random() == ref_rng.random()


@pytest.mark.usefixtures("fresh_pool")
class TestPool:
    def test_release_then_checkout_reuses_the_buffer(self):
        a = _workspace.checkout(3 * SMALL)
        _workspace.release(a)
        assert in_pool(a.base)
        b = _workspace.checkout(2 * SMALL, np.intp)
        c = _workspace.checkout(8 * SMALL, bool)
        assert b.base is a.base
        assert c.base is not a.base
        assert (b.dtype, b.shape, c.dtype, c.shape) == (np.intp, (2 * SMALL,), bool, (8 * SMALL,))
        _workspace.release(b, c)

    def test_small_request_is_a_plain_allocation(self):
        kept = list(_workspace._free)
        small = _workspace.checkout(SMALL - 1, bool)
        assert small.base is None and small.shape == (SMALL - 1,)
        _workspace.release(small)
        assert all(a is b for a, b in zip(_workspace._free, kept, strict=True))

    def test_over_budget_buffer_is_not_kept(self):
        big = _workspace.checkout(CHUNK + 1)
        big_mask = _workspace.checkout(8 * CHUNK + 1, bool)
        at_budget = _workspace.checkout(CHUNK)
        mask = _workspace.checkout(8 * CHUNK, bool)
        assert big.base is None and big_mask.base is None
        _workspace.release(big, big_mask, at_budget, mask)
        assert len(_workspace._free) == 2
        assert in_pool(at_budget.base) and in_pool(mask.base)

    def test_any_kept_buffer_serves_any_pooled_request(self):
        # A 4,096-word request released after a chunk-sized one: a search
        # for a large enough buffer gave the 8,192-word request the chunk,
        # then freed the small buffer to allocate for the next chunk.
        small = _workspace.checkout(SMALL)
        chunk = _workspace.checkout(CHUNK)
        kept = [chunk.base, small.base]
        _workspace.release(small, chunk)
        assert [id(buf) for buf in _workspace._free] == [id(buf) for buf in kept]
        got = [_workspace.checkout(2 * SMALL), _workspace.checkout(CHUNK)]
        assert [any(v.base is buf for buf in kept) for v in got] == [True, True]
        assert got[0].base is not got[1].base
        _workspace.release(*got)

    def test_at_most_the_cap_is_kept(self):
        held = [_workspace.checkout(SMALL) for _ in range(2 * _workspace._MAX_KEPT)]
        _workspace.release(*held)
        assert len(_workspace._free) == _workspace._MAX_KEPT
        assert _workspace._MAX_KEPT == _workspace._PER_CPU * (os.cpu_count() or 1)

    def test_checked_out_buffers_are_distinct(self):
        held = [_workspace.checkout(SMALL) for _ in range(12)]
        assert len({id(v.base) for v in held}) == 12
        _workspace.release(*held)

    def test_second_batched_call_reuses_the_first_calls_buffers(self):
        seen = []

        def functional(x):
            seen.append(x.base)
            return np.zeros(x.shape[1])

        def sampler(out, rng):
            rng.standard_normal(out=out)

        outer_mc_batched(sampler, functional, 64, {3: 100}, 3, 1)
        first = list(seen)
        seen.clear()
        outer_mc_batched(sampler, functional, 64, {3: 100}, 3, 1)
        assert len(first) == len(seen) == 3
        assert all(a is b for a, b in zip(first, seen))
        assert first[0] is not first[1] and first[0] is first[2]

    def test_concurrent_callers_never_share_a_buffer(self):
        # More threads than cores, switching as often as the interpreter
        # allows: each fills its buffer with its own id, lets the others
        # run, and checks that nobody wrote into it.
        errors, interval = [], sys.getswitchinterval()

        def worker(tag):
            for i in range(300):
                buf = _workspace.checkout(SMALL + 16 * (i % 5))
                buf.fill(tag)
                time.sleep(0)
                if not (buf == tag).all():
                    errors.append(tag)
                _workspace.release(buf)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len({id(b) for b in _workspace._free}) == len(_workspace._free)


class TestNested:
    @pytest.mark.parametrize("n", [40, 3 * B + 5])
    def test_h_that_runs_a_chain_gives_the_plain_value(self, n):
        rng = np.random.default_rng(np.random.SeedSequence([5, n]))
        data = WeightedSampleSet(rng.normal(0.5, 1.0, n))
        inner = WeightedSampleSet(rng.normal(0.5, 1.0, n))
        lik = gaussian_likelihood(0.8, 1 / 16)
        scale = debiased_expectation(inner, lik, lambda x: x, 3, seed=9)

        def plain(x):
            return (x >= 0.5) * scale

        def nested(x):
            # The inner chain checks out its own stages and work buffer
            # while the outer chain's are held.
            return (x >= 0.5) * debiased_expectation(inner, lik, lambda y: y, 3, seed=9)

        want = debiased_expectation(data, lik, plain, 3, seed=4)
        assert debiased_expectation(data, lik, nested, 3, seed=4) == want

    def test_batched_functional_that_runs_a_kernel_gives_the_plain_value(self):
        lik = gaussian_likelihood(3.5, 1 / 16)
        mix = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
        inner = WeightedSampleSet(mix.sample(300, np.random.default_rng(1)))
        shift = debiased_expectation(inner, lik, lambda x: x, 2, seed=2)

        def plain(x):
            return _plugin_expectation(x, lik, lambda v: v >= 3.3) + shift

        def nested(x):
            return _plugin_expectation(x, lik, lambda v: v >= 3.3) + debiased_expectation(
                inner, lik, lambda v: v, 2, seed=2
            )

        want = outer_mc_batched(mix._fill, plain, 32, {3: 9000}, 8, 2)[3]
        got = outer_mc_batched(mix._fill, nested, 32, {3: 9000}, 8, 2)[3]
        assert (got.mean, got.variance) == (want.mean, want.variance)


def test_three_chunk_point_is_the_same_at_one_and_two_threads():
    # n = 64 and N = 10,000 make three chunks (4,096, 4,096 and 1,808
    # replicates); the means are the mixture-mc CSV's values on the v2
    # layout, recorded with numpy 2.4.6.
    rows = {}
    for threads in (1, 2):
        cfg = default_mixture_config(
            n_grid=(32, 64), k_values=(3,), n_rule="fixed", n_fixed=10_000,
            y_obs=3.5, threshold=3.3, threads=threads,
        )
        rows[threads], _ = run_mixture_mc(cfg)
    assert rows[1] == rows[2]
    assert [r["est_mean"] for r in rows[1]] == [0.21495464928213098, 0.3411286160428313]


FAULT_PROBE = """
import resource
import numpy as np
import posterior_debias as pkg

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

cfg = pkg.default_mixture_config(
    n_grid=(16, 32, 64), k_values=(1, 2), n_rule="fixed", n_fixed=512,
    y_obs=3.5, noise_var=1 / 16, threshold=3.3,
)
mix = pkg.GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
data = pkg.WeightedSampleSet(mix.sample(2**16, np.random.default_rng(1)))
big = pkg.WeightedSampleSet(mix.sample(2**18, np.random.default_rng(2)))
lik = pkg.gaussian_likelihood(0.8, 1 / 16)
h = lambda x: x >= 0.5
for _ in range(2):
    pkg.run_mixture_mc(cfg)
    pkg.debiased_expectation(data, lik, h, 4, 0)
    pkg.plugin_expectation(big, lik, h)
start = faults()
for _ in range(20):
    pkg.run_mixture_mc(cfg)
mid = faults()
for seed in range(20):
    pkg.debiased_expectation(data, lik, h, 4, seed)
end = faults()
for _ in range(20):
    pkg.plugin_expectation(big, lik, h)
print((mid - start) / 20, (end - mid) / 20, (faults() - end) / 20)
"""


def assert_warm_kernels_take_no_page_faults(**env):
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(FAULT_PROBE)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )
    assert proc.returncode == 0, proc.stderr
    per_pass, per_call, per_plugin = map(float, proc.stdout.split())
    assert per_pass <= 2, f"{per_pass} minor faults per run_mixture_mc pass"
    assert per_call <= 2, f"{per_call} minor faults per debiased_expectation call"
    assert per_plugin <= 2, f"{per_plugin} minor faults per plugin_expectation call"


def test_warm_kernels_take_no_page_faults():
    # In a fresh interpreter, after a warm-up: run_mixture_mc passes at the
    # benchmark's grid, debiased_expectation calls at n = 2^16, k = 4, and
    # plugin_expectation calls at n = 2^18, whose log weights take a pooled
    # buffer of the points' size, reuse their buffers instead of mapping
    # new pages.
    assert_warm_kernels_take_no_page_faults()


def test_warm_kernels_take_no_page_faults_at_a_fixed_mmap_threshold():
    # glibc raises its mmap threshold after the first large free, which
    # would hide a stage-sized array allocated per call; with the threshold
    # fixed at 128 KB such an array maps new pages every time. Other C
    # libraries ignore the variable.
    assert_warm_kernels_take_no_page_faults(GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")


@pytest.mark.parametrize("threads, passes, bound_mb", [(1, 1, 0.25), (2, 8, 0.5)])
def test_warm_mixture_pass_allocates_no_stage_sized_array(monkeypatch, threads, passes, bound_mb):
    # Every (b, n) intermediate of a serial pass, the likelihood's log
    # weights, the event's mask and the resample index blocks included, is
    # a pooled buffer. At n = 64 and 128 a chunk is 2^18 points, so one
    # stage-sized float array would be 2 MB; what is left is the 64 KB of
    # random words behind an index block, one 64 KB ufunc buffer and a few
    # per-replicate vectors. Two chunks on two threads hold two sets, which
    # the cap keeps from two CPUs up; the largest of several passes is
    # bounded, as which thread takes which buffer is left to chance.
    monkeypatch.setattr(_workspace, "_MAX_KEPT", max(_workspace._MAX_KEPT, 2 * _workspace._PER_CPU))
    cfg = default_mixture_config(
        n_grid=(64, 128), k_values=(2,), n_rule="fixed", n_fixed=9000,
        y_obs=3.5, noise_var=1 / 16, threshold=3.3, threads=threads,
    )
    run_mixture_mc(cfg)
    peak = 0
    for _ in range(passes):
        tracemalloc.start()
        try:
            run_mixture_mc(cfg)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peak <= bound_mb * 2**20, f"{peak / 2**20:.3f} MB traced peak of a warm pass"


def test_warm_debiased_expectation_draws_its_indices_block_by_block():
    # A warm call at n = 2^18, k = 4 holds one 2^14-index block of resample
    # indices (128 KB) and the 2^13 random words behind it (64 KB); the
    # stages, the index block and the plug-in's weights are pooled buffers.
    # The parent of the raw-word draws peaked at 134,387 B, one 128 KB
    # rng.integers block; drawing a whole stage's words at once would add
    # 1 MB.
    data = WeightedSampleSet(np.random.default_rng(5).normal(0.5, 1.0, 2**18))
    lik = gaussian_likelihood(0.8, 1 / 16)
    h = lambda x: x >= 0.5
    debiased_expectation(data, lik, h, 4, 0)
    tracemalloc.start()
    try:
        debiased_expectation(data, lik, h, 4, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2**20, f"{peak / 2**20:.3f} MB traced peak of a warm call"


def mixture_grid_pass():
    # The benchmark's mc_mixture grid, serial.
    run_mixture_mc(default_mixture_config(
        n_grid=(16, 32, 64), k_values=(1, 2), n_rule="fixed", n_fixed=512,
        y_obs=3.5, noise_var=1 / 16, threshold=3.3, threads=1,
    ))


def expectation_call():
    data = WeightedSampleSet(np.random.default_rng(5).normal(0.5, 1.0, 2**16))
    debiased_expectation(data, gaussian_likelihood(0.8, 1 / 16), lambda x: x >= 0.5, 4, 0)


def rejection_batch():
    spec = make_rejection_spec([0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4])
    rejection_sample_batch(spec, 200_000, seed=5)


@pytest.mark.parametrize("run", [mixture_grid_pass, expectation_call, rejection_batch])
def test_pooled_traffic_fits_one_buffer_size_and_the_cap(monkeypatch, run):
    # One kept buffer size serves every pooled request only while none asks
    # for more than a chunk, and _PER_CPU is one more than a serial caller
    # holds at once.
    words, held, most_held = [], 0, 0
    checkout, release = _workspace.checkout, _workspace.release

    def counted_checkout(elements, dtype=np.float64):
        nonlocal held, most_held
        view = checkout(elements, dtype)
        if elements >= SMALL:
            words.append(-(-elements * np.dtype(dtype).itemsize // 8))
        if view.base is not None:
            held += 1
            most_held = max(most_held, held)
        return view

    def counted_release(*views):
        nonlocal held
        held -= sum(v.base is not None for v in views)
        release(*views)

    run()
    monkeypatch.setattr(_workspace, "checkout", counted_checkout)
    monkeypatch.setattr(_workspace, "release", counted_release)
    run()
    assert words and max(words) <= CHUNK
    assert held == 0
    assert 1 <= most_held <= _workspace._PER_CPU - 1
