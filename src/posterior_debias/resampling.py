"""Recursive resampling chains and the outer Monte Carlo driver.

A chain starts at the observed data and repeatedly bootstraps itself; one
stage generator draws it for build_chain and debiased_expectation, and a
whole chunk of chains at once for outer_mc_batched. The order-k debiased
realization combines the plug-in functional across the first k stages with
the alternating binomial weights. Two outer drivers replicate this over
fresh datasets: outer_mc one replicate at a time, with one random stream per
replicate, and outer_mc_batched one array of replicates at a time, with one
random stream per fixed-size chunk. Both merge chunk moments in chunk order,
so results are bit-identical for a fixed root seed no matter how many worker
threads run.
"""

from __future__ import annotations

import contextvars
import os
import time
from dataclasses import dataclass
from math import isnan, sqrt
from typing import Callable, Sequence

import numpy as np

from . import _workspace
from .bayes import _BLOCK, BoundedLikelihood, WeightedSampleSet, _plugin_expectation
from .operators import MAX_ORDER, _cached_lattice, _cached_matrix, debias_weights
from .simplex import ProbVector, _checked_int, multinomial_pmf_vector

_SEED_MAX = 2**64 - 1  # every seed is an unsigned 64-bit integer
_CHUNK = 4096  # replicates per work unit; fixed so the reduction order is too
_BATCH_ELEMENTS = 2**18  # data points per chunk of outer_mc_batched
_BATCH_SCHEME = 1  # version of outer_mc_batched's stream layout; bump on any change


def _resample(prev: np.ndarray, stage: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the (b, n) array ``stage`` row by row with n draws with
    replacement from the same row of ``prev``, at the indices one
    rng.integers(0, n, size=(b, n)) call would give. The indices are drawn in
    blocks of at most _BLOCK, in row-major order: whole rows when more than
    one row fits in a block, pieces of one row otherwise. Blocks take the
    stream of one call, so the draws do not depend on the block size. The
    indices are in range, so take's "clip" changes none of them and spares it
    a buffered copy of ``out``."""
    b, n = prev.shape
    rows = _BLOCK // n
    if rows == 0 or b == 1:
        for r in range(b):
            for lo in range(0, n, _BLOCK):
                dst = stage[r, lo : lo + _BLOCK]
                prev[r].take(rng.integers(0, n, size=dst.size), out=dst, mode="clip")
        return
    # Row i of a block starts at entry i * n of the block, so one flat take
    # gathers what take_along_axis(block, idx, axis=1) does. The row offsets
    # are spread over the block's destination, free until the take, so the
    # add broadcasts nothing and takes no ufunc buffer.
    offsets = np.arange(0, min(rows, b) * n, n)[:, None]
    for r in range(0, b, rows):
        dst = stage[r : r + rows]
        idx = rng.integers(0, n, size=dst.shape)
        spread = dst.view(np.int64)
        np.copyto(spread, offsets[: len(dst)])
        idx += spread
        prev[r : r + rows].take(idx, out=dst, mode="clip")
        del idx  # freed before the next block's indices are drawn


def _stages(first: np.ndarray, k: int, rng: np.random.Generator | None, spare: bool = False):
    """Yield stages 1..k of the chains whose first stages are the rows of
    the (b, n) array ``first``, as read-only views; each later stage is
    drawn from the one before by _resample. This is the one place chain
    stages are drawn. Later stages go into pooled work buffers, and a
    writable ``first`` is the caller's own work buffer, which stage 3
    overwrites, so at most two (b, n) buffers are in use. With ``spare``,
    it yields (stage, buffer) pairs instead, where buffer is the writable
    (b, n) buffer the next stage will be drawn into: the caller's to use as
    work space until it asks for the next stage. A stage is valid only
    until the next one is drawn; the buffers go back to the pool when the
    generator ends or is dropped. Resampling finite points keeps them
    finite, so no stage is checked again."""
    prev = first.view()
    # Read-only like a WeightedSampleSet's points: a callable that writes
    # into its input raises instead of changing the draws.
    prev.flags.writeable = False
    count = min(k - 1 + spare, 2 - first.flags.writeable)
    flat = [_workspace.checkout(first.size) for _ in range(count)]
    buffers = [f.reshape(first.shape) for f in flat] + [first]
    try:
        for j in range(k):
            if j:
                stage = buffers[(j - 1) % 2]
                _resample(prev, stage, rng)
                prev = stage.view()
                prev.flags.writeable = False
            yield (prev, buffers[j % 2]) if spare else prev
    finally:
        _workspace.release(*flat)


def build_chain(data: WeightedSampleSet, k: int, seed: int) -> tuple[WeightedSampleSet, ...]:
    """Grow the k stages of the recursive bootstrap: stage 1 is the data
    verbatim, and each later stage is n uniform-with-replacement draws from
    the previous one. Fully reproducible from (data, k, seed)."""
    debias_weights(k)
    seed = _checked_int(seed, "seed", 0, _SEED_MAX)
    rng = np.random.default_rng(np.random.SeedSequence([seed])) if k > 1 else None
    stages = _stages(data.points.reshape(1, -1), k, rng)
    next(stages)  # stage 1 is the data itself
    # Each stage is copied into its own set before the next overwrites it.
    return (data, *(WeightedSampleSet(stage[0]) for stage in stages))


def debiased_realization(
    stages: Sequence[WeightedSampleSet], functional: Callable, k: int
) -> float:
    """Signed combination sum_j weights[j] * functional(stages[j]) over the
    first k stages of a chain, added up left to right."""
    if len(stages) < k:
        raise ValueError(f"chain has {len(stages)} stages, needs at least {k}")
    # An explicit loop on Python floats: builtin sum() of floats compensates
    # its rounding on Python >= 3.12, which would change the bits.
    total = 0.0
    for j, w in enumerate(debias_weights(k).tolist()):
        total += w * float(functional(stages[j]))
    return total


@dataclass(frozen=True)
class MCConfig:
    """Outer Monte Carlo plan: n draws per dataset, N replicate datasets."""

    n: int
    k: int
    n_reps: int
    root_seed: int
    threads: int = 1

    def __post_init__(self):
        _checked_int(self.n, "n", 1)
        _checked_int(self.k, "k", 1, MAX_ORDER)
        _checked_int(self.n_reps, "n_reps", 1)
        _checked_int(self.root_seed, "root_seed", 0, _SEED_MAX)
        _checked_int(self.threads, "threads", 1)


@dataclass(frozen=True)
class MCResult:
    mean: float
    variance: float
    std_error: float
    n_reps: int
    wall_time: float


def _replicate_value(
    prior_sampler: Callable, functional: Callable, cfg: MCConfig, rep: int
) -> float:
    # One independent stream per replicate, keyed by (root_seed, rep).
    rng = np.random.default_rng(np.random.SeedSequence([cfg.root_seed, rep]))
    data = prior_sampler(cfg.n, rng)
    chain = build_chain(data, cfg.k, int(rng.integers(0, 2**63)))
    value = debiased_realization(chain, functional, cfg.k)
    if isnan(value):
        raise FloatingPointError(f"functional returned NaN at replicate {rep}")
    return value


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]):
    ca, ma, sa = a
    cb, mb, sb = b
    count = ca + cb
    delta = mb - ma
    mean = ma + delta * cb / count
    m2 = sa + sb + delta * delta * ca * cb / count
    return count, mean, m2


def _drive(run_span: Callable, n_reps: int, chunk: int, threads: int) -> MCResult:
    """Split replicates 0..n_reps-1 into spans of ``chunk``, reduce each span
    to (count, mean, M2) with ``run_span(index, lo, hi)``, on a pool of
    ``threads`` when there is more than one span, and merge the partials in
    span order, so the thread count changes no bit of the result. The pool
    has at most one thread per span and one per CPU, and runs each span in
    a copy of the caller's context, so np.errstate holds there too."""
    start = time.perf_counter()
    spans = [(i, lo, min(lo + chunk, n_reps)) for i, lo in enumerate(range(0, n_reps, chunk))]
    workers = min(threads, len(spans))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        partials = [run_span(*span) for span in spans]
    else:
        # Imported here: concurrent.futures loads logging and queue, which a
        # serial run, and the package import, do without.
        from concurrent.futures import ThreadPoolExecutor

        context = contextvars.copy_context()  # holds the caller's np.errstate
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda span: context.copy().run(run_span, *span), spans))
    count, mean, m2 = 0, 0.0, 0.0
    for part in partials:
        count, mean, m2 = _merge((count, mean, m2), part)
    variance = m2 / (count - 1) if count > 1 else 0.0
    return MCResult(
        mean=mean,
        variance=variance,
        std_error=sqrt(variance / count),
        n_reps=count,
        wall_time=time.perf_counter() - start,
    )


def outer_mc(prior_sampler: Callable, functional: Callable, cfg: MCConfig) -> MCResult:
    """Replicate the debiased realization over N fresh datasets.

    prior_sampler(n, rng) must return a WeightedSampleSet drawn with the
    given generator and nothing else; the functional must be pure. Partial
    failures abort the whole run. Replicates run one at a time in Python,
    which holds the GIL, so the spans run serially whatever ``cfg.threads``
    says; the result is the same for any thread count.
    """

    def run_span(_, lo: int, hi: int) -> tuple[int, float, float]:
        count, mean, m2 = 0, 0.0, 0.0
        for rep in range(lo, hi):
            v = _replicate_value(prior_sampler, functional, cfg, rep)
            count += 1
            delta = v - mean
            mean += delta / count
            m2 += delta * (v - mean)
        return count, mean, m2

    return _drive(run_span, cfg.n_reps, _CHUNK, threads=1)


def _batch_rows(n: int) -> int:
    # Replicates per chunk of outer_mc_batched: a chunk's (rows, n) array
    # stays at or under 2 MB of float64. It depends on n only, so the chunk
    # layout, and with it every stream, is the same for any thread count.
    return min(_CHUNK, max(1, _BATCH_ELEMENTS // n))


def outer_mc_batched(
    batch_sampler: Callable, batch_functional: Callable, cfg: MCConfig
) -> MCResult:
    """outer_mc with each chunk of replicates held as one (rows, n) array.

    batch_sampler(out, rng) must fill the C-contiguous (b, n) float64 array
    ``out`` with b datasets drawn with the given generator and nothing else;
    batch_functional maps a read-only (b, n) array to the b plug-in values
    and must be pure. Both get views of work buffers that the kernel reuses:
    a stage is valid only during the call it is passed to, so a callable
    that keeps one must copy it. Chunk c draws from
    SeedSequence([root_seed, 1, c]) (the 1 is the layout's version): first
    the sampler's draws, then for each later stage one (b, n) array of
    resample indices into the stage before. A NaN value aborts the run.
    Chunks run on ``cfg.threads`` threads, as numpy releases the GIL inside
    the array work; the result is the same for any thread count.
    """
    n, k = cfg.n, cfg.k
    weights = debias_weights(k)

    def run_span(chunk: int, lo: int, hi: int) -> tuple[int, float, float]:
        b = hi - lo
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.root_seed, _BATCH_SCHEME, chunk])
        )
        # Stage 1 is drawn into a writable buffer, which _stages takes as
        # one of its two.
        flat = _workspace.checkout(b * n)
        try:
            first = flat.reshape(b, n)
            batch_sampler(first, rng)
            values = np.zeros(b)
            for stage, w in zip(_stages(first, k, rng), weights):
                values += w * batch_functional(stage)
        finally:
            _workspace.release(flat)
        if np.isnan(values).any():
            raise FloatingPointError(f"functional returned NaN in replicates {lo}..{hi - 1}")
        # values.mean() and ((values - mean) ** 2).sum(), bit for bit, with
        # their reduce and square made directly.
        mean = np.add.reduce(values) / b
        values -= mean
        values *= values
        return b, float(mean), float(np.add.reduce(values))

    return _drive(run_span, cfg.n_reps, _batch_rows(n), cfg.threads)


def debiased_expectation(
    data: WeightedSampleSet,
    likelihood: BoundedLikelihood,
    h: Callable,
    k: int,
    seed: int,
) -> float:
    """Single-dataset debiased estimate of a posterior expectation.

    Combines plugin_expectation across the stages of build_chain(data, k,
    seed) with the signed weights, bit for bit, but holds two n-sized work
    buffers at any k (one at k = 1): the stage being evaluated, unless it
    is the data, and the one the next stage goes into, which keeps the
    stage's log weights meanwhile. Each stage is evaluated in blocks of
    2^14 points, each point once: ``likelihood.log`` and ``h`` must act
    elementwise. The buffers are reused, so the read-only slices those two
    get are valid only during the call. h identically 1 returns exactly 1
    (the signed mixture is normalized).
    """
    debias_weights(k)
    seed = _checked_int(seed, "seed", 0, _SEED_MAX)
    rng = np.random.default_rng(np.random.SeedSequence([seed])) if k > 1 else None
    # Each stage is evaluated, its log weights in the spare buffer, before
    # the next is drawn there; the values then combine exactly as a built
    # chain's would.
    stages = _stages(data.points.reshape(1, -1), k, rng, spare=True)
    values = [_plugin_expectation(stage[0], likelihood, h, log_w[0]) for stage, log_w in stages]
    return debiased_realization(values, float, k)


def exhaustive_chain_expectation(
    functional: Callable,
    prior: ProbVector,
    n: int,
    k: int,
) -> float:
    """Exact expectation of the debiased realization by full enumeration.

    Enumerates every data multiset and every chain outcome (no sampling):
    counts for stage 1 follow Multinomial(n, prior), and each later stage
    follows Multinomial(n, previous/n), which is row ``previous`` of the
    transfer matrix. The lattice, and for k > 1 the matrix, are the ones the
    exact functions hold for (n, m). Stages are expanded into literal sample
    sets on the points 0..m-1. The functional must be pure: it is evaluated
    at most once per lattice point, on first use, and never at a point no
    chain of nonzero probability reaches.

    Each node adds its children up left to right, in lattice order, and a
    child of probability 0.0 adds nothing. A node at depth k - 1 sums its
    leaves itself: it adds w[j] * value over its own k - 1 stages once, left
    to right from 0.0, then each leaf j adds prob * (partial + w[k-1] *
    value_j). debiased_realization makes the same floating-point operations
    in the same order for each leaf, so every leaf, and the total, has the
    bits that combining each chain with debiased_realization gives.
    """
    prior = ProbVector(prior)
    w = debias_weights(k).tolist()  # checks k before any lattice is built
    lat = _cached_lattice(n, prior.m)
    step = _cached_matrix(n, prior.m).rows if k > 1 else None
    pts = np.arange(prior.m, dtype=float)

    class StageValues(dict):
        # float(functional(stage set of lattice point i)), evaluated on first
        # lookup: once per point at most, and never for a point no chain reaches.
        def __missing__(self, i: int):
            value = self[i] = float(functional(WeightedSampleSet(np.repeat(pts, lat.points[i]))))
            return value

    class Support(dict):
        # The (index, probability) pairs of row i's nonzero entries, listed
        # on first lookup: a chain can only move to these points.
        def __missing__(self, i: int):
            pairs = self[i] = [(j, p) for j, p in enumerate(step[i].tolist()) if p > 0.0]
            return pairs

    values, support = StageValues(), Support()
    last = w[-1]

    def leaves(prefix: list[int], prob: float, children) -> float:
        # The k - 1 stages of ``prefix`` are shared by all its leaves; their
        # partial sum is taken at the first leaf of nonzero probability, so
        # the functional runs at the points and in the order it would with
        # one debiased_realization per leaf.
        total = 0.0
        partial = None
        for j, p in children:
            leaf = prob * p
            if leaf == 0.0:
                continue
            if partial is None:
                partial = 0.0
                for wi, i in zip(w, prefix):
                    partial += wi * values[i]
            total += leaf * (partial + last * values[j])
        return total

    def recurse(prefix: list[int], prob: float, children) -> float:
        if len(prefix) == k - 1:
            return leaves(prefix, prob, children)
        total = 0.0
        for j, p in children:
            child = prob * p
            if child != 0.0:
                total += recurse(prefix + [j], child, support[j])
        return total

    # The root has probability 1.0, so its children's are the pmf's own.
    return recurse([], 1.0, enumerate(multinomial_pmf_vector(lat, prior).tolist()))
