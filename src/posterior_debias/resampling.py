"""Recursive resampling chains and the outer Monte Carlo driver.

A chain starts at the observed data and repeatedly bootstraps itself; one
sampler draws it for both build_chain and debiased_expectation. The order-k
debiased realization combines the plug-in functional across the first k
stages with the alternating binomial weights. Two outer drivers replicate
this over fresh datasets: outer_mc one replicate at a time, with one random
stream per replicate, and outer_mc_batched one array of replicates at a time,
with one random stream per fixed-size chunk. Both merge chunk moments in
chunk order, so results are bit-identical for a fixed root seed no matter how
many worker threads run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isnan, sqrt
from typing import Callable, Sequence

import numpy as np

from .bayes import _BLOCK, BoundedLikelihood, WeightedSampleSet, _plugin_expectation
from .operators import _cached_lattice, _cached_matrix, debias_weights
from .simplex import ProbVector, multinomial_pmf_vector

_SEED_LIMIT = 2**64
_CHUNK = 4096  # replicates per work unit; fixed so the reduction order is too
_BATCH_ELEMENTS = 2**18  # data points per chunk of outer_mc_batched
_BATCH_SCHEME = 1  # version of outer_mc_batched's stream layout; bump on any change


def _check_seed(seed: int) -> int:
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _chain_stages(points: np.ndarray, k: int, seed: int):
    """Checks k and the seed, then returns an iterator over the k stages of
    the chain from ``points`` as plain read-only arrays: stage 1 is
    ``points`` itself, and each later stage is n draws with replacement from
    the one before, at the indices one rng.integers(0, n, size=n) call on
    default_rng(SeedSequence([seed])) would give.

    Later stages are written into at most two reused n-sized buffers, so a
    stage is valid only until the next one is drawn. Each is filled in even
    blocks of _BLOCK draws, and only the last block is short. Resampling
    finite points keeps them finite, so no stage is checked again."""
    debias_weights(k)
    seed = _check_seed(seed)

    def draw():
        yield points
        if k == 1:
            return
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        n = points.size
        buffers = [np.empty(n) for _ in range(min(k - 1, 2))]
        prev = points
        for j in range(k - 1):
            stage = buffers[j % 2]
            stage.flags.writeable = True
            for lo in range(0, n, _BLOCK):
                hi = min(lo + _BLOCK, n)
                # The indices are in range, so "clip" changes none of them
                # and spares take its buffered copy of ``out``.
                idx = rng.integers(0, n, size=hi - lo)
                prev.take(idx, out=stage[lo:hi], mode="clip")
            # Read-only like a WeightedSampleSet's points: a callable that
            # writes into its input raises instead of changing the draws.
            stage.flags.writeable = False
            yield stage
            prev = stage

    return draw()


def build_chain(data: WeightedSampleSet, k: int, seed: int) -> tuple[WeightedSampleSet, ...]:
    """Grow the k stages of the recursive bootstrap: stage 1 is the data
    verbatim, and each later stage is n uniform-with-replacement draws from
    the previous one. Fully reproducible from (data, k, seed)."""
    stages = _chain_stages(data.points, k, seed)
    next(stages)  # stage 1 is the data itself
    # Each stage is copied into its own set before the next overwrites it.
    return (data, *map(WeightedSampleSet, stages))


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
        # Plain isinstance: run_mixture_mc builds one MCConfig per grid point.
        for name in ("n", "k", "n_reps", "root_seed", "threads"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name!r} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        debias_weights(self.k)
        if self.n_reps < 1:
            raise ValueError(f"n_reps must be >= 1, got {self.n_reps}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        _check_seed(self.root_seed)


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
    has at most one thread per span and one per CPU."""
    start = time.perf_counter()
    spans = [(i, lo, min(lo + chunk, n_reps)) for i, lo in enumerate(range(0, n_reps, chunk))]
    workers = min(threads, len(spans))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        partials = [run_span(*span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda span: run_span(*span), spans))
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

    batch_sampler(b, n, rng) must return a (b, n) array of b datasets drawn
    with the given generator and nothing else; batch_functional maps a (b, n)
    array to the b plug-in values and must be pure. Chunk c draws from
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
        stage = batch_sampler(b, n, rng)
        values = np.zeros(b)
        # Row i of a stage starts at entry i * n of the flattened stage, so
        # one flat take gathers what take_along_axis(stage, idx, axis=1) does.
        offsets = np.arange(0, b * n, n)[:, None]
        for j in range(k):
            if j > 0:
                idx = rng.integers(0, n, size=(b, n))
                idx += offsets
                stage = stage.take(idx)
            values += weights[j] * batch_functional(stage)
        if np.isnan(values).any():
            raise FloatingPointError(f"functional returned NaN in replicates {lo}..{hi - 1}")
        mean = values.mean()
        return b, float(mean), float(((values - mean) ** 2).sum())

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
    seed) with the signed weights, bit for bit, but keeps at most two
    n-sized stage buffers and evaluates each stage in blocks of 2^14 points:
    ``likelihood.log`` and ``h`` must act elementwise. h identically 1
    returns exactly 1 (the signed mixture is normalized).
    """
    # Each stage is evaluated before the next overwrites its buffer; the
    # values then combine exactly as a built chain's would.
    values = [
        _plugin_expectation(stage, likelihood, h)
        for stage in _chain_stages(data.points, k, seed)
    ]
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
    sets on the points 0..m-1, and the leaves combine them with
    debiased_realization, so the realization goes through the same code path
    as the Monte Carlo driver. The functional must be pure: it is evaluated at
    most once per lattice point. Each node adds its children up left to
    right, in lattice order.
    """
    prior = ProbVector(prior)
    debias_weights(k)  # checks k before any lattice is built
    lat = _cached_lattice(n, prior.m)
    step = _cached_matrix(n, prior.m).rows if k > 1 else None
    pts = np.arange(prior.m, dtype=float)

    class StageValues(dict):
        # functional(stage set of lattice point i), evaluated on first lookup:
        # once per point at most, and never for a point no chain reaches.
        def __missing__(self, i: int):
            value = self[i] = functional(WeightedSampleSet(np.repeat(pts, lat.points[i])))
            return value

    class Support(dict):
        # The (index, probability) pairs of row i's nonzero entries, listed
        # on first lookup: a chain can only move to these points.
        def __missing__(self, i: int):
            pairs = self[i] = [(j, p) for j, p in enumerate(step[i].tolist()) if p > 0.0]
            return pairs

    values, support = StageValues(), Support()

    def recurse(prefix: list[int], prob: float) -> float:
        if prob == 0.0:
            return 0.0
        if len(prefix) == k:
            return prob * debiased_realization(prefix, values.__getitem__, k)
        total = 0.0
        for j, p in support[prefix[-1]]:
            total += recurse(prefix + [j], prob * p)
        return total

    total = 0.0
    for i, p in enumerate(multinomial_pmf_vector(lat, prior).tolist()):
        if p > 0.0:
            total += recurse([i], p)
    return total
