"""Recursive resampling chains and the outer Monte Carlo driver.

A chain starts at the observed data and repeatedly bootstraps itself; the
order-k debiased realization combines the plug-in functional across the first
k stages with the alternating binomial weights. Two outer drivers replicate
this over fresh datasets: outer_mc one replicate at a time, with one random
stream per replicate, and outer_mc_batched one array of replicates at a time,
with one random stream per fixed-size chunk. Both merge chunk moments in
chunk order, so results are bit-identical for a fixed root seed no matter how
many worker threads run.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isnan, sqrt
from typing import Callable, Sequence

import numpy as np

from .bayes import BoundedLikelihood, WeightedSampleSet, plugin_expectation
from .operators import MAX_ORDER, debias_weights, transfer_matrix
from .simplex import ProbVector, multinomial_pmf_vector

_SEED_LIMIT = 2**64
_CHUNK = 4096  # replicates per work unit; fixed so the reduction order is too
_BATCH_ELEMENTS = 2**18  # data points per chunk of outer_mc_batched
_BATCH_SCHEME = 1  # version of outer_mc_batched's stream layout; bump on any change


def _check_seed(seed: int) -> int:
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def build_chain(data: WeightedSampleSet, k: int, seed: int) -> tuple[WeightedSampleSet, ...]:
    """Grow the k stages of the recursive bootstrap: stage 1 is the data
    verbatim, and each later stage is n uniform-with-replacement draws from
    the previous one. Fully reproducible from (data, k, seed)."""
    if not 1 <= k <= MAX_ORDER:
        raise ValueError(f"order k must be in [1, {MAX_ORDER}], got {k}")
    seed = _check_seed(seed)
    stages = [data]
    if k > 1:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        pts = data.points
        n = data.n
        for _ in range(k - 1):
            pts = pts[rng.integers(0, n, size=n)]
            stages.append(WeightedSampleSet(pts))
    return tuple(stages)


def debiased_realization(
    stages: Sequence[WeightedSampleSet], functional: Callable, k: int | None = None
) -> float:
    """Signed combination sum_j weights[j] * functional(stages[j]) over the
    first k stages of a chain; k defaults to the number of stages."""
    if k is None:
        k = len(stages)
    if len(stages) < k:
        raise ValueError(f"chain has {len(stages)} stages, needs at least {k}")
    w = debias_weights(k)
    return float(sum(w[j] * float(functional(stages[j])) for j in range(k)))


@dataclass(frozen=True)
class MCConfig:
    """Outer Monte Carlo plan: n draws per dataset, N replicate datasets."""

    n: int
    k: int
    n_reps: int
    root_seed: int
    threads: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.k <= MAX_ORDER:
            raise ValueError(f"order k must be in [1, {MAX_ORDER}], got {self.k}")
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
    span order, so the thread count changes no bit of the result."""
    start = time.perf_counter()
    spans = [(i, lo, min(lo + chunk, n_reps)) for i, lo in enumerate(range(0, n_reps, chunk))]
    workers = min(threads, len(spans))
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
        for j in range(k):
            if j > 0:
                stage = np.take_along_axis(stage, rng.integers(0, n, size=(b, n)), axis=1)
            values += weights[j] * batch_functional(stage)
        if np.any(np.isnan(values)):
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

    Combines plugin_expectation across chain stages with the signed weights;
    h identically 1 returns exactly 1 (the signed mixture is normalized).
    """
    return debiased_realization(
        build_chain(data, k, seed), lambda s: plugin_expectation(s, likelihood, h), k
    )


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
    transfer matrix. Stages are expanded into literal sample sets on the
    points 0..m-1 so the realization goes through the same code path as the
    Monte Carlo driver.
    """
    prior = prior if isinstance(prior, ProbVector) else ProbVector(prior)
    M = transfer_matrix(n, prior.m)
    lat, step = M.lattice, M.rows
    pts = np.arange(prior.m, dtype=float)
    stage_sets = [
        WeightedSampleSet(np.repeat(pts, lat.points[i])) for i in range(lat.size)
    ]
    first = multinomial_pmf_vector(lat, prior)

    def recurse(prefix: list[int], prob: float) -> float:
        if prob == 0.0:
            return 0.0
        if len(prefix) == k:
            return prob * debiased_realization(
                [stage_sets[i] for i in prefix], functional, k
            )
        cond = step[prefix[-1]]
        return sum(
            recurse(prefix + [j], prob * cond[j])
            for j in range(lat.size)
            if cond[j] > 0.0
        )

    return sum(
        recurse([i], float(first[i])) for i in range(lat.size) if first[i] > 0.0
    )
