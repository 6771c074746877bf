"""Recursive resampling chains and the outer Monte Carlo driver.

A chain starts at the observed data and repeatedly bootstraps itself; one
stage generator draws it for build_chain and debiased_expectation, and a
whole chunk of chains at once for outer_mc_batched. The order-k debiased
realization combines the plug-in functional across the first k stages with
the alternating binomial weights. Two outer drivers replicate this over
fresh datasets: outer_mc one replicate at a time, with one random stream per
replicate, and outer_mc_batched one array of replicates at a time, with one
random stream per fixed-size chunk; _outer_mc_orders, its kernel, reads
several orders from the stages of one pass. Both merge chunk moments in
chunk order, so results are bit-identical for a fixed root seed no matter
how many worker threads run.
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
_BATCH_SCHEME = 1  # version of outer_mc_batched's stream layout; bump on any change
# Fewest indices per call that _index_blocks draws from raw words, for a
# power-of-two n and for any other n: below it, reading and writing the
# generator state costs more than rng.integers does. A power of two takes a
# shift, not a multiply and a rejection test, so it pays off sooner: on a
# 2-core x86-64 host raw words tied with rng.integers near 2,048 and 5,120
# indices and won at these sizes.
_RAW_MIN_POW2 = 2560
_RAW_MIN = 6144


def _halves(words: np.ndarray) -> np.ndarray:
    # The 32-bit halves of uint64 words, low half of each word first: the
    # order in which PCG64 hands them out as next_uint32.
    return words.astype("<u8", copy=False).view("<u4")


def _index_blocks(rng: np.random.Generator, n: int, sizes: Sequence[int]):
    """Yield, for each size in ``sizes``, an int64 array of the next that
    many values of one rng.integers(0, n, sum(sizes)) call, bit for bit; once
    the generator is exhausted, rng is in the state that call leaves it in.
    The arrays are views of one buffer, so each is valid until the next.

    For a PCG64 generator, 1 < n <= 2^32 and at least _RAW_MIN values
    (_RAW_MIN_POW2 for a power-of-two n), they are computed from the
    generator's raw 64-bit words, as numpy's bounded integers are (Lemire,
    ACM TOMACS 29(1), 2019): each value takes the next 32-bit half u of the
    stream and is (u * n) >> 32, unless (u * n) mod 2^32 < (2^32 - n) mod n,
    when u is dropped for the next half. A word's unused high half waits in
    the generator state, as numpy's own draws leave it. The state is read
    at the start of a call and written back at its end, not once per
    block."""
    bg = rng.bit_generator
    low = _RAW_MIN_POW2 if n & (n - 1) == 0 else _RAW_MIN
    if sum(sizes) < low or not 1 < n <= 2**32 or type(bg) is not np.random.PCG64:
        for size in sizes:
            yield rng.integers(0, n, size=size)
        return
    state = bg.state
    pending = state["has_uint32"], state["uinteger"]
    out = _workspace.checkout(max(sizes), np.int64)
    try:
        for size in sizes:
            pending = _lemire_fill(bg, n, out[:size].view(np.uint64), *pending)
            yield out[:size]
    finally:
        _workspace.release(out)
    state = bg.state
    state["has_uint32"], state["uinteger"] = pending
    bg.state = state


def _lemire_fill(bg: np.random.PCG64, n: int, u: np.ndarray, has: int, high: int):
    """Fill the uint64 array ``u`` with the next u.size values of
    _index_blocks, drawing whole words from ``bg`` after the pending half
    ``high`` if ``has`` is 1. Return the new (has, high) pair, as PCG64
    keeps it in its has_uint32 and uinteger: high is the high half of the
    last word drawn, pending if has is 1."""
    done, size = 0, u.size
    threshold = (2**32 - n) % n  # 0 exactly when n is a power of two
    while done < size:
        start = done
        if has:
            u[done] = high
            done += 1
        need = size - done
        has = need % 2
        if need:
            halves = _halves(bg.random_raw((need + 1) // 2))
            np.copyto(u[done:], halves[:need])
            high = int(halves[-1])
        part = u[start:]
        if not threshold:  # nothing is rejected, and (u * n) >> 32 is a shift of u
            part >>= 33 - n.bit_length()
            break
        part *= n
        low = _halves(part)[::2]
        if low.min() < threshold:  # each half with chance threshold / 2^32 < n / 2^32
            kept = part[low >= threshold]
            part = part[: kept.size]
            part[...] = kept
        part >>= 32
        done = start + part.size
    return has, high


def _resample(prev: np.ndarray, stage: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the (b, n) array ``stage`` row by row with n draws with
    replacement from the same row of ``prev``, at the indices one
    rng.integers(0, n, size=(b, n)) call would give. The indices are drawn in
    blocks of at most _BLOCK, in row-major order: whole rows when more than
    one row fits in a block, pieces of one row otherwise. The blocks take the
    stream of one call (_index_blocks), so the draws do not depend on the
    block size. The indices are in range, so take's "clip" changes none of
    them and spares it a buffered copy of ``out``."""
    b, n = prev.shape
    rows = _BLOCK // n
    if rows == 0 or b == 1:
        blocks = [
            (prev[r], stage[r, lo : lo + _BLOCK]) for r in range(b) for lo in range(0, n, _BLOCK)
        ]
    else:
        blocks = [(prev[r : r + rows], stage[r : r + rows]) for r in range(0, b, rows)]
        # Row i of a block starts at entry i * n of the block, so one flat
        # take gathers what take_along_axis(block, idx, axis=1) does. The
        # row offsets are spread over the block's destination, free until
        # the take, so the add broadcasts nothing and takes no ufunc buffer.
        offsets = np.arange(0, min(rows, b) * n, n)[:, None]
    draws = _index_blocks(rng, n, [dst.size for _, dst in blocks])
    # strict: the draws are exhausted too, which leaves rng in its final state.
    for (src, dst), idx in zip(blocks, draws, strict=True):
        if dst.ndim == 2:
            idx = idx.reshape(dst.shape)
            spread = dst.view(np.int64)
            np.copyto(spread, offsets[: len(dst)])
            idx += spread
        src.take(idx, out=dst, mode="clip")


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


def _drive(run_span: Callable, n_reps: int, chunk: int, threads: int) -> list[MCResult]:
    """Split replicates 0..n_reps-1 into spans of ``chunk`` and reduce each
    span with ``run_span(index, lo, hi)`` to a list of partials, one per
    result: a (count, mean, M2) triple, or None where that result has no
    replicate in the span. Spans run on a pool of ``threads`` when there is
    more than one, and each result merges its partials in span order, so
    the thread count changes no bit of it. The pool has at most one thread
    per span and one per CPU, and runs each span in a copy of the caller's
    context, so np.errstate holds there too. Every result shares the
    wall time of the whole run."""
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
    wall_time = time.perf_counter() - start
    results = []
    for parts in zip(*partials):
        count, mean, m2 = 0, 0.0, 0.0
        for part in filter(None, parts):
            count, mean, m2 = _merge((count, mean, m2), part)
        variance = m2 / (count - 1) if count > 1 else 0.0
        results.append(MCResult(mean, variance, sqrt(variance / count), count, wall_time))
    return results


def outer_mc(prior_sampler: Callable, functional: Callable, cfg: MCConfig) -> MCResult:
    """Replicate the debiased realization over N fresh datasets.

    prior_sampler(n, rng) must return a WeightedSampleSet drawn with the
    given generator and nothing else; the functional must be pure. Partial
    failures abort the whole run. Replicates run one at a time in Python,
    which holds the GIL, so the spans run serially whatever ``cfg.threads``
    says; the result is the same for any thread count.
    """

    def run_span(_, lo: int, hi: int) -> list[tuple[int, float, float]]:
        count, mean, m2 = 0, 0.0, 0.0
        for rep in range(lo, hi):
            v = _replicate_value(prior_sampler, functional, cfg, rep)
            count += 1
            delta = v - mean
            mean += delta / count
            m2 += delta * (v - mean)
        return [(count, mean, m2)]

    return _drive(run_span, cfg.n_reps, _CHUNK, threads=1)[0]


def _batch_rows(n: int) -> int:
    # Replicates per chunk of outer_mc_batched: a chunk's (rows, n) array
    # stays at or under 2 MB of float64. It depends on n only, so the chunk
    # layout, and with it every stream, is the same for any thread count.
    return min(_CHUNK, max(1, _workspace._CHUNK_ELEMENTS // n))


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
    by_order = _outer_mc_orders(
        batch_sampler, batch_functional, cfg.n, {cfg.k: cfg.n_reps}, cfg.root_seed, cfg.threads
    )
    return by_order[cfg.k]


def _outer_mc_orders(
    batch_sampler: Callable,
    batch_functional: Callable,
    n: int,
    reps: dict[int, int],
    root_seed: int,
    threads: int,
) -> dict[int, MCResult]:
    """outer_mc_batched at several orders k, with N_k = reps[k] replicates
    each, from one pass over chains of the deepest order.

    The chunks of _batch_rows(n) replicates span the largest N_k, with
    outer_mc_batched's seeds and draws. The functional runs once per stage,
    and order k adds w_i * f_i over the first k stages into its own values,
    in stage order, as outer_mc_batched at order k does; it reduces only
    replicates 0..N_k-1. So an order with the largest N_k has the bits of
    its own outer_mc_batched call, and any other order reads the first N_k
    replicates of the same chains. A NaN value of any order aborts the run.
    Every result shares the pass's wall time."""
    orders = sorted(reps)
    weights = [debias_weights(k) for k in orders]
    n_reps = max(reps.values())

    def run_span(chunk: int, lo: int, hi: int) -> list[tuple[int, float, float] | None]:
        b = hi - lo
        rng = np.random.default_rng(np.random.SeedSequence([root_seed, _BATCH_SCHEME, chunk]))
        values = np.zeros((len(orders), b))
        # Stage 1 is drawn into a writable buffer, which _stages takes as
        # one of its two.
        flat = _workspace.checkout(b * n)
        try:
            first = flat.reshape(b, n)
            batch_sampler(first, rng)
            for i, stage in enumerate(_stages(first, orders[-1], rng)):
                f = batch_functional(stage)
                for row, w in zip(values, weights):
                    if i < w.size:
                        row += w[i] * f
                del f  # not held while the next stage is drawn
        finally:
            _workspace.release(flat)
        if np.isnan(values).any():
            raise FloatingPointError(f"functional returned NaN in replicates {lo}..{hi - 1}")
        partials = []
        for row, k in zip(values, orders):
            row = row[: max(0, min(hi, reps[k]) - lo)]
            if row.size:
                # row.mean() and ((row - mean) ** 2).sum(), bit for bit, with
                # their reduce and square made directly.
                mean = np.add.reduce(row) / row.size
                row -= mean
                row *= row
                partials.append((row.size, float(mean), float(np.add.reduce(row))))
            else:
                partials.append(None)
        return partials

    results = _drive(run_span, n_reps, _batch_rows(n), threads)
    return dict(zip(orders, results))


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
