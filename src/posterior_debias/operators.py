"""Exact lattice realization of the resampling-expectation operator.

The operator maps g to q -> E[g(T/n)] with T ~ Multinomial(n, q); restricted
to lattice arguments it is a row-stochastic transfer matrix, so operator
powers are matrix-vector products (cost j*L^2 for lattice size L instead of
the L^j of naive nested sums). On top of it sit the alternating debiasing
combination, its exact mean over datasets, and exact bias/variance.

Every exact quantity is built from one iterate stack [g, Bg, ..., B^{k-1} g]
and the pmf of q. The last stack is kept beside the one cached matrix, keyed
by g's lattice values byte for byte, and extended on demand, so a later call
at the same (n, m) and g, at any k, makes only the matrix-vector products no
earlier call made. Each iterate is the same product of the same operands as
a fresh stack's, so every value is the same bit for bit. The matrix is
filled block by block from coefficients computed once per lattice, and each
block is checked while it is built.
"""

from __future__ import annotations

import contextlib
import mmap
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable

import numpy as np

from .bayes import _PosteriorComponent
from .errors import CapExceededError
from .simplex import (
    CountsVector,
    ProbVector,
    SimplexLattice,
    _checked_counts,
    _checked_int,
    _checked_vector,
    _log_coef,
    _log_probs,
    enumerate_lattice,
    lattice_size,
    multinomial_pmf_vector,
)

MAX_ORDER = 20  # the weights C(k, j+1) are exact in float64 up to here, but
# the float64 floor of the alternating sum grows with k: the exact bias is off
# by a relative 1.1e-1 at n = 1024, k = 6
DEFAULT_MATRIX_ENTRY_CAP = 50_000_000
# exp(x) rounds to exactly 0.0 for every float64 x below -745.14, and np.exp
# is about 11 times slower on such inputs than on ones it can represent
# (numpy 2.4 on a 2-core x86-64 host).
_EXP_UNDERFLOW = -746.0
_ROW_BLOCK = 1 << 16  # matrix entries per block of whole rows that a build
# fills and checks while the block is in cache


# Typed, so that an entry for 1 never answers for True, nor one for 2 for 2.0:
# the check inside runs for each type of k.
@lru_cache(maxsize=MAX_ORDER, typed=True)
def debias_weights(k: int) -> np.ndarray:
    """Alternating binomial weights of the order-k debiased estimator.

    weights[j] = C(k, j+1) * (-1)^j for j = 0..k-1; they sum to 1 exactly,
    so the combination preserves constants. The array is read-only and
    shared between calls. k must be an integer in [1, MAX_ORDER].
    """
    k = _checked_int(k, "k", 1, MAX_ORDER)
    weights = [float(comb(k, j + 1) * (-1) ** j) for j in range(k)]
    total = sum(weights)  # integer-valued floats below 2^53: the sum is exact
    if total != 1.0:
        raise ValueError(f"debias weights sum to {np.float64(total)!r}, not 1")
    w = np.array(weights)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class TransferMatrix:
    """Exact operator restricted to the arguments of ``lattice``.

    rows[i] is the multinomial pmf over the whole lattice when the prior is
    points[i]/n, so rows are non-negative and sum to 1. The read-only rows
    are derived from the lattice alone, and take no part in equality. A
    matrix of more than DEFAULT_MATRIX_ENTRY_CAP entries raises
    :class:`CapExceededError` instead of being built.
    """

    lattice: SimplexLattice
    rows: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        lat = self.lattice
        n, size = lat.n, lat.size
        if size * size > DEFAULT_MATRIX_ENTRY_CAP:
            raise CapExceededError(
                f"transfer matrix for n={n}, m={lat.m} needs {size * size} entries, "
                f"over the cap of {DEFAULT_MATRIX_ENTRY_CAP}"
            )
        # Row i is multinomial_pmf_vector(lat, points[i] / n), with its
        # coefficients and log-probabilities computed once for all rows and
        # built in place. Each row keeps its own matrix-vector product: one
        # (L, m) @ (m, L) product rounds differently. A block's rows come
        # from one stacked np.matmul of pts with the block's (m, 1)
        # log-probability columns, for which numpy makes the same BLAS dgemv
        # call per row that a per-row np.dot makes, with one dispatch per
        # block instead of per row.
        pts = lat.points.astype(float)
        log_coef = _log_coef(lat)
        log_p = _log_probs(lat.points / n)
        # The exp is taken once per block of rows, while the block is in
        # cache, and only where the log mass is at or above _EXP_UNDERFLOW:
        # below it exp is exactly 0.0, so the bits are those of exp over the
        # whole matrix (over half the entries at n = 4096). One block-sized
        # mask, reused for every block, flags the live entries for the exp,
        # then the dead ones for the zeroing, so no matrix-sized temporary is
        # made. A NaN is live, as it is not below the cut-off, and fails the
        # row-sum check. Each block is built in one reused scratch block, and
        # only its columns from the first to the last live entry are copied
        # into the matrix: the pages outside them are never written and read
        # as +0.0, the value the zeroing gives (43% of the pages at
        # n = 4096). So the scratch block holds the matrix's block bit for
        # bit, and the check reads it there, while it is in cache: every row
        # sum, with no L x L temporary. Every entry is an exp or an exact
        # 0.0, so none is negative; np.maximum carries a NaN through, and
        # a NaN anywhere fails the row-sum check.
        rows = np.ndarray((size, size), buffer=_ZeroPages(size * size * 8))
        per_block = max(1, _ROW_BLOCK // size)
        scratch = np.empty((min(per_block, size), size))
        mask = np.empty(scratch.shape, dtype=bool)
        row_err = 0.0
        for start in range(0, size, per_block):
            blk = scratch[: min(per_block, size - start)]
            np.matmul(pts, log_p[start : start + len(blk), :, None], out=blk[:, :, None])
            blk += log_coef
            flag = mask[: len(blk)]
            np.less(blk, _EXP_UNDERFLOW, out=flag)  # dead
            np.logical_not(flag, out=flag)  # live
            np.exp(blk, out=blk, where=flag)
            live = flag.any(axis=0)
            lo, hi = live.argmax(), size - live[::-1].argmax()
            np.logical_not(flag, out=flag)  # dead
            np.copyto(blk, 0.0, where=flag)
            if live[lo]:
                rows[start : start + len(blk), lo:hi] = blk[:, lo:hi]
            row_err = np.maximum(row_err, np.abs(blk.sum(axis=1) - 1.0).max())
        if not row_err <= 1e-10:  # also catches NaN, which every comparison fails
            raise ValueError(f"transfer matrix rows sum to 1 +/- {row_err}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class LatticeFunction:
    """Values of a function g at every lattice point nu/n."""

    lattice: SimplexLattice
    values: np.ndarray

    def __post_init__(self):
        v = _checked_vector(self.values, "values")
        if v.size != self.lattice.size:
            raise ValueError(f"expected {self.lattice.size} values, got {v.size}")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, g: Callable, lattice: SimplexLattice) -> "LatticeFunction":
        """g at every lattice point: one call per point, or one call over the
        whole grid for a posterior component, with the same bits."""
        grid = lattice.grid()
        if isinstance(g, _PosteriorComponent):
            vals = g.on_grid(grid)
        else:
            vals = np.array([float(g(x)) for x in grid])
        return cls(lattice=lattice, values=vals)


class _ZeroPages(mmap.mmap):
    """A private anonymous mapping of 4 KB pages. A page reads as +0.0
    through the kernel's shared zero page, which is not resident, until it
    is written. (numpy advises huge pages for an allocation this large, so
    one write there makes a whole 2 MB region resident; a shared mapping
    allocates a page on every read.)"""

    def __new__(cls, nbytes: int):
        pages = super().__new__(cls, -1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_NOHUGEPAGE"):  # Linux, where huge pages may be the default
            # Best effort: a kernel without transparent huge pages refuses
            # the advice (EINVAL), and has no huge pages to advise against.
            # The advice only changes which pages are resident, never a bit.
            with contextlib.suppress(OSError):
                pages.madvise(mmap.MADV_NOHUGEPAGE)
        return pages


def transfer_matrix(n: int, m: int) -> TransferMatrix:
    """Materialize the exact operator matrix for the (n, m) lattice, on the
    lattice the exact functions share: ``TransferMatrix(lattice)``."""
    return TransferMatrix(_cached_lattice(n, m))


def iterate_operator(g: LatticeFunction, M: TransferMatrix, j: int) -> LatticeFunction:
    """Apply the operator j times to a lattice function; j = 0 is the identity."""
    j = _checked_int(j, "j", 0)
    if g.lattice.n != M.lattice.n or g.lattice.m != M.lattice.m:
        raise ValueError("lattice mismatch between function and transfer matrix")
    v = g.values
    for _ in range(j):
        v = M.rows @ v
    return LatticeFunction(lattice=M.lattice, values=v)


def _cached_lattice(n: int, m: int) -> SimplexLattice:
    lattice_size(n, m)  # the dims rule, before (n, m) is hashed
    return _lattice_slot(int(n), int(m))


# One slot each: callers sweep (n, m) in their outermost loop, so memory stays
# at one lattice plus one matrix and its iterate stack. Nothing here is keyed
# on a caller's callable.
@lru_cache(maxsize=1)
def _lattice_slot(n: int, m: int) -> SimplexLattice:
    return enumerate_lattice(n, m)


_matrix_slot: dict[tuple[int, int], TransferMatrix] = {}
# The iterate stack (g, Bg, ..., B^j g) of the last g sampled with k > 1, as
# read-only vectors, under the (n, m) of its matrix: at most MAX_ORDER
# vectors of L floats. A call reads it once and replaces it whole, so a
# concurrent call can cost a matvec again but never mixes two stacks.
_iterate_slot: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _cached_matrix(n: int, m: int) -> TransferMatrix:
    # A miss drops the resident matrix and its iterate stack before building
    # the next one, so two matrices are never alive at once (lru_cache would
    # hold the old one while the new one is built).
    M = _matrix_slot.get((n, m))
    if M is None:
        _matrix_slot.clear()
        _iterate_slot.clear()
        M = _matrix_slot[(n, m)] = transfer_matrix(n, m)
    return M


def _operator_iterates(g: Callable, n: int, m: int, k: int) -> list[np.ndarray]:
    # [g, Bg, ..., B^{k-1} g] as read-only lattice value vectors: every
    # iterate an order-k estimate combines, so one stack up to the largest k
    # serves every smaller k too. k is checked as an order first; g must be
    # deterministic, as it is sampled onto the lattice once per call. For
    # k > 1 the matrix is built and the kept stack is used when its first
    # vector has g's bytes (+0.0 and -0.0 differ), and extended to k; k = 1
    # touches neither.
    debias_weights(k)
    values = LatticeFunction.from_callable(g, _cached_lattice(n, m)).values
    if k == 1:
        return [values]
    M = _cached_matrix(n, m).rows
    stack = _iterate_slot.get((n, m), ())
    if not stack or stack[0].tobytes() != values.tobytes():
        stack = (values,)
    if len(stack) < k:
        grown = list(stack)
        while len(grown) < k:
            grown.append(M @ grown[-1])
            grown[-1].flags.writeable = False
        stack = _iterate_slot[(n, m)] = tuple(grown)
    return list(stack[:k])


def _combination(iters: list[np.ndarray], k: int) -> np.ndarray:
    # sum_j weights[j] * B^j g over the lattice, accumulated in j order.
    w = debias_weights(k)
    debiased = np.zeros(iters[0].size)
    for j in range(k):
        debiased += w[j] * iters[j]
    return debiased


def _mean(mass: np.ndarray, iters: list[np.ndarray], k: int) -> float:
    # sum_{j=1}^{k} C(k,j)(-1)^{j-1} (B^j g)(q), with (B^j g)(q) = mass @ B^{j-1} g.
    w = debias_weights(k)  # w[j - 1] = C(k, j)(-1)^{j-1}
    return float(sum(w[j] * (mass @ iters[j]) for j in range(k)))


def _variance(mass: np.ndarray, debiased: np.ndarray) -> float:
    first = float(mass @ debiased)
    second = float(mass @ (debiased * debiased))
    return second - first * first


def _exact_bias_variance(g: Callable, q: ProbVector, n: int, k_values) -> dict:
    # {k: (bias, variance)} of the order-k debiased estimate at the prior q,
    # from one sampling of g, one pmf of q and one iterate stack up to the
    # largest k; the values equal exact_bias and exact_variance bit for bit.
    iters = _operator_iterates(g, n, q.m, max(k_values))
    mass = multinomial_pmf_vector(_cached_lattice(n, q.m), q)
    g_q = float(g(np.asarray(q)))
    return {
        k: (_mean(mass, iters, k) - g_q, _variance(mass, _combination(iters, k)))
        for k in k_values
    }


def debiased_estimate(g: Callable, T: CountsVector, k: int) -> float:
    """Order-k debiased estimate of g at the empirical point T/n.

    Returns sum_j weights[j] * (B^j g)(T/n) with the alternating binomial
    weights; k = 1 reduces to the plug-in value g(T/n).
    """
    T = CountsVector(T)
    idx = _cached_lattice(T.n, T.m).index_of(T.counts)
    return float(_combination(_operator_iterates(g, T.n, T.m, k), k)[idx])


def debiased_estimate_mean(g: Callable, q: ProbVector, n: int, k: int) -> float:
    """Exact mean of the order-k debiased estimate over T ~ Multinomial(n, q).

    Equals sum_{j=1}^{k} C(k,j)(-1)^{j-1} (B^j g)(q): applying the operator
    once to the debiasing combination telescopes into this alternating sum.
    """
    q = ProbVector(q)
    iters = _operator_iterates(g, n, q.m, k)
    return _mean(multinomial_pmf_vector(_cached_lattice(n, q.m), q), iters, k)


def exact_bias(g: Callable, q: ProbVector, n: int, k: int) -> float:
    """Exact bias of the order-k debiased estimate at the true prior q."""
    return _exact_bias_variance(g, ProbVector(q), n, (k,))[k][0]


def exact_variance(g: Callable, q: ProbVector, n: int, k: int) -> float:
    """Exact variance of the order-k debiased estimate over T ~ Multinomial(n, q)."""
    return _exact_bias_variance(g, ProbVector(q), n, (k,))[k][1]


def central_moment(n: int, q: ProbVector, alpha) -> float:
    """Mixed central moment E[prod_j (T_j/n - q_j)^{alpha_j}], exact.

    The multi-index is capped at |alpha|_1 <= 8; higher orders are outside
    the validated range of the scaling diagnostics.
    """
    q = ProbVector(q)
    a = _checked_counts(alpha, "alpha")
    if a.shape != (q.m,):
        raise ValueError(f"multi-index alpha must have length {q.m}, got shape {a.shape}")
    if a.sum() > 8:
        raise ValueError(f"|alpha|_1 = {a.sum()} over the cap of 8")
    lat = _cached_lattice(n, q.m)
    mass = multinomial_pmf_vector(lat, q)
    dev = lat.grid() - np.asarray(q)[None, :]
    term = np.prod(dev ** a[None, :], axis=1)
    return float(mass @ term)


def contraction_norm(g: Callable, n: int, m: int, r: int) -> float:
    """Sup over lattice points of |((B - I)^r g)(mu/n)|.

    For g with 2r bounded derivatives this decays like n^{-r}; constants and
    linear functions are annihilated exactly.
    """
    r = _checked_int(r, "r", 1)
    g_values, Bg = _operator_iterates(g, n, m, 2)
    v = Bg - g_values
    M = _cached_matrix(n, m).rows
    for _ in range(r - 1):
        v = M @ v - v
    return float(np.abs(v).max())
