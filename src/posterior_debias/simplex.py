"""Discrete probability simplex: value types, count lattices, multinomial mass.

All probability-mass arithmetic is done in log space, with multinomial
coefficients taken from a table of log j!, so that lattice sizes up to
DEFAULT_LATTICE_CAP stay overflow-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb, factorial, log

import numpy as np

from .errors import CapExceededError

DEFAULT_LATTICE_CAP = 5_000_000

# Stand-in for log(0): negative enough that exp() underflows to exactly 0.0
# even after scaling by any count, small enough never to overflow.
_LOG_ZERO = -1.0e9


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)  # copy, never alias caller storage
    arr.flags.writeable = False
    return arr


def _real_array(values) -> np.ndarray | None:
    """``values`` as np.asarray sees them, before any cast, if they keep the
    package's one real-number rule, else None: integers or floats, not bools
    (True would run as 1.0), complex, strings, bytes, objects or datetimes,
    nor a list or tuple with a bool entry (a bool, or a numpy bool scalar or
    array), which np.asarray would promote."""
    if isinstance(values, (list, tuple)) and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == bool for v in values
    ):
        return None
    arr = np.asarray(values)
    return arr if arr.dtype.kind in "iuf" else None


def _checked_vector(values, name: str, finite: bool = True) -> np.ndarray:
    """The rule every vector value type keeps: a read-only float copy of
    ``values``, which must keep the real rule and be a nonempty 1-d vector
    of finite entries (with ``finite`` False, of entries other than NaN).
    The ValueError otherwise names the field."""
    arr = _real_array(values)
    if arr is None:
        raise ValueError(f"{name} must be real (int or float; no bool, complex, string or object)")
    v = _frozen_array(arr, float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(v).all() and (finite or np.isnan(v).any()):
        raise ValueError(f"{name} must be finite" if finite else f"{name} must not be NaN")
    return v


def _checked_real(value, name: str, finite: bool = True) -> float:
    """``value`` as a float, by the rule of _checked_vector for one value,
    which must be a scalar: a list or an array of one entry is not."""
    if np.ndim(value):
        raise ValueError(f"{name} must be one real number, got {value!r}")
    return _checked_vector([value], name, finite).item()


def _is_int(value) -> bool:
    """The package's one integer rule: an int or a numpy integer. A bool is
    not one (True would run as 1), nor is a float, even one equal to an
    integer (2.0)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, which must keep the integer rule and lie in
    [low, high] (high None: no upper end). The ValueError otherwise names
    the argument."""
    if not (_is_int(value) and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name!r} must be an integer {bounds}, got {value!r}")
    return int(value)


def _checked_counts(values, name: str) -> np.ndarray:
    """The rule of every count vector: a read-only int64 copy of ``values``,
    a nonempty 1-d vector of integer-valued entries >= 0 (3.0 is a count,
    1.5 is not). The ValueError otherwise names the field."""
    c = _checked_vector(values, name)
    if not np.array_equal(c, np.rint(c)):
        raise ValueError(f"{name} must be integers")
    if np.any(c < 0):
        raise ValueError(f"{name} must be non-negative")
    return _frozen_array(c, np.int64)


@dataclass(frozen=True)
class ProbVector:
    """Point on the probability simplex: entries >= 0 summing to 1 (tol 1e-12)."""

    probs: np.ndarray

    def __post_init__(self):
        p = _checked_vector(self.probs, "probs")
        if np.any(p < 0):
            raise ValueError(f"negative probability entry: min={p.min()}")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def m(self) -> int:
        return self.probs.size

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.probs, dtype=dtype)


@dataclass(frozen=True)
class CountsVector:
    """Empirical counts over m categories; sum of entries is the sample size n."""

    counts: np.ndarray

    def __post_init__(self):
        c = _checked_counts(self.counts, "counts")
        if c.sum() < 1:
            raise ValueError("counts must sum to at least 1")
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def m(self) -> int:
        return self.counts.size

    def fractions(self) -> np.ndarray:
        """The empirical probability vector counts/n."""
        return self.counts / self.n

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.counts, dtype=dtype)


def _lattice_points(n: int, m: int, size: int) -> np.ndarray:
    # Ascending lexicographic enumeration of the size = C(n + m - 1, m - 1)
    # points of {nu in N^m : sum nu = n}, by stars and bars: combinations()
    # yields the m - 1 bar positions among n + m - 1 slots in lexicographic
    # order, which is the order of the partial sums nu_1, nu_1 + nu_2, ...
    # and so of nu itself.
    bars = np.fromiter(
        chain.from_iterable(combinations(range(n + m - 1), m - 1)),
        dtype=np.int64,
        count=size * (m - 1),
    ).reshape(size, m - 1)
    return np.diff(bars, axis=1, prepend=-1, append=n + m - 1) - 1


@dataclass(frozen=True)
class SimplexLattice:
    """All count vectors of length m summing to n, with a fixed total order.

    Points are enumerated so that the first coordinate varies slowest; for
    m = 2 the index of (t, n-t) is simply t, matching binomial indexing.
    The enumeration is a bijection: ``index_of(points[i]) == i``.

    The lattice is built from (n, m) alone, integers >= 1 (ValueError
    otherwise); ``points`` is derived, read-only, and takes no part in
    equality. A lattice of more than DEFAULT_LATTICE_CAP points raises
    :class:`CapExceededError` instead of being built; the CLI exits 3.
    """

    n: int
    m: int
    points: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        size = lattice_size(self.n, self.m)  # the dims rule
        n, m = int(self.n), int(self.m)
        if size > DEFAULT_LATTICE_CAP:
            raise CapExceededError(
                f"lattice for n={n}, m={m} has {size} points, "
                f"over the cap of {DEFAULT_LATTICE_CAP}"
            )
        points = _lattice_points(n, m, size)
        points.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def grid(self) -> np.ndarray:
        """Lattice points scaled into the simplex, shape (size, m)."""
        return self.points / self.n

    def point(self, index: int) -> CountsVector:
        """The count vector of rank ``index``, an integer in [0, size - 1]."""
        return CountsVector(self.points[_checked_int(index, "index", 0, self.size - 1)])

    def index_of(self, counts) -> int:
        """Rank of a count vector in the enumeration (combinatorial, exact)."""
        c = _checked_counts(counts, "counts")
        if c.shape != (self.m,):
            raise ValueError(f"expected {self.m} categories, got shape {c.shape}")
        if int(c.sum()) != self.n:
            raise ValueError(f"{c.tolist()} is not on the (n={self.n}, m={self.m}) lattice")
        # Points before c that agree with it up to coordinate i and are
        # smaller there number sum_{v < c_i} C(R - v + s, s), with R the
        # count left and s = m - i - 2; by the hockey-stick identity that is
        # C(R + s + 1, s + 1) - C(R - c_i + s + 1, s + 1).
        rank = 0
        remaining = self.n
        for i in range(self.m - 1):
            slots = self.m - i - 2
            ci = int(c[i])
            rank += comb(remaining + slots + 1, slots + 1) - comb(
                remaining - ci + slots + 1, slots + 1
            )
            remaining -= ci
        return rank


def lattice_size(n: int, m: int) -> int:
    """Number of count vectors of length m summing to n: C(n+m-1, m-1).

    n and m must be integers >= 1; anything else raises ValueError.
    """
    if not (_is_int(n) and _is_int(m) and n >= 1 and m >= 1):
        raise ValueError(f"need n >= 1 and m >= 1, got n={n!r}, m={m!r}")
    return comb(int(n) + int(m) - 1, int(m) - 1)


def enumerate_lattice(n: int, m: int) -> SimplexLattice:
    """Materialize the full count lattice for (n, m): ``SimplexLattice(n, m)``."""
    return SimplexLattice(n, m)


def multinomial_pmf_vector(lattice: SimplexLattice, q: ProbVector) -> np.ndarray:
    """Pmf of every lattice point under q, as one vectorized evaluation.

    q is a ProbVector or anything its constructor accepts, so a vector that
    is not a distribution (a NaN or negative entry, a sum other than 1)
    raises ValueError; it must have one entry per category of the lattice.
    Each entry is the multinomial pmf n!/(nu_1! ... nu_m!) * prod q_j^{nu_j},
    computed in log space; categories with q_j = 0 get exact 0 mass through
    the log-zero sentinel.
    """
    p = ProbVector(q).probs
    if p.size != lattice.m:
        raise ValueError(f"expected {lattice.m} probabilities, got {p.size}")
    return np.exp(lattice.points @ _log_probs(p) + _log_coef(lattice))


def _log_coef(lattice: SimplexLattice) -> np.ndarray:
    # log n!/(nu_1! ... nu_m!) at every lattice point.
    t = _log_factorials(lattice.n)
    return t[lattice.n] - t[lattice.points].sum(axis=1)


# log(sqrt(2 pi)) and the coefficients of Stirling's series in 1/x^2, as
# Cephes lgam has them.
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _log_factorial(j: int) -> float:
    """log j!, as log Gamma(x) at x = j + 1 by Cephes lgam, the algorithm of
    scipy.special.gammaln, and with the same bits for j < 10^8 (above, Cephes
    drops the series): every operation is the same correctly rounded float64
    step, and math.log calls the C library's log, as Cephes does (a
    vectorised np.log differs in the last bit at some x)."""
    if j < 12:  # x < 13: Cephes takes the log of (x-1)(x-2)...2, exact here
        return log(float(factorial(j)))
    x = j + 1.0
    q = (x - 0.5) * log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        return q + (series + 0.0833333333333333333333) / x
    a = _STIRLING[0]
    for c in _STIRLING[1:]:
        a = a * p + c
    return q + a / x


# The one table of log j!, j = 0, 1, ...: never rebuilt, and grown only as
# far as asked, so it holds 8(n + 1) bytes for the largest n asked for. n
# stays below DEFAULT_LATTICE_CAP, which bounds it at 40 MB: a lattice with
# m >= 2 has more than n points, and _log_factorials refuses a larger n.
_log_factorial_table = np.empty(0)


def _log_factorials(n: int) -> np.ndarray:
    """The read-only table of log j!, with at least the entries j = 0..n."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        if n >= DEFAULT_LATTICE_CAP:
            raise CapExceededError(
                f"log-factorial table up to n={n} needs {n + 1} entries, "
                f"over the cap of {DEFAULT_LATTICE_CAP}"
            )
        grown = np.empty(n + 1)
        grown[: table.size] = table
        grown[table.size :] = [_log_factorial(j) for j in range(table.size, n + 1)]
        grown.flags.writeable = False
        _log_factorial_table = table = grown
    return table


def _log_probs(p: np.ndarray) -> np.ndarray:
    # Elementwise log p with the _LOG_ZERO sentinel where p = 0; p may be one
    # probability vector or a stack of them.
    return np.where(p > 0, np.log(np.where(p > 0, p, 1.0)), _LOG_ZERO)

