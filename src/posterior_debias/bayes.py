"""Likelihoods, Bayes posterior maps, plug-in functionals, and ground-truth
oracles for the Gaussian-mixture setting."""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, isnan, log, pi, sqrt
from typing import Callable

import numpy as np

from . import _workspace
from .errors import DegenerateError
from .simplex import ProbVector, _checked_int, _checked_real, _checked_vector, _is_int, _real_array

_BLOCK = 2**14  # points per block of the plug-in expectation: 128 KiB of float64
_COUNTED_CUTS = 64  # most cut points that _choice_labels counts pass by pass (<= 255)
_COUNTED_SIZE = 2**10  # fewest uniforms that _choice_labels counts pass by pass


@dataclass(frozen=True)
class BoundedLikelihood:
    """Likelihood x -> density of the observation given x, queried in log space."""

    log_fn: Callable

    def log(self, x, out=None) -> np.ndarray:
        """log_fn at the points x, as a float array. With ``out``, a writable
        float64 array of x's shape, the values go there and out is returned:
        the built-in Gaussian computes into it, and any other log_fn's result
        must hold one value per point and is copied in. That result must keep
        the real-number rule (ints or floats), else ValueError."""
        x = np.asarray(x, dtype=float)
        if isinstance(self.log_fn, _GaussianLog):
            return self.log_fn(x, out)
        values = _real_array(self.log_fn(x))
        if values is None:
            raise ValueError("likelihood must return real numbers (no bool, complex, string or object)")
        values = values.astype(float, copy=False)
        if out is None:
            return values
        if values.shape != x.shape:
            raise ValueError("likelihood must return one value per sample")
        np.copyto(out, values)
        return out


class _GaussianLog:
    """x -> const - (y_obs - x) ** 2 * inv2v, the log density of y_obs under
    N(x, noise_var): the same operations in the same order, built in ``out``
    or, without one, in one new array (an array even for a 0-d x)."""

    def __init__(self, y_obs: float, noise_var: float):
        self._y_obs = y_obs
        self._const = -0.5 * log(2 * pi * noise_var)
        self._inv2v = 0.5 / noise_var

    def __call__(self, x, out=None) -> np.ndarray:
        d = np.subtract(self._y_obs, x, out=np.empty(np.shape(x)) if out is None else out)
        d *= d
        d *= self._inv2v
        return np.subtract(self._const, d, out=d)


def gaussian_likelihood(y_obs: float, noise_var: float) -> BoundedLikelihood:
    """Density of y_obs under N(x, noise_var > 0), as a function of x."""
    y_obs, noise_var = _checked_real(y_obs, "y_obs"), _checked_real(noise_var, "noise_var")
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    return BoundedLikelihood(log_fn=_GaussianLog(y_obs, noise_var))


@dataclass(frozen=True)
class DiscreteBayesMap:
    """Posterior map on a finite support: prior q -> (l_s q_s / sum_j l_j q_j).

    ``likelihoods`` holds one strictly positive likelihood value per support
    index.
    """

    likelihoods: np.ndarray

    def __post_init__(self):
        ell = _checked_vector(self.likelihoods, "likelihoods")
        if np.any(ell <= 0):
            raise ValueError("likelihoods must be > 0")
        object.__setattr__(self, "likelihoods", ell)

    @property
    def m(self) -> int:
        return self.likelihoods.size

    def posterior(self, q: ProbVector) -> ProbVector:
        """Posterior of the prior q: a ProbVector or anything its constructor
        accepts, with one entry per support index. A prior that is not a
        distribution raises ValueError; none is renormalised."""
        p = ProbVector(q).probs
        if p.size != self.m:
            raise ValueError(f"expected {self.m} prior entries, got {p.size}")
        weighted = self.likelihoods * p
        denom = weighted.sum()
        if denom == 0.0:
            raise DegenerateError("posterior denominator underflowed to zero")
        return ProbVector(weighted / denom)

    def component(self, s: int) -> "_PosteriorComponent":
        """Scalar map q -> posterior probability of support index s.

        The returned callable accepts any point of the simplex (not only
        lattice points), so it plugs directly into the exact operator module,
        which evaluates it over a whole lattice at once. s keeps the integer
        rule (ValueError naming s); an integer outside [0, m) is an IndexError.
        """
        if _is_int(s) and not 0 <= s < self.m:
            raise IndexError(f"component {s} outside support range [0, {self.m})")
        return _PosteriorComponent(self.likelihoods, _checked_int(s, "s", 0, self.m - 1))


class _PosteriorComponent:
    """q -> l_s q_s / sum_j l_j q_j for one support index s, at one point
    (a call) or at every row of a grid (on_grid), with the same bits."""

    def __init__(self, likelihoods: np.ndarray, s: int):
        self._ell = likelihoods
        self._s = s
        self._ell_s = float(likelihoods[s])

    def __call__(self, x) -> float:
        # The bits of float(ell[s] * x[s]) / float(ell @ x), with less numpy
        # dispatch per call.
        x = np.asarray(x, dtype=float)
        denom = float(self._ell.dot(x))
        if denom == 0.0:
            raise DegenerateError("posterior denominator underflowed to zero")
        return self._ell_s * x.item(self._s) / denom

    def on_grid(self, grid: np.ndarray) -> np.ndarray:
        """The call at every row of the (L, m) float array ``grid``. np.vecdot
        makes the same per-row BLAS ddot that ell.dot(x) makes (grid @ ell
        and einsum round differently), and ell_s * x_s is x_s * ell_s."""
        denom = np.vecdot(grid, self._ell)
        if (denom == 0.0).any():
            raise DegenerateError("posterior denominator underflowed to zero")
        vals = grid[:, self._s] * self._ell_s
        vals /= denom
        return vals


def discrete_bayes(bayes_map: DiscreteBayesMap, q) -> ProbVector:
    """Posterior probability vector for a discrete prior q."""
    return bayes_map.posterior(q)


@dataclass(frozen=True)
class WeightedSampleSet:
    """Sample locations with multiplicity (an empirical distribution)."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _checked_vector(self.points, "points"))

    @property
    def n(self) -> int:
        return self.points.size


def plugin_posterior_prob(
    samples: WeightedSampleSet, likelihood: BoundedLikelihood, event: Callable
) -> float:
    """Plug-in posterior probability of an event under the empirical prior.

    Returns sum_i l(X_i) 1[X_i in A] / sum_i l(X_i), with the likelihood
    evaluated in log space and shifted by its max before exponentiation.
    Past 2^14 points, ``likelihood.log`` and ``event`` get slices, as
    plugin_expectation describes, so both must act elementwise.
    """
    return float(
        _plugin_expectation(samples.points, likelihood, lambda x: np.asarray(event(x), bool))
    )


def plugin_expectation(
    samples: WeightedSampleSet, likelihood: BoundedLikelihood, h: Callable
) -> float:
    """Plug-in posterior expectation sum_i l(X_i) h(X_i) / sum_i l(X_i).

    Up to 2^14 points, ``likelihood.log`` and ``h`` are applied once to the
    whole set. Past that they are applied block by block, to consecutive
    slices of at most 2^14 points, each point once: the log weights are
    kept in a work buffer of the set's size between the max-shift and the
    sums. So both must act elementwise: one output per input point,
    depending on that point only. A likelihood of +inf or NaN at any point,
    or an h that returns anything but bools or real numbers (complex,
    strings, objects such as None), raises ValueError.
    """
    return float(_plugin_expectation(samples.points, likelihood, h))


def _plugin_expectation(
    points: np.ndarray, likelihood: BoundedLikelihood, h: Callable, log_w: np.ndarray | None = None
) -> np.ndarray:
    # Plug-in expectation of h per sample set along the first axis: (n,) ->
    # a scalar, (n, b) -> (b,), one set per column. likelihood.log writes
    # the log weights into log_w, a C-contiguous float64 array of the
    # points' shape (without one, a pooled work buffer), in blocks of whole
    # point rows. Each set's max is its shift: a max is exact in any order,
    # NaN propagates through it, and a 0.0 and a -0.0 shift give the same
    # exp. A denominator then underflows only if every likelihood of its set
    # is zero; a NaN makes its set's max NaN and a +inf makes it +inf, and
    # the min and max over the sets find all three faults before any exp.
    # The buffer then turns into weights in place, h multiplies in block by
    # block, and den and num are sums over the points, pairwise for one set
    # and in point order per column; every reduce runs along whole rows of b
    # sets. So likelihood.log and h each see every point once, and h
    # identically 1 gives 1, as num and den take the same sums.
    n = points.shape[0]
    buf = None
    if log_w is None:
        buf = _workspace.checkout(points.size)
        log_w = buf.reshape(points.shape)
    try:
        for lo in range(0, n, _BLOCK):
            likelihood.log(points[lo : lo + _BLOCK], log_w[lo : lo + _BLOCK])
        shift = np.maximum.reduce(log_w, axis=0)
        lowest, highest = shift.min(), shift.max()
        if np.isnan(lowest):
            raise ValueError("likelihood returned NaN")
        if highest == float("inf"):
            raise ValueError("likelihood returned +inf; it must be bounded")
        if lowest == float("-inf"):
            raise DegenerateError("all sample likelihoods underflowed to zero")
        log_w -= shift
        np.exp(log_w, out=log_w)
        den = np.add.reduce(log_w, axis=0)
        for lo in range(0, n, _BLOCK):
            x = points[lo : lo + _BLOCK]
            values = np.asarray(h(x))
            # w times a boolean mask is w times its 0.0/1.0 copy, bit for
            # bit, so an event multiplies in as it is; any other h must keep
            # the real-number rule and goes through float.
            if values.dtype != bool:
                if _real_array(values) is None:
                    raise ValueError(f"h must return bools or real numbers, got {values.dtype}")
                values = values.astype(float, copy=False)
            if values.shape != x.shape:
                raise ValueError("h must return one value per sample")
            log_w[lo : lo + _BLOCK] *= values
        num = np.add.reduce(log_w, axis=0)
    finally:
        if buf is not None:
            _workspace.release(buf)
    return num / den


def _choice_cuts(p: np.ndarray) -> np.ndarray:
    """The label cut points of rng.choice(p.size, p=p): its cdf, normalised
    by its last entry, without that entry."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf[:-1]


def _choice_labels(u: np.ndarray, cuts: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> None:
    """Write into ``labels``, a contiguous 1-d integer array, the number of
    cut points at or below each uniform in the 1-d ``u``; the bool array
    ``mask`` (of u's size) and the labels' own bytes are work space.
    rng.choice(p.size, p=p) turns the same uniforms into the same labels
    with cdf.searchsorted(u, side="right"): u < 1 = cdf[-1], so the last
    entry never counts. One compare pass per cut, added up in the mask's
    bytes and copied into the labels once, beats the binary search from
    about 1,024 uniforms on, up to a cut count that grows with their
    number: on a 2-core x86-64 host, about 144 cuts at 8,192 uniforms and
    between 64 and 128 at 4,096. Each pass costs about 1 us whatever its
    size, so below 1,024 uniforms, and past _COUNTED_CUTS, the search is
    used. A byte holds a count of at most 255, and bytes add to bytes with
    no cast, where a bool mask added to the labels took a 64 KB buffer."""
    if cuts.size > _COUNTED_CUTS or u.size < _COUNTED_SIZE:
        labels[...] = cuts.searchsorted(u, side="right")
        return
    if not cuts.size:
        labels.fill(0)
        return
    counts = mask.view(np.uint8)
    hit = labels.view(np.uint8)[: u.size]  # overwritten by the copy below
    np.greater_equal(u, cuts[0], mask)
    for cut in cuts[1:]:
        np.greater_equal(u, cut, hit.view(bool))
        counts += hit
    np.copyto(labels, counts)


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture prior on the real line; the weights are a
    distribution, so they also pass ProbVector's checks."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = ProbVector(_checked_vector(self.weights, "weights")).probs
        mu = _checked_vector(self.means, "means")
        var = _checked_vector(self.variances, "variances")
        if not w.size == mu.size == var.size:
            raise ValueError("weights, means, variances must have the same length")
        if (var <= 0).any():
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)
        object.__setattr__(self, "_cuts", _choice_cuts(w))
        object.__setattr__(self, "_sds", np.sqrt(var))

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draws of the given size (an int or a shape) from the generator:
        component labels first, then one standard normal per draw.

        A label is the number of cut points at or below one uniform, which
        is what rng.choice(..., p=weights) computes with searchsorted from
        the same uniforms, so the stream is unchanged. An int size, and each
        entry of a shape, must be an integer >= 0 (ValueError naming size)."""
        if isinstance(size, tuple):
            size = tuple(_checked_int(s, "size", 0) for s in size)
        else:
            size = _checked_int(size, "size", 0)
        out = np.empty(size)
        self._fill(out, rng)
        return out

    def _fill(self, out: np.ndarray, rng: np.random.Generator) -> None:
        # sample(out.shape, rng) written into the C-contiguous float64 out
        # (a generator raises on any other). out holds the uniforms until
        # they are labelled, then the normals; the labels and the mask are
        # work buffers, and each block's gathered scales, then means, go
        # into one block-sized work buffer.
        size = out.size
        comp = _workspace.checkout(size, np.intp)
        mask = _workspace.checkout(size, bool)
        gathered = _workspace.checkout(min(size, _BLOCK))
        try:
            rng.random(out=out)
            x = out.reshape(size)
            _choice_labels(x, self._cuts, comp, mask)
            rng.standard_normal(out=out)
            for lo in range(0, size, _BLOCK):
                part, labels = x[lo : lo + _BLOCK], comp[lo : lo + _BLOCK]
                g = gathered[: part.size]
                # The labels are in range, so "clip" changes none of them
                # and spares take its buffered copy of ``out``.
                part *= self._sds.take(labels, out=g, mode="clip")
                part += self.means.take(labels, out=g, mode="clip")
        finally:
            _workspace.release(comp, mask, gathered)


def _normal_tail(z: float) -> float:
    # P(Z >= z) for standard normal Z.
    return 0.5 * erfc(z / sqrt(2.0))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def mixture_posterior_tail_prob(
    prior: GaussianMixture, noise_var: float, y_obs: float, threshold: float
) -> float:
    """True posterior probability P(X >= threshold | Y = y_obs) for a Gaussian
    mixture prior and Gaussian observation noise.

    Conjugate algebra per component: the component posterior is Gaussian with
    variance (1/sigma^2 + 1/noise_var)^{-1}; component weights are
    proportional to prior weight times the marginal density of y_obs under
    that component (variance sigma^2 + noise_var). Weights are combined in
    log space; tails use the complementary normal CDF. Overflows give IEEE
    results without a warning. A y_obs at which every component weight
    underflows to zero, or a probability left NaN (0 * inf), raises
    DegenerateError.

    Parameters
    ----------
    prior : GaussianMixture
        The prior over x.
    noise_var : float
        Variance of the Gaussian observation noise, > 0.
    y_obs : float
        Observed value of y.
    threshold : float
        The event is the half-line {x >= threshold}, which may be +-inf.
    """
    noise_var, y_obs = _checked_real(noise_var, "noise_var"), _checked_real(y_obs, "y_obs")
    threshold = _checked_real(threshold, "threshold", finite=False)
    if noise_var <= 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    log_w = np.empty(prior.weights.size)
    post_mean = np.empty(prior.weights.size)
    post_var = np.empty(prior.weights.size)
    for i in range(prior.weights.size):
        w, mu, s2 = prior.weights[i], prior.means[i], prior.variances[i]
        marginal_var = s2 + noise_var
        log_w[i] = (
            (log(w) if w > 0 else -np.inf)
            - 0.5 * log(2 * pi * marginal_var)
            - (y_obs - mu) ** 2 / (2 * marginal_var)
        )
        v = 1.0 / (1.0 / s2 + 1.0 / noise_var)
        post_var[i] = v
        post_mean[i] = v * (mu / s2 + y_obs / noise_var)
    if log_w.max() == -np.inf:
        raise DegenerateError(f"no mixture component has a nonzero weight at y_obs={y_obs!r}")
    log_w -= log_w.max()
    w_post = np.exp(log_w)
    w_post /= w_post.sum()
    tails = [
        _normal_tail((threshold - post_mean[i]) / sqrt(post_var[i]))
        for i in range(w_post.size)
    ]
    prob = float(w_post @ tails)
    if isnan(prob):
        raise DegenerateError("the posterior tail probability is NaN at these mixture parameters")
    return prob
