"""Likelihoods, Bayes posterior maps, plug-in functionals, and ground-truth
oracles for the Gaussian-mixture setting."""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import DegenerateError
from .simplex import ProbVector, _checked_vector

_BLOCK = 2**14  # points per block of the plug-in expectation: 128 KiB of float64


@dataclass(frozen=True)
class BoundedLikelihood:
    """Likelihood x -> density of the observation given x, queried in log space."""

    log_fn: Callable

    def log(self, x) -> np.ndarray:
        return np.asarray(self.log_fn(np.asarray(x, dtype=float)), dtype=float)


def gaussian_likelihood(y_obs: float, noise_var: float) -> BoundedLikelihood:
    """Density of y_obs under N(x, noise_var), as a function of x."""
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    const = -0.5 * log(2 * pi * noise_var)
    inv2v = 0.5 / noise_var

    def log_fn(x):
        # const - (y_obs - x) ** 2 * inv2v, the same operations in the same
        # order, built in one temporary (an array even for a 0-d x).
        d = np.subtract(y_obs, x, out=np.empty(np.shape(x)))
        d *= d
        d *= inv2v
        return np.subtract(const, d, out=d)

    return BoundedLikelihood(log_fn=log_fn)


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

    def component(self, s: int) -> Callable:
        """Scalar map q -> posterior probability of support index s.

        The returned callable accepts any point of the simplex (not only
        lattice points), so it plugs directly into the exact operator module.
        """
        if not 0 <= s < self.m:
            raise IndexError(f"component {s} outside support range [0, {self.m})")
        ell = self.likelihoods
        ell_s = float(ell[s])

        # The bits of float(ell[s] * x[s]) / float(ell @ x), with less numpy
        # dispatch per call: the exact path calls this at every lattice point.
        def g_s(x) -> float:
            x = np.asarray(x, dtype=float)
            denom = float(ell.dot(x))
            if denom == 0.0:
                raise DegenerateError("posterior denominator underflowed to zero")
            return ell_s * x.item(s) / denom

        return g_s


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
    slices of at most 2^14 points, and ``likelihood.log`` twice per point
    (once for the max-shift, once for the weights). So both must act
    elementwise: one output per input point, depending on that point only.
    """
    return float(_plugin_expectation(samples.points, likelihood, h))


def _pairwise(block_sums: Callable, lo: int, hi: int) -> tuple:
    # Adds up the pairs block_sums(a, b) returns for pieces [a, b) of
    # [lo, hi) of at most _BLOCK points. [lo, hi) is split and the halves
    # added as numpy's pairwise sum does for more than 128 entries: halve,
    # then round down to a multiple of 8. numpy sums a piece on its own as
    # it sums that subtree of the whole array, so when block_sums returns
    # .sum() of its piece, the result is bit for bit .sum() of the whole.
    if hi - lo <= _BLOCK:
        return block_sums(lo, hi)
    half = (hi - lo) // 2
    half -= half % 8
    num_a, den_a = _pairwise(block_sums, lo, lo + half)
    num_b, den_b = _pairwise(block_sums, lo + half, hi)
    return num_a + num_b, den_a + den_b


def _log_weights(x: np.ndarray, likelihood: BoundedLikelihood) -> np.ndarray:
    log_w = likelihood.log(x)
    if log_w.shape != x.shape:
        raise ValueError("likelihood must return one value per sample")
    return log_w


def _weighted_sums(x: np.ndarray, log_w: np.ndarray, shift, w: np.ndarray, h: Callable) -> tuple:
    # Writes the shifted weights into w and returns (sum of w * h(x),
    # sum of w) along the last axis.
    np.subtract(log_w, shift, out=w)
    np.exp(w, out=w)
    den = w.sum(axis=-1)
    values = np.asarray(h(x))
    if values.shape != x.shape:
        raise ValueError("h must return one value per sample")
    # w times a boolean mask is w times its 0.0/1.0 copy, bit for bit, so
    # an event multiplies in as it is; any other h goes through float.
    w *= values if values.dtype == bool else values.astype(float, copy=False)
    return w.sum(axis=-1), den


def _plugin_expectation(
    points: np.ndarray, likelihood: BoundedLikelihood, h: Callable
) -> np.ndarray:
    # Plug-in expectation of h per sample set along the last axis: (..., n)
    # -> (...). Log weights are shifted by each set's max, so a denominator
    # underflows only if every likelihood of its set is zero; a NaN makes
    # its set's max NaN, and the min over the sets finds both faults. Past
    # one block, a first pass takes the shift and a second sums block by
    # block in one work buffer, with the bits of whole-row sums (see
    # _pairwise). num and den take the same sums, so h identically 1 gives 1.
    n = points.shape[-1]
    if n <= _BLOCK:
        log_w = _log_weights(points, likelihood)
        shift = log_w.max(axis=-1, keepdims=True)
    else:
        shift = np.full(points.shape[:-1] + (1,), -np.inf)
        for lo in range(0, n, _BLOCK):
            x = points[..., lo : lo + _BLOCK]
            np.maximum(shift, _log_weights(x, likelihood).max(axis=-1, keepdims=True), out=shift)
    lowest = shift.min()
    if np.isnan(lowest):
        raise ValueError("likelihood returned NaN")
    if lowest == float("-inf"):
        raise DegenerateError("all sample likelihoods underflowed to zero")
    if n <= _BLOCK:
        num, den = _weighted_sums(points, log_w, shift, np.empty(points.shape), h)
    else:
        work = np.empty(points.size // n * _BLOCK)

        def block_sums(lo: int, hi: int) -> tuple:
            x = points[..., lo:hi]
            w = work[: x.size].reshape(x.shape)
            return _weighted_sums(x, _log_weights(x, likelihood), shift, w, h)

        num, den = _pairwise(block_sums, 0, n)
    return num / den


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
        # The label cut points of rng.choice(size, p=weights): its cdf,
        # normalised by its last entry, without that entry.
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_cuts", cdf[:-1])
        object.__setattr__(self, "_sds", np.sqrt(var))

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draws of the given size (an int or a shape) from the generator:
        component labels first, then one standard normal per draw.

        A label is the number of cut points at or below one uniform, which
        is what rng.choice(..., p=weights) computes with searchsorted from
        the same uniforms, so the stream is unchanged."""
        u = rng.random(size)
        comp = np.zeros(u.shape, dtype=np.intp)
        for cut in self._cuts:
            comp += u >= cut
        del u  # at most three draw-sized arrays alive from here on
        x = rng.standard_normal(size)
        x *= self._sds.take(comp)
        x += self.means.take(comp)
        return x


def _normal_tail(z: float) -> float:
    # P(Z >= z) for standard normal Z.
    return 0.5 * erfc(z / sqrt(2.0))


def mixture_posterior_tail_prob(
    prior: GaussianMixture, noise_var: float, y_obs: float, threshold: float
) -> float:
    """True posterior probability P(X >= threshold | Y = y_obs) for a Gaussian
    mixture prior and Gaussian observation noise.

    Conjugate algebra per component: the component posterior is Gaussian with
    variance (1/sigma^2 + 1/noise_var)^{-1}; component weights are
    proportional to prior weight times the marginal density of y_obs under
    that component (variance sigma^2 + noise_var). Weights are combined in
    log space; tails use the complementary normal CDF. A y_obs at which every
    component weight underflows to zero raises DegenerateError.

    Parameters
    ----------
    prior : GaussianMixture
        The prior over x.
    noise_var : float
        Variance of the Gaussian observation noise, > 0.
    y_obs : float
        Observed value of y.
    threshold : float
        The event is the half-line {x >= threshold}.
    """
    if not noise_var > 0:
        raise ValueError(f"noise variance must be positive, got {noise_var}")
    log_w = np.empty(prior.weights.size)
    post_mean = np.empty(prior.weights.size)
    post_var = np.empty(prior.weights.size)
    for i in range(prior.weights.size):
        w, mu, s2 = prior.weights[i], prior.means[i], prior.variances[i]
        marginal_var = s2 + noise_var
        with np.errstate(over="ignore"):  # a y_obs this far out gives weight 0
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
    return float(w_post @ tails)
