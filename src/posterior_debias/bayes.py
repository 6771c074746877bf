"""Likelihoods, Bayes posterior maps, plug-in functionals, and ground-truth
oracles for the Gaussian-mixture setting."""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, log, pi, sqrt
from typing import Callable

import numpy as np

from .errors import DegenerateError
from .simplex import ProbVector


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
        return const - (y_obs - x) ** 2 * inv2v

    return BoundedLikelihood(log_fn=log_fn)


@dataclass(frozen=True)
class DiscreteBayesMap:
    """Posterior map on a finite support: prior q -> (l_s q_s / sum_j l_j q_j).

    ``likelihoods`` holds one strictly positive likelihood value per support
    index.
    """

    likelihoods: np.ndarray

    def __post_init__(self):
        ell = np.array(self.likelihoods, dtype=float)
        ell.flags.writeable = False
        if ell.ndim != 1 or ell.size == 0:
            raise ValueError("likelihoods must be a nonempty 1-d vector")
        if not np.all(np.isfinite(ell)) or np.any(ell <= 0):
            raise ValueError("likelihood values must be finite and > 0")
        object.__setattr__(self, "likelihoods", ell)

    @property
    def m(self) -> int:
        return self.likelihoods.size

    def posterior(self, q) -> ProbVector:
        p = np.asarray(q.probs if isinstance(q, ProbVector) else q, dtype=float)
        if p.shape != (self.m,):
            raise ValueError(f"expected {self.m} prior entries, got shape {p.shape}")
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

        def g_s(x) -> float:
            x = np.asarray(x, dtype=float)
            denom = float(ell @ x)
            if denom == 0.0:
                raise DegenerateError("posterior denominator underflowed to zero")
            return float(ell[s] * x[s]) / denom

        return g_s


def discrete_bayes(bayes_map: DiscreteBayesMap, q) -> ProbVector:
    """Posterior probability vector for a discrete prior q."""
    return bayes_map.posterior(q)


@dataclass(frozen=True)
class WeightedSampleSet:
    """Sample locations with multiplicity (an empirical distribution)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("need at least one sample point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.size


def _plugin_weights(points: np.ndarray, likelihood: BoundedLikelihood) -> np.ndarray:
    # Max-shifted in log space along the last axis: after the shift the
    # largest weight of each sample set is 1, so a denominator cannot
    # underflow unless every likelihood of that set is zero. The max of a
    # set holding a NaN is NaN, and the min over the sets propagates it, so
    # one scalar finds both faults.
    log_w = likelihood.log(points)
    shift = log_w.max(axis=-1, keepdims=True)
    lowest = shift.min()
    if np.isnan(lowest):
        raise ValueError("likelihood returned NaN")
    if lowest == float("-inf"):
        raise DegenerateError("all sample likelihoods underflowed to zero")
    return np.exp(log_w - shift)


def plugin_posterior_rows(
    points: np.ndarray, likelihood: BoundedLikelihood, event: Callable
) -> np.ndarray:
    """Plug-in posterior probability of an event for each sample set along
    the last axis of ``points``: (..., n) -> (...).

    Each entry is computed with the same float operations as
    plugin_posterior_prob on that one set, so the two agree bit for bit.
    """
    w = _plugin_weights(points, likelihood)
    member = np.asarray(event(points), dtype=bool)
    if member.shape != points.shape:
        raise ValueError("event predicate must return one bool per sample")
    return (w * member).sum(axis=-1) / w.sum(axis=-1)


def plugin_posterior_prob(
    samples: WeightedSampleSet, likelihood: BoundedLikelihood, event: Callable
) -> float:
    """Plug-in posterior probability of an event under the empirical prior.

    Returns sum_i l(X_i) 1[X_i in A] / sum_i l(X_i), with the likelihood
    evaluated in log space and shifted by its max before exponentiation.
    """
    return float(plugin_posterior_rows(samples.points, likelihood, event))


def plugin_expectation(
    samples: WeightedSampleSet, likelihood: BoundedLikelihood, h: Callable
) -> float:
    """Plug-in posterior expectation sum_i l(X_i) h(X_i) / sum_i l(X_i)."""
    w = _plugin_weights(samples.points, likelihood)
    values = np.asarray(h(samples.points), dtype=float)
    if values.shape != samples.points.shape:
        raise ValueError("h must return one value per sample")
    return float((w * values).sum() / w.sum())


@dataclass(frozen=True)
class GaussianMixture:
    """Finite Gaussian mixture prior on the real line."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        mu = np.array(self.means, dtype=float)
        var = np.array(self.variances, dtype=float)
        for arr in (w, mu, var):
            arr.flags.writeable = False
        if not (w.shape == mu.shape == var.shape) or w.ndim != 1 or w.size == 0:
            raise ValueError("weights, means, variances must share a nonempty 1-d shape")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        if np.any(var <= 0):
            raise ValueError("component variances must be positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    def sample(self, size: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Draws of the given size (an int or a shape) from the generator:
        component labels first, then one standard normal per draw."""
        comp = rng.choice(self.weights.size, size=size, p=self.weights)
        return self.means[comp] + np.sqrt(self.variances[comp]) * rng.standard_normal(size)


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
    log space; tails use the complementary normal CDF.

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
        log_w[i] = (
            (log(w) if w > 0 else -np.inf)
            - 0.5 * log(2 * pi * marginal_var)
            - (y_obs - mu) ** 2 / (2 * marginal_var)
        )
        v = 1.0 / (1.0 / s2 + 1.0 / noise_var)
        post_var[i] = v
        post_mean[i] = v * (mu / s2 + y_obs / noise_var)
    log_w -= log_w.max()
    w_post = np.exp(log_w)
    w_post /= w_post.sum()
    tails = [
        _normal_tail((threshold - post_mean[i]) / sqrt(post_var[i]))
        for i in range(w_post.size)
    ]
    return float(w_post @ tails)
