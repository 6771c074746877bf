"""Independent reference implementations used by the tests.

Everything here is deliberately naive: itertools enumeration, exact Fraction
arithmetic, and recursive nested expectations. Slow but trustworthy on the
tiny cases the tests use.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

import numpy as np


def brute_lattice(n, m):
    """All count vectors of length m summing to n, ascending lexicographic."""
    points = [c for c in product(range(n + 1), repeat=m) if sum(c) == n]
    return sorted(points)


def exact_multinomial_pmf(nu, probs):
    """Multinomial pmf as an exact Fraction; probs are Fractions summing to 1."""
    nu = [int(c) for c in nu]
    coef = factorial(sum(nu))
    for c in nu:
        coef //= factorial(c)
    value = Fraction(coef)
    for c, p in zip(nu, probs):
        if c > 0:
            if p == 0:
                return Fraction(0)
            value *= Fraction(p) ** c
    return value


def to_fractions(q, denom=10**12):
    """Snap floats to nearby Fractions with a common denominator, sum exactly 1."""
    fracs = [Fraction(round(float(x) * denom), denom) for x in q]
    fracs[-1] = 1 - sum(fracs[:-1])
    return fracs


def resample_expectation(g, p_fracs, n):
    """E[g(counts/n)] with counts ~ Multinomial(n, p); exact pmf, float g."""
    m = len(p_fracs)
    total = 0.0
    for nu in brute_lattice(n, m):
        w = exact_multinomial_pmf(nu, p_fracs)
        if w != 0:
            total += float(w) * g(np.array(nu) / n)
    return total


def resample_power(g, p_fracs, n, j):
    """j-fold nested resampling expectation of g, starting from p."""
    if j == 0:
        return g(np.array([float(p) for p in p_fracs]))
    m = len(p_fracs)
    total = 0.0
    for nu in brute_lattice(n, m):
        w = exact_multinomial_pmf(nu, p_fracs)
        if w != 0:
            inner = resample_power(g, [Fraction(c, n) for c in nu], n, j - 1)
            total += float(w) * inner
    return total


def debias_combination_at(g, counts, k):
    """Signed combination of nested resampling powers evaluated at counts/n."""
    n = sum(counts)
    p = [Fraction(c, n) for c in counts]
    return sum(
        comb(k, j + 1) * (-1) ** j * resample_power(g, p, n, j) for j in range(k)
    )


def debiased_mean_direct(g, q_fracs, n, k):
    """Expectation of the signed combination: powers 1..k with mean weights."""
    return sum(
        comb(k, j) * (-1) ** (j - 1) * resample_power(g, q_fracs, n, j)
        for j in range(1, k + 1)
    )


def chain_realization_mean(functional_values, q_fracs, n, k, weights):
    """Expectation of the k-stage chain realization by full enumeration.

    ``functional_values`` maps a counts tuple to the functional's value at the
    sample set with those counts. Stage 1 ~ Multinomial(n, q); stage j+1 ~
    Multinomial(n, stage_j / n). The realization of a chain is the weighted
    sum of the functional across its stages.
    """
    m = len(q_fracs)
    lattice = brute_lattice(n, m)

    def expect_from(current, level):
        # E[ sum_{j >= level} weights[j] f(stage_{j+1}) | stage_{level+1} = current ]
        value = weights[level] * functional_values[current]
        if level < k - 1:
            step = [Fraction(c, n) for c in current]
            for nu in lattice:
                w = exact_multinomial_pmf(nu, step)
                if w != 0:
                    value += float(w) * expect_from(nu, level + 1)
        return value

    total = 0.0
    for nu in lattice:
        w = exact_multinomial_pmf(nu, q_fracs)
        if w != 0:
            total += float(w) * expect_from(nu, 0)
    return total


def binom_pmf_exact(n, j, p_frac):
    return comb(n, j) * Fraction(p_frac) ** j * (1 - Fraction(p_frac)) ** (n - j)


def plugin_expectation_whole(samples, likelihood, h):
    """The plug-in expectation over whole arrays, as it was computed before
    it moved to blocks."""
    log_w = likelihood.log(samples.points)
    shift = log_w.max(axis=-1, keepdims=True)
    w = np.exp(log_w - shift)
    values = np.asarray(h(samples.points), dtype=float)
    return float((w * values).sum() / w.sum())
