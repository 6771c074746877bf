"""Experiment runners: exact binary sweeps, mixture Monte Carlo, identity
checks, a rejection-sampling demo, and log-log slope fitting.

Each runner takes a frozen config holding only the fields it reads, with the
experiment's defaults as field defaults; the CLI derives its flags from those
fields. Runners return plain row dicts; CSV/JSON emission lives in the CLI
layer so every number is formatted once, with round-trip-exact precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .bayes import (
    DiscreteBayesMap,
    GaussianMixture,
    discrete_bayes,
    gaussian_likelihood,
    mixture_posterior_tail_prob,
    plugin_posterior_prob,
    plugin_posterior_rows,
    BoundedLikelihood,
)
from .errors import CapExceededError, UnderpoweredRunError
from .operators import debiased_estimate, debiased_estimate_mean, exact_bias, exact_variance
from .rejection import make_rejection_spec, rejection_sample_batch
from .resampling import MCConfig, exhaustive_chain_expectation, outer_mc_batched
from .simplex import CountsVector, ProbVector

IDENTITY_TOL = 1e-10
# The random-stream layout of run_mixture_mc, recorded in its manifest.
MC_RNG_SCHEME = (
    "outer_mc_batched v1: chunk c of grid point (n, k) draws from "
    "SeedSequence([_point_seed(root_seed, n, k), 1, c])"
)
# The rejection demo expects bound * draws proposals; ten times that only
# stops a sampler that is genuinely stuck.
_ATTEMPT_CAP_FACTOR = 10


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(value) against log(size)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 2:
            raise ValueError("slope fit needs at least 2 points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")


def fit_slope(sizes, values, drop_smallest: bool = False) -> SlopeFit:
    """Least-squares slope of log(value) on log(size).

    Values must be strictly positive (a zero bias cannot be slope-fit).
    ``drop_smallest`` removes every point at the smallest size before
    fitting, for grids whose first size is still pre-asymptotic.
    """
    ns = np.asarray(sizes, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ns.ndim != 1 or ns.shape != vs.shape:
        raise ValueError("sizes and values must be 1-d and the same length")
    if drop_smallest and ns.size:
        keep = ns != ns.min()
        ns, vs = ns[keep], vs[keep]
    if ns.size < 2:
        raise ValueError("slope fit needs at least 2 points")
    if np.any(ns <= 0):
        raise ValueError("sizes must be positive")
    if np.any(vs <= 0):
        raise ValueError("slope fit needs positive values")
    x = np.log(ns)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2, points_used=ns.size
    )


def _opt(default, help: str, **meta):
    """A config field; the CLI shows ``help`` next to the flag it derives."""
    return field(default=default, metadata={"help": help, **meta})


def _check_grid(cfg) -> None:
    grid = tuple(int(n) for n in cfg.n_grid)
    if len(grid) < 2:
        raise ValueError("n_grid needs at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if grid[0] < 1:
        raise ValueError("n_grid entries must be >= 1")
    object.__setattr__(cfg, "n_grid", grid)
    ks = tuple(int(k) for k in cfg.k_values)
    if not ks or any(k < 1 for k in ks):
        raise ValueError("k_values must be non-empty positive integers")
    object.__setattr__(cfg, "k_values", ks)


@dataclass(frozen=True)
class BinaryConfig:
    """Exact sweep for the two-atom posterior; no sampling, so no seed."""

    experiment: ClassVar[str] = "binary_exact"

    n_grid: tuple[int, ...] = _opt((16, 32, 64, 128, 256, 512, 1024), "sample sizes")
    k_values: tuple[int, ...] = _opt((1, 2, 3, 4), "correction orders")
    q: float = _opt(0.4, "prior mass on atom 1")
    y_obs: float = _opt(2.0, "observed value")
    noise_var: float = _opt(1.0, "observation noise variance")

    def __post_init__(self):
        _check_grid(self)


@dataclass(frozen=True)
class MixtureConfig:
    """Monte Carlo sweep for the Gaussian-mixture tail probability."""

    experiment: ClassVar[str] = "mixture_mc"

    n_grid: tuple[int, ...] = _opt((8, 12, 16, 24, 32, 48, 64), "sample sizes")
    k_values: tuple[int, ...] = _opt((1, 2), "correction orders")
    y_obs: float = _opt(0.8, "observed value")
    noise_var: float = _opt(1.0 / 16.0, "observation noise variance")
    threshold: float = _opt(0.5, "event is {x >= threshold}")
    mix_weights: tuple[float, ...] = _opt((0.5, 0.5), "mixture prior weights")
    mix_means: tuple[float, ...] = _opt((0.0, 1.0), "mixture prior means")
    mix_variances: tuple[float, ...] = _opt((1.0, 1.0), "mixture prior variances")
    n_rule: str | None = _opt(
        None,
        "replicates per grid point: n_pow3, n_pow4 or fixed; "
        "default n^3 for k=1, n^4 otherwise",
    )
    n_fixed: int | None = _opt(None, "replicates when --n-rule fixed")
    mc_cap: int = _opt(10_000_000, "hard cap on replicates per point")
    threads: int = _opt(
        1,
        "worker threads; they speed up a grid point that spans more than one "
        "chunk of replicates, and results are identical for any count",
    )
    root_seed: int = _opt(0, "root seed", flag="--seed")

    def __post_init__(self):
        _check_grid(self)
        if self.n_rule not in (None, "n_pow3", "n_pow4", "fixed"):
            raise ValueError(f"unknown n_rule {self.n_rule!r}")
        if self.n_rule == "fixed" and (self.n_fixed is None or self.n_fixed < 1):
            raise ValueError("n_rule 'fixed' needs n_fixed >= 1")
        if self.n_rule != "fixed" and self.n_fixed is not None:
            raise ValueError("n_fixed is used only with n_rule 'fixed'")


@dataclass(frozen=True)
class IdentityConfig:
    """Exhaustive check of the debiased realization against the operator mean."""

    experiment: ClassVar[str] = "identity_check"

    n_grid: tuple[int, ...] = _opt((4, 6), "sample sizes (keep small)")
    k_values: tuple[int, ...] = _opt((1, 2), "correction orders")
    m_values: tuple[int, ...] = _opt((2, 3), "support sizes")
    root_seed: int = _opt(0, "root seed", flag="--seed")

    def __post_init__(self):
        _check_grid(self)


@dataclass(frozen=True)
class RejectionConfig:
    """Rejection sampling from the debiased two-atom posterior at one dataset."""

    experiment: ClassVar[str] = "rejection_demo"

    q: float = _opt(0.4, "prior mass on atom 1")
    y_obs: float = _opt(2.0, "observed value")
    noise_var: float = _opt(1.0, "observation noise variance")
    demo_n: int = _opt(64, "sample size of the dataset")
    demo_k: int = _opt(2, "correction order")
    demo_draws: int = _opt(100_000, "accepted draws to collect")
    root_seed: int = _opt(0, "root seed", flag="--seed")


@dataclass(frozen=True)
class FitSlopeConfig:
    """Which columns of a results CSV the fit-slope subcommand regresses."""

    x_col: str = _opt("n", "column of sizes")
    y_col: str = _opt("abs_bias", "column of values")
    where: str | None = _opt(None, "keep only rows where COL=VALUE exactly, e.g. k=2")
    abs: bool = _opt(False, "take |y| before fitting")
    drop_smallest: bool = _opt(False, "drop the smallest size from the fit")


# Public constructors: keyword overrides on top of each experiment's defaults.
default_binary_config = BinaryConfig
default_mixture_config = MixtureConfig
default_identity_config = IdentityConfig
default_rejection_config = RejectionConfig


def _binary_bayes_map(cfg: BinaryConfig | RejectionConfig) -> DiscreteBayesMap:
    # Support {0, 1}; likelihood values of the observation at each atom.
    lik = gaussian_likelihood(cfg.y_obs, cfg.noise_var)
    return DiscreteBayesMap(np.exp(lik.log(np.array([0.0, 1.0]))))


def run_binary_exact(
    cfg: BinaryConfig, g_override: Callable | None = None
) -> tuple[list[dict], dict]:
    """Exact |bias| and variance per (n, k) for the two-atom posterior map.

    No sampling is involved, so the output is deterministic. Lattice-cap
    errors are re-raised naming the offending n.
    """
    bmap = _binary_bayes_map(cfg)
    g = bmap.component(1) if g_override is None else g_override
    prior = ProbVector(np.array([1.0 - cfg.q, cfg.q]))
    rows = []
    for n in cfg.n_grid:
        for k in cfg.k_values:
            try:
                bias = exact_bias(g, prior, n, k)
                variance = exact_variance(g, prior, n, k)
            except CapExceededError as exc:
                raise CapExceededError(f"n={n}: {exc}") from exc
            rows.append(
                {"n": n, "k": k, "abs_bias": abs(bias), "variance": variance}
            )
    fits = {}
    for k in cfg.k_values:
        sub = [r for r in rows if r["k"] == k]
        fits[k] = {}
        for col in ("abs_bias", "variance"):
            vals = [r[col] for r in sub]
            if all(v > 0 for v in vals):
                fits[k][col] = fit_slope([r["n"] for r in sub], vals)
            else:
                fits[k][col] = None  # zero column (e.g. linear map) has no slope
    return rows, fits


def _mc_reps(cfg: MixtureConfig, n: int, k: int) -> int:
    rule = cfg.n_rule
    if rule is None:
        rule = "n_pow3" if k == 1 else "n_pow4"
    if rule == "n_pow3":
        return n**3
    if rule == "n_pow4":
        return n**4
    return int(cfg.n_fixed)


def _point_seed(root_seed: int, n: int, k: int) -> int:
    # Distinct deterministic stream key per grid point.
    return int(np.random.SeedSequence([root_seed, n, k]).generate_state(1, np.uint64)[0])


def run_mixture_mc(cfg: MixtureConfig) -> tuple[list[dict], dict]:
    """Monte Carlo bias/variance table for the Gaussian-mixture setting.

    Replication counts follow the configured rule, capped at ``mc_cap`` with
    every capping recorded. Aborts with UnderpoweredRunError when the
    standard error at a grid point exceeds a third of the estimated bias;
    the error carries the rows finished before that point.
    """
    mix = GaussianMixture(
        np.array(cfg.mix_weights), np.array(cfg.mix_means), np.array(cfg.mix_variances)
    )
    lik = gaussian_likelihood(cfg.y_obs, cfg.noise_var)
    truth = mixture_posterior_tail_prob(mix, cfg.noise_var, cfg.y_obs, cfg.threshold)
    threshold = cfg.threshold

    def batch_sampler(b: int, n: int, rng: np.random.Generator) -> np.ndarray:
        return mix.sample((b, n), rng)

    def batch_functional(x: np.ndarray) -> np.ndarray:
        return plugin_posterior_rows(x, lik, lambda v: v >= threshold)

    rows = []
    capped = []
    points = []
    for k in cfg.k_values:
        for n in cfg.n_grid:
            want = _mc_reps(cfg, n, k)
            n_reps = min(want, cfg.mc_cap)
            if n_reps < want:
                capped.append({"n": n, "k": k, "requested": want, "effective": n_reps})
            result = outer_mc_batched(
                batch_sampler,
                batch_functional,
                MCConfig(
                    n=n,
                    k=k,
                    n_reps=n_reps,
                    root_seed=_point_seed(cfg.root_seed, n, k),
                    threads=cfg.threads,
                ),
            )
            est_bias = result.mean - truth
            if result.std_error > abs(est_bias) / 3:
                point = {
                    "n": n, "k": k, "N": n_reps,
                    "std_error": result.std_error, "est_bias": est_bias,
                }
                raise UnderpoweredRunError(
                    f"std_error {result.std_error:.4g} exceeds |bias|/3 = "
                    f"{abs(est_bias) / 3:.4g} at n={n}, k={k} (N={n_reps}); "
                    "the run cannot resolve the bias at this replication count",
                    rows,
                    {
                        "underpowered": point, "capped": capped,
                        "true_value": truth, "points": points,
                    },
                )
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "N": n_reps,
                    "est_mean": result.mean,
                    "true_value": truth,
                    "est_bias": est_bias,
                    "est_variance": result.variance,
                    "std_error": result.std_error,
                }
            )
            # Timings vary from run to run, so they stay out of the rows.
            points.append(
                {
                    "n": n, "k": k, "N": n_reps,
                    "wall_time_s": result.wall_time,
                    "reps_per_s": n_reps / result.wall_time,
                    "guard_margin": result.std_error / (abs(est_bias) / 3),
                }
            )
    fits = {}
    for k in cfg.k_values:
        sub = [r for r in rows if r["k"] == k]
        ns = [r["n"] for r in sub]
        fits[k] = {
            "abs_bias": fit_slope(ns, [abs(r["est_bias"]) for r in sub]),
            "est_variance": fit_slope(ns, [r["est_variance"] for r in sub]),
        }
    return rows, {"fits": fits, "capped": capped, "true_value": truth, "points": points}


def _lookup_likelihood(values: np.ndarray) -> BoundedLikelihood:
    # Discrete support encoded as points 0..m-1; likelihood by table lookup.
    log_table = np.log(values)

    def log_fn(x):
        return log_table[np.rint(np.asarray(x)).astype(int)]

    return BoundedLikelihood(log_fn=log_fn)


def run_identity_check(cfg: IdentityConfig) -> dict:
    """Exhaustively enumerate datasets and chains; compare the enumerated
    expectation of the debiased realization with the exact operator mean.

    Passes iff the max discrepancy over all (m, n, k) cases is < 1e-10.
    """
    cases = []
    for m in cfg.m_values:
        for n in cfg.n_grid:
            for k in cfg.k_values:
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.root_seed, m, n, k])
                )
                raw = rng.dirichlet(np.ones(m))
                prior = ProbVector((raw + 0.1) / (1.0 + 0.1 * m))  # off the boundary
                ell = rng.uniform(0.5, 2.0, size=m)
                bmap = DiscreteBayesMap(ell)
                s = m - 1
                lik = _lookup_likelihood(ell)

                def functional(ws, lik=lik, s=s):
                    return plugin_posterior_prob(
                        ws, lik, lambda x: np.rint(x).astype(int) == s
                    )

                enumerated = exhaustive_chain_expectation(functional, prior, n, k)
                exact = debiased_estimate_mean(bmap.component(s), prior, n, k)
                cases.append(
                    {
                        "m": m,
                        "n": n,
                        "k": k,
                        "enumerated": enumerated,
                        "exact_mean": exact,
                        "discrepancy": abs(enumerated - exact),
                    }
                )
    max_disc = max(c["discrepancy"] for c in cases)
    return {
        "cases": cases,
        "max_discrepancy": max_disc,
        "tolerance": IDENTITY_TOL,
        "pass": bool(max_disc < IDENTITY_TOL),
    }


def run_rejection_demo(cfg: RejectionConfig) -> dict:
    """Sample from the debiased two-atom posterior at one seeded dataset.

    Reports the ratio bound, expected and observed acceptance rates, clamped
    mass, and empirical frequencies. Nothing here is asserted against ground
    truth; the output is diagnostic.
    """
    n, k = cfg.demo_n, cfg.demo_k
    bmap = _binary_bayes_map(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.root_seed, n, k]))
    counts = CountsVector(rng.multinomial(n, [1.0 - cfg.q, cfg.q]))
    proposal = discrete_bayes(bmap, ProbVector(counts.fractions()))
    target_values = np.array(
        [debiased_estimate(bmap.component(s), counts, k) for s in range(2)]
    )
    spec = make_rejection_spec(proposal, target_values)
    draw_seed = _point_seed(cfg.root_seed, n, k)
    indices, attempts = rejection_sample_batch(
        spec,
        cfg.demo_draws,
        seed=draw_seed,
        attempt_cap=int(_ATTEMPT_CAP_FACTOR * spec.bound * cfg.demo_draws),
    )
    freq = np.bincount(indices, minlength=2) / cfg.demo_draws
    return {
        "n": n,
        "k": k,
        "counts": counts.counts.tolist(),
        "proposal": proposal.probs.tolist(),
        "debiased_target": target_values.tolist(),
        "clamped_target": spec.target.tolist(),
        "clamped_mass": spec.clamped_mass,
        "ratio_bound": spec.bound,
        "expected_acceptance_rate": 1.0 / spec.bound,
        "observed_acceptance_rate": cfg.demo_draws / attempts,
        "draws": cfg.demo_draws,
        "empirical_freq": freq.tolist(),
    }
