"""Experiment runners: exact binary sweeps, mixture Monte Carlo, identity
checks, a rejection-sampling demo, and log-log slope fitting.

Each runner takes a frozen config holding only the fields it reads, with the
experiment's defaults as field defaults; the CLI derives its flags from those
fields. Runners return plain row dicts; CSV/JSON emission lives in the CLI
layer so every number is formatted once, with round-trip-exact precision.
"""

from __future__ import annotations

import math
import os
import resource
import warnings
from dataclasses import dataclass, field, fields
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from . import _workspace
from .bayes import (
    DiscreteBayesMap,
    GaussianMixture,
    discrete_bayes,
    gaussian_likelihood,
    mixture_posterior_tail_prob,
    plugin_posterior_prob,
    BoundedLikelihood,
    _plugin_expectation,
)
from .errors import CapExceededError, DegenerateError, DegeneratePointError, UnderpoweredRunError, _StoppedRunError
from .operators import MAX_ORDER, _exact_bias_variance, debiased_estimate, debiased_estimate_mean
from .rejection import make_rejection_spec, rejection_sample_batch
from .resampling import _BATCH_SCHEME, exhaustive_chain_expectation, outer_mc_batched
from .simplex import CountsVector, ProbVector, _checked_int, _checked_real, _is_int, _real_array, lattice_size

IDENTITY_TOL = 1e-10
# Most chains, L^k for lattice size L, that one identity-check case may
# enumerate. A case just under it (m = 3, k = 3, n = 19: 9.3e6) took 0.6 s on
# a 2-core x86-64 host; n = 64 there bounds 9.9e9 chains.
IDENTITY_LEAF_CAP = 10**7
# The random-stream layout of run_mixture_mc, recorded in its manifest.
MC_RNG_SCHEME = (
    f"outer_mc_batched v{_BATCH_SCHEME}, one pass per n: chunk c at sample size n draws "
    f"from SeedSequence([_point_seed(root_seed, n, max(k_values)), {_BATCH_SCHEME}, c]) "
    "into a point-major (n, b) array whose column r is dataset r; the sampler fills it "
    "in memory order, each later stage's resample indices follow memory order, each "
    "dataset's sums run in point order, and order k reads stages 1..k of the first "
    "N_k chains"
)


@dataclass(frozen=True)
class SlopeFit:
    """OLS fit of log(value) against log(size)."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


# Most points at which one lstsq over several right-hand sides gives each
# the bits of its own solve: so on 3,300 random fits of 1-16 columns at each
# of 2-7 points (numpy 2.4.6, OpenBLAS at 1 and 2 threads), while at 8 and 9
# points 13% and 32% of the columns differed in their last bits.
_SHARED_SOLVE_POINTS = 7
_EPS = float(np.finfo(float).eps)


def fit_slope(sizes, values) -> SlopeFit:
    """Least-squares slope of log(value) on log(size).

    Sizes and values must be finite real numbers, and values strictly
    positive (a zero bias cannot be slope-fit).
    """
    ns, vs = _real_array(sizes), _real_array(values)
    for name, arr in (("sizes", ns), ("values", vs)):
        if arr is None:
            raise ValueError(f"{name} must be real numbers (int or float)")
    ns, vs = ns.astype(float, copy=False), vs.astype(float, copy=False)
    if ns.ndim != 1 or ns.shape != vs.shape:
        raise ValueError("sizes and values must be 1-d and the same length")
    (fit,) = _fit_columns(ns.tolist(), [vs.tolist()])
    return fit


def _fit_columns(sizes: list[float], columns: list[list[float]]) -> list[SlopeFit]:
    """fit_slope(sizes, values) for each values in ``columns``, lists of
    floats as long as ``sizes``, with its checks and its bits, from one
    least-squares solve with a right-hand side per column up to
    _SHARED_SOLVE_POINTS points. A rank-deficient fit warns once, naming
    the caller's caller."""
    # The checks and the steps run on Python floats where that gives the
    # same bits: a sweep fits a handful of points, where one numpy call
    # costs more than the loop it replaces.
    for name, items in (("sizes", sizes), *(("values", v) for v in columns)):
        bad = [v for v in items if not math.isfinite(v)]
        if bad:
            raise ValueError(f"{name} must be finite, got {bad}")
    # A set, not np.unique: np.unique imports numpy.ma on its first call,
    # about 15 ms of a cold binary-exact sweep.
    if len(set(sizes)) < 2:
        raise ValueError("slope fit needs at least 2 points at distinct sizes")
    if min(sizes) <= 0:
        raise ValueError("sizes must be positive")
    if any(min(v) <= 0 for v in columns):
        raise ValueError("slope fit needs positive values")
    points = len(sizes)
    x = np.log(sizes).tolist()
    y = np.log(columns)  # one row per column
    # np.polyfit(x, y, 1) without its wrapper, in its steps: the columns
    # [x, 1], each scaled to unit norm (the norm of x is a sum down a
    # column, which numpy adds in row order), lstsq at rcond len(x) * eps,
    # then unscaled, with its warning on a rank-deficient fit. lstsq solves
    # a 1-d right-hand side as one column of a 2-d one.
    squares = x[0] * x[0]
    for v in x[1:]:
        squares += v * v
    scale, unit = math.sqrt(squares), math.sqrt(points)
    lhs = np.array([[v / scale, 1.0 / unit] for v in x])
    parts = [y] if points <= _SHARED_SOLVE_POINTS else [y[i : i + 1] for i in range(len(y))]
    solves = [np.linalg.lstsq(lhs, part.T, points * _EPS) for part in parts]
    if solves[0][2] != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=3)
    slopes, intercepts = np.concatenate([solve[0] for solve in solves], axis=1).tolist()
    slopes = [b / scale for b in slopes]
    intercepts = [a / unit for a in intercepts]
    y_rows = y.tolist()
    # Per column: y - (slope * x + intercept) and its dot with itself (the
    # BLAS ddot of resid @ resid); the squared deviations from y.mean() added
    # up as y.sum() adds them (one reduce along a contiguous row).
    resid = np.array(
        [[u - (b * v + a) for u, v in zip(ys, x)] for ys, b, a in zip(y_rows, slopes, intercepts)]
    )
    ss_res = np.vecdot(resid, resid).tolist()
    means = [total / points for total in np.add.reduce(y, axis=1).tolist()]
    dev = np.array([[(u - mean) * (u - mean) for u in ys] for ys, mean in zip(y_rows, means)])
    ss_tot = np.add.reduce(dev, axis=1).tolist()
    fits = []
    for b, a, res, tot in zip(slopes, intercepts, ss_res, ss_tot):
        r2 = 1.0 if tot == 0.0 else min(1.0, max(0.0, 1.0 - res / tot))
        fits.append(SlopeFit(slope=b, intercept=a, r_squared=r2, points_used=points))
    return fits


# The slope fits of each sweep: name in the manifest -> the row value fitted.
_BINARY_FITS = {"abs_bias": lambda r: r["abs_bias"], "variance": lambda r: r["variance"]}
_MIXTURE_FITS = {
    "abs_bias": lambda r: abs(r["est_bias"]),
    "est_variance": lambda r: r["est_variance"],
}


def _slope_fits(rows: list[dict], k_values, columns: dict) -> dict:
    """Per k, fit_slope of each of ``columns`` against n. A column with a
    non-positive value (an all-zero bias of a linear map) or fewer than 2
    points (a stopped sweep) has no slope: None. The columns over one list
    of n, every column of a finished sweep, share one _fit_columns solve."""
    fits, shared = {}, {}
    for k in k_values:
        sub = [r for r in rows if r["k"] == k]
        fits[k] = dict.fromkeys(columns)
        for name, value in columns.items():
            vals = [value(r) for r in sub]
            if len(vals) >= 2 and all(v > 0 for v in vals):
                ns = tuple(float(r["n"]) for r in sub)
                shared.setdefault(ns, []).append((fits[k], name, [float(v) for v in vals]))
    for ns, targets in shared.items():
        for (slot, name, _), fit in zip(targets, _fit_columns(list(ns), [t[2] for t in targets])):
            slot[name] = fit
    return fits


def _opt(default, help: str, **meta):
    """A config field; the CLI shows ``help`` next to the flag it derives."""
    return field(default=default, metadata={"help": help, **meta})


def _field_type(hint) -> tuple[object, bool]:
    """The X of a field annotated ``X`` or ``X | None``, and whether None is allowed."""
    members = get_args(hint)
    if type(None) in members:
        (hint,) = [m for m in members if m is not type(None)]
        return hint, True
    return hint, False


def _fits(hint, value) -> bool:
    """Whether ``value`` has the type of a field annotated ``hint``."""
    hint, optional = _field_type(hint)
    if value is None:
        return optional
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return isinstance(value, (tuple, list)) and all(_fits(item, v) for v in value)
    if hint is int:
        return _is_int(value)
    if hint is float:
        return np.ndim(value) == 0 and _real_array(value) is not None
    return isinstance(value, hint)


def _check_fields(cfg) -> None:
    """Raise ValueError on a field value of another type than its annotation,
    on a float that is NaN or infinite, or on a value below the ``min`` its
    field declares (flags, files and Python callers alike). Store a float as
    the float the real rule gives, and a list as a tuple."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if not _fits(hints[f.name], value):
            raise ValueError(f"config field {f.name!r} needs {f.type}, got {value!r}")
        low = f.metadata.get("min")
        if low is not None and value < low:
            raise ValueError(f"config field {f.name!r} must be >= {low}, got {value!r}")
        hint, name = _field_type(hints[f.name])[0], f"config field {f.name}"
        if hint is float:
            value = _checked_real(value, name)
        elif hint == tuple[float, ...]:
            value = tuple(_checked_real(v, name) for v in value)
        elif isinstance(value, list):
            value = tuple(value)
        object.__setattr__(cfg, f.name, value)


def _check_grid(cfg) -> None:
    grid = cfg.n_grid
    if len(grid) < 2:
        raise ValueError("n_grid needs at least 2 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be strictly increasing")
    if grid[0] < 1:
        raise ValueError("n_grid entries must be >= 1")
    if not cfg.k_values or any(not 1 <= k <= MAX_ORDER for k in cfg.k_values):
        raise ValueError(f"k_values must be non-empty integers in [1, {MAX_ORDER}]")
    _check_distinct(cfg, "k_values")


def _check_distinct(cfg, name: str) -> None:
    # A repeated entry would run, write and fit its grid points twice.
    values = getattr(cfg, name)
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat an entry, got {values!r}")


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
        _check_fields(self)
        _check_grid(self)


@dataclass(frozen=True)
class MixtureConfig:
    """Monte Carlo sweep for the Gaussian-mixture tail probability."""

    experiment: ClassVar[str] = "mixture_mc"

    n_grid: tuple[int, ...] = _opt((8, 12, 16, 24, 32, 48, 64), "sample sizes")
    k_values: tuple[int, ...] = _opt((1,), "correction orders")
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
    mc_cap: int = _opt(10_000_000, "hard cap on replicates per point", min=1)
    threads: int | None = _opt(
        None,
        "worker threads, default one per CPU; they speed up a grid point that "
        "spans more than one chunk of replicates, and results are identical for "
        "any count. Two sweeps run side by side should each pass --threads 1",
        min=1,
    )
    root_seed: int = _opt(0, "root seed", flag="--seed", min=0)

    def __post_init__(self):
        if self.threads is None:  # the manifest records the count that ran
            object.__setattr__(self, "threads", os.cpu_count() or 1)
        _check_fields(self)
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
    m_values: tuple[int, ...] = _opt((2, 3), "support sizes, each >= 2")
    root_seed: int = _opt(0, "root seed", flag="--seed", min=0)

    def __post_init__(self):
        _check_fields(self)
        _check_grid(self)
        # A one-atom posterior is identically 1, so m = 1 compares nothing.
        if not self.m_values or any(m < 2 for m in self.m_values):
            raise ValueError("m_values must be non-empty integers >= 2")
        _check_distinct(self, "m_values")


@dataclass(frozen=True)
class RejectionConfig:
    """Rejection sampling from the debiased two-atom posterior at one dataset."""

    experiment: ClassVar[str] = "rejection_demo"

    q: float = _opt(0.4, "prior mass on atom 1")
    y_obs: float = _opt(2.0, "observed value")
    noise_var: float = _opt(1.0, "observation noise variance")
    demo_n: int = _opt(64, "sample size of the dataset", min=1)
    demo_k: int = _opt(2, "correction order", min=1)
    demo_draws: int = _opt(100_000, "accepted draws to collect", min=1)
    root_seed: int = _opt(0, "root seed", flag="--seed", min=0)

    def __post_init__(self):
        _check_fields(self)
        _checked_int(self.demo_k, "demo_k", 1, MAX_ORDER)


# Public constructors: keyword overrides on top of each experiment's defaults.
default_binary_config = BinaryConfig
default_mixture_config = MixtureConfig
default_identity_config = IdentityConfig


def _run_points(points: list[dict], run_point, summarize) -> tuple[list[dict], dict]:
    """Extend the rows with ``run_point(**point)`` at each grid point, and
    return them with ``summarize(rows)``. A stop leaves with the rows done
    before it and their summary merged into its info; a CapExceededError,
    raised by code that does not know the point, is prefixed with the point."""
    rows = []
    for point in points:
        try:
            rows.extend(run_point(**point))
        except CapExceededError as exc:
            label = " ".join(f"{key}={value}" for key, value in point.items())
            stopped = {"cap_exceeded": {**point, **exc.info.get("cap_exceeded", {})}}
            raise CapExceededError(f"{label}: {exc}", rows, {**summarize(rows), **stopped}) from exc
        except _StoppedRunError as exc:
            exc.rows, exc.info = rows, {**summarize(rows), **exc.info}
            raise
    return rows, summarize(rows)


def _binary_bayes_map(cfg: BinaryConfig | RejectionConfig) -> DiscreteBayesMap:
    # Support {0, 1}; likelihood values of the observation at each atom. An
    # extreme y_obs or noise_var overflows the log-likelihood to -inf or NaN
    # without a warning, and DiscreteBayesMap rejects the 0 or NaN it gives.
    lik = gaussian_likelihood(cfg.y_obs, cfg.noise_var)
    with np.errstate(over="ignore", invalid="ignore"):
        return DiscreteBayesMap(np.exp(lik.log(np.array([0.0, 1.0]))))


def run_binary_exact(cfg: BinaryConfig) -> tuple[list[dict], dict]:
    """Exact |bias| and variance per (n, k) for the two-atom posterior map.

    No sampling is involved, so the output is deterministic. Each n samples
    the map once and builds one iterate stack up to the largest k, shared by
    every k and by bias and variance. A lattice or matrix cap error is
    re-raised naming the offending n and carrying the rows finished before it
    and their slope fits.
    """
    g = _binary_bayes_map(cfg).component(1)
    prior = ProbVector(np.array([1.0 - cfg.q, cfg.q]))

    def run_n(n):
        moments = _exact_bias_variance(g, prior, n, cfg.k_values).items()
        return [{"n": n, "k": k, "abs_bias": abs(b), "variance": v} for k, (b, v) in moments]

    def summarize(rows):
        return {"slope_fits": _slope_fits(rows, cfg.k_values, _BINARY_FITS)}

    rows, summary = _run_points([{"n": n} for n in cfg.n_grid], run_n, summarize)
    return rows, summary["slope_fits"]


def _mc_reps(cfg: MixtureConfig, n: int, k: int) -> int:
    rule = cfg.n_rule
    if rule is None:
        rule = "n_pow3" if k == 1 else "n_pow4"
    if rule == "n_pow3":
        return int(n) ** 3  # a numpy integer n would wrap at int64
    if rule == "n_pow4":
        return int(n) ** 4
    return int(cfg.n_fixed)


def _minor_faults() -> int:
    # Minor page faults of this process so far, all threads included.
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _point_seed(root_seed: int, n: int, k: int) -> int:
    # Distinct deterministic stream key per grid point.
    return int(np.random.SeedSequence([root_seed, n, k]).generate_state(1, np.uint64)[0])


# An infinite draw or distance has likelihood 0; the kernel raises on all-zero
# or NaN weights. The state is entered once per sweep, and worker threads run
# in copies of the caller's context, so it holds there too.
@np.errstate(over="ignore", invalid="ignore")
def run_mixture_mc(cfg: MixtureConfig) -> tuple[list[dict], dict]:
    """Monte Carlo bias/variance table for the Gaussian-mixture setting.

    Replication counts follow the configured rule, capped at ``mc_cap`` with
    every capping recorded. Rows run k-major. The first row at each n runs
    one pass of chains of the deepest order, seeded by
    _point_seed(root_seed, n, max(k_values)), and every order reads its row
    at n from it (outer_mc_batched): the rows at one n are common random
    numbers across k. Datasets are scored by the plug-in kernel, which
    gives its elementwise likelihood and event slices past 2^14 points.
    Aborts with UnderpoweredRunError when a grid point has fewer than 2
    replicates or its standard error exceeds a third of the estimated bias,
    and with DegeneratePointError when a plug-in denominator underflows in
    the pass at n, at the first k that visits n; either error carries the
    rows finished before that point, their fits and the point that stopped
    the run. A slope over a column with a zero (replicates that all agree)
    is None, and so is the guard margin of a point whose bias and standard
    error are both 0.
    """
    mix = GaussianMixture(cfg.mix_weights, cfg.mix_means, cfg.mix_variances)
    lik = gaussian_likelihood(cfg.y_obs, cfg.noise_var)
    truth = mixture_posterior_tail_prob(mix, cfg.noise_var, cfg.y_obs, cfg.threshold)
    threshold = cfg.threshold

    def batch_functional(x: np.ndarray) -> np.ndarray:
        # The event writes its mask into a pooled bool buffer, as the
        # plug-in does its log weights, so a warm pass allocates no array
        # of the stage's size.
        mask = _workspace.checkout(x.size, bool)
        try:
            return _plugin_expectation(
                x, lik, lambda v: np.greater_equal(v, threshold, out=mask[: v.size].reshape(v.shape))
            )
        finally:
            _workspace.release(mask)

    capped, points = [], []
    info = {"rng_scheme": MC_RNG_SCHEME, "capped": capped, "true_value": truth, "points": points}
    # One pass per n, run on the first visit to n and read by every order.
    passes = {}
    seed_k = max(cfg.k_values)

    def run_point(k, n):
        want = _mc_reps(cfg, n, k)
        n_reps = min(want, cfg.mc_cap)
        if n_reps < want:
            capped.append({"n": n, "k": k, "requested": want, "effective": n_reps})
        point, where = {"n": n, "k": k, "N": n_reps}, f"at n={n}, k={k} (N={n_reps})"
        if n not in passes:
            reps = {j: min(_mc_reps(cfg, n, j), cfg.mc_cap) for j in cfg.k_values}
            faults = _minor_faults()
            try:
                results = outer_mc_batched(
                    mix._fill, batch_functional, n, reps,
                    _point_seed(cfg.root_seed, n, seed_k), cfg.threads,
                )
            except DegenerateError as exc:
                raise DegeneratePointError(f"{exc} {where}", info={"degenerate": point}) from exc
            passes[n] = results, _minor_faults() - faults
        results, faults = passes[n]
        result = results[k]
        est_bias = result.mean - truth
        bound = abs(est_bias) / 3
        row = {
            **point,
            "est_mean": result.mean,
            "true_value": truth,
            "est_bias": est_bias,
            "est_variance": result.variance,
            "std_error": result.std_error,
        }
        # One replicate has no spread, so its standard error of 0 says
        # nothing about the noise of the bias estimate.
        if n_reps < 2 or result.std_error > bound:
            why = (
                "one replicate gives no standard error"
                if n_reps < 2
                else f"std_error {result.std_error:.4g} exceeds |bias|/3 = {bound:.4g}"
            )
            raise UnderpoweredRunError(
                f"{why} {where}; the run cannot resolve the bias at this replication count",
                info={"underpowered": {**point, "std_error": result.std_error, "est_bias": est_bias}},
            )
        # Timings vary from run to run, so they stay out of the rows.
        # The points at one n share its pass, and so its time and faults.
        points.append(
            {
                **point,
                "wall_time_s": result.wall_time,
                "reps_per_s": n_reps / result.wall_time,
                # 0/0 where every replicate equals the truth: no margin.
                "guard_margin": result.std_error / bound if bound else None,
                "minor_faults": faults,
            }
        )
        return [row]

    return _run_points(
        [{"k": k, "n": n} for k in cfg.k_values for n in cfg.n_grid],
        run_point,
        lambda rows: {"fits": _slope_fits(rows, cfg.k_values, _MIXTURE_FITS), **info},
    )


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
    Before a case is enumerated, its chains are bounded by L^k; past
    IDENTITY_LEAF_CAP, or past a lattice or matrix cap on the way, the case
    stops with a CapExceededError carrying the finished cases as its rows
    and their report, naming the stopped case, as its info.
    """
    grid = [{"m": m, "n": n, "k": k} for m in cfg.m_values for n in cfg.n_grid for k in cfg.k_values]
    _, report = _run_points(grid, lambda m, n, k: [_identity_case(cfg.root_seed, m, n, k)], _identity_report)
    return report


def _identity_case(root_seed: int, m: int, n: int, k: int) -> dict:
    leaves = lattice_size(n, m) ** k
    if leaves > IDENTITY_LEAF_CAP:
        raise CapExceededError(
            f"up to {leaves} chains to enumerate, over the cap of {IDENTITY_LEAF_CAP}",
            info={"cap_exceeded": {"leaves": leaves}},
        )
    rng = np.random.default_rng(np.random.SeedSequence([root_seed, m, n, k]))
    raw = rng.dirichlet(np.ones(m))
    prior = ProbVector((raw + 0.1) / (1.0 + 0.1 * m))  # off the boundary
    ell = rng.uniform(0.5, 2.0, size=m)
    bmap = DiscreteBayesMap(ell)
    s = m - 1
    lik = _lookup_likelihood(ell)

    def functional(ws):
        return plugin_posterior_prob(ws, lik, lambda x: np.rint(x).astype(int) == s)

    enumerated = exhaustive_chain_expectation(functional, prior, n, k)
    exact = debiased_estimate_mean(bmap.component(s), prior, n, k)
    return {
        "m": m,
        "n": n,
        "k": k,
        "enumerated": enumerated,
        "exact_mean": exact,
        "discrepancy": abs(enumerated - exact),
    }


def _identity_report(cases: list[dict]) -> dict:
    # A run stopped before its first case has no discrepancy and no pass.
    max_disc = max((c["discrepancy"] for c in cases), default=None)
    return {
        "cases": cases,
        "max_discrepancy": max_disc,
        "tolerance": IDENTITY_TOL,
        "pass": max_disc is not None and max_disc < IDENTITY_TOL,
    }


def run_rejection_demo(cfg: RejectionConfig) -> dict:
    """Sample from the debiased two-atom posterior at one seeded dataset.

    Reports the ratio bound, expected and observed acceptance rates, clamped
    mass, and empirical frequencies. Nothing here is asserted against ground
    truth; the output is diagnostic. The sampler raises CapExceededError
    before any draw when the expected proposals, bound times draws, exceed
    its PROPOSAL_CAP.
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
    indices, attempts = rejection_sample_batch(spec, cfg.demo_draws, seed=draw_seed)
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
