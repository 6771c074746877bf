"""The three workloads: inputs from the seed, a closed timed loop, and the
checks that make a run fail.

Each workload is a single process calling the package's public API one call
after another (a closed loop), with at most two threads. NOTES.md says why
each was chosen and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path
from statistics import median

from common import calibrate, derived_seed, fast_decile, reference_kernel, seed_stream, timed

HERE = Path(__file__).resolve().parent

# --- mc_mixture -------------------------------------------------------------
# A tail observation: the plug-in bias at n <= 64 is many standard errors, so
# the underpowered guard of run_mixture_mc clears at a small N per point for
# any seed (the weakest point, n=64 k=2, sits about 10 standard errors out at
# N=512). In the default setting (y_obs=0.8) with noise_var=1/64, that point
# is only about 3.6 standard errors out at N=8192.
MC_SETTING = {"y_obs": 3.5, "noise_var": 1.0 / 16.0, "threshold": 3.3}
MC_GRID_N = (16, 32, 64)
MC_GRID_K = (1, 2)
MC_LOOP_REPS = 512
# The outer engine splits N into chunks of 4096 replicates and uses its pool
# only with more than one chunk, so the thread comparison runs at 2 chunks.
MC_POOL_POINT = (64, 2)
MC_POOL_REPS = 8192
# E[est_mean] - truth per (n, k) for MC_SETTING, with its standard error:
# run_mixture_mc at N=131072 per point, root_seed 20251011, on numpy 2.4.6.
# calibrate_mc.py reproduces it. The expected value does not depend on the
# random-stream layout, so a versioned RNG scheme keeps this table valid.
MC_REFERENCE_BIAS = {
    (16, 1): (-0.5003519930754902, 0.0007397290845654643),
    (32, 1): (-0.4356123316259113, 0.0009381847235884817),
    (64, 1): (-0.33568235409136216, 0.0010984485243729608),
    (16, 2): (-0.47314186225180865, 0.0010655275428073756),
    (32, 2): (-0.38866121013113314, 0.0013538516135777746),
    (64, 2): (-0.2673759125721568, 0.001570019148797116),
}
MC_TOLERANCE_SIGMAS = 6.0

# --- expectation_large_n ----------------------------------------------------
EXP_N = 2**18
EXP_KS = (2, 4)
EXP_SETTING = {"y_obs": 0.8, "noise_var": 1.0 / 16.0, "threshold": 0.5}
EXP_CHAIN_SEEDS = 8
# Standard deviation of (value - truth) at n = 2^18, measured over 6 data
# seeds x 4 chain seeds: 0.0012 at k=2 and 0.0039 at k=4. It scales as
# n^(-1/2); the check allows 6 of these, rounded up.
EXP_SD_AT_FULL_N = {2: 0.0015, 4: 0.0045}
EXP_TOLERANCE_SIGMAS = 6.0


@dataclass
class Ledger:
    """Operations attempted and failed. A failure is a guard trip, a cap
    error or a correctness miss; none is retried with another seed or size."""

    counted: tuple = ()
    attempted: int = 0
    failed: int = 0
    misses: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one counted operation; a counted error is recorded and yields
        None, any other error propagates."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.counted as exc:
            self.failed += 1
            self.misses.append(f"{what}: {exc!r}")
            return None


@dataclass
class Samples:
    """Sample times of one kind: raw seconds and the same rescaled to the
    reference host (``common.calibrate``)."""

    raw: list[float] = field(default_factory=list)
    calibrated: list[float] = field(default_factory=list)


def timed_loop(seconds: float, op, tracer, name: str) -> tuple[Samples, Samples]:
    """Call ``op(i)`` until ``seconds`` have passed, at least once, with the
    reference kernel between calls.

    Returns (untraced, traced) samples. In a traced run every other call
    records spans, and the loop runs at least twice, so the two give the
    tracing overhead.
    """
    tracing = tracer.enabled
    plain, traced = Samples(), Samples()
    deadline = time.perf_counter() + seconds
    min_samples = 2 if tracing else 1
    ref_before = reference_kernel()
    i = 0
    try:
        while True:
            tracer.enabled = tracing and i % 2 == 1
            t = time.perf_counter()
            with tracer.span(name, i=i):
                op(i)
            raw = time.perf_counter() - t
            ref_after = reference_kernel()
            bucket = traced if tracer.enabled else plain
            bucket.raw.append(raw)
            bucket.calibrated.append(calibrate(raw, ref_before, ref_after))
            ref_before = ref_after
            i += 1
            if i >= min_samples and time.perf_counter() >= deadline:
                break
    finally:
        tracer.enabled = tracing
    return plain, traced


def _summary(samples: Samples, work: float) -> dict:
    """Work per calibrated second at the median sample, the figure each
    workload reports (NOTES.md says why), beside the raw figures."""
    return {
        "samples": len(samples.raw),
        "calibrated_median_s": median(samples.calibrated),
        "raw_fast_decile_s": fast_decile(samples.raw),
        "raw_median_s": median(samples.raw),
        "rate": work / median(samples.calibrated),
        "raw_rate_fast_decile": work / fast_decile(samples.raw),
        "raw_rate_median": work / median(samples.raw),
    }


def mixture_callables(pkg, setting: dict):
    """The prior sampler and functional that run_mixture_mc builds for the
    default mixture prior, rebuilt from the public API."""
    import numpy as np

    base = pkg.default_mixture_config()
    mix = pkg.GaussianMixture(
        np.array(base.mix_weights), np.array(base.mix_means), np.array(base.mix_variances)
    )
    lik = pkg.gaussian_likelihood(setting["y_obs"], setting["noise_var"])
    threshold = setting["threshold"]

    def sampler(n, rng):
        return pkg.WeightedSampleSet(mix.sample(n, rng))

    def functional(ws):
        return pkg.plugin_posterior_prob(ws, lik, lambda x: x >= threshold)

    return mix, lik, sampler, functional


class MCMixture:
    """run_mixture_mc over n in {16, 32, 64} x k in {1, 2} at 1 thread, timed
    pass by pass, plus one outer_mc call at 1 and 2 threads on the same seed."""

    name = "mc_mixture"

    def __init__(self, pkg, seed: int, tiny: bool = False):
        self.pkg = pkg
        self.loop_reps = 256 if tiny else MC_LOOP_REPS
        self.pool_reps = 4096 + 64 if tiny else MC_POOL_REPS
        self.root_seed = derived_seed(seed, self.name)
        self.cfg = pkg.default_mixture_config(
            n_grid=MC_GRID_N,
            k_values=MC_GRID_K,
            n_rule="fixed",
            n_fixed=self.loop_reps,
            root_seed=self.root_seed,
            **MC_SETTING,
        )
        self.mix, _, self.sampler, self.functional = mixture_callables(pkg, MC_SETTING)
        self.truth = pkg.mixture_posterior_tail_prob(
            self.mix, MC_SETTING["noise_var"], MC_SETTING["y_obs"], MC_SETTING["threshold"]
        )

    def inputs_digest(self) -> dict:
        return {"root_seed": self.root_seed}

    def _check_rows(self, rows, ledger: Ledger) -> float:
        margin = 0.0
        for r in rows:
            ref_bias, ref_se = MC_REFERENCE_BIAS[(r["n"], r["k"])]
            tol = MC_TOLERANCE_SIGMAS * sqrt(r["std_error"] ** 2 + ref_se**2)
            dev = r["est_mean"] - (self.truth + ref_bias)
            ledger.check(
                abs(dev) <= tol,
                f"mc_mixture n={r['n']} k={r['k']}: est_mean {r['est_mean']!r} is "
                f"{dev:+.4g} from truth + reference bias (tolerance {tol:.3g})",
            )
            margin = max(margin, r["std_error"] / (abs(r["est_bias"]) / 3))
        return margin

    def run(self, seconds: float, tracer, ledger: Ledger) -> dict:
        pkg = self.pkg
        # Warm-up pass, outside the window: the first outer_mc call in a
        # process runs slower than later ones.
        result = ledger.call("run_mixture_mc warm-up", pkg.run_mixture_mc, self.cfg)
        if result is None:
            return {}
        reference_rows = result[0]
        margin = self._check_rows(reference_rows, ledger)
        start = time.perf_counter()

        n, k = MC_POOL_POINT
        pool, pool_s = {}, {}
        for threads in (1, 2):
            mc_cfg = pkg.MCConfig(
                n=n, k=k, n_reps=self.pool_reps, root_seed=self.root_seed, threads=threads
            )
            with tracer.span("resampling.outer_mc", n=n, k=k, threads=threads):
                pool[threads], _, pool_s[threads] = timed(
                    lambda: pkg.outer_mc(self.sampler, self.functional, mc_cfg)
                )
        a, b = pool[1], pool[2]
        ledger.check(
            (a.mean, a.variance, a.std_error, a.n_reps)
            == (b.mean, b.variance, b.std_error, b.n_reps),
            "mc_mixture: outer_mc differs between threads=1 and threads=2",
        )

        def one_pass(i):
            out = ledger.call("run_mixture_mc", pkg.run_mixture_mc, self.cfg)
            if out is not None:
                ledger.check(
                    out[0] == reference_rows,
                    "mc_mixture: rows differ between passes on the same seed",
                )

        remaining = max(0.0, seconds - (time.perf_counter() - start))
        plain, traced = timed_loop(remaining, one_pass, tracer, "experiments.run_mixture_mc")
        reps = len(MC_GRID_N) * len(MC_GRID_K) * self.loop_reps
        loop = _summary(plain, reps)
        return {
            "ops_per_s": loop["rate"],
            "op": "outer replicate inside run_mixture_mc, threads=1",
            "loop": loop,
            "traced_samples": traced,
            "untraced_samples": plain,
            "extra": {
                "mc_reps_per_s_1t": loop["rate"],
                "mc_reps_per_s_1t_at_pool_point": self.pool_reps / pool_s[1],
                "mc_reps_per_s_2t": self.pool_reps / pool_s[2],
                "guard_margin_max": margin,
                "rows": reference_rows,
                "truth": self.truth,
            },
        }


class ExpectationLargeN:
    """debiased_expectation on one dataset of 2^18 draws at k = 2 and 4,
    cycling over a fixed list of chain seeds."""

    name = "expectation_large_n"

    def __init__(self, pkg, seed: int, tiny: bool = False):
        import numpy as np

        self.pkg = pkg
        self.n = 2**12 if tiny else EXP_N
        rng = np.random.default_rng(seed_stream(seed, self.name))
        self.mix, self.lik, _, _ = mixture_callables(pkg, EXP_SETTING)
        self.data = pkg.WeightedSampleSet(self.mix.sample(self.n, rng))
        self.chain_seeds = [int(s) for s in rng.integers(0, 2**63, size=EXP_CHAIN_SEEDS)]
        threshold = EXP_SETTING["threshold"]
        self.h = lambda x: (x >= threshold).astype(float)
        self.truth = pkg.mixture_posterior_tail_prob(
            self.mix, EXP_SETTING["noise_var"], EXP_SETTING["y_obs"], threshold
        )

    def inputs_digest(self) -> dict:
        return {"data_sum": float(self.data.points.sum()), "chain_seeds": self.chain_seeds}

    def run(self, seconds: float, tracer, ledger: Ledger) -> dict:
        import numpy as np

        pkg = self.pkg
        for k in EXP_KS:
            one = pkg.debiased_expectation(
                self.data, self.lik, lambda x: np.ones_like(x), k, self.chain_seeds[0]
            )
            ledger.check(one == 1.0, f"expectation_large_n: h=1 gives {one!r} at k={k}")
        # Warm-up call, outside the window.
        pkg.debiased_expectation(self.data, self.lik, self.h, EXP_KS[0], self.chain_seeds[0])

        seen: dict[tuple[int, int], float] = {}

        def one_pair(i):
            s = self.chain_seeds[i % len(self.chain_seeds)]
            for k in EXP_KS:
                with tracer.span("resampling.debiased_expectation", k=k):
                    v = pkg.debiased_expectation(self.data, self.lik, self.h, k, s)
                if (k, s) in seen:
                    ledger.check(
                        v == seen[(k, s)],
                        f"expectation_large_n: k={k} seed={s} gave {v!r}, then {seen[(k, s)]!r}",
                    )
                else:
                    seen[(k, s)] = v
                    tol = EXP_TOLERANCE_SIGMAS * EXP_SD_AT_FULL_N[k] * sqrt(EXP_N / self.n)
                    ledger.check(
                        abs(v - self.truth) <= tol,
                        f"expectation_large_n: k={k} value {v!r} vs truth {self.truth!r}",
                    )

        plain, traced = timed_loop(seconds, one_pair, tracer, "workload.expectation_pair")
        loop = _summary(plain, len(EXP_KS))
        return {
            "ops_per_s": loop["rate"],
            "op": "debiased_expectation call at n=2^18, alternating k=2 and k=4",
            "loop": loop,
            "traced_samples": traced,
            "untraced_samples": plain,
            "extra": {
                "expectations_per_s": loop["rate"],
                "values": {f"k{k}_seed{s}": v for (k, s), v in seen.items()},
                "truth": self.truth,
            },
        }


def mpmath_binary_bias(q: float, y_obs: float, noise_var: float, n: int, ks) -> dict:
    """Exact bias of the order-k estimator for the two-atom posterior map, in
    40-digit arithmetic: sum_j C(k,j)(-1)^(j-1) (B^j g)(q) - g(q)."""
    import mpmath as mp

    with mp.workdps(40):
        return _mpmath_binary_bias(mp, q, y_obs, noise_var, n, ks)


def _mpmath_binary_bias(mp, q, y_obs, noise_var, n, ks) -> dict:
    ell0 = mp.exp(-mp.mpf(y_obs) ** 2 / (2 * mp.mpf(noise_var)))
    ell1 = mp.exp(-(mp.mpf(y_obs) - 1) ** 2 / (2 * mp.mpf(noise_var)))

    def g(x0):  # x0 is the mass on atom 0; atom 1 carries 1 - x0
        x1 = 1 - x0
        return ell1 * x1 / (ell0 * x0 + ell1 * x1)

    def pmf_row(p0):  # binomial pmf over t = count on atom 0
        if p0 == 0:
            return [mp.mpf(1)] + [mp.mpf(0)] * n
        if p0 == 1:
            return [mp.mpf(0)] * n + [mp.mpf(1)]
        row = [(1 - p0) ** n]
        ratio = p0 / (1 - p0)
        for t in range(n):
            row.append(row[-1] * (n - t) / (t + 1) * ratio)
        return row

    q0 = 1 - mp.mpf(q)
    grid = [mp.mpf(t) / n for t in range(n + 1)]
    M = [pmf_row(p) for p in grid]
    mass = pmf_row(q0)
    iterates = [[g(x) for x in grid]]  # B^(j-1) g on the lattice
    kmax = max(ks)
    for _ in range(kmax - 1):
        v = iterates[-1]
        iterates.append([mp.fsum(r * x for r, x in zip(row, v)) for row in M])
    bj = [mp.fsum(a * b for a, b in zip(mass, v)) for v in iterates]  # (B^j g)(q)
    out = {}
    for k in ks:
        mean = mp.fsum(mp.binomial(k, j) * (-1) ** (j - 1) * bj[j - 1] for j in range(1, k + 1))
        out[k] = mean - g(q0)
    return out


class ExactSweep:
    """Cold passes of the exact path, each in a fresh interpreter."""

    name = "exact_sweep"
    # Over seeds 0-5 the float64 bias at n <= 256 is within 1.5e-13 of the
    # 40-digit value. Relative error is no test here: at (n=256, k=6) the bias
    # is about 1e-11 and can cross zero, so float64's absolute floor shows as
    # relative errors from 4e-4 (seed 0) to 0.18 (seed 2). The result file
    # keeps every relative error.
    MPMATH_MAX_N = 256
    MPMATH_ATOL = 1e-12
    MPMATH_RTOL = 1e-6

    def __init__(self, pkg, seed: int, tiny: bool = False):
        import exact_pass

        self.seed = seed
        self.tiny = tiny
        self.inputs = exact_pass.exact_inputs(seed)

    def inputs_digest(self) -> dict:
        return {"q": self.inputs["q"], "y_obs": self.inputs["y_obs"]}

    def _one_pass(self) -> dict:
        cmd = [sys.executable, str(HERE / "exact_pass.py"), "--seed", str(self.seed)]
        if self.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"exact pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _check_first(self, p: dict, ledger: Ledger):
        ident = p.get("identity")
        ledger.check(
            ident is not None and ident["pass"] and ident["max_discrepancy"] < 1e-10,
            f"exact_sweep: identity check {ident}",
        )
        for name, r in p["rejection"].items():
            ratio = r["attempts"] / r["draws"]
            ledger.check(
                abs(ratio - r["bound"]) <= 0.1 * r["bound"],
                f"exact_sweep: {name} proposals per accept {ratio:.4g} vs bound {r['bound']:.4g}",
            )
            # Largest binomial deviation of a frequency is 0.5/sqrt(draws).
            ledger.check(
                r["max_freq_error"] <= 6 * 0.5 / sqrt(r["draws"]),
                f"exact_sweep: {name} frequencies off the target by {r['max_freq_error']:.3g}",
            )
        rows = p.get("sweep_rows") or []
        ledger.check(bool(rows) and p.get("sweep_fits_missing") == 0, "exact_sweep: sweep table incomplete")
        inp = self.inputs
        errors = []
        for n in sorted({r["n"] for r in rows if r["n"] <= self.MPMATH_MAX_N}):
            ks = [r["k"] for r in rows if r["n"] == n]
            ref = mpmath_binary_bias(inp["q"], inp["y_obs"], inp["noise_var"], n, ks)
            for r in rows:
                if r["n"] != n:
                    continue
                want = abs(float(ref[r["k"]]))
                err = abs(r["abs_bias"] - want)
                rel = err / want if want else float("inf")
                errors.append({"n": n, "k": r["k"], "abs_error": err, "rel_error": rel})
                ledger.check(
                    err <= self.MPMATH_ATOL + self.MPMATH_RTOL * want,
                    f"exact_sweep: exact_bias n={n} k={r['k']} is {err:.3g} off mpmath",
                )
        return errors

    def run(self, seconds: float, tracer, ledger: Ledger) -> dict:
        passes = []

        def one_pass(i):
            p = self._one_pass()
            ledger.attempted += 4  # sweep, m=3/4 table, identity check, rejection
            ledger.failed += len(p["failures"])
            ledger.misses.extend(p["failures"])
            passes.append(p)

        plain, traced = timed_loop(seconds, one_pass, tracer, "workload.exact_pass")
        first = passes[0]
        mpmath_errors = self._check_first(first, ledger)
        for p in passes[1:]:
            same = (
                p.get("sweep_rows") == first.get("sweep_rows")
                and p["table_rows"] == first["table_rows"]
                and p["identity"] == first["identity"]
                and p["rejection"] == first["rejection"]
            )
            ledger.check(same, "exact_sweep: cold passes on the same seed disagree")
        # Each part's calibrated median over the passes; the child brackets
        # every part with the reference kernel.
        parts = {name: [p["calibrated"][name] for p in passes] for name in first["calibrated"]}
        part_s = {name: median(v) for name, v in parts.items()}
        draws = sum(r["draws"] for r in first["rejection"].values())
        return {
            "ops_per_s": 1.0 / sum(part_s.values()),
            "op": "cold exact pass: sum over its four parts of each part's calibrated median",
            "loop": _summary(plain, 1.0),
            "traced_samples": traced,
            "untraced_samples": plain,
            "child_peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
            "extra": {
                "exact_sweep_s": part_s["sweep"] + part_s["table_m34"],
                "identity_check_s": part_s["identity"],
                "rejection_draws_per_s": draws / part_s["rejection"],
                "part_calibrated_s": parts,
                "part_raw_s": {name: [p["times"][name] for p in passes] for name in parts},
                "child_setup_s": [p["setup_s"] for p in passes],
                "mpmath_errors": mpmath_errors,
            },
        }


WORKLOADS = {w.name: w for w in (MCMixture, ExpectationLargeN, ExactSweep)}
