"""Per-layer probes for the traced run.

Each probe calls one public function of one module at a fixed size, inside a
span named ``<module>.<function>``; the layer metrics are read back from the
recorded spans. Short calls repeat many times and report the fast decile of
their durations (``common.fast_decile``); calls of a second or more run once
or three times, which makes it their best. NOTES.md maps each metric to the
end-to-end metric it should move.

The probes run in a fixed order: ``exact_bias`` at n=1024 is probed cold, so
nothing before it may fill the package's operator caches for (1024, 2).
"""

from __future__ import annotations

import time

import numpy as np

from common import fast_decile, seed_stream
from exact_pass import REJECTION_BOUNDS, REJECTION_DRAWS, rejection_case
from workloads import (
    EXP_N,
    EXP_SETTING,
    MC_GRID_K,
    MC_GRID_N,
    MC_LOOP_REPS,
    MC_SETTING,
    mixture_callables,
)

# Lattice sizes of about 10^3, 10^5 and 10^6 points.
LATTICES = {"L1e3": (999, 2), "L1e5": (446, 3), "L1e6": (1413, 3)}


def _spanned(tracer, name: str, fn, reps: int, **attrs) -> list[float]:
    for _ in range(reps):
        with tracer.span(name, **attrs):
            fn()
    return tracer.durations(name, **attrs)


def run_probes(pkg, tracer, ledger, seed: int, tiny: bool = False) -> dict:
    """Every per-layer metric, as {name: (value, unit)}."""
    rng = np.random.default_rng(seed_stream(seed, "probes"))
    few = 1 if tiny else 3
    many = 20 if tiny else 500
    m: dict[str, tuple[float, str]] = {}

    def fast(name, fn, reps, scale=1.0, **attrs):
        return fast_decile(_spanned(tracer, name, fn, reps, probe=True, **attrs)) * scale

    # simplex
    for case, (n, mm) in LATTICES.items():
        if tiny and case == "L1e6":
            n = 446  # the 10^6 lattice alone takes seconds to enumerate
        reps = 1 if case == "L1e6" else few
        m[f"simplex.enumerate_lattice.{case}_s"] = (
            fast("simplex.enumerate_lattice", lambda: pkg.enumerate_lattice(n, mm), reps, case=case),
            "s",
        )
        lat = pkg.enumerate_lattice(n, mm)
        q = rng.dirichlet(np.ones(mm))
        m[f"simplex.multinomial_pmf_vector.{case}_s"] = (
            fast(
                "simplex.multinomial_pmf_vector",
                lambda: pkg.multinomial_pmf_vector(lat, q),
                few,
                case=case,
            ),
            "s",
        )
        del lat

    # operators
    big_n = 256 if tiny else 4096
    for case, (n, mm, reps) in {
        "n1024_m2": (1024, 2, few),
        "n4096_m2": (big_n, 2, 1),
        "n60_m3": (60, 3, 1),
        "n20_m4": (20, 4, 1),
    }.items():
        holder = {}

        def build(n=n, mm=mm):
            holder["M"] = pkg.transfer_matrix(n, mm)

        m[f"operators.transfer_matrix.{case}_s"] = (
            fast("operators.transfer_matrix", build, reps, case=case),
            "s",
        )
        if case == "n4096_m2":
            big = holder["M"]
    m["operators.dense_matrix_bytes"] = (float(big.rows.nbytes), "B")
    bmap = pkg.DiscreteBayesMap(np.exp(pkg.gaussian_likelihood(2.0, 1.0).log(np.array([0.0, 1.0]))))
    g = bmap.component(1)
    g_lat = pkg.LatticeFunction.from_callable(g, big.lattice)
    m["operators.iterate_operator.n4096_m2_s"] = (
        fast("operators.iterate_operator", lambda: pkg.iterate_operator(g_lat, big, 5), few),
        "s",
    )
    del big, g_lat, holder
    prior = pkg.ProbVector(np.array([0.6, 0.4]))
    m["operators.exact_bias.n1024_k4_cold_s"] = (
        fast("operators.exact_bias", lambda: pkg.exact_bias(g, prior, 1024, 4), 1, case="cold"),
        "s",
    )
    m["operators.exact_bias.n1024_k4_warm_s"] = (
        fast("operators.exact_bias", lambda: pkg.exact_bias(g, prior, 1024, 4), few, case="warm"),
        "s",
    )
    m["operators.exact_variance.n1024_k4_warm_s"] = (
        fast("operators.exact_variance", lambda: pkg.exact_variance(g, prior, 1024, 4), few),
        "s",
    )
    counts = pkg.CountsVector(np.array([26, 38]))
    pkg.debiased_estimate(g, counts, 2)
    m["operators.debiased_estimate.n64_k2_us"] = (
        fast("operators.debiased_estimate", lambda: pkg.debiased_estimate(g, counts, 2), many, 1e6),
        "us",
    )

    # bayes
    mix, lik, sampler, functional = mixture_callables(pkg, MC_SETTING)
    large_n = 2**12 if tiny else EXP_N
    for case, n, reps in (("n16", 16, many), ("n64", 64, many), ("n262144", large_n, few)):
        m[f"bayes.GaussianMixture.sample.{case}_us"] = (
            fast("bayes.GaussianMixture.sample", lambda: mix.sample(n, rng), reps, 1e6, case=case),
            "us",
        )
    pts64 = mix.sample(64, rng)
    big_pts = mix.sample(large_n, rng)
    m["bayes.WeightedSampleSet.n64_us"] = (
        fast("bayes.WeightedSampleSet", lambda: pkg.WeightedSampleSet(pts64), many, 1e6, case="n64"),
        "us",
    )
    m["bayes.WeightedSampleSet.n262144_us"] = (
        fast("bayes.WeightedSampleSet", lambda: pkg.WeightedSampleSet(big_pts), few, 1e6, case="n262144"),
        "us",
    )
    ws16 = pkg.WeightedSampleSet(mix.sample(16, rng))
    ws64 = pkg.WeightedSampleSet(pts64)
    for case, ws in (("n16", ws16), ("n64", ws64)):
        m[f"bayes.plugin_posterior_prob.{case}_us"] = (
            fast("bayes.plugin_posterior_prob", lambda: functional(ws), many, 1e6, case=case),
            "us",
        )
    exp_mix, exp_lik, _, _ = mixture_callables(pkg, EXP_SETTING)
    big_ws = pkg.WeightedSampleSet(exp_mix.sample(large_n, rng))
    threshold = EXP_SETTING["threshold"]

    def h(x):
        return (x >= threshold).astype(float)

    m["bayes.plugin_expectation.n262144_us"] = (
        fast("bayes.plugin_expectation", lambda: pkg.plugin_expectation(big_ws, exp_lik, h), few, 1e6),
        "us",
    )

    # resampling
    for case, ws in (("n16_k2", ws16), ("n64_k2", ws64)):
        m[f"resampling.build_chain.{case}_us"] = (
            fast("resampling.build_chain", lambda: pkg.build_chain(ws, 2, 7), many, 1e6, case=case),
            "us",
        )
    m["resampling.build_chain.n262144_k4_us"] = (
        fast("resampling.build_chain", lambda: pkg.build_chain(big_ws, 4, 7), few, 1e6, case="n262144_k4"),
        "us",
    )
    chain64 = pkg.build_chain(ws64, 2, 7)
    m["resampling.debiased_realization.n64_k2_us"] = (
        fast(
            "resampling.debiased_realization",
            lambda: pkg.debiased_realization(chain64, functional, 2),
            many,
            1e6,
        ),
        "us",
    )
    for k in (2, 4):
        m[f"resampling.debiased_expectation.n262144_k{k}_ms"] = (
            fast(
                "resampling.debiased_expectation",
                lambda: pkg.debiased_expectation(big_ws, exp_lik, h, k, 11),
                few,
                1e3,
                k=k,
            ),
            "ms",
        )
    pool_reps = 4096 + 64 if tiny else 8192
    pkg.outer_mc(sampler, functional, pkg.MCConfig(n=64, k=2, n_reps=256, root_seed=seed))
    for threads in (1, 2):
        cfg = pkg.MCConfig(n=64, k=2, n_reps=pool_reps, root_seed=seed, threads=threads)
        m[f"resampling.outer_mc.n64_k2_{threads}t_us_per_rep"] = (
            fast(
                "resampling.outer_mc",
                lambda: pkg.outer_mc(sampler, functional, cfg),
                1,
                1e6 / pool_reps,
                threads=threads,
            ),
            "us",
        )

    # The engine's own hook: timed callables passed into outer_mc. Per-call
    # spans would cost more than the calls they time, so the hooks add to two
    # counters and the outer span carries the totals.
    hook_reps = 256 if tiny else 2048
    spent = {"sampler": 0.0, "functional": 0.0}

    def timed_sampler(n, rng_):
        t = time.perf_counter()
        out = sampler(n, rng_)
        spent["sampler"] += time.perf_counter() - t
        return out

    def timed_functional(ws):
        t = time.perf_counter()
        out = functional(ws)
        spent["functional"] += time.perf_counter() - t
        return out

    hooked = pkg.MCConfig(n=64, k=2, n_reps=hook_reps, root_seed=seed)
    with tracer.span("resampling.outer_mc", case="hooked", probe=True) as sid:
        pkg.outer_mc(timed_sampler, timed_functional, hooked)
    span = next(s for s in tracer.spans if s["id"] == sid)
    span.update(sampler_s=spent["sampler"], functional_s=spent["functional"])
    per_rep = {k: v / hook_reps * 1e6 for k, v in spent.items()}
    wall_per_rep = (span["end"] - span["start"]) / hook_reps * 1e6
    m["resampling.outer_mc.sampler_us_per_rep"] = (per_rep["sampler"], "us")
    m["resampling.outer_mc.functional_us_per_rep"] = (per_rep["functional"], "us")
    m["resampling.outer_mc.overhead_us_per_rep"] = (
        wall_per_rep
        - per_rep["sampler"]
        - per_rep["functional"]
        - m["resampling.build_chain.n64_k2_us"][0],
        "us",
    )

    ell = rng.uniform(0.5, 2.0, size=3)
    log_ell = np.log(ell)
    lik3 = pkg.BoundedLikelihood(log_fn=lambda x: log_ell[np.rint(np.asarray(x)).astype(int)])

    def event_functional(ws):
        return pkg.plugin_posterior_prob(ws, lik3, lambda x: np.rint(x).astype(int) == 2)

    prior3 = pkg.ProbVector((rng.dirichlet(np.ones(3)) + 0.1) / 1.3)
    n_exh = 4 if tiny else 6
    m["resampling.exhaustive_chain_expectation.s"] = (
        fast(
            "resampling.exhaustive_chain_expectation",
            lambda: pkg.exhaustive_chain_expectation(event_functional, prior3, n_exh, 2),
            1,
        ),
        "s",
    )

    # rejection
    draws = REJECTION_DRAWS // 10 if tiny else REJECTION_DRAWS
    for case, bound in REJECTION_BOUNDS.items():
        prop, target = rejection_case(rng, bound)
        proposal = pkg.ProbVector(prop)
        if case == "bound1p1":
            m["rejection.make_rejection_spec.us"] = (
                fast(
                    "rejection.make_rejection_spec",
                    lambda: pkg.make_rejection_spec(proposal, target),
                    many,
                    1e6,
                ),
                "us",
            )
        spec = pkg.make_rejection_spec(proposal, target)
        attempts = {}

        def sample(spec=spec):
            attempts["n"] = pkg.rejection_sample_batch(
                spec, draws, seed=5, attempt_cap=int(10 * spec.bound * draws)
            )[1]

        t = fast("rejection.rejection_sample_batch", sample, few, case=case)
        m[f"rejection.rejection_sample_batch.{case}_draws_per_s"] = (draws / t, "1/s")
        m[f"rejection.proposals_per_accept.{case}"] = (attempts["n"] / draws, "ratio")

    # experiments
    cfg = pkg.default_mixture_config(
        n_grid=MC_GRID_N,
        k_values=MC_GRID_K,
        n_rule="fixed",
        n_fixed=256 if tiny else MC_LOOP_REPS,
        root_seed=seed,
        **MC_SETTING,
    )
    with tracer.span("experiments.run_mixture_mc", case="probe"):
        out = ledger.call("run_mixture_mc probe", pkg.run_mixture_mc, cfg)
    if out is not None:
        m["experiments.run_mixture_mc.guard_margin_max"] = (
            max(r["std_error"] / (abs(r["est_bias"]) / 3) for r in out[0]),
            "ratio",
        )
    return m
