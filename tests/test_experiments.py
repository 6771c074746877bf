import argparse
import csv
import dataclasses
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import posterior_debias
from posterior_debias import cli
from posterior_debias.cli import _git_commit, build_parser, main, write_csv, write_manifest
from posterior_debias.errors import CapExceededError, DegenerateError, UnderpoweredRunError
from posterior_debias.bayes import GaussianMixture, _plugin_expectation, gaussian_likelihood
from posterior_debias.experiments import (
    MC_RNG_SCHEME,
    BinaryConfig,
    IdentityConfig,
    MixtureConfig,
    RejectionConfig,
    default_binary_config,
    default_identity_config,
    default_mixture_config,
    fit_slope,
    run_binary_exact,
    run_identity_check,
    run_mixture_mc,
    run_rejection_demo,
    _BINARY_FITS,
    _binary_bayes_map,
    _mc_reps,
    _point_seed,
    _slope_fits,
)
from posterior_debias.operators import _exact_bias_variance, exact_bias, exact_variance
from posterior_debias.resampling import MCConfig, _batch_rows, outer_mc_batched
from posterior_debias.simplex import ProbVector

# Every config class with the arguments it needs, and one value of the wrong
# type per annotation; a tuple field gets a wrong item inside a tuple.
CONFIG_ARGS = {
    BinaryConfig: {},
    MixtureConfig: {},
    IdentityConfig: {},
    RejectionConfig: {},
    MCConfig: {"n": 4, "k": 1, "n_reps": 1, "root_seed": 0},
}
WRONG_VALUE = {int: 2.5, float: "0.5", bool: 1, str: 1.5}
# run_binary_exact at the default map, n in {64, 128, 256}, k = 1..6:
# (n, k, abs_bias.hex(), variance.hex()).
BINARY_EXACT_GOLDEN = [
    (64, 1, "0x1.1d7403589ff00p-8", "0x1.3e54c71532600p-9"),
    (64, 2, "0x1.3ccbb27906000p-14", "0x1.32411dfe27900p-9"),
    (64, 3, "0x1.0ba78eecf0000p-17", "0x1.3222526550600p-9"),
    (64, 4, "0x1.484e21ee00000p-20", "0x1.323503357c600p-9"),
    (64, 5, "0x1.6626edd600000p-22", "0x1.32362c5a90c00p-9"),
    (64, 6, "0x1.ecdc2f5000000p-25", "0x1.3235446fa2600p-9"),
    (128, 1, "0x1.1aae173481900p-9", "0x1.3598d11519800p-10"),
    (128, 2, "0x1.43fa60f1f0000p-16", "0x1.2faa8a770e200p-10"),
    (128, 3, "0x1.c673252700000p-21", "0x1.2fa7ea29c2000p-10"),
    (128, 4, "0x1.6d844d1800000p-24", "0x1.2faa182422e00p-10"),
    (128, 5, "0x1.6e01fd8000000p-28", "0x1.2faa0ec9d6400p-10"),
    (128, 6, "0x1.1b1fe70000000p-29", "0x1.2faa064628400p-10"),
    (256, 1, "0x1.194ff20d67600p-10", "0x1.315dbee687c00p-11"),
    (256, 2, "0x1.46d5683a60000p-18", "0x1.2e6e5f221f000p-11"),
    (256, 3, "0x1.9f441f4800000p-24", "0x1.2e6e4555f2000p-11"),
    (256, 4, "0x1.70719e8000000p-28", "0x1.2e6e863df0400p-11"),
    (256, 5, "0x1.6750e00000000p-34", "0x1.2e6e84fceb800p-11"),
    (256, 6, "0x1.1e9f400000000p-35", "0x1.2e6e84c6ff400p-11"),
]
# run_binary_exact at the default map, n in {512, 1024, 2048, 4096}, k = 1..6,
# recorded with numpy 2.4.6: (n, k, abs_bias.hex(), variance.hex()), then per
# k and column of its slope fits (k, column, slope, intercept, r^2) as hex.
# These are float64's bits, not the true bias: the exact path's rounding
# floor is near 2^-45 here, so the |bias| rows at n = 4096 and k >= 4 (and
# the k >= 5 rows from n = 1024 on, whose |bias| stops falling as n^-k) are
# rounding, and so are the k >= 4 slopes. ROADMAP items 1-2 (a series
# oracle, a double-double path) are what can tell the true values.
BINARY_EXACT_LARGE_N = [
    (512, 1, "0x1.18a21381e7c00p-11", "0x1.2f48b9f73c000p-12"),
    (512, 2, "0x1.48173ec680000p-20", "0x1.2dd3123cc1800p-12"),
    (512, 3, "0x1.8c364d8000000p-27", "0x1.2dd31c3ac3800p-12"),
    (512, 4, "0x1.6e8f480000000p-32", "0x1.2dd323fed3000p-12"),
    (512, 5, "0x1.7ca8000000000p-40", "0x1.2dd323e6cb800p-12"),
    (512, 6, "0x1.0d90000000000p-41", "0x1.2dd323e56b800p-12"),
    (1024, 1, "0x1.184b71219d000p-12", "0x1.2e405196a2000p-13"),
    (1024, 2, "0x1.48adad3200000p-22", "0x1.2d86026551000p-13"),
    (1024, 3, "0x1.82d7320000000p-30", "0x1.2d8606dd52000p-13"),
    (1024, 4, "0x1.6cea000000000p-36", "0x1.2d8607d005000p-13"),
    (1024, 5, "0x1.ca00000000000p-46", "0x1.2d8607ce6b000p-13"),
    (1024, 6, "0x1.c800000000000p-48", "0x1.2d8607ce62000p-13"),
    (2048, 1, "0x1.18203305cb000p-13", "0x1.2dbca2db2e000p-14"),
    (2048, 2, "0x1.48f6521800000p-24", "0x1.2d5f9cbd7a000p-14"),
    (2048, 3, "0x1.7e37f00000000p-33", "0x1.2d5f9e1930000p-14"),
    (2048, 4, "0x1.67e8000000000p-40", "0x1.2d5f9e372a000p-14"),
    (2048, 5, "0x1.b400000000000p-47", "0x1.2d5f9e3710000p-14"),
    (2048, 6, "0x1.8c00000000000p-47", "0x1.2d5f9e3712000p-14"),
    (4096, 1, "0x1.180a982406000p-14", "0x1.2d7aebda08000p-15"),
    (4096, 2, "0x1.491a81e000000p-26", "0x1.2d4c71341c000p-15"),
    (4096, 3, "0x1.7ce4800000000p-36", "0x1.2d4c7192c0000p-15"),
    (4096, 4, "0x1.6300000000000p-45", "0x1.2d4c71967c000p-15"),
    (4096, 5, "0x1.3f00000000000p-45", "0x1.2d4c719684000p-15"),
    (4096, 6, "0x1.1700000000000p-45", "0x1.2d4c719678000p-15"),
]
BINARY_EXACT_LARGE_N_FITS = [
    (1, "abs_bias", "-0x1.0041920b505c9p+0", "-0x1.49d61f0eb51a2p+0", "0x1.fffffd147ff4ap-1"),
    (1, "variance", "-0x1.00b951d9255a2p+0", "-0x1.e49b16437899ap+0", "0x1.ffffe8bb249dep-1"),
    (2, "abs_bias", "-0x1.ffa06ba7b00c3p+0", "-0x1.259c378a08891p+0", "0x1.fffffe57426d9p-1"),
    (2, "variance", "-0x1.00362b5f54fa1p+0", "-0x1.e8e9c1533c1e2p+0", "0x1.fffffdff9ba08p-1"),
    (3, "abs_bias", "-0x1.826810a456479p+1", "0x1.18f8e0f5e9daap-1", "0x1.ffff5eb26ae8bp-1"),
    (3, "variance", "-0x1.00362f4914ee2p+0", "-0x1.e8e9a16947cbep+0", "0x1.fffffdff4cf2dp-1"),
    (4, "abs_bias", "-0x1.1437167fc1e0ep+2", "0x1.4f945eb449d7cp+2", "0x1.fe53aa755ffcfp-1"),
    (4, "variance", "-0x1.0036323b92ebcp+0", "-0x1.e8e98a15d2d03p+0", "0x1.fffffdfed29a8p-1"),
    (5, "abs_bias", "-0x1.aeff34fa5ab5ap+0", "-0x1.228bda0c5d39bp+4", "0x1.0688f50c75c45p-1"),
    (5, "variance", "-0x1.003632328ebf2p+0", "-0x1.e8e98a5ce50b4p+0", "0x1.fffffdfed4334p-1"),
    (6, "abs_bias", "-0x1.1aff68f07563bp+0", "-0x1.70811c9016c69p+4", "0x1.0f103b7331e00p-2"),
    (6, "variance", "-0x1.0036323210982p+0", "-0x1.e8e98a60c9dc5p+0", "0x1.fffffdfed44cdp-1"),
]
CONFIG_FIELDS = [(cls, f.name) for cls in CONFIG_ARGS for f in dataclasses.fields(cls)]


# Every field that holds floats, with a non-finite value of its type.
NON_FINITE_FIELDS = [
    (cls, name, value)
    for cls, name in CONFIG_FIELDS
    for hint in [typing.get_type_hints(cls)[name]]
    for value in {float: [np.nan, -np.inf], tuple[float, ...]: [(1.0, np.inf), (np.nan,)]}.get(
        hint, []
    )
]


def wrong_value(hint):
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is tuple:
        return (1, WRONG_VALUE[args[0]])
    return WRONG_VALUE[args[0] if args else hint]


class TestFitSlope:
    def test_exact_power_law(self):
        ns = np.array([8, 16, 32, 64, 128])
        fit = fit_slope(ns, 3.7 * ns**-2.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points_used == 5

    def test_constant_values(self):
        fit = fit_slope([4, 8, 16], [0.5, 0.5, 0.5])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_intercept_recovered(self):
        ns = np.array([10, 100, 1000])
        fit = fit_slope(ns, 5.0 * ns**-1.5)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-10)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_slope([2, 4], [1.0, 0.0])
        with pytest.raises(ValueError):
            fit_slope([2, 4], [1.0, -0.5])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            fit_slope([0, 4], [1.0, 1.0])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope([4], [1.0])
        # points at one size have no slope
        with pytest.raises(ValueError, match="distinct sizes"):
            fit_slope([8, 8, 8], [1.0, 2.0, 3.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_slope([2, 4, 8], [1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="sizes must be finite"):
            fit_slope([2, bad, 8], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="values must be finite"):
            fit_slope([2, 4, 8], [1.0, bad, 0.25])

    @staticmethod
    def _numpy_fit(sizes, values):
        # fit_slope as it was written with numpy throughout, kept as the
        # reference for its bits and its errors.
        ns = np.asarray(sizes, dtype=float)
        vs = np.asarray(values, dtype=float)
        if ns.ndim != 1 or ns.shape != vs.shape:
            raise ValueError("sizes and values must be 1-d and the same length")
        for name, arr in (("sizes", ns), ("values", vs)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise ValueError(f"{name} must be finite, got {arr[bad].tolist()}")
        if len(set(ns.tolist())) < 2:
            raise ValueError("slope fit needs at least 2 points at distinct sizes")
        if (ns <= 0).any():
            raise ValueError("sizes must be positive")
        if (vs <= 0).any():
            raise ValueError("slope fit needs positive values")
        x = np.log(ns)
        y = np.log(vs)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_res = float(resid @ resid)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0.0 else min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
        return float(slope), float(intercept), r2, ns.size

    def test_bits_equal_numpy_reference(self):
        # 1,200 seeded fits: 2 to 19 points, sizes drawn with repeats,
        # values spread over 30 decades, some constant.
        rng = np.random.default_rng(np.random.SeedSequence([2024, 0]))
        for case in range(1200):
            m = int(rng.integers(2, 20))
            sizes = rng.integers(1, 5000, size=m)
            if case % 3 == 0:
                sizes = np.sort(rng.choice([8, 16, 32, 64, 128], size=m))
            values = 10.0 ** rng.uniform(-20, 10, size=m)
            if case % 50 == 0:
                values[:] = 0.25
            args = (sizes.tolist(), values.tolist()) if case % 2 else (sizes, values)
            try:
                want = self._numpy_fit(*args)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    fit_slope(*args)
                continue
            fit = fit_slope(*args)
            got = (fit.slope, fit.intercept, fit.r_squared, fit.points_used)
            assert [float(v).hex() for v in got[:3]] == [v.hex() for v in want[:3]], case
            assert type(got[0]) is type(got[1]) is float and got[3] == want[3]

    def test_rank_deficient_fit_warns_as_polyfit_does(self):
        # Two sizes one ulp apart: log gives the same x twice, so the fit
        # has rank 1 and np.polyfit warns; fit_slope must warn too and give
        # the same bits (r^2 of 0.0).
        sizes = [np.e, np.nextafter(np.e, 3)]
        with pytest.warns(np.exceptions.RankWarning, match="Polyfit may be poorly conditioned"):
            want = self._numpy_fit(sizes, [1.0, 2.0])
        with pytest.warns(np.exceptions.RankWarning, match="Polyfit may be poorly conditioned"):
            fit = fit_slope(sizes, [1.0, 2.0])
        got = (fit.slope, fit.intercept, fit.r_squared)
        assert [v.hex() for v in got] == [v.hex() for v in want[:3]]
        assert fit.r_squared == 0.0

    @pytest.mark.parametrize(
        "sizes, values",
        [
            ([2, np.nan, 8, np.inf], [1.0, 0.5, 0.25, 0.1]),
            ([2, 4, 8], [1.0, -np.inf, np.nan]),
            ([-1, 4], [1.0, 1.0]),
            ([2, 4], [1.0, 0.0]),
            ([4, 4], [1.0, 2.0]),
            ([[2, 4]], [[1.0, 2.0]]),
            ([], []),
        ],
    )
    def test_errors_equal_numpy_reference(self, sizes, values):
        with pytest.raises(ValueError) as want:
            self._numpy_fit(sizes, values)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            fit_slope(sizes, values)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = default_binary_config()
        assert cfg.n_grid == (16, 32, 64, 128, 256, 512, 1024)
        assert cfg.k_values == (1, 2, 3, 4)
        mix = default_mixture_config()
        assert mix.n_grid == (8, 12, 16, 24, 32, 48, 64)
        assert mix.noise_var == pytest.approx(1 / 16)

    def test_mixture_default_is_order_one(self):
        # The default grid runs k = 1 only: at k = 2 the bias crosses zero
        # between n = 8 and 16, so the default grid would trip the guard.
        assert default_mixture_config().k_values == (1,)

    @pytest.mark.parametrize("kwargs", [{}, {"threads": None}])
    def test_mixture_threads_default_to_one_per_cpu(self, monkeypatch, kwargs):
        # Resolved in the config, so the manifest's config holds the count.
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_mixture_config(**kwargs).threads == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_mixture_config(**kwargs).threads == 1
        assert default_mixture_config(threads=1).threads == 1

    def test_threads_help_names_side_by_side_sweeps(self):
        (threads,) = [f for f in dataclasses.fields(MixtureConfig) if f.name == "threads"]
        assert "default one per CPU" in threads.metadata["help"]
        assert "--threads 1" in threads.metadata["help"]

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            default_binary_config(n_grid=(64, 32))

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            default_binary_config(n_grid=(64,))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            default_binary_config(k_values=(0,))

    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (BinaryConfig, {"k_values": (2, 2)}),
            (MixtureConfig, {"k_values": (1, 2, 1)}),
            (IdentityConfig, {"k_values": (1, 1)}),
            (IdentityConfig, {"m_values": (2, 2)}),
        ],
    )
    def test_rejects_repeated_order_or_support(self, cls, kwargs):
        # A repeated entry used to run, write and fit each of its points twice.
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must not repeat"):
            cls(**kwargs)

    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            default_mixture_config(n_rule="n_pow5")
        with pytest.raises(ValueError):
            default_mixture_config(n_rule="fixed")
        for rule in (None, "n_pow3", "n_pow4"):
            with pytest.raises(ValueError, match="n_fixed"):
                default_mixture_config(n_rule=rule, n_fixed=500)


    @pytest.mark.parametrize(
        "cls, kwargs",
        [
            (BinaryConfig, {"k_values": (1, 21)}),
            (MixtureConfig, {"k_values": (1, 25)}),
            (IdentityConfig, {"k_values": (21,)}),
            (MixtureConfig, {"mc_cap": 0}),
            (MixtureConfig, {"root_seed": -1}),
            (IdentityConfig, {"root_seed": -1}),
            (RejectionConfig, {"root_seed": -1}),
            (RejectionConfig, {"demo_n": 0}),
            (RejectionConfig, {"demo_k": 0}),
            (RejectionConfig, {"demo_k": 21}),
            (MixtureConfig, {"threads": 0}),
            (RejectionConfig, {"demo_draws": 0}),
        ],
    )
    def test_out_of_range_value_names_field(self, cls, kwargs):
        # Each used to pass the config and fail at a grid point, if at all
        # under its own name.
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            cls(**kwargs)

    @pytest.mark.parametrize(
        "cls, name", CONFIG_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FIELDS]
    )
    def test_wrong_type_names_field(self, cls, name):
        value = wrong_value(typing.get_type_hints(cls)[name])
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            cls(**{**CONFIG_ARGS[cls], name: value})

    @pytest.mark.parametrize(
        "cls, name, value",
        NON_FINITE_FIELDS,
        ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in NON_FINITE_FIELDS],
    )
    def test_non_finite_float_names_field(self, cls, name, value):
        with pytest.raises(ValueError, match=f"field {name} must be finite"):
            cls(**{**CONFIG_ARGS[cls], name: value})

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (default_binary_config, {"n_grid": (8.9, 16)}),  # used to run n = 8
            (default_mixture_config, {"threads": 2.5}),
            (default_mixture_config, {"n_rule": "fixed", "n_fixed": 300.7}),
            (RejectionConfig, {"demo_n": 64.7}),
        ],
    )
    def test_python_caller_meets_the_type_check(self, make, kwargs):
        name = list(kwargs)[-1]
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            make(**kwargs)

    def test_list_stored_as_tuple(self):
        cfg = IdentityConfig(m_values=[2, 3], n_grid=[np.int64(4), 6])
        assert cfg.m_values == (2, 3) and isinstance(cfg.m_values, tuple)
        assert cfg.n_grid == (4, 6) and isinstance(cfg.n_grid, tuple)

    @pytest.mark.parametrize("m_values", [(1,), (1, 2), ()])
    def test_identity_needs_two_atoms(self, m_values):
        # A one-atom posterior is identically 1, so the check would compare nothing.
        with pytest.raises(ValueError, match="m_values"):
            default_identity_config(m_values=m_values)


class TestRunBinaryExact:
    def test_rows_and_schema(self):
        cfg = default_binary_config(n_grid=(8, 16, 32), k_values=(1, 2))
        rows, fits = run_binary_exact(cfg)
        assert len(rows) == 6
        assert set(rows[0]) == {"n", "k", "abs_bias", "variance"}
        assert all(r["abs_bias"] > 0 and r["variance"] > 0 for r in rows)
        assert fits[1]["abs_bias"].slope < -0.5

    @staticmethod
    def _rows(g, q, n_grid, k_values):
        # The rows run_binary_exact builds, for any map g.
        return [
            {"n": n, "k": k, "abs_bias": abs(bias), "variance": variance}
            for n in n_grid
            for k, (bias, variance) in _exact_bias_variance(g, q, n, k_values).items()
        ]

    def test_linear_map_all_zero_bias(self):
        rows = self._rows(lambda x: 0.25 + 0.5 * x[1], ProbVector([0.6, 0.4]), (8, 16), (1, 2))
        assert len(rows) == 4
        assert all(r["abs_bias"] < 1e-13 for r in rows)

    def test_zero_map_has_no_slope_fit(self):
        rows = self._rows(lambda x: 0.0, ProbVector([0.6, 0.4]), (8, 16), (1,))
        assert all(r["abs_bias"] == 0.0 for r in rows)
        fits = _slope_fits(rows, (1,), _BINARY_FITS)
        assert fits[1]["abs_bias"] is None
        assert fits[1]["variance"] is None

    @pytest.mark.parametrize("g", [None, lambda x: np.sin(3.0 * x[1]) + x[0] ** 2])
    def test_rows_equal_exact_bias_and_variance(self, g):
        # One shared iterate stack per n gives the per-(n, k) values exactly:
        # the default map through run_binary_exact, another map through the
        # _exact_bias_variance call it makes.
        cfg = default_binary_config(n_grid=(16, 64), k_values=(3, 1, 2))
        q = ProbVector([1.0 - cfg.q, cfg.q])
        if g is None:
            rows, _ = run_binary_exact(cfg)
            g = _binary_bayes_map(cfg).component(1)
        else:
            rows = self._rows(g, q, cfg.n_grid, cfg.k_values)
        assert [(r["n"], r["k"]) for r in rows] == [(n, k) for n in (16, 64) for k in (3, 1, 2)]
        for r in rows:
            assert r["abs_bias"] == abs(exact_bias(g, q, r["n"], r["k"]))
            assert r["variance"] == exact_variance(g, q, r["n"], r["k"])

    def test_golden_values(self):
        # float.hex of |bias| and variance, recorded before the exact path
        # shared its iterate stacks; any change of rounding shows here.
        cfg = default_binary_config(n_grid=(64, 128, 256), k_values=(1, 2, 3, 4, 5, 6))
        rows, _ = run_binary_exact(cfg)
        got = [(r["n"], r["k"], r["abs_bias"].hex(), r["variance"].hex()) for r in rows]
        assert got == BINARY_EXACT_GOLDEN

    def test_large_n_golden_values(self):
        # The sweep to n = 4096 that binary-exact runs; see the comment on
        # BINARY_EXACT_LARGE_N for what these bits are.
        cfg = default_binary_config(n_grid=(512, 1024, 2048, 4096), k_values=(1, 2, 3, 4, 5, 6))
        rows, fits = run_binary_exact(cfg)
        got = [(r["n"], r["k"], r["abs_bias"].hex(), r["variance"].hex()) for r in rows]
        assert got == BINARY_EXACT_LARGE_N
        got_fits = [
            (k, name, fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex())
            for k, columns in fits.items()
            for name, fit in columns.items()
        ]
        assert got_fits == BINARY_EXACT_LARGE_N_FITS

    def test_cap_error_names_offending_n(self):
        # k = 1 never builds the operator matrix, so the cap needs k >= 2
        cfg = default_binary_config(n_grid=(16, 8000), k_values=(2,))
        with pytest.raises(CapExceededError, match="n=8000"):
            run_binary_exact(cfg)

    def test_cap_error_carries_finished_rows(self):
        finished, fits = run_binary_exact(default_binary_config(n_grid=(16, 32), k_values=(1, 2)))
        cfg = default_binary_config(n_grid=(16, 32, 8000), k_values=(1, 2))
        with pytest.raises(CapExceededError) as exc:
            run_binary_exact(cfg)
        assert len(exc.value.rows) == 4
        assert exc.value.rows == finished
        assert exc.value.info == {"cap_exceeded": {"n": 8000}, "slope_fits": fits}


class TestRunMixtureMC:
    def test_small_run_schema(self):
        cfg = default_mixture_config(
            n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=3000, threads=4
        )
        rows, info = run_mixture_mc(cfg)
        assert len(rows) == 2
        assert set(rows[0]) == {
            "n", "k", "N", "est_mean", "true_value",
            "est_bias", "est_variance", "std_error",
        }
        assert rows[0]["N"] == 3000
        assert rows[0]["true_value"] == pytest.approx(0.8795404134930043, rel=1e-12)
        assert info["capped"] == []

    def test_default_rule_and_cap(self):
        cfg = default_mixture_config(
            n_grid=(8, 12), k_values=(1,), mc_cap=600, root_seed=3
        )
        rows, info = run_mixture_mc(cfg)
        assert rows[0]["N"] == 512  # 8^3, under the cap
        assert rows[1]["N"] == 600  # 12^3 capped
        assert info["capped"] == [
            {"n": 12, "k": 1, "requested": 1728, "effective": 600}
        ]

    def test_numpy_sizes_do_not_wrap(self):
        # The configs keep numpy integers as given; 60000^4 overflows int64.
        cfg = default_mixture_config(n_grid=(np.int64(8), np.int64(60000)), k_values=(2,))
        assert _mc_reps(cfg, cfg.n_grid[1], 2) == 60000**4

    def test_underpowered_aborts(self):
        cfg = default_mixture_config(
            n_grid=(24, 32), k_values=(1,), n_rule="fixed", n_fixed=100
        )
        with pytest.raises(UnderpoweredRunError):
            run_mixture_mc(cfg)

    def test_zero_variance_has_no_slope(self):
        # No draw at n <= 12 reaches the threshold 6, so every plug-in value
        # is exactly 0: the variance column is all zero, the bias is not.
        cfg = default_mixture_config(
            n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=2,
            y_obs=6.0, noise_var=1.0, threshold=6.0,
        )
        rows, info = run_mixture_mc(cfg)
        assert [r["est_mean"] for r in rows] == [0.0, 0.0]
        assert [r["est_variance"] for r in rows] == [0.0, 0.0]
        assert rows[0]["est_bias"] == pytest.approx(-1.9191348895e-4, rel=1e-9)
        assert info["fits"][1]["est_variance"] is None
        assert info["fits"][1]["abs_bias"] is not None

    def test_zero_bias_and_spread_has_no_guard_margin(self):
        # Every draw clears the threshold -100, so each plug-in value and
        # the truth are exactly 1: bias and standard error are both 0.
        cfg = default_mixture_config(
            n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=10, threshold=-100.0
        )
        rows, info = run_mixture_mc(cfg)
        assert [(r["est_bias"], r["std_error"]) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]
        assert [p["guard_margin"] for p in info["points"]] == [None, None]
        assert info["fits"][1] == {"abs_bias": None, "est_variance": None}

    def test_one_replicate_is_underpowered(self):
        cfg = default_mixture_config(n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=1)
        with pytest.raises(UnderpoweredRunError, match="one replicate") as exc:
            run_mixture_mc(cfg)
        assert exc.value.rows == []
        assert exc.value.info["underpowered"]["N"] == 1

    def test_thread_invariance(self):
        # 9000 replicates are 3 chunks of at most 4096, so threads=4 runs a pool.
        kwargs = dict(n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=9000)
        rows_1, _ = run_mixture_mc(default_mixture_config(threads=1, **kwargs))
        rows_4, _ = run_mixture_mc(default_mixture_config(threads=4, **kwargs))
        assert rows_1 == rows_4

    # est_mean and est_variance of each (n, k) as float.hex, recorded with
    # numpy 2.4.6: 9000 replicates are 3 chunks per point, so this pins the
    # batched stream (MC_RNG_SCHEME) and every reduction on it, bit for bit.
    # The k = 1 rows read stage 1 of the k = 2 pass at each n; the k = 2
    # rows have the bits they had when each (n, k) ran its own pass.
    PINNED_BATCHED = [
        (16, 1, "0x1.6f2a7d9f29758p-4", "0x1.438bacffa7db6p-4"),
        (32, 1, "0x1.2dc6a98c9e411p-3", "0x1.dded0b0cc192fp-4"),
        (16, 2, "0x1.f2c6f3f5e5560p-4", "0x1.587ff734d78a0p-3"),
        (32, 2, "0x1.9117e9db0b4b5p-3", "0x1.f79cc65d02f48p-3"),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batched_stream_bits_are_pinned(self, threads):
        cfg = default_mixture_config(
            n_grid=(16, 32), k_values=(1, 2), n_rule="fixed", n_fixed=9000,
            y_obs=3.5, threshold=3.3, threads=threads,
        )
        rows, _ = run_mixture_mc(cfg)
        got = [(r["n"], r["k"], r["est_mean"].hex(), r["est_variance"].hex()) for r in rows]
        assert got == self.PINNED_BATCHED

    # The benchmark's mc_mixture grid at root seed 0, recorded with numpy
    # 2.4.6: N = 512 makes each point one chunk of 512 rows, up to n = 64.
    # Per (n, k), est_mean and est_variance; per (k, column), the slope,
    # intercept and r^2 of its fit; all as float.hex. As in PINNED_BATCHED,
    # the k = 1 entries come from the k = 2 pass at each n.
    PINNED_BENCH_ROWS = [
        (16, 1, "0x1.3b71bc4ead8bcp-4", "0x1.1935e9b0ccd90p-4"),
        (32, 1, "0x1.638d69f805db8p-3", "0x1.143ca8b061979p-3"),
        (64, 1, "0x1.171c11341421cp-2", "0x1.570f30bb1aa0dp-3"),
        (16, 2, "0x1.ccaabf9d5a9bap-4", "0x1.5bbd07be7a682p-3"),
        (32, 2, "0x1.d1f35a0fe1cc5p-3", "0x1.1e0fcd9be02efp-2"),
        (64, 2, "0x1.682fd045e0fecp-2", "0x1.651e97a352ce6p-2"),
    ]
    PINNED_BENCH_FITS = [
        (1, "abs_bias", "-0x1.6ab5cdef71ba9p-2", "0x1.3b312c87c3687p-2", "0x1.fcfb73c84263ap-1"),
        (1, "est_variance", "0x1.496c31e1694dbp-1", "-0x1.18b612b8404d2p+2", "0x1.d686f63e45224p-1"),
        (2, "abs_bias", "-0x1.07fa7f3e6afb4p-1", "0x1.64a57494422bdp-1", "0x1.f878b67753218p-1"),
        (2, "est_variance", "0x1.09d4e11ab6251p-1", "-0x1.95564aea5154ep+1", "0x1.e812267d0f843p-1"),
    ]

    def test_benchmark_grid_bits_are_pinned(self):
        cfg = default_mixture_config(
            n_grid=(16, 32, 64), k_values=(1, 2), n_rule="fixed", n_fixed=512,
            y_obs=3.5, noise_var=1 / 16, threshold=3.3, root_seed=0,
        )
        rows, info = run_mixture_mc(cfg)
        got = [(r["n"], r["k"], r["est_mean"].hex(), r["est_variance"].hex()) for r in rows]
        assert got == self.PINNED_BENCH_ROWS
        fits = [
            (k, name, fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex())
            for k, columns in info["fits"].items()
            for name, fit in columns.items()
        ]
        assert fits == self.PINNED_BENCH_FITS

    # run_mixture_mc at its defaults (k = 1 only, N = n^3) on 2 threads,
    # recorded with numpy 2.4.6: per n, N, est_mean, est_variance and
    # std_error; per column, the slope, intercept and r^2 of its fit; all as
    # float.hex. A single-order sweep runs one pass per point, so it keeps
    # these bits under the one-pass-per-n layout.
    PINNED_DEFAULT_ROWS = [
        (8, 512, "0x1.a779705d05bf2p-1", "0x1.b8ae43562933ap-5", "0x1.4fe0db419da54p-7"),
        (12, 1728, "0x1.b1b5855f52302p-1", "0x1.08973deea8541p-5", "0x1.1b55cc2936f83p-8"),
        (16, 4096, "0x1.b59f64e00f2f7p-1", "0x1.4c04c80e4d525p-6", "0x1.238ac56c958e0p-9"),
        (24, 13824, "0x1.bbd821e77c839p-1", "0x1.454b28d744a85p-7", "0x1.bc4a0eba5ffd5p-11"),
        (32, 32768, "0x1.bdaefcbe5193ep-1", "0x1.bb82e72907088p-8", "0x1.dc86dd624c4adp-12"),
        (48, 110592, "0x1.bf4e781d98ff2p-1", "0x1.1141feff2d8a5p-8", "0x1.9734c8bdbbbc3p-13"),
        (64, 262144, "0x1.c017885e3b9d5p-1", "0x1.88b90db5b7261p-9", "0x1.c069b239121dbp-14"),
    ]
    PINNED_DEFAULT_FITS = [
        ("abs_bias", "-0x1.39b5e8e9c7478p+0", "-0x1.910aa572faa2ap-2", "0x1.fdb6c7abfff23p-1"),
        ("est_variance", "-0x1.6da0b9d1be230p+0", "0x1.4c4b70da0e7b7p-5", "0x1.fd6ed88af8822p-1"),
    ]

    def test_default_sweep_bits_are_pinned(self):
        rows, info = run_mixture_mc(default_mixture_config(threads=2))
        got = [
            (r["n"], r["N"], r["est_mean"].hex(), r["est_variance"].hex(), r["std_error"].hex())
            for r in rows
        ]
        assert {r["k"] for r in rows} == {1}
        assert got == self.PINNED_DEFAULT_ROWS
        fits = [
            (name, fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex())
            for name, fit in info["fits"][1].items()
        ]
        assert fits == self.PINNED_DEFAULT_FITS

    # A k = 2 only sweep on the PINNED_BATCHED grid, recorded with numpy
    # 2.4.6; the deepest order of a multi-order sweep has these bits too.
    PINNED_K2_ONLY = [
        (16, 2, "0x1.f2c6f3f5e5560p-4", "0x1.587ff734d78a0p-3"),
        (32, 2, "0x1.9117e9db0b4b5p-3", "0x1.f79cc65d02f48p-3"),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_single_order_stream_bits_are_pinned(self, threads):
        cfg = default_mixture_config(
            n_grid=(16, 32), k_values=(2,), n_rule="fixed", n_fixed=9000,
            y_obs=3.5, threshold=3.3, threads=threads,
        )
        rows, _ = run_mixture_mc(cfg)
        got = [(r["n"], r["k"], r["est_mean"].hex(), r["est_variance"].hex()) for r in rows]
        assert got == self.PINNED_K2_ONLY


# The tail setting of PINNED_BATCHED: the bias is many standard errors out at
# every order up to 4, so no guard trips in the sweeps below.
TAIL = dict(y_obs=3.5, threshold=3.3)


def mixture_callables(cfg):
    """The sampler and plug-in functional run_mixture_mc builds for ``cfg``."""
    mix = GaussianMixture(cfg.mix_weights, cfg.mix_means, cfg.mix_variances)
    lik = gaussian_likelihood(cfg.y_obs, cfg.noise_var)
    return mix._fill, lambda x: _plugin_expectation(x, lik, lambda v: v >= cfg.threshold)


def order_subsets(orders):
    return [ks for r in range(1, len(orders) + 1) for ks in itertools.combinations(orders, r)]


class TestOnePassPerN:
    """run_mixture_mc runs one pass per n, seeded for the deepest order, and
    every order reads its row at n from the stages of that pass."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k_values", order_subsets((1, 2, 3, 4)))
    def test_each_order_equals_its_own_batched_call(self, k_values, threads):
        # N = 9,000 is 3 chunks of at most 4096 rows at n = 8 and 16.
        cfg = default_mixture_config(
            n_grid=(8, 16), k_values=k_values, n_rule="fixed", n_fixed=9000,
            threads=threads, **TAIL,
        )
        rows, _ = run_mixture_mc(cfg)
        sampler, functional = mixture_callables(cfg)
        for row in rows:
            n, k = row["n"], row["k"]
            seed = _point_seed(cfg.root_seed, n, max(k_values))
            want = outer_mc_batched(sampler, functional, n, {k: 9000}, seed, threads)[k]
            got = (row["est_mean"], row["est_variance"], row["std_error"], row["N"])
            assert got == (want.mean, want.variance, want.std_error, want.n_reps)

    @pytest.mark.parametrize("k_values", [(1, 3), (2, 3), (1, 2, 3)])
    def test_deepest_order_equals_its_single_order_sweep(self, k_values):
        kwargs = dict(n_grid=(16, 32), n_rule="fixed", n_fixed=9000, **TAIL)
        rows, _ = run_mixture_mc(default_mixture_config(k_values=k_values, **kwargs))
        alone, _ = run_mixture_mc(default_mixture_config(k_values=(3,), **kwargs))
        assert [r for r in rows if r["k"] == 3] == alone

    def test_lower_order_reads_the_first_replicates_of_the_pass(self):
        # The default rule gives N_1 = n^3 < N_2 = min(n^4, cap): at n = 20,
        # 8,000 of 12,000 replicates, so order 1 ends inside chunk 1 of 3.
        cfg = default_mixture_config(n_grid=(12, 20), k_values=(1, 2), mc_cap=12_000, **TAIL)
        rows, info = run_mixture_mc(cfg)
        sampler, functional = mixture_callables(cfg)
        for n in (12, 20):
            seed = _point_seed(cfg.root_seed, n, 2)
            rows_per_chunk = _batch_rows(n)
            values, partials = [], []
            for c, lo in enumerate(range(0, 12_000, rows_per_chunk)):
                b = min(rows_per_chunk, 12_000 - lo)
                data = np.empty((b, n))
                sampler(data, np.random.default_rng(np.random.SeedSequence([seed, 1, c])))
                chunk = functional(data)[: max(0, min(b, n**3 - lo))]  # weights [1]
                values.append(chunk)
                if chunk.size:
                    partials.append((chunk.size, chunk.mean(), ((chunk - chunk.mean()) ** 2).sum()))
            values = np.concatenate(values)
            assert values.size == n**3
            # The chunk moments, merged in chunk order as the published
            # reduction does, give the row's bits.
            count, mean, m2 = partials[0]
            for cb, mb, sb in partials[1:]:
                delta = mb - mean
                count, mean, m2 = (
                    count + cb,
                    mean + delta * cb / (count + cb),
                    m2 + sb + delta * delta * count * cb / (count + cb),
                )
            (row,) = [r for r in rows if (r["n"], r["k"]) == (n, 1)]
            assert row["N"] == n**3
            assert (row["est_mean"], row["est_variance"]) == (mean, m2 / (count - 1))
            assert row["est_mean"] == pytest.approx(values.mean(), rel=1e-13)
            assert row["est_variance"] == pytest.approx(values.var(ddof=1), rel=1e-12)
            # Order 2 is the deepest: its own batched call, over all 12,000.
            want = outer_mc_batched(sampler, functional, n, {2: 12_000}, seed, 1)[2]
            (row,) = [r for r in rows if (r["n"], r["k"]) == (n, 2)]
            assert (row["est_mean"], row["est_variance"]) == (want.mean, want.variance)
        assert info["capped"] == [{"n": 12, "k": 2, "requested": 20736, "effective": 12000},
                                  {"n": 20, "k": 2, "requested": 160000, "effective": 12000}]

    def test_points_at_one_n_share_the_pass(self):
        cfg = default_mixture_config(
            n_grid=(8, 16), k_values=(1, 2, 3), n_rule="fixed", n_fixed=3000, **TAIL
        )
        rows, info = run_mixture_mc(cfg)
        points = info["points"]
        assert [(p["n"], p["k"]) for p in points] == [(r["n"], r["k"]) for r in rows]
        for n in (8, 16):
            at_n = [p for p in points if p["n"] == n]
            assert len(at_n) == 3
            assert len({(p["wall_time_s"], p["minor_faults"]) for p in at_n}) == 1
            for p in at_n:
                assert p["reps_per_s"] == p["N"] / p["wall_time_s"]
        assert points[0]["wall_time_s"] != points[1]["wall_time_s"]


# Every case run_identity_check returns for the default root seed, as
# (m, n, k, enumerated.hex(), exact_mean.hex()), recorded before the exact
# path's dispatch was trimmed: the grid of the benchmark's exact pass, then
# one case at k = 4, m = 4.
IDENTITY_GOLDEN = [
    (2, 4, 1, "0x1.ba4f1e01bd52cp-1", "0x1.ba4f1e01bd52cp-1"),
    (2, 4, 2, "0x1.9abe43906b4d3p-1", "0x1.9abe43906b4d3p-1"),
    (2, 4, 3, "0x1.c7119399922d4p-3", "0x1.c7119399922d1p-3"),
    (2, 6, 1, "0x1.5ec92ac460127p-1", "0x1.5ec92ac460126p-1"),
    (2, 6, 2, "0x1.1d656cc630a28p-2", "0x1.1d656cc630a2ap-2"),
    (2, 6, 3, "0x1.174fc7e16ca52p-2", "0x1.174fc7e16ca51p-2"),
    (2, 8, 1, "0x1.6a338550f1662p-2", "0x1.6a338550f1661p-2"),
    (2, 8, 2, "0x1.4619c66bcc9fap-1", "0x1.4619c66bcc9f8p-1"),
    (2, 8, 3, "0x1.4dd4a3774fc5fp-2", "0x1.4dd4a3774fc57p-2"),
    (3, 4, 1, "0x1.0d3b6ec7b16afp-2", "0x1.0d3b6ec7b16b0p-2"),
    (3, 4, 2, "0x1.800318c287c5cp-2", "0x1.800318c287c58p-2"),
    (3, 4, 3, "0x1.5adab6db83f6cp-2", "0x1.5adab6db83f67p-2"),
    (3, 6, 1, "0x1.3b48f4123edccp-1", "0x1.3b48f4123edcbp-1"),
    (3, 6, 2, "0x1.b0c7992303916p-2", "0x1.b0c7992303918p-2"),
    (3, 6, 3, "0x1.28abcca0c680ap-1", "0x1.28abcca0c680fp-1"),
    (3, 8, 1, "0x1.479ee2071e1c1p-1", "0x1.479ee2071e1c1p-1"),
    (3, 8, 2, "0x1.40f955616f095p-3", "0x1.40f955616f08ep-3"),
    (3, 8, 3, "0x1.498eb14c7276ep-1", "0x1.498eb14c72762p-1"),
    (4, 3, 4, "0x1.62b330d188639p-3", "0x1.62b330d188641p-3"),
    (4, 4, 4, "0x1.2a8b640a0d776p-4", "0x1.2a8b640a0d76ap-4"),
]


class TestRunIdentityCheck:
    def test_default_passes(self):
        report = run_identity_check(default_identity_config())
        assert report["pass"]
        assert report["max_discrepancy"] < 1e-10
        assert len(report["cases"]) == 8  # 2 m-values x 2 n-values x 2 k-values

    def test_example_cases(self):
        report = run_identity_check(
            default_identity_config(n_grid=(4, 6), k_values=(2,), m_values=(2,))
        )
        assert report["pass"]

    @pytest.mark.parametrize(
        "grid",
        [dict(n_grid=(4, 6, 8), k_values=(1, 2, 3), m_values=(2, 3)),
         dict(n_grid=(3, 4), k_values=(4,), m_values=(4,))],
    )
    def test_golden_values(self, grid):
        report = run_identity_check(default_identity_config(**grid))
        got = [
            (c["m"], c["n"], c["k"], c["enumerated"].hex(), c["exact_mean"].hex())
            for c in report["cases"]
        ]
        assert got == [case for case in IDENTITY_GOLDEN if case[0] in grid["m_values"]]

    def test_corrupted_weights_fail(self, corrupt_k2_weights):
        report = run_identity_check(default_identity_config(k_values=(2,)))
        assert not report["pass"]
        assert report["max_discrepancy"] > 1e-4

    def test_one_lattice_and_one_matrix_per_n_m(self, exact_builds):
        # The enumeration and the operator mean share the exact path's one
        # lattice and one matrix per (n, m): 6 pairs here, where a matrix per
        # enumerated case made 24 matrices and 30 lattices.
        cfg = default_identity_config(n_grid=(4, 6, 8), k_values=(1, 2, 3), m_values=(2, 3))
        assert run_identity_check(cfg)["pass"]
        assert exact_builds == {"matrices": 6, "lattices": 6}


class TestRunRejectionDemo:
    # Every number run_rejection_demo reports at its defaults, recorded with
    # numpy 2.4.6; the floats as float.hex.
    PINNED_DEFAULT_REPORT = {
        "n": 64,
        "k": 2,
        "counts": [39, 25],
        "proposal": ["0x1.0867233fd2e94p-2", "0x1.7bcc6e60168b7p-1"],
        "debiased_target": ["0x1.03cb12657bdb2p-2", "0x1.7e1a76cd420d0p-1"],
        "clamped_target": ["0x1.03cb12657bddep-2", "0x1.7e1a76cd42111p-1"],
        "clamped_mass": "0x0.0p+0",
        "ratio_bound": "0x1.018db4e964ff5p+0",
        "expected_acceptance_rate": "0x1.fce9626e4892ap-1",
        "observed_acceptance_rate": "0x1.fce7e5f1ab517p-1",
        "draws": 100_000,
        "empirical_freq": ["0x1.04a0e410b630bp-2", "0x1.7daf8df7a4e7bp-1"],
    }

    def test_default_report_is_pinned(self):
        def as_hex(value):
            if isinstance(value, list):
                return [as_hex(v) for v in value]
            return value.hex() if isinstance(value, float) else value

        report = run_rejection_demo(RejectionConfig())
        assert {key: as_hex(value) for key, value in report.items()} == self.PINNED_DEFAULT_REPORT

    def test_report_contents(self):
        report = run_rejection_demo(RejectionConfig(demo_draws=20_000))
        assert report["n"] == 64 and report["k"] == 2
        assert sum(report["counts"]) == 64
        assert report["ratio_bound"] >= 1.0
        assert report["expected_acceptance_rate"] == pytest.approx(
            1.0 / report["ratio_bound"], rel=1e-12
        )
        assert 0 < report["observed_acceptance_rate"] <= 1.0
        freq = np.array(report["empirical_freq"])
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)
        target = np.array(report["clamped_target"])
        assert np.max(np.abs(freq - target)) < 0.02


class TestCsvRoundTrip:
    def test_full_precision(self, tmp_path):
        rows = [
            {"n": 16, "k": 1, "abs_bias": 0.1 + 0.2, "variance": 1.0 / 3.0},
            {"n": 32, "k": 2, "abs_bias": 7.552997875881484e-05, "variance": 2e-300},
        ]
        path = tmp_path / "t.csv"
        write_csv(path, ["n", "k", "abs_bias", "variance"], rows)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        for raw, row in zip(got, rows):
            assert int(raw["n"]) == row["n"]
            assert float(raw["abs_bias"]) == row["abs_bias"]
            assert float(raw["variance"]) == row["variance"]


# Each sweep with a grid of four sizes from 16 and orders 1..4, the manifest
# key of its fits, and per fitted column how a CSV row gives its value.
# The mixture-mc flags take y_obs, threshold and N = 512 from the benchmark
# grid; there every point of this grid passes the underpowered guard up to
# k = 4 (n = 128 at k = 3 would not).
REFIT_SWEEPS = {
    "binary-exact": (
        ["--n-grid", "16,32,64,128", "--k-values", "1,2,3,4"],
        "binary_exact.csv",
        "slope_fits",
        {"abs_bias": lambda r: float(r["abs_bias"]), "variance": lambda r: float(r["variance"])},
    ),
    "mixture-mc": (
        ["--n-grid", "16,32,48,64", "--k-values", "1,2,3,4", "--n-rule", "fixed",
         "--n-fixed", "512", "--y-obs", "3.5", "--threshold", "3.3", "--threads", "1"],
        "mixture_mc.csv",
        "fits",
        {"abs_bias": lambda r: abs(float(r["est_bias"])),
         "est_variance": lambda r: float(r["est_variance"])},
    ),
}
REFIT_CASES = [
    (command, k, column)
    for command, (_, _, _, columns) in REFIT_SWEEPS.items()
    for k in (1, 2, 3, 4)
    for column in columns
]


class TestRefitFromCsv:
    """The manifest fits are the one place a sweep fits its slopes; fit_slope
    over the sweep's CSV gives their bits, over every row or over a subset."""

    @pytest.fixture(scope="class")
    def sweeps(self, tmp_path_factory):
        # Per subcommand, the CSV rows and manifest of the full grid and of
        # the grid without its smallest size. Rows at one n do not depend on
        # the rest of the grid, so the second sweep's fits are a subset refit.
        out = {}
        for command, (flags, csv_name, _, _) in REFIT_SWEEPS.items():
            grid = flags[flags.index("--n-grid") + 1]
            for label, sizes in (("full", grid), ("tail", grid.split(",", 1)[1])):
                path = tmp_path_factory.mktemp(f"{command}-{label}")
                argv = [command, *flags, "--out", str(path)]
                argv[argv.index(grid)] = sizes
                assert main(argv) == 0
                with open(path / csv_name, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                manifest = json.loads((path / "manifest.json").read_text())
                out[command, label] = rows, manifest
        return out

    @staticmethod
    def _refit(rows, command, k, column, keep=lambda n: True):
        value = REFIT_SWEEPS[command][3][column]
        sub = [r for r in rows if int(r["k"]) == k and keep(int(r["n"]))]
        fit = fit_slope([int(r["n"]) for r in sub], [value(r) for r in sub])
        return [fit.slope.hex(), fit.intercept.hex(), fit.r_squared.hex(), fit.points_used]

    @staticmethod
    def _manifest_fit(manifest, command, k, column):
        fit = manifest[REFIT_SWEEPS[command][2]][str(k)][column]
        return [fit[key].hex() for key in ("slope", "intercept", "r_squared")] + [
            fit["points_used"]
        ]

    @pytest.mark.parametrize("command, k, column", REFIT_CASES)
    def test_every_row_refits_to_the_manifest_bits(self, sweeps, command, k, column):
        rows, manifest = sweeps[command, "full"]
        got = self._refit(rows, command, k, column)
        assert got == self._manifest_fit(manifest, command, k, column)
        assert got[3] == 4

    @pytest.mark.parametrize("command, k, column", REFIT_CASES)
    def test_subset_refit_equals_a_sweep_over_the_subset(self, sweeps, command, k, column):
        # Refitting the full sweep without its smallest size gives the bits
        # of a sweep run over the remaining sizes only.
        rows, _ = sweeps[command, "full"]
        tail_rows, tail_manifest = sweeps[command, "tail"]
        assert tail_rows == [r for r in rows if int(r["n"]) > 16]
        got = self._refit(rows, command, k, column, keep=lambda n: n > 16)
        assert got == self._manifest_fit(tail_manifest, command, k, column)
        assert got[3] == 3

    def test_fit_slope_takes_no_drop_smallest(self):
        # A subset is refitted by selecting its rows, not by a flag.
        with pytest.raises(TypeError):
            fit_slope([8, 16, 32], [1.0, 0.5, 0.25], drop_smallest=True)


class TestCli:
    def test_binary_exact_end_to_end(self, tmp_path):
        out = tmp_path / "bin"
        code = main(
            ["binary-exact", "--n-grid", "8,16,32", "--k-values", "1,2", "--out", str(out)]
        )
        assert code == 0
        with open(out / "binary_exact.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert [r["n"] for r in rows][:2] == ["8", "8"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"]["experiment"] == "binary_exact"
        assert "slope_fits" in manifest and "wall_time_seconds" in manifest

    def test_manifest_records_peak_rss(self, tmp_path):
        out = tmp_path / "bin"
        assert main(["binary-exact", "--n-grid", "8,16", "--k-values", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["peak_rss_mb"] > 0

    def test_mixture_end_to_end(self, tmp_path):
        out = tmp_path / "mix"
        code = main(
            [
                "mixture-mc", "--n-grid", "8,12", "--k-values", "1",
                "--n-rule", "fixed", "--n-fixed", "2500",
                "--threads", "4", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "mixture_mc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and rows[0]["N"] == "2500"

    def test_mixture_manifest_records_run(self, tmp_path):
        out = tmp_path / "mix"
        code = main(
            [
                "mixture-mc", "--n-grid", "8,12", "--k-values", "1",
                "--n-rule", "fixed", "--n-fixed", "2500", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng_scheme"] == MC_RNG_SCHEME
        assert set(manifest["provenance"]) == {
            "python", "numpy", "scipy", "platform", "cpu_count", "commit", "blas", "blas_threads"
        }
        points = manifest["points"]
        assert [(p["n"], p["k"], p["N"]) for p in points] == [(8, 1, 2500), (12, 1, 2500)]
        with open(out / "mixture_mc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for point, row in zip(points, rows):
            assert point["wall_time_s"] > 0
            assert point["reps_per_s"] == pytest.approx(2500 / point["wall_time_s"])
            assert point["guard_margin"] == pytest.approx(
                float(row["std_error"]) / (abs(float(row["est_bias"])) / 3)
            )
            # getrusage's fault count over the point; the value depends on
            # the process, so only its type and sign are fixed.
            assert type(point["minor_faults"]) is int and point["minor_faults"] >= 0

    def test_rng_scheme_text_is_pinned(self):
        # The manifest's stream description, as a literal: a change to the
        # batched stream's layout must change this text on purpose.
        assert MC_RNG_SCHEME == (
            "outer_mc_batched v1, one pass per n: chunk c at sample size n draws from "
            "SeedSequence([_point_seed(root_seed, n, max(k_values)), 1, c]), and order k "
            "reads stages 1..k of the first N_k chains"
        )

    @pytest.mark.parametrize(
        "argv,manifest",
        [
            (["binary-exact", "--n-grid", "8,16", "--k-values", "1"], "manifest.json"),
            (["identity-check", "--n-grid", "2,3", "--k-values", "1", "--m-values", "2"],
             "identity_report.json"),
            (["rejection-demo", "--demo-draws", "100"], "rejection_report.json"),
        ],
    )
    def test_manifest_provenance(self, tmp_path, monkeypatch, argv, manifest):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert main(argv + ["--out", str(tmp_path)]) == 0
        provenance = json.loads((tmp_path / manifest).read_text())["provenance"]
        assert provenance["numpy"] == np.__version__
        assert provenance["cpu_count"] == os.cpu_count()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert provenance["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert provenance["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "2"
        }

    def test_git_commit_read_from_loose_and_packed_refs(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        loose, packed = "1" * 40, "2" * 40
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text(loose + "\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{packed} refs/heads/other\n^{'3' * 40}\n"
        )
        assert _git_commit(git) == loose
        (git / "HEAD").write_text("ref: refs/heads/other\n")
        assert _git_commit(git) == packed
        (git / "HEAD").write_text(packed + "\n")  # detached
        assert _git_commit(git) == packed

    def test_git_commit_none_when_unreadable(self, tmp_path):
        assert _git_commit(tmp_path / ".git") is None
        git = tmp_path / "repo" / ".git"
        git.mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/gone\n")
        assert _git_commit(git) is None

    def test_underpowered_exit_code(self, tmp_path):
        code = main(
            [
                "mixture-mc", "--n-grid", "24,32", "--k-values", "1",
                "--n-rule", "fixed", "--n-fixed", "100",
                "--out", str(tmp_path / "u"),
            ]
        )
        assert code == 4

    def test_one_replicate_exit_code(self, tmp_path, capsys):
        out = tmp_path / "one"
        code = main(
            ["mixture-mc", "--n-grid", "8,12", "--n-rule", "fixed", "--n-fixed", "1",
             "--out", str(out)]
        )
        assert code == 4
        assert "one replicate gives no standard error" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["underpowered"]["N"] == 1

    def test_underpowered_keeps_finished_rows(self, tmp_path):
        # k=2 at n=8 cannot resolve its bias with 4000 replicates
        out = tmp_path / "u"
        code = main(
            [
                "mixture-mc", "--n-grid", "8,12", "--k-values", "1,2",
                "--n-rule", "fixed", "--n-fixed", "4000", "--out", str(out),
            ]
        )
        assert code == 4
        with open(out / "mixture_mc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["k"]) for r in rows] == [("8", "1"), ("12", "1")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(p["n"], p["k"]) for p in manifest["points"]] == [(8, 1), (12, 1)]
        tripped = manifest["underpowered"]
        assert set(tripped) == {"n", "k", "N", "std_error", "est_bias"}
        assert (tripped["n"], tripped["k"], tripped["N"]) == (8, 2, 4000)
        assert tripped["std_error"] > abs(tripped["est_bias"]) / 3
        # The fits of the finished k=1 rows; k=2 has no row to fit.
        fits = manifest["fits"]
        assert fits["1"]["abs_bias"]["points_used"] == 2
        assert fits["2"] == {"abs_bias": None, "est_variance": None}

    def test_order_two_trip_keeps_every_order_one_row(self, tmp_path):
        # The default rule at n = 8, 12, 16: order 2 trips its guard at n = 8
        # after the three order-1 rows, whose passes served order 2 too.
        out = tmp_path / "u"
        argv = ["mixture-mc", "--n-grid", "8,12,16", "--k-values", "1,2", "--out", str(out)]
        assert main(argv) == 4
        with open(out / "mixture_mc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["k"], r["N"]) for r in rows] == [
            ("8", "1", "512"), ("12", "1", "1728"), ("16", "1", "4096")
        ]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threads"] == os.cpu_count()
        tripped = manifest["underpowered"]
        assert (tripped["n"], tripped["k"], tripped["N"]) == (8, 2, 4096)

    def test_degenerate_point_keeps_finished_rows(self, tmp_path, capsys, monkeypatch):
        # The second grid point's plug-in underflows: as at a guard, the
        # first row, its fits and the stopping point are written, and the
        # run still exits 2 with one error line.
        calls = []

        def second_point_underflows(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DegenerateError("all sample likelihoods underflowed to zero")
            return outer_mc_batched(*args)

        monkeypatch.setattr(
            posterior_debias.experiments, "outer_mc_batched", second_point_underflows
        )
        out = tmp_path / "deg"
        argv = ["mixture-mc", "--n-grid", "8,12,16", "--n-rule", "fixed", "--n-fixed", "1000"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: all sample likelihoods underflowed to zero at n=12, k=1 (N=1000)\n"
        with open(out / "mixture_mc.csv", newline="") as fh:
            assert [(r["n"], r["k"]) for r in csv.DictReader(fh)] == [("8", "1")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["degenerate"] == {"n": 12, "k": 1, "N": 1000}
        assert [(p["n"], p["k"]) for p in manifest["points"]] == [(8, 1)]
        assert manifest["fits"]["1"] == {"abs_bias": None, "est_variance": None}
        assert len(calls) == 2

    def test_degenerate_pass_stops_at_the_first_order_of_its_n(
        self, tmp_path, capsys, monkeypatch
    ):
        # The pass at n = 12 underflows. It serves every order at n, so the
        # run stops at its first visit, (n = 12, k = 1), even where only the
        # stage order 2 reads underflows; the rule was (n, k) for the point.
        calls = []

        def order_two_underflows_at_12(mix_fill, functional, n, reps, seed, threads):
            calls.append((n, reps))
            if n == 12:
                raise DegenerateError("all sample likelihoods underflowed to zero")
            return outer_mc_batched(mix_fill, functional, n, reps, seed, threads)

        monkeypatch.setattr(
            posterior_debias.experiments, "outer_mc_batched", order_two_underflows_at_12
        )
        out = tmp_path / "deg"
        argv = ["mixture-mc", "--n-grid", "8,12,16", "--k-values", "1,2", "--n-rule", "fixed",
                "--n-fixed", "1000", "--y-obs", "3.5", "--threshold", "3.3"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: all sample likelihoods underflowed to zero at n=12, k=1 (N=1000)\n"
        with open(out / "mixture_mc.csv", newline="") as fh:
            assert [(r["n"], r["k"]) for r in csv.DictReader(fh)] == [("8", "1")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["degenerate"] == {"n": 12, "k": 1, "N": 1000}
        assert [(p["n"], p["k"]) for p in manifest["points"]] == [(8, 1)]
        # One pass per n, for both orders.
        assert calls == [(8, {1: 1000, 2: 1000}), (12, {1: 1000, 2: 1000})]

    def test_zero_variance_slope_is_null(self, tmp_path, capsys):
        # Every plug-in value is exactly 0 here (see TestRunMixtureMC).
        out = tmp_path / "z"
        code = main(
            ["mixture-mc", "--n-grid", "8,12", "--n-rule", "fixed", "--n-fixed", "2",
             "--y-obs", "6", "--noise-var", "1", "--threshold", "6", "--out", str(out)]
        )
        assert code == 0
        assert "variance slope n/a" in capsys.readouterr().out
        with open(out / "mixture_mc.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        fits = json.loads((out / "manifest.json").read_text())["fits"]
        assert fits["1"]["est_variance"] is None

    def test_zero_bias_point_exit_code(self, tmp_path, capsys):
        # Bias and standard error are both 0 here (see TestRunMixtureMC).
        out = tmp_path / "zb"
        code = main(
            ["mixture-mc", "--threshold", "-100", "--n-grid", "8,12", "--n-rule", "fixed",
             "--n-fixed", "10", "--out", str(out)]
        )
        assert code == 0
        assert "k=1: |bias| slope n/a, variance slope n/a" in capsys.readouterr().out
        points = json.loads((out / "manifest.json").read_text())["points"]
        assert [p["guard_margin"] for p in points] == [None, None]

    def test_nan_mix_weight_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nw"
        code = main(
            ["mixture-mc", "--mix-weights", "nan,0.5", "--n-grid", "8,12", "--n-rule", "fixed",
             "--n-fixed", "500", "--out", str(out)]
        )
        assert code == 2
        assert "weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _strict_json(path: Path):
        def refuse(constant):
            raise ValueError(f"{path.name} holds the non-standard constant {constant}")

        return json.loads(path.read_text(), parse_constant=refuse)

    @pytest.mark.parametrize(
        "argv,written,code",
        [
            (["binary-exact", "--n-grid", "8,16", "--k-values", "1,2"], "manifest.json", 0),
            (["binary-exact", "--n-grid", "16,8000", "--k-values", "2"], "manifest.json", 3),
            (["mixture-mc", "--n-grid", "8,12", "--n-rule", "fixed", "--n-fixed", "1"],
             "manifest.json", 4),
            (["mixture-mc", "--threshold", "-100", "--n-grid", "8,12", "--n-rule", "fixed",
              "--n-fixed", "10"], "manifest.json", 0),
            (["identity-check", "--n-grid", "2,3", "--k-values", "1", "--m-values", "2"],
             "identity_report.json", 0),
            (["rejection-demo", "--demo-draws", "100"], "rejection_report.json", 0),
        ],
    )
    def test_manifests_are_strict_json(self, tmp_path, argv, written, code):
        assert main(argv + ["--out", str(tmp_path)]) == code
        assert self._strict_json(tmp_path / written)["version"]

    def test_write_manifest_refuses_non_finite_numbers(self, tmp_path):
        for bad in (float("nan"), float("inf"), np.float64("-inf")):
            with pytest.raises(ValueError):
                write_manifest(tmp_path / "m.json", {"value": bad})

    def test_refused_manifest_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, {"value": 1.5})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_manifest(path, {"ok": 1.0, "value": float("nan")})
        assert path.read_bytes() == before

    def test_non_finite_flag_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # It used to run, write a CSV of NaN and a manifest cut off at the
        # NaN, and only then exit 2.
        out = tmp_path / "mix"
        argv = ["mixture-mc", "--threshold", "nan", "--n-grid", "8,12", "--n-rule", "fixed"]
        assert main(argv + ["--n-fixed", "10", "--out", str(out)]) == 2
        assert "field threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_provenance_scipy_is_none_when_not_installed(self, monkeypatch):
        def not_installed(dist):
            raise cli.metadata.PackageNotFoundError(dist)

        monkeypatch.setattr(cli.metadata, "version", not_installed)
        provenance = cli._provenance()
        assert provenance["scipy"] is None
        assert provenance["numpy"] == np.__version__

    def test_cap_keeps_finished_rows(self, tmp_path, capsys):
        grid = ["--k-values", "1,2", "--out"]
        assert main(["binary-exact", "--n-grid", "16,32", *grid, str(tmp_path / "a")]) == 0
        capsys.readouterr()
        code = main(["binary-exact", "--n-grid", "16,32,8000", *grid, str(tmp_path / "b")])
        assert code == 3
        assert "k=2: |bias| slope" in capsys.readouterr().out
        csvs = [(tmp_path / d / "binary_exact.csv").read_bytes() for d in ("a", "b")]
        assert csvs[0] == csvs[1]
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["cap_exceeded"] == {"n": 8000}
        finished = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["slope_fits"] == finished["slope_fits"]

    def test_cap_exit_code(self, tmp_path):
        code = main(
            ["binary-exact", "--n-grid", "16,8000", "--k-values", "2",
             "--out", str(tmp_path / "c")]
        )
        assert code == 3

    def test_config_error_exit_code(self, tmp_path):
        code = main(
            ["binary-exact", "--n-grid", "64,32", "--out", str(tmp_path / "e")]
        )
        assert code == 2

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code = main(
            ["binary-exact", "--config", str(cfg), "--out", str(tmp_path / "k")]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_grid": [8, 16], "k_values": [1, 2], "q": 0.3}))
        out = tmp_path / "o"
        code = main(
            ["binary-exact", "--config", str(cfg), "--k-values", "1", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_grid"] == [8, 16]  # from file
        assert manifest["config"]["k_values"] == [1]  # flag wins
        assert manifest["config"]["q"] == 0.3

    def test_flags_match_config_fields(self):
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        configs = {
            "binary-exact": default_binary_config(),
            "mixture-mc": default_mixture_config(),
            "identity-check": default_identity_config(),
            "rejection-demo": RejectionConfig(),
        }
        assert set(subparsers.choices) == set(configs)
        for name, cfg in configs.items():
            flags = {
                opt
                for action in subparsers.choices[name]._actions
                for opt in action.option_strings
            } - {"-h", "--help"}
            fields = {
                "--seed" if f.name == "root_seed" else "--" + f.name.replace("_", "-")
                for f in dataclasses.fields(cfg)
            }
            assert flags == fields | {"--config", "--out"}, name

    @pytest.mark.parametrize(
        "argv",
        [
            ["binary-exact", "--threads", "2"],
            ["binary-exact", "--seed", "3"],
            ["identity-check", "--threads", "2"],
            ["rejection-demo", "--threads", "2"],
            ["identity-check", "--corrupt-weights", "2,-1.01"],
            ["mixture-mc", "--inner-reps", "2"],
            ["binary-exact", "--drop-smallest"],
            ["fit-slope", "t.csv"],
        ],
    )
    def test_unused_flag_exit_code(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "f")])
        assert exc.value.code == 2

    def test_n_fixed_without_fixed_rule_exit_code(self, tmp_path):
        # Without n_rule fixed the count would be ignored and N sized as n^4.
        code = main(
            ["mixture-mc", "--n-grid", "48,64", "--k-values", "2", "--n-fixed", "500",
             "--out", str(tmp_path / "n")]
        )
        assert code == 2

    def test_config_value_type_exit_code(self, tmp_path, capsys):
        # A file value takes the type its flag parses to; the error names the key.
        fixed = {"n_rule": "fixed", "n_fixed": 300}
        cases = [
            (["mixture-mc"], "n_grid", {**fixed, "n_grid": [8.9, 12]}),
            (["mixture-mc"], "k_values", {**fixed, "k_values": [1.5]}),
            (["mixture-mc"], "n_fixed", {**fixed, "n_fixed": 300.7}),
        ]
        for argv, key, values in cases:
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps(values))
            out = tmp_path / key
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2, key
            assert repr(key) in capsys.readouterr().err
            assert not out.exists()

    def test_identity_one_atom_exit_code(self, tmp_path):
        out = tmp_path / "m1"
        assert main(["identity-check", "--m-values", "1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["binary-exact", "--n-grid", "8,16", "--k-values", "2,2"], "k_values"),
            (["mixture-mc", "--n-grid", "8,12", "--k-values", "1,1"], "k_values"),
            (["identity-check", "--m-values", "2,2"], "m_values"),
        ],
    )
    def test_repeated_grid_entry_exit_code(self, tmp_path, capsys, argv, name):
        # Each repeated order or support size used to run, and write, twice.
        out = tmp_path / "rep"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{name} must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_commands_parse(self):
        # Every command-line example in the README uses flags that exist.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme.read_text(), re.S)
        commands = [
            shlex.split(line)[1:]
            for line in block.group(1).splitlines()
            if line.startswith("posterior-debias ")
        ]
        assert len(commands) == 5
        for argv in commands:
            build_parser().parse_args(argv)

    def test_unused_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_grid": [8, 12], "k_values": [1], "n_rule": "fixed", "n_fixed": 500,
            "demo_n": 64,
        }))
        code = main(["mixture-mc", "--config", str(cfg), "--out", str(tmp_path / "k")])
        assert code == 2

    def test_identity_check_pass_and_fail(self, tmp_path, request):
        assert (
            main(
                ["identity-check", "--n-grid", "3,4", "--k-values", "1,2",
                 "--m-values", "2", "--out", str(tmp_path / "id")]
            )
            == 0
        )
        request.getfixturevalue("corrupt_k2_weights")
        assert (
            main(
                ["identity-check", "--n-grid", "3,4", "--k-values", "2",
                 "--m-values", "2", "--out", str(tmp_path / "idbad")]
            )
            == 4
        )

    def test_identity_check_past_the_leaf_cap_exits_3(self, tmp_path):
        # At n = 64, m = 3 the lattice has L = 2,145 points, so k = 3 bounds
        # 9.9e9 chains: the run stops before enumerating them and keeps n = 4.
        # The generous time bound only catches a run that enumerates them.
        out = tmp_path / "id"
        start = time.perf_counter()
        code = main(
            ["identity-check", "--n-grid", "4,64", "--m-values", "3", "--k-values", "3",
             "--out", str(out)]
        )
        assert code == 3 and time.perf_counter() - start < 30.0
        report = json.loads((out / "identity_report.json").read_text())
        assert [(c["m"], c["n"], c["k"]) for c in report["cases"]] == [(3, 4, 3)]
        assert report["cap_exceeded"] == {"m": 3, "n": 64, "k": 3, "leaves": 2145**3}
        assert report["pass"] and report["max_discrepancy"] < 1e-10

    def test_identity_check_past_the_lattice_cap_exits_3(self, tmp_path, capsys):
        # At n = 6e6, m = 2, k = 1 the case bounds L = 6,000,001 chains, under
        # the leaf cap, but its lattice is over the lattice cap of 5e6 points.
        out = tmp_path / "id"
        code = main(
            ["identity-check", "--n-grid", "4,6000000", "--m-values", "2", "--k-values", "1",
             "--out", str(out)]
        )
        assert code == 3
        assert "m=2 n=6000000 k=1: lattice for n=6000000" in capsys.readouterr().err
        report = json.loads((out / "identity_report.json").read_text())
        assert [(c["m"], c["n"], c["k"]) for c in report["cases"]] == [(2, 4, 1)]
        assert report["cap_exceeded"] == {"m": 2, "n": 6_000_000, "k": 1}
        assert report["pass"] and report["max_discrepancy"] < 1e-10

    def test_rejection_demo(self, tmp_path):
        out = tmp_path / "rej"
        code = main(["rejection-demo", "--demo-draws", "5000", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "rejection_report.json").read_text())
        assert report["draws"] == 5000

    def test_rejection_demo_million_draws(self, tmp_path):
        # Needs about bound * 10^6 proposals, more than a fixed 10^6 budget.
        code = main(["rejection-demo", "--demo-draws", "1000000", "--out", str(tmp_path / "r")])
        assert code == 0

    @pytest.mark.parametrize(
        "flags", [["--y-obs", "1e200"], ["--y-obs", "0", "--noise-var", "5e-324"]]
    )
    def test_rejection_demo_overflowing_likelihood_exits_2(self, tmp_path, capsys, flags):
        # The log-likelihood overflows to -inf or NaN: a configuration
        # error, with no RuntimeWarning on the way.
        assert main(["rejection-demo", *flags, "--out", str(tmp_path)]) == 2
        assert "likelihoods" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [
            ["--noise-var", "0.01", "--demo-n", "7", "--demo-k", "3"],  # bound about 3e63
            ["--noise-var", "0.01", "--y-obs", "0", "--demo-k", "3"],  # bound about 4e7
            ["--demo-draws", "4200000"],  # bound about 1.006, past 2^22 proposals
        ],
    )
    def test_rejection_demo_past_the_proposal_cap_exits_3(self, tmp_path, capsys, flags):
        assert main(["rejection-demo", *flags, "--out", str(tmp_path)]) == 3
        assert "over the cap of 4194304" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--k-values", "1,25"], "k_values"),
            (["--mc-cap", "0"], "mc_cap"),
            (["--seed", "-1"], "root_seed"),
        ],
    )
    def test_out_of_range_flag_exits_2_before_any_point(
        self, tmp_path, capsys, monkeypatch, flags, name
    ):
        ran = []
        record = lambda *args: ran.append(args)
        monkeypatch.setattr(posterior_debias.experiments, "outer_mc_batched", record)
        out = tmp_path / "mc"
        argv = ["mixture-mc", "--n-grid", "8,12", "--n-rule", "fixed", "--n-fixed", "10"]
        assert main([*argv, *flags, "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert ran == [] and not out.exists()

    def test_degenerate_observation_exit_code(self, tmp_path, capsys):
        # No mixture component has a nonzero weight at this y_obs: one error
        # line and exit 2, where a traceback and exit 1 used to be.
        out = tmp_path / "deg"
        code = main(
            ["mixture-mc", "--y-obs", "1e200", "--n-grid", "8,12", "--n-rule", "fixed",
             "--n-fixed", "10", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no mixture component") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--mix-means", "1e300,0"], 2),  # every likelihood of a dataset overflows to 0
            (["--threshold", "1e308"], 0),  # the tail's z-score overflows to inf
            (["--mix-variances", "1e-320,1"], 0),  # 1/sigma^2 overflows: a point mass
            (["--mix-variances", "1e-320,1", "--mix-means", "1,0"], 2),  # NaN truth
            # Overflowing draws on both worker threads of a 3-chunk point.
            (["--mix-weights", "0.01,0.99", "--mix-means", "1e300,0", "--threads", "2",
              "--n-grid", "8,16", "--n-fixed", "9000"], 0),
        ],
    )
    def test_mixture_extreme_parameters_warn_nothing(self, tmp_path, capsys, flags, code):
        argv = ["mixture-mc", "--n-grid", "1,2", "--n-rule", "fixed", "--n-fixed", "50"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, *flags, "--out", str(tmp_path)]) == code
        assert not caught
        assert "Warning" not in capsys.readouterr().err

    @staticmethod
    def _run_python(args: list[str]) -> subprocess.CompletedProcess:
        # The subprocess imports the same package this process imported.
        package_dir = str(Path(posterior_debias.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([package_dir, inherited] if inherited else [package_dir]),
        )
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def test_module_entry_point(self, tmp_path):
        proc = self._run_python(
            ["-m", "posterior_debias", "binary-exact",
             "--n-grid", "8,16", "--k-values", "1", "--out", str(tmp_path / "m")]
        )
        assert proc.returncode == 0
        assert "slope" in proc.stdout

    def test_module_entry_point_has_no_fit_slope(self, tmp_path):
        # The sweeps' manifests hold the fits; fit-slope is an unknown
        # subcommand, and nothing is written.
        table = tmp_path / "t.csv"
        write_csv(table, ["n", "abs_bias"], [{"n": n, "abs_bias": 1 / n} for n in (8, 16, 32)])
        proc = self._run_python(
            ["-m", "posterior_debias", "fit-slope", str(table), "--out", str(tmp_path / "m")]
        )
        assert proc.returncode == 2
        assert "invalid choice: 'fit-slope'" in proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "m").exists()

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency; the package and its CLI run without it.
        proc = self._run_python(
            ["-c", "import sys, posterior_debias.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
