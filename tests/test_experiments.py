import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import posterior_debias
from posterior_debias.cli import _git_commit, build_parser, main, write_csv
from posterior_debias.errors import CapExceededError, UnderpoweredRunError
from posterior_debias.experiments import (
    MC_RNG_SCHEME,
    BinaryConfig,
    FitSlopeConfig,
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
    _binary_bayes_map,
    _mc_reps,
)
from posterior_debias.operators import exact_bias, exact_variance
from posterior_debias.resampling import MCConfig
from posterior_debias.simplex import ProbVector

# Every config class with the arguments it needs, and one value of the wrong
# type per annotation; a tuple field gets a wrong item inside a tuple.
CONFIG_ARGS = {
    BinaryConfig: {},
    MixtureConfig: {},
    IdentityConfig: {},
    RejectionConfig: {},
    FitSlopeConfig: {},
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
CONFIG_FIELDS = [(cls, f.name) for cls in CONFIG_ARGS for f in dataclasses.fields(cls)]


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

    def test_drop_smallest(self):
        # first point off the trend; dropping it recovers the pure slope
        ns = np.array([8, 16, 32, 64])
        vals = 2.0 * ns**-3.0
        vals[0] *= 10
        fit = fit_slope(ns, vals, drop_smallest=True)
        assert fit.slope == pytest.approx(-3.0, abs=1e-12)
        assert fit.points_used == 3

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

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_slope([2, 4, 8], [1.0, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="sizes must be finite"):
            fit_slope([2, bad, 8], [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="values must be finite"):
            fit_slope([2, 4, 8], [1.0, bad, 0.25])


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

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            default_binary_config(n_grid=(64, 32))

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            default_binary_config(n_grid=(64,))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            default_binary_config(k_values=(0,))

    def test_rejects_bad_rule(self):
        with pytest.raises(ValueError):
            default_mixture_config(n_rule="n_pow5")
        with pytest.raises(ValueError):
            default_mixture_config(n_rule="fixed")
        for rule in (None, "n_pow3", "n_pow4"):
            with pytest.raises(ValueError, match="n_fixed"):
                default_mixture_config(n_rule=rule, n_fixed=500)


    @pytest.mark.parametrize(
        "cls, name", CONFIG_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in CONFIG_FIELDS]
    )
    def test_wrong_type_names_field(self, cls, name):
        value = wrong_value(typing.get_type_hints(cls)[name])
        with pytest.raises(ValueError, match=re.escape(repr(name))):
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

    def test_linear_map_all_zero_bias(self):
        cfg = default_binary_config(n_grid=(8, 16), k_values=(1, 2))
        rows, _ = run_binary_exact(cfg, g_override=lambda x: 0.25 + 0.5 * x[1])
        assert all(r["abs_bias"] < 1e-13 for r in rows)

    def test_zero_map_has_no_slope_fit(self):
        cfg = default_binary_config(n_grid=(8, 16), k_values=(1,))
        rows, fits = run_binary_exact(cfg, g_override=lambda x: 0.0)
        assert all(r["abs_bias"] == 0.0 for r in rows)
        assert fits[1]["abs_bias"] is None
        assert fits[1]["variance"] is None

    @pytest.mark.parametrize("g_override", [None, lambda x: np.sin(3.0 * x[1]) + x[0] ** 2])
    def test_rows_equal_exact_bias_and_variance(self, g_override):
        # One shared iterate stack per n gives the per-(n, k) values exactly.
        cfg = default_binary_config(n_grid=(16, 64), k_values=(3, 1, 2))
        rows, _ = run_binary_exact(cfg, g_override=g_override)
        g = _binary_bayes_map(cfg).component(1) if g_override is None else g_override
        q = ProbVector([1.0 - cfg.q, cfg.q])
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

    def test_cap_error_names_offending_n(self):
        # k = 1 never builds the operator matrix, so the cap needs k >= 2
        cfg = default_binary_config(n_grid=(16, 8000), k_values=(2,))
        with pytest.raises(CapExceededError, match="n=8000"):
            run_binary_exact(cfg)

    def test_cap_error_carries_finished_rows(self):
        finished, _ = run_binary_exact(default_binary_config(n_grid=(16, 32), k_values=(1, 2)))
        cfg = default_binary_config(n_grid=(16, 32, 8000), k_values=(1, 2))
        with pytest.raises(CapExceededError) as exc:
            run_binary_exact(cfg)
        assert len(exc.value.rows) == 4
        assert exc.value.rows == finished
        assert exc.value.info == {"cap_exceeded": {"n": 8000}}


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
        # One replicate per point: the variance column is all zero.
        cfg = default_mixture_config(n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=1)
        rows, info = run_mixture_mc(cfg)
        assert [r["est_variance"] for r in rows] == [0.0, 0.0]
        assert info["fits"][1]["est_variance"] is None
        assert info["fits"][1]["abs_bias"] is not None

    def test_thread_invariance(self):
        kwargs = dict(n_grid=(8, 12), k_values=(1,), n_rule="fixed", n_fixed=2000)
        rows_1, _ = run_mixture_mc(default_mixture_config(threads=1, **kwargs))
        rows_4, _ = run_mixture_mc(default_mixture_config(threads=4, **kwargs))
        assert rows_1 == rows_4


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

    def test_corrupted_weights_fail(self, corrupt_k2_weights):
        report = run_identity_check(default_identity_config(k_values=(2,)))
        assert not report["pass"]
        assert report["max_discrepancy"] > 1e-4


class TestRunRejectionDemo:
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
            "python", "numpy", "scipy", "platform", "cpu_count", "commit"
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

    @pytest.mark.parametrize(
        "argv,manifest",
        [
            (["binary-exact", "--n-grid", "8,16", "--k-values", "1"], "manifest.json"),
            (["identity-check", "--n-grid", "2,3", "--k-values", "1", "--m-values", "2"],
             "identity_report.json"),
            (["rejection-demo", "--demo-draws", "100"], "rejection_report.json"),
        ],
    )
    def test_manifest_provenance(self, tmp_path, argv, manifest):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        provenance = json.loads((tmp_path / manifest).read_text())["provenance"]
        assert provenance["numpy"] == np.__version__
        assert provenance["cpu_count"] == os.cpu_count()

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

    def test_zero_variance_slope_is_null(self, tmp_path, capsys):
        out = tmp_path / "z"
        code = main(
            ["mixture-mc", "--n-grid", "8,12", "--n-rule", "fixed", "--n-fixed", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert "variance slope n/a" in capsys.readouterr().out
        with open(out / "mixture_mc.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2
        fits = json.loads((out / "manifest.json").read_text())["fits"]
        assert fits["1"]["est_variance"] is None

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
            "fit-slope": FitSlopeConfig(),
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
        table = tmp_path / "t.csv"
        write_csv(table, ["n", "abs_bias"], [{"n": n, "abs_bias": 1 / n} for n in (8, 16, 32)])
        fixed = {"n_rule": "fixed", "n_fixed": 300}
        cases = [
            (["mixture-mc"], "n_grid", {**fixed, "n_grid": [8.9, 12]}),
            (["mixture-mc"], "k_values", {**fixed, "k_values": [1.5]}),
            (["mixture-mc"], "n_fixed", {**fixed, "n_fixed": 300.7}),
            (["fit-slope", str(table)], "drop_smallest", {"drop_smallest": "no"}),
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

    def test_readme_commands_parse(self):
        # Every command-line example in the README uses flags that exist.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme.read_text(), re.S)
        commands = [
            shlex.split(line)[1:]
            for line in block.group(1).splitlines()
            if line.startswith("posterior-debias ")
        ]
        assert len(commands) == 6
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

    def test_fit_slope_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bin"
        main(["binary-exact", "--n-grid", "32,64,128,256", "--k-values", "2",
              "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["fit-slope", str(out / "binary_exact.csv"), "--where", "k=2",
             "--y-col", "abs_bias"]
        )
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        assert -2.5 < fit["slope"] < -1.5

    def test_fit_slope_flag_beats_config_file(self, tmp_path, capsys):
        out = tmp_path / "bin"
        main(["binary-exact", "--n-grid", "32,64,128,256", "--k-values", "2",
              "--out", str(out)])
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps({"x_col": "k"}))
        capsys.readouterr()
        code = main(
            ["fit-slope", str(out / "binary_exact.csv"), "--config", str(cfg),
             "--x-col", "n", "--where", "k=2"]
        )
        assert code == 0
        fit = json.loads(capsys.readouterr().out)
        assert -2.5 < fit["slope"] < -1.5

    @pytest.mark.parametrize(
        "table,points_used",
        [
            ([(8, 1, 0.5), (16, 1, 0.25)], None),
            ([(n, k, 1.0 / (n * k)) for n in (8, 16, 32) for k in (1, 2)], 4),
        ],
    )
    def test_fit_slope_drop_smallest(self, tmp_path, capsys, table, points_used):
        # every row at the smallest n goes; fewer than 2 left is an error
        path = tmp_path / "t.csv"
        columns = ["n", "k", "abs_bias"]
        write_csv(path, columns, [dict(zip(columns, r)) for r in table])
        code = main(["fit-slope", str(path), "--drop-smallest"])
        if points_used is None:
            assert code == 2
        else:
            assert code == 0
            assert json.loads(capsys.readouterr().out)["points_used"] == points_used

    def test_fit_slope_non_finite_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        columns = ["n", "k", "abs_bias"]
        table = [(8, 1, 0.5), (16, 1, "nan"), (32, 1, 0.125)]
        write_csv(path, columns, [dict(zip(columns, r)) for r in table])
        code = main(["fit-slope", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "values must be finite" in captured.err
        assert captured.out == ""

    def test_fit_slope_bad_column(self, tmp_path, capsys):
        out = tmp_path / "bin2"
        main(["binary-exact", "--n-grid", "8,16", "--k-values", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(["fit-slope", str(out / "binary_exact.csv"), "--y-col", "nope"])
        assert code == 2

    def test_module_entry_point(self, tmp_path):
        # The subprocess imports the same package this process imported.
        package_dir = str(Path(posterior_debias.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([package_dir, inherited] if inherited else [package_dir]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "posterior_debias", "binary-exact",
             "--n-grid", "8,16", "--k-values", "1", "--out", str(tmp_path / "m")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "slope" in proc.stdout
