"""Tests of the benchmark itself: BENCHMARK.json, metric names, seeding,
a tiny-size smoke run, and refusal to run without the package sources."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import load_package  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:] + proc.stdout[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_seed_changes_inputs():
    pkg = load_package()
    for cls in WORKLOADS.values():
        a = cls(pkg, 0, tiny=True).inputs_digest()
        assert a == cls(pkg, 0, tiny=True).inputs_digest()
        assert a != cls(pkg, 1, tiny=True).inputs_digest()


def test_smoke_untraced_metric_names():
    result = _last_json(_run("--workload", "all", "--seed", "0", "--seconds", "0.5", "--tiny"))
    want = {f"{w}.{m}" for w in WORKLOADS for m in END_TO_END}
    assert set(result["metrics"]) == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_metric_names():
    result = _last_json(
        _run(
            "--workload", "expectation_large_n", "--seed", "0", "--seconds", "0.5",
            "--trace", "1", "--tiny",
        )
    )
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_refuses_without_package_sources(tmp_path, workload):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
