"""Benchmark of the posterior_debias package: three workloads through the
public API, with correctness checks, end-to-end metrics and, in a traced run,
per-layer metrics.

    python3 bench/run.py --workload mc_mixture --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run it from the repository root; it loads the package from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit. A result file with provenance, samples and (traced
runs) spans goes to ``bench/results/``. The exit code is 1 when a correctness
check fails or an operation fails, 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import MissingPackage, load_package, provenance  # noqa: E402

# Set-up is sampled in fresh interpreters, some before and some after the
# workload, so that one slow phase of the host does not set the median.
SETUP_SAMPLES_BEFORE = 5
SETUP_SAMPLES_AFTER = 4
RESULTS = HERE / "results"
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb")
# Per-workload figures that ops_per_s stands for, or that ride along with it;
# printed and kept in the result file.
NAMED_UNITS = {
    "mc_reps_per_s_1t": "1/s",
    "mc_reps_per_s_2t": "1/s",
    "expectations_per_s": "1/s",
    "exact_sweep_s": "s",
    "identity_check_s": "s",
    "rejection_draws_per_s": "1/s",
}


def measure_setup(workload: str, seed: int, tiny: bool, samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the moment its workload
    inputs are ready (imports plus input generation), once per sample.

    These stay raw: a reference kernel run in this process around a child's
    start-up tracked the child's speed poorly (NOTES.md)."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload]
    cmd += ["--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err[-2000:]}")
        out.append(elapsed)
    return out


def span_cost_s(reps: int = 20000) -> float:
    """Seconds one recorded span costs over a span with tracing off."""
    from tracing import Tracer

    cost = {}
    for enabled in (False, True):
        tracer = Tracer(enabled)
        t = time.perf_counter()
        for _ in range(reps):
            with tracer.span("overhead"):
                pass
        cost[enabled] = time.perf_counter() - t
    return (cost[True] - cost[False]) / reps


def peak_rss_mb(result: dict) -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return max(kb / 1024.0, result.get("child_peak_rss_mb", 0.0))


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger

    pkg = load_package()
    before, after = (1, 1) if tiny else (SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER)
    setup = measure_setup(name, seed, tiny, before)
    tracer = Tracer(enabled=trace)
    ledger = Ledger(counted=(pkg.UnderpoweredRunError, pkg.CapExceededError, pkg.IterationCapError))
    workload = WORKLOADS[name](pkg, seed, tiny)
    result = workload.run(seconds, tracer, ledger)
    setup += measure_setup(name, seed, tiny, after)

    metrics = {}
    if "ops_per_s" in result:
        metrics = {
            "setup_s": (median(setup), "s"),
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "peak_rss_mb": (peak_rss_mb(result), "MB"),
        }
    layer = {}
    e2e_overhead = None
    if trace:
        from probes import run_probes

        plain, traced = result.get("untraced_samples"), result.get("traced_samples")
        if plain and traced and traced.raw:
            # Traced minus untraced: the loop's own difference is within the
            # host's noise, so the figure is the measured cost of one span
            # times the spans each traced operation recorded.
            e2e_overhead = median(traced.calibrated) - median(plain.calibrated)
            spans_per_op = len(tracer.spans) / len(traced.raw)
            layer["trace.overhead_us_per_op"] = (span_cost_s() * spans_per_op * 1e6, "us")
        layer.update(run_probes(pkg, tracer, ledger, seed, tiny))

    extra = dict(result.get("extra", {}))
    named = {k: extra.pop(k) for k in NAMED_UNITS if k in extra}
    report = {
        "workload": name,
        "provenance": provenance(seed, trace),
        "seconds": seconds,
        "tiny": tiny,
        "inputs": workload.inputs_digest(),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / max(1, ledger.attempted),
        "misses": ledger.misses,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": named,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
        "setup_samples_s": setup,
        "op": result.get("op"),
        "loop": result.get("loop"),
        "samples_s": vars(result["untraced_samples"]) if "untraced_samples" in result else None,
        "details": extra,
        "loop_trace_overhead_s": e2e_overhead,
        "span_self_s": tracer.self_times(),
        "spans": tracer.spans,
    }
    return report


def write_report(report: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    p = report["provenance"]
    path = RESULTS / f"{report['workload']}-seed{p['seed']}-trace{int(p['trace'])}.json"
    path.write_text(json.dumps(report, indent=1, default=float))
    return path


def print_table(report: dict) -> None:
    w = report["workload"]
    for k, v in report["metrics"].items():
        print(f"{w:<20} {k:<48} {v['value']:>14.6g} {v['unit']}")
    for k, v in report["named_metrics"].items():
        print(f"{w:<20} {k:<48} {v:>14.6g} {NAMED_UNITS[k]}")
    print(f"{w:<20} {'failed_frac':<48} {report['failed_frac']:>14.6g} ratio")
    for k, v in report["per_layer"].items():
        print(f"{w:<20} {k:<48} {v['value']:>14.6g} {v['unit']}")
    for miss in report["misses"]:
        print(f"{w:<20} FAILED {miss}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        pkg = load_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload](pkg, args.seed, args.tiny)
        print("ready", flush=True)
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        write_report(report)
        print_table(report)
        reports.append(report)
    correct = all(r["correct"] for r in reports)
    key = "per_layer" if args.trace else "metrics"
    metrics = {}
    for r in reports:
        for k, v in r[key].items():
            metrics[k if len(reports) == 1 else f"{r['workload']}.{k}"] = v
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
