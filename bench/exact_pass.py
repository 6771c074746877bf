"""One cold pass of the exact_sweep workload, run in a fresh interpreter.

Every CLI call starts with empty operator caches, so the benchmark runs each
pass in its own process. The pass times four parts, each between two runs of
the reference kernel (``common.reference_kernel``), and prints one JSON
object on stdout:

- ``sweep``: ``run_binary_exact`` over n = 64..4096 (doubling), k = 1..6;
- ``table_m34``: ``exact_bias`` and ``exact_variance`` at (n=60, m=3) and
  (n=20, m=4), k = 1..4;
- ``identity``: ``run_identity_check`` over n in {4, 6, 8}, k <= 3, m in {2, 3};
- ``rejection``: ``rejection_sample_batch`` at ratio bounds 1.1 and 3.

Run by hand as ``python3 bench/exact_pass.py --seed 0`` from the repository
root.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import calibrate, load_package, reference_kernel, seed_stream  # noqa: E402

SWEEP_N = tuple(64 * 2**i for i in range(7))
SWEEP_K = tuple(range(1, 7))
TABLE_POINTS = ((60, 3), (20, 4))
TABLE_K = (1, 2, 3, 4)
IDENTITY_N = (4, 6, 8)
IDENTITY_K = (1, 2, 3)
IDENTITY_M = (2, 3)
REJECTION_BOUNDS = {"bound1p1": 1.1, "bound3": 3.0}
REJECTION_ATOMS = 6
REJECTION_DRAWS = 200_000
# The package's default cap of 10^6 proposals is absolute; a large batch at
# bound 3 needs more, so the cap is sized from the request.
ATTEMPT_CAP_FACTOR = 10


def rejection_case(rng, bound: float) -> tuple:
    """A proposal bounded away from zero and a target whose largest ratio to
    it is exactly ``bound``: the target scales one atom's proposal mass."""
    import numpy as np

    prop = (rng.dirichlet(np.ones(REJECTION_ATOMS)) + 0.5) / (1.0 + 0.5 * REJECTION_ATOMS)
    atom = int(np.argmin(prop))
    target = prop.copy()
    target[atom] *= 1.0 + (bound - 1.0) / (1.0 - bound * prop[atom])
    return prop, target / target.sum()


def exact_inputs(seed: int) -> dict:
    """Every input of the exact pass, generated from the workload seed."""
    import numpy as np

    rng = np.random.default_rng(seed_stream(seed, "exact_sweep"))
    table = []
    for n, m in TABLE_POINTS:
        table.append(
            {
                "n": n,
                "m": m,
                "likelihoods": rng.uniform(0.5, 2.0, size=m).tolist(),
                "prior": ((rng.dirichlet(np.ones(m)) + 0.2) / (1.0 + 0.2 * m)).tolist(),
            }
        )
    rejection = {}
    for name, bound in REJECTION_BOUNDS.items():
        prop, target = rejection_case(rng, bound)
        rejection[name] = {
            "proposal": prop.tolist(),
            "target": target.tolist(),
            "bound": bound,
            "seed": int(rng.integers(0, 2**63)),
        }
    return {
        "q": float(rng.uniform(0.3, 0.5)),
        "y_obs": float(rng.uniform(1.5, 2.5)),
        "noise_var": 1.0,
        "table": table,
        "identity_root_seed": int(rng.integers(0, 2**63)),
        "rejection": rejection,
    }


def run_pass(seed: int, tiny: bool = False) -> dict:
    t_start = time.perf_counter()
    pkg = load_package()
    import numpy as np

    inp = exact_inputs(seed)
    sweep_n, identity_n, identity_k, draws = (
        (SWEEP_N[:3], IDENTITY_N[:2], IDENTITY_K[:2], REJECTION_DRAWS // 10)
        if tiny
        else (SWEEP_N, IDENTITY_N, IDENTITY_K, REJECTION_DRAWS)
    )
    setup_s = time.perf_counter() - t_start
    reference_kernel()  # the first run in a process pays numpy's first-call costs
    counted = (pkg.CapExceededError, pkg.IterationCapError)
    times, calibrated, failures = {}, {}, []
    out = {"setup_s": setup_s, "times": times, "calibrated": calibrated, "failures": failures}

    def part(name, fn):
        """Time one part between two runs of the reference kernel; a counted
        error is recorded as a failure of the part."""
        before = reference_kernel()
        t = time.perf_counter()
        try:
            return fn()
        except counted as exc:
            failures.append(f"{name}: {exc!r}")
            return None
        finally:
            times[name] = time.perf_counter() - t
            calibrated[name] = calibrate(times[name], before, reference_kernel())

    def sweep():
        return pkg.run_binary_exact(
            pkg.default_binary_config(
                n_grid=sweep_n,
                k_values=SWEEP_K,
                q=inp["q"],
                y_obs=inp["y_obs"],
                noise_var=inp["noise_var"],
            )
        )

    result = part("sweep", sweep)
    if result is not None:
        rows, fits = result
        out["sweep_rows"] = rows
        out["sweep_fits_missing"] = sum(
            fit is None for per_k in fits.values() for fit in per_k.values()
        )

    def table():
        rows = []
        for point in inp["table"]:
            g = pkg.DiscreteBayesMap(np.array(point["likelihoods"])).component(point["m"] - 1)
            q = pkg.ProbVector(np.array(point["prior"]))
            for k in TABLE_K:
                rows.append(
                    {
                        "n": point["n"],
                        "m": point["m"],
                        "k": k,
                        "bias": pkg.exact_bias(g, q, point["n"], k),
                        "variance": pkg.exact_variance(g, q, point["n"], k),
                    }
                )
        return rows

    out["table_rows"] = part("table_m34", table)

    report = part(
        "identity",
        lambda: pkg.run_identity_check(
            pkg.default_identity_config(
                n_grid=identity_n,
                k_values=identity_k,
                m_values=IDENTITY_M,
                root_seed=inp["identity_root_seed"],
            )
        ),
    )
    if report is not None:
        out["identity"] = {
            "max_discrepancy": report["max_discrepancy"],
            "pass": report["pass"],
            "cases": len(report["cases"]),
        }

    specs = {
        name: pkg.make_rejection_spec(pkg.ProbVector(np.array(r["proposal"])), np.array(r["target"]))
        for name, r in inp["rejection"].items()
    }

    def rejection():
        return {
            name: pkg.rejection_sample_batch(
                spec,
                draws,
                seed=inp["rejection"][name]["seed"],
                attempt_cap=int(ATTEMPT_CAP_FACTOR * spec.bound * draws),
            )
            for name, spec in specs.items()
        }

    batches = part("rejection", rejection) or {}
    out["rejection"] = {}
    for name, (idx, attempts) in batches.items():
        spec = specs[name]
        freq = np.bincount(idx, minlength=spec.target.size) / draws
        out["rejection"][name] = {
            "bound": spec.bound,
            "attempts": attempts,
            "draws": draws,
            "max_freq_error": float(np.abs(freq - spec.target).max()),
        }
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true", help="smaller sizes, for the smoke test")
    args = ap.parse_args()
    print(json.dumps(run_pass(args.seed, args.tiny)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
