"""Recompute ``MC_REFERENCE_BIAS`` in workloads.py: the expected offset of
run_mixture_mc's est_mean from the true tail probability at each (n, k) of the
mc_mixture grid, with its standard error.

    python3 bench/calibrate_mc.py          # about two minutes on one core

Paste the printed table into workloads.py only when the mc_mixture setting
changes; a faster or re-seeded engine leaves the expected value as it is.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import load_package  # noqa: E402
from workloads import MC_GRID_K, MC_GRID_N, MC_SETTING  # noqa: E402

CALIBRATION_REPS = 131072
CALIBRATION_ROOT_SEED = 20251011


def main() -> int:
    pkg = load_package()
    cfg = pkg.default_mixture_config(
        n_grid=MC_GRID_N,
        k_values=MC_GRID_K,
        n_rule="fixed",
        n_fixed=CALIBRATION_REPS,
        root_seed=CALIBRATION_ROOT_SEED,
        **MC_SETTING,
    )
    rows, _ = pkg.run_mixture_mc(cfg)
    print("MC_REFERENCE_BIAS = {")
    for r in sorted(rows, key=lambda r: (r["k"], r["n"])):
        print(f"    ({r['n']}, {r['k']}): ({r['est_bias']!r}, {r['std_error']!r}),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
