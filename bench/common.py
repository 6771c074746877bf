"""Helpers shared by the benchmark's entry point and its child processes."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    """The package sources are not next to the benchmark."""


def load_package():
    """Import ``posterior_debias`` from ``src/``, the way the test suite does
    (the package is not installed)."""
    if not (SRC / "posterior_debias" / "__init__.py").is_file():
        raise MissingPackage(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import posterior_debias

    return posterior_debias


def seed_stream(seed: int, tag: str):
    """A numpy SeedSequence keyed by the workload seed and a fixed tag, so
    each workload and each input draws from its own stream."""
    import numpy as np

    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence([seed, zlib.crc32(tag.encode())])


def derived_seed(seed: int, tag: str) -> int:
    """An unsigned 64-bit integer seed derived from (seed, tag)."""
    import numpy as np

    return int(seed_stream(seed, tag).generate_state(1, np.uint64)[0])


def fast_decile(samples: list[float]) -> float:
    """10th percentile by nearest rank: the smallest sample when there are
    ten or fewer."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.1 * len(ordered)) - 1)]


# The host's speed changes with its neighbours' load (NOTES.md). Each timed
# call is bracketed by a fixed reference kernel, and its time is rescaled to
# a host on which that kernel takes REFERENCE_S: about its duration here in
# the host's fast state. The constant only sets the unit.
REFERENCE_S = 0.010


def reference_kernel() -> float:
    """Run a fixed piece of interpreter-bound, small-array numpy work that
    does not touch the package, like the Monte Carlo inner loop, and return
    its duration in seconds."""
    import numpy as np

    t = time.perf_counter()
    acc = 0.0
    for i in range(400):
        a = np.random.default_rng(np.random.SeedSequence([7, i])).standard_normal(32)
        w = np.exp(a - a.max())
        acc += float((w * (a > 0.5)).sum() / w.sum())
    return time.perf_counter() - t


def calibrate(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` rescaled to the reference host."""
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


def timed(fn):
    """(result, raw seconds, calibrated seconds) of one call of ``fn``."""
    before = reference_kernel()
    t = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t
    return out, raw, calibrate(raw, before, reference_kernel())


def commit() -> str | None:
    """Commit of the checkout, if it is a git work tree of its own; git does
    not look above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, trace: bool) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "seed": seed,
        "trace": trace,
    }
