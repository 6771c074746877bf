"""Command line front end.

Subcommands: binary-exact, mixture-mc, identity-check, rejection-demo.
Each subcommand's flags are generated from the fields of its frozen config
dataclass, and a JSON --config file takes the same field names; a key or
flag the subcommand does not use is a configuration error. Each writes
CSV/JSON outputs under --out and prints a short summary to stdout.

Exit codes: 0 success (and identity pass), 2 bad configuration (a degenerate
observation included), 3 a size cap was hit, 4 a statistical guard tripped
(underpowered run, identity failure).
A sweep that a cap or guard stops still writes the rows it finished.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import typing
from importlib import metadata
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import (
    CapExceededError,
    DegenerateError,
    IterationCapError,
    UnderpoweredRunError,
    _StoppedRunError,
)
from .experiments import (
    BinaryConfig,
    IdentityConfig,
    MixtureConfig,
    RejectionConfig,
    _field_type,
    run_binary_exact,
    run_identity_check,
    run_mixture_mc,
    run_rejection_demo,
)
from .simplex import _is_int

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAP = 3
EXIT_GUARD = 4


def _fmt(value) -> str:
    # 17 significant digits: float64 round-trips exactly.
    if _is_int(value):
        return str(value)
    return f"{float(value):.17g}"


def write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def write_manifest(path: Path, payload: dict) -> None:
    # Strict JSON: a non-finite number raises instead of becoming NaN, and
    # it raises before the file is opened, so no truncated manifest is left.
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _git_commit(git_dir: Path) -> str | None:
    """The commit checked out in ``git_dir``, read from HEAD and the loose
    or packed ref it names; None when any of it cannot be read."""
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None  # a detached HEAD holds the commit itself
        ref = head[len("ref: ") :]
        loose = git_dir / ref
        if loose.is_file():
            return loose.read_text().strip() or None
        for line in (git_dir / "packed-refs").read_text().splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    except (OSError, UnicodeDecodeError):
        pass
    return None


# The settings that pick the BLAS thread count. Summation order inside BLAS
# can follow it, so exact-path bits hold for one build and one setting.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _installed_version(dist: str) -> str | None:
    """The installed version of distribution ``dist``, without importing it;
    None when it is not installed."""
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _installed_version("scipy"),  # a test dependency only
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        # The repository this package was loaded from (src/posterior_debias).
        "commit": _git_commit(Path(__file__).resolve().parents[2] / ".git"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
    }


def _manifest(cfg, wall_time: float, extra: dict) -> dict:
    return {
        "version": __version__,
        "provenance": _provenance(),
        "config": {"experiment": cfg.experiment, **dataclasses.asdict(cfg)},
        "wall_time_seconds": wall_time,
        # Peak resident set of this process so far; ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **extra,
    }


def _list_parser(item: type):
    def parse(text: str) -> tuple:
        try:
            return tuple(item(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {item.__name__} values: {text!r}"
            ) from exc

    return parse


def _flag_kwargs(hint) -> dict:
    """argparse keywords for a config field with type annotation ``hint``."""
    hint, _ = _field_type(hint)  # ``X | None``: the flag sets an X
    if hint is bool:
        return {"action": "store_true"}
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return {"type": _list_parser(item), "metavar": f"{item.__name__.upper()},..."}
    return {"type": hint}


def _add_config_flags(sub: argparse.ArgumentParser, cls) -> None:
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        sub.add_argument(
            f.metadata.get("flag", "--" + f.name.replace("_", "-")),
            dest=f.name,
            help=f.metadata["help"],
            **_flag_kwargs(hints[f.name]),
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posterior-debias",
        description="Bias-corrected posterior estimation experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (cls, handler) in _COMMANDS.items():
        # Absent flags leave no attribute, so a config file value survives.
        sub = subs.add_parser(name, help=handler.__doc__, argument_default=argparse.SUPPRESS)
        sub.add_argument(
            "--config",
            type=Path,
            default=None,
            help="JSON object keyed by this subcommand's field names; flags override it",
        )
        sub.add_argument(
            "--out",
            type=Path,
            default=None,
            help="output directory (default runs/<experiment>)",
        )
        _add_config_flags(sub, cls)
    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _resolve_config(args: argparse.Namespace, cls):
    """Field defaults < config file < explicit flags; the config checks the values."""
    values = _load_config_file(args.config)
    names = [f.name for f in dataclasses.fields(cls)]
    values.update((name, getattr(args, name)) for name in names if hasattr(args, name))
    return cls(**values)


def _sweep(cfg, args, run, columns: list[str], fits_key: str) -> dict:
    """Run a sweep, which returns (rows, info) with its slope fits in
    ``info[fits_key]``, and write its CSV and manifest, also when a cap, a
    guard or a degenerate point stops it part-way: then the rows finished
    before the stop and their fits are written, the manifest names the point
    that stopped it, and the error propagates (main exits 3, 4 or 2). Prints
    a slope line per k either way."""
    out = args.out or Path("runs", cfg.experiment)
    path = out / f"{cfg.experiment}.csv"
    start = time.perf_counter()
    stop = None
    try:
        rows, info = run(cfg)
    except _StoppedRunError as exc:
        rows, info, stop = exc.rows, exc.info, exc
    wall = time.perf_counter() - start
    write_csv(path, columns, rows)
    write_manifest(out / "manifest.json", _manifest(cfg, wall, info))
    for k in cfg.k_values:
        fits = info[fits_key][k].values()
        bias, variance = (f"{f.slope:+.3f}" if f else "n/a" for f in fits)
        print(f"k={k}: |bias| slope {bias}, variance slope {variance}")
    if stop is not None:
        print(f"wrote {path} ({len(rows)} finished rows)")
        raise stop
    print(f"wrote {path} ({len(rows)} rows, {wall:.2f}s)")
    return info


def _cmd_binary_exact(cfg: BinaryConfig, args) -> int:
    """Exact bias/variance sweep for the two-atom posterior."""

    def run(cfg):
        rows, fits = run_binary_exact(cfg)
        return rows, {"slope_fits": fits}

    _sweep(cfg, args, run, ["n", "k", "abs_bias", "variance"], "slope_fits")
    return EXIT_OK


def _cmd_mixture_mc(cfg: MixtureConfig, args) -> int:
    """Monte Carlo bias/variance sweep for the Gaussian-mixture setting."""
    columns = ["n", "k", "N", "est_mean", "true_value", "est_bias", "est_variance", "std_error"]
    info = _sweep(cfg, args, run_mixture_mc, columns, "fits")
    if info["capped"]:
        capped = ", ".join(f"n={c['n']},k={c['k']}" for c in info["capped"])
        print(f"replicates capped at {cfg.mc_cap} for: {capped}")
    print(f"true value {info['true_value']:.12g}")
    return EXIT_OK


def _cmd_identity_check(cfg: IdentityConfig, args) -> int:
    """Enumerate chains exhaustively and compare with the exact operator mean."""
    out = args.out or Path("runs", cfg.experiment)
    start = time.perf_counter()
    stop = None
    try:
        report = run_identity_check(cfg)
    except CapExceededError as exc:  # the report of the finished cases
        report, stop = exc.info, exc
    wall = time.perf_counter() - start
    write_manifest(out / "identity_report.json", _manifest(cfg, wall, report))
    for case in report["cases"]:
        print(
            f"m={case['m']} n={case['n']} k={case['k']}: "
            f"discrepancy {case['discrepancy']:.3e}"
        )
    if stop is not None:
        print(f"identity check stopped after {len(report['cases'])} finished cases")
        raise stop
    verdict = "PASS" if report["pass"] else "FAIL"
    print(
        f"identity check {verdict}: max discrepancy {report['max_discrepancy']:.3e} "
        f"(tolerance {report['tolerance']:.1e})"
    )
    return EXIT_OK if report["pass"] else EXIT_GUARD


def _cmd_rejection_demo(cfg: RejectionConfig, args) -> int:
    """Rejection-sample the clamped debiased posterior at one dataset."""
    out = args.out or Path("runs", cfg.experiment)
    start = time.perf_counter()
    report = run_rejection_demo(cfg)
    wall = time.perf_counter() - start
    write_manifest(out / "rejection_report.json", _manifest(cfg, wall, report))
    print(f"dataset counts {report['counts']} (n={report['n']}, k={report['k']})")
    print(f"plug-in proposal  {report['proposal']}")
    print(f"debiased target   {report['debiased_target']}")
    print(f"clamped target    {report['clamped_target']} (clamped mass {report['clamped_mass']:.3e})")
    print(
        f"ratio bound {report['ratio_bound']:.6f}, acceptance expected "
        f"{report['expected_acceptance_rate']:.4f} observed {report['observed_acceptance_rate']:.4f}"
    )
    print(f"empirical frequencies over {report['draws']} draws: {report['empirical_freq']}")
    return EXIT_OK


_COMMANDS = {  # subcommand: (config, handler); the handler's docstring is its help
    "binary-exact": (BinaryConfig, _cmd_binary_exact),
    "mixture-mc": (MixtureConfig, _cmd_mixture_mc),
    "identity-check": (IdentityConfig, _cmd_identity_check),
    "rejection-demo": (RejectionConfig, _cmd_rejection_demo),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cls, handler = _COMMANDS[args.command]
    try:
        return handler(_resolve_config(args, cls), args)
    except (ValueError, TypeError, OSError, DegenerateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapExceededError, IterationCapError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UnderpoweredRunError as exc:
        print(f"underpowered run: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
