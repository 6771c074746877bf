"""Property test: every input to every subcommand ends in a documented exit
code, without a traceback or a warning, every manifest written is strict
JSON, and a sweep's CSV holds exactly the rows its manifest names."""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import tempfile
import typing
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posterior_debias import cli, experiments
from posterior_debias.experiments import (
    BinaryConfig,
    IdentityConfig,
    MixtureConfig,
    RejectionConfig,
    _field_type,
)

# (low, high) of every integer a field may take here: small enough that no
# example is slow (n <= 64, N <= 256, k <= 3), and most reaching just past
# their field's valid range. identity-check draws n up to 64 as well, under a leaf
# cap lowered for the test (see below).
INT_BOUNDS = {
    "demo_n": (-1, 64),
    "demo_k": (-1, 3),
    "demo_draws": (-1, 64),
    "root_seed": (-1, 2**64),
    "n_grid": (-1, 64),
    "k_values": (-1, 3),
    "m_values": (0, 3),
    "mc_cap": (1, 256),
    "threads": (0, 2),
}
# Orders and support sizes, which must not repeat an entry: their valid
# lists sometimes give one entry twice.
REPEATABLE = {"k_values", "m_values"}
# Fields every example sets (their strategies may draw None): the default
# grid of binary-exact reaches n = 1024, the default replicate cap of 10^7
# is no bound, and the replicate rule and count go together.
ALWAYS_SET = {"mc_cap", "n_grid", "n_rule", "n_fixed"}
EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.01, 0.4, 1.0, 1 - 1e-16, 2.0, 40.0, 1e200,
                  -1e308]


def mostly(common: st.SearchStrategy, rare: st.SearchStrategy) -> st.SearchStrategy:
    """``common`` about three times in four, ``rare`` otherwise."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda s: s)


# Floats: mostly finite extremes, else any float, NaN and infinities included.
FLOATS = mostly(st.sampled_from(EXTREME_FLOATS), st.floats())
# Fields with values of their own. Most mixture vectors are valid, and a
# fixed replicate count mostly comes with its rule, so that most mixture
# examples get past the config checks.
FLOAT_LISTS = st.lists(FLOATS, max_size=3).map(tuple)
FIELD_VALUES = {
    "mix_weights": mostly(st.sampled_from([(0.5, 0.5), (0.01, 0.99)]), FLOAT_LISTS),
    "mix_means": mostly(st.sampled_from([(0.0, 1.0), (1e300, 0.0), (-1e308, 40.0)]), FLOAT_LISTS),
    "mix_variances": mostly(st.sampled_from([(1.0, 1.0), (1e-320, 1.0), (1e300, 0.01)]), FLOAT_LISTS),
    "n_rule": mostly(st.just("fixed"), st.sampled_from(["n_pow3", "n_pow4", "n_pow5"])),
    "n_fixed": mostly(st.integers(2, 256), st.sampled_from([None, 1, 0, -1])),
}


def field_strategy(name: str, hint) -> st.SearchStrategy:
    """Values for a config field, from its own annotation."""
    if name in FIELD_VALUES:
        return FIELD_VALUES[name]
    base, _ = _field_type(hint)
    if typing.get_origin(base) is tuple:
        (item,) = set(typing.get_args(base)) - {Ellipsis}
        if item is float:
            return FLOAT_LISTS
        # Grids and orders; three in four strictly increasing, of valid sizes.
        low, high = INT_BOUNDS[name]
        valid = st.lists(st.integers(max(low, 1), high), min_size=2, max_size=3, unique=True)
        valid = valid.map(sorted)
        if name in REPEATABLE:  # one in four of these gives its first entry twice
            valid = mostly(valid, valid.map(lambda v: [v[0], *v]))
        raw = st.lists(st.integers(low, high), max_size=3)
        return mostly(valid, raw).map(tuple)
    if base is int:
        return st.integers(*INT_BOUNDS[name])
    if base is float:
        return FLOATS
    raise AssertionError(f"no strategy for field {name!r}: {hint!r}")


def argv_strategy(command: str, cls) -> st.SearchStrategy:
    """Argument lists for ``command`` that set any subset of its fields."""
    hints = typing.get_type_hints(cls)
    flags = {}
    for f in dataclasses.fields(cls):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        value = field_strategy(f.name, hints[f.name])
        flags[flag] = value if f.name in ALWAYS_SET else st.none() | value

    def argv(values: dict) -> list[str]:
        out = [command]
        for flag, value in values.items():
            if value is None:
                continue
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            out.append(f"{flag}={text}")  # "=" keeps a leading "-" a value
        return out

    return st.fixed_dictionaries(flags).map(argv)


def run_cli(argv: list[str]):
    """Exit code, stderr, warnings and files written of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
        files = {p.name: p.read_text() for p in out.glob("*")}
    return code, err.getvalue(), caught, files


def repeats_an_entry(argv: list[str]) -> bool:
    """Whether ``argv`` gives an order or support size twice."""
    for arg in argv:
        flag, _, text = arg.partition("=")
        entries = text.split(",")
        repeatable = flag.removeprefix("--").replace("-", "_") in REPEATABLE
        if repeatable and len(set(entries)) < len(entries):
            return True
    return False


def strict(constant: str):
    raise ValueError(f"manifest holds {constant}, which is not JSON")


def named_rows(manifest: dict) -> list[tuple[int, int]]:
    """The (n, k) of every row a sweep's manifest says it finished."""
    if "points" in manifest:  # mixture-mc: one point per finished row
        return [(p["n"], p["k"]) for p in manifest["points"]]
    # binary-exact: every n of the grid before the one a cap stopped
    cfg, stop = manifest["config"], manifest.get("cap_exceeded", {}).get("n")
    return [(n, k) for n in cfg["n_grid"] if stop is None or n < stop for k in cfg["k_values"]]


COMMANDS = [
    ("rejection-demo", RejectionConfig),
    ("identity-check", IdentityConfig),
    ("binary-exact", BinaryConfig),
    ("mixture-mc", MixtureConfig),
]


@pytest.mark.parametrize("command,cls", COMMANDS)
def test_every_input_ends_in_a_documented_exit_code(command, cls, monkeypatch):
    # Under the shipped cap of 10^7 chains an identity case at n <= 64 may
    # take a second; at 10^3 it takes milliseconds and the cap's exit 3 is
    # drawn often. The shipped cap has tests of its own.
    monkeypatch.setattr(experiments, "IDENTITY_LEAF_CAP", 10**3)
    # One parser for every example: building one takes about as long as a
    # small run, and parse_args keeps no state between calls.
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(argv_strategy(command, cls))
    def check(argv):
        code, err, caught, files = run_cli(argv)
        assert code in {0, 2, 3, 4}, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if repeats_an_entry(argv):
            assert code == 2, (argv, code, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        manifests = {name: text for name, text in files.items() if name.endswith(".json")}
        if code in (0, 4):
            assert manifests, argv
        for text in manifests.values():
            json.loads(text, parse_constant=strict)
        sweep = files.get(f"{cls.experiment}.csv")
        if sweep is not None and "manifest.json" in files:
            rows = [(int(r["n"]), int(r["k"])) for r in csv.DictReader(io.StringIO(sweep))]
            assert rows == named_rows(json.loads(files["manifest.json"])), argv

    check()
