"""Property test: every input to the rejection-demo and identity-check
subcommands ends in a documented exit code, without a traceback, and every
manifest written is strict JSON."""

import contextlib
import dataclasses
import io
import json
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from posterior_debias import cli
from posterior_debias.experiments import IdentityConfig, RejectionConfig, _field_type

# (low, high) of every integer a field may take here: small enough that no
# example is slow, and reaching just past each field's valid range.
INT_BOUNDS = {
    "demo_n": (-1, 64),
    "demo_k": (-1, 3),
    "demo_draws": (-1, 64),
    "root_seed": (-1, 2**64),
    "n_grid": (-1, 6),
    "k_values": (-1, 3),
    "m_values": (0, 3),
}
EXTREME_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.01, 0.4, 1.0, 1 - 1e-16, 2.0, 40.0, 1e200,
                  -1e308, float("inf"), float("nan")]


def field_strategy(name: str, hint) -> st.SearchStrategy:
    """Values for a config field, from its own annotation."""
    base, _ = _field_type(hint)
    if typing.get_origin(base) is tuple:
        (item,) = set(typing.get_args(base)) - {Ellipsis}
        assert item is int, name
        return st.lists(st.integers(*INT_BOUNDS[name]), max_size=3).map(tuple)
    if base is int:
        return st.integers(*INT_BOUNDS[name])
    if base is float:
        return st.sampled_from(EXTREME_FLOATS) | st.floats()
    raise AssertionError(f"no strategy for field {name!r}: {hint!r}")


def argv_strategy(command: str, cls) -> st.SearchStrategy:
    """Argument lists for ``command`` that set any subset of its fields."""
    hints = typing.get_type_hints(cls)
    flags = {}
    for f in dataclasses.fields(cls):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        value = field_strategy(f.name, hints[f.name])
        flags[flag] = st.none() | value

    def argv(values: dict) -> list[str]:
        out = [command]
        for flag, value in values.items():
            if value is None:
                continue
            text = ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)
            out.append(f"{flag}={text}")  # "=" keeps a leading "-" a value
        return out

    return st.fixed_dictionaries(flags).map(argv)


def run_cli(argv: list[str]) -> tuple[int, str, list[Path]]:
    """Exit code, stderr and the manifests written of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", tmp])
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
        manifests = {p.name: p.read_text() for p in Path(tmp).glob("*.json")}
    return code, err.getvalue(), manifests


def strict(constant: str):
    raise ValueError(f"manifest holds {constant}, which is not JSON")


@pytest.mark.parametrize(
    "command,cls", [("rejection-demo", RejectionConfig), ("identity-check", IdentityConfig)]
)
def test_every_input_ends_in_a_documented_exit_code(command, cls):
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(argv_strategy(command, cls))
    def check(argv):
        code, err, manifests = run_cli(argv)
        assert code in {0, 2, 3, 4}, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code in (0, 4):
            assert manifests, argv
        for text in manifests.values():
            json.loads(text, parse_constant=strict)

    check()
