"""Every package name the benchmark scripts call stays exported, so a change
that trims the public API fails here rather than in a benchmark run. The
scripts are only read, never run or edited."""

import ast
from pathlib import Path

import posterior_debias

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_names() -> dict[str, list[str]]:
    """Each name read as ``pkg.<name>`` in bench/*.py, with the files that read it."""
    names: dict[str, list[str]] = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "pkg"
            ):
                names.setdefault(node.attr, []).append(path.name)
    return names


def test_every_name_the_benchmark_calls_is_exported():
    names = bench_names()
    assert names, f"no pkg.<name> call found under {BENCH}"
    missing = {name: files for name, files in names.items() if name not in posterior_debias.__all__}
    assert not missing, f"bench calls names the package does not export: {missing}"
