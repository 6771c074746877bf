"""The README's library quick start runs as written, and its list of
exported names is the package's ``__all__``."""

import re
from pathlib import Path

import posterior_debias

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_python_blocks_run_in_order_in_one_namespace():
    # Later blocks use names the earlier ones define (g, np).
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_exported_names_are_listed_in_order():
    section = README.split("Exported names.", 1)[1].split("\n\n", 2)[1]
    assert re.findall(r"`(\w+)`", section) == posterior_debias.__all__
