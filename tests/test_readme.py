"""The README's quick start runs as written and prints the values it documents."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_documented_values():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    documented = re.findall(r"# (\d+\.\d+)\.\.\.", block)  # "print(x)  # 9.613..."
    assert len(documented) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(documented)
    for value, prefix in zip(printed, documented):
        assert value.startswith(prefix), f"README documents {prefix}..., the code prints {value}"
