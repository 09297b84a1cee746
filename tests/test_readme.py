"""The Python examples of README.md run and print what their comments say.

Every ```python block is executed on its own. Each ``print(...)`` line of a
block ends in a ``# <value>`` comment, and the block's output must be those
values, one per line, in order.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_PRINT = re.compile(r"^print\(.*?\)\s+# (.*)$")


def _blocks() -> list[str]:
    return _BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_has_python_examples():
    assert len(_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_blocks())))
def test_readme_example_prints_its_comments(capsys, index):
    code = _blocks()[index]
    expected = [m.group(1) for m in map(_PRINT.match, code.splitlines()) if m]
    assert expected, "an example shows what it prints"
    exec(compile(code, f"README.md python block {index}", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == expected
