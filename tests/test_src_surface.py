"""The library's surface: every module-level function and class in
``src/mixmult`` is used by the program, not only by the tests.

A definition counts as used when its name is read somewhere in ``src/`` or
``scripts/`` outside its own definition, or is named in README.md. Importing
a name is not reading it, so a re-export from ``mixmult/__init__.py`` keeps
nothing alive. Helpers only the tests need live in ``tests/``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixmult"

# definitions kept with no reader outside tests/, each with its reason
ALLOWED = {
    "ideal_quotient": "a traced benchmark layer: perfbench/layertrace.py wraps it",
}


def _definitions() -> list[tuple[Path, str, range]]:
    """(file, name, line span) of each module-level function and class."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.append((path, node.name, range(first, node.end_lineno + 1)))
    return out


def _reads(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read in a Python file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def _unused() -> set[str]:
    reads = {path: _reads(path)
             for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))}
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = set()
    for home, name, span in _definitions():
        if name in readme:
            continue
        if not any(read == name and (path != home or line not in span)
                   for path, found in reads.items() for read, line in found):
            unused.add(name)
    return unused


def test_every_definition_is_used_outside_tests():
    assert sorted(_unused() - ALLOWED.keys()) == []


def test_allowlist_names_only_unused_definitions():
    # an entry whose definition gained a reader, or left src/, goes
    assert _unused() >= ALLOWED.keys()


def test_importing_the_cli_leaves_the_instances_unloaded():
    # only ``selftest`` needs the curated instances, and it imports them itself
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, mixmult.cli; print('mixmult.instances' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("lang", [None, "C.UTF-8"], ids=["LANG unset", "LANG=C.UTF-8"])
@pytest.mark.parametrize("argv", [
    ["gb", "--file", "problems/twisted_cubic.mix", "--ideal", "J"],
    ["gb", "--file", "problems/twisted_cubic.mix"],
], ids=["gb", "usage error"])
def test_a_command_loads_no_argparse_gettext_or_locale(argv, lang):
    # argparse's first translated message imports gettext and locale, some
    # 2-3 ms of each command's start-up; the CLI reads its arguments itself
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "LANGUAGE", "LC_ALL", "LC_MESSAGES")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if lang:
        env["LANG"] = lang
    probe = ("import sys, mixmult.cli\n"
             f"code = mixmult.cli.main({argv!r})\n"
             "print(code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    code = 1 if len(argv) < 5 else 0
    assert done.stdout.splitlines()[-1] == f"{code} []"
