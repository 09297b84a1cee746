"""Start-up cost: what ``import mixmult.cli`` loads, and the value classes
that stand in for dataclasses.

Every command is one process, and most of a command's wall time on the
shipped files is interpreter start-up. ``dataclasses`` pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize``, and ``fractions`` pulls in ``decimal``,
which a run over F_p never uses; so the package defines plain classes and
loads ``fractions`` on the first rational element. Everything a command
needs loads at ``import mixmult.cli``, so a command over F_p imports nothing
inside ``cli.main``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixmult.cli import main
from mixmult.config import RunConfig
from mixmult.fields import FieldSpec
from mixmult.groebner import MonomialOrder
from mixmult.rings import Ring

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dataclasses", "inspect", "fractions", "decimal")

# shipped problem files over F 32003, one per command
COMMANDS = [
    ["gb", "--file", "problems/twisted_cubic.mix", "--ideal", "J"],
    ["hilbert", "--file", "problems/three_component.mix", "--ideal", "I"],
    ["bigraded-e", "--file", "problems/three_component.mix", "--ideal", "I", "--verify"],
    ["ideal-mixed", "--file", "problems/twisted_cubic.mix", "--ideal", "J"],
    ["sv", "--file", "problems/two_conics.mix", "--x", "X", "--y", "Y"],
]

# in a fresh interpreter: the heavy modules loaded after each import, then
# the modules each command adds and its exit code
PROBE = """
import contextlib, io, json, sys
heavy, commands = json.loads(sys.argv[1])
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
report = {}
import mixmult
report["mixmult"] = loaded()
import mixmult.cli
report["mixmult.cli"] = loaded()
report["commands"] = []
for argv in commands:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = mixmult.cli.main(argv)
    report["commands"].append([code, sorted(set(sys.modules) - before)])
print(json.dumps(report))
"""


def _fresh(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_import_and_commands_load_nothing_heavy():
    report = json.loads(_fresh("-c", PROBE, json.dumps([HEAVY, COMMANDS])))
    assert report["mixmult"] == [] and report["mixmult.cli"] == []
    assert report["commands"] == [[0, []]] * len(COMMANDS)


def test_rationals_load_fractions_on_first_use(capsys, tmp_path):
    # the reduced basis is monic, so its coefficients are proper fractions
    path = tmp_path / "q.mix"
    path.write_text("field Q\nring A vars x:1 y:1 z:1\n"
                    "ideal I in A = 2*x^2 + 3*y*z ; 3*x*y - 5*z^2\n")
    argv = ["gb", "--file", str(path), "--ideal", "I"]
    assert main(argv) == 0
    here = capsys.readouterr().out
    assert "5/3*z^2" in here
    assert _fresh("-m", "mixmult", *argv) == here


VALUES = [
    (FieldSpec, (None,), (32003,)),
    (MonomialOrder, ((0, 2),), ()),
    (Ring, ("A", ("x", "y"), ((1, 0), (0, 1)), FieldSpec(32003)),
     ("A", ("x", "y"), ((1, 0), (0, 1)), FieldSpec(None))),
    (RunConfig, (7, 32003, 16), (8, 32003, 16)),
]


@pytest.mark.parametrize("cls, fields, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_classes_compare_and_hash_by_their_fields(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b and a is not b
    assert cls(*other) != a
    assert hash(a) == hash(b) == hash(fields)  # as a frozen dataclass hashed
    assert a != fields  # another class never compares equal
    assert len({a, b, cls(*other)}) == 2


def test_with_seed_keeps_the_other_fields():
    config = RunConfig(3, 101, 5)
    derived = config.with_seed(config.seed + 101)
    assert (derived.seed, derived.prime, derived.max_retries) == (104, 101, 5)
    assert (config.seed, config.prime, config.max_retries) == (3, 101, 5)


def test_class_attributes_are_the_defaults():
    # ``--help`` prints RunConfig.seed, .prime and .max_retries
    assert RunConfig() == RunConfig(RunConfig.seed, RunConfig.prime, RunConfig.max_retries)
    assert (RunConfig.seed, RunConfig.prime, RunConfig.max_retries) == (0, 32003, 16)
