"""The benchmark's per-layer trace still fits the code.

``perfbench/layertrace.py`` wraps named functions of the package and reads
their arguments and results in post-call hooks. A layer whose function has
gone is reported absent, and a hook that no longer fits is marked broken;
either one silently drops metrics from a traced benchmark run. These tests
run a few CLI commands in-process under the tracer and require neither.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from mixmult.cli import main

_LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["hilbert", "--file", "problems/three_component.mix", "--ideal", "I"],
    ["bigraded-e", "--file", "problems/three_component.mix", "--ideal", "I",
     "--i", "2", "--j", "2"],
    ["ideal-mixed", "--file", "problems/twisted_cubic.mix", "--ideal", "J"],
    ["sv", "--file", "problems/two_lines.mix", "--x", "X", "--y", "Y"],
], ids=["hilbert", "bigraded-e", "ideal-mixed", "sv"])
def test_every_traced_layer_is_present_and_hooked(argv, capsys):
    tracer = _load_layertrace().Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    summary = tracer.summary(0.0)
    assert tracer.absent == [] and summary["absent"] == []
    assert tracer.broken == set()
    assert summary["hilbert.numerator_memo_entries"] is not None
