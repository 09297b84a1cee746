"""``scripts/check_trace_metrics.py``: the CI check of a traced benchmark run.

It must read the last non-empty line of the run's output as the report and
refuse a run that ends in anything else, a report without every declared
metric, or a metric whose value is not a finite number.
"""

from __future__ import annotations

import importlib.util
import io
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent


def _check(monkeypatch, text: str) -> int:
    spec = importlib.util.spec_from_file_location(
        "check_trace_metrics", _ROOT / "scripts" / "check_trace_metrics.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return module.main()


def _report(value=1.5) -> dict:
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    metrics = {f"{w['name']}.{m['name']}": {"value": value, "unit": m["unit"]}
               for w in spec["workloads"] for m in spec["per_layer"]}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def test_a_complete_report_passes(monkeypatch):
    text = "series: 16 commands\n" + json.dumps(_report()) + "\n\n"
    assert _check(monkeypatch, text) == 0


def test_a_line_after_the_report_fails(monkeypatch, capsys):
    text = json.dumps(_report()) + "\nsummary line\n"
    assert _check(monkeypatch, text) == 1
    assert "not a benchmark report" in capsys.readouterr().err


def test_no_output_fails(monkeypatch):
    assert _check(monkeypatch, "") == 1


def test_an_incorrect_run_fails(monkeypatch):
    report = _report()
    report["correct"] = False
    assert _check(monkeypatch, json.dumps(report)) == 1


def test_a_missing_metric_fails(monkeypatch, capsys):
    report = _report()
    del report["metrics"]["chain.groebner.buchberger.calls"]
    assert _check(monkeypatch, json.dumps(report)) == 1
    assert "chain: missing ['groebner.buchberger.calls']" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), None, True, "1.5"],
                         ids=["nan", "infinity", "null", "bool", "string"])
def test_a_value_that_is_not_a_finite_number_fails(value, monkeypatch, capsys):
    report = _report()
    report["metrics"]["series.trace.solve_s"]["value"] = value
    assert _check(monkeypatch, json.dumps(report)) == 1
    assert "series.trace.solve_s" in capsys.readouterr().err
