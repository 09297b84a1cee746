"""The certified-search loop: its contract, real exhaustion through the CLI,
the retry budget reaching every search, the small-field chain guard of
``ideal-mixed --verify``, and the Rees route and the ``bigraded-e`` cells
answering over small fields."""

from __future__ import annotations

import json
import re
from pathlib import Path
import pytest

import mixmult.bigraded as bigraded
import mixmult.ideal_mixed as ideal_mixed
import mixmult.selftest as selftest
from mixmult.cli import main
from mixmult.config import RunConfig, certified_search
from mixmult.errors import GenericityExhausted
from mixmult.hilbert import ETable

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rewrite_field(tmp_path, stem: str, field: str) -> str:
    """A shipped problem file with its ``field`` line replaced."""
    text = (PROBLEMS / f"{stem}.mix").read_text()
    path = tmp_path / f"{stem}.mix"
    path.write_text(re.sub(r"^field .*$", f"field {field}", text, count=1, flags=re.M))
    return str(path)


class TestContract:
    def test_returns_first_certified_draw(self):
        events = []
        draws = iter(range(1, 10))

        def draw():
            value = next(draws)
            events.append(("draw", value))
            return value

        def certify(value):
            events.append(("certify", value))
            return f"cert{value}" if value >= 3 else None

        assert certified_search(draw, certify, 5, "widget") == (3, "cert3")
        assert events == [("draw", 1), ("certify", 1), ("draw", 2), ("certify", 2),
                          ("draw", 3), ("certify", 3)]

    def test_draws_exactly_max_retries_before_raising(self):
        calls = []

        def draw():
            calls.append(len(calls))
            return len(calls)

        with pytest.raises(GenericityExhausted, match=r"^no widget found in 4 attempts$"):
            certified_search(draw, lambda value: False, 4, "widget")
        assert len(calls) == 4


class TestExhaustionThroughTheCli:
    """Over F 2 with one attempt per search, these inputs run out of budget."""

    @pytest.mark.parametrize("stem,argv,seed,message", [
        ("three_component", ["bigraded-e", "--ideal", "I", "--i", "2", "--j", "2",
                             "--verify"], 0,
         "no filter-regular (0,1)-element found in 1 attempts"),
        ("three_component", ["bigraded-e", "--ideal", "I", "--i", "2", "--j", "2",
                             "--verify"], 1,
         "no filter-regular element of bidegree (1, 0) found in 1 attempts"),
        ("three_points", ["ideal-mixed", "--ideal", "J", "--verify"], 1,
         "no non-zerodivisor element of J found in 1 attempts"),
    ])
    def test_exit_three_with_message(self, capsys, tmp_path, stem, argv, seed, message):
        path = rewrite_field(tmp_path, stem, "F 2")
        code, out, err = run_cli(capsys, *argv, "--file", path, "--max-retries", "1",
                                 "--seed", str(seed))
        assert code == 3 and out == ""
        assert err == f"genericity exhausted: {message}\n"

    def test_sv_negative_rees_difference_exits_two(self, capsys, monkeypatch):
        # nothing is drawn, so a negative degree is a bug (2), not bad luck (3)
        monkeypatch.setattr(ideal_mixed, "e_table_full",
                            lambda setting: ETable(3, {(0, 3): 1, (1, 2): 5}))
        code, out, err = run_cli(capsys, "sv", "--file", str(PROBLEMS / "two_lines.mix"),
                                 "--x", "X", "--y", "Y", "--seed", "7")
        assert code == 2 and out == ""
        assert err == "mathematical assertion failed: negative cycle degree in [-4, 5, 0]\n"


class TestBudgetReachesEverySearch:
    """Over Q with ``--max-retries 5 --prime 101``, every search that spends
    the retry budget sees 5, and every coefficient is drawn below 101."""

    @pytest.fixture
    def spies(self, monkeypatch):
        budgets, spans = [], []

        def spy(draw, certify, budget, what):
            budgets.append((what, budget))
            return certified_search(draw, certify, budget, what)

        def spy_span(config, field):
            spans.append(span(config, field))
            return spans[-1]

        span = RunConfig.span
        for module in (bigraded, ideal_mixed):
            monkeypatch.setattr(module, "certified_search", spy)
        monkeypatch.setattr(RunConfig, "span", spy_span)
        return budgets, spans

    def test_ideal_mixed_searches_get_the_configured_budget(self, capsys, tmp_path,
                                                            spies):
        budgets, spans = spies
        # a non-domain ambient ring: a polynomial one reads the height off
        # the Krull dimension and runs no height search
        path = rewrite_field(tmp_path, "pair_of_planes", "Q")
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", path, "--ideal", "J",
                                 "--ambient", "amb", "--max-retries", "5", "--prime", "101",
                                 "--verify")
        assert code == 0, err
        assert json.loads(out)["result"]["e"] == ["1", "0"]
        assert {what for what, _ in budgets} == {
            "non-zerodivisor element of J", "element of J avoiding the minimal primes"}
        assert {budget for _, budget in budgets} == {5}
        assert spans and set(spans) == {101}

    def test_bigraded_verify_searches_get_the_configured_budget(self, capsys, tmp_path,
                                                                spies):
        budgets, spans = spies
        path = rewrite_field(tmp_path, "three_component", "Q")
        code, out, err = run_cli(capsys, "bigraded-e", "--file", path, "--ideal", "I",
                                 "--verify", "--max-retries", "5", "--prime", "101")
        assert code == 0, err
        assert json.loads(out)["result"]["table"]["diagonal"] == ["0", "0", "1", "0", "0"]
        assert {what for what, _ in budgets} == {
            "filter-regular element of bidegree (1, 0)", "filter-regular (0,1)-element"}
        assert {budget for _, budget in budgets} == {5}
        assert spans and set(spans) == {101}

    def test_sv_over_q_spends_no_budget_and_draws_nothing(self, capsys, tmp_path, spies):
        budgets, spans = spies
        path = rewrite_field(tmp_path, "two_conics", "Q")
        code, out, err = run_cli(capsys, "sv", "--file", path, "--x", "X", "--y", "Y",
                                 "--max-retries", "5", "--prime", "101")
        assert code == 0, err
        assert json.loads(out)["result"]["sum"] == "4"
        assert budgets == [] and spans == []

    def test_bigraded_cell_searches_only_under_verify(self, capsys, tmp_path, spies):
        budgets, spans = spies
        path = rewrite_field(tmp_path, "three_component", "Q")
        argv = ("bigraded-e", "--file", path, "--ideal", "I", "--i", "2", "--j", "2",
                "--max-retries", "5", "--prime", "101")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["result"] == {"i": "2", "j": "2", "e": "1", "positive": True}
        assert budgets == [] and spans == []
        code, out, err = run_cli(capsys, *argv, "--verify")
        assert code == 0, err
        assert json.loads(out)["result"]["e"] == "1"
        assert {what for what, _ in budgets} == {
            "filter-regular element of bidegree (1, 0)", "filter-regular (0,1)-element"}
        assert {budget for _, budget in budgets} == {5}
        assert spans and set(spans) == {101}


@pytest.mark.parametrize("field", ["F 2", "F 3"])
def test_small_field_cells_are_read_off_the_table(capsys, tmp_path, field):
    # a cell draws nothing, so one attempt per search is enough to answer
    path = rewrite_field(tmp_path, "three_component", field)
    code, out, err = run_cli(capsys, "bigraded-e", "--file", path, "--ideal", "I",
                             "--max-retries", "1")
    assert code == 0, err
    table = json.loads(out)["result"]["table"]
    r = int(table["r"])
    assert r >= 0
    for i in range(r + 1):
        code, out, err = run_cli(capsys, "bigraded-e", "--file", path, "--ideal", "I",
                                 "--i", str(i), "--j", str(r - i), "--max-retries", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["result"]["e"] == table["entries"][f"{i},{r - i}"]
        assert doc["result"]["positive"] is (doc["result"]["e"] != "0")
        assert doc["certificates"] == {}


def test_selftest_runs_under_its_configuration(capsys, monkeypatch):
    budgets = []

    def spy(draw, certify, budget, what):
        budgets.append(budget)
        return certified_search(draw, certify, budget, what)

    for module in (bigraded, ideal_mixed):
        monkeypatch.setattr(module, "certified_search", spy)
    # the suites that run certified searches, not the random property suites
    monkeypatch.setattr(selftest, "ALL_SUITES",
                        (selftest.suite_fixtures, selftest.suite_positivity_criterion))
    code, out, err = run_cli(capsys, "selftest", "--max-retries", "1", "--prime", "101")
    assert code == 0, err
    assert budgets and set(budgets) == {1}
    assert json.loads(out)["config"]["max_retries"] == "1"


def test_small_field_three_points_is_right_or_exhausted(capsys, tmp_path):
    # the seeds on which the chain exhausts: the Rees route draws nothing and
    # answers, so only the first alternative is left
    for p, seed in ((2, 0), (2, 1), (3, 1), (3, 2)):
        path = rewrite_field(tmp_path, "three_points", f"F {p}")
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", path, "--ideal", "J",
                                 "--seed", str(seed))
        assert code == 0, (p, seed, err)
        assert json.loads(out)["result"]["e"] == ["1", "2", "1"], (p, seed)


@pytest.mark.parametrize("p", [2, 3])
def test_small_fields_answer_on_the_rees_route(capsys, tmp_path, p):
    path = rewrite_field(tmp_path, "three_points", f"F {p}")
    for seed in range(10):
        code, out, err = run_cli(capsys, "ideal-mixed", "--file", path, "--ideal", "J",
                                 "--seed", str(seed))
        assert code == 0, (seed, err)
        assert json.loads(out)["result"]["e"] == ["1", "2", "1"], seed


def test_chain_reading_below_the_bound_names_the_seed(capsys, tmp_path):
    # over a polynomial ring e_i(m|J) > 0 for i < l(J); F 2 with seed 0 reads
    # rho 1 < l(J) - 1 = 2, so the draw was not generic enough
    path = rewrite_field(tmp_path, "three_points", "F 2")
    code, out, err = run_cli(capsys, "ideal-mixed", "--file", path, "--ideal", "J",
                             "--seed", "0", "--verify")
    assert code == 3 and out == ""
    assert err.startswith("genericity exhausted: ") and "--seed" in err
