"""Problem-file grammar, diagnostics, and round-trip printing."""

from __future__ import annotations

import time

import pytest

from conftest import is_single_graded
from mixmult import ParseError, ProblemFile, parse_problem

GOOD = """\
# a bigraded ring and one ideal
field F 32003
ring R vars x:(1,0) y:(0,1)
ideal I in R = x*y
"""


def print_problem(pf: ProblemFile) -> str:
    """Canonical rendering; reparsing yields an identical structure."""
    lines = []
    if pf.field_spec.p is None:
        lines.append("field Q")
    else:
        lines.append(f"field F {pf.field_spec.p}")
    for name, ring in pf.rings.items():
        if is_single_graded(ring):
            vs = " ".join(f"{v}:{d1}" for v, (d1, _) in zip(ring.variables, ring.bidegrees))
        else:
            vs = " ".join(
                f"{v}:({d1},{d2})" for v, (d1, d2) in zip(ring.variables, ring.bidegrees)
            )
        lines.append(f"ring {name} vars {vs}")
    for name, ideal in pf.ideals.items():
        body = " ; ".join(str(g) for g in ideal.gens) if ideal.gens else "0"
        lines.append(f"ideal {name} in {ideal.ring.name} = {body}")
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_basic(self):
        pf = parse_problem(GOOD)
        assert pf.field_spec.p == 32003
        ring = pf.rings["R"]
        assert ring.bidegrees == ((1, 0), (0, 1))
        (gen,) = pf.ideals["I"].gens
        assert gen.bidegree() == (1, 1)

    def test_rational_field(self):
        pf = parse_problem("field Q\nring R vars x:1\nideal I in R = x^2")
        assert pf.field_spec.p is None

    def test_single_graded_shorthand(self):
        pf = parse_problem("field Q\nring A vars x:1 y:2")
        assert pf.rings["A"].bidegrees == ((1, 0), (2, 0))

    def test_multi_poly_ideal(self):
        pf = parse_problem(
            "field F 7\nring A vars x:1 y:1\nideal I in A = x^2 - y^2 ; x*y"
        )
        assert len(pf.ideals["I"].gens) == 2

    def test_precedence_and_parens(self):
        pf = parse_problem(
            "field Q\nring A vars x:1 y:1\n"
            "ideal I in A = (x + y)^2 - x^2 - 2*x*y - y^2"
        )
        assert pf.ideals["I"].gens == ()

    def test_unary_minus(self):
        pf = parse_problem("field Q\nring A vars x:1\nideal I in A = -x + x")
        assert pf.ideals["I"].gens == ()

    def test_comments_everywhere(self):
        text = "# leading\nfield Q # trailing was not asked for\nring A vars x:1\n"
        # '#' consumes the rest of the line, so this still parses
        pf = parse_problem(text)
        assert "A" in pf.rings


class TestDiagnostics:
    def test_unknown_variable_pins_position(self):
        text = "field Q\nring A vars x:1\nideal I in A = x + z"
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == 3
        assert "z" in str(err.value)

    def test_duplicate_ideal(self):
        text = ("field Q\nring A vars x:1\n"
                "ideal I in A = x\nideal I in A = x")
        with pytest.raises(ParseError) as err:
            parse_problem(text)
        assert err.value.line == 4

    def test_nonprime_characteristic(self):
        with pytest.raises(ParseError):
            parse_problem("field F 32001\nring A vars x:1")

    def test_characteristic_of_64_bits_or_more_refused(self):
        # a strong pseudoprime to every Miller-Rabin base 2..37
        with pytest.raises(ParseError, match="not below 2\\^64") as err:
            parse_problem("field F 318665857834031151167461\nring A vars x:1")
        assert (err.value.line, err.value.col) == (1, 9)

    @pytest.mark.parametrize("text,line,col", [
        ("field Q\nring R vars x:1\nideal I in R = x^\u00b2", 3, 18),
        ("field Q\nring R vars x:\u00b9", 2, 15),
        ("field F \u0663", 1, 9),
    ])
    def test_non_ascii_digits_are_parse_errors(self, text, line, col):
        # str.isdigit() accepts all three; int() refuses the first two
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_problem(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_problem("ring A vars x:1")

    def test_unknown_ring(self):
        with pytest.raises(ParseError):
            parse_problem("field Q\nideal I in A = 1")

    def test_reserved_word_as_name(self):
        with pytest.raises(ParseError):
            parse_problem("field Q\nring ideal vars x:1")

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse_problem("field Q\nring A vars x:1\nideal I in A = x % x")
        assert err.value.line == 3

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            parse_problem("field Q\nring A vars x:1\nideal I in A = x^9999999")

    def test_product_is_bounded_before_expanding(self):
        sum60 = "+".join(f"x^{i}*y^{60 - i}" for i in range(60))
        with pytest.raises(ParseError) as err:
            parse_problem(f"field F 32003\nring R vars x:(1,0) y:(0,1)\n"
                          f"ideal I in R = ({sum60})*({sum60})")
        assert err.value.col == 17 + len(sum60) + 1  # the star

    def test_large_powers_within_the_bound_parse(self):
        pf = parse_problem("field F 32003\nring R vars x:(1,0) y:(0,1)\n"
                           "ideal I in R = x^1048576 ; (x+y)^10")
        big, binomial = pf.ideals["I"].gens
        assert big.bidegree() == (1048576, 0)
        assert len(binomial.terms) == 11

    def test_power_of_a_sum_expands_in_linear_time(self):
        start = time.perf_counter()
        pf = parse_problem("field F 32003\nring R vars x:(1,0) y:(0,1)\n"
                           "ideal I in R = (x+y)^2000")
        assert time.perf_counter() - start < 0.5
        assert len(pf.ideals["I"].gens[0].terms) == 2001


class TestRoundTrip:
    def test_print_parse_identity(self):
        pf = parse_problem(GOOD)
        text = print_problem(pf)
        pf2 = parse_problem(text)
        assert pf2.field_spec == pf.field_spec
        assert pf2.rings == pf.rings
        assert {k: v.gens for k, v in pf2.ideals.items()} == {
            k: v.gens for k, v in pf.ideals.items()
        }
        assert print_problem(pf2) == text

    def test_shipped_problem_files_roundtrip(self):
        import pathlib

        for path in sorted(pathlib.Path("problems").glob("*.mix")):
            pf = parse_problem(path.read_text())
            text = print_problem(pf)
            pf2 = parse_problem(text)
            assert print_problem(pf2) == text, path
