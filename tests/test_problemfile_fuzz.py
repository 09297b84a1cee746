"""Every text either parses or raises ``ParseError``: no other exception
escapes ``parse_problem``, whatever the input.

Texts come from two sources: sequences of problem-file tokens (keywords,
names, symbols, small integers, stray characters) and a few random edits of
a valid file. Integers stay small so a drawn power of a sum stays cheap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmult import ParseError, parse_problem

VALID = """\
# a valid file with both ring kinds
field F 32003
ring R vars x:(1,0) y:(0,1) z:(1,1)
ring S vars u:1 v:2
ideal I in R = x^2*y - 3*x*y ; -(x*z)^2 + 2*z ; 0
ideal J in S = u*v ; v^3 - u^6
"""

TOKENS = ["field", "ring", "ideal", "vars", "in", "Q", "F", "R", "S", "I", "x", "y",
          "u", "_v2", "=", ";", ":", "(", ")", ",", "+", "-", "*", "^", "0", "1", "2",
          "3", "7", "#", "@", "/", ".", "field F 32003", "field F 4", "field Q",
          "ring R vars x:1 y:1", "x:(1,0)", "y:(0,1)", "z:(0,0)", "ideal I in R ="]

EDIT_CHARS = "0123456789xyzuvRSFQ+-*^();:,=# \n\t(_é"


def parses_or_raises_parse_error(text: str) -> None:
    try:
        parse_problem(text)
    except ParseError:
        pass


def apply_edits(text: str, edits) -> str:
    for kind, pos, char, length in edits:
        pos %= len(text) + 1
        if kind == "insert":
            text = text[:pos] + char + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + length:]
        elif kind == "replace":
            text = text[:pos] + char + text[pos + 1:]
        else:  # duplicate a span in place
            text = text[:pos + length] + text[pos:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40),
       st.lists(st.sampled_from([" ", "\n", "  ", "\t"]), min_size=1, max_size=40))
def test_token_sequences(tokens, separators):
    text = "".join(tok + separators[k % len(separators)] for k, tok in enumerate(tokens))
    parses_or_raises_parse_error(text)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace", "duplicate"]),
                          st.integers(0, len(VALID)), st.sampled_from(EDIT_CHARS),
                          st.integers(1, 12)),
                max_size=3))
def test_edits_of_a_valid_file(edits):
    parses_or_raises_parse_error(apply_edits(VALID, edits))


def test_valid_file_parses():
    pf = parse_problem(VALID)
    assert set(pf.ideals) == {"I", "J"}


@pytest.mark.parametrize("prefix,suffix", [("(" * 5000, ")" * 5000), ("-" * 5000, "")])
def test_deep_nesting_is_a_parse_error(prefix, suffix):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_problem("field Q\nring R vars x:1\nideal I in R = " + prefix + "x" + suffix)
