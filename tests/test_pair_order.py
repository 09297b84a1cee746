"""Pinned S-pair order of the Buchberger loop.

The expected figures were recorded with the earlier ``max``-scan pair
selection: how many times ``buchberger`` calls ``_reduce_full``, and a digest
of the leading exponents of every S-pair in the order the loop treats them,
which also fixes the order among pairs with equal lcms. Equal figures
show that the pair queue changes speed only, never the work done.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from mixmult import DEGREVLEX, groebner
from mixmult.groebner import _lift, _tagged_ring, buchberger, eliminate
from mixmult.instances import bigraded_ring
from mixmult.problemfile import parse_problem
from mixmult.rings import monomials_of_bidegree


def _trace_buchberger(monkeypatch, run):
    """Run ``run()`` and return (reduce calls, sha1 of the S-pair order)."""
    calls = 0
    pairs = []
    real_reduce, real_spoly = groebner._reduce_full, groebner._spoly

    def counting_reduce(*args):
        nonlocal calls
        calls += 1
        return real_reduce(*args)

    def recording_spoly(f, g, field):
        pairs.append(tuple(sorted((f[0], g[0]))))
        return real_spoly(f, g, field)

    monkeypatch.setattr(groebner, "_reduce_full", counting_reduce)
    monkeypatch.setattr(groebner, "_spoly", recording_spoly)
    run()
    return calls, hashlib.sha1(repr(pairs).encode()).hexdigest()


def _three_component():
    pf = parse_problem(
        "field F 32003\nring B vars x1:(1,0) x2:(1,0) x3:(1,0) x4:(1,0) "
        "y1:(0,1) y2:(0,1) y3:(0,1) y4:(0,1)\n"
        "ideal I in B = x1*y1 ; x1*y2 ; x1*y3 ; x2*y1 ; x3*y1\n")
    I = pf.ideals["I"]
    return buchberger([g.terms for g in I.gens], I.ring.field, DEGREVLEX)


def _tagged_intersection():
    # twisted cubic meet a general linear form, through the tag elimination
    pf = parse_problem(
        "field F 32003\nring P3 vars x0:1 x1:1 x2:1 x3:1\n"
        "ideal J in P3 = x0*x2 - x1^2 ; x0*x3 - x1*x2 ; x1*x3 - x2^2\n"
        "ideal L in P3 = x0 + 2*x1 + 3*x2 + 5*x3\n")
    I, K = pf.ideals["J"], pf.ideals["L"]
    ext = _tagged_ring(I.ring, 1)
    t = ext.var(ext.nvars - 1)
    gens = [t * _lift(f, ext) for f in I.gens]
    gens += [(ext.one() - t) * _lift(g, ext) for g in K.gens]
    return eliminate(gens, I.ring)


def _forms_21():
    R = bigraded_ring(3, 3)
    rng = random.Random(2024)
    monos = list(monomials_of_bidegree(R, 2, 1))
    gens = [{e: rng.randrange(1, 32003) for e in monos} for _ in range(4)]
    return buchberger(gens, R.field, DEGREVLEX)


@pytest.mark.parametrize("run,expected", [
    (_three_component, (16, "464f6b3e2513a0a4529bc123a1820d393c30f91e")),
    (_tagged_intersection, (23, "223da0dbb4dac0d8916d9498a8dfce9f9af0b661")),
    (_forms_21, (199, "9031017cf5cd621b1ca57cabaf1900167308b0b9")),
], ids=["three_component", "tagged_intersection", "forms_21"])
def test_pair_order_is_pinned(run, expected, monkeypatch):
    assert _trace_buchberger(monkeypatch, run) == expected
