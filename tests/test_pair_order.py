"""Pinned S-pair order of the Buchberger loop.

The expected figures were recorded with the earlier ``max``-scan pair
selection: how many times ``buchberger`` calls ``_reduce_full``, and a digest
of the leading exponents of every S-pair in the order the loop treats them,
which also fixes the order among pairs with equal lcms. Equal figures
show that the pair queue changes speed only, never the work done.

Sugar selection changed the order on inhomogeneous input on purpose: the
tag elimination of ``tagged_intersection`` was re-recorded then, from 23
reductions to 21. On homogeneous input under degrevlex the sugar is the
degree of the lcm, so the ``forms_21`` figures stand.

The ``three_component`` ideal is generated by monomials, so ``buchberger``
answers it with its minimal generators and runs no pair loop: its figures
were re-recorded as no reductions and an empty pair list. The (2,1)-forms
are homogeneous, so ``buchberger`` sends them to the signature kernel; the
pair loop is pinned on them by calling ``_buchberger`` itself, with its
figures unchanged.

The signature kernel is pinned by its own counts: the J-pairs it treats
(one regular reduction each, the generators included) and how many of
those reduce to zero.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from mixmult import DEGREVLEX, groebner
from mixmult.groebner import _buchberger, _lift, _packed, _tagged_ring, buchberger, eliminate
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

    def recording_spoly(f, g):
        pairs.append(tuple(sorted((f[0], g[0]))))
        return real_spoly(f, g)

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


def _forms(nx, ny, bidegree, count):
    """``count`` dense random forms of one bidegree in nx + ny variables."""
    R = bigraded_ring(nx, ny)
    rng = random.Random(2024)
    monos = list(monomials_of_bidegree(R, *bidegree))
    return R, [{e: rng.randrange(1, 32003) for e in monos} for _ in range(count)]


def _forms_21():
    R, gens = _forms(3, 3, (2, 1), 4)
    return _packed(lambda pk: _buchberger(gens, R.field, pk), DEGREVLEX, R.nvars, gens)


@pytest.mark.parametrize("run,expected", [
    (_three_component, (0, hashlib.sha1(b"[]").hexdigest())),
    (_tagged_intersection, (21, "835a1495b034ccf3858b52bf7f03acb26bbfcb19")),
    (_forms_21, (199, "9031017cf5cd621b1ca57cabaf1900167308b0b9")),
], ids=["three_component", "tagged_intersection", "forms_21"])
def test_pair_order_is_pinned(run, expected, monkeypatch):
    assert _trace_buchberger(monkeypatch, run) == expected


_REDUCE_FULL = groebner._reduce_full


def _reduction_counts(monkeypatch, run, regular):
    """(reductions, zero reductions) of ``run()``: the regular ones of the
    signature kernel (those given a signature bound), or else every one."""
    counts = [0, 0]

    def counting(*args):
        r = _REDUCE_FULL(*args)
        if not regular or len(args) > 5:
            counts[0] += 1
            counts[1] += not r
        return r

    monkeypatch.setattr(groebner, "_reduce_full", counting)
    run()
    return tuple(counts)


@pytest.mark.parametrize("shape,expected", [
    ((3, 3, (2, 1), 4), (74, 22)),
    ((5, 5, (1, 1), 5), (53, 22)),
], ids=["forms_21", "forms_11_5x5"])
def test_signature_kernel_counts_are_pinned(shape, expected, monkeypatch):
    R, gens = _forms(*shape)
    counts = _reduction_counts(
        monkeypatch, lambda: buchberger(gens, R.field, DEGREVLEX), regular=True)
    assert counts == expected


def test_signature_kernel_skips_most_zero_reductions_of_a_regular_sequence(monkeypatch):
    # five (1,1)-forms in 5+5 variables are a regular sequence: their only
    # syzygies are the Koszul ones, which the signatures recognise
    R, gens = _forms(5, 5, (1, 1), 5)
    pair_loop = _reduction_counts(monkeypatch, lambda: _packed(
        lambda pk: _buchberger(gens, R.field, pk), DEGREVLEX, R.nvars, gens), regular=False)
    signature = _reduction_counts(
        monkeypatch, lambda: buchberger(gens, R.field, DEGREVLEX), regular=True)
    assert pair_loop == (134, 72)
    assert 2 * signature[1] < pair_loop[1]
