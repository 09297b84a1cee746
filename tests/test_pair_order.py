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

An input generator's sugar is its largest term degree, not its leading
term's: the ``input_sugar`` pin has a generator whose leading term under the
block order, x*t, sits below its degree-3 term, and leading terms that share
t, so a pair there is no coprime one. Each elimination the program builds
leads with a term of largest degree, where the two readings agree.

The ``chain_companion`` pin is a small inhomogeneous block-order input on
which a companion pair (k, i) of the pair (i, j), k < i, still waits when
(i, j) leaves: a chain criterion that looked the pair up unordered would
drop (i, j) there, and the loop would return a wrong basis of 4 elements
after 9 reductions.

The signature kernel is pinned by its own counts: the J-pairs it treats
(one regular reduction each, the generators included) and how many of
those reduce to zero. They were re-recorded when the kernel began to record
the principal syzygy of every pair of its elements: ``forms_21`` from 74
J-pairs, 22 to zero, to 69 and 17, and the five (1,1)-forms in 5+5 from 53
and 22 to 47 and 16. The pair loop's pins did not move.

The Rees presentation's elimination is pinned with the weighted sugar alone
(x and t weigh 1, each T_j weighs 3) on the twisted cubic, whose pair order
differs from the one sugar by plain degree gives, and as
``rees_presentation`` runs it, the pairs that the Hilbert function shows
reduce to zero dropped as well, on the rational normal quintic. There the
reductions and zero reductions are pinned for all three: plain sugar,
weighted sugar, and the drop.

``eliminate`` tail-reduces only the elements it keeps, those whose leading
monomial is free of the eliminated variables. That moved the reduction
counts of every elimination pinned here and no S-pair digest: they were
re-recorded then, ``tagged_intersection`` from 21 to 17, the weighted sugar
from 16 to 13, and the quintic from 1,031, 843 and 458 to 977, 789 and
404, its zero reductions unchanged.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from mixmult import DEGREVLEX, FieldSpec, GradedSetting, Ideal, groebner, ideal_mixed
from mixmult.groebner import (MonomialOrder, _buchberger, _lift, _packed, _tagged_ring,
                              buchberger, eliminate)
from mixmult.ideal_mixed import rees_presentation
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


def _input_sugar():
    pf = parse_problem("field F 32003\nring R vars x:1 y:1 z:1 t:1\n"
                       "ideal I in R = y^3 + x*t ; z*t^2 - y^2\n")
    I = pf.ideals["I"]
    gens = [g.terms for g in I.gens]
    order = MonomialOrder.elimination((3,))  # t above x, y, z
    return _packed(lambda pk: _buchberger(gens, I.ring.field, pk).reduced(), order, 4, gens)


def _chain_companion():
    gens = [{(1, 0, 1, 2): 7067, (3, 3, 3, 0): 8270},
            {(2, 1, 3, 2): 9547, (3, 2, 0, 3): 7612, (2, 3, 2, 3): 10090, (1, 3, 1, 2): 30543},
            {(1, 1, 1, 1): 29045, (1, 2, 1, 2): 15947, (1, 2, 3, 0): 16948}]
    return buchberger(gens, FieldSpec(32003), MonomialOrder.elimination((3,)))


def _forms(nx, ny, bidegree, count):
    """``count`` dense random forms of one bidegree in nx + ny variables."""
    R = bigraded_ring(nx, ny)
    rng = random.Random(2024)
    monos = list(monomials_of_bidegree(R, *bidegree))
    return R, [{e: rng.randrange(1, 32003) for e in monos} for _ in range(count)]


def _forms_21():
    R, gens = _forms(3, 3, (2, 1), 4)
    return _packed(lambda pk: _buchberger(gens, R.field, pk).reduced(), DEGREVLEX, R.nvars, gens)


@pytest.mark.parametrize("run,expected", [
    (_three_component, (0, hashlib.sha1(b"[]").hexdigest())),
    (_tagged_intersection, (17, "835a1495b034ccf3858b52bf7f03acb26bbfcb19")),
    (_forms_21, (199, "9031017cf5cd621b1ca57cabaf1900167308b0b9")),
    (_input_sugar, (10, "f4e7c2877805eabd09cdfccf9eef91a1268dec8b")),
    (_chain_companion, (186, "2e110a159d75be19b7a9fafd9cc7b8682516a284")),
], ids=["three_component", "tagged_intersection", "forms_21", "input_sugar",
        "chain_companion"])
def test_pair_order_is_pinned(run, expected, monkeypatch):
    assert _trace_buchberger(monkeypatch, run) == expected


_ROOT = Path(__file__).resolve().parent.parent


def _rees(monkeypatch, path: str, keep: int):
    """The Rees presentation of the ideal J of the problem file ``path``,
    its elimination given the first ``keep`` of the weights and the Hilbert
    count."""
    J = parse_problem((_ROOT / path).read_text()).ideals["J"]
    setting = GradedSetting(J.ring, Ideal(J.ring), J)
    real = ideal_mixed.eliminate
    monkeypatch.setattr(ideal_mixed, "eliminate",
                        lambda gens, base, *steering: real(gens, base, *steering[:keep]))
    return lambda: rees_presentation(setting)


_WEIGHTED_SUGAR = (13, "eaf5a4f3994966b05c091399bc8c9fd98aa16b05")


@pytest.mark.parametrize("path,keep,expected", [
    ("problems/twisted_cubic.mix", 1, _WEIGHTED_SUGAR),
    ("tests/inputs/rnc5.mix", 2, (404, "1704d1d6fe47d53fad028399f2b94a494ba75052")),
], ids=["weighted_sugar", "hilbert_drop"])
def test_rees_presentation_pair_order_is_pinned(path, keep, expected, monkeypatch):
    run = _rees(monkeypatch, path, keep)
    assert _trace_buchberger(monkeypatch, run) == expected


def test_the_sugar_pin_fails_on_plain_degrees(monkeypatch):
    run = _rees(monkeypatch, "problems/twisted_cubic.mix", 0)
    assert _trace_buchberger(monkeypatch, run) != _WEIGHTED_SUGAR


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
    ((3, 3, (2, 1), 4), (69, 17)),
    ((5, 5, (1, 1), 5), (47, 16)),
], ids=["forms_21", "forms_11_5x5"])
def test_signature_kernel_counts_are_pinned(shape, expected, monkeypatch):
    R, gens = _forms(*shape)
    counts = _reduction_counts(
        monkeypatch, lambda: buchberger(gens, R.field, DEGREVLEX), regular=True)
    assert counts == expected


@pytest.mark.parametrize("keep,expected", [
    (0, (977, 818)),
    (1, (789, 651)),
    (2, (404, 266)),
], ids=["plain_sugar", "weighted_sugar", "hilbert_drop"])
def test_rees_quintic_zero_reductions_are_pinned(keep, expected, monkeypatch):
    # (reductions, zero reductions) of the rational normal quintic's Rees
    # presentation, its final tail reduction included
    run = _rees(monkeypatch, "tests/inputs/rnc5.mix", keep)
    assert _reduction_counts(monkeypatch, run, regular=False) == expected


def test_signature_kernel_skips_most_zero_reductions_of_a_regular_sequence(monkeypatch):
    # five (1,1)-forms in 5+5 variables are a regular sequence: their
    # syzygies are generated by the Koszul ones. In the Schreyer order the
    # Koszul signatures and the principal syzygies of the kernel's elements
    # still leave 16 zero reductions, against the pair loop's 72
    R, gens = _forms(5, 5, (1, 1), 5)
    pair_loop = _reduction_counts(monkeypatch, lambda: _packed(
        lambda pk: _buchberger(gens, R.field, pk).reduced(), DEGREVLEX, R.nvars, gens),
        regular=False)
    signature = _reduction_counts(
        monkeypatch, lambda: buchberger(gens, R.field, DEGREVLEX), regular=True)
    assert pair_loop == (134, 72)
    assert 2 * signature[1] < pair_loop[1]
