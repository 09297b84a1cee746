"""Buchberger-based Groebner kernel and ideal arithmetic.

Provides reduced Groebner bases, normal forms, ideal sum / product /
intersection / quotient / saturation, elimination behind fresh tag variables,
radical membership, zero-divisor tests (by Hilbert series, see ``is_nzd``),
and Krull dimension of quotients.

``buchberger`` picks a kernel by its input. Generators that are all
monomials need no pairs: their reduced basis is their minimal monomials.
Generators that are each homogeneous (every basis under a Hilbert series,
``gb`` or a Bayer step) go to signature-based Buchberger in the Schreyer
order (``_signature_basis``; Gao, Volny and Wang, Math. Comp. 2016), which
drops J-pairs by syzygy and rewrite criteria before reducing them, so a
regular sequence costs few zero reductions. Anything else (every
Rabinowitsch part, intersection and Rees presentation) goes to a Buchberger
loop with the coprime and chain criteria and sugar selection (Giovini, Mora,
Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991): an input
generator's sugar is its largest term degree, the S-pair of f_i and f_j has
the larger of sugar_i + deg lcm - deg LT(f_i) and the same for j, and its
remainder keeps that sugar. S-pairs wait in a heap keyed by their sugar, then
their lcm, and equal keys leave in the order they were made. On homogeneous
input the sugar is the degree of the lcm, which degrevlex compares first
anyway, so there the order is the normal strategy's. The signature kernel's
guard-bit argument needs homogeneity: there no field of a signature exceeds
the degree of its polynomial. Both loops end in one minimalise-and-tail-
reduce pass (``_reduced_basis``), and the reduced basis is unique, so either
returns the same dicts.
Monomial-ideal fast paths cover the operations that dominate the workloads
here and return handles preset with the basis that path finds.

Inside the loop and in normal forms a monomial in n variables is one int
(packed exponent vectors: Monagan-Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007) of 2n fields of one
width. The low n fields hold the exponents; the high n hold the partial sums
the order compares (``_Packing``), so integer order is the monomial order
and a product is one addition. The top bit of every field is a guard bit,
clear in every monomial, so a divides b exactly when b - a has no guard bit
set. Fields start at 8 bits, or wide enough for twice the input degree;
when a guard bit trips, the call is redone with fields twice as wide. Term
dicts keep exponent tuples outside these calls.

Reduction (``_reduce_full``) keeps the terms still to treat in a heap and
delays normalisation, as the same paper does: a coefficient accumulates as
plain sums of products and is brought into the field once, when its term is
popped (``FieldSpec.normal``: ``% p`` over F_p, nothing over Q), so one
loop serves both fields. A divisor memo, one per
Buchberger call, remembers for each popped monomial its first divisor among
the basis leading terms, or how many leading terms are known not to divide
it, so a later search resumes there; the divisor chosen, and with it every
reduction, is the one a full scan finds. The final tail reduction runs
against the whole minimal basis with one memo: a term below a leading term
is never divisible by it.

Saturation never iterates colons. I : J^inf is the intersection of the
I : g^inf over the generators g of J, and each of those takes one of two
routes:

- g a monomial and I homogeneous in the standard grading (every generator
  has a single exponent sum): Bayer's trick, once per variable v of g
  (Bayer-Stillman, "A criterion for detecting m-regularity", Invent. Math.
  87, 1987). In degrevlex with v last, v divides a homogeneous basis element
  exactly when it divides its leading term, so dividing every element of the
  reduced basis by its largest power of v gives a basis of I : v^inf.
- anything else, an inhomogeneous I included: Rabinowitsch's
  I : g^inf = (I + (1 - t*g)) meet k[x], one tag elimination.

A generator after the first takes neither route when g times the
intersection so far lies in I (a batch of normal forms modulo I): the
intersection already lies in I : g, so in I : g^inf, and stays as it is.

Intersections are tag eliminations too; ``eliminate`` is the one primitive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations_with_replacement, count
from operator import add, itemgetter, le, mul, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import InputError, MathInvariantError
from .fields import FieldSpec
from .rings import Exponent, Poly, Ring, _degrevlex_sortkey

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialOrder:
    """Degrevlex on all variables, or a block order eliminating ``block``.

    Block orders compare the block exponents degrevlex first, so any monomial
    involving a block variable exceeds every monomial without one.
    """

    block: tuple[int, ...] = ()

    @staticmethod
    def elimination(block: Sequence[int]) -> "MonomialOrder":
        return MonomialOrder(tuple(sorted(block)))


DEGREVLEX = MonomialOrder()


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------


class _Overflow(Exception):
    """A field of a packed monomial reached its guard bit."""


class _Packing:
    """Exponent tuples as ints of 2 * nvars fields of ``width`` bits. Field i
    holds x_i; the high fields hold, most significant first, the degree, then
    x_1 + ... + x_{n-1}, down to x_1 (for a block order: the same within the
    block, then within the rest)."""

    __slots__ = ("weights", "shifts", "mask", "half", "guard")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        rest = [v for v in range(nvars) if v not in order.block]
        self.weights = [1 << (v * width) for v in range(nvars)]
        top = nvars
        for group in (rest, order.block):
            top += len(group)
            high = 0  # the fields from a variable's own up to its group's top
            for k, v in zip(count(top - 1, -1), reversed(group)):
                high += 1 << (k * width)
                self.weights[v] += high
        self.shifts = range(0, nvars * width, width)
        self.half = 1 << (width - 1)
        self.mask = self.half - 1
        self.guard = sum(self.half << (k * width) for k in range(2 * nvars))

    def pack(self, exp: Exponent) -> int:
        if sum(exp) >= self.half:  # no field value exceeds the degree
            raise _Overflow
        return sum(map(mul, exp, self.weights))

    def unpack(self, m: int) -> Exponent:
        return tuple([m >> s & self.mask for s in self.shifts])

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(m): c for m, c in terms.items()}


def _packed(work: Callable[[_Packing], object], order: MonomialOrder, nvars: int,
            polys: Sequence[dict]):
    """``work(packing)`` with fields of at least 8 bits, wide enough for twice
    the degree of ``polys``, redone with fields twice as wide whenever a
    guard bit trips."""
    degree = max((sum(e) for t in polys for e in t), default=0)
    width = max(8, degree.bit_length() + 2)
    while True:
        try:
            return work(_Packing(order, nvars, width))
        except _Overflow:
            width *= 2


# ---------------------------------------------------------------------------
# raw term-dict arithmetic used inside the engine
# ---------------------------------------------------------------------------


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _esub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def _eadd(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def _elcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _egcd(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(min, a, b))


def _divisible(m: int, divisors: Iterable[int], mask: int) -> bool:
    """True when one of the packed ``divisors`` divides packed ``m``, that
    is when ``m`` minus it sets no bit of ``mask``: the guard bits, and for
    signature keys also the index bits."""
    for d in divisors:
        if not (m - d) & mask:
            return True
    return False


def _monic(terms: dict, field: FieldSpec) -> dict:
    lc = terms[max(terms)]
    if lc == field.one:
        return terms
    inv = field.inv(lc)
    return {e: field.mul(inv, c) for e, c in terms.items()}


def _reducer(h: dict) -> tuple[int, tuple]:
    """A monic packed polynomial as (leading monomial, tail), the tail being
    its other (monomial, coefficient) pairs in dict order."""
    lt = max(h)
    return lt, tuple(t for t in h.items() if t[0] != lt)


def _reduce_full(terms: dict, basis: list[tuple[int, tuple]], field: FieldSpec,
                 guard: int, memo: dict, bound: tuple | None = None) -> dict:
    """Fully reduce packed ``terms`` (a dict, or its items) against
    ``basis``, a list of monic reducers (see ``_reducer``); no term of the
    result is divisible by any basis leading monomial. Terms leave in
    descending order.

    Coefficients accumulate as plain sums and products and are brought into
    the field (``FieldSpec.normal``) once, when their term is popped, so
    ``terms`` need not be normalised either. ``memo`` maps a packed monomial
    to the index of its first divisor in ``basis``, or to ~n when the first
    n basis elements are known not to divide it; a later search resumes
    there. It stays valid while ``basis`` only grows at the end, and never
    changes the divisor chosen.

    With ``bound = (sig, nbits, ratios)`` the reduction is regular (see
    ``_signature_basis``): a term e is reduced by the first basis element k
    that divides it and whose multiple has a smaller signature key,
    ``(e << nbits) + ratios[k] < sig``, and kept when there is none."""
    normal, pop, push = field.normal, heapq.heappop, heapq.heappush
    sig, nbits, ratios = bound or (0, 0, None)
    lts = [lt for lt, _ in basis]
    n = len(lts)
    p = dict(terms)
    out: dict = {}
    heap = [-e for e in p]
    heapq.heapify(heap)
    while heap:
        e = -pop(heap)
        c = normal(p.pop(e))
        if not c:
            continue
        k = memo.get(e)
        if k is None or k < 0:
            if k is None and e & guard:
                raise _Overflow
            for k in range(0 if k is None else ~k, n):
                if not (e - lts[k]) & guard:
                    memo[e] = k
                    break
            else:
                memo[e] = ~n
                out[e] = c
                continue
        if ratios is not None:
            top = sig - (e << nbits)
            if ratios[k] >= top:
                for k in range(k + 1, n):
                    if ratios[k] < top and not (e - lts[k]) & guard:
                        break
                else:
                    out[e] = c
                    continue
        shift = e - lts[k]
        c = -c
        for ge, gc in basis[k][1]:
            ne = ge + shift
            old = p.get(ne)
            if old is None:
                p[ne] = c * gc
                push(heap, -ne)
            else:
                p[ne] = old + c * gc
    return out


def _spoly(f: tuple, g: tuple) -> dict:
    """S-polynomial of two monic polynomials, each given as (leading
    exponent, packed tail, packed shift from its leading monomial to the
    lcm). The leading terms cancel; coefficients are left unnormalised for
    ``_reduce_full``."""
    _, ft, sf = f
    _, gt, sg = g
    acc = {e + sf: c for e, c in ft}
    for e, c in gt:
        ne = e + sg
        old = acc.get(ne)
        acc[ne] = -c if old is None else old - c
    return acc


def buchberger(gens: Iterable[dict], field: FieldSpec, order: MonomialOrder) -> list[dict]:
    """Reduced Groebner basis of the ideal generated by ``gens`` (term dicts).

    Returns monic generators sorted by ascending leading monomial, each dict
    listing its leading monomial first (``Ideal`` relies on this); [] for the
    zero ideal and [{0: 1}] for the unit ideal.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    nvars = len(next(iter(gens[0])))
    if all(len(g) == 1 for g in gens):
        work = _monomial_basis
    elif all(len(set(map(sum, g))) == 1 for g in gens):
        work = _signature_basis
    else:
        work = _buchberger
    return _packed(lambda pk: work(gens, field, pk), order, nvars, gens)


def _monomial_basis(gens: list[dict], field: FieldSpec, pk: _Packing) -> list[dict]:
    """The reduced basis of an ideal of monomials: its minimal generators.
    Ascending, a monomial is kept when no kept one divides it."""
    guard = pk.guard
    kept: list[int] = []
    for m in sorted({pk.pack(e) for g in gens for e in g}):
        if not _divisible(m, kept, guard):
            kept.append(m)
    return [{pk.unpack(m): field.one} for m in kept]


def _buchberger(gens: list[dict], field: FieldSpec, pk: _Packing) -> list[dict]:
    guard = pk.guard
    unit = [{(0,) * len(pk.weights): field.one}]
    basis: list[tuple[int, tuple]] = []  # reducers: (packed leading monomial, tail)
    lts: list[Exponent] = []
    # each element's sugar less the degree of its leading monomial
    excess: list[int] = []
    memo: dict = {}  # divisor memo of _reduce_full over the growing basis
    pending: dict[frozenset, int] = {}
    # (sugar, packed lcm, creation tick, pair): pops the smallest sugar
    # first, then the smallest lcm, equal ones in creation order
    queue: list = []
    tick = count()

    def push(h: dict, sugar: int) -> bool:
        """Add a fully reduced nonzero polynomial; True when it is a unit."""
        lt = max(h)
        if not lt:
            return True
        k = len(basis)
        basis.append(_reducer(_monic(h, field)))
        lts.append(pk.unpack(lt))
        excess.append(sugar - sum(lts[k]))
        for i in range(k):
            key = frozenset((i, k))
            lcm = _elcm(lts[i], lts[k])
            packed = pending[key] = pk.pack(lcm)
            pair_sugar = sum(lcm) + max(excess[i], excess[k])
            heapq.heappush(queue, (pair_sugar, packed, next(tick), key))
        return False

    for g in gens:
        r = _reduce_full(pk.pack_terms(g), basis, field, guard, memo)
        if r and push(r, max(map(sum, g))):
            return unit

    while queue:
        sugar, _, _, key = heapq.heappop(queue)
        lcm = pending.pop(key)
        i, j = tuple(key)
        # coprime criterion: disjoint leading supports reduce to zero
        if lcm == basis[i][0] + basis[j][0]:
            continue
        # chain criterion: a third element divides the lcm and both companion
        # pairs were already treated
        for k, (m, _) in enumerate(basis):
            if k != i and k != j and not (lcm - m) & guard \
                    and frozenset((i, k)) not in pending and frozenset((j, k)) not in pending:
                break
        else:
            s = _spoly((lts[i], basis[i][1], lcm - basis[i][0]),
                       (lts[j], basis[j][1], lcm - basis[j][0]))
            r = _reduce_full(s, basis, field, guard, memo)
            if r and push(r, sugar):
                return unit

    return _reduced_basis(basis, field, pk)


def _reduced_basis(basis: list[tuple[int, tuple]], field: FieldSpec, pk: _Packing) -> list[dict]:
    """The reduced basis of the ideal that the monic reducers ``basis``, a
    Groebner basis, generate, as ``buchberger`` returns it: unique, so the
    same from either kernel."""
    guard = pk.guard
    # minimalize: ascending, keep an element when no kept leading term
    # divides its own (equal leading terms included)
    H: list[tuple[int, tuple]] = []
    kept: list[int] = []
    for lt, t in sorted(basis, key=itemgetter(0)):
        if not _divisible(lt, kept, guard):
            kept.append(lt)
            H.append((lt, t))

    # tail-reduce each against all of H, one memo for the pass: no leading
    # term divides a smaller monomial, so an element never reduces its own
    # tail, and the leading terms stay minimal and monic
    memo: dict = {}
    for i, (lt, t) in enumerate(H):
        H[i] = (lt, tuple(_reduce_full(t, H, field, guard, memo).items()))

    one = field.one
    return [pk.unpack_terms(dict(((lt, one),) + t)) for lt, t in H]


def _signature_basis(gens: list[dict], field: FieldSpec, pk: _Packing) -> list[dict]:
    """The reduced basis of homogeneous ``gens`` by signatures (Gao, Volny
    and Wang, Math. Comp. 2016; Eder and Roune, ISSAC 2013).

    Each element g carries a signature (m, i), the leading term m e_i of an
    a in R^s with a . gens = g, in the Schreyer order: (m, i) ranks by
    m*LT(gens[i]), then by i. Its key is that packed product shifted left
    by ``nbits``, plus i, so keys compare as the order, a multiple u*g has
    key (u << nbits) + key(g), and two keys of one i divide as their
    monomials do. J-pairs (the multiple of the larger-signed element of a
    pair that reaches the lcm of the two leading terms, and the generators
    themselves) are treated in increasing signature and reduced regularly,
    by multiples of smaller signature only. A J-pair is dropped unreduced
    when a syzygy signature divides its own (the Koszul ones
    (LT gens[i], j) for i < j, those of the J-pairs that reduced to zero,
    and those of pairs with coprime leading terms or of two monomials,
    which are syzygies themselves), or when an element added after its
    origin has a signature dividing it (the rewrite criterion in add order,
    which also keeps one J-pair per signature). Both are checked when a
    J-pair is made and again when it is popped."""
    guard, weights = pk.guard, pk.weights
    nbits = len(gens).bit_length()
    low = (1 << nbits) - 1
    sigmask = guard << nbits | low
    fs = [pk.pack_terms(g) for g in gens]
    heads = [max(f) for f in fs]
    # syzygy signatures by index i, each as its packed m*LT(gens[i])
    syz = [[heads[j] + h for j in range(i)] for i, h in enumerate(heads)]
    basis: list[tuple[int, tuple]] = []  # reducers: (packed leading monomial, tail)
    sigs: list[int] = []  # signature keys
    ratios: list[int] = []  # signature key minus the leading monomial's
    exps: list[Exponent] = []  # leading exponents, for lcms
    supports: list[int] = []  # leading supports, as variable bitmasks
    memo: dict = {}  # divisor memo of _reduce_full over the growing basis
    # (signature key, minus the origin's index, packed multiplier); a
    # generator's entry has 1 in the middle
    queue = [(h << nbits | i, 1, 0) for i, h in enumerate(heads)]
    heapq.heapify(queue)
    one = field.one
    while queue:
        key, a, t = heapq.heappop(queue)
        val, i = key >> nbits, key & low
        if val & guard:
            raise _Overflow
        if _divisible(val, syz[i], guard) or _divisible(key, sigs[1 - a:], sigmask):
            continue
        if a == 1:
            poly = fs[i]
        else:
            lt, tail = basis[-a]
            poly = {lt + t: one}
            poly.update((e + t, c) for e, c in tail)
        r = _reduce_full(poly, basis, field, guard, memo, (key, nbits, ratios))
        if not r:
            syz[i].append(val)
            continue
        h = _monic(r, field)
        lt = max(h)
        if not lt:
            return [{(0,) * len(weights): one}]
        k = len(basis)
        basis.append(_reducer(h))
        sigs.append(key)
        ratios.append(key - (lt << nbits))
        exps.append(pk.unpack(lt))
        supports.append(sum(1 << v for v, x in enumerate(exps[k]) if x))
        for j in range(k):
            ltj = basis[j][0]
            coprime = not supports[k] & supports[j]
            lcm = lt + ltj if coprime else sum(map(mul, map(max, exps[k], exps[j]), weights))
            if lcm & guard:
                raise _Overflow
            mine = key + (lcm - lt << nbits)
            theirs = sigs[j] + (lcm - ltj << nbits)
            if mine == theirs:
                continue
            top, origin = (mine, k) if mine > theirs else (theirs, j)
            zs, z = syz[top & low], top >> nbits
            if _divisible(z, zs, guard) or origin == j and not (top - key) & sigmask:
                continue  # dropped now rather than when popped
            if coprime or not (basis[k][1] or basis[j][1]):  # a syzygy
                zs.append(z)
            else:
                heapq.heappush(queue, (top, -origin, lcm - basis[origin][0]))
    return _reduced_basis(basis, field, pk)


# ---------------------------------------------------------------------------
# ideal handles
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis.

    The basis is the degrevlex one ``buchberger`` returns, read as it lists
    it. Handles are immutable, so a cached basis can never go stale. A
    handle also caches its sums (``ideal_sum``: a sum asked for twice is one
    handle), its saturations (itself where saturated) and its Krull dimension.
    """

    __slots__ = ("ring", "gens", "_gb", "_dim", "_satcache", "_sums")

    def __init__(self, ring: Ring, gens: Iterable[Poly] = ()):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring != ring:
                raise InputError("generator from a different ring")
            if not g.is_zero:
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = None
        self._dim = None
        self._satcache: dict = {}
        self._sums: dict = {}

    # -- basis and membership ---------------------------------------------------

    def groebner(self) -> tuple[Poly, ...]:
        if self._gb is None:
            basis = buchberger([g.terms for g in self.gens], self.ring.field, DEGREVLEX)
            self._gb = tuple(Poly(self.ring, h, _trusted=True) for h in basis)
        return self._gb

    def _normal_forms(self, polys: Sequence[Poly]) -> list[dict]:
        """Normal forms of ``polys`` in turn, as term dicts, up to and
        including the first nonzero one. The batch is reduced under one
        packing of the basis with one divisor memo, which stays valid because
        the basis never changes; a guard bit tripped by any member redoes the
        whole batch with wider fields."""
        for f in polys:
            if f.ring != self.ring:
                raise InputError("polynomial from a different ring")
        basis = [g.terms for g in self.groebner()]
        terms = [f.terms for f in polys]
        field = self.ring.field

        def reduce(pk: _Packing) -> list[dict]:
            packed = [_reducer(pk.pack_terms(h)) for h in basis]
            memo: dict = {}
            out = []
            for t in terms:
                out.append(pk.unpack_terms(
                    _reduce_full(pk.pack_terms(t), packed, field, pk.guard, memo)))
                if out[-1]:
                    break
            return out

        return _packed(reduce, DEGREVLEX, self.ring.nvars, basis + terms)

    def normal_form(self, f: Poly) -> Poly:
        return Poly(self.ring, self._normal_forms([f])[0], _trusted=True)

    def contains(self, f: Poly) -> bool:
        return not self._normal_forms([f])[0]

    def contains_ideal(self, other: "Ideal") -> bool:
        return not any(self._normal_forms(other.gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens  # __init__ drops zero generators

    @property
    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant and not gb[0].is_zero

    def same_ideal(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise InputError("ideals live in different rings")
        # reduced bases are unique, and both are sorted by leading monomial
        return other is self or self.groebner() == other.groebner()

    def leading_exponents(self) -> tuple[Exponent, ...]:
        return tuple(next(iter(g.terms)) for g in self.groebner())

    @property
    def is_monomial(self) -> bool:
        return all(len(g.terms) == 1 for g in self.gens)

    def __repr__(self):
        return f"Ideal({self.ring.name}; {len(self.gens)} gens)"


# ---------------------------------------------------------------------------
# tag-variable plumbing for elimination
# ---------------------------------------------------------------------------


def _tagged_ring(ring: Ring, ntags: int) -> Ring:
    tags = tuple(f"#t{i+1}" for i in range(ntags))
    return Ring(
        ring.name + "#",
        ring.variables + tags,
        ring.bidegrees + ((1, 0),) * ntags,
        ring.field,
    )


def _lift(poly: Poly, ext: Ring) -> Poly:
    pad = ext.nvars - poly.ring.nvars
    terms = {e + (0,) * pad: c for e, c in poly.terms.items()}
    return Poly(ext, terms, _trusted=True)


def _preset(ring: Ring, basis: list[dict]) -> Ideal:
    """The ideal generated by ``basis``, a reduced degrevlex basis in the
    form ``buchberger`` returns, with it preset as the handle's basis."""
    result = Ideal(ring, [Poly(ring, h, _trusted=True) for h in basis])
    result._gb = result.gens
    return result


def eliminate(gens: Sequence[Poly], base: Ring) -> Ideal:
    """The ideal of ``gens`` meet k[base], for ``gens`` in a ring that
    extends ``base`` by trailing variables.

    One Groebner basis in the block order that eliminates the trailing
    variables, which ranks any monomial with one above all without: the
    elements whose leading monomial is free of them are, in order, the
    reduced degrevlex basis of the result, preset rather than computed again.
    """
    if not gens:
        return Ideal(base)
    n, ext = base.nvars, gens[0].ring
    block = tuple(range(n, ext.nvars))
    basis = buchberger([g.terms for g in gens], ext.field, MonomialOrder.elimination(block))
    return _preset(base, [{e[:n]: c for e, c in h.items()}
                          for h in basis if not any(next(iter(h))[n:])])


# ---------------------------------------------------------------------------
# ideal operations
# ---------------------------------------------------------------------------


def ideal_sum(I: Ideal, extra: Union[Ideal, Iterable[Poly]]) -> Ideal:
    """I + extra, one handle per (I, generator tuple of ``extra``): the same
    sum asked for again is the handle built first, with what it has cached;
    a sum that adds nothing is the other summand, I or the Ideal ``extra``."""
    if isinstance(extra, Ideal) and I.is_zero and extra.ring == I.ring:
        return extra
    gens = extra.gens if isinstance(extra, Ideal) else tuple(extra)
    if not gens:
        return I
    total = I._sums.get(gens)
    if total is None:
        total = I._sums[gens] = Ideal(I.ring, I.gens + gens)
    return total


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise InputError("ideals live in different rings")
    prods = {f * g for f in I.gens for g in J.gens}
    return Ideal(I.ring, prods)


def ideal_power(I: Ideal, n: int) -> Ideal:
    if n < 0:
        raise InputError("ideal powers take nonnegative exponents")
    if n == 0:
        return Ideal(I.ring, [I.ring.one()])
    gens = set()
    for combo in combinations_with_replacement(I.gens, n):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        gens.add(p)
    return Ideal(I.ring, gens)


def _monomial_ideal(ring: Ring, exps: Iterable[Exponent]) -> Ideal:
    """The ideal of the monomials ``exps``, generated and preset by its
    reduced basis: its minimal monomials, ascending, from ``buchberger``."""
    return _preset(ring, buchberger([{e: ring.field.one} for e in exps], ring.field, DEGREVLEX))


def ideal_intersection(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise InputError("ideals live in different rings")
    if I.is_zero or J.is_zero:
        return Ideal(I.ring)
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    if I.is_monomial and J.is_monomial:
        return _monomial_ideal(I.ring, (
            _elcm(next(iter(f.terms)), next(iter(g.terms)))
            for f in I.gens
            for g in J.gens
        ))
    # one tag t: (t*I + (1-t)*J) eliminated down to the base ring
    ext = _tagged_ring(I.ring, 1)
    t = ext.var(ext.nvars - 1)
    one_minus_t = ext.one() - t
    gens = [t * _lift(f, ext) for f in I.gens]
    gens += [one_minus_t * _lift(g, ext) for g in J.gens]
    return eliminate(gens, I.ring)


def poly_exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    if g.is_zero:
        raise InputError("division by the zero polynomial")
    field = f.ring.field
    lg = min(g.terms, key=_degrevlex_sortkey)
    cg = g.terms[lg]
    rem = dict(f.terms)
    quot: dict = {}
    while rem:
        e = min(rem, key=_degrevlex_sortkey)
        if not _divides(lg, e):
            raise MathInvariantError("claimed exact division has a remainder")
        shift = _esub(e, lg)
        coef = field.div(rem[e], cg)
        quot[shift] = coef
        for ge, gc in g.terms.items():
            ne = _eadd(ge, shift)
            old = rem.get(ne, field.zero)
            nv = field.sub(old, field.mul(coef, gc))
            if nv:
                rem[ne] = nv
            else:
                rem.pop(ne, None)
    return Poly(f.ring, quot, _trusted=True)


def ideal_quotient(I: Ideal, divisor: Union[Poly, Ideal]) -> Ideal:
    """Colon ideal I : g or I : J (the latter as the intersection over gens)."""
    if isinstance(divisor, Ideal):
        if not divisor.gens:
            raise InputError("colon by the zero ideal")
        result = None
        for g in divisor.gens:
            q = ideal_quotient(I, g)
            result = q if result is None else ideal_intersection(result, q)
            if result.is_zero:
                break
        return result
    g = divisor
    if g.is_zero:
        raise InputError("colon by the zero polynomial")
    if I.is_unit:
        return I
    if g.is_constant:
        return I
    if I.is_monomial and len(g.terms) == 1:
        m = next(iter(g.terms))
        return _monomial_ideal(I.ring, (
            _esub(next(iter(f.terms)), _egcd(next(iter(f.terms)), m))
            for f in I.gens
        ))
    if I.is_zero:
        return Ideal(I.ring)  # the ambient ring is a domain
    meet = ideal_intersection(I, Ideal(I.ring, [g]))
    return Ideal(I.ring, [poly_exact_div(h, g) for h in meet.groebner()])


def _bayer_step(gens: list[dict], v: int, field: FieldSpec) -> list[dict]:
    """Generators of (gens) : x_v^inf for homogeneous ``gens``, by Bayer's
    trick: the reduced degrevlex basis with x_v moved last, each element
    divided by its largest power of x_v. When x_v divides no generator, or
    no basis element, this is ``gens`` itself: exactly when (gens) is
    x_v-saturated, as x_v h' in a reduced basis would put h' in the ideal."""
    if not any(e[v] for g in gens for e in g):
        return gens
    moved = [{e[:v] + e[v + 1:] + (e[v],): c for e, c in g.items()} for g in gens]
    basis = buchberger(moved, field, DEGREVLEX)
    powers = [min(e[-1] for e in h) for h in basis]
    if not any(powers):
        return gens
    return [{e[:v] + (e[-1] - k,) + e[v:-1]: c for e, c in h.items()}
            for h, k in zip(basis, powers)]


def _rabinowitsch(I: Ideal, g: Poly) -> list[Poly]:
    """Generators of I + (1 - t*g) with one tag t. Their ideal meets k[x]
    in I : g^inf, and it is the unit ideal exactly when g lies in the
    radical of I."""
    ext = _tagged_ring(I.ring, 1)
    t = ext.var(ext.nvars - 1)
    return [_lift(f, ext) for f in I.gens] + [ext.one() - t * _lift(g, ext)]


def _saturate_by(I: Ideal, g: Poly, homogeneous: bool, memo: dict) -> Ideal:
    """I : g^inf for one nonzero g. ``memo`` maps a tuple of variables to
    the generators of I saturated by each of them in turn, so monomials
    with a common support prefix share their Bayer steps."""
    if g.is_constant:
        return I
    if not (homogeneous and len(g.terms) == 1):
        return eliminate(_rabinowitsch(I, g), I.ring)
    prefix: tuple[int, ...] = ()
    gens = memo.setdefault((), [f.terms for f in I.gens])
    for v, e in enumerate(next(iter(g.terms))):
        if e:
            prev, prefix = gens, prefix + (v,)
            gens = memo.get(prefix)
            if gens is None:
                gens = memo[prefix] = _bayer_step(prev, v, I.ring.field)
    if gens is memo[()]:
        return I
    return Ideal(I.ring, [Poly(I.ring, h, _trusted=True) for h in gens])


def saturation(I: Ideal, J: Union[Poly, Ideal]) -> Ideal:
    """I : J^infinity, the intersection of I : g^infinity over the
    generators g of J, each by Bayer's trick or by Rabinowitsch's
    elimination (the two routes of the module docstring).

    A generator g after the first is skipped, with no elimination, when
    g * meet lies in I for the intersection ``meet`` so far: then meet lies
    in I : g, inside I : g^infinity, so intersecting cannot change meet. The
    test is exact, one batch of normal forms against the basis of I that
    the loop's exit test computes anyway. A part equal to the intersection
    so far leaves it as it is, and the intersection stops once it equals I,
    because every I : g^infinity contains I. The result is then I itself:
    ``saturation(I, J) is I`` holds exactly when I : J^infinity = I.
    Results are cached on I by the generators of J, so no basis of J is
    computed.
    """
    if isinstance(J, Poly):
        J = Ideal(I.ring, [J])
    if J.is_zero:
        raise InputError("saturation by the zero ideal")
    cached = I._satcache.get(J.gens)
    if cached is not None:
        return cached
    homogeneous = all(len({sum(e) for e in f.terms}) == 1 for f in I.gens)
    memo: dict = {}
    meet = None
    for g in J.gens:
        if meet is not None and I.contains_ideal(Ideal(I.ring, [g * k for k in meet.gens])):
            continue  # meet <= I : g <= I : g^inf, so the intersection stays meet
        part = _saturate_by(I, g, homogeneous, memo)
        if meet is None or part is I:
            meet = part
        elif not part.same_ideal(meet):
            meet = ideal_intersection(meet, part)
        if meet.same_ideal(I):
            meet = I
            break
    I._satcache[J.gens] = meet
    return meet


def krull_dim(I: Ideal) -> int:
    """Krull dimension of ring/I; -1 for the unit ideal, nvars for the zero ideal.

    Computed on the leading-term ideal: the largest variable subset S such
    that no minimal generator of LT(I) has support inside S.
    """
    if I._dim is not None:
        return I._dim
    if I.is_unit:
        I._dim = -1
        return -1
    # supports and variable subsets as bitmasks, bit v for variable v
    supports = {sum(1 << v for v, e in enumerate(exp) if e) for exp in I.leading_exponents()}
    # keep only inclusion-minimal supports; the rest are implied
    minimal = [s for s in supports if not any(t != s and t & s == t for t in supports)]
    # shortest first, so each branch is on the fewest variables
    bits = {s: [1 << v for v in range(I.ring.nvars) if s >> v & 1] for s in minimal}
    blockers = sorted(bits.items(), key=lambda item: (len(item[1]), item[1]))
    memo: dict = {}

    def best(avail: int) -> int:
        hit = memo.get(avail)
        if hit is not None:
            return hit
        for s, vs in blockers:
            if s & avail == s:
                value = max(best(avail ^ v) for v in vs)
                break
        else:
            value = avail.bit_count()
        memo[avail] = value
        return value

    I._dim = best((1 << I.ring.nvars) - 1)
    return I._dim


def is_nzd(f: Poly, I: Ideal) -> bool:
    """True when f is a non-zerodivisor modulo I, i.e. I : f = I, decided
    with no colon: the series numerator of (I : f)/I must be empty (see
    ``hilbert.colon_numerator``, which also rejects inhomogeneous f or I)."""
    from .hilbert import colon_numerator  # hilbert imports this module

    return not f.is_zero and not colon_numerator(I, f)


def in_radical(f: Poly, I: Ideal) -> bool:
    """Radical membership via one inverted tag: 1 in I + (1 - t*f)."""
    if f.is_zero or I.contains(f):
        return True
    gens = _rabinowitsch(I, f)
    return Ideal(gens[0].ring, gens).is_unit

