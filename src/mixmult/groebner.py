"""Buchberger-based Groebner kernel and ideal arithmetic.

Provides reduced Groebner bases, normal forms, ideal sum / product /
intersection / quotient / saturation, elimination behind fresh tag variables,
radical membership, zero-divisor tests (by Hilbert series, see ``is_nzd``),
and Krull dimension of quotients.

``buchberger`` picks a kernel by its input. Generators that are all monomials
are a Groebner basis already and need no pairs: they go straight to the final
pass as reducers with no tail. Generators that are each homogeneous (every
basis under a Hilbert series, ``gb`` or a Bayer step) go to signature-based
Buchberger in the Schreyer order (``_signature_basis``; Gao, Volny and Wang,
Math. Comp. 2016), which drops J-pairs by syzygy and rewrite criteria before
reducing them, the principal syzygy of every pair of its elements among the
syzygies, so a regular sequence costs few zero reductions. Anything else
(every Rabinowitsch part, intersection and Rees presentation) goes to a
Buchberger loop with the coprime and chain criteria and sugar selection
(Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC
1991): an input generator's sugar is its largest term degree, the S-pair of
f_i and f_j has the larger of sugar_i + deg lcm - deg LT(f_i) and the same
for j, and its remainder keeps that sugar. The degree is weighted when the
caller passes weights, as the Rees presentation does (x and t weigh 1, T_j
weighs deg g_j + 1); they grade the work ring only, not the order. S-pairs
wait in a heap keyed by their sugar, then their lcm, and equal keys leave in
the order they were made. On input homogeneous for that degree the sugar is
the degree of the lcm, so the order is the normal strategy's in its grading.
For such input a caller may also pass ``hilbert(lts, D)``, the leading terms
degree D still lacks: its monomials outside those of ``lts`` less the Hilbert
function (Traverso, "Hilbert functions and the Buchberger algorithm", J.
Symbolic Comput. 22, 1996). It is counted when the first pair of degree D
that survives the criteria leaves, with the basis complete below D; each
nonzero remainder supplies one, and once none is missing the degree's other
pairs reduce to zero and are dropped unreduced. A negative count raises
``MathInvariantError``. A count costs about a reduction for each leading term
it has not yet taken in, and a drop saves one per pair, so a degree is
counted only where more of its pairs wait than that, the one just popped
included: the loop keeps a count of the queued pairs of each sugar. The
smallest inputs never count.

The signature kernel's guard-bit argument needs homogeneity: there no field
of a signature exceeds the degree of its polynomial. Every kernel ends in
one final pass of two halves: it minimalises the whole basis
(``_MinimalBasis``, which every kernel returns), then tail-reduces and
unpacks the elements it keeps, leaving an empty tail as it is
(``_MinimalBasis.reduced``). The reduced basis is unique, so ``buchberger``
returns the same dicts from each kernel, whatever the weights and the drop.
``eliminate`` asks only for the elements whose leading monomial is free of
the block variables (``block_free``), so the pass reduces no tail that it
would discard. An ``Ideal`` handle keeps the minimal basis and runs the
second half once, for the first reader of tails: leading terms are all that
its Hilbert series, dimension and unit test read. A sum I + extra whose
summand holds its minimal basis runs the signature kernel from that basis,
a known prefix whose own pairs its Schreyer syzygies drop (``ideal_sum``).
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
from collections import Counter
from itertools import combinations_with_replacement, count
from math import inf
from operator import add, le, mul, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import InputError, MathInvariantError
from .fields import FieldSpec
from .rings import Exponent, Poly, Ring, _degrevlex_sortkey

# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder:
    """Degrevlex on all variables, or a block order eliminating ``block``.

    Block orders compare the block exponents degrevlex first, so any monomial
    involving a block variable exceeds every monomial without one.
    """

    def __init__(self, block: tuple[int, ...] = ()):
        self.block = block

    def __eq__(self, other):
        return self.block == other.block if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.block,))

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
    block, then within the rest). ``block`` masks the block's exponent
    fields."""

    __slots__ = ("weights", "shifts", "mask", "half", "guard", "block")

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
        self.block = sum(self.mask << (v * width) for v in order.block)

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


def _minimal(monomials: Iterable[int], guard: int) -> list[int]:
    """The minimal ones among the packed ``monomials``, ascending: taken in
    ascending order, a monomial is kept when no kept one divides it, so of
    equal ones only the first."""
    kept: list[int] = []
    for m in sorted(monomials):
        if not _divisible(m, kept, guard):
            kept.append(m)
    return kept


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


class _MinimalBasis:
    """What a kernel returns: the minimal basis in its Groebner basis
    ``basis`` of monic reducers, before the final tail pass. That is its
    elements in ascending order of their packed leading monomials, with the
    tails the kernel left them, and the packing. Elements whose leading
    monomial sets a bit of the packed mask ``omit`` are left out.

    Of equal leading terms the first element's tail is kept (reversed, the
    first is written last), then the leading terms that are minimal, then
    those free of ``omit``. For the block fields of a block order that is
    exact: a kept leading term ranks above every monomial with a block
    variable, so its tail has none, and no omitted leading term divides a
    monomial without one."""

    __slots__ = ("basis", "field", "pk")

    def __init__(self, basis: list[tuple[int, tuple]], field: FieldSpec, pk: _Packing,
                 omit: int = 0):
        tails = dict(reversed(basis))
        self.basis = [(lt, tails[lt]) for lt in _minimal(tails, pk.guard) if not lt & omit]
        self.field, self.pk = field, pk

    def leading_exponents(self) -> tuple[Exponent, ...]:
        return tuple(self.pk.unpack(lt) for lt, _ in self.basis)

    def reduced(self) -> list[dict]:
        """The reduced basis, as ``buchberger`` returns it: unique, so the
        same from every kernel. Each tail is reduced against the whole
        minimal basis, one memo for the pass: no leading term divides a
        smaller monomial, so an element never reduces its own tail, and the
        leading terms stay minimal and monic. A block order's pass can trip
        a guard bit, so ``buchberger`` runs it inside ``_packed``; under
        degrevlex none can, so an ``Ideal`` runs it later: no term met has a
        larger degree than its element's leading term, whose fields all
        fit."""
        H, field, guard = list(self.basis), self.field, self.pk.guard
        memo: dict = {}
        for i, (lt, t) in enumerate(H):
            if t:
                H[i] = (lt, tuple(_reduce_full(t, H, field, guard, memo).items()))
        return self._unpacked(H)

    def polys(self) -> list[dict]:
        """The minimal basis as term dicts, with the tails the kernel left."""
        return self._unpacked(self.basis)

    def _unpacked(self, basis: list[tuple[int, tuple]]) -> list[dict]:
        one = self.field.one
        return [self.pk.unpack_terms(dict(((lt, one),) + t)) for lt, t in basis]


def buchberger(gens: Iterable[dict], field: FieldSpec, order: MonomialOrder,
               weights: Sequence[int] | None = None,
               hilbert: Callable[[list, int], int] | None = None, *,
               block_free: bool = False) -> list[dict]:
    """Reduced Groebner basis of the ideal generated by ``gens`` (term dicts).

    Returns monic generators sorted by ascending leading monomial, each dict
    listing its leading monomial first (``Ideal`` relies on this); [] for the
    zero ideal and [{0: 1}] for the unit ideal. With ``block_free`` only the
    elements whose leading monomial is free of the block variables of
    ``order``: the reduced basis of the ideal meet the ring of the others,
    as ``eliminate`` reads it.

    ``weights`` (one positive int per variable) and ``hilbert`` only steer
    the pair loop (``_buchberger``): its sugar reads the weighted degree,
    and ``hilbert(lts, D)``, the number of monomials of weighted degree D
    outside the monomial ideal of the exponents ``lts`` less the Hilbert
    function of the ideal of ``gens`` in degree D, lets it drop the pairs
    of a degree once its leading terms are complete. Neither changes the
    basis returned.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    return _packed(lambda pk: _kernel(gens, field, pk, weights, hilbert,
                                      pk.block if block_free else 0).reduced(),
                   order, len(next(iter(gens[0]))), gens)


def _homogeneous(gens: Iterable[dict]) -> bool:
    return all(len(set(map(sum, g))) == 1 for g in gens)


def _kernel(gens: list[dict], field: FieldSpec, pk: _Packing,
            weights: Sequence[int] | None = None,
            hilbert: Callable[[list, int], int] | None = None,
            omit: int = 0, prefix: int = 0) -> _MinimalBasis:
    """The minimal basis, before its tail pass, that the kernel suited to
    the nonzero ``gens`` finds under the packing ``pk`` (see
    ``buchberger``). The first ``prefix`` of ``gens`` are known to be a
    Groebner basis; only the signature kernel reads that (see
    ``_signature_basis``)."""
    if all(len(g) == 1 for g in gens):
        # monomials are a Groebner basis already: reducers with no tail
        return _MinimalBasis([(pk.pack(e), ()) for g in gens for e in g], field, pk, omit)
    if _homogeneous(gens):
        return _signature_basis(gens, field, pk, omit=omit, prefix=prefix)
    return _buchberger(gens, field, pk, weights, hilbert, omit)


def _buchberger(gens: list[dict], field: FieldSpec, pk: _Packing,
                weights: Sequence[int] | None = None,
                hilbert: Callable[[list, int], int] | None = None,
                omit: int = 0) -> _MinimalBasis:
    guard = pk.guard
    if weights is None:
        degree: Callable[[Exponent], int] = sum
    else:
        def degree(e: Exponent) -> int:
            return sum(map(mul, e, weights))
    # a pair's lcm in one sum: packed in the low ``top`` bits, its degree
    # above them. Every field of the packed lcm is below the sum of two
    # fields under the guard bit, so it carries into no other field: the
    # guard test is exact and the degree part is the lcm's degree
    top = guard.bit_length()
    lcm_weights = [p + (w << top) for p, w in zip(pk.weights, weights or [1] * len(pk.weights))]
    low = (1 << top) - 1
    if hilbert is not None and any(len(set(map(degree, g))) > 1 for g in gens):
        hilbert = None  # the Hilbert function only counts homogeneous input
    basis: list[tuple[int, tuple]] = []  # reducers: (packed leading monomial, tail)
    lts: list[Exponent] = []
    # each element's sugar less the degree of its leading monomial
    excess: list[int] = []
    memo: dict = {}  # divisor memo of _reduce_full over the growing basis
    pending: set[tuple[int, int]] = set()  # the queued pairs (i, j), i < j
    # (sugar, packed lcm, creation tick, i, j): pops the smallest sugar
    # first, then the smallest lcm, equal ones in creation order
    queue: list = []
    queued: Counter = Counter()  # the queued pairs by sugar
    tick = count()

    def push(h: dict, sugar: int) -> bool:
        """Add a fully reduced nonzero polynomial; True when it is a unit."""
        lt = max(h)
        if not lt:
            return True
        k = len(basis)
        basis.append(_reducer(_monic(h, field)))
        ltk = pk.unpack(lt)
        ek = sugar - degree(ltk)
        for i, (lti, ei) in enumerate(zip(lts, excess)):
            both = sum(map(mul, map(max, lti, ltk), lcm_weights))
            m = both & low
            if m & guard:
                raise _Overflow
            pair_sugar = (both >> top) + max(ei, ek)
            heapq.heappush(queue, (pair_sugar, m, next(tick), i, k))
            pending.add((i, k))
            queued[pair_sugar] += 1
        lts.append(ltk)
        excess.append(ek)
        return False

    for g in gens:
        r = _reduce_full(pk.pack_terms(g), basis, field, guard, memo)
        if r and push(r, max(map(degree, g))):
            return _MinimalBasis([(0, ())], field, pk, omit)

    # the degree being treated, its leading terms still to come (inf: not
    # counted), and how many leading terms the last count took in
    level, missing, counted = -1, inf, 0
    while queue:
        sugar, lcm, _, i, j = heapq.heappop(queue)
        pending.remove((i, j))
        queued[sugar] -= 1
        # coprime criterion: disjoint leading supports reduce to zero
        if lcm == basis[i][0] + basis[j][0]:
            continue
        # chain criterion: a third element divides the lcm and both companion
        # pairs were already treated
        for k, (m, _) in enumerate(basis):
            if k != i and k != j and not (lcm - m) & guard \
                    and (min(i, k), max(i, k)) not in pending \
                    and (min(j, k), max(j, k)) not in pending:
                break
        else:
            if hilbert is not None and sugar != level:
                level, missing = sugar, inf
                # a count costs about a reduction per leading term it takes
                # in, and the drop saves one per pair: count where more
                # pairs of the degree wait than that
                if queued[sugar] >= len(lts) - counted:
                    missing, counted = hilbert(lts, sugar), len(lts)
                    if missing < 0:
                        raise MathInvariantError(
                            f"{-missing} more leading terms in degree {sugar} "
                            "than the Hilbert function allows")
            if not missing:
                continue  # degree complete: the pair reduces to zero
            s = _spoly((lts[i], basis[i][1], lcm - basis[i][0]),
                       (lts[j], basis[j][1], lcm - basis[j][0]))
            r = _reduce_full(s, basis, field, guard, memo)
            if r:
                if push(r, sugar):
                    return _MinimalBasis([(0, ())], field, pk, omit)
                missing -= 1

    return _MinimalBasis(basis, field, pk, omit)


def _signature_basis(gens: list[dict], field: FieldSpec, pk: _Packing,
                     omit: int = 0, prefix: int = 0) -> _MinimalBasis:
    """The minimal basis of homogeneous ``gens`` found by signatures (Gao,
    Volny and Wang, Math. Comp. 2016; Eder and Roune, ISSAC 2013).

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
    those of pairs of two monomials, which are syzygies themselves, and the
    principal syzygy of each pair of elements, recorded when the later one
    is added: where the leading terms are coprime it is the J-pair's own),
    or when an element added after its origin has a signature dividing it
    (the rewrite criterion in add order, which also keeps one J-pair per
    signature). Both are checked when a J-pair is made and again when it is
    popped. A syzygy signature is recorded only when no recorded one of its
    index divides it.

    The first ``prefix`` generators must be a Groebner basis, as when an
    ideal already holds the basis of a summand (``ideal_sum``). Then, for
    j < i < prefix, the S-polynomial of gens[j] and gens[i] has a standard
    representation, and the syzygy it gives has the leading term
    (lcm(LT gens[j], LT gens[i]) / LT gens[i], i) in this order (Schreyer;
    Eisenbud, Commutative Algebra, Thm 15.10): of its two terms at the lcm
    the larger index ranks first, and every other term lies below the lcm.
    Those signatures take the place of the Koszul ones of index below
    ``prefix``. They drop every J-pair of two elements of the prefix, so the
    prefix costs one regular reduction of each of its elements, and only
    J-pairs that reach the other generators are reduced. A seeded
    signature with a guard bit set raises ``_Overflow``, as a pair lcm
    does."""
    guard, weights = pk.guard, pk.weights
    nbits = len(gens).bit_length()
    low = (1 << nbits) - 1
    sigmask = guard << nbits | low
    fs = [pk.pack_terms(g) for g in gens]
    heads = [max(f) for f in fs]
    # syzygy signatures by index i, each as its packed m*LT(gens[i]): the
    # Schreyer ones below ``prefix``, the Koszul ones (LT gens[j], i) above
    lead = [list(map(mul, pk.unpack(h), weights)) for h in heads[:prefix]]
    syz = []
    for i, h in enumerate(heads):
        if i < prefix:
            zs = [sum(map(max, lead[j], lead[i])) for j in range(i)]
            if any(z & guard for z in zs):
                raise _Overflow
            syz.append(_minimal(zs, guard))
        else:
            syz.append([heads[j] + h for j in range(i)])
    basis: list[tuple[int, tuple]] = []  # reducers: (packed leading monomial, tail)
    sigs: list[int] = []  # signature keys
    ratios: list[int] = []  # signature key minus the leading monomial's
    # leading exponents times their packing weights: a pair's packed lcm is
    # the sum of the larger of each two
    wexps: list[list[int]] = []
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
            return _MinimalBasis([(0, ())], field, pk, omit)
        k = len(basis)
        basis.append(_reducer(h))
        sigs.append(key)
        ratios.append(key - (lt << nbits))
        e = pk.unpack(lt)
        wexps.append(list(map(mul, e, weights)))
        supports.append(sum(1 << v for v, x in enumerate(e) if x))
        for j in range(k):
            ltj = basis[j][0]
            lcm = lt + ltj if not supports[k] & supports[j] \
                else sum(map(max, wexps[k], wexps[j]))
            if lcm & guard:
                raise _Overflow
            mine = key + (lcm - lt << nbits)
            theirs = sigs[j] + (lcm - ltj << nbits)
            if mine == theirs:
                continue  # then so are the principal syzygy's two, below
            top, origin = (mine, k) if mine > theirs else (theirs, j)
            zs, z = syz[top & low], top >> nbits
            # a J-pair divided by a syzygy signature is dropped now rather than
            # when popped, and the principal syzygy's, a multiple, is not new
            if _divisible(z, zs, guard):
                continue
            # the principal syzygy LT(g_j) e_k - LT(g_k) e_j has, up to lower
            # terms, the larger of its two signatures: the J-pair's times the
            # gcd of the leading terms, the J-pair's own where they are
            # coprime. A value with a guard bit set is not recorded: it
            # divides no signature that fits the packing, and its difference
            # from one would borrow across fields
            zp = z + lt + ltj - lcm
            if not zp & guard and not _divisible(zp, zs, guard):
                zs.append(zp)
            if zp == z or origin == j and not (top - key) & sigmask:
                continue  # dropped now rather than when popped
            if not (basis[k][1] or basis[j][1]):  # two monomials: a syzygy
                zs.append(z)
            else:
                heapq.heappush(queue, (top, -origin, lcm - basis[origin][0]))
    return _MinimalBasis(basis, field, pk, omit)


# ---------------------------------------------------------------------------
# ideal handles
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal given by generators, with a cached reduced Groebner basis.

    The basis is the degrevlex one ``buchberger`` returns, read as it lists
    it. It is found in two steps, each run once and only when asked for.
    The kernel's minimal basis comes first and is kept: its leading terms
    are all that ``leading_exponents``, ``is_unit`` and the readers built on
    them (``krull_dim``, ``hilbert.series_of``) need. The final tail pass
    runs on the first call that reads tails: ``groebner``, normal forms and
    ``same_ideal``. Handles are immutable, so a cached basis can never go
    stale. A handle also caches its sums (``ideal_sum``: a sum asked for
    twice is one handle), its saturations (itself where saturated), its
    Krull dimension and its Hilbert series (``hilbert.series_of``).

    A sum I + extra keeps I until its own kernel runs. If I holds its
    minimal basis then, the kernel starts from that basis as a known
    prefix, followed by ``extra`` (see ``ideal_sum``).
    """

    __slots__ = ("ring", "gens", "_gb", "_lead", "_pending", "_dim", "_series", "_satcache",
                 "_sums", "_summand")

    def __init__(self, ring: Ring, gens: Iterable[Poly] = ()):
        self.ring = ring
        cleaned = []
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise InputError("generator from a different ring")
            if not g.is_zero:
                cleaned.append(g)
        self.gens = tuple(cleaned)
        self._gb = None if cleaned else ()
        self._lead = None
        self._pending = None  # the kernel's minimal basis, until its tail pass
        self._dim = None
        self._series = None
        self._satcache: dict = {}
        self._sums: dict = {}
        self._summand = None  # for a sum I + extra, I, until the kernel has run

    # -- basis and membership ---------------------------------------------------

    def _kernel_input(self) -> tuple[list[dict], int]:
        """The kernel's generators and how many of them lead as a Groebner
        basis: for a sum I + extra whose summand I holds its basis, that
        basis followed by ``extra``, when all are homogeneous; else the
        generators, none of them known to be a basis."""
        gens = [g.terms for g in self.gens]
        I = self._summand
        if I is not None:
            known = I._gb if I._gb is not None else I._pending
            if known is not None:
                basis = [g.terms for g in known] if I._gb is not None else known.polys()
                ext = basis + gens[len(I.gens):]
                if _homogeneous(ext):
                    return ext, len(basis)
        return gens, 0

    def _minimal_basis(self) -> _MinimalBasis:
        if self._pending is None:
            gens, prefix = self._kernel_input()
            self._pending = _packed(
                lambda pk: _kernel(gens, self.ring.field, pk, prefix=prefix), DEGREVLEX,
                self.ring.nvars, gens)
            self._summand = None
        return self._pending

    def groebner(self) -> tuple[Poly, ...]:
        if self._gb is None:
            basis = self._minimal_basis().reduced()
            self._gb = tuple(Poly(self.ring, h, _trusted=True) for h in basis)
            self._pending = None
        return self._gb

    def leading_exponents(self) -> tuple[Exponent, ...]:
        """The leading exponents of the reduced basis, ascending."""
        if self._lead is None:
            self._lead = (self._minimal_basis().leading_exponents() if self._gb is None
                          else tuple(next(iter(g.terms)) for g in self._gb))
        return self._lead

    def _normal_forms(self, polys: Sequence[Poly]) -> list[dict]:
        """Normal forms of ``polys`` in turn, as term dicts, up to and
        including the first nonzero one. The batch is reduced under one
        packing of the basis with one divisor memo, which stays valid because
        the basis never changes; a guard bit tripped by any member redoes the
        whole batch with wider fields."""
        for f in polys:
            if f.ring is not self.ring and f.ring != self.ring:
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
        lead = self.leading_exponents()
        return len(lead) == 1 and not any(lead[0])

    def same_ideal(self, other: "Ideal") -> bool:
        if self.ring is not other.ring and self.ring != other.ring:
            raise InputError("ideals live in different rings")
        # reduced bases are unique, and both are sorted by leading monomial
        return other is self or self.groebner() == other.groebner()

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


def eliminate(gens: Sequence[Poly], base: Ring, weights: Sequence[int] | None = None,
              hilbert: Callable[[list, int], int] | None = None) -> Ideal:
    """The ideal of ``gens`` meet k[base], for ``gens`` in a ring that
    extends ``base`` by trailing variables.

    One Groebner basis in the block order that eliminates the trailing
    variables, which ranks any monomial with one above all without: the
    elements whose leading monomial is free of them are, in order, the
    reduced degrevlex basis of the result, preset rather than computed again.
    ``buchberger`` returns only those (``block_free``), so the final pass
    reduces no tail it would discard. ``weights`` and ``hilbert`` go to
    ``buchberger``.
    """
    if not gens:
        return Ideal(base)
    n, ext = base.nvars, gens[0].ring
    block = tuple(range(n, ext.nvars))
    basis = buchberger([g.terms for g in gens], ext.field, MonomialOrder.elimination(block),
                       weights, hilbert, block_free=True)
    return _preset(base, [{e[:n]: c for e, c in h.items()} for h in basis])


# ---------------------------------------------------------------------------
# ideal operations
# ---------------------------------------------------------------------------


def ideal_sum(I: Ideal, extra: Union[Ideal, Iterable[Poly]]) -> Ideal:
    """I + extra, one handle per (I, generator tuple of ``extra``): the same
    sum asked for again is the handle built first, with what it has cached;
    a sum that adds nothing is the other summand, I or the Ideal ``extra``.

    The sum's basis starts from I's. If I holds its minimal basis when the
    sum's kernel runs (after a reader of I's leading terms or basis), and
    that basis and ``extra`` are homogeneous, the signature kernel takes
    the basis as a known prefix followed by ``extra`` (see
    ``_signature_basis``): the J-pairs within the prefix are dropped by
    their Schreyer syzygies, and only those reaching ``extra`` are reduced.
    Otherwise the kernel runs on the generators, as for any handle. The sum
    drops its reference to I once its kernel has run."""
    if isinstance(extra, Ideal) and I.is_zero and extra.ring == I.ring:
        return extra
    gens = extra.gens if isinstance(extra, Ideal) else tuple(extra)
    if not gens:
        return I
    total = I._sums.get(gens)
    if total is None:
        total = I._sums[gens] = Ideal(I.ring, I.gens + gens)
        total._summand = I
    return total


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring is not J.ring and I.ring != J.ring:
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
    if I.ring is not J.ring and I.ring != J.ring:
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


def _saturate_by(I: Ideal, g: Poly, homogeneous: bool) -> Ideal:
    """I : g^inf for one nonzero g: for a monomial g and a homogeneous I,
    one Bayer step per variable of g, each on the last one's generators;
    otherwise one Rabinowitsch elimination."""
    if g.is_constant:
        return I
    if not (homogeneous and len(g.terms) == 1):
        return eliminate(_rabinowitsch(I, g), I.ring)
    gens = start = [f.terms for f in I.gens]
    for v, e in enumerate(next(iter(g.terms))):
        if e:
            gens = _bayer_step(gens, v, I.ring.field)
    if gens is start:
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
    homogeneous = _homogeneous(f.terms for f in I.gens)
    meet = None
    for g in J.gens:
        if meet is not None and I.contains_ideal(Ideal(I.ring, [g * k for k in meet.gens])):
            continue  # meet <= I : g <= I : g^inf, so the intersection stays meet
        part = _saturate_by(I, g, homogeneous)
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
    that no minimal generator of LT(I) has support inside S, by branch and
    bound. ``best(avail, floor)`` is the largest such S inside ``avail`` when
    that exceeds ``floor``, and otherwise an upper bound on it of at most
    ``floor``. The bound is |avail| minus a greedy packing of disjoint
    supports inside ``avail``, since S misses a variable of each. Exact
    values and proven bounds are memoised apart.
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
    exact: dict = {}
    bound: dict = {}

    def best(avail: int, floor: int) -> int:
        hit = exact.get(avail)
        if hit is not None:
            return hit
        known = bound.get(avail, avail.bit_count())
        if known <= floor:
            return known
        cap, used, branch = avail.bit_count(), 0, None
        for s, vs in blockers:
            if s & avail == s and not s & used:
                cap, used, branch = cap - 1, used | s, branch or vs
        if branch is None:
            exact[avail] = cap
            return cap
        cap = min(cap, known)
        top, high = floor, cap
        if cap > floor:
            high = -1
            for v in branch:
                got = best(avail ^ v, top)
                if got > top:
                    top = got
                    if top == cap:
                        break
                high = max(high, got)
        if top > floor:
            exact[avail] = top
            return top
        bound[avail] = high
        return high

    I._dim = best((1 << I.ring.nvars) - 1, -1)
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

