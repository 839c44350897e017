"""Degree-bounded noncommutative Buchberger over quantum-symmetry relations.

For a graph on n vertices, the defining relations of its quantum
automorphism algebra are

    u[i,j]^2 - u[i,j]                    (entries are idempotent)
    sum_k u[i,k] - 1,  sum_k u[k,i] - 1  (rows and columns sum to one)
    (A u - u A)[i,j]                     (the magic matrix commutes with A)

with no involution: the algebra is the plain quotient of the free algebra.
Reductions to zero against a partial Groebner basis of this ideal are
therefore one-sided evidence: they prove equalities in the quantum group,
while failure to reduce proves nothing.  Every result carries its
completeness degree so callers cannot over-claim.

Obstructions (overlap and containment ambiguities of leading monomials)
are processed smallest-ambiguity-first; ambiguities above the degree cap
are discarded and recorded, which is what bounds the computation.

``buchberger`` codes its generators' labels one character each, in the
order of the sorted labels, so a word is a ``str`` and deglex on the
strings is deglex on the label tuples.  Each basis element is a primitive
integer row (gcd 1, positive leading coefficient), the integer form of the
monic element, and becomes an ``NcPoly`` once, on return.  The reduction
kernel only slices and concatenates words, so ``normal_form`` runs it on
plain tuple words against each basis element's cached integer form.
"""

from __future__ import annotations

import bisect
import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .freealg import NcPoly, Word, deglex_key
from .graphs import Graph


class GroebnerError(ValueError):
    pass


@dataclass(frozen=True)
class Obstruction:
    """An ambiguity word w with two ways to reduce it:

    w = left_i * lm_i * right_i = left_j * lm_j * right_j, where lm_i and
    lm_j are the leading monomials of basis elements i and j.  The
    S-polynomial is left_i*g_i*right_i - left_j*g_j*right_j.
    """

    word: Word
    i: int
    left_i: Word
    right_i: Word
    j: int
    left_j: Word
    right_j: Word

    def degree(self) -> int:
        return len(self.word)


def overlaps(m1: Word, m2: Word, i: int = 0, j: int = 1) -> list:
    """All ambiguities between two monomials: proper overlaps in both
    directions plus containments, excluding disjoint placements.

    The two words have one type, tuples of labels or strings; the empty
    word is ``m1[:0]``.  ``i`` and ``j`` are the basis indices recorded on
    the obstructions.
    """
    if not m1 or not m2:
        raise GroebnerError("ambiguities need non-empty monomials")
    e = m1[:0]
    out = []
    # suffix of m1 = prefix of m2: w = m1 + m2[k:]
    for k in range(1, min(len(m1), len(m2))):
        if m1[-k:] == m2[:k]:
            w = m1 + m2[k:]
            out.append(Obstruction(w, i, e, m2[k:], j, m1[:-k], e))
    # suffix of m2 = prefix of m1 (skip for identical monomials: symmetric)
    if m1 != m2 or i != j:
        for k in range(1, min(len(m1), len(m2))):
            if m2[-k:] == m1[:k]:
                w = m2 + m1[k:]
                out.append(Obstruction(w, i, m2[:-k], e, j, e, m1[k:]))
    # containments, one per position of the shorter monomial in the longer
    if len(m2) < len(m1):
        k = len(m2)
        out += [Obstruction(m1, i, e, e, j, m1[:p], m1[p + k:])
                for p in range(len(m1) - k + 1) if m1[p:p + k] == m2]
    elif len(m1) < len(m2):
        k = len(m1)
        out += [Obstruction(m2, i, m2[:p], m2[p + k:], j, e, e)
                for p in range(len(m2) - k + 1) if m2[p:p + k] == m1]
    return out


@dataclass
class PartialGB:
    """A degree-truncated Groebner basis with its certified completeness.

    ``complete_up_to_degree`` = D means every ambiguity of degree <= D
    between basis elements has a zero-reducing S-polynomial; reductions to
    zero are proofs of ideal membership regardless of D.  ``exhausted``
    means no ambiguity of any degree remains (a full Groebner basis);
    ``truncated`` means the deadline was hit.
    """

    basis: list
    complete_up_to_degree: int
    exhausted: bool
    truncated: bool = False
    steps: int = 0
    discarded_over_cap: int = 0


class _UnitIdeal(Exception):
    """A reduction reached a nonzero constant: the ideal is everything."""


def _past(deadline) -> bool:
    return deadline is not None and time.monotonic() > deadline


class ReducerIndex:
    """Active reducers indexed by the first letter of their leading
    monomial, so subword searches touch only plausible candidates.

    A reducer is a leading monomial and an integer row {word: int} with a
    nonzero coefficient on it, the row shared and not copied.  Words may be
    tuples of labels or strings: the index only slices and compares them.
    Each bucket lists its slots in ascending order, and ``find_reducer``
    takes the first match, so the slot order decides which reducer wins.
    A constant raises _UnitIdeal.
    """

    def __init__(self, reducers=()):
        self.lms: list = []
        self.rows: list = []
        self.alive: list = []
        self.buckets: dict = {}
        for lm, row in reducers:
            self.add(lm, row)

    def _store(self, idx: int, lm, row: dict):
        if not lm:
            raise _UnitIdeal
        self.lms[idx] = lm
        self.rows[idx] = row
        self.alive[idx] = True

    def add(self, lm, row: dict) -> int:
        idx = len(self.rows)
        for column in (self.lms, self.rows, self.alive):
            column.append(None)
        self._store(idx, lm, row)
        self.buckets.setdefault(lm[0], []).append(idx)
        return idx

    def replace(self, idx: int, lm, row: dict):
        """Put (lm, row) into slot idx and make it active; the slot keeps
        its place in the order of its (possibly new) bucket."""
        self.buckets[self.lms[idx][0]].remove(idx)
        self._store(idx, lm, row)
        bisect.insort(self.buckets.setdefault(lm[0], []), idx)

    def deactivate(self, idx: int):
        self.alive[idx] = False

    def active(self) -> list:
        """The active reducers as (lm, row) pairs, in slot order."""
        return [(lm, row) for lm, row, a in
                zip(self.lms, self.rows, self.alive) if a]

    def find_reducer(self, word, skip=()):
        """(index, offset) of the leftmost occurrence of any active leading
        monomial inside ``word``, the slots in ``skip`` aside, or None."""
        for pos, letter in enumerate(word):
            for idx in self.buckets.get(letter, ()):
                if not self.alive[idx] or idx in skip:
                    continue
                lm = self.lms[idx]
                if word[pos:pos + len(lm)] == lm:
                    return idx, pos
        return None


def _reduce_with_index(den: int, terms: dict, index: ReducerIndex) -> tuple:
    # fraction-free: the terms are ints over the common denominator den, and
    # terms/den is at every step the rational polynomial being reduced.  The
    # index fixes how each reducible word is rewritten (by its leftmost
    # find_reducer hit), so the result is a linear function of the input and
    # does not depend on the starting den: Fraction(c, den) of the returned
    # (den, terms) is the same canonical polynomial for any common
    # denominator the caller starts from.
    terms = dict(terms)
    # rewriting a word only creates deglex-smaller words, so one descending
    # pass over a worklist sorted by (len(w), w) visits every word that ever
    # needs attention.  A created word already in terms is smaller than the
    # word being rewritten, hence not yet popped; any other is looked up in
    # the list before it is inserted, so no word is queued twice
    work = sorted((len(w), w) for w in terms)
    while work:
        word = work.pop()[1]
        coeff = terms.get(word)
        if not coeff:
            continue
        hit = index.find_reducer(word)
        if hit is None:
            continue
        bi, pos = hit
        # cancel coeff*word against lc*lm: scale everything by lc/g, then
        # subtract (coeff/g) times the reducer, whose lc*lm removes word
        lm, row = index.lms[bi], index.rows[bi]
        lc = row[lm]
        g = gcd(coeff, lc)
        scale = lc // g
        if scale != 1:
            for w in terms:
                terms[w] *= scale
            den *= scale
        coeff //= g
        left, right = word[:pos], word[pos + len(lm):]
        for w, c in row.items():
            key = left + w + right
            val = terms.get(key)
            if val is None:
                item = (len(key), key)
                at = bisect.bisect_left(work, item)
                if at == len(work) or work[at] != item:
                    work.insert(at, item)
                terms[key] = -coeff * c
            else:
                val -= coeff * c
                if val:
                    terms[key] = val
                else:
                    del terms[key]
    return den, terms


def _primitive(terms: dict) -> tuple:
    """(lm, row) for nonzero integer terms: the row is the terms divided by
    their gcd, signed so that the leading coefficient is positive.  That is
    the integer form of the monic polynomial proportional to the terms,
    over the denominator row[lm]."""
    lm = max(terms, key=deglex_key)
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    if g == 1:
        return lm, terms
    return lm, {w: c // g for w, c in terms.items()}


def _s_polynomial(form_i: tuple, form_j: tuple, ob: Obstruction) -> tuple:
    """left_i*p_i*right_i - left_j*p_j*right_j in integer form (den, terms),
    from the integer forms (den, terms) of p_i and p_j, over the lcm of
    their denominators, for any leading coefficients."""
    den_i, ints_i = form_i
    den_j, ints_j = form_j
    den = lcm(den_i, den_j)
    a, b = den // den_i, den // den_j
    left, right = ob.left_i, ob.right_i
    terms = {left + w + right: a * c for w, c in ints_i.items()}
    left, right = ob.left_j, ob.right_j
    for w, c in ints_j.items():
        key = left + w + right
        val = terms.get(key, 0) - b * c
        if val:
            terms[key] = val
        else:
            del terms[key]
    return den, terms


def normal_form(p: NcPoly, basis) -> NcPoly:
    """Reduce until no term contains any basis leading monomial as a subword.

    Terms are rewritten largest first, each by the reducer whose leading
    monomial occurs leftmost in it, in integer arithmetic over one common
    denominator, so any nonzero leading coefficient is exact.  The reducers
    are the basis elements' cached integer forms, on tuple words.  Zero
    basis elements generate nothing and are ignored.  The result is a
    canonical representative once the basis is closed under the ambiguities
    below its degree.
    """
    try:
        index = ReducerIndex((b.lm(), b.int_form()[1])
                             for b in basis if not b.is_zero)
        den, terms = _reduce_with_index(*p.int_form(), index)
    except _UnitIdeal:  # the basis [1]
        return NcPoly.zero()
    if den == 1:
        return NcPoly(terms)
    return NcPoly({w: Fraction(c, den) for w, c in terms.items()})


def _interreduce(rows, deadline: float | None = None) -> list:
    """Repeatedly reduce each primitive row (lm, row) against the others;
    drop zeros.  The result is primitive rows in ascending order of their
    leading monomials.  Past ``deadline`` (checked before each element)
    return the set reached so far, which generates the same ideal."""
    current = list(rows)
    changed = True
    while changed:
        changed = False
        # ascending leading monomials: small reducers first
        current.sort(key=lambda r: deglex_key(r[0]))
        # while current[idx] is reduced, slot k < idx holds the reduced
        # current[k] (inactive if it reduced to zero) and slot k > idx the
        # original, so reducers are tried earlier elements first
        index = ReducerIndex(current)
        for idx, (lm, row) in enumerate(current):
            if _past(deadline):
                return index.active()
            index.deactivate(idx)
            terms = _reduce_with_index(row[lm], row, index)[1]
            if not terms:
                changed = True
                continue
            r = _primitive(terms)
            if r[1] != row:
                changed = True
            index.replace(idx, *r)
        current = index.active()
    return current


def buchberger(gens, max_degree: int,
               deadline: float | None = None) -> PartialGB:
    """Degree-capped completion of the two-sided ideal generated by gens.

    Pending ambiguities are processed by (degree, ambiguity word); those
    whose word exceeds ``max_degree`` are discarded and counted.  Redundant
    obstructions whose ambiguity word strictly contains a third leading
    monomial are skipped.  Past ``deadline`` (``time.monotonic()``, checked
    before each pending ambiguity and each inter-reduced element) no new
    reduction starts; the result is then truncated, complete only up to the
    highest fully processed degree.  The unit ideal gives the basis [1].
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return PartialGB([], max_degree, exhausted=True)
    gen_deg = max(g.degree() for g in gens)
    if max_degree < gen_deg:
        raise GroebnerError(
            f"degree cap {max_degree} below generator degree {gen_deg}")
    labels = sorted({x for g in gens for w in g.terms for x in w})
    code = {x: chr(rank) for rank, x in enumerate(labels)}

    def polys(rows):
        return [NcPoly({tuple(labels[ord(ch)] for ch in w): Fraction(c, row[lm])
                        for w, c in row.items()}) for lm, row in rows]

    heap = []
    discarded = 0
    counter = 0

    def form(k):
        # the integer form of the monic element in slot k
        row = index.rows[k]
        return row[index.lms[k]], row

    def push_obstructions(new_idx):
        nonlocal discarded, counter
        new_lm = index.lms[new_idx]
        for other in range(len(index.rows)):
            if not index.alive[other]:
                continue
            if other == new_idx:
                pair = overlaps(new_lm, new_lm, i=new_idx, j=new_idx)
            else:
                pair = overlaps(index.lms[other], new_lm,
                                i=other, j=new_idx)
            for ob in pair:
                if ob.degree() > max_degree:
                    discarded += 1
                    continue
                counter += 1
                heapq.heappush(heap, (ob.degree(), ob.word, counter, ob))

    def add_element(lm_h, row_h):
        # deactivate anything whose leading monomial the new one divides,
        # re-reducing the remainder so nothing leaves the ideal
        new_idx = index.add(lm_h, row_h)
        for k in range(new_idx):
            if index.alive[k] and lm_h in index.lms[k]:
                index.deactivate(k)
                leftover = _reduce_with_index(*form(k), index)[1]
                if leftover:
                    add_element(*_primitive(leftover))
        push_obstructions(new_idx)

    steps = 0
    truncated = False
    try:
        index = ReducerIndex(_interreduce(
            (_primitive({"".join(map(code.__getitem__, w)): c
                         for w, c in g.int_form()[1].items()})
             for g in gens), deadline))
        if _past(deadline):
            # equal leading monomials may remain, and overlaps() gives no
            # obstruction for those, so no degree is certified complete
            return PartialGB(polys(index.active()), 0, exhausted=False,
                             truncated=True)
        for idx in range(len(index.rows)):
            push_obstructions(idx)
        while heap:
            if _past(deadline):
                truncated = True
                break
            deg, _word, _cnt, ob = heapq.heappop(heap)
            if not (index.alive[ob.i] and index.alive[ob.j]):
                continue
            # containment criterion: the ambiguity factors through a third
            # active element whose leading monomial sits inside the word
            if index.find_reducer(ob.word, skip=(ob.i, ob.j)) is not None:
                continue
            steps += 1
            s_poly = _s_polynomial(form(ob.i), form(ob.j), ob)
            rem = _reduce_with_index(*s_poly, index)[1]
            if rem:
                add_element(*_primitive(rem))
    except _UnitIdeal:
        return PartialGB([NcPoly.one()], max_degree, exhausted=True,
                         steps=steps)

    if truncated:
        pending = min((item[0] for item in heap), default=max_degree + 1)
        complete = min(max_degree, pending - 1)
        exhausted = False
    else:
        complete = max_degree
        exhausted = discarded == 0
    final = _interreduce(index.active(), deadline)
    if _past(deadline):  # keep the completeness the loop established
        final, truncated = index.active(), True
    return PartialGB(basis=polys(final), complete_up_to_degree=complete,
                     exhausted=exhausted, truncated=truncated, steps=steps,
                     discarded_over_cap=discarded)


# -- quantum-symmetry relations ---------------------------------------------


def quantum_relations(g: Graph) -> list:
    """Generators of the relation ideal of the quantum automorphism algebra.

    Identically zero entries of Au - uA (an edgeless graph, say) are
    dropped.
    """
    n = g.n
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            u = (i, j)
            rels.append(NcPoly({(u, u): 1, (u,): -1}))
    for i in range(1, n + 1):
        row = {((i, k),): 1 for k in range(1, n + 1)}
        row[()] = -1
        rels.append(NcPoly(row))
        col = {((k, i),): 1 for k in range(1, n + 1)}
        col[()] = -1
        rels.append(NcPoly(col))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entry = {}
            for k in g.neighbours(i):
                w = ((k, j),)
                entry[w] = entry.get(w, 0) + 1
            for k in g.neighbours(j):
                w = ((i, k),)
                entry[w] = entry.get(w, 0) - 1
            poly = NcPoly(entry)
            if not poly.is_zero:
                rels.append(poly)
    return rels


def default_degree_cap(n: int) -> int:
    # relations have degree <= 2; modest caps keep desk-scale runs feasible
    return 4 if n <= 6 else 3


def commutator(a, b) -> NcPoly:
    pa = NcPoly.generator(*a)
    pb = NcPoly.generator(*b)
    return pa * pb - pb * pa


def commutator_reduces(gb: PartialGB, a, b) -> bool:
    """True iff u_a u_b - u_b u_a reduces to zero: a proof that the two
    generators commute in the quantum automorphism algebra.  False proves
    nothing (the basis is degree-truncated)."""
    return normal_form(commutator(a, b), gb.basis).is_zero


def commutation_report(g: Graph, gb: PartialGB,
                       deadline: float | None = None):
    """For each unordered column pair (j, l): True iff u[i,j] and u[k,l]
    provably commute for all rows i, k, False if some commutator stays
    irreducible.  Past ``deadline`` (checked before each pair) the pairs
    left untried map to None."""
    return {(j, l): None if _past(deadline) else all(
                commutator_reduces(gb, (i, j), (k, l))
                for i in g.vertices() for k in g.vertices())
            for j in g.vertices() for l in range(j, g.n + 1)}
