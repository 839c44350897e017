"""Buchberger procedure: ambiguities, truncation semantics, cross-oracles."""

import bisect
import functools
import hashlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import qsym.groebner as groebner_module
from qsym.freealg import NcPoly, deglex_key
from qsym.groebner import (
    GroebnerError,
    Obstruction,
    ReducerIndex,
    _interreduce,
    _s_polynomial,
    buchberger,
    commutation_report,
    commutator,
    commutator_reduces,
    default_degree_cap,
    normal_form,
    overlaps,
    quantum_relations,
)
from qsym.named import (
    build_named,
    circulant,
    complete_graph,
    cycle_graph,
    edgeless_graph,
)

from util import conjugate


def u(i, j):
    return NcPoly.generator(i, j)


X = (1, 1)
Y = (2, 2)


def test_overlaps_textbook_cases():
    obs = overlaps((X, Y), (Y, X))
    assert sorted(o.word for o in obs) == [(X, Y, X), (Y, X, Y)]
    self_obs = overlaps((X, X), (X, X), i=0, j=0)
    assert [o.word for o in self_obs] == [(X, X, X)]
    assert overlaps((X,), (Y,)) == []
    containment = overlaps((X, Y, X), (Y,))
    assert len(containment) == 1 and containment[0].word == (X, Y, X)


def test_obstruction_words_recompose():
    for m1, m2 in [((X, Y), (Y, X)), ((X, X, Y), (Y, X)), ((X, Y, X), (Y,))]:
        for ob in overlaps(m1, m2):
            lhs = ob.left_i + m1 + ob.right_i
            rhs = ob.left_j + m2 + ob.right_j
            assert lhs == rhs == ob.word


def _ambiguities_by_definition(m1, m2, i, j):
    """Every placement of m2 at offset d from m1's start where the two
    meet and agree letter by letter, as overlaps() lists them: proper
    overlaps with m1 first, then with m2 first (for m1 != m2 or i != j),
    each by growing overlap, then containments by position."""
    l1, l2 = len(m1), len(m2)
    m1_first, m2_first, inside = [], [], []
    for d in range(1 - l2, l1):
        lo, hi = max(0, d), min(l1, d + l2)
        if m1[lo:hi] != m2[lo - d:hi - d]:
            continue
        start = min(0, d)
        word = tuple(m1[x] if 0 <= x < l1 else m2[x - d]
                     for x in range(start, max(l1, d + l2)))
        ob = Obstruction(word, i, word[:-start], word[l1 - start:],
                         j, word[:d - start], word[d + l2 - start:])
        m2_in_m1, m1_in_m2 = d >= 0 and d + l2 <= l1, d <= 0 and l1 - d <= l2
        if m2_in_m1 and m1_in_m2:
            continue  # the two monomials on top of each other
        if m2_in_m1 or m1_in_m2:
            inside.append((abs(d), ob))
        elif d > 0:
            m1_first.append((hi - lo, ob))
        elif m1 != m2 or i != j:
            m2_first.append((hi - lo, ob))
    return [ob for part in (m1_first, m2_first, inside)
            for _, ob in sorted(part, key=lambda t: t[0])]


def test_overlaps_match_their_definition():
    rng = random.Random(10)
    letters = (X, Y, (2, 1))
    pairs = [((X, Y), (Y, X)), ((X, X, Y), (Y, X)), ((X, Y, X), (Y,))]
    for _ in range(3000):
        m1 = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        m2 = m1 if rng.random() < 0.1 else \
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        pairs.append((m1, m2))
    found = 0
    for m1, m2 in pairs:
        for i, j in ((0, 1), (2, 2)):
            want = _ambiguities_by_definition(m1, m2, i, j)
            assert overlaps(m1, m2, i, j) == want, (m1, m2, i, j)
            found += len(want)
    assert found > 3000


def test_buchberger_idempotent_generator():
    gb = buchberger([u(1, 1) * u(1, 1) - u(1, 1)], max_degree=5)
    assert [str(b) for b in gb.basis] == ["u[1,1]*u[1,1] - u[1,1]"]
    assert gb.exhausted and not gb.truncated


def test_degree_cap_below_generators_is_an_error():
    with pytest.raises(GroebnerError):
        buchberger([u(1, 1) * u(1, 1) - u(1, 1)], max_degree=1)


def test_quantum_relation_counts():
    assert len(quantum_relations(edgeless_graph(3))) == 9 + 6
    assert len(quantum_relations(cycle_graph(4))) == 16 + 8 + 16
    for rel in quantum_relations(cycle_graph(4)):
        assert all(isinstance(c, Fraction) for c in rel.terms.values())


def test_normal_form_examples():
    idem = (u(1, 1) * u(1, 1) - u(1, 1)).monic()
    assert normal_form(u(1, 1) * u(1, 1), [idem]) == u(1, 1)
    assert normal_form(NcPoly.one(), [idem]) == NcPoly.one()
    gb = buchberger(quantum_relations(edgeless_graph(3)), max_degree=4)
    assert gb.exhausted
    assert normal_form(u(1, 1) * u(1, 2), gb.basis).is_zero


def test_normal_form_on_a_non_monic_basis():
    # x = 1/2 modulo 2x - 1, and x*x = x/3 = 1/9 modulo 3x - 1
    x, one = u(1, 1), NcPoly.one()
    assert normal_form(x, [x.scale(2) - one]) == NcPoly.constant(
        Fraction(1, 2))
    assert normal_form(x * x, [x.scale(3) - one]) == NcPoly.constant(
        Fraction(1, 9))
    assert normal_form(x * x, [x.scale(-3) + one]) == NcPoly.constant(
        Fraction(1, 9))


def test_normal_form_ignores_zero_basis_elements():
    x, one = u(1, 1), NcPoly.one()
    assert normal_form(x * x, [NcPoly.zero(), x - one]) == one


def test_normal_form_is_idempotent():
    gb = buchberger(quantum_relations(cycle_graph(4)), max_degree=4)
    rng = random.Random(5)
    letters = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for _ in range(40):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))):
                 Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 for _ in range(4)}
        p = NcPoly(terms)
        once = normal_form(p, gb.basis)
        assert normal_form(once, gb.basis) == once


def test_partial_gb_invariants():
    for graph, cap in [(complete_graph(3), 4), (cycle_graph(4), 5)]:
        gb = buchberger(quantum_relations(graph), max_degree=cap)
        lms = [p.lm() for p in gb.basis]
        # inter-reduced: no leading monomial contains another as a subword
        for a, b in itertools.permutations(range(len(lms)), 2):
            assert all(lms[a][off:off + len(lms[b])] != lms[b]
                       for off in range(len(lms[a]) - len(lms[b]) + 1))
        for b in gb.basis:
            assert b.lc() == 1


def test_confluence_up_to_reported_degree():
    """Post-hoc re-check without the redundant-obstruction filter: every
    ambiguity at or below the completeness degree must resolve."""
    for graph, cap in [(complete_graph(3), 4), (cycle_graph(4), 6),
                       (edgeless_graph(3), 4)]:
        gb = buchberger(quantum_relations(graph), max_degree=cap)
        basis = gb.basis
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                for ob in overlaps(basis[i].lm(), basis[j].lm(), i=i, j=j):
                    if ob.degree() > gb.complete_up_to_degree:
                        continue
                    s = conjugate(basis[ob.i], ob.left_i, ob.right_i) \
                        - conjugate(basis[ob.j], ob.left_j, ob.right_j)
                    assert normal_form(s, basis).is_zero, (graph.label, ob)


def test_ideal_membership_of_generator_multiples():
    g = cycle_graph(4)
    rels = quantum_relations(g)
    gb = buchberger(rels, max_degree=5)
    rng = random.Random(11)
    letters = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for _ in range(30):
        rel = rng.choice(rels)
        left = tuple(rng.choice(letters)
                     for _ in range(rng.randint(0, 5 - rel.degree())))
        room = 5 - rel.degree() - len(left)
        right = tuple(rng.choice(letters) for _ in range(rng.randint(0, room)))
        assert normal_form(conjugate(rel, left, right), gb.basis).is_zero


def test_k3_commutators_all_reduce():
    g = complete_graph(3)
    gb = buchberger(quantum_relations(g), max_degree=4)
    letters = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for a, b in itertools.combinations(letters, 2):
        assert commutator_reduces(gb, a, b)
    # identical generators commute syntactically
    assert commutator_reduces(gb, (1, 1), (1, 1))


def test_c4_keeps_an_irreducible_commutator():
    g = cycle_graph(4)
    gb = buchberger(quantum_relations(g), max_degree=6)
    assert not commutator_reduces(gb, (1, 1), (2, 2))
    assert commutation_report(g, gb)[(1, 2)] is False


def test_verify_identity_trivial_cases():
    g = complete_graph(3)
    rels = quantum_relations(g)
    gb = buchberger(rels, max_degree=4)
    p = u(1, 2) * u(2, 1)
    assert normal_form(p - p, gb.basis).is_zero
    assert normal_form(rels[0] - NcPoly.zero(), gb.basis).is_zero


def test_default_degree_caps():
    assert default_degree_cap(4) == 4
    assert default_degree_cap(12) == 3


def _clock_passing_after(monkeypatch, reads):
    """Make qsym.groebner's clock read 0 for ``reads`` reads, 2 after."""
    count = itertools.count(1)
    monkeypatch.setattr(groebner_module, "time", SimpleNamespace(
        monotonic=lambda: 0.0 if next(count) <= reads else 2.0))


def test_deadline_truncates_mid_run(monkeypatch):
    """C4 at cap 6 reads the clock 59 times in the first inter-reduction
    and once after it, then once per pending ambiguity (reads 61..129):
    the 100th read falls in the loop."""
    runs = []
    for _ in range(2):
        _clock_passing_after(monkeypatch, 100)
        runs.append(buchberger(quantum_relations(cycle_graph(4)),
                               max_degree=6, deadline=1.0))
    for gb in runs:
        assert gb.truncated and gb.steps > 0 and not gb.exhausted
        assert gb.complete_up_to_degree < 6
    assert runs[0].steps == runs[1].steps


def test_deadline_in_final_interreduction_keeps_the_loop_result(monkeypatch):
    """An uncut C4 run at cap 6 reads the clock 166 times.  Reads 130..165
    are the final inter-reduction's, one per element of its one pass over
    the 36 rows, and read 166 follows it; from read 148 on the clock is
    past the deadline, halfway through that pass."""
    reads = []
    monkeypatch.setattr(groebner_module, "time", SimpleNamespace(
        monotonic=lambda: reads.append(0.0) or 0.0))
    full = buchberger(quantum_relations(cycle_graph(4)), max_degree=6,
                      deadline=1.0)
    assert not full.truncated and len(full.basis) == 36
    assert len(reads) == 166
    _clock_passing_after(monkeypatch, 147)
    gb = buchberger(quantum_relations(cycle_graph(4)), max_degree=6,
                    deadline=1.0)
    assert gb.truncated
    assert (gb.steps, gb.complete_up_to_degree, gb.exhausted) \
        == (full.steps, full.complete_up_to_degree, full.exhausted)
    assert all(normal_form(p, gb.basis).is_zero for p in full.basis)


def test_past_deadline_truncates_before_any_step():
    start = time.monotonic()
    gb = buchberger(quantum_relations(cycle_graph(5)), max_degree=3,
                    deadline=start - 1)
    assert time.monotonic() - start < 1.0
    assert gb.truncated and gb.steps == 0 and not gb.exhausted
    # the cut inter-reduction may leave equal leading monomials, whose
    # ambiguities overlaps() does not list, so no degree is certified
    assert gb.complete_up_to_degree == 0


def test_past_deadline_settles_no_column_pair():
    g = complete_graph(3)
    gb = buchberger(quantum_relations(g), max_degree=4)
    assert all(commutation_report(g, gb).values())
    report = commutation_report(g, gb, deadline=time.monotonic() - 1)
    assert len(report) == 6
    assert all(ok is None for ok in report.values())


def test_cut_report_keeps_tried_pairs_and_marks_the_rest_none(monkeypatch):
    """The deadline is read once per pair: past it after two reads, the
    first two pairs keep their verdict (True for K3, False for C4) and
    the untried ones map to None, not to False."""
    for g in (complete_graph(3), cycle_graph(4)):
        gb = buchberger(quantum_relations(g), max_degree=4)
        full = commutation_report(g, gb)
        _clock_passing_after(monkeypatch, 2)
        cut = commutation_report(g, gb, deadline=1.0)
        assert list(cut) == list(full)
        pairs = list(full)
        assert [cut[p] for p in pairs[:2]] == [full[p] for p in pairs[:2]]
        assert all(isinstance(full[p], bool) for p in pairs)
        assert all(cut[p] is None for p in pairs[2:])


def test_unit_ideal_gives_the_basis_one():
    one, two = NcPoly.one(), NcPoly.constant(2)
    x, y = u(1, 1), u(1, 2)
    # the first inter-reduction reaches 1; the second pair reaches it in
    # the loop, from the S-polynomial of the overlap x*y*x
    for gens, steps in (([x - one, x - two], 0),
                        ([x * y - one, y * x - two], 1)):
        gb = buchberger(gens, 3)
        assert gb.basis == [one] and gb.exhausted and not gb.truncated
        assert gb.steps == steps
        assert normal_form(y * x + one, gb.basis).is_zero


def test_containment_criterion_skips_an_ambiguity_inside_a_degree_5_word():
    """Here the ambiguity of x*x*y and y*y*y on x*x*y*y*y factors through
    the third leading monomial x*y*y, which sits strictly inside the word,
    so ``buchberger`` skips it: 6 steps where the completion without the
    criterion takes 7 to the same basis.  At caps <= 4 the criterion
    cannot fire, since the alive leading monomials form an antichain."""
    x, y, z = u(1, 1), u(1, 2), u(2, 1)
    gens = [y - z, x * y * y, x * z * y - (x * x * y + y * z).scale(2)]
    gb = buchberger(gens, 5)
    assert gb.steps == 6 and gb.exhausted
    assert [str(p) for p in gb.basis] == [
        "u[2,1] - u[1,2]", "u[1,1]*u[1,1]*u[1,2] + u[1,2]*u[1,2]",
        "u[1,1]*u[1,2]*u[1,2]", "u[1,2]*u[1,2]*u[1,2]"]


def _shifted(p, k):
    """p with every label (i, j) renamed (i + k, j + k)."""
    return NcPoly({tuple((i + k, j + k) for i, j in w): c
                   for w, c in p.terms.items()})


@pytest.mark.parametrize("g, cap", [(complete_graph(3), 4),
                                    (cycle_graph(4), 4)], ids=["K3", "C4"])
def test_completion_is_equivariant_under_an_order_preserving_relabelling(
        g, cap):
    """Shifting every label by 8 moves the vertices 1..4 to 9..12, so the
    labels cross from one decimal digit to two.  The shift keeps the label
    order, so the completion must give the shifted basis in as many steps;
    an alphabet that ordered the labels as decimal text would put (10, 10)
    before (9, 9) and change both."""
    rels = quantum_relations(g)
    gb = buchberger(rels, max_degree=cap)
    moved = buchberger([_shifted(p, 8) for p in rels], max_degree=cap)
    assert moved.basis == [_shifted(p, 8) for p in gb.basis]
    assert (moved.steps, moved.complete_up_to_degree, moved.exhausted,
            moved.discarded_over_cap) == (gb.steps, gb.complete_up_to_degree,
                                          gb.exhausted, gb.discarded_over_cap)


def test_completion_over_more_than_256_labels():
    """300 labels code words with characters up to chr(299), past one
    byte.  The chain x_k - x_(k+1) makes every x_k equal to x_1, and the
    idempotent on x_300 then reduces to one on x_1; the basis comes back
    on tuple words."""
    xs = [u(1, k) for k in range(1, 301)]
    gens = [xs[k] - xs[k + 1] for k in range(299)] + [
        xs[-1] * xs[-1] - xs[-1]]
    gb = buchberger(gens, 3)
    x1 = xs[0]
    assert gb.basis == [x - x1 for x in xs[1:]] + [x1 * x1 - x1]
    assert gb.steps == 1 and gb.exhausted and not gb.truncated
    assert normal_form(xs[-1] * xs[-2], gb.basis) == x1


# SHA-256 of the bases, completion statistics and commuting column pairs of
# six inputs, as the straightforward completion (leading monomial recomputed
# on every call, a fresh reducer index per inter-reduced element) gave them
GROEBNER_OUTPUTS_SHA256 = (
    "09a14852b9c4f3ec91e75fabf5d4f7bf2c4e132e6a05ed0f41cc15e65cc7f811")


def _output_record(name, g, cap, gb):
    commuting = sorted(p for p, ok in commutation_report(g, gb).items() if ok)
    return repr((name, cap, [str(p) for p in gb.basis], gb.steps,
                 gb.complete_up_to_degree, gb.exhausted, gb.truncated,
                 gb.discarded_over_cap, commuting)).encode() + b"\n"


@pytest.fixture(scope="module")
def pinned_runs():
    """(name, graph, cap, basis) of the six inputs GROEBNER_OUTPUTS_SHA256
    pins."""
    return [(name, g, cap, buchberger(quantum_relations(g), max_degree=cap))
            for name, g, cap in (("K3", complete_graph(3), 4),
                                 ("C4", cycle_graph(4), 4),
                                 ("K4", complete_graph(4), 3),
                                 ("C6", cycle_graph(6), 3),
                                 ("C8(4)", circulant(8, 4), 3),
                                 ("edgeless(3)", edgeless_graph(3), 4))]


def test_groebner_outputs_are_pinned(pinned_runs):
    digest = hashlib.sha256()
    for name, g, cap, gb in pinned_runs:
        digest.update(_output_record(name, g, cap, gb))
    assert digest.hexdigest() == GROEBNER_OUTPUTS_SHA256


def test_basis_elements_carry_their_leading_monomial_and_integer_form(
        pinned_runs):
    """``buchberger`` hands each basis element the leading monomial and
    the integer form that the completion already holds; both are what a
    fresh polynomial with the same terms computes."""
    for name, _g, _cap, gb in pinned_runs:
        for p in gb.basis:
            assert p._lm is not None and p._int is not None, name
            fresh = NcPoly(p.terms)
            assert (p.lm(), p.int_form()) == (fresh.lm(), fresh.int_form())


@pytest.fixture(scope="module")
def c5_basis():
    return buchberger(quantum_relations(cycle_graph(5)), max_degree=3)


C5_OUTPUT_SHA256 = (
    "b60ae8d26a55afe417ad501bccefda436c0df2363e32272e2642601d885b3497")


def test_c5_outputs_are_pinned(c5_basis):
    """C5 at cap 3 is the input whose reductions rescale their terms most
    often (over a thousand times), so it pins the fraction-free path."""
    record = _output_record("C5", cycle_graph(5), 3, c5_basis)
    assert hashlib.sha256(record).hexdigest() == C5_OUTPUT_SHA256


def test_add_element_clears_the_reducer_memo_it_deactivates_under(
        monkeypatch):
    """C5 at cap 3 is the pinned input on which a new element's leading
    monomial divides older ones.  ``add_element`` deactivates those while
    the memo of the previous leftover reduction still holds words, and the
    basis is still the pinned one."""
    deactivate = ReducerIndex.deactivate
    memo_sizes = []

    def spy(index, idx):
        if sys._getframe(1).f_code.co_name == "add_element":
            memo_sizes.append(len(index.memo))
        deactivate(index, idx)
        assert not index.memo

    monkeypatch.setattr(ReducerIndex, "deactivate", spy)
    gb = buchberger(quantum_relations(cycle_graph(5)), max_degree=3)
    assert sum(1 for size in memo_sizes if size) >= 10
    record = _output_record("C5", cycle_graph(5), 3, gb)
    assert hashlib.sha256(record).hexdigest() == C5_OUTPUT_SHA256


def test_interreduction_of_an_interreduced_basis_takes_one_pass(
        monkeypatch, pinned_runs):
    """C4@4's basis is inter-reduced, so one pass keeps every leading
    monomial and stops: one reduction per row, and the rows unchanged."""
    gb = next(run[3] for run in pinned_runs if run[0] == "C4")
    rows = [(p.lm(), p.int_form()[1]) for p in gb.basis]
    reduce_with_index = groebner_module._reduce_with_index
    calls = []

    def spy(den, terms, index):
        calls.append(den)
        return reduce_with_index(den, terms, index)

    monkeypatch.setattr(groebner_module, "_reduce_with_index", spy)
    assert _interreduce(rows) == rows
    assert len(calls) == len(rows) > 10


def test_integer_s_polynomial_matches_its_definition(c5_basis):
    x, y, one = u(1, 1), u(1, 2), NcPoly.one()
    non_monic = [(x * y * x).scale(2) - y.scale(3) + one.scale(Fraction(1, 2)),
                 (y * x).scale(Fraction(4, 3)) - x]
    assert {p.int_form()[0] for p in c5_basis.basis} >= {2, 3, 6, 9}
    checked = []
    for basis in (c5_basis.basis, non_monic):
        checked.append(0)
        for i, j in itertools.combinations_with_replacement(
                range(len(basis)), 2):
            p_i, p_j = basis[i], basis[j]
            for ob in overlaps(p_i.lm(), p_j.lm(), i=i, j=j):
                den, terms = _s_polynomial(p_i.int_form(), p_j.int_form(),
                                           ob)
                want = conjugate(p_i, ob.left_i, ob.right_i) \
                    - conjugate(p_j, ob.left_j, ob.right_j)
                got = NcPoly({w: Fraction(c, den) for w, c in terms.items()})
                assert got == want, (i, j, ob)
                assert all(type(c) is int and c for c in terms.values())
                checked[-1] += 1
    assert checked == [268, 3]


def _ref_lm(p):
    return max(p.terms, key=deglex_key)


def _row(p):
    """The kernel's primitive row (lm, {word: int}) of a nonzero p, on
    tuple words: the integer form of p.monic()."""
    m = p.monic()
    return m.lm(), m.int_form()[1]


def _poly(lm, row):
    """The monic NcPoly of a primitive row."""
    return NcPoly({w: Fraction(c, row[lm]) for w, c in row.items()})


def _ref_reduce(p, reducers):
    """Rewrite the deglex-largest reducible word first, by the monic reducer
    whose leading monomial occurs leftmost in it, the earliest listed one
    among those at that offset."""
    pairs = [(_ref_lm(b), b) for b in reducers]
    terms = dict(p.terms)
    while True:
        hit = None
        for word in sorted(terms, key=deglex_key, reverse=True):
            hit = next(((word, pos, lm, b) for pos in range(len(word))
                        for lm, b in pairs
                        if word[pos:pos + len(lm)] == lm), None)
            if hit is not None:
                break
        if hit is None:
            return NcPoly(terms)
        word, pos, lm, b = hit
        coeff = terms.pop(word)
        left, right = word[:pos], word[pos + len(lm):]
        for w, c in b.terms.items():
            if w != lm:
                key = left + w + right
                terms[key] = terms.get(key, 0) - coeff * c
                if not terms[key]:
                    del terms[key]


def _ref_interreduce(polys):
    """Inter-reduction with a fresh reducer list per element: the already
    reduced elements, then the ones not reached yet."""
    current = [p.monic() for p in polys if not p.is_zero]
    changed = True
    while changed:
        changed = False
        current.sort(key=lambda p: deglex_key(_ref_lm(p)))
        nxt = []
        for idx, p in enumerate(current):
            r = _ref_reduce(p, nxt + current[idx + 1:])
            if r.is_zero:
                changed = True
                continue
            r = r.monic()
            if r != p:
                changed = True
            nxt.append(r)
        current = nxt
    return current


def _random_polys(rng, letters, count):
    # no constant terms, so no reduction can produce the unit
    return [NcPoly({tuple(rng.choice(letters)
                          for _ in range(rng.randint(1, 3))):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 4))})
            for _ in range(count)]


def _random_ideal_elements(rng, rels, letters, count):
    # combinations of relation multiples: the relation ideal is proper, so
    # again no reduction can produce the unit
    def word():
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, 1)))
    return [sum((conjugate(rng.choice(rels), word(), word())
                 .scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                 for _ in range(3)), NcPoly.zero())
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(6))
def test_interreduce_matches_a_fresh_reducer_list(seed):
    rng = random.Random(seed)
    for g in (cycle_graph(4), complete_graph(3)):
        letters = [(i, j) for i in g.vertices() for j in g.vertices()]
        rels = quantum_relations(g)
        for polys in (rels, _random_polys(rng, letters, 12),
                      rels + _random_ideal_elements(rng, rels, letters, 4)):
            got = [_poly(*r) for r in
                   _interreduce(_row(p) for p in polys if not p.is_zero)]
            assert got == _ref_interreduce(polys)
            for p in got:
                assert p.lm() == max(p.terms, key=deglex_key)
                assert all(type(c) is Fraction for c in p.terms.values())


@pytest.mark.parametrize("seed", range(6))
def test_replaced_slots_keep_their_place_among_the_reducers(seed):
    """Driven as an inter-reduction round drives it, the in-place index
    finds in every short word the reducer that the fresh list (the reduced
    elements, then the ones not reached yet) puts first."""
    rng = random.Random(seed)
    letters = [(1, 1), (1, 2), (2, 1)]
    words = [w for d in range(1, 4) for w in _words_of_degree(letters, d)]
    current = sorted((p.monic() for p in _random_polys(rng, letters, 12)
                      if not p.is_zero), key=lambda p: deglex_key(_ref_lm(p)))
    index = ReducerIndex(map(_row, current))
    nxt = []
    for idx, p in enumerate(current):
        index.deactivate(idx)
        fresh = [(_ref_lm(b), b) for b in nxt + current[idx + 1:]]
        for word in words:
            want = next(((b, pos) for pos in range(len(word)) for lm, b in fresh
                         if word[pos:pos + len(lm)] == lm), None)
            hit = index.find_reducer(word)
            slot = hit and _poly(index.lms[hit[0]], index.rows[hit[0]])
            assert want == (hit and (slot, hit[1])), word
        r = _ref_reduce(p, nxt + current[idx + 1:])
        if not r.is_zero:
            nxt.append(r.monic())
            index.replace(idx, *_row(nxt[-1]))


# -- dense linear-algebra membership oracle ---------------------------------


def _words_of_degree(letters, d):
    if d == 0:
        yield ()
        return
    for w in _words_of_degree(letters, d - 1):
        for x in letters:
            yield w + (x,)


class SpanOracle:
    """Row echelon (over Q) of all bounded-degree generator multiples.

    Fraction-free: every vector is an integer row, and each pivot row is
    primitive (gcd 1, positive on its leading word), so it stands for the
    monic rational row it is proportional to."""

    def __init__(self, gens, letters, max_deg):
        self.pivots = {}
        for gen in gens:
            dg = gen.degree()
            for da in range(0, max_deg - dg + 1):
                for a in _words_of_degree(letters, da):
                    for db in range(0, max_deg - dg - da + 1):
                        for b in _words_of_degree(letters, db):
                            self._insert({a + w + b: c
                                          for w, c in gen.terms.items()})

    @staticmethod
    def _integral(raw):
        """The rational vector ``raw`` times the lcm of its denominators."""
        vec = {w: Fraction(c) for w, c in raw.items() if c}
        den = math.lcm(*(c.denominator for c in vec.values()))
        return {w: int(c * den) for w, c in vec.items()}

    def _reduce(self, vec):
        """Eliminate the leading word of ``vec`` while a pivot has it: scale
        ``vec`` by lc // g and subtract coeff // g times the pivot, where
        lc is the pivot's leading coefficient, coeff the vector's and g
        their gcd.  The words wait in one list ascending by ``deglex_key``,
        popped from the end; a pivot row only adds words below its lead, so
        each goes in by bisection, and a word cancelled meanwhile is
        skipped."""
        todo = sorted(map(deglex_key, vec))
        while todo:
            lead = todo.pop()[1]
            if lead not in vec:
                continue
            pivot = self.pivots.get(lead)
            if pivot is None:
                return vec, lead
            coeff = vec.pop(lead)
            lc = pivot[lead]
            g = math.gcd(coeff, lc)
            scale, coeff = lc // g, coeff // g
            if scale != 1:
                for w in vec:
                    vec[w] *= scale
            for w, c in pivot.items():
                if w == lead:
                    continue
                old = vec.get(w, 0)
                nv = old - coeff * c
                if not nv:
                    vec.pop(w, None)
                    continue
                if not old:
                    bisect.insort(todo, deglex_key(w))
                vec[w] = nv
        return vec, None

    def _insert(self, raw):
        vec, lead = self._reduce(self._integral(raw))
        if lead is not None:
            g = math.gcd(*vec.values())
            if vec[lead] < 0:
                g = -g
            self.pivots[lead] = {w: c // g for w, c in vec.items()}

    def contains(self, poly):
        _, lead = self._reduce(self._integral(poly.terms))
        return lead is None

    def snapshot(self):
        return {lead: dict(row) for lead, row in self.pivots.items()}


@functools.cache
def edgeless_span_oracle(n):
    """The degree-4 SpanOracle of the edgeless graph's relations on n
    vertices.  For n = 3 the build takes seconds, so each test run builds
    it once and the tests that read it share it: contains() leaves the
    pivots as they are, which each reader asserts."""
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return SpanOracle(quantum_relations(edgeless_graph(n)), letters, 4)


# (pivot count, SHA-256 of the pivot rows) of the degree-4 oracle on n
# vertices, as the oracle built by rescanning for the largest word gave them
SPAN_ORACLE_PIVOTS = {
    1: (4, "8ffeae6cca7eb20dc561085a182c9ee8dac902cc04192a067f33f3cdfc8626ca"),
    2: (339,
        "5132a28168c92b6a1fc25289137625abb26aba7ed8592eb31c62efffaa702b2c"),
    3: (7367,
        "4a7b1e33b09a515f786594cc894211060e04bf860cc01aa620032339b11084b6"),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_span_oracle_pivots_are_pinned(n):
    """The worklist reduction builds the same rows as a full rescan for
    the leading word at every step."""
    pivots = edgeless_span_oracle(n).pivots
    digest = hashlib.sha256()
    for lead in sorted(pivots, key=deglex_key):
        lc = pivots[lead][lead]
        monic = {w: Fraction(c, lc) for w, c in pivots[lead].items()}
        row = sorted(monic.items(), key=lambda wc: deglex_key(wc[0]))
        digest.update(repr((lead, row)).encode())
    assert (len(pivots), digest.hexdigest()) == SPAN_ORACLE_PIVOTS[n]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_membership_agrees_with_dense_oracle(n):
    g = edgeless_graph(n)
    rels = quantum_relations(g)
    gb = buchberger(rels, max_degree=4)
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    oracle = edgeless_span_oracle(n)
    pivots = oracle.snapshot()
    rng = random.Random(n)
    tests = [commutator(a, b) for a, b in itertools.combinations(letters, 2)]
    for _ in range(25):
        rel = rng.choice(rels)
        a = tuple(rng.choice(letters) for _ in range(rng.randint(0, 1)))
        b = tuple(rng.choice(letters) for _ in range(rng.randint(0, 1)))
        tests.append(conjugate(rel, a, b))
    for _ in range(25):
        terms = {tuple(rng.choice(letters)
                       for _ in range(rng.randint(0, 3))): rng.randint(-3, 3)
                 for _ in range(3)}
        tests.append(NcPoly(terms))
    for p in tests:
        assert normal_form(p, gb.basis).is_zero == oracle.contains(p)
    assert oracle.pivots == pivots
