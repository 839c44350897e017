"""Certificates: serialization, independent verification, rendering."""

import inspect
import re
from collections import Counter

import pytest

import qsym.certificate as cm
import qsym.graphs
from qsym.certificate import (
    Certificate,
    parse_certificate,
    render_certificate,
    serialize_certificate,
    serialize_step,
    step,
    verify_certificate,
)
from qsym.engine import decide, lemma_fixpoint
from qsym.graphs import Graph, GraphError, common_neighbours, read_graph
from qsym.named import build_named, circulant, complete_graph, cycle_graph
from qsym.perms import automorphism_group, is_automorphism, parse_cycles

from replayer import IndependentReplayer
from util import discrete_colouring, replay_state


def _lemma_certificate(name):
    g = build_named(name)
    aut = automorphism_group(g)
    kb, closed, _ = lemma_fixpoint(g, aut)
    assert closed, name
    return g, Certificate.for_graph(g, cm.VERDICT_NONE, kb.log)


def test_serialize_parse_roundtrip():
    for name in ("C5", "K2xC6", "C12(2)"):
        g, cert = _lemma_certificate(name)
        text = serialize_certificate(cert)
        back = parse_certificate(text)
        assert back == cert
        assert verify_certificate(g, back)


def test_witness_certificate_roundtrip():
    g = circulant(12, 5)
    v = decide(g)
    text = serialize_certificate(v.certificate)
    back = parse_certificate(text)
    assert verify_certificate(g, back)


def test_certificate_bound_to_its_graph():
    g, cert = _lemma_certificate("C5")
    other = cycle_graph(6)
    result = verify_certificate(other, cert)
    assert not result and "different graph" in result.message


def test_a_certificate_is_bound_to_its_edges_not_only_its_order():
    """This graph has C5's vertex count and is isomorphic to it, but
    shares none of its edges: C5's certificate does not prove it."""
    _, cert = _lemma_certificate("C5")
    other = Graph(5, [(1, 3), (3, 5), (2, 5), (2, 4), (1, 4)])
    assert not set(other.edges()) & set(cert.edges)
    result = verify_certificate(other, cert)
    assert not result and result.step_index == -1
    assert result.message == "certificate is bound to a different graph"


def test_c5_without_seeds_reproduces_the_worked_example():
    """The worked 5-cycle derivation in 7 steps: the kill (1,2,3,1)
    proves (1,2), which the reflection carries to (1,5) at once, and the
    reduction (1,3,2,{1}) proves (1,3).  The published rows for (1,5)
    and (1,4) are orbit images of these, so the certificate does not
    derive them; the rule table accepts each of them in the state the
    certificate reaches."""
    g, cert = _lemma_certificate("C5")
    assert len(cert.steps) == 7
    middle = [(s.j, s.l, s.p, s.q) for s in cert.steps
              if s.kind == cm.CHOOSE_Q_MIDDLE]
    right = [(s.j, s.l, s.q, s.survivors) for s in cert.steps
             if s.kind == cm.CHOOSE_Q_RIGHT]
    assert middle == [(1, 2, 3, 1)] and right == [(1, 3, 2, (1,))]
    kb = cm.CommutationKB(g)
    for s in cert.steps:
        kb.apply(s)
        if kb.knows_commute(1, 5):
            break
    assert (s.kind, s.j, s.l) == (cm.ADJ_COMMUTE_CLOSE, 1, 2)
    rendered = render_certificate(cert, "latex")
    assert "1 & 2 & 3 & 1" in rendered
    assert "1 & 3 & 2 & $\\{1\\}$" in rendered
    kb = replay_state(cert)
    assert cm.RULES[cm.CHOOSE_Q_MIDDLE].check(kb, 1, 5, 4, 1) is None
    assert cm.RULES[cm.CHOOSE_Q_RIGHT].check(kb, 1, 4, 3, (1,)) is None


def test_render_markdown_groups_tables():
    g, cert = _lemma_certificate("K2xC6")
    md = render_certificate(cert, "md")
    assert "| j | l | p | q |" in md and "| j | l | q | P |" in md
    assert "| 1 | 4 | 2 | {1,8} |" in md
    assert "| 1 | 2 | 3 | 1 |" in md and "| 1 | 7 | 8 | {1} |" in md
    # the published kill row for (1,7) holds in the state the
    # certificate reaches, which proves (1,7) by a reduction instead
    kill = (1, 7, 8, 3)
    assert cm.RULES[cm.CHOOSE_Q_MIDDLE].check(replay_state(cert), *kill) \
        is None
    # the published reduction row still holds once commute{7,2} is known
    kb = cm.CommutationKB(g)
    kb._commute(7, 2)
    assert cm.RULES[cm.CHOOSE_Q_RIGHT].check(kb, 1, 7, 2, (1, 8)) is None


def test_render_empty_certificate_is_header_only():
    g = Graph(1, [])
    cert = Certificate.for_graph(
        g, cm.VERDICT_NONE,
        [step(cm.CONCLUSION_COMMUTATIVE, bases=(1,))])
    md = render_certificate(cert, "md")
    assert md.splitlines()[0].startswith("## certificate")
    assert "| j |" not in md


def test_render_refuses_invalid():
    g, cert = _lemma_certificate("C5")
    broken = Certificate(cert.verdict, cert.n, cert.edges, cert.steps[:-1])
    with pytest.raises(ValueError):
        render_certificate(broken, "md")
    with pytest.raises(ValueError):
        render_certificate(cert, "html")


def test_mutated_middle_q_is_rejected():
    g, cert = _lemma_certificate("C5")
    steps = list(cert.steps)
    for idx, s in enumerate(steps):
        if s.kind == cm.CHOOSE_Q_MIDDLE and (s.j, s.l, s.p, s.q) == (1, 2, 3, 1):
            # q = 2 violates the separation condition d(j,q) != d(q,p)
            steps[idx] = step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=3, q=2)
            break
    mutated = Certificate(cert.verdict, cert.n, cert.edges, tuple(steps))
    result = verify_certificate(g, mutated)
    assert not result and result.step_index == idx


def _as_mask(vertices):
    return sum(1 << v for v in vertices)


def test_mask_predicates_agree_with_a_list_reference():
    """``narrowed`` and ``middle_qs`` test whole colour classes as
    bitmasks; a vertex-by-vertex reading of the pair colours gives the
    same answers for every (j, l, p, q).  The middle rule's check, which
    asks ``middle_qs`` about its named q only, gives the reference's
    reason for every (j, l, p, q), the bad p included."""
    check = cm.RULES[cm.CHOOSE_Q_MIDDLE].check
    graphs = [cycle_graph(5), build_named("K2xC6"), build_named("2C6"),
              build_named("Cuboctahedron"), circulant(12, 4, 6),
              discrete_colouring(circulant(6, 3)),
              Graph(7, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6),
                        (6, 7), (2, 6)])]
    for g in graphs:
        kb = cm.CommutationKB(g)
        c, d, vs = g.pair_colours(), g.distances(), list(g.vertices())
        for j in vs:
            for l in vs:
                cand = [p for p in vs if c[l][p] == c[l][j]]
                assert cm.narrowed(kb, -1, j, l) == _as_mask(cand)
                for q in vs:
                    ref = [p for p in cand if c[q][p] == c[q][j]]
                    assert cm.narrowed(kb, _as_mask(cand), j, q) \
                        == _as_mask(ref), (g, j, l, q)
                for p in vs:
                    k = c[j][l]
                    if d[j][l] == float("inf") or c[p][l] != k or p == j:
                        ring = None
                    else:
                        ring = [x for x in vs if c[j][x] == k and c[p][x] == k]
                    got = cm.middle_qs(kb, j, l, p, vs)
                    assert (got is None) == (ring is None), (g, j, l, p)
                    if ring is None:
                        for q in vs:
                            assert check(kb, j, l, p, q) == \
                                "bad p for the middle rule on (j,l)"
                        continue
                    separate, kill = got
                    assert not (separate | kill) & ~_as_mask(vs)
                    for q in vs:
                        if c[q][j] == c[q][p]:
                            why = "q does not separate j from p"
                        elif [x for x in ring if c[q][x] == c[q][l]] != [l]:
                            why = "l not unique for the middle rule"
                        else:
                            why = None
                        got_why = ("q does not separate j from p"
                                   if not separate >> q & 1 else
                                   "l not unique for the middle rule"
                                   if not kill >> q & 1 else None)
                        assert got_why == why, (g, j, l, p, q)
                        assert check(kb, j, l, p, q) == why, (g, j, l, p, q)


def _count_table_calls(monkeypatch):
    """Calls of ``Graph.distances``, ``pair_colours`` and ``colour_masks``
    from now on, by method name."""
    calls = Counter()
    for name in ("distances", "pair_colours", "colour_masks"):
        def counted(self, _name=name, _method=getattr(Graph, name)):
            calls[_name] += 1
            return _method(self)
        monkeypatch.setattr(Graph, name, counted)
    return calls


def test_a_replay_reads_each_graph_table_at_most_twice(monkeypatch):
    """The replay state reads the distances, pair colours and colour
    classes once, when it is built, and every check reads them from it.
    A table computed on that read fetches the one it is built from, so
    no method runs more than twice in one replay."""
    _, cert = _lemma_certificate("C12(2)")
    back = parse_certificate(serialize_certificate(cert))
    calls = _count_table_calls(monkeypatch)
    assert verify_certificate(back.graph(), back)
    assert set(calls) == {"distances", "pair_colours", "colour_masks"}
    assert max(calls.values()) <= 2, calls


def test_a_witness_replay_builds_no_graph_table(monkeypatch):
    """A ``DISJOINT_WITNESS`` check reads the graph's edges alone, so
    replaying C12(5)'s witness on a freshly built graph computes no
    distances, pair colours or colour classes."""
    cert = decide(circulant(12, 5)).certificate
    assert [s.kind for s in cert.steps] == [cm.DISJOINT_WITNESS]
    calls = _count_table_calls(monkeypatch)
    fresh = circulant(12, 5)
    assert verify_certificate(fresh, cert)
    assert not calls and fresh._dist is None


def test_premise_cited_before_derivation_is_rejected():
    g, cert = _lemma_certificate("C12(2)")
    steps = list(cert.steps)
    moved = None
    for idx, s in enumerate(steps):
        if s.kind == cm.CHOOSE_Q_RIGHT and idx > 0:
            moved = steps.pop(idx)
            break
    assert moved is not None
    reordered = Certificate(cert.verdict, cert.n, cert.edges,
                            tuple([moved] + steps))
    result = verify_certificate(g, reordered)
    assert not result


def test_forged_generator_is_rejected():
    """A GENERATOR whose phi is (1,2) times a true generator is no
    automorphism of K2xC6; both verifiers refuse the certificate, the
    library at that step and by name."""
    g, cert = _lemma_certificate("K2xC6")
    text = serialize_certificate(cert)
    at, phi = next((idx, s.phi) for idx, s in enumerate(cert.steps)
                   if s.kind == cm.GENERATOR)
    forged = parse_cycles("(1,2)", g.n) * phi
    assert not is_automorphism(g, forged)
    old = f"step {serialize_step(cert.steps[at])}\n"
    new = f"step {serialize_step(cm.step(cm.GENERATOR, phi=forged))}\n"
    assert text.count(old) == 1
    back = parse_certificate(text.replace(old, new))
    assert back.steps[at].phi == forged
    result = verify_certificate(g, back)
    assert not result and result.step_index == at
    assert result.message == "GENERATOR: phi is not an automorphism"
    assert IndependentReplayer(g.n, g.edges()).accepts(cert)
    assert not IndependentReplayer(g.n, g.edges()).accepts(back)


def test_conclusion_reaches_vertices_only_through_stated_generators():
    """On K3 the kill (1,2,3,1) proves (1,2), and the generator (2,3),
    which fixes vertex 1, carries it to (1,3), so only the conclusion's
    coverage rests on the generator (1,2) that moves vertex 1.  Without
    it, base 1 reaches no other vertex, and both verifiers refuse the
    conclusion."""
    g = complete_graph(3)
    cert = decide(g, engine="lemmas").certificate
    assert cert.steps[-1].bases == (1,)
    kept = tuple(s for s in cert.steps
                 if s.kind != cm.GENERATOR or s.phi(1) == 1)
    assert len(kept) == len(cert.steps) - 1
    forged = Certificate(cert.verdict, cert.n, cert.edges, kept)
    result = verify_certificate(g, forged)
    assert not result and result.step_index == len(kept) - 1
    assert result.message.endswith(
        "vertices [2, 3] not reached from any base")
    assert not IndependentReplayer(g.n, g.edges()).accepts(forged)


@pytest.mark.parametrize("lone", [
    step(cm.CHOOSE_Q_RIGHT, j=1, l=2, q=2, survivors=(1,)),
    step(cm.ADJ_COMMUTE_CLOSE, j=1, l=2),
], ids=lambda s: s.kind)
def test_pair_rules_refuse_columns_in_different_components(lone):
    """On K1 + K3, P0 for (1,2) is {1}: vertex 1 alone lies at infinite
    distance from 2.  So each of these steps meets every condition of its
    rule but the one that j and l share a component, and both verifiers
    must refuse it at step 0."""
    g = Graph(4, [(2, 3), (3, 4), (2, 4)])
    cert = Certificate.for_graph(g, cm.VERDICT_NONE, [lone])
    result = verify_certificate(g, cert)
    assert (result.ok, result.step_index, result.message) == \
        (False, 0, f"{lone.kind}: (j,l) disconnected")
    assert not IndependentReplayer(g.n, g.edges()).accepts(cert)


def _cert(g, steps, verdict=cm.VERDICT_NONE):
    return Certificate.for_graph(g, verdict, steps)


def _cycles(text, n=5):
    return parse_cycles(text, n)


C4, C5 = cycle_graph(4), cycle_graph(5)
K1 = Graph(1, [])
# K4 less the edge {2,4}: CN(1,2) = {3}, but CN(1,3) = {2,4}
DIAMOND = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
# a triangle beside a diamond
K3_DIAMOND = Graph(7, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7),
                       (5, 6), (6, 7)])
TWO_K2, K33 = Graph(4, [(1, 2), (3, 4)]), circulant(6, 3)


def _retired(g, kind, **fields):
    """A certificate whose only step has a kind the rule table no longer
    has, with the verifier's refusal of it."""
    return (g, _cert(g, [cm.ProofStep(kind, fields)]), 0,
            f"unknown step kind {kind}", True)


# id: (verification graph, certificate, failing step, message, whether
# tests/replayer.py has the condition).  One case per refusal reason of a
# rule check or of the verifier, each as small as its reason allows; the
# ``(j,l) disconnected`` refusals are pinned by the test above.
REFUSALS = {
    "right-premise": (
        C5, _cert(C5, [step(cm.CHOOSE_Q_RIGHT, j=1, l=3, q=2,
                            survivors=(1,))]), 0,
        "CHOOSE_Q_RIGHT: commute({l,q}) not yet established", True),
    # q = l needs no premise, and narrows P0 = {1,5} to itself
    "right-survivors": (
        C5, _cert(C5, [step(cm.CHOOSE_Q_RIGHT, j=1, l=3, q=3,
                            survivors=(1,))]), 0,
        "CHOOSE_Q_RIGHT: survivor set mismatch", True),
    "middle-bad-p": (
        C5, _cert(C5, [step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=1, q=1)]), 0,
        "CHOOSE_Q_MIDDLE: bad p for the middle rule on (j,l)", True),
    "middle-separation": (
        C5, _cert(C5, [step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=3, q=2)]), 0,
        "CHOOSE_Q_MIDDLE: q does not separate j from p", True),
    "middle-unique-l": (
        C4, _cert(C4, [step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=3, q=1)]), 0,
        "CHOOSE_Q_MIDDLE: l not unique for the middle rule", True),
    "close-unkilled": (
        C5, _cert(C5, [step(cm.ADJ_COMMUTE_CLOSE, j=1, l=2)]), 0,
        "ADJ_COMMUTE_CLOSE: unkilled candidates remain for (j,l)", True),
    "generator": (
        C5, _cert(C5, [step(cm.GENERATOR, phi=_cycles("(1,3)"))]), 0,
        "GENERATOR: phi is not an automorphism", True),
    "conclusion-coverage": (
        C5, _cert(C5, [step(cm.CONCLUSION_COMMUTATIVE, bases=(1,))]), 0,
        "CONCLUSION_COMMUTATIVE: vertices [2, 3, 4, 5] not reached from any "
        "base", True),
    "conclusion-open-pair": (
        C5, _cert(C5, [step(cm.CONCLUSION_COMMUTATIVE,
                            bases=(1, 2, 3, 4, 5))]), 0,
        "CONCLUSION_COMMUTATIVE: column pair (1,2) never proved to commute",
        True),
    "witness-identity": (
        C5, _cert(C5, [step(cm.DISJOINT_WITNESS, sigma=_cycles("()"),
                            tau=_cycles("(2,5)(3,4)"))], cm.VERDICT_HAS), 0,
        "DISJOINT_WITNESS: witness permutation is the identity", True),
    "witness-automorphism": (
        C5, _cert(C5, [step(cm.DISJOINT_WITNESS, sigma=_cycles("(1,2)"),
                            tau=_cycles("(3,4)"))], cm.VERDICT_HAS), 0,
        "DISJOINT_WITNESS: witness is not an automorphism", True),
    "witness-overlap": (
        C5, _cert(C5, [step(cm.DISJOINT_WITNESS,
                            sigma=_cycles("(1,2,3,4,5)"),
                            tau=_cycles("(2,5)(3,4)"))], cm.VERDICT_HAS), 0,
        "DISJOINT_WITNESS: witness supports are not disjoint", True),
    "injective-rebuild": (
        C5, _cert(C5, [step(cm.INJECTIVE_F, n=6, chords=())]), 0,
        "INJECTIVE_F: circulant spec does not rebuild the graph", True),
    "injective-spectrum": (
        K33, _cert(K33, [step(cm.INJECTIVE_F, n=6, chords=(3,))]), 0,
        "INJECTIVE_F: eigenvalues are not injective on s = 1..n//2", True),
    # the replayer is built from one graph and reads none from the
    # certificate, so it has no binding to check
    "bound-to-another-graph": (
        cycle_graph(6), _cert(C5, [step(cm.INJECTIVE_F, n=5, chords=())]),
        -1, "certificate is bound to a different graph", False),
    "unknown-kind": (C5, _cert(C5, [cm.ProofStep("BOGUS", {})]), 0,
                     "unknown step kind BOGUS", True),
    "vertex-range": (
        C5, _cert(C5, [step(cm.ADJ_COMMUTE_CLOSE, j=6, l=1)]), 0,
        "ADJ_COMMUTE_CLOSE: j=6 is outside the vertices 1..5", True),
    "conclusion-not-final": (
        K1, _cert(K1, [step(cm.CONCLUSION_COMMUTATIVE, bases=(1,))] * 2), 0,
        "CONCLUSION_COMMUTATIVE: conclusion must be the final step", True),
    "contradicts-verdict": (
        TWO_K2, _cert(TWO_K2, [step(cm.DISJOINT_WITNESS,
                                    sigma=_cycles("(1,2)", 4),
                                    tau=_cycles("(3,4)", 4))]), 0,
        "DISJOINT_WITNESS: DISJOINT_WITNESS contradicts the verdict", True),
    "malformed": (
        C4, _cert(C4, [step(cm.INJECTIVE_F, n=4, chords=())]), 0,
        "malformed step: the injectivity criterion excludes n = 4", True),
    "no-final-step": (
        C5, _cert(C5, [step(cm.GENERATOR, phi=_cycles("(2,5)(3,4)"))]), 0,
        "no final step proves the verdict no_quantum_symmetry", True),
    # Each certificate that a retired rule's check refused keeps its case:
    # the verifier now refuses the step by its kind, on any graph.
    "quadrangle": _retired(C4, "QUADRANGLE_FREE"),
    "no-edges": _retired(K1, "ONE_COMMON_NEIGHBOUR"),
    "no-unique-cn": _retired(C5, "ONE_COMMON_NEIGHBOUR"),
    "gen-not-adjacent": _retired(C5, "ONE_COMMON_NEIGHBOUR_GEN",
                                 j=1, l=3, q=2),
    "gen-cn": _retired(C5, "ONE_COMMON_NEIGHBOUR_GEN", j=1, l=2, q=3),
    "gen-triple": _retired(DIAMOND, "ONE_COMMON_NEIGHBOUR_GEN",
                           j=1, l=2, q=3),
    "gen-side-condition": _retired(K3_DIAMOND, "ONE_COMMON_NEIGHBOUR_GEN",
                                   j=1, l=2, q=3),
    "unique-in-colour": _retired(C5, "UNIQUE_IN_COLOUR", j=1, l=2),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_reason_is_pinned(case):
    """Each certificate is refused at exactly its step, with exactly its
    reason, and the independent replayer refuses it too wherever it has
    the condition."""
    g, cert, idx, message, replayer_has_it = REFUSALS[case]
    result = verify_certificate(g, cert)
    assert (result.ok, result.step_index, result.message) == \
        (False, idx, message)
    if replayer_has_it:
        assert not IndependentReplayer(g.n, g.edges()).accepts(cert)


def test_truncated_certificate_is_rejected():
    g, cert = _lemma_certificate("K2xC6")
    truncated = Certificate(cert.verdict, cert.n, cert.edges, cert.steps[:-1])
    assert not verify_certificate(g, truncated)


def test_forged_witness_rejected():
    g = build_named("C12")  # has no disjoint automorphisms at all
    from qsym.perms import parse_cycles
    sigma = parse_cycles("(1 7)", 12)
    tau = parse_cycles("(4 10)", 12)
    cert = Certificate.for_graph(
        g, cm.VERDICT_HAS, [step(cm.DISJOINT_WITNESS, sigma=sigma, tau=tau)])
    result = verify_certificate(g, cert)
    assert not result and "not an automorphism" in result.message


def test_forged_injectivity_rejected():
    g = circulant(12, 2)  # cosine sums collide for this one
    cert = Certificate.for_graph(
        g, cm.VERDICT_NONE, [step(cm.INJECTIVE_F, n=12, chords=(2,))])
    assert not verify_certificate(g, cert)


def test_injectivity_step_for_a_foreign_n_is_refused_before_any_rebuild(
        monkeypatch):
    """A step naming another ``n`` is refused without building its
    circulant, whose cost grows as n^2: ``n=4000`` on C5 must not wait.
    The check reads the graph's own spec, so only C5 is rebuilt."""
    build = qsym.graphs.build_circulant

    def own_n_only(spec):
        assert spec.n == 5, f"built the circulant of n={spec.n}"
        return build(spec)

    monkeypatch.setattr(qsym.graphs, "build_circulant", own_n_only)
    g = cycle_graph(5)
    for n in (4000, 6):
        cert = Certificate.for_graph(
            g, cm.VERDICT_NONE, [step(cm.INJECTIVE_F, n=n, chords=())])
        result = verify_certificate(g, cert)
        assert not result and result.step_index == 0
        assert result.message.endswith(
            "circulant spec does not rebuild the graph")
        assert not IndependentReplayer(g.n, g.edges()).accepts(cert)


def test_injectivity_certificate_for_k33_rejected_by_both_verifiers():
    """C6(3) = K3,3 has quantum symmetry, so no proof of its absence may
    verify; the paper's cosine sums call it injective, its spectrum is not."""
    g = circulant(6, 3)
    assert decide(g).kind == "HasQuantumSymmetry"
    cert = Certificate.for_graph(
        g, cm.VERDICT_NONE, [step(cm.INJECTIVE_F, n=6, chords=(3,))])
    result = verify_certificate(g, cert)
    assert not result and "not injective" in result.message
    assert not IndependentReplayer(g.n, g.edges()).accepts(cert)
    text = serialize_certificate(cert)
    assert "step INJECTIVE_F n=6 chords=3\n" in text


def test_injectivity_step_with_values_field_is_refused():
    text = serialize_certificate(decide(circulant(12, 3)).certificate)
    assert "step INJECTIVE_F n=12 chords=3\n" in text
    old = "chords=3 values=0.8660254037844387,-0.5,6.123233995736766e-17"
    with pytest.raises(ValueError, match="takes the fields"):
        parse_certificate(text.replace("chords=3", old))


def test_malformed_step_fields_do_not_crash():
    g, cert = _lemma_certificate("C5")
    bad = Certificate(cert.verdict, cert.n, cert.edges,
                      (step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=3, q=99),)
                      + cert.steps)
    result = verify_certificate(g, bad)
    assert not result and result.step_index == 0


def test_one_common_neighbour_needs_an_edge():
    """On an edgeless graph the retired whole-graph rule was not vacuously
    true.  Its step there, in front of a conclusion that both verifiers
    accept alone, is refused by both at that step."""
    g = Graph(1, [])
    conclusion = step(cm.CONCLUSION_COMMUTATIVE, bases=(1,))
    cert = Certificate.for_graph(
        g, cm.VERDICT_NONE,
        [cm.ProofStep("ONE_COMMON_NEIGHBOUR"), conclusion])
    replayer = IndependentReplayer(g.n, g.edges())
    assert not replayer.accepts(cert)
    result = verify_certificate(g, cert)
    assert (result.ok, result.step_index, result.message) == \
        (False, 0, "unknown step kind ONE_COMMON_NEIGHBOUR")
    alone = Certificate.for_graph(g, cm.VERDICT_NONE, [conclusion])
    assert verify_certificate(g, alone) and replayer.accepts(alone)


def test_one_common_neighbour_gen_checks_the_whole_graph():
    """On C15(2,5) the step ONE_COMMON_NEIGHBOUR_GEN j=1 l=6 q=11 meets
    every local condition of the retired generalized rule; only its side
    condition on the whole graph failed.  Both verifiers now refuse the
    step by its kind in front of a proof that they accept, and the refusal
    is the same whether ``decide`` has run on the graph or it is fresh."""
    warm = circulant(15, 2, 5)
    cert = decide(warm, engine="lemmas").certificate
    forged = Certificate(
        cert.verdict, cert.n, cert.edges,
        (cm.ProofStep("ONE_COMMON_NEIGHBOUR_GEN", {"j": 1, "l": 6, "q": 11}),)
        + cert.steps)
    fresh = circulant(15, 2, 5)
    assert fresh.adjacent(1, 6) and common_neighbours(fresh, 1, 6) == [11]
    for g in (fresh, warm):
        result = verify_certificate(g, forged)
        assert (result.ok, result.step_index, result.message) == \
            (False, 0, "unknown step kind ONE_COMMON_NEIGHBOUR_GEN")
        assert verify_certificate(g, cert)
    replayer = IndependentReplayer(fresh.n, fresh.edges())
    assert replayer.accepts(cert) and not replayer.accepts(forged)


def test_unknown_verdict_is_rejected():
    g = Graph(1, [])
    cert = Certificate.for_graph(g, "maybe", [])
    assert not IndependentReplayer(g.n, g.edges()).accepts(cert)
    assert not verify_certificate(g, cert)


def test_parse_rejects_truncated_text():
    with pytest.raises(ValueError):
        parse_certificate("qsym-certificate v3\n")
    with pytest.raises(ValueError):
        parse_certificate("")


def test_parse_refuses_a_v1_certificate_by_name():
    text = serialize_certificate(_lemma_certificate("C5")[1])
    assert text.startswith("qsym-certificate v3\n")
    with pytest.raises(ValueError, match="v1"):
        parse_certificate(text.replace("v3", "v1", 1))


def test_parse_refuses_a_v2_certificate_by_name():
    """v2 named an automorphism in every AUT_TRANSFER and VERTEX_TRANSIT
    step; a v2 file is refused by its header, before any step is read."""
    text = serialize_certificate(_lemma_certificate("C5")[1])
    with pytest.raises(ValueError, match="qsym-certificate v2 is retired"):
        parse_certificate(text.replace("v3", "v2", 1))


def test_parse_rejects_unknown_and_missing_fields():
    g, cert = _lemma_certificate("C5")
    text = serialize_certificate(cert)
    assert "step ADJ_COMMUTE_CLOSE j=1 l=3\n" in text
    for bad in ("step ADJ_COMMUTE_CLOSE j=1 l=3 bogus=3\n",
                "step CHOOSE_Q_MIDDLE j=1 l=2 p=3\n",
                "step ADJ_COMMUTE_CLOSE j=1 l=3 j=1\n"):
        with pytest.raises(ValueError):
            parse_certificate(text.replace("step ADJ_COMMUTE_CLOSE j=1 l=3\n",
                                           bad))


def test_step_takes_exactly_its_rule_fields():
    """A step missing a field used to pass ``step`` and then crash
    ``serialize_step`` with a KeyError."""
    assert serialize_step(step(cm.CHOOSE_Q_MIDDLE, j=1, l=2, p=3, q=1)) \
        == "CHOOSE_Q_MIDDLE j=1 l=2 p=3 q=1"
    for fields in ({"j": 1, "l": 2, "p": 3},
                   {"j": 1, "l": 2, "p": 3, "q": 1, "survivors": (1,)}):
        with pytest.raises(ValueError, match="takes the fields"):
            step(cm.CHOOSE_Q_MIDDLE, **fields)
    with pytest.raises(ValueError, match="takes the fields"):
        step(cm.CONCLUSION_COMMUTATIVE, bases=(1,), kind=3)
    with pytest.raises(ValueError, match="unknown step kind"):
        step("BOGUS")
    g, cert = _lemma_certificate("C5")
    text = serialize_certificate(cert)
    line = "step CONCLUSION_COMMUTATIVE bases=1\n"
    assert line in text
    for bad, message in (
            ("step CONCLUSION_COMMUTATIVE bases=1 kind=3\n",
             "takes the fields"),
            ("step BOGUS j=1\n", "unknown step kind")):
        with pytest.raises(ValueError, match=message):
            parse_certificate(text.replace(line, bad))


def test_rule_checks_take_their_fields_in_table_order():
    """The engine calls some checks positionally, and serialization writes
    fields in table order, so the two must agree for every kind."""
    for kind, rule in cm.RULES.items():
        params = [p.name for p in
                  inspect.signature(rule.check).parameters.values()
                  if p.default is inspect.Parameter.empty]
        assert tuple(params[1:]) == rule.fields, kind


# the fields that name a vertex, one or a list of them
VERTEX_NAMES = ("j", "l", "p", "q")
VERTEX_LISTS = ("survivors", "bases")


@pytest.mark.parametrize("bad", [-1, 0, 6])
def test_vertex_fields_outside_1_to_n_are_refused_by_both_verifiers(bad):
    """CHOOSE_Q_RIGHT j=-1 l=1 q=1 survivors=2,5 used to pass both
    verifiers on C5, as Python reads row[-1] as the row of vertex 5.  Set
    to -1, 0 or n+1, every vertex field of every step is refused."""
    g = cycle_graph(5)
    replayer = IndependentReplayer(g.n, g.edges())
    cert = decide(g, engine="lemmas").certificate
    forged = cm.ProofStep(cm.CHOOSE_Q_RIGHT,
                          {"j": bad, "l": 1, "q": 1, "survivors": (2, 5)})
    mutants = [cert.steps[:-1] + (forged,) + cert.steps[-1:]]
    _, worked = _lemma_certificate("C5")
    covered = set()
    for idx, s in enumerate(worked.steps):
        for key, value in s.fields.items():
            if key in VERTEX_NAMES:
                value = bad
            elif key in VERTEX_LISTS:
                value = (bad,) + value[1:]
            else:
                continue
            covered.add(key)
            mutants.append(worked.steps[:idx]
                           + (cm.ProofStep(s.kind, {**s.fields, key: value}),)
                           + worked.steps[idx + 1:])
    assert covered == set(VERTEX_NAMES + VERTEX_LISTS)
    for steps in mutants:
        mutant = Certificate(cert.verdict, cert.n, cert.edges, steps)
        result = verify_certificate(g, mutant)
        assert not result and "outside the vertices 1..5" in result.message, steps
        assert not replayer.accepts(mutant), steps


def test_forged_vertex_text_is_refused():
    g = cycle_graph(5)
    text = serialize_certificate(decide(g, engine="lemmas").certificate)
    conclusion = "step CONCLUSION_COMMUTATIVE bases=1\n"
    assert text.endswith(conclusion)
    forged = "step CHOOSE_Q_RIGHT j={} l=1 q=1 survivors=2,5\n"
    with pytest.raises(ValueError, match="not a decimal integer: '-1'"):
        parse_certificate(text.replace(conclusion, forged.format(-1)
                                       + conclusion))
    for bad in (0, 6):
        back = parse_certificate(text.replace(conclusion, forged.format(bad)
                                              + conclusion))
        assert not verify_certificate(g, back)
        assert not IndependentReplayer(g.n, g.edges()).accepts(back)


def _c5_text():
    text = serialize_certificate(decide(cycle_graph(5), engine="lemmas")
                                 .certificate)
    assert "step ADJ_COMMUTE_CLOSE j=1 l=3\n" in text
    assert serialize_certificate(parse_certificate(text)) == text
    return text


# Step kinds that earlier v3 certificates could carry, each with a line
# of its fields.  The search rules derive the facts of the first four,
# and the replay state closes every commute fact under the generators
# itself, so the rule table no longer has them.
RETIRED_STEP_LINES = {
    "QUADRANGLE_FREE": "QUADRANGLE_FREE",
    "ONE_COMMON_NEIGHBOUR": "ONE_COMMON_NEIGHBOUR",
    "ONE_COMMON_NEIGHBOUR_GEN": "ONE_COMMON_NEIGHBOUR_GEN j=1 l=2 q=3",
    "UNIQUE_IN_COLOUR": "UNIQUE_IN_COLOUR j=1 l=2",
    "ORBIT_CLOSE": "ORBIT_CLOSE",
}


@pytest.mark.parametrize("kind", RETIRED_STEP_LINES)
def test_retired_step_kinds_are_refused_by_name(kind):
    """A v3 text that carries a retired step before its conclusion is
    refused by the parser and the verifier, each naming the kind, and by
    the replayer; without that line the same v3 text replays."""
    g = cycle_graph(5)
    text = _c5_text()
    conclusion = "step CONCLUSION_COMMUTATIVE bases=1\n"
    line = RETIRED_STEP_LINES[kind]
    with pytest.raises(ValueError, match=f"unknown step kind '{kind}'"):
        parse_certificate(text.replace(conclusion,
                                       f"step {line}\n{conclusion}"))
    cert = parse_certificate(text)
    fields = dict(tok.split("=") for tok in line.split()[1:])
    retired = cm.ProofStep(kind, {k: int(v) for k, v in fields.items()})
    at = len(cert.steps) - 1
    forged = Certificate(cert.verdict, cert.n, cert.edges,
                         cert.steps[:at] + (retired,) + cert.steps[at:])
    result = verify_certificate(g, forged)
    assert (result.ok, result.step_index, result.message) == \
        (False, at, f"unknown step kind {kind}")
    replayer = IndependentReplayer(g.n, g.edges())
    assert not replayer.accepts(forged)
    assert verify_certificate(g, cert) and replayer.accepts(cert)


def test_parse_refuses_a_line_that_is_no_record():
    text = _c5_text()
    for bad in ("edge 1 2", "# note", "step", "steps GENERATOR"):
        with pytest.raises(ValueError, match=f"record: '{bad}'"):
            parse_certificate(text + bad + "\n")


def test_parse_refuses_a_second_verdict():
    text = _c5_text().replace("graph p 5\n", "graph p 5\n"
                              "verdict has_quantum_symmetry\n")
    with pytest.raises(ValueError, match="'verdict has_quantum_symmetry'"):
        parse_certificate(text)


def test_parse_refuses_an_underscore_in_an_integer():
    """int() reads 0_1 as 1, which writes back as 1."""
    text = _c5_text().replace("ADJ_COMMUTE_CLOSE j=1 l=3",
                              "ADJ_COMMUTE_CLOSE j=0_1 l=3")
    with pytest.raises(ValueError, match="not a decimal integer: '0_1'"):
        parse_certificate(text)


def test_parse_refuses_a_signed_integer():
    text = _c5_text().replace("ADJ_COMMUTE_CLOSE j=1 l=3",
                              "ADJ_COMMUTE_CLOSE j=1 l=+3")
    with pytest.raises(ValueError, match=r"not a decimal integer: '\+3'"):
        parse_certificate(text)


def test_parse_refuses_a_signed_integer_in_a_graph_record():
    """The graph records are read through the same decimal reader as the
    step fields, so ``+1`` is refused before any read-back."""
    forged = _c5_text().replace("graph e 1 2", "graph e +1 2", 1)
    with pytest.raises(GraphError, match="non-integer endpoint"):
        parse_certificate(forged)


@pytest.mark.parametrize("blank_lines, canonical, variant, line", [
    (0, "graph e 1 2", "graph e +1 2", 4),
    (2, "graph e 2 3", "graph e 2 x", 8),
])
def test_parse_names_a_bad_graph_record_by_its_line_in_the_file(
        blank_lines, canonical, variant, line):
    """A bad graph record is reported with its line number in the whole
    text, blank lines included, not its position among the graph
    records."""
    forged = "\n" * blank_lines + _c5_text().replace(canonical, variant, 1)
    assert forged.splitlines()[line - 1] == variant
    with pytest.raises(GraphError,
                       match=f"^line {line}: non-integer endpoint"):
        parse_certificate(forged)


@pytest.mark.parametrize("variant, fault", [
    ("e 4 9", "edge (4,9) out of range 1..5"),
    ("e 4 4", "loop at vertex 4"),
])
def test_an_edge_that_leaves_a_simple_graph_is_named_by_its_line(
        variant, fault):
    """An endpoint outside 1..n and a loop are refused with the line of
    their record, in a graph file and in a certificate's graph records."""
    with pytest.raises(GraphError, match=re.escape(f"line 4: {fault}")):
        read_graph(f"p 5\ne 1 2\n\n{variant}\n")
    forged = _c5_text().replace("graph e 4 5", f"graph {variant}", 1)
    line = forged.splitlines().index(f"graph {variant}") + 1
    with pytest.raises(GraphError,
                       match="^" + re.escape(f"line {line}: {fault}") + "$"):
        parse_certificate(forged)


def test_a_graph_without_vertices_is_named_by_its_line():
    """``p 0`` is refused at its own record, in a graph file and in a
    certificate's graph records, before any edge is read."""
    with pytest.raises(GraphError, match=re.escape(
            "line 2: need at least one vertex, got n=0")):
        read_graph("# empty\np 0\n")
    forged = _c5_text().replace("graph p 5", "graph p 0", 1)
    line = forged.splitlines().index("graph p 0") + 1
    with pytest.raises(GraphError, match="^" + re.escape(
            f"line {line}: need at least one vertex, got n=0") + "$"):
        parse_certificate(forged)


@pytest.mark.parametrize("records, index, refusal", [
    (["e 1 2", "p 5"], 0, "edge before 'p' line"),
    (["p 5", "e 1 2", "p 5"], 2, "repeated p line"),
    (["p 5", "e 1 2 3"], 1, "expected 'e <i> <j>'"),
    (["p 5", "e 1"], 1, "expected 'e <i> <j>'"),
    (["p 5 5", "e 1 2"], 0, "expected 'p <n>'"),
    (["p", "e 1 2"], 0, "expected 'p <n>'"),
    (["p 5", "v 1 2"], 1, "unknown record 'v'"),
])
def test_every_graph_record_refusal_is_named_by_its_line(
        records, index, refusal):
    """Each refusal of the graph record reader comes with the line of its
    record: in a graph file, and in a certificate's graph records, where
    the line counts the header, the verdict and blank lines."""
    with pytest.raises(GraphError) as refused:
        read_graph("\n".join(["# a comment", ""] + records) + "\n")
    assert str(refused.value) == f"line {index + 3}: {refusal}"
    head, rest = _c5_text().splitlines()[:2], _c5_text().splitlines()[2:]
    steps = [ln for ln in rest if ln.startswith("step ")]
    forged = "\n".join(head + [""] + [f"graph {r}" for r in records]
                       + steps) + "\n"
    with pytest.raises(GraphError) as refused:
        parse_certificate(forged)
    assert str(refused.value) == f"line {index + 4}: {refusal}"


def test_a_graph_record_after_the_steps_is_refused_by_read_back():
    """A ``graph e`` record moved after the steps still states the same
    graph, so the record reader accepts it; the read-back then refuses the
    text, naming the first line out of place."""
    lines = _c5_text().splitlines()
    moved = lines.index("graph e 4 5")
    forged = "\n".join(lines[:moved] + lines[moved + 1:] + [lines[moved]])
    after = lines[moved + 1]
    with pytest.raises(ValueError, match="^" + re.escape(
            f"certificate line {after!r} does not read back: the "
            f"serialization has 'graph e 4 5' in its place") + "$"):
        parse_certificate(forged)


@pytest.mark.parametrize("canonical, variant", [
    ("graph e 1 2", "graph e 2 1"),
    ("graph e 1 2", "graph e 01 2"),
    ("graph e 1 2", "graph e 1 2 # x"),
    ("ADJ_COMMUTE_CLOSE j=1 l=3", "ADJ_COMMUTE_CLOSE j=01 l=3"),
    ("phi=(1,2)(3,5)", "phi=(3,5)(2,1)"),
    ("verdict no_quantum_symmetry", "verdict  no_quantum_symmetry"),
    ("ADJ_COMMUTE_CLOSE j=1 l=3", "ADJ_COMMUTE_CLOSE j=1  l=3"),
    ("ADJ_COMMUTE_CLOSE j=1 l=3", "ADJ_COMMUTE_CLOSE l=3 j=1"),
    ("step ADJ_COMMUTE_CLOSE j=1 l=3", "step  ADJ_COMMUTE_CLOSE j=1 l=3"),
])
def test_parse_refuses_text_that_does_not_read_back(canonical, variant):
    """Each variant means the same certificate as C5's own text, but it
    would serialize back as the canonical line, so it is refused by name."""
    text = _c5_text()
    forged = text.replace(canonical, variant, 1)
    line = next(ln for ln in forged.splitlines() if variant in ln)
    with pytest.raises(ValueError, match=re.escape(
            f"certificate line {line!r} does not read back: the "
            f"serialization has {line.replace(variant, canonical)!r}")):
        parse_certificate(forged)


def test_an_injectivity_step_before_a_lemma_log_replays_in_both_verifiers():
    """INJECTIVE_F holds for C7(2), and a closed lemma log after it still
    proves the verdict, so both verifiers accept the two together.  The
    step's chords are read without disturbing the pair colours that the
    later steps are checked against."""
    g = circulant(7, 2)
    kb, closed, _ = lemma_fixpoint(g, automorphism_group(g))
    assert closed
    cert = Certificate.for_graph(g, cm.VERDICT_NONE, kb.log)
    assert any(s.kind == cm.CHOOSE_Q_MIDDLE for s in cert.steps)
    both = Certificate(cert.verdict, cert.n, cert.edges,
                       (step(cm.INJECTIVE_F, n=7, chords=(2,)),) + cert.steps)
    assert "step INJECTIVE_F n=7 chords=2\n" in serialize_certificate(both)
    assert verify_certificate(g, both)
    assert IndependentReplayer(g.n, g.edges()).accepts(both)
