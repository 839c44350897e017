"""Lemma engine: candidate reduction, the middle rule, fixpoint behaviour,
decide."""

import dataclasses
import functools
import hashlib
import time

import pytest

import qsym.certificate as cm
import qsym.engine as engine
from qsym.engine import (
    CommutationKB,
    EngineError,
    decide,
    lemma_fixpoint,
    prove_pair,
    reduce_candidates,
)
from qsym.certificate import (
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from qsym.catalog import entry_by_name, run_entry, twelve_vertex_entries
from qsym.graphs import (
    Graph,
    disjoint_copies,
    injective_f_check,
)
from qsym.named import (
    build_named,
    circulant,
    complete_graph,
    cycle_graph,
    edgeless_graph,
)
from qsym.perms import (
    AutGroup,
    DeadlineExceeded,
    act_on_pair,
    automorphism_group,
    find_disjoint_automorphisms,
    walk,
)

from replayer import IndependentReplayer, closure
from util import (
    circulants,
    commute_pairs,
    derivation,
    discrete_colouring,
    latin_square_graph,
    overlapping_witness,
    random_corpus,
    transversal_chain,
)


def _pairs_with(kb, kind, **match):
    out = []
    for s in kb.log:
        if s.kind != kind:
            continue
        if all(s.fields.get(k) == v for k, v in match.items()):
            out.append(s)
    return out


def test_seed_requires_connected():
    """The lemma engine starts no knowledge base on a disconnected graph."""
    with pytest.raises(EngineError, match="requires a connected graph"):
        lemma_fixpoint(disjoint_copies(complete_graph(2), 6))


def test_reduce_candidates_c5():
    g = cycle_graph(5)
    kb = CommutationKB(g)
    kb._commute(3, 2)  # the edge fact the reduction uses
    survivors = reduce_candidates(kb, 1, 3)
    assert survivors == {1}
    steps = _pairs_with(kb, cm.CHOOSE_Q_RIGHT, j=1, l=3)
    assert steps and steps[0].q == 2 and steps[0].survivors == (1,)


def test_reduce_candidates_k2c6():
    g = build_named("K2xC6")
    kb = CommutationKB(g)
    kb._commute(7, 2)  # the distance-2 fact the reduction uses
    survivors = reduce_candidates(kb, 1, 7)
    assert survivors == {1, 8}
    step = _pairs_with(kb, cm.CHOOSE_Q_RIGHT, j=1, l=7)[0]
    assert step.q == 2 and step.survivors == (1, 8)


def test_reduce_candidates_without_usable_q_is_p0():
    g = circulant(12, 2)
    kb = CommutationKB(g)
    d = g.distances()
    survivors = reduce_candidates(kb, 1, 7)
    assert survivors == {p for p in g.vertices() if d[p][7] == d[1][7]}
    assert not _pairs_with(kb, cm.CHOOSE_Q_RIGHT)


def _smallest_kill(kb, j, l, p):
    """The q the engine proposes for killing u_ij u_kl u_ip, or None."""
    qs = cm.middle_qs(kb, j, l, p)
    return cm.bits(qs[1])[0] if qs is not None and qs[1] else None


def test_kill_choose_q_middle_examples():
    assert _smallest_kill(CommutationKB(cycle_graph(5)), 1, 2, 3) == 1
    kb = CommutationKB(build_named("K2xC6"))
    assert _smallest_kill(kb, 1, 3, 5) == 1
    # |CN(3,8)| = 0 and |CN(3,10)| = 2 differ from |CN(1,3)| = 1, so the
    # colour of (l,p) differs from that of (j,l): no candidate for any q
    assert _smallest_kill(kb, 1, 3, 8) is None
    assert _smallest_kill(kb, 1, 3, 10) is None


def test_every_logged_step_passed_its_check(monkeypatch):
    """The search applies no step its rule's check has not accepted: each
    step of a lemma log was accepted in the state it was applied in, the
    state named by the log's length at the time."""
    accepted = set()
    for kind, rule in list(cm.RULES.items()):
        def check(kb, _kind=kind, _check=rule.check, **fields):
            why = _check(kb, **fields)
            if why is None:
                accepted.add((id(kb), len(kb.log),
                              str(cm.ProofStep(_kind, fields))))
            return why
        monkeypatch.setitem(cm.RULES, kind,
                            dataclasses.replace(rule, check=check))
    for name in ("C5", "K2xC6", "C12(2)"):
        kb, closed, _ = lemma_fixpoint(build_named(name))
        assert closed, name
        kinds = {s.kind for s in kb.log}
        assert cm.CHOOSE_Q_MIDDLE in kinds, name
        for idx, s in enumerate(kb.log):
            assert (id(kb), idx, str(s)) in accepted, (name, idx, str(s))


def test_p0_excludes_common_neighbour_mismatches():
    """The hand proofs killed these p by the common-neighbour corollary;
    the pair colour leaves them out of P0 from the start."""
    g = build_named("K2xC6")
    assert not CommutationKB(g).survivors(1, 3) >> 10 & 1
    h = circulant(12, 4, 6)
    assert not CommutationKB(h).survivors(1, 4) >> 6 & 1
    # |CN(1,3)| = |CN(3,5)| = 1
    assert CommutationKB(g).survivors(1, 3) >> 5 & 1


def test_prove_pair_unique_in_colour():
    """P0 for (1,10) is {1}: no other vertex has 1's colour to 10, so no
    candidate is left to reduce or kill, and the close alone proves the
    pair."""
    g = build_named("K2xC6")
    kb = CommutationKB(g)
    assert kb.survivors(1, 10) == 1 << 1
    assert prove_pair(kb, 1, 10)
    assert [str(s) for s in kb.log] == ["ADJ_COMMUTE_CLOSE j=1 l=10"]


def test_prove_pair_c5_adjacent():
    g = cycle_graph(5)
    kb = CommutationKB(g)
    assert prove_pair(kb, 1, 2)
    kinds = [s.kind for s in kb.log]
    assert cm.CHOOSE_Q_MIDDLE in kinds and kinds[-1] == cm.ADJ_COMMUTE_CLOSE


def test_prove_pair_refuses_a_pair_across_components():
    """K1 + K3: vertex 1 is isolated, so no rule may speak of (1,2)."""
    kb = CommutationKB(Graph(4, [(2, 3), (3, 4), (2, 4)]))
    with pytest.raises(EngineError, match=r"\(1,2\) lie in different "
                       "components"):
        prove_pair(kb, 1, 2)
    assert kb.log == []


def test_prove_pair_must_fail_on_quantum_graph():
    g = circulant(12, 5)
    kb = CommutationKB(g)
    assert not prove_pair(kb, 1, 2)
    assert not kb.knows_commute(1, 2)
    # partial kills are retained
    assert (1, 2) in kb.candidates


def test_close_transfers_through_the_mirror():
    """Proving only commute({1,3}) on the hexagonal prism must reach {1,5}
    through the mirror fixing vertex 1, in the library and in the
    replayer's own closure."""
    g = build_named("K2xC6")
    aut = automorphism_group(g)
    assert any(phi(1) == 1 and {phi(3), phi(5)} == {3, 5}
               for phi in aut.generators)
    kb = CommutationKB(g)
    for phi in aut.generators:
        kb.apply(cm.step(cm.GENERATOR, phi=phi))
    kb.apply(cm.step(cm.ADJ_COMMUTE_CLOSE, j=1, l=3))
    orbit = closure({frozenset((1, 3))}, aut.generators)
    assert kb.knows_commute(1, 5) and frozenset((1, 5)) in orbit
    assert commute_pairs(kb) == orbit


def test_a_generator_stated_after_commute_facts_transports_them(
        monkeypatch):
    """A GENERATOR step walks every known fact under all the generators
    stated so far.  On C5, the fact {1,2} is proved before any generator
    is stated; the generators come after it, with no other step, and the
    candidate reduction that needs commute({2,3}) still verifies in both
    verifiers.  A generator effect that walks no earlier fact refuses
    that certificate."""
    g = cycle_graph(5)
    cert = decide(g, engine="lemmas").certificate
    gens = [s for s in cert.steps if s.kind == cm.GENERATOR]
    rest = [s for s in cert.steps if s.kind != cm.GENERATOR]
    at = [s.kind for s in rest].index(cm.ADJ_COMMUTE_CLOSE) + 1
    assert [(s.j, s.l) for s in rest[:at]] == [(1, 2)] * 2
    late = cm.Certificate.for_graph(g, cm.VERDICT_NONE,
                                    rest[:at] + gens + rest[at:])
    assert verify_certificate(g, late)
    assert IndependentReplayer(g.n, g.edges()).accepts(late)

    add_generator = cm.CommutationKB._add_generator

    def walks_no_earlier_fact(kb, phi):
        known, kb.commute = kb.commute, set()
        add_generator(kb, phi)
        kb.commute = known

    monkeypatch.setitem(cm.RULES, cm.GENERATOR, dataclasses.replace(
        cm.RULES[cm.GENERATOR], effect=walks_no_earlier_fact))
    assert verify_certificate(g, cert)
    result = verify_certificate(g, late)
    assert (result.step_index, result.message) == (
        at + len(gens), "CHOOSE_Q_RIGHT: commute({l,q}) not yet established")


def test_a_diagonal_fact_closes_under_the_generators():
    """ADJ_COMMUTE_CLOSE j=l holds (the only candidate is j), and its fact
    {j} is a one-vertex set; the replay state must carry it to {phi(j)}
    in both verifiers rather than fail on it."""
    g = cycle_graph(5)
    cert = decide(g, engine="lemmas").certificate
    steps = (cert.steps[:-1] + (cm.step(cm.ADJ_COMMUTE_CLOSE, j=2, l=2),)
             + cert.steps[-1:])
    forged = cm.Certificate(cert.verdict, cert.n, cert.edges, steps)
    assert verify_certificate(g, forged)
    assert IndependentReplayer(g.n, g.edges()).accepts(forged)
    kb = CommutationKB(g)
    for s in steps[:-1]:
        kb.apply(s)
    assert {frozenset((v,)) for v in g.vertices()} <= commute_pairs(kb)


def test_pair_tables_map_each_pair_code_as_act_on_pair_maps_the_pair():
    """The pair table of a stated generator phi sends the code of (i, j),
    i*(n+1) + j in either order, to the code a*(n+1) + b of {phi(i),
    phi(j)} = {a, b}, a <= b: every generator of the 37 catalog rows and
    of the circulants with n <= 12, every pair of vertices 1..n, the
    diagonal and vertex n included."""
    graphs = [e.build() for e in twelve_vertex_entries()] + circulants(12)
    checked = 0
    for g in graphs:
        kb = CommutationKB(g)
        for phi in automorphism_group(g).generators:
            kb.apply(cm.step(cm.GENERATOR, phi=phi))
        m = g.n + 1
        for phi, table in zip(kb.generators, kb.tables):
            assert len(table) == m * m
            for i in g.vertices():
                for j in g.vertices():
                    a, b = divmod(table[i * m + j], m)
                    assert a <= b and {a, b} == \
                        act_on_pair(phi, frozenset((i, j))), (g.label, i, j)
            checked += 1
    assert checked > len(graphs)


def test_commute_facts_are_the_closure_of_the_stated_ones_after_every_step():
    """Replaying each closed certificate of the circulants with n <= 12
    and of ``util.random_corpus`` step by step, the commute facts after
    every step equal the closure of the pairs that the ADJ_COMMUTE_CLOSE
    steps so far stated, under the generators stated so far, walked with
    ``act_on_pair``: nothing is missed, and no fact outside the orbits
    is added."""
    replayed = 0
    for corpus in ("circulants", "random"):
        for i, g, v in _lemma_verdicts(corpus):
            if v.kind != "NoQuantumSymmetry" or g.n > 12:
                continue
            replayed += 1
            kb, m, stated = CommutationKB(g), g.n + 1, set()
            for s in v.certificate.steps:
                kb.apply(s)
                if s.kind == cm.ADJ_COMMUTE_CLOSE:
                    stated.add(frozenset((s.j, s.l)))
                known = walk(set(stated), stated, kb.generators, act_on_pair)
                assert kb.commute == {min(p) * m + max(p) for p in known}, \
                    (corpus, i)
    assert replayed == 54 + 172


def test_kb_is_union_of_pair_orbits_after_fixpoint():
    for name in ("C12(2)", "K2xC6", "L(C6(2))", "C12(5)", "K2xC6(2)"):
        g = build_named(name)
        aut = automorphism_group(g)
        kb, _, _ = lemma_fixpoint(g, aut)
        pairs = commute_pairs(kb)
        assert all(act_on_pair(gen, pair) in pairs
                   for gen in aut.generators for pair in pairs), name


def test_fixpoint_monotone_and_deterministic():
    g = build_named("C12(2,6)")
    kb1, closed1, _ = lemma_fixpoint(g)
    kb2, closed2, _ = lemma_fixpoint(g)
    assert closed1 and closed2
    assert [str(a) for a in kb1.log] == [str(b) for b in kb2.log]


def test_decide_c5():
    v = decide(cycle_graph(5))
    assert v.kind == "NoQuantumSymmetry"
    assert verify_certificate(cycle_graph(5), v.certificate)


def test_decide_c12_5_has_witness():
    g = circulant(12, 5)
    v = decide(g)
    assert v.kind == "HasQuantumSymmetry"
    sigma, tau = v.witness
    assert not set(sigma.support()) & set(tau.support())
    assert verify_certificate(g, v.certificate)


def test_decide_k2c6():
    g = build_named("K2xC6")
    v = decide(g)
    assert v.kind == "NoQuantumSymmetry"
    assert verify_certificate(g, v.certificate)


def test_decide_timeout_returns_undecided():
    g = build_named("K2xC6(2)")  # quantum; the fixpoint cannot close it
    v = decide(g, engine="lemmas", timeout=0.0)
    assert v.kind == "Undecided" and v.reason == "timeout"


def test_decide_refuses_a_nan_timeout():
    """Every deadline test against nan reads False, so a nan timeout
    would never expire; decide refuses it as it does an unknown engine,
    and run_entry records the refusal as an error row."""
    g = circulant(16, 2, 3, 4, 6, 7, 8)
    assert decide(g, engine="lemmas", timeout=1e-9).reason == "timeout"
    for engine_name in ("auto", "lemmas"):
        with pytest.raises(ValueError, match="timeout is nan"):
            decide(g, engine=engine_name, timeout=float("nan"))
    record = run_entry(entry_by_name("C4"), timeout=float("nan"))
    assert record["error"] == "ValueError: timeout is nan"


def test_decide_timeout_covers_disjoint_scan(monkeypatch):
    """The scan itself stops at the deadline: no later stage runs."""
    def later_stage(*_args):
        raise AssertionError("decide ran past the disjoint scan")

    monkeypatch.setattr("qsym.engine.injective_f_check", later_stage)
    monkeypatch.setattr("qsym.engine.automorphism_group", later_stage)
    v = decide(circulant(16, 3), engine="auto", timeout=0.0)
    assert v.kind == "Undecided" and v.reason == "timeout"


def test_decide_timeout_covers_aut_group(monkeypatch):
    """The group search itself stops at the deadline: the fixpoint never
    runs."""
    def later_stage(*_args, **_kwargs):
        raise AssertionError("decide ran past the automorphism group")

    monkeypatch.setattr("qsym.engine.lemma_fixpoint", later_stage)
    v = decide(circulant(12, 2), engine="lemmas", timeout=0.0)
    assert v.kind == "Undecided" and v.reason == "timeout"


def test_lemma_fixpoint_bounds_the_group_by_its_deadline(monkeypatch):
    seen = []

    def spy(g, deadline=None):
        seen.append(deadline)
        return automorphism_group(g, deadline=deadline)

    monkeypatch.setattr("qsym.engine.automorphism_group", spy)
    deadline = time.monotonic() + 3600
    _, closed, _ = lemma_fixpoint(build_named("K2xC6"), deadline=deadline)
    assert closed and seen == [deadline]
    with pytest.raises(DeadlineExceeded):
        lemma_fixpoint(circulant(12, 2), deadline=time.monotonic() - 1)


def test_decide_honours_a_short_timeout_on_64_vertices():
    """No size bound: the caller's deadline is the only limit.  The
    order-8 Latin square graph (64 vertices) takes 0.6-1.4 s to end
    Undecided on a shared 2-vCPU Xeon; told 0.05 s, decide says so
    within 0.5 s."""
    g = latin_square_graph(8)
    start = time.monotonic()
    v = decide(g, timeout=0.05)
    assert time.monotonic() - start < 0.5
    assert v.kind == "Undecided" and v.reason == "timeout"


def test_decide_reuses_a_given_group(monkeypatch):
    g = build_named("K2xC6")
    aut = automorphism_group(g)
    expected = decide(g)

    def recompute(_g):
        raise AssertionError("decide recomputed the group it was given")

    monkeypatch.setattr("qsym.engine.automorphism_group", recompute)
    v = decide(g, aut=aut)
    assert v.kind == "NoQuantumSymmetry" == expected.kind
    assert v.certificate == expected.certificate


def test_decide_lemmas_undecided_on_quantum_graph():
    v = decide(build_named("C12(4,5)"), engine="lemmas")
    assert v.kind == "Undecided"
    assert v.summary["commuting_pairs"] < v.summary["total_pairs"]


def test_decide_disconnected():
    assert decide(disjoint_copies(complete_graph(6), 2)).kind \
        == "HasQuantumSymmetry"
    # two isolated vertices: no disjoint pair, engine unavailable
    from qsym.named import edgeless_graph
    v = decide(edgeless_graph(2))
    assert v.kind == "Undecided"


def test_disconnected_reasons_state_only_what_was_checked():
    """On 6K2 auto finds the disjoint pair (1 2), (3 4); the lemma engine
    never scans for one, so its reason names only what it needs."""
    g = build_named("6K2")
    assert decide(g).kind == "HasQuantumSymmetry"
    v = decide(g, engine="lemmas")
    assert v.kind == "Undecided"
    assert v.reason == "the lemma engine requires a connected graph"
    assert decide(edgeless_graph(2)).reason == \
        "disconnected graph without a disjoint automorphism pair"


def test_decide_replays_every_certificate_it_returns_once(monkeypatch):
    """One replay per certificate, whichever stage produced it, and none
    for an Undecided verdict."""
    replayed, verify = [], engine.verify_certificate

    def spy(g, cert):
        replayed.append(cert)
        return verify(g, cert)

    monkeypatch.setattr(engine, "verify_certificate", spy)
    for name, stage in (("C12(5)", cm.DISJOINT_WITNESS),
                        ("C12", cm.INJECTIVE_F),
                        ("C12(2)", cm.CONCLUSION_COMMUTATIVE)):
        v = decide(build_named(name))
        assert v.certificate.steps[-1].kind == stage, name
        assert replayed == [v.certificate], name
        replayed.clear()
    assert decide(build_named("C12(4,5)"), engine="lemmas").kind == \
        "Undecided"
    assert replayed == []


def test_a_witness_that_fails_its_replay_raises(monkeypatch):
    overlapping_witness(monkeypatch)
    with pytest.raises(EngineError, match="fails verification at step 0"):
        decide(build_named("C12(5)"))


def test_a_criterion_that_fails_its_replay_raises(monkeypatch):
    """The exact criterion fails on C12(6) (lambda_3 = lambda_6 = -1); a
    stage that claims otherwise is caught by the replay."""
    monkeypatch.setattr(engine, "injective_f_check", lambda spec: (True, 6))
    with pytest.raises(EngineError, match="not injective"):
        decide(build_named("C12(6)"))


# SHA-256 over the texts of the 285 closed circulant certificates, in
# ``circulants()`` order, from the orbit-pruned chain of
# ``automorphism_group``.
PRUNED_CLOSED_CIRCULANT_CERTIFICATES_SHA256 = \
    "29fd6f56926c875d4f61537d7d567029a0792a182b81e944abf37d75a20bdab6"
# The same, from the chain that keeps every coset representative
# (``util.transversal_chain``).
CLOSED_CIRCULANT_CERTIFICATES_SHA256 = \
    "d8d219e3e4214e360d256379b2ee0383c3ccbc447a09643020ce9f3a02acba63"
# SHA-256 over the ``util.derivation`` of the same texts, under either
# chain.  It no longer ties these texts to the v2 certificates: closing
# the facts under the generators after each proved pair, not once per
# distance class, dropped the steps that derived orbit images.  The
# replay state adds the orbits under the group the generators generate,
# which both chains share, so the two still give one derivation.
CLOSED_CIRCULANT_DERIVATIONS_SHA256 = \
    "8353df1256fdbc1d88ff5a8c71a4a4b50cd0cba518d4e065b4b3c4e3df8543e9"


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


@functools.cache
def _lemma_verdicts(corpus):
    """``decide(engine="lemmas")`` on each connected graph of ``corpus``,
    the 378 circulants or ``util.random_corpus``, as (index, graph,
    verdict) triples."""
    graphs = circulants() if corpus == "circulants" else random_corpus()
    return tuple((i, g, decide(g, engine="lemmas"))
                 for i, g in enumerate(graphs) if g.is_connected())


def test_lemmas_close_exactly_the_circulants_without_a_disjoint_pair():
    """On the 378 circulants C_n(S), 5 <= n <= 16, the colour rules close
    every graph with no disjoint automorphism pair and no other; closing
    one with a pair would prove a falsehood.  Every injective circulant is
    among the closed, and each closed proof with n <= 12 replays.  The
    certificate texts are pinned, and each reads back to itself."""
    graphs = circulants()
    closed, still_open = [], []
    for _, g, v in _lemma_verdicts("circulants"):
        (closed if v.kind == "NoQuantumSymmetry" else still_open).append(
            (g, v.certificate))
    assert (len(closed), len(still_open)) == (285, 93)
    assert all(find_disjoint_automorphisms(g) for g, _ in still_open)
    assert not any(find_disjoint_automorphisms(g) for g, _ in closed)
    injective = {g for g in graphs if injective_f_check(g.circulant)[0]}
    assert len(injective) == 207 and injective <= {g for g, _ in closed}
    small = [(g, cert) for g, cert in closed if g.n <= 12]
    assert len(small) == 54
    for g, cert in small:
        assert IndependentReplayer(g.n, g.edges()).accepts(cert), g.label
    texts = [serialize_certificate(cert) for _, cert in closed]
    for (g, _), text in zip(closed, texts):
        assert serialize_certificate(parse_certificate(text)) == text, g.label
    assert _digest(texts) == PRUNED_CLOSED_CIRCULANT_CERTIFICATES_SHA256
    assert _digest(map(derivation, texts)) == \
        CLOSED_CIRCULANT_DERIVATIONS_SHA256


def _check_fixpoint_contract(g):
    """A closed log ends in its only conclusion and verifies as it stands,
    by the library and by the replayer; an open log holds no conclusion."""
    kb, closed, timed_out = lemma_fixpoint(g)
    assert not timed_out
    kinds = [s.kind for s in kb.log]
    if not closed:
        assert cm.CONCLUSION_COMMUTATIVE not in kinds, g.label
        return False
    assert kinds.count(cm.CONCLUSION_COMMUTATIVE) == 1, g.label
    assert kinds[-1] == cm.CONCLUSION_COMMUTATIVE, g.label
    cert = cm.Certificate.for_graph(g, cm.VERDICT_NONE, kb.log)
    assert verify_certificate(g, cert), g.label
    assert IndependentReplayer(g.n, g.edges()).accepts(cert), g.label
    return True


def test_a_closed_fixpoint_log_is_its_own_certificate():
    """``closed`` is the rule table's answer to the conclusion that
    ``lemma_fixpoint`` proposes last: on the 378 circulants C_n(S),
    5 <= n <= 16, it closes 285 and leaves 93 open."""
    outcomes = [_check_fixpoint_contract(g) for g in circulants()]
    assert (outcomes.count(True), outcomes.count(False)) == (285, 93)


def test_certificates_depend_only_on_the_generating_set():
    """Given the full-transversal chain's generators, the engine writes
    the 285 derivations that it writes from ``automorphism_group``'s
    pruned chain, byte for byte: the texts differ only in their GENERATOR
    lines, and this pins the identity of the rest."""
    texts = []
    for g in circulants():
        gens, order = transversal_chain(g)
        v = decide(g, engine="lemmas", aut=AutGroup(g.n, gens, order))
        if v.kind == "NoQuantumSymmetry":
            texts.append(serialize_certificate(v.certificate))
    assert len(texts) == 285
    assert _digest(texts) == CLOSED_CIRCULANT_CERTIFICATES_SHA256
    assert _digest(map(derivation, texts)) == \
        CLOSED_CIRCULANT_DERIVATIONS_SHA256


# Indices, among the 300 draws of ``util.random_corpus``, of the graphs
# that ``decide(engine="lemmas")`` closes: 172 of the 191 connected ones.
RANDOM_CORPUS_CLOSED = (
    2, 3, 4, 5, 9, 10, 14, 16, 18, 19, 22, 24, 25, 27, 28, 30, 31, 32, 38,
    39, 43, 48, 55, 58, 59, 61, 65, 66, 69, 72, 74, 75, 77, 78, 80, 82, 84,
    85, 86, 89, 91, 93, 94, 96, 97, 98, 99, 104, 105, 109, 110, 111, 112,
    113, 119, 120, 121, 123, 124, 125, 127, 128, 130, 131, 132, 133, 134,
    135, 136, 137, 138, 140, 141, 142, 145, 146, 149, 152, 154, 157, 158,
    160, 161, 163, 164, 167, 169, 170, 171, 174, 177, 178, 179, 182, 183,
    184, 185, 186, 187, 188, 189, 191, 193, 195, 196, 197, 200, 201, 202,
    203, 204, 206, 209, 212, 213, 214, 215, 217, 218, 219, 221, 222, 223,
    224, 225, 226, 227, 228, 232, 233, 234, 236, 237, 238, 240, 241, 243,
    249, 250, 251, 252, 253, 254, 255, 257, 259, 261, 262, 264, 265, 266,
    267, 268, 269, 271, 272, 277, 278, 279, 280, 281, 284, 285, 286, 287,
    290, 292, 293, 294, 295, 297, 298,
)


def test_lemmas_close_a_pinned_set_of_random_graphs():
    """The graphs the lemma engine closes on a seeded random corpus, by
    index: a change to where the search puts its steps leaves this set as
    it is, and a rule that closes more or fewer graphs moves it.  Every
    closed certificate replays independently."""
    verdicts = _lemma_verdicts("random")
    assert len(verdicts) == 191
    closed = [(i, g, v.certificate) for i, g, v in verdicts
              if v.kind == "NoQuantumSymmetry"]
    assert tuple(i for i, _, _ in closed) == RANDOM_CORPUS_CLOSED
    for i, g, cert in closed:
        assert IndependentReplayer(g.n, g.edges()).accepts(cert), i


def _idle_steps(cert):
    """Replaying ``cert``, the ADJ_COMMUTE_CLOSE steps whose pair lies in
    the closure of the facts known before them under the stated
    generators' pair tables: steps that an orbit image justifies, as
    (index, kind) pairs."""
    kb, idle = CommutationKB(cert.graph()), []
    for idx, s in enumerate(cert.steps):
        if s.kind == cm.ADJ_COMMUTE_CLOSE:
            known = walk(set(kb.commute), kb.commute, kb.tables,
                         list.__getitem__)
            if min(s.j, s.l) * kb.m + max(s.j, s.l) in known:
                idle.append((idx, s.kind))
        kb.apply(s)
    return idle


def test_no_step_proves_an_orbit_image_or_closes_under_no_generator():
    """The replay state closes the facts under the generators as each
    pair is proved, so the search never derives a pair that is an image
    of known ones, and no step of a certificate closes anything.
    Checked on every closed certificate of the 378 circulants and of the
    seeded random corpus."""
    replayed = 0
    for corpus in ("circulants", "random"):
        for i, g, v in _lemma_verdicts(corpus):
            if v.kind == "NoQuantumSymmetry":
                assert _idle_steps(v.certificate) == [], (corpus, i)
                replayed += 1
    assert replayed == 285 + 172


def _still_open(graphs):
    """The labels of ``graphs`` whose lemma fixpoint does not close."""
    return [g.label for g in graphs if not lemma_fixpoint(g)[1]]


def _closed_circulants():
    closed = [g for _, g, v in _lemma_verdicts("circulants")
              if v.kind == "NoQuantumSymmetry"]
    assert len(closed) == 285
    return closed


def test_the_candidate_reduction_earns_its_place(monkeypatch):
    """With every CHOOSE_Q_RIGHT step refused, 39 of the 285 closed
    circulants stay open, C11(2,3,4) first."""
    closed = _closed_circulants()
    rule = cm.RULES[cm.CHOOSE_Q_RIGHT]
    monkeypatch.setitem(cm.RULES, cm.CHOOSE_Q_RIGHT, dataclasses.replace(
        rule, check=lambda kb, *fields, **named: "switched off"))
    still_open = _still_open(closed)
    assert len(still_open) == 39 and still_open[0] == "C11(2,3,4)"


def test_the_middle_rule_earns_its_place(monkeypatch):
    """With every CHOOSE_Q_MIDDLE step refused, all 285 closed circulants
    stay open, C5 first."""
    closed = _closed_circulants()
    rule = cm.RULES[cm.CHOOSE_Q_MIDDLE]
    monkeypatch.setitem(cm.RULES, cm.CHOOSE_Q_MIDDLE, dataclasses.replace(
        rule, check=lambda kb, *fields, **named: "switched off"))
    still_open = _still_open(closed)
    assert len(still_open) == 285 and still_open[0] == "C5"


def test_lemmas_on_17_vertices_close_only_circulants_without_a_pair():
    """The same soundness check past the old 16-vertex bound: on the 128
    circulants C17(S) the rules close 127, and no closed graph has a
    disjoint pair.  Only K17 = C17(2,...,8) stays open, and it has one.
    Every 16th closed certificate replays independently."""
    graphs = [g for g in circulants(17) if g.n == 17]
    closed, still_open = [], []
    for g in graphs:
        v = decide(g, engine="lemmas")
        (closed if v.kind == "NoQuantumSymmetry" else still_open).append(
            (g, v.certificate))
    assert (len(closed), len(still_open)) == (127, 1)
    assert still_open[0][0].label == "C17(2,3,4,5,6,7,8)"
    assert find_disjoint_automorphisms(still_open[0][0])
    assert not any(find_disjoint_automorphisms(g) for g, _ in closed)
    for g, cert in closed[::16]:
        assert IndependentReplayer(g.n, g.edges()).accepts(cert), g.label


def test_a_colouring_finer_than_the_pair_colour_is_caught():
    """Only a colouring constant on quantum orbitals is sound.  Fed the
    discrete one, the rules close K3,3 = C6(3), which has quantum symmetry;
    both verifiers recompute the colours and reject the proof."""
    fresh = circulant(6, 3)
    assert find_disjoint_automorphisms(fresh) is not None
    aut = automorphism_group(fresh)
    g = discrete_colouring(circulant(6, 3))
    kb, closed, _ = lemma_fixpoint(g, aut)
    assert closed
    cert = cm.Certificate.for_graph(g, cm.VERDICT_NONE, kb.log)
    assert not verify_certificate(fresh, cert)
    assert not IndependentReplayer(fresh.n, fresh.edges()).accepts(cert)
