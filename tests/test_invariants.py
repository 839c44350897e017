"""Cross-module invariants over the whole catalog."""

import pytest

from qsym.catalog import twelve_vertex_entries
from qsym.engine import EngineError, decide, lemma_fixpoint
from qsym.graphs import complement
from qsym.named import build_named
from qsym.perms import (
    automorphism_group,
    find_disjoint_automorphisms,
    is_automorphism,
)
from util import elements


def test_complement_coherence_of_verdicts():
    """Where both a graph and its complement are decided, the verdicts
    agree (they present the same quantum automorphism group)."""
    for entry in twelve_vertex_entries():
        g = entry.build()
        vg = decide(g)
        vc = decide(complement(g))
        if "Undecided" in (vg.kind, vc.kind):
            continue
        assert vg.kind == vc.kind, entry.name


def test_complement_aut_groups_coincide_catalogwide():
    for entry in twelve_vertex_entries():
        g = entry.build()
        h = complement(g)
        ag = automorphism_group(g)
        ah = automorphism_group(h)
        assert ag.order == ah.order, entry.name
        assert all(is_automorphism(h, gen) for gen in ag.generators)
        assert all(is_automorphism(g, gen) for gen in ah.generators)


def test_lemma_fixpoint_never_certifies_a_quantum_graph():
    """The 21 flagged entries, with the witness search skipped entirely:
    connected ones must stay open, disconnected ones are refused."""
    for name in [e.name for e in twelve_vertex_entries()
                 if e.expected_has_qsym]:
        g = build_named(name)
        if g.is_connected():
            kb, closed, _ = lemma_fixpoint(g)
            assert not closed, name
        else:
            with pytest.raises(EngineError):
                lemma_fixpoint(g)


def test_all_produced_certificates_replay_independently():
    """Every certificate the pipeline emits must convince the test-side
    replayer, which recomputes distances by Floyd-Warshall and shares no
    code with the library verifier."""
    from replayer import IndependentReplayer
    for entry in twelve_vertex_entries():
        g = entry.build()
        verdict = decide(g)
        if verdict.certificate is None:
            continue
        replayer = IndependentReplayer(g.n, g.edges())
        assert replayer.accepts(verdict.certificate), entry.name


def test_disjoint_search_agrees_with_support_scan_where_enumerable():
    """Support-set oracle over the fully enumerated group.  2K6 (order
    1036800) and K12 (order 12!) are beyond sensible enumeration; their
    found witnesses are validated directly in the acceptance suite."""
    import itertools
    for entry in twelve_vertex_entries():
        if entry.expected_aut_order > 100_000:
            continue
        g = entry.build()
        aut = automorphism_group(g)
        supports = {frozenset(p.support()) for p in elements(aut)
                    if not p.is_identity()}
        oracle = any(not (a & b)
                     for a, b in itertools.combinations(supports, 2))
        assert (find_disjoint_automorphisms(g) is not None) == oracle, \
            entry.name
