"""Randomized and catalog-wide invariant sweeps.

Each property runs over all catalog graphs or over a seeded sample of
random graphs on up to 8 vertices (200 draws), per the acceptance bar.
"""

import random
from fractions import Fraction
from itertools import combinations

from qsym.catalog import twelve_vertex_entries
from qsym.engine import lemma_fixpoint
from qsym.freealg import NcPoly
from qsym.graphs import Graph, complement
from qsym.groebner import buchberger, normal_form, quantum_relations
from qsym.named import cycle_graph
from qsym.perms import act_on_pair, automorphism_group, is_automorphism, walk

from util import floyd_warshall, random_graph

SAMPLES = 200


def _random_graphs(seed, n_max=8, count=SAMPLES):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        yield random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))


def test_bfs_distances_agree_with_floyd_warshall_on_catalog():
    for entry in twelve_vertex_entries():
        g = entry.build()
        d = g.distances()
        fw = floyd_warshall(g)
        for i in g.vertices():
            for j in g.vertices():
                assert d[i][j] == fw[i][j], entry.name


def test_bfs_distances_agree_with_floyd_warshall_randomized():
    for g in _random_graphs(seed=101):
        d = g.distances()
        fw = floyd_warshall(g)
        assert all(d[i][j] == fw[i][j]
                   for i in g.vertices() for j in g.vertices())


def test_distance_one_iff_adjacent_randomized():
    for g in _random_graphs(seed=102):
        d = g.distances()
        for i in g.vertices():
            assert d[i][i] == 0
            for j in g.vertices():
                assert d[i][j] == d[j][i]
                assert (d[i][j] == 1) == g.adjacent(i, j)


def test_complement_is_an_involution_randomized():
    for g in _random_graphs(seed=103):
        assert complement(complement(g)) == g


def test_complement_preserves_automorphisms_randomized():
    rng = random.Random(104)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        h = complement(g)
        ag = automorphism_group(g)
        ah = automorphism_group(h)
        assert ag.order == ah.order
        assert all(is_automorphism(h, gen) for gen in ag.generators)


def test_aut_generators_preserve_adjacency_randomized():
    rng = random.Random(105)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        for gen in automorphism_group(g).generators:
            assert is_automorphism(g, gen)


def test_pair_orbits_refine_the_distance_partition():
    for entry in twelve_vertex_entries():
        g = entry.build()
        aut = automorphism_group(g)
        d = g.distances()
        covered = set()
        for i, j in combinations(g.vertices(), 2):
            if frozenset((i, j)) in covered:
                continue
            pair = frozenset((i, j))
            orbit = walk({pair}, (pair,), aut.generators, act_on_pair)
            assert all(d[min(p)][max(p)] == d[i][j] for p in orbit)
            assert not (orbit & covered)
            covered |= orbit
        assert len(covered) == g.n * (g.n - 1) // 2


def test_kb_stays_orbit_closed_on_connected_catalog_graphs():
    for entry in twelve_vertex_entries():
        g = entry.build()
        if not g.is_connected():
            continue
        aut = automorphism_group(g)
        kb, _, _ = lemma_fixpoint(g, aut)
        assert all(act_on_pair(gen, p) in kb.commute
                   for gen in aut.generators for p in kb.commute), entry.name


def test_normal_form_idempotent_randomized():
    rng = random.Random(106)
    gb = buchberger(quantum_relations(Graph(3, [(1, 2), (2, 3)])),
                    max_degree=4)
    letters = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for _ in range(SAMPLES):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))):
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))}
        p = NcPoly(terms)
        once = normal_form(p, gb.basis)
        assert normal_form(once, gb.basis) == once


def _fraction_normal_form(p, basis):
    """Reduce in Fraction arithmetic: rewrite the deglex-largest reducible
    word first, by the first basis element in list order whose leading
    monomial occurs in it (at its leftmost occurrence), divided by its
    leading coefficient."""
    def key(word):
        return len(word), word
    reducers = [(max(b.terms, key=key), b) for b in basis]
    terms = dict(p.terms)
    while True:
        hit = None
        for word in sorted(terms, key=key, reverse=True):
            hit = next(((word, pos, lm, b) for lm, b in reducers
                        for pos in range(len(word))
                        if word[pos:pos + len(lm)] == lm), None)
            if hit is not None:
                break
        if hit is None:
            return NcPoly(terms)
        word, pos, lm, b = hit
        factor = terms.pop(word) / b.terms[lm]
        left, right = word[:pos], word[pos + len(lm):]
        for w, c in b.terms.items():
            if w != lm:
                key_w = left + w + right
                val = terms.get(key_w, Fraction(0)) - factor * c
                if val:
                    terms[key_w] = val
                else:
                    terms.pop(key_w, None)


def test_integer_reduction_matches_fraction_reduction():
    # the C5 basis at degree 3 has coefficients with denominators 2, 3, 6
    # and 9, so the integer reduction has to carry a common denominator
    gb = buchberger(quantum_relations(cycle_graph(5)), max_degree=3)
    denominators = {c.denominator for b in gb.basis for c in b.terms.values()}
    assert {2, 3, 6, 9} <= denominators
    rng = random.Random(113)
    letters = [(i, j) for i in range(1, 6) for j in range(1, 6)]
    fractional = 0
    for _ in range(40):
        p = NcPoly({tuple(rng.choice(letters)
                          for _ in range(rng.randint(0, 3))):
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))})
        got = normal_form(p, gb.basis)
        assert got == _fraction_normal_form(p, gb.basis), p
        assert all(type(c) is Fraction for c in got.terms.values())
        fractional += any(c.denominator > 1 for c in got.terms.values())
    assert fractional >= 20
