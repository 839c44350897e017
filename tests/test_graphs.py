"""Graph core: constructors, metric queries, analytic criteria, text format."""

import math
import random

import pytest

from qsym.catalog import catalog
from qsym.graphs import (
    INFINITE,
    CirculantSpec,
    Graph,
    GraphError,
    build_circulant,
    build_semicirculant,
    cartesian_product,
    common_neighbours,
    complement,
    cosine_sums,
    direct_product,
    disjoint_copies,
    distance_k_graph,
    injective_f_check,
    line_graph,
    read_graph,
    write_graph,
)
from qsym.named import (
    antipodal_truncated_tetrahedron,
    build_named,
    circulant,
    complete_graph,
    cuboctahedron,
    cube_graph,
    cycle_graph,
    icosahedron,
    line_graph_c6_2,
    truncated_tetrahedron,
)
from qsym.perms import find_disjoint_automorphisms, is_automorphism, parse_cycles

from replayer import cyclotomic, polydivmod, spectrum_injective

from util import (
    circulants,
    discrete_colouring,
    is_isomorphic,
    random_graph,
)


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 4)])
    g = Graph(3, [(1, 2), (2, 1)])  # symmetric duplicate collapses
    assert g.num_edges() == 1
    assert g.adjacent(1, 2) and g.adjacent(2, 1)


def test_circulant_spec_validation():
    with pytest.raises(GraphError):
        CirculantSpec(12, (1,))
    with pytest.raises(GraphError):
        CirculantSpec(12, (7,))
    with pytest.raises(GraphError):
        CirculantSpec(12, (3, 3))


def test_circulant_neighbourhoods():
    g = build_circulant(CirculantSpec(12, (4, 5)))
    assert sorted(g.neighbours(1)) == [2, 5, 6, 8, 9, 12]
    c12 = build_circulant(CirculantSpec(12))
    assert all(c12.degree(v) == 2 for v in c12.vertices())


def test_circulant_all_chords_gives_complete_graph():
    # oracle: every pair must be adjacent once residues 1..6 are all present
    g = build_circulant(CirculantSpec(12, (2, 3, 4, 5, 6)))
    for i in g.vertices():
        for j in g.vertices():
            if i != j:
                assert g.adjacent(i, j)
    assert g.num_edges() == 12 * 11 // 2


def test_circulant_rotation_is_automorphism():
    for chords in [(), (2,), (4, 5), (2, 6)]:
        g = build_circulant(CirculantSpec(12, chords))
        rot = parse_cycles("(" + " ".join(str(v) for v in range(1, 13)) + ")", 12)
        assert is_automorphism(g, rot)


def test_semicirculant_plus_edges_form_the_documented_matching():
    g = build_named("C12(5+)")
    extra = sorted(set(g.edges()) - set(cycle_graph(12).edges()))
    assert extra == [(1, 6), (2, 9), (3, 8), (4, 11), (5, 10), (7, 12)]
    # the published automorphism witnesses must hold verbatim
    for witness in ("(1 7)(2 8)", "(3 9)(4 10)"):
        assert is_automorphism(g, parse_cycles(witness, 12))


def test_semicirculant_even_anchored_variant_is_the_same_up_to_rotation():
    g = build_named("C12(5+)")
    even_extra = tuple((i, (i + 4) % 12 + 1) for i in range(2, 13, 2))
    even = Graph(12, cycle_graph(12).edges() + even_extra)
    rot = {v: v % 12 + 1 for v in range(1, 13)}
    rotated = Graph(12, [(rot[i], rot[j]) for i, j in even.edges()])
    assert rotated == Graph(12, g.edges())


def test_semicirculant_offset_collision_stays_simple():
    # offset 6 duplicates the diameter chords of the base; silently absorbed
    g = build_semicirculant(12, (6,), (6,))
    assert g == Graph(12, circulant(12, 6).edges())


def test_semicirculant_offsets_are_checked():
    with pytest.raises(GraphError, match="offsets must be distinct"):
        build_semicirculant(12, (), (5, 5))
    for plus in ((12,), (1,)):
        with pytest.raises(GraphError, match=r"outside \(1, 12\)"):
            build_semicirculant(12, (), plus)
    # the base is checked as a circulant: chords lie in (1, n//2]
    with pytest.raises(GraphError, match=r"chord 7 outside \(1, 6\]"):
        build_semicirculant(12, (7,), ())


def test_semicirculant_label_lists_a_plain_chord_first():
    assert build_semicirculant(12, (2,), (5,)).label == "C12(2,5+)"
    assert build_semicirculant(12, (6,), (6,)).label == "C12(6,6+)"
    assert build_semicirculant(12, (6,), (5, 3)).label == "C12(3+,5+,6)"


def test_semicirculant_c12_3plus6_matches_published_picture():
    g = build_named("C12(3+,6)")
    assert all(g.degree(v) == 4 for v in g.vertices())
    extra = sorted(set(g.edges()) - set(circulant(12, 6).edges()))
    assert extra == [(1, 4), (2, 11), (3, 6), (5, 8), (7, 10), (9, 12)]
    for witness in ("(2 7)(3 10)(6 11)", "(1 8)(4 9)(5 12)"):
        assert is_automorphism(g, parse_cycles(witness, 12))


def test_complement_basics():
    assert complement(complete_graph(12)).num_edges() == 0
    g = build_named("C12(4,5)")
    assert complement(complement(g)) == Graph(12, g.edges())


def test_complement_of_c6_2_is_a_perfect_matching():
    # C6(2) is 4-regular on six vertices, so its complement is 1-regular:
    # the matching 3K2, not another circulant with chords
    comp = complement(circulant(6, 2))
    assert sorted(comp.edges()) == [(1, 4), (2, 5), (3, 6)]
    assert is_isomorphic(comp, disjoint_copies(complete_graph(2), 3))
    assert not is_isomorphic(comp, circulant(6, 3))


def test_disjoint_copies():
    g = disjoint_copies(complete_graph(2), 6)
    assert g.n == 12 and g.num_edges() == 6
    assert sorted(g.edges()) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)]
    base = circulant(6, 2)
    assert disjoint_copies(base, 1) == Graph(6, base.edges())
    g3 = disjoint_copies(cycle_graph(4), 3)
    assert g3.n == 12 and g3.num_edges() == 12
    with pytest.raises(GraphError):
        disjoint_copies(base, 0)


def test_direct_product_degrees():
    g = direct_product(complete_graph(6), complete_graph(2))
    assert g.n == 12
    # construction oracle: deg(a,b) = deg_g(a) * deg_h(b) = 5 * 1
    assert all(g.degree(v) == 5 for v in g.vertices())
    h = direct_product(complete_graph(3), complete_graph(4))
    assert h.n == 12 and all(h.degree(v) == 6 for v in h.vertices())
    k1 = Graph(1, [])
    assert direct_product(complete_graph(4), k1).num_edges() == 0


def test_cartesian_product_layout_and_degrees():
    g = cartesian_product(complete_graph(2), cycle_graph(6))
    assert g.n == 12 and all(g.degree(v) == 3 for v in g.vertices())
    # outer ring 1..6, inner ring 7..12, spokes v -- v+6
    assert g.adjacent(1, 2) and g.adjacent(7, 8) and g.adjacent(1, 7)
    assert not g.adjacent(1, 8)
    h = cartesian_product(cycle_graph(4), cycle_graph(3))
    assert h.n == 12 and all(h.degree(v) == 4 for v in h.vertices())
    assert is_isomorphic(
        cartesian_product(complete_graph(2), complete_graph(2)),
        cycle_graph(4))


def test_line_graphs():
    assert line_graph(complete_graph(2)).n == 1
    cubo = line_graph(cube_graph())
    assert cubo.n == 12 and all(cubo.degree(v) == 4 for v in cubo.vertices())
    assert max(cubo.distances()[1][1:]) == 3
    lc62 = line_graph(circulant(6, 2))
    assert lc62.n == 12 and all(lc62.degree(v) == 6 for v in lc62.vertices())
    with pytest.raises(GraphError):
        line_graph(Graph(3, []))


def test_named_graphs_match_their_construction_recipes():
    assert is_isomorphic(cuboctahedron(), line_graph(cube_graph()))
    assert is_isomorphic(line_graph_c6_2(), line_graph(circulant(6, 2)))
    assert is_isomorphic(antipodal_truncated_tetrahedron(),
                         distance_k_graph(truncated_tetrahedron(), 3))


def test_trunc_k4_properties():
    g = truncated_tetrahedron()
    assert g.n == 12 and g.num_edges() == 18
    assert all(g.degree(v) == 3 for v in g.vertices())
    # quadrangle-free: no two vertices share two common neighbours
    assert all(len(common_neighbours(g, i, j)) < 2
               for i in g.vertices() for j in range(i + 1, g.n + 1))


def test_icosahedron_properties():
    g = icosahedron()
    assert g.n == 12 and g.num_edges() == 30
    assert all(g.degree(v) == 5 for v in g.vertices())


def test_distance_k():
    g = distance_k_graph(truncated_tetrahedron(), 3)
    assert all(g.degree(v) == 4 for v in g.vertices())
    c6 = cycle_graph(6)
    assert sorted(distance_k_graph(c6, 3).edges()) == [(1, 4), (2, 5), (3, 6)]
    assert distance_k_graph(c6, 1) == Graph(6, c6.edges())
    with pytest.raises(GraphError):
        distance_k_graph(disjoint_copies(complete_graph(2), 2), 1)


def test_distances():
    g = build_named("K2xC6")
    d = g.distances()
    assert d[1][10] == 4
    assert [v for v in g.vertices() if d[1][v] == 4] == [10]
    assert cycle_graph(12).distances()[1][7] == 6
    two_k6 = disjoint_copies(complete_graph(6), 2)
    assert two_k6.distances()[1][7] == INFINITE


def test_common_neighbours():
    g = build_named("K2xC6")
    assert len(common_neighbours(g, 1, 3)) == 1
    assert len(common_neighbours(g, 3, 10)) == 2
    assert len(common_neighbours(g, 1, 8)) == 2
    # the published proof prose says 3 here, but 8 and 10 sit on the inner
    # hexagon two apart: their only common neighbour is 9.  The count
    # mismatch against |CN(1,8)| = 2 is what the argument uses, and holds.
    assert common_neighbours(g, 8, 10) == [9]
    h = circulant(12, 4, 6)
    assert len(common_neighbours(h, 1, 3)) == 3
    assert len(common_neighbours(h, 3, 6)) == 2
    assert len(common_neighbours(h, 3, 8)) == 4
    with pytest.raises(GraphError):
        common_neighbours(g, 2, 2)


# paper-reported cosine sums (s = 1..6); the C12(3) entry at s = 3 is an
# erratum in the source table: the defining formula gives
# cos(pi/2) + cos(3*pi/2) = 0, and 0 keeps the row injective
PAPER_F_TABLE = {
    (): (0.87, 0.5, 0.0, -0.5, -0.87, -1.0),
    (3,): (0.87, -0.5, 0.0, 0.5, -0.87, -2.0),
    (6,): (-0.13, 1.5, -1.0, 0.5, -1.87, 0.0),
}


def test_injective_f_values_match_reported_table():
    for chords, expected in PAPER_F_TABLE.items():
        injective, values = cosine_sums(CirculantSpec(12, chords))
        assert injective
        assert len(values) == 6
        for got, want in zip(values, expected):
            assert abs(got - want) <= 0.01


def test_injective_f_fails_where_hand_proofs_were_needed():
    for chords in [(2,), (4,), (2, 6), (3, 6), (4, 6)]:
        injective, _ = cosine_sums(CirculantSpec(12, chords))
        assert not injective
    with pytest.raises(GraphError):
        cosine_sums(CirculantSpec(4))


def test_injective_f_check_is_exact_on_small_circulants():
    """The spectrum test agrees with the replayer's Z[x]/Phi_n test on all
    378 circulants with 5 <= n <= 16, its count of distinct eigenvalues is
    the number of distinct residues of lambda_0..lambda_{n//2} modulo
    Phi_n, and no injective one has a disjoint automorphism pair (which
    would force quantum symmetry)."""
    injective = []
    for g in circulants():
        verdict, distinct = injective_f_check(g.circulant)
        offsets = {(v - 1) % g.n for v in g.neighbours(1)}
        assert verdict == spectrum_injective(g.n, offsets), g.label
        assert verdict == (distinct == g.n // 2 + 1), g.label
        phi = cyclotomic(g.n)
        residues = set()
        for s in range(g.n // 2 + 1):
            lam = [0] * g.n
            for x in offsets:
                lam[x * s % g.n] += 1
            residues.add(polydivmod(lam, phi)[1])
        assert distinct == len(residues), g.label
        if verdict:
            injective.append(g)
    assert len(injective) == 207
    for g in injective:
        assert find_disjoint_automorphisms(g) is None, g.label


def test_injective_f_check_counts_chord_n_over_2_once():
    # C6(3) = K3,3 has spectrum {3, 0, -3}; the cosine sums count chord 3
    # twice and come out injective, yet K3,3 has quantum symmetry
    assert injective_f_check(CirculantSpec(6, (3,))) == (False, 3)
    assert cosine_sums(CirculantSpec(6, (3,)))[0]
    # C12(6): lambda_3 = lambda_6 = -1; C12(3,6) is injective after all
    assert injective_f_check(CirculantSpec(12, (6,))) == (False, 6)
    assert injective_f_check(CirculantSpec(12, (3, 6))) == (True, 7)
    assert injective_f_check(CirculantSpec(5)) == (True, 3)
    with pytest.raises(GraphError):
        injective_f_check(CirculantSpec(4))


def test_text_format_roundtrip():
    g = build_named("C12(3+,6)")
    assert read_graph(write_graph(g)) == Graph(12, g.edges())
    parsed = read_graph("# comment\np 3\ne 1 2\ne 2 3 # trailing\n")
    assert parsed.edges() == ((1, 2), (2, 3))
    for bad in ["e 1 2\np 3", "p 3\ne 1", "p 3\nq 1 2", "p 3\ne 1 x", ""]:
        with pytest.raises(GraphError):
            read_graph(bad)


def test_read_graph_reads_only_ascii_decimal_digits():
    """``int`` alone reads a superscript two as an error that names no
    line, Arabic-Indic digits as numbers, ``+1`` as 1 and ``1_0`` as 10;
    each is refused with its line number, as certificate fields are."""
    for bad, lineno in [("p \u00b2", 1),
                        ("p \u0663\ne \u0661 \u0662", 1),
                        ("p 3\ne \u0661 \u0662", 2),
                        ("p 3\ne +1 2", 2),
                        ("p 12\ne 1_0 2", 2)]:
        with pytest.raises(GraphError, match=f"^line {lineno}: "):
            read_graph(bad)
    for entry in catalog():
        g = entry.build()
        assert read_graph(write_graph(g)) == Graph(g.n, g.edges())


def _check_colour_masks(g):
    """Each row of ``g.colour_masks()`` splits 1..n into disjoint masks,
    and y lies in masks[x][col] exactly when c(x, y) = col."""
    c, masks, vertices = g.pair_colours(), g.colour_masks(), g.vertices()
    full = sum(1 << y for y in vertices)
    for x in vertices:
        union = 0
        for col, mask in masks[x].items():
            assert mask and not mask & union, (g, x, col)
            union |= mask
            for y in vertices:
                assert bool(mask >> y & 1) == (c[x][y] == col), (g, x, y)
        assert union == full, (g, x)
    assert g.colour_masks() is masks


def test_colour_masks_partition_each_row_by_pair_colour():
    rng = random.Random(22)
    graphs = [e.build() for e in catalog()]
    graphs += [random_graph(rng, rng.randint(1, 14), rng.random())
               for _ in range(40)]
    for g in graphs:
        _check_colour_masks(g)


def test_colour_masks_follow_an_injected_colouring():
    """A colouring with tuple colours, as an unsound test colouring
    injects, gets the same table: the masks are keyed by colour, whatever
    its type."""
    g = discrete_colouring(circulant(6, 3))
    _check_colour_masks(g)
    assert g.colour_masks()[2] == {(1, 2): 1 << 1, (2, 2): 1 << 2,
                                   (2, 3): 1 << 3, (2, 4): 1 << 4,
                                   (2, 5): 1 << 5, (2, 6): 1 << 6}
