"""Automorphism machinery: orders, orbits, disjoint pairs, determinism."""

import hashlib
import itertools
from collections import Counter
import math
import random
import time
from types import SimpleNamespace

import pytest

import qsym.perms as perms
from qsym.catalog import catalog
from qsym.graphs import Graph, complement, disjoint_copies
from qsym.named import (
    build_named,
    circulant,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    icosahedron,
    path_graph,
)
from qsym.perms import (
    AutGroup,
    DeadlineExceeded,
    Permutation,
    act_on_pair,
    automorphism_group,
    find_automorphism,
    find_disjoint_automorphisms,
    is_automorphism,
    is_vertex_transitive,
    parse_cycles,
    walk,
)
from util import (
    circulants,
    elements,
    floyd_warshall,
    latin_square_graph,
    transversal_chain,
)


def test_permutation_basics():
    p = parse_cycles("(1 7)(3 9 5)", 12)
    assert p(1) == 7 and p(7) == 1 and p(3) == 9 and p(9) == 5 and p(5) == 3
    assert str(p) == "(1 7)(3 9 5)"
    assert parse_cycles(str(p), 12) == p
    assert Permutation.identity(4).support() == ()
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        parse_cycles("(1 13)", 12)


def test_parse_cycles_refuses_a_vertex_in_two_cycles():
    """Cycle notation lists disjoint cycles; read as a product,
    (1,2)(1,2) would be the identity, yet it used to parse as (1 2)."""
    for text in ("(1,2)(1,2)", "(1,2)(2,1)", "(1 2)(2 3)", "(1 2 3)(4 5)(5 3)"):
        with pytest.raises(ValueError, match="repeat a vertex"):
            parse_cycles(text, 5)
    assert parse_cycles("(1,2)(3,4)", 5) == Permutation([2, 1, 4, 3, 5])


def test_permutation_reads_only_the_written_forms():
    """The identity is ``()``, the one spelling ``str`` writes, and a
    Permutation takes the images of 1..n with no leading 0."""
    assert parse_cycles(" () ", 5) == Permutation.identity(5)
    for text in ("id", ""):
        with pytest.raises(ValueError, match="bad cycle notation"):
            parse_cycles(text, 5)
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((0, 2, 1))
    assert Permutation([]).n == 0


def test_parse_cycles_reads_only_decimal_digits():
    for text in ("(1,+2)", "(1_0,2)", "(-1,2)", "(1,2.0)", "(1)"):
        with pytest.raises(ValueError, match="bad cycle"):
            parse_cycles(text, 12)


def test_composition_convention():
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    assert (p * q)(2) == p(q(2)) == p(3) == 3
    assert (q * p)(2) == q(1) == 1


def test_automorphism_orders():
    assert automorphism_group(cycle_graph(12)).order == 24
    assert automorphism_group(icosahedron()).order == 120
    assert automorphism_group(circulant(12, 5)).order == 768
    assert automorphism_group(complete_graph(12)).order == 479001600
    assert automorphism_group(Graph(1, [])).order == 1


def test_generators_preserve_adjacency():
    for name in ("C12(5)", "Icosahedron", "K2xC6(2)", "C12(3+,6)"):
        g = build_named(name)
        aut = automorphism_group(g)
        for gen in aut.generators:
            assert is_automorphism(g, gen)


def _preserves_adjacency(g, perm):
    """The definition: perm acts on 1..n and keeps adjacency for every
    vertex pair, edge or not."""
    return perm.n == g.n and all(
        g.adjacent(i, j) == g.adjacent(perm(i), perm(j))
        for i, j in itertools.combinations(g.vertices(), 2))


def test_is_automorphism_matches_its_definition():
    """The edge-image check against the pair-by-pair definition, on group
    elements, on those composed with a transposition and on shuffles."""
    rng = random.Random(12)
    verdicts = []
    for name in ("C12", "C12(5)", "Icosahedron", "K2xC6(2)", "C12(3+,6)",
                 "C12(4,5)", "3C4"):
        g = build_named(name)
        gens = automorphism_group(g).generators
        for _ in range(40):
            phi = Permutation.identity(g.n)
            for _ in range(rng.randrange(4)):
                phi = rng.choice(gens) * phi
            a, b = rng.sample(range(1, g.n + 1), 2)
            swap = parse_cycles(f"({a} {b})", g.n)
            shuffle = Permutation(rng.sample(range(1, g.n + 1), g.n))
            for perm in (phi, swap * phi, shuffle):
                verdict = is_automorphism(g, perm)
                assert verdict == _preserves_adjacency(g, perm), (name, perm)
                verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_is_automorphism_edge_cases():
    """Every permutation of an edgeless graph is an automorphism; a
    permutation of another degree never is; preserving degrees is not
    enough, and neither is keeping all edges but one."""
    rng = random.Random(5)
    empty = edgeless_graph(6)
    for _ in range(20):
        perm = Permutation(rng.sample(range(1, 7), 6))
        assert is_automorphism(empty, perm) and \
            _preserves_adjacency(empty, perm)
    c5 = cycle_graph(5)
    for n in (4, 6):
        assert not is_automorphism(c5, Permutation.identity(n))
    path = path_graph(5)  # degrees 1, 2, 2, 2, 1
    swap = parse_cycles("(2 3)", 5)
    assert [path.degree(swap(v)) for v in path.vertices()] \
        == [path.degree(v) for v in path.vertices()]
    assert not is_automorphism(path, swap)
    assert not _preserves_adjacency(path, swap)
    assert is_automorphism(path, parse_cycles("(1 5)(2 4)", 5))
    # swapping an end of one matching edge with the isolated vertex 7
    # breaks that edge alone, whichever edge it is
    matching = Graph(7, [(1, 2), (3, 4), (5, 6)])
    for i, j in matching.edges():
        swap = parse_cycles(f"({j} 7)", 7)
        assert not is_automorphism(matching, swap)
        assert not _preserves_adjacency(matching, swap)


def test_elements_closure_matches_order():
    g = cycle_graph(5)
    aut = automorphism_group(g)
    elems = set(elements(aut))
    assert len(elems) == aut.order == 10
    for p, q in itertools.product(list(elems)[:4], repeat=2):
        assert p * q in elems


def _closure(aut):
    """Reference for ``util.elements``: close the generators under
    products, one frontier at a time."""
    ident = Permutation.identity(aut.n)
    seen, frontier = {ident}, [ident]
    while frontier:
        frontier = [q for q in {gen * p for p in frontier
                                for gen in aut.generators} if q not in seen]
        seen.update(frontier)
    return seen


def test_elements_from_the_chain_match_the_closure():
    """Each element once, and the closure's elements, from the pruned
    chain and from the one that keeps every coset representative."""
    for name in ("C5", "K2xC6", "C12(4,5)", "Cuboctahedron", "3C4"):
        g = build_named(name)
        aut = automorphism_group(g)
        gens, order = transversal_chain(g)
        full = AutGroup(g.n, gens, order)
        assert full.order == aut.order, name
        for group in (aut, full):
            elems = elements(group)
            assert len(set(elems)) == len(elems) == aut.order, name
            assert set(elems) == _closure(group), name


def _orbit_closure(gens, v):
    """v's orbit under ``gens``: apply them until nothing new appears."""
    orbit, frontier = {v}, [v]
    while frontier:
        frontier = [y for y in {gen(x) for x in frontier for gen in gens}
                    if y not in orbit]
        orbit.update(frontier)
    return orbit


def _pruned_reference(g):
    """The pruned chain's generators and order from ``find_automorphism``
    queries: levels v = n down to 1, with 1..v-1 fixed, one query per image
    a of v outside v's orbit under the generators found so far, every
    answer kept."""
    gens, order = [], 1
    for v in reversed(g.vertices()):
        fixed = {u: u for u in range(1, v)}
        orbit = {v}
        for a in range(v + 1, g.n + 1):
            if a not in orbit:
                phi = find_automorphism(g, {**fixed, v: a})
                if phi is not None:
                    gens.append(phi)
                    orbit = _orbit_closure(gens, v)
        order *= len(orbit)
    return gens, order


def test_group_without_deadline_is_the_reference_chain():
    for entry in catalog():
        g = entry.build()
        aut = automorphism_group(g)
        assert (list(aut.generators), aut.order) == _pruned_reference(g), \
            entry.name
        far = automorphism_group(g, deadline=time.monotonic() + 3600)
        assert far == aut, entry.name


def test_group_past_its_deadline_raises():
    with pytest.raises(DeadlineExceeded):
        automorphism_group(circulant(12, 2), deadline=time.monotonic() - 1)


# SHA-256 over (name, order, generators) of all 378 circulants, for the
# chain that keeps every coset representative (``util.transversal_chain``),
# as found by the distance-pruned search that the pair colouring replaced.
CIRCULANT_GROUPS_SHA256 = \
    "32820b3c9bf516dfb0b54e42ce4c50ccc03b7cbe1743c3eb9b49179ec66e89fa"
# The same over the orbit-pruned chain of ``automorphism_group``.
PRUNED_CIRCULANT_GROUPS_SHA256 = \
    "cb17c63bf1938a4047e0e4ff3deefa3cea3b4fd02ae11389793fc62901e9fc4d"
# SHA-256 over (name, order) of all 378 circulants, as the full-transversal
# chain counted them: pruning the chain must not change an order.
CIRCULANT_ORDERS_SHA256 = \
    "c054c3d844fb100342001730a2e7acecae35f983b2651535c68296c861de2f0e"


def _digest(records):
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


def test_circulant_groups_are_pinned():
    """Pruning the search may only cut dead branches: every generator of
    the full-transversal chain, in its order, is the one the
    distance-pruned chain found."""
    graphs = circulants()
    assert len(graphs) == 378
    chains = [(g.label, *transversal_chain(g)) for g in graphs]
    assert _digest((label, order, tuple(map(str, gens)))
                   for label, gens, order in chains) == CIRCULANT_GROUPS_SHA256


def test_pruned_circulant_groups_and_orders_are_pinned():
    """The orbit-pruned chain counts every order as the full transversal
    did, and its generators are pinned in their order."""
    groups = [(g.label, automorphism_group(g)) for g in circulants()]
    assert _digest((label, aut.order)
                   for label, aut in groups) == CIRCULANT_ORDERS_SHA256
    assert _digest((label, aut.order, tuple(map(str, aut.generators)))
                   for label, aut in groups) == PRUNED_CIRCULANT_GROUPS_SHA256


def test_pair_colours_are_invariant_and_refine_distance():
    """c(x, y) names exactly the class of (d(x, y), |N(x) & N(y)|), and
    every generator keeps it: c(sigma x, sigma y) = c(x, y)."""
    graphs = circulants() + [e.build() for e in catalog()]
    graphs.append(disjoint_copies(path_graph(3), 2))
    for g in graphs:
        c, vertices, d = g.pair_colours(), g.vertices(), floyd_warshall(g)
        pairs = [(x, y) for x in vertices for y in vertices]
        nbrs = {v: set(g.neighbours(v)) for v in vertices}
        key = {(x, y): (d[x][y], len(nbrs[x] & nbrs[y])) for x, y in pairs}
        classes = {}
        for pair in pairs:
            classes.setdefault(c[pair[0]][pair[1]], set()).add(key[pair])
        assert all(len(keys) == 1 for keys in classes.values()), g
        assert len(classes) == len(set(key.values())), g
        for gen in automorphism_group(g).generators:
            assert all(c[gen(x)][gen(y)] == c[x][y] for x, y in pairs), g


def test_edgeless_17_has_the_full_symmetric_group():
    """No size bound: past 16 vertices the chain runs as below it, bounded
    only by the caller's deadline."""
    assert automorphism_group(edgeless_graph(17)).order == math.factorial(17)


def test_edgeless_17_gets_a_disjoint_witness():
    g = edgeless_graph(17)
    sigma, tau = find_disjoint_automorphisms(g)
    assert (str(sigma), str(tau)) == ("(1 2)", "(3 4)")
    assert is_automorphism(g, sigma) and is_automorphism(g, tau)


def test_a_deadline_stops_one_search_midway(monkeypatch):
    """On the order-8 Latin square graph (64 vertices) the chain's
    existence queries visit 63,986 nodes, and every node reads the clock.
    The first queries, at levels 10 down to 4, visit 2 to 209 nodes each;
    with a clock that ticks once per read, a deadline of 1000 passes inside
    the twelfth, 4 -> 8 with 1..3 fixed, which stops there."""
    g = latin_square_graph(8)
    clock = itertools.count()
    monkeypatch.setattr("qsym.perms.time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    with pytest.raises(DeadlineExceeded):
        automorphism_group(g, deadline=1000)
    assert next(clock) == 1002


def test_the_full_chain_on_64_vertices_reads_the_clock_once_per_node(
        monkeypatch):
    """Every node of the chain's searches reads the deadline, so the clock
    count is the node count: the whole chain on the order-8 Latin square
    graph visits 63,986 nodes however cheap each node is."""
    g = latin_square_graph(8)
    clock = itertools.count()
    monkeypatch.setattr("qsym.perms.time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    assert automorphism_group(g, deadline=10**12).order == 1536
    assert next(clock) == 63986


def test_the_scan_reads_the_deadline_while_it_builds_its_twin_masks(
        monkeypatch):
    """The disjoint scan reads the clock on entry, then once per vertex of
    its twin masks, before any search.  With a clock that ticks once per
    read, a deadline of 10 on the 64-vertex Latin square graph passes at
    the masks' eleventh vertex, and the scan stops there."""
    g = latin_square_graph(8)
    clock = itertools.count()
    monkeypatch.setattr("qsym.perms.time",
                        SimpleNamespace(monotonic=lambda: next(clock)))
    twin_masks, stopped = perms._twin_masks, []

    def watched(*args):
        try:
            return twin_masks(*args)
        except DeadlineExceeded:
            stopped.append(True)
            raise

    monkeypatch.setattr("qsym.perms._twin_masks", watched)
    with pytest.raises(DeadlineExceeded):
        find_disjoint_automorphisms(g, deadline=10)
    assert stopped and next(clock) == 12


# SHA-256 over (label, pair) of the disjoint scan on the 37 catalog rows and
# the 378 circulants, pair being None or the two automorphisms as cycles.
DISJOINT_PAIRS_SHA256 = \
    "cf7d48e2f9ab4bdcb5977515384ac00254be161411ec2207494db1afa0b07e8a"
# The same graphs, each with find_automorphism(g, {1: v}) for v = 1..n.
FIRST_IMAGE_EXTENSIONS_SHA256 = \
    "35887136021ef3671909a1dff848a3f4a67dbf18fbd873c3914316ba2a6cc3df"


def _catalog_and_circulants():
    graphs = [e.build() for e in catalog() if e.subclass != "sanity"]
    graphs += circulants()
    assert len(graphs) == 415
    return graphs


def test_disjoint_pairs_are_pinned():
    """The scan's searches may get cheaper, never different: every
    witness and partner stays the one the pin was taken from."""
    pairs = []
    for g in _catalog_and_circulants():
        pair = find_disjoint_automorphisms(g)
        pairs.append((g.label, pair and tuple(map(str, pair))))
    assert _digest(pairs) == DISJOINT_PAIRS_SHA256


def test_smallest_extensions_of_each_first_image_are_pinned():
    """find_automorphism(g, {1: v}) for every v, None included."""
    rows = [(g.label, tuple(str(find_automorphism(g, {1: v}))
                            for v in g.vertices()))
            for g in _catalog_and_circulants()]
    assert _digest(rows) == FIRST_IMAGE_EXTENSIONS_SHA256


def test_twin_masks_match_their_definition_over_ordered_pairs():
    """On the 37 catalog graphs and the 378 circulants C_n(S), 5 <= n <=
    16, row v of the twin masks holds, for each u != v with v's
    invariants in ascending order, the bitmask of the vertices x with
    c(v, x) != c(u, x); so the masks of (v, u) and (u, v) are equal."""
    for g in _catalog_and_circulants():
        c, inv = g.pair_colours(), perms._invariants(g)
        twins, masks = perms._twin_masks(g, inv), {}
        assert len(twins) == g.n + 1 and not twins[0]
        for v in g.vertices():
            peers = [u for u in g.vertices() if u != v and inv[u] == inv[v]]
            want = [sum(1 << x for x in g.vertices() if c[v][x] != c[u][x])
                    for u in peers]
            assert list(twins[v]) == want, (g.label, v)
            masks.update(((v, u), m) for u, m in zip(peers, twins[v]))
        assert all(masks[u, v] == m for (v, u), m in masks.items()), g.label


def test_complement_has_same_automorphisms():
    for name in ("C12(2)", "TruncK4", "C12(5+)", "K3xK4"):
        g = build_named(name)
        h = complement(g)
        ag, ah = automorphism_group(g), automorphism_group(h)
        assert ag.order == ah.order
        assert all(is_automorphism(h, gen) for gen in ag.generators)
        assert all(is_automorphism(g, gen) for gen in ah.generators)


def test_vertex_transitivity():
    assert is_vertex_transitive(complete_graph(12))
    assert not is_vertex_transitive(path_graph(3))
    for name in ("C12(5)", "Cuboctahedron", "2C6(3)", "C12(4,5+)"):
        assert is_vertex_transitive(build_named(name))


def _pair_orbit(aut, i, j):
    pair = frozenset((i, j))
    return walk({pair}, (pair,), aut.generators, act_on_pair)


def test_pair_orbits_c5():
    g = cycle_graph(5)
    aut = automorphism_group(g)
    edges, chords = _pair_orbit(aut, 1, 2), _pair_orbit(aut, 1, 3)
    assert set(edges) == {frozenset(e) for e in g.edges()}
    assert len(chords) == 5 and not set(chords) & set(edges)
    d = g.distances()
    assert {d[min(p)][max(p)] for p in chords} == {2}


def test_pair_orbits_k2c6_mirror():
    g = build_named("K2xC6")
    orbit = _pair_orbit(automorphism_group(g), 1, 3)
    assert frozenset((1, 5)) in orbit


def test_pair_orbits_edgeless():
    g = edgeless_graph(3)
    assert len(_pair_orbit(automorphism_group(g), 1, 2)) == 3


def test_find_automorphism_respects_constraints():
    g = build_named("C12(3,6)")
    phi = find_automorphism(g, {1: 1, 2: 12})
    assert phi is not None and is_automorphism(g, phi)
    assert phi(1) == 1 and phi(2) == 12
    # vertex 1 cannot map to a vertex of different adjacency structure
    assert find_automorphism(path_graph(3), {1: 2}) is None


def test_disjoint_pairs_found_with_valid_witnesses():
    expectations = {
        "C12(5)": True, "C12(4,5)": True, "C12(5,6)": True,
        "C12(5+)": True, "K12": True, "K2xC6(2)": True,
        "C12": False, "C12(2)": False, "TruncK4": False,
        "Icosahedron": False, "K2xC6": False, "Petersen": False,
    }
    for name, expect in expectations.items():
        g = build_named(name)
        pair = find_disjoint_automorphisms(g)
        assert (pair is not None) == expect, name
        if pair:
            sigma, tau = pair
            assert not sigma.is_identity() and not tau.is_identity()
            assert is_automorphism(g, sigma) and is_automorphism(g, tau)
            assert not set(sigma.support()) & set(tau.support())


def test_disjoint_pairs_match_exhaustive_scan():
    """Exhaustive-oracle equivalence on graphs with small enough groups:
    a disjoint pair exists iff two enumerated elements have disjoint
    supports."""
    for name in ("C5", "C4", "C12", "C12(5)", "C12(4,5)", "K2xC6",
                 "TruncK4", "L(C6(2))", "Icosahedron", "C12(2,5+)",
                 "C12(3+,6)", "K2xC6(2)"):
        g = build_named(name)
        aut = automorphism_group(g)
        elems = [p for p in elements(aut) if not p.is_identity()]
        supports = sorted({frozenset(p.support()) for p in elems}, key=sorted)
        oracle = any(not (a & b)
                     for a, b in itertools.combinations(supports, 2))
        assert (find_disjoint_automorphisms(g) is not None) == oracle, name


def test_disjoint_pair_is_deterministic():
    g = build_named("C12(4,5)")
    first = find_disjoint_automorphisms(g)
    second = find_disjoint_automorphisms(g)
    assert first == second
    assert str(first[0]) == "(1 7)(3 9)(5 11)"
    assert str(first[1]) == "(2 8)(4 10)(6 12)"
    pinned = {
        "C12(5)": ("(1 7)", "(2 6)(3 5)(8 12)(9 11)"),
        "K2xC6(2)": ("(1 4)(7 10)", "(2 3)(5 6)(8 9)(11 12)"),
        "C12(5+)": ("(1 7)(2 8)", "(3 9)(4 10)"),
        "6K2": ("(1 2)", "(3 4)"),
    }
    for name, expected in pinned.items():
        sigma, tau = find_disjoint_automorphisms(build_named(name))
        assert (str(sigma), str(tau)) == expected, name


def test_find_automorphism_is_the_smallest_extension():
    """Against the enumerated group: the result is the element with the
    smallest image vector among those extending ``pre``."""
    for g in (cycle_graph(5), cycle_graph(6), build_named("K2xC6"),
              path_graph(4)):
        elems = elements(automorphism_group(g))
        for v, a in itertools.product(g.vertices(), repeat=2):
            for pre in ({v: a}, {1: v, 2: a}):
                extending = [p for p in elems
                             if all(p(x) == y for x, y in pre.items())]
                expected = min(extending, key=lambda p: p.img, default=None)
                assert find_automorphism(g, pre) == expected, (g, pre)


def test_find_automorphism_rejects_vertices_outside_the_graph():
    g = cycle_graph(5)
    for pre in ({6: 1}, {0: 1}, {1: 6}, {1: 0}, {-1: 2}):
        with pytest.raises(ValueError):
            find_automorphism(g, pre)


def _oracle_disjoint_pair(elems):
    """The pair the scan must return, from the enumerated group: the
    smallest support A by (size, lex) among elements with a disjoint
    non-identity partner; sigma, the smallest image vector with support
    exactly A; tau, the element fixing A pointwise with the smallest moved
    vertex w, then the smallest image of w, then the smallest image
    vector."""
    def partner_order(p):
        w = p.support()[0]
        return w, p(w), p.img

    moved = [(p, p.support()) for p in elems if not p.is_identity()]
    for support in sorted({s for _, s in moved}, key=lambda s: (len(s), s)):
        fixing = [p for p, s in moved if not set(s) & set(support)]
        if fixing:
            sigma = min((p for p, s in moved if s == support),
                        key=lambda p: p.img)
            return str(sigma), str(min(fixing, key=partner_order))
    return None


def test_disjoint_pair_is_the_oracle_pair():
    """String-exact against the enumerated group on every circulant
    C_n(S), 5 <= n <= 12, and every catalog graph, whose group order is at
    most 5000: the scan's pruning must not move the tie-break."""
    graphs = circulants(12) + [e.build() for e in catalog()]
    # The 3-cube less two parallel edges: its group Z2 x Z2 moves all 8
    # vertices, so in two copies three witnesses share the smallest support
    # and the image-vector tie-break decides between them.
    cube_less_two = Graph(8, [(1, 2), (3, 4), (5, 6), (5, 7), (6, 8), (7, 8),
                              (1, 5), (2, 6), (3, 7), (4, 8)])
    graphs.append(disjoint_copies(cube_less_two, 2))
    compared = 0
    for g in graphs:
        aut = automorphism_group(g)
        if aut.order > 5000:
            continue
        pair = find_disjoint_automorphisms(g)
        found = pair and tuple(map(str, pair))
        assert found == _oracle_disjoint_pair(elements(aut)), g
        compared += 1
    assert compared >= 100


def test_n16_no_pair_scans_stay_exact():
    for chords in ((3,), (2, 5), (2, 4, 6, 8)):
        assert find_disjoint_automorphisms(circulant(16, *chords)) is None


def test_walk_re_closes_the_whole_orbit_after_a_new_generator():
    """Once (1 3)(2 4) joins (1 2), the orbit {1,2} must be walked again
    as a whole: from 1 alone the walk reaches 3 but never 4."""
    swap, shift = parse_cycles("(1 2)", 4), parse_cycles("(1 3)(2 4)", 4)
    orbit = walk({1}, (1,), [swap])
    assert orbit == {1, 2}
    assert walk(set(orbit), (1,), [swap, shift]) == {1, 2, 3}
    assert walk(orbit, orbit, [swap, shift]) is orbit
    assert orbit == {1, 2, 3, 4}
    pairs = walk({frozenset((1, 2))}, [frozenset((1, 2))], [shift],
                 act_on_pair)
    assert pairs == {frozenset((1, 2)), frozenset((3, 4))}


# (name, order, generators) of the 25 catalog rows whose chain has a level
# with two generators or more, as the chain that walked each orbit with
# a per-point witness walk gave them
SEVERAL_GENERATOR_ROWS_SHA256 = (
    "29a35339084541982cfea7e6f4b03bc4cd63b3b26296ada700a081bb8cab06df")


def test_chain_levels_with_several_generators_keep_their_orders():
    """A chain level that holds two generators or more re-walks its orbit
    after each one; the orders of those catalog rows stay the published
    ones, their generators stay pinned, and the vertex orbits are those of
    the witness walk."""
    rows = []
    for entry in catalog():
        aut = automorphism_group(entry.build())
        levels = Counter(gen.support()[0] for gen in aut.generators)
        if max(levels.values(), default=0) < 2:
            continue
        rows.append((entry.name, aut.order, tuple(map(str, aut.generators))))
        assert aut.order == entry.expected_aut_order, entry.name
        assert aut.vertex_orbits() == sorted(
            {tuple(sorted(walk({v}, (v,), aut.generators)))
             for v in range(1, aut.n + 1)})
    assert {"K2xC6", "Cuboctahedron", "2(K2xK3)"} <= {row[0] for row in rows}
    assert len(rows) == 25
    assert _digest(rows) == SEVERAL_GENERATOR_ROWS_SHA256
