"""Shared test oracles, independent of the code paths they check."""

import functools
import itertools
import math
import random

import qsym.engine
from qsym.certificate import CommutationKB
from qsym.freealg import NcPoly
from qsym.graphs import Graph, GraphError
from qsym.named import circulant
from qsym.perms import Permutation, find_automorphism


def circulants(top=16):
    """Every circulant C_n(S), 5 <= n <= top: 378 graphs for top = 16."""
    return [circulant(n, *chords)
            for n in range(5, top + 1)
            for k in range(n // 2)
            for chords in itertools.combinations(range(2, n // 2 + 1), k)]


def c7_2_with_1_and_2_swapped():
    """C7(2) with vertices 1 and 2 exchanged: a circulant, but not in its
    own labels, since vertex 1 has the offsets 1, 2, 3 and 6."""
    swap = {1: 2, 2: 1}
    return Graph(7, [(swap.get(i, i), swap.get(j, j))
                     for i, j in circulant(7, 2).edges()])


def transversal_chain(g):
    """The orbit-stabilizer chain that keeps every coset representative:
    one ``find_automorphism`` query per level v and image a != v with
    1..v-1 fixed, each answer a generator.  Returns (generators, order),
    cached per edge set, as two test modules walk the 378 circulants."""
    return _transversal_chain(g.n, g.edges())


@functools.cache
def _transversal_chain(n, edges):
    g = Graph(n, edges)
    gens, order, prefix = [], 1, {}
    for v in g.vertices():
        level = [find_automorphism(g, {**prefix, v: a})
                 for a in g.vertices() if a != v]
        level = [phi for phi in level if phi is not None]
        gens += level
        order *= 1 + len(level)
        prefix[v] = v
    return tuple(gens), order


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g (edges numbered in lexicographic order)."""
    base_edges = g.edges()
    if not base_edges:
        raise GraphError("line graph needs at least one edge")
    edges = []
    for a, b in itertools.combinations(range(len(base_edges)), 2):
        ea, eb = base_edges[a], base_edges[b]
        if set(ea) & set(eb):
            edges.append((a + 1, b + 1))
    label = f"L({g.label})" if g.label else ""
    return Graph(len(base_edges), edges, label=label)


def distance_k_graph(g: Graph, k: int) -> Graph:
    """i ~ j iff d_g(i,j) = k; defined for connected g only."""
    if not g.is_connected():
        raise GraphError("distance-k graph needs a connected input")
    if k < 1:
        raise GraphError(f"need k >= 1, got {k}")
    d = g.distances()
    edges = [(i, j) for i in g.vertices() for j in range(i + 1, g.n + 1)
             if d[i][j] == k]
    label = f"dist{k}({g.label})" if g.label else ""
    return Graph(g.n, edges, label=label)


def commute_pairs(kb):
    """``kb.commute`` decoded: the code j*(n+1) + l of each fact, j <= l,
    back to the column pair {j, l} (a diagonal fact to {j})."""
    m = kb.graph.n + 1
    return {frozenset(divmod(code, m)) for code in kb.commute}


def conjugate(poly, left, right):
    """left * poly * right for the plain words ``left`` and ``right``."""
    return NcPoly({tuple(left) + w + tuple(right): c
                   for w, c in poly.terms.items()})


def derivation(text):
    """A certificate text without its header line and its GENERATOR
    steps: the derivation itself, which does not depend on the
    generating set that states Aut(G), so one digest of it covers the
    texts written from different chains."""
    return "".join(ln + "\n" for ln in text.splitlines()
                   if not ln.startswith(("qsym-certificate",
                                         "step GENERATOR")))


def elements(aut):
    """Every element of ``aut``, each once, as a product t_1 * ... * t_n of
    one witness per chain level: level v's transversal is v's orbit, with
    its witnesses, under the generators that fix 1..v-1 (smallest moved
    vertex v or more)."""
    one = Permutation.identity(aut.n)
    elems = [one]
    for v in range(aut.n, 0, -1):
        gens = [gen for gen in aut.generators if gen.support()[0] >= v]
        witness, todo = {v: one}, [v]
        while todo:
            x = todo.pop()
            for gen in gens:
                if gen(x) not in witness:
                    witness[gen(x)] = gen * witness[x]
                    todo.append(gen(x))
        elems = [t * e for t in witness.values() for e in elems]
    return elems


def discrete_colouring(g):
    """Give ``g`` the discrete pair colouring, (min, max) as each pair's
    colour, and return it.  It is finer than the pair colour and splits
    quantum orbitals, so no sound rule may rely on it; its colours are
    tuples."""
    object.__setattr__(g, "_colours", tuple(
        tuple((min(x, y), max(x, y)) for y in range(g.n + 1))
        for x in range(g.n + 1)))
    return g


def latin_square_graph(n):
    """The cyclic Latin square graph of order n on n*n cells: (r, c) and
    (r', c') are adjacent when they share a row, a column or the symbol
    r + c mod n.  It is strongly regular, so the pair colour (distance,
    common neighbours) only restates adjacency and prunes nothing."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    return Graph(n * n, [
        (x + 1, y + 1)
        for x, y in itertools.combinations(range(n * n), 2)
        if cells[x][0] == cells[y][0] or cells[x][1] == cells[y][1]
        or (sum(cells[x]) - sum(cells[y])) % n == 0])


def floyd_warshall(g: Graph):
    """All-pairs distances by the cubic recurrence; the BFS oracle's rival."""
    n = g.n
    d = [[math.inf] * (n + 1) for _ in range(n + 1)]
    for v in range(1, n + 1):
        d[v][v] = 0
    for i, j in g.edges():
        d[i][j] = d[j][i] = 1
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            dik = d[i][k]
            if dik == math.inf:
                continue
            row_k = d[k]
            row_i = d[i]
            for j in range(1, n + 1):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return d


def find_isomorphism(g: Graph, h: Graph):
    """Explicit isomorphism by backtracking with degree/distance pruning."""
    if g.n != h.n or g.num_edges() != h.num_edges():
        return None
    if sorted(map(g.degree, g.vertices())) != \
            sorted(map(h.degree, h.vertices())):
        return None
    dg, dh = g.distances(), h.distances()

    def profile(graph, dist, v):
        return (graph.degree(v), tuple(sorted(dist[v][1:], key=repr)))

    pg = {v: profile(g, dg, v) for v in g.vertices()}
    ph = {v: profile(h, dh, v) for v in h.vertices()}
    if sorted(pg.values()) != sorted(ph.values()):
        return None
    assigned = {}
    used = set()

    def dfs(v):
        if v > g.n:
            return True
        for b in h.vertices():
            if b in used or pg[v] != ph[b]:
                continue
            if any(dg[v][u] != dh[b][assigned[u]] for u in assigned):
                continue
            assigned[v] = b
            used.add(b)
            if dfs(v + 1):
                return True
            del assigned[v]
            used.discard(b)
        return False

    return dict(assigned) if dfs(1) else None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return Graph(n, edges)


def random_corpus() -> list:
    """300 draws from ``random.Random(12345)``: n uniform in 6..12, p from
    {0.2, 0.3, 0.4, 0.5}, and each edge i < j kept with probability p.
    191 of the graphs are connected."""
    rng = random.Random(12345)
    return [random_graph(rng, rng.randint(6, 12),
                         rng.choice((0.2, 0.3, 0.4, 0.5)))
            for _ in range(300)]


def replay_state(cert):
    """The replay state that ``cert``'s steps reach on its own graph."""
    kb = CommutationKB(cert.graph())
    for s in cert.steps:
        kb.apply(s)
    return kb


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def overlapping_witness(monkeypatch):
    """Make the engine's disjoint scan return its first automorphism
    twice: a pair whose supports overlap, which no replay accepts."""
    find = qsym.engine.find_disjoint_automorphisms

    def overlapping(g, deadline=None):
        pair = find(g, deadline=deadline)
        return pair and (pair[0], pair[0])

    monkeypatch.setattr(qsym.engine, "find_disjoint_automorphisms",
                        overlapping)
