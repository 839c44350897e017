"""Shared test oracles, independent of the code paths they check."""

import itertools
import math
import random

from qsym.graphs import Graph
from qsym.named import circulant


def circulants(top=16):
    """Every circulant C_n(S), 5 <= n <= top: 378 graphs for top = 16."""
    return [circulant(n, *chords)
            for n in range(5, top + 1)
            for k in range(n // 2)
            for chords in itertools.combinations(range(2, n // 2 + 1), k)]


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
    if g.degree_sequence() != h.degree_sequence():
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


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g
