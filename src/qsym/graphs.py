"""Finite simple undirected graphs with 1-based vertex labels.

Everything downstream (automorphism search, the commutation-lemma engine,
the catalog) works over this representation.  Vertices are addressed 1..n
so that certificates can cite the same vertex numbers that appear in the
hand proofs for these graphs.  Adjacency is stored as one bitmask per
vertex, which keeps neighbourhood queries and the backtracking searches
cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

INFINITE = math.inf


class GraphError(ValueError):
    """Invalid construction data or an operation outside its domain."""


@dataclass(frozen=True)
class CirculantSpec:
    """Cycle on ``n`` vertices plus chords at the given circular distances.

    Chords must be strictly increasing, each in (1, n//2]; the +-1 cycle
    edges are implicit and never listed.
    """

    n: int
    chords: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 3:
            raise GraphError(f"circulant needs n >= 3, got {self.n}")
        object.__setattr__(self, "chords", tuple(self.chords))
        prev = 1
        for k in self.chords:
            if not (1 < k <= self.n // 2):
                raise GraphError(f"chord {k} outside (1, {self.n // 2}]")
            if k <= prev:
                raise GraphError("chords must be strictly increasing")
            prev = k

    def name(self) -> str:
        if not self.chords:
            return f"C{self.n}"
        return f"C{self.n}({','.join(str(k) for k in self.chords)})"


def _edge_fault(n, i, j):
    """Why (i, j) is no edge of a simple graph on 1..n, else None."""
    if not (1 <= i <= n and 1 <= j <= n):
        return f"edge ({i},{j}) out of range 1..{n}"
    if i == j:
        return f"loop at vertex {i}"


class Graph:
    """Immutable simple undirected graph on vertices 1..n."""

    __slots__ = ("n", "rows", "label", "circulant", "_edges", "_dist",
                 "_colours", "_masks")

    def __init__(self, n, edges, label="", circulant=None):
        if n < 1:
            raise GraphError(f"need at least one vertex, got n={n}")
        rows = [0] * (n + 1)
        for i, j in edges:
            fault = _edge_fault(n, i, j)
            if fault is not None:
                raise GraphError(fault)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "circulant", circulant)
        object.__setattr__(self, "_edges", None)
        object.__setattr__(self, "_dist", None)
        object.__setattr__(self, "_colours", None)
        object.__setattr__(self, "_masks", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        name = self.label or f"graph on {self.n} vertices"
        return f"<Graph {name}: n={self.n}, m={self.num_edges()}>"

    # -- basic queries ----------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def adjacent(self, i, j) -> bool:
        return bool(self.rows[i] >> j & 1)

    def neighbours(self, i):
        row = self.rows[i]
        return [v for v in self.vertices() if row >> v & 1]

    def degree(self, i) -> int:
        return self.rows[i].bit_count()

    def edges(self) -> tuple:
        """The edges (i, j), i < j, in lexicographic order, as a cached
        tuple, read from the set bits of each row above its vertex."""
        if self._edges is None:
            edges = []
            for i, row in enumerate(self.rows):
                above = (row >> i + 1) << i + 1
                while above:
                    low = above & -above
                    edges.append((i, low.bit_length() - 1))
                    above ^= low
            object.__setattr__(self, "_edges", tuple(edges))
        return self._edges

    def num_edges(self) -> int:
        return sum(self.degree(i) for i in self.vertices()) // 2

    def relabel(self, label) -> "Graph":
        g = Graph(self.n, self.edges(), label=label, circulant=self.circulant)
        return g

    # -- metric structure -------------------------------------------------

    def distances(self) -> tuple:
        """All-pairs hop counts d[i][j], 1-based rows, by BFS from every
        vertex; INFINITE across components."""
        if self._dist is not None:
            return self._dist
        n = self.n
        d = [[INFINITE] * (n + 1) for _ in range(n + 1)]
        for s in self.vertices():
            d[s][s] = 0
            frontier = [s]
            dist = 0
            seen = 1 << s
            while frontier:
                dist += 1
                nxt = []
                for v in frontier:
                    row = self.rows[v]
                    w = row & ~seen
                    while w:
                        low = w & -w
                        u = low.bit_length() - 1
                        d[s][u] = dist
                        seen |= low
                        nxt.append(u)
                        w ^= low
                frontier = nxt
        d = tuple(map(tuple, d))
        object.__setattr__(self, "_dist", d)
        return d

    def pair_colours(self) -> tuple:
        """c[x][y], 1-based: a small int per class of the ordered pair's
        (distance, number of common neighbours), so c[x][x] also encodes
        the degree of x.  Every automorphism preserves both components, so
        it preserves the colour; and the colour refines distance."""
        if self._colours is not None:
            return self._colours
        d, rows, n = self.distances(), self.rows, self.n
        ids = {}
        c = [[-1] * (n + 1) for _ in range(n + 1)]
        for x in self.vertices():
            dx, cx, rx = d[x], c[x], rows[x]
            for y in range(x, n + 1):
                key = (dx[y], (rx & rows[y]).bit_count())
                cx[y] = c[y][x] = ids.setdefault(key, len(ids))
        colours = tuple(map(tuple, c))
        object.__setattr__(self, "_colours", colours)
        return colours

    def colour_masks(self) -> tuple:
        """masks[x][k], 1-based rows: the bitmask of the vertices y with
        c[x][y] = k, c being ``pair_colours()``, one dict per row keyed by
        colour.  The masks of a row are disjoint and cover 1..n, so a test
        on a whole colour class is one AND.  Computed once per graph."""
        if self._masks is not None:
            return self._masks
        masks = [{}]
        for cx in self.pair_colours()[1:]:
            row = {}
            for y in self.vertices():
                row[cx[y]] = row.get(cx[y], 0) | 1 << y
            masks.append(row)
        masks = tuple(masks)
        object.__setattr__(self, "_masks", masks)
        return masks

    def is_connected(self) -> bool:
        return INFINITE not in self.distances()[1][1:]


# -- constructors ---------------------------------------------------------


def build_circulant(spec: CirculantSpec) -> Graph:
    """i ~ j iff the circular distance |i-j| mod n is 1 or a listed chord."""
    n = spec.n
    offsets = {1, n - 1}
    for k in spec.chords:
        offsets.add(k)
        offsets.add(n - k)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if (j - i) % n in offsets]
    return Graph(n, edges, label=spec.name(), circulant=spec)


def build_semicirculant(n: int, chords=(), plus=()) -> Graph:
    """The circulant C_n(chords) plus, for each offset l in ``plus``, the
    edge {i, i+l mod n} from every odd vertex i.

    Anchoring at odd vertices (with wraparound) is the convention that
    reproduces the published pictures of these graphs and makes the
    published automorphism witnesses hold verbatim; the even-anchored
    variant is the same graph up to rotating all labels by one.  An offset
    edge that coincides with an existing base edge is silently absorbed;
    the result stays a simple graph.  The label lists a plain chord before
    an offset of the same size, e.g. C12(2,5+) or C12(6,6+).
    """
    base, plus = CirculantSpec(n, chords), tuple(plus)
    for k, l in enumerate(plus):
        if not 1 < l < n:
            raise GraphError(f"offset {l} outside (1, {n})")
        if l in plus[:k]:
            raise GraphError("offsets must be distinct")
    edges = build_circulant(base).edges() + tuple(
        (i, (i - 1 + l) % n + 1) for i in range(1, n + 1, 2) for l in plus)
    parts = sorted([(k, "") for k in base.chords] + [(l, "+") for l in plus])
    label = ",".join(f"{k}{mark}" for k, mark in parts)
    return Graph(n, edges, label=f"C{n}({label})")


def complement(g: Graph) -> Graph:
    edges = [(i, j) for i in g.vertices() for j in range(i + 1, g.n + 1)
             if not g.adjacent(i, j)]
    label = f"complement({g.label})" if g.label else ""
    return Graph(g.n, edges, label=label)


def disjoint_copies(g: Graph, m: int) -> Graph:
    """m disjoint copies; copy c of vertex v becomes (c-1)*n + v."""
    if m < 1:
        raise GraphError(f"need m >= 1 copies, got {m}")
    edges = []
    for c in range(m):
        off = c * g.n
        edges.extend((i + off, j + off) for i, j in g.edges())
    label = f"{m}({g.label})" if g.label else ""
    return Graph(m * g.n, edges, label=label)


def direct_product(g: Graph, h: Graph) -> Graph:
    """(a,b) ~ (c,d) iff a ~ c and b ~ d; vertex (a,b) becomes (a-1)*n_h + b."""
    n = h.n

    def lab(a, b):
        return (a - 1) * n + b

    edges = []
    for a in g.vertices():
        for b in h.vertices():
            for c in g.vertices():
                for d in h.vertices():
                    if lab(c, d) > lab(a, b) and g.adjacent(a, c) \
                            and h.adjacent(b, d):
                        edges.append((lab(a, b), lab(c, d)))
    return Graph(g.n * h.n, edges, label=_product_label(g, h, "x"))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """(a,b) ~ (c,d) iff (a = c and b ~ d) or (a ~ c and b = d)."""
    n = h.n

    def lab(a, b):
        return (a - 1) * n + b

    edges = []
    for a in g.vertices():
        for b in h.vertices():
            for d in h.neighbours(b):
                if d > b:
                    edges.append((lab(a, b), lab(a, d)))
            for c in g.neighbours(a):
                if c > a:
                    edges.append((lab(a, b), lab(c, b)))
    label = _product_label(g, h, "[]")
    return Graph(g.n * h.n, edges, label=label)


def _product_label(g, h, symbol):
    if g.label and h.label:
        return f"{g.label}{symbol}{h.label}"
    return ""


def line_graph(g: Graph) -> Graph:
    """One vertex per edge of g (edges numbered in lexicographic order)."""
    base_edges = g.edges()
    if not base_edges:
        raise GraphError("line graph needs at least one edge")
    edges = []
    for a, b in combinations(range(len(base_edges)), 2):
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


# -- neighbourhood queries ------------------------------------------------


def common_neighbours(g: Graph, i, j):
    """Vertices adjacent to both i and j (i and j must differ)."""
    if i == j:
        raise GraphError("common neighbours need two distinct vertices")
    both = g.rows[i] & g.rows[j]
    return [v for v in g.vertices() if both >> v & 1]


# -- analytic criteria -----------------------------------------------------


def injective_f_check(spec: CirculantSpec):
    """Exact eigenvalue-injectivity test for circulant graphs.

    C_n(S) has the eigenvalues lambda_s = sum of cos(2 pi x s / n) over the
    connection set S.  If n != 4 and lambda_1..lambda_{n//2} are pairwise
    distinct, it has no quantum symmetries.  For a circulant A, p(A) = 0
    iff p(A) e_1 = 0, and lambda_0 is simple (the cycle connects the
    graph), so that holds iff the integer vectors e_1, A e_1, ...,
    A^{n//2} e_1 are linearly independent.  Returns (injective, number of
    distinct eigenvalues).
    """
    n = spec.n
    if n == 4:
        raise GraphError("the injectivity criterion excludes n = 4")
    offsets = {1, n - 1}.union(*({k, n - k} for k in spec.chords))
    walks, krylov = [1] + [0] * (n - 1), []
    for _ in range(n // 2 + 1):
        krylov.append(walks)
        # (A w)[r] = sum of w[r - x] over the offsets x: whole rotations
        walks = [sum(col) for col in
                 zip(*(walks[-x:] + walks[:-x] for x in offsets))]
    rank = _integer_rank(krylov)
    return rank == n // 2 + 1, rank


def _integer_rank(vectors) -> int:
    """Rank of integer vectors by fraction-free elimination; each reduced
    vector is divided by the gcd of its entries to keep the numbers small."""
    echelon = []  # (pivot column, vector), zero at every earlier pivot
    for v in vectors:
        for col, row in echelon:
            c = v[col]
            if c:
                v = [row[col] * x - c * y for x, y in zip(v, row)]
                g = math.gcd(*v)
                v = [x // g for x in v] if g else v
        if any(v):
            echelon.append((next(k for k, x in enumerate(v) if x), v))
    return len(echelon)


# minimal pairwise gap for the cosine sums to count as injective
INJECTIVITY_TOL = 1e-6


def cosine_sums(spec: CirculantSpec):
    """The source paper's cosine sums; they reproduce its printed table.

    f(s) = sum_i cos(2 k_i s pi / n), s = 1..n//2, with k_0 = 1 and the
    listed chords, is lambda_s / 2 except that it counts a chord n/2
    twice, so no verdict reads it (C6(3) = K3,3 has injective f and
    quantum symmetry).  Returns (pairwise gap > INJECTIVITY_TOL, values).
    """
    if spec.n == 4:
        raise GraphError("the injectivity criterion excludes n = 4")
    ks = (1,) + spec.chords
    values = []
    for s in range(1, spec.n // 2 + 1):
        values.append(sum(math.cos(2.0 * k * s * math.pi / spec.n) for k in ks))
    injective = all(abs(a - b) > INJECTIVITY_TOL
                    for a, b in combinations(values, 2))
    return injective, values


# -- plain-text graph format ----------------------------------------------
#
# First line `p <n>`, one line `e <i> <j>` per edge, 1-based; `#` starts a
# comment.  This is the CLI ingestion format.


def _decimal(text):
    """The integer that ``text`` writes in ASCII decimal digits; ``int``
    alone would also read ``1_0`` and ``+3``, which do not write back."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def write_graph(g: Graph) -> str:
    lines = []
    if g.label:
        lines.append(f"# {g.label}")
    lines.append(f"p {g.n}")
    lines.extend(f"e {i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(text: str, label="") -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphError(f"line {lineno}: repeated p line")
            try:
                (n,) = map(_decimal, parts[1:])
            except ValueError:
                raise GraphError(f"line {lineno}: expected 'p <n>'") from None
            if n < 1:
                raise GraphError(
                    f"line {lineno}: need at least one vertex, got n={n}")
        elif parts[0] == "e":
            if n is None:
                raise GraphError(f"line {lineno}: edge before 'p' line")
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'e <i> <j>'")
            try:
                i, j = map(_decimal, parts[1:])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer endpoint") from None
            fault = _edge_fault(n, i, j)
            if fault is not None:
                raise GraphError(f"line {lineno}: {fault}")
            edges.append((i, j))
        else:
            raise GraphError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphError("missing 'p <n>' line")
    return Graph(n, edges, label=label)
