"""Classical automorphism groups of small graphs.

Everything here is exact and deliberately unsophisticated.  One
backtracking search, ``_extensions``, answers every automorphism query: it
extends a partial vertex map, pruned by each vertex's profile of pair
colours and by exact preservation of the pair colour (distance, common
neighbours) from ``Graph.pair_colours``, and yields the completions in
increasing order of image vector.  The pruning is sound because an
automorphism preserves distances and maps the common neighbours of x and y
onto those of their images, so it preserves both components; it only cuts
branches that hold no automorphism, and the order in which the rest are
visited is fixed.  One loop over the images of a vertex, ``_moves``,
queries it for both users on top.  The first is an orbit-stabilizer chain
that tries only images outside the orbit its generators already reach,
keeping one generator per orbit enlargement (it yields the exact group
order without enumerating elements, so K12 with |Aut| = 12! takes 11
generators).  The second is an exhaustive-by-construction search for a
pair of non-trivial automorphisms with disjoint supports, which decides
the question exactly: it scans candidate supports by size, which is
enough because the smaller support of any disjoint pair has at most n//2
vertices.  Only twin-closed subsets are candidates, those in which every
vertex v has a twin u != v with the same invariants and the same pair
colour with every vertex outside the subset.  That is necessary: if sigma
fixes the outside pointwise and moves v to u, then c(x, v) =
c(sigma x, sigma v) = c(x, u) for every outside x, and u, being moved as
well, lies inside.  The chain and the scan check a
``time.monotonic()`` deadline at every node of every search, and the scan
also on entry and once per vertex while it builds its twin masks.  Vertex
and pair orbits come from one walk, ``walk``, which returns the points,
with ``act_on_pair`` as the action on unordered pairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import Graph


class DeadlineExceeded(RuntimeError):
    """A search ran past the caller's deadline."""


class Permutation:
    """Permutation of 1..n, built from the images p(1), ..., p(n) and
    stored as the image vector ``(0, p(1), ..., p(n))`` (1-based)."""

    __slots__ = ("img",)

    def __init__(self, images):
        img = (0, *images)
        n = len(img) - 1
        if sorted(img[1:]) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {img[1:]}")
        object.__setattr__(self, "img", img)

    @classmethod
    def _trusted(cls, img: tuple) -> "Permutation":
        """Wrap a known-valid image tuple ``(0, p(1), ..., p(n))``."""
        perm = object.__new__(cls)
        perm.img = img
        return perm

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._trusted(tuple(range(n + 1)))

    @property
    def n(self) -> int:
        return len(self.img) - 1

    def __call__(self, v: int) -> int:
        return self.img[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(v) = p(q(v))
        if len(self.img) != len(other.img):
            raise ValueError("permutations of different degrees")
        return Permutation._trusted(
            tuple(map(self.img.__getitem__, other.img)))

    def is_identity(self) -> bool:
        return all(self.img[v] == v for v in range(1, self.n + 1))

    def support(self) -> tuple:
        return tuple(v for v in range(1, self.n + 1) if self.img[v] != v)

    def cycles(self):
        seen = set()
        out = []
        for v in range(1, self.n + 1):
            if v in seen or self.img[v] == v:
                continue
            cyc = [v]
            seen.add(v)
            w = self.img[v]
            while w != v:
                cyc.append(w)
                seen.add(w)
                w = self.img[w]
            out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __repr__(self):
        return f"Permutation[{self}]"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like ``(1 7)(3 9 5)``; ``()`` is the identity.
    The cycles must be disjoint: ``(1 2)(2 1)`` is refused, not read as a
    product."""
    img = list(range(n + 1))
    body = text.strip()
    if body == "()":
        return Permutation.identity(n)
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    moved = []
    for chunk in body[1:-1].split(")("):
        toks = chunk.replace(",", " ").split()
        if len(toks) < 2 or not all(t.isascii() and t.isdigit() for t in toks):
            raise ValueError(f"bad cycle {chunk!r}")
        cyc = [int(tok) for tok in toks]
        for v, w in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} outside 1..{n}")
            img[v] = w
        moved += cyc
    if len(set(moved)) != len(moved):
        raise ValueError(f"the cycles of {text!r} repeat a vertex")
    return Permutation(img[1:])


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    """Independent re-check: perm maps every edge of g to an edge.  That
    suffices because a Permutation is a bijection of 1..n: it maps the
    finite edge set injectively into itself, hence onto it, so non-edges
    go to non-edges as well and every pair keeps its adjacency."""
    if perm.n != g.n:
        return False
    img, rows = perm.img, g.rows
    for i, j in g.edges():
        if not rows[img[i]] >> img[j] & 1:
            return False
    return True


# -- backtracking core -----------------------------------------------------


def _invariants(g: Graph):
    """inv[v]: v's sorted row of pair colours, its degree included (the
    diagonal colour carries it); an automorphism maps v only to a vertex
    with the same row."""
    return [None] + [tuple(sorted(row[1:])) for row in g.pair_colours()[1:]]


def _fits(c, inv, pre: dict, v, a) -> bool:
    """Whether v -> a keeps v's invariants and its pair colours (distance,
    common neighbours) to the pairs of ``pre``, c being
    ``g.pair_colours()``.  Sound, as every automorphism preserves both.  A
    partial map is colour-consistent when each of its own pairs fits it;
    that makes it injective, as c(v,w) has d(v,w) > 0 = d(a,a)."""
    if inv[v] != inv[a]:
        return False
    cv, ca = c[v], c[a]
    return all(cv[w] == ca[b] for w, b in pre.items())


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("automorphism search ran past its deadline")


def _extensions(g: Graph, pre: dict, inv, deadline: float | None = None):
    """Every automorphism extending the colour-consistent partial map
    ``pre`` (see ``_fits``), in increasing order of image vector; ``inv`` is
    ``_invariants(g)``.  Unassigned vertices are visited in the order 1..n
    and their images tried in ascending order, so the first value is the
    lexicographically smallest completion.  Every node of the search checks
    ``deadline`` (see ``_check_deadline``): one search can take longer than
    any deadline worth setting, as on strongly regular graphs, whose pair
    colours only restate adjacency."""
    n = g.n
    c = g.pair_colours()
    assigned = dict(pre)
    used = set(assigned.values())
    todo = [v for v in range(1, n + 1) if v not in assigned]

    def dfs(pos):
        _check_deadline(deadline)
        if pos == len(todo):
            yield Permutation._trusted(
                (0, *map(assigned.__getitem__, range(1, n + 1))))
            return
        v = todo[pos]
        cv, iv = c[v], inv[v]
        for a in range(1, n + 1):
            if a in used or inv[a] != iv:
                continue
            ca = c[a]
            for w, b in assigned.items():
                if cv[w] != ca[b]:
                    break
            else:
                assigned[v] = a
                used.add(a)
                yield from dfs(pos + 1)
                del assigned[v]
                used.discard(a)

    return dfs(0)


def find_automorphism(g: Graph, pre: dict) -> Permutation | None:
    """The automorphism with the smallest image vector that extends the
    partial map ``pre``, or None; ``ValueError`` if ``pre`` leaves 1..n."""
    if not all(1 <= x <= g.n for x in (*pre, *pre.values())):
        raise ValueError(f"partial map {pre} leaves 1..{g.n}")
    c = g.pair_colours()
    inv = _invariants(g)
    if not all(_fits(c, inv, pre, v, a) for v, a in pre.items()):
        return None
    return next(_extensions(g, pre, inv), None)


# -- automorphism group ----------------------------------------------------


def walk(reached: set, todo, generators, act=Permutation.__call__) -> set:
    """Close ``reached`` under ``generators``: from each member of ``todo``,
    add every image ``act(gen, x)`` not yet in ``reached`` and walk on from
    it.  Serves vertex orbits and pair orbits alike; returns ``reached``.
    After a new generator, ``todo`` must be all of ``reached``: the images
    of old points under it can lie outside, as {1,2} under (1 2) and then
    (1 3)(2 4) shows, where walking from 1 alone misses 4."""
    todo = list(todo)
    while todo:
        x = todo.pop()
        for gen in generators:
            y = act(gen, x)
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


@dataclass(frozen=True)
class AutGroup:
    """Automorphism group given by generators and its exact order.

    ``automorphism_group`` returns the generators of an orbit-stabilizer
    chain over the vertices 1, 2, ...: those of level v fix 1..v-1 and
    move v, each one enlarges v's orbit, and together they generate the
    full group.  ``order`` is the product of the chain's orbit sizes.
    """

    n: int
    generators: tuple
    order: int

    def vertex_orbits(self):
        """Orbits of vertices, each sorted, ordered by smallest element."""
        orbits, seen = [], set()
        for v in range(1, self.n + 1):
            if v not in seen:
                orbit = walk({v}, (v,), self.generators)
                seen |= orbit
                orbits.append(tuple(sorted(orbit)))
        return orbits


def _moves(g: Graph, prefix: dict, v, inv, orbit,
           deadline: float | None = None):
    """For each a in ascending order that neither ``prefix`` uses nor
    ``orbit`` holds (v among it), the smallest-image-vector automorphism
    extending ``prefix`` and v -> a, where one exists, each search bounded
    by ``deadline``.  ``orbit`` is read as each a comes up, so a caller
    that grows it between the yields skips the images it reaches."""
    c = g.pair_colours()
    used = set(prefix.values())
    for a in range(1, g.n + 1):
        if a in used or a in orbit or not _fits(c, inv, prefix, v, a):
            continue
        phi = next(_extensions(g, {**prefix, v: a}, inv, deadline), None)
        if phi is not None:
            yield phi


def automorphism_group(g: Graph, deadline: float | None = None) -> AutGroup:
    """Generators plus exact order via an orbit-stabilizer chain.

    The levels are built from v = n down to 1; the generators found so far
    fix 1..v-1.  Level v takes ``_moves`` fixing 1..v-1, which tries an
    image a of v only where a lies outside v's orbit under them, and keeps
    the smallest-image-vector automorphism with v -> a, which enlarges that
    orbit.  The orbit is then v's whole orbit in the pointwise stabilizer
    of 1..v-1, the generators of levels >= v generate that stabilizer, and
    the product of the orbit sizes is the group order.  Past ``deadline``,
    a ``time.monotonic()`` value, the chain raises ``DeadlineExceeded``.
    """
    inv = _invariants(g)
    order = 1
    gens = []
    for v in range(g.n, 0, -1):
        prefix = {u: u for u in range(1, v)}
        orbit = {v}
        for phi in _moves(g, prefix, v, inv, orbit, deadline):
            gens.append(phi)
            walk(orbit, orbit, gens)  # all of it: phi moves old points too
        order *= len(orbit)
    return AutGroup(n=g.n, generators=tuple(gens), order=order)


def is_vertex_transitive(g: Graph, group: AutGroup | None = None) -> bool:
    group = group or automorphism_group(g)
    return len(walk({1}, (1,), group.generators)) == g.n


def act_on_pair(gen: Permutation, pair: frozenset) -> frozenset:
    """The image of an unordered pair {i,j}, or of a diagonal {j}, as an
    action for ``walk``."""
    return frozenset(map(gen.img.__getitem__, pair))


# -- disjoint automorphisms ------------------------------------------------


def _first_nonidentity_fixing(g: Graph, fixed, inv,
                              deadline=None) -> Permutation | None:
    """The non-identity automorphism fixing ``fixed`` pointwise with the
    smallest moved vertex w, then the smallest image of w, then the smallest
    image vector; None if only the identity fixes ``fixed``.  It need not
    have the smallest image vector: on C6 it is (1 2)(3 6)(4 5), not
    (2 6)(3 5)."""
    base = {v: v for v in fixed}
    for w in range(1, g.n + 1):
        if w not in base:
            phi = next(_moves(g, base, w, inv, {w}, deadline), None)
            if phi is not None:
                return phi
            base[w] = w  # no automorphism fixing base moves w
    return None


def _twin_masks(g: Graph, inv, deadline: float | None = None):
    """twins[v]: for each u != v with v's invariants, in ascending order,
    the bitmask of the vertices whose pair colours (distance, common
    neighbours) with v and with u differ, v and u among them.  The mask is
    symmetric in v and u, so each unordered pair is computed once and
    appended to both rows.  ``Graph.colour_masks`` keeps each row of
    colours as one bitmask per colour, so a pair costs one AND per colour
    of v's row, not n comparisons.  ``deadline`` is checked once per
    vertex v."""
    classes = g.colour_masks()
    vertices = g.vertices()
    full = (1 << (g.n + 1)) - 2
    twins = [[] for _ in range(g.n + 1)]
    for v in vertices:
        _check_deadline(deadline)
        mv, row = classes[v].items(), twins[v]
        for u in range(v + 1, g.n + 1):
            if inv[u] == inv[v]:
                mask = full & ~sum(m & classes[u].get(k, 0) for k, m in mv)
                row.append(mask)
                twins[u].append(mask)
    return twins


def _twin_closed_subsets(twins, n: int, size: int,
                         deadline: float | None = None):
    """Every subset A of 1..n with ``size`` vertices in which each v has a
    twin mask inside A, as sorted tuples in lexicographic order.  Every
    node of the enumeration checks ``deadline``.

    Vertices are chosen in increasing order, so those passed over are
    outside A for good; a prefix is dropped as soon as some chosen v has
    no twin mask that avoids them and fits in the room left.  With no room
    left that is the exact condition.
    """
    chosen = []

    def extend(mask, start):
        _check_deadline(deadline)
        room = size - len(chosen)
        out = ((1 << start) - 2) & ~mask
        for v in chosen:
            for m in twins[v]:
                if not m & out and (m & ~mask).bit_count() <= room:
                    break
            else:
                return
        if not room:
            yield tuple(chosen)
            return
        for v in range(start, n - room + 2):
            chosen.append(v)
            yield from extend(mask | 1 << v, v + 1)
            chosen.pop()

    return extend(0, 1)


def find_disjoint_automorphisms(g: Graph, deadline: float | None = None):
    """A pair of non-trivial automorphisms with disjoint supports, or None.

    Exact: if any disjoint pair exists, the one with the smaller support
    has support size at most n//2, and for its exact support A the scan
    below finds a witness (pointwise stabilizer of the complement) and a
    partner (non-identity pointwise stabilizer of A).  Candidate supports
    are visited by size then lexicographically, the witness is the
    smallest image vector with support exactly A, and the partner is
    ``_first_nonidentity_fixing``'s, so the result is deterministic.

    Only twin-closed subsets reach the search: each v in A needs a twin
    u in A, u != v, with v's invariants and the same pair colour
    (distance, common neighbours) c(x, v) = c(x, u) for all x outside A.
    An automorphism with support exactly A passes u = sigma(v), as
    c(x, v) = c(sigma x, sigma v) = c(x, u) when sigma fixes x.  The
    search still decides every candidate exactly.

    ``deadline`` is a ``time.monotonic()`` value, checked on entry, once
    per vertex of the twin masks, and at every node of the subset
    enumeration and of the searches for a witness and its partner; past it
    the scan raises ``DeadlineExceeded``.
    """
    _check_deadline(deadline)
    inv = _invariants(g)
    twins = _twin_masks(g, inv, deadline)
    vertices = g.vertices()
    for size in range(2, g.n // 2 + 1):
        for subset in _twin_closed_subsets(twins, g.n, size, deadline):
            fixed = {v: v for v in vertices if v not in subset}
            sigma = next((p for p in _extensions(g, fixed, inv, deadline)
                          if p.support() == subset), None)
            if sigma is None:
                continue
            partner = _first_nonidentity_fixing(g, subset, inv, deadline)
            if partner is not None:
                return sigma, partner
    return None
