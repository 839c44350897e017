"""Classical automorphism groups of small graphs.

Everything here is exact and deliberately unsophisticated: a backtracking
search over vertex images pruned by degree and distance profiles, an
orbit-stabilizer chain built from existence queries (which also yields the
exact group order without enumerating elements, so K12 with |Aut| = 12!
stays cheap), and an exhaustive-by-construction search for a pair of
non-trivial automorphisms with disjoint supports.  The latter decides the
question exactly: it scans candidate supports by size, which is enough
because the smaller support of any disjoint pair has at most n//2
vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph

ENUMERATION_CAP = 2_000_000


class CapabilityError(RuntimeError):
    """The request is beyond the supported problem size."""


class Permutation:
    """Permutation of 1..n, stored as its image vector (1-based)."""

    __slots__ = ("img",)

    def __init__(self, images):
        img = tuple(images)
        if img and img[0] != 0:
            img = (0,) + img
        n = len(img) - 1
        if sorted(img[1:]) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {img[1:]}")
        object.__setattr__(self, "img", img)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.img) - 1

    def __call__(self, v: int) -> int:
        return self.img[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(v) = p(q(v))
        return Permutation(self.img[other.img[v]] for v in range(1, self.n + 1))

    def inverse(self) -> "Permutation":
        inv = [0] * (self.n + 1)
        for v in range(1, self.n + 1):
            inv[self.img[v]] = v
        return Permutation(inv[1:])

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
    """Parse cycle notation like ``(1 7)(3 9 5)``; ``()`` is the identity."""
    img = list(range(n + 1))
    body = text.strip()
    if body in ("()", "id", ""):
        return Permutation.identity(n)
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        cyc = [int(tok) for tok in chunk.replace(",", " ").split()]
        if len(cyc) < 2 or len(set(cyc)) != len(cyc):
            raise ValueError(f"bad cycle {chunk!r}")
        for v, w in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} outside 1..{n}")
            img[v] = w
    return Permutation(img[1:])


def is_automorphism(g: Graph, perm: Permutation) -> bool:
    """Independent re-check: perm maps the neighbourhood of every vertex
    onto the neighbourhood of its image, so it preserves every pair."""
    if perm.n != g.n:
        return False
    img, rows = perm.img, g.rows
    for i in g.vertices():
        row, image = rows[i], 0
        while row:
            low = row & -row
            image |= 1 << img[low.bit_length() - 1]
            row ^= low
        if image != rows[img[i]]:
            return False
    return True


# -- backtracking core -----------------------------------------------------


def _invariants(g: Graph):
    d = g.distances()
    inv = [None] * (g.n + 1)
    for v in range(1, g.n + 1):
        inv[v] = (g.degree(v), tuple(sorted(d.d[v][1:], key=str)))
    return inv


def find_automorphism(g: Graph, pre: dict) -> Permutation | None:
    """Some automorphism extending the partial map ``pre``, or None.

    Candidate images are filtered by (degree, distance-profile) classes and
    the partial map is pruned by exact distance preservation against every
    vertex assigned so far.
    """
    n = g.n
    d = g.distances().d
    inv = _invariants(g)
    assigned = dict(pre)
    used = set(assigned.values())
    if len(used) != len(assigned):
        return None
    for v, a in assigned.items():
        if inv[v] != inv[a]:
            return None
    for v, a in assigned.items():
        for w, b in assigned.items():
            if d[v][w] != d[a][b]:
                return None

    todo = [v for v in range(1, n + 1) if v not in assigned]
    # most-constrained-first: vertices in small invariant classes first
    class_size = {}
    for v in range(1, n + 1):
        class_size[inv[v]] = class_size.get(inv[v], 0) + 1
    todo.sort(key=lambda v: (class_size[inv[v]], v))

    def consistent(v, a):
        if a in used or inv[v] != inv[a]:
            return False
        dv, da = d[v], d[a]
        for w, b in assigned.items():
            if dv[w] != da[b]:
                return False
        return True

    def dfs(pos):
        if pos == len(todo):
            return True
        v = todo[pos]
        for a in range(1, n + 1):
            if consistent(v, a):
                assigned[v] = a
                used.add(a)
                if dfs(pos + 1):
                    return True
                del assigned[v]
                used.discard(a)
        return False

    if not dfs(0):
        return None
    return Permutation(assigned[v] for v in range(1, n + 1))


def _lexmin_completion(g: Graph, pre: dict) -> Permutation:
    """Extend ``pre`` to the automorphism with lexicographically smallest
    image vector (pre must be extendable)."""
    assigned = dict(pre)
    for v in range(1, g.n + 1):
        if v in assigned:
            continue
        for a in range(1, g.n + 1):
            if a in assigned.values():
                continue
            trial = dict(assigned)
            trial[v] = a
            if find_automorphism(g, trial) is not None:
                assigned[v] = a
                break
    return Permutation(assigned[v] for v in range(1, g.n + 1))


# -- automorphism group ----------------------------------------------------


@dataclass(frozen=True)
class AutGroup:
    """Automorphism group given by generators and its exact order.

    The generators are the coset representatives of an orbit-stabilizer
    chain over the vertices 1, 2, ..., so they generate the full group.
    Element enumeration is on demand and capped: it is only feasible (and
    only needed) for the moderate orders in the catalog.
    """

    n: int
    generators: tuple
    order: int

    def vertex_orbits(self):
        """Orbits of vertices, each sorted, ordered by smallest element."""
        seen = set()
        orbits = []
        for v in range(1, self.n + 1):
            if v in seen:
                continue
            orbit = {v}
            frontier = [v]
            while frontier:
                w = frontier.pop()
                for gen in self.generators:
                    u = gen(w)
                    if u not in orbit:
                        orbit.add(u)
                        frontier.append(u)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
        return orbits

    def orbit_of(self, v: int):
        for orbit in self.vertex_orbits():
            if v in orbit:
                return orbit
        raise ValueError(f"vertex {v} outside 1..{self.n}")

    def elements(self, cap: int = ENUMERATION_CAP):
        """The full element set (closure of the generators under products)."""
        if self.order > cap:
            raise CapabilityError(
                f"group order {self.order} exceeds enumeration cap {cap}")
        ident = Permutation.identity(self.n)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for gen in self.generators:
                    q = gen * p
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        assert len(seen) == self.order, "closure does not match computed order"
        return seen


def automorphism_group(g: Graph) -> AutGroup:
    """Generators plus exact order via an orbit-stabilizer chain.

    At level v the search asks, for each candidate image a, whether some
    automorphism fixes 1..v-1 pointwise and maps v to a; the count of
    successes is the orbit size of v in the pointwise stabilizer, and the
    product over levels is the group order.
    """
    if g.n > 16:
        raise CapabilityError(f"n = {g.n} exceeds the supported bound 16")
    inv = _invariants(g)
    d = g.distances().d
    order = 1
    gens = []
    prefix = {}
    for v in range(1, g.n + 1):
        orbit_size = 1  # a = v always extends (the identity does)
        for a in range(1, g.n + 1):
            if a == v or inv[a] != inv[v]:
                continue
            if any(d[v][w] != d[a][w] for w in prefix):
                continue
            trial = dict(prefix)
            trial[v] = a
            phi = find_automorphism(g, trial)
            if phi is not None:
                orbit_size += 1
                gens.append(phi)
        order *= orbit_size
        prefix[v] = v
    return AutGroup(n=g.n, generators=tuple(gens), order=order)


def is_vertex_transitive(g: Graph, group: AutGroup | None = None) -> bool:
    group = group or automorphism_group(g)
    return len(group.orbit_of(1)) == g.n


# -- pair orbits -----------------------------------------------------------


@dataclass(frozen=True)
class PairOrbits:
    """Partition of unordered vertex pairs under the group action.

    Each orbit is tagged with the common distance of its pairs (an
    automorphism preserves distances, so the tag is well defined).
    """

    orbits: tuple
    distance: tuple

    def index_of(self, pair) -> int:
        key = frozenset(pair)
        for idx, orbit in enumerate(self.orbits):
            if key in orbit:
                return idx
        raise KeyError(pair)


def pair_orbits(g: Graph, group: AutGroup) -> PairOrbits:
    d = g.distances()
    seen = set()
    orbits = []
    dists = []
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            start = frozenset((i, j))
            if start in seen:
                continue
            orbit = {start}
            frontier = [(i, j)]
            while frontier:
                a, b = frontier.pop()
                for gen in group.generators:
                    im = frozenset((gen(a), gen(b)))
                    if im not in orbit:
                        orbit.add(im)
                        frontier.append(tuple(im))
            seen |= orbit
            orbits.append(frozenset(orbit))
            dists.append(d[i, j])
    return PairOrbits(orbits=tuple(orbits), distance=tuple(dists))


# -- disjoint automorphisms ------------------------------------------------


def _stabilizer_elements_within(g: Graph, moving) -> list:
    """All automorphisms fixing every vertex outside ``moving`` pointwise."""
    n = g.n
    d = g.distances().d
    moving = sorted(moving)
    fixed = [v for v in range(1, n + 1) if v not in moving]
    found = []
    assigned = {v: v for v in fixed}

    def dfs(pos, img):
        if pos == len(moving):
            found.append(Permutation(
                [img.get(v, v) for v in range(1, n + 1)]))
            return
        v = moving[pos]
        for a in moving:
            if a in img.values():
                continue
            ok = all(d[v][w] == d[a][img[w]] for w in img)
            if ok and all(d[v][w] == d[a][w] for w in fixed):
                img[v] = a
                dfs(pos + 1, img)
                del img[v]

    dfs(0, dict(assigned))
    return found


def _lexmin_nonidentity_fixing(g: Graph, fixed) -> Permutation | None:
    """Lexicographically smallest non-identity automorphism that fixes the
    given vertex set pointwise, or None if only the identity does."""
    fixed = set(fixed)
    base = {v: v for v in fixed}
    for w in range(1, g.n + 1):
        if w in fixed:
            continue
        for a in range(w + 1, g.n + 1):
            if a in fixed:
                continue
            trial = dict(base)
            trial[w] = a
            if find_automorphism(g, trial) is not None:
                return _lexmin_completion(g, trial)
        base[w] = w  # w stays fixed in any lex-smaller candidate
    return None


def find_disjoint_automorphisms(g: Graph):
    """A pair of non-trivial automorphisms with disjoint supports, or None.

    Exact: if any disjoint pair exists, the one with the smaller support
    has support size at most n//2, and for its exact support A the scan
    below finds a witness (pointwise stabilizer of the complement) and a
    partner (non-identity pointwise stabilizer of A).  Candidate supports
    are visited by size then lexicographically, and within a support the
    smallest image vector wins, so the result is deterministic.
    """
    n = g.n
    if n > 16:
        raise CapabilityError(f"n = {g.n} exceeds the supported bound 16")
    vertices = range(1, n + 1)
    for size in range(2, n // 2 + 1):
        for subset in combinations(vertices, size):
            elements = _stabilizer_elements_within(g, subset)
            movers = [p for p in elements if p.support() == subset]
            if not movers:
                continue
            partner = _lexmin_nonidentity_fixing(g, subset)
            if partner is None:
                continue
            movers.sort(key=lambda p: p.img)
            return movers[0], partner
    return None
