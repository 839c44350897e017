"""Independent re-implementation of the certificate semantics.

Used as the ground truth for the mutation fuzzer: it replays a
certificate from the raw edge list alone, with pair colours built as
(Floyd-Warshall distance, common-neighbour count) tuples, direct set
computations, orbits closed breadth first over every known fact, and
circulant eigenvalues compared exactly in Z[x]/Phi_n, sharing no code
with the library verifier.
A mutation is a genuine counterfeit only if this replayer rejects it;
the fuzzer then demands the library verifier reject it too.
"""

import math

import qsym.certificate as cm


def polydivmod(num, den):
    """Quotient and remainder of integer polynomials, coefficients lowest
    degree first, by a monic ``den``."""
    num, k = list(num), len(den) - 1
    quot = [0] * max(0, len(num) - k)
    for i in reversed(range(len(quot))):
        quot[i] = c = num[i + k]
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return quot, tuple(num[:k])


def cyclotomic(n):
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = polydivmod(poly, cyclotomic(d))[0]
    return poly


def spectrum_injective(n, offsets):
    """True iff lambda_1..lambda_{n//2} are pairwise distinct, where
    lambda_s = sum of zeta^(x s) over the offsets x and zeta is a primitive
    n-th root of unity.  Each lambda_s is compared as its residue modulo
    Phi_n, which is unique because Z[zeta] = Z[x]/Phi_n."""
    phi = cyclotomic(n)
    residues = set()
    for s in range(1, n // 2 + 1):
        lam = [0] * n
        for x in offsets:
            lam[x * s % n] += 1
        residues.add(polydivmod(lam, phi)[1])
    return len(residues) == n // 2


# step fields that name one vertex, and those that list vertices
VERTEX_NAMES = ("j", "l", "p", "q")
VERTEX_LISTS = ("survivors", "bases")


def closure(sets, perms):
    """Every image of the vertex sets ``sets`` (frozensets: a pair, or one
    vertex) under every product of ``perms``, ``sets`` included."""
    out = set(sets)
    frontier = list(out)
    while frontier:
        fresh = []
        for x in frontier:
            for perm in perms:
                y = frozenset(perm(v) for v in x)
                if y not in out:
                    out.add(y)
                    fresh.append(y)
        frontier = fresh
    return out


class IndependentReplayer:
    def __init__(self, n, edges):
        self.n = n
        self.edge_set = {frozenset(e) for e in edges}
        d = [[math.inf] * (n + 1) for _ in range(n + 1)]
        for v in range(1, n + 1):
            d[v][v] = 0
        for i, j in edges:
            d[i][j] = d[j][i] = 1
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if d[i][k] + d[k][j] < d[i][j]:
                        d[i][j] = d[i][k] + d[k][j]
        self.d = d
        verts = range(1, n + 1)
        self.colour = [None] + [[None] + [(d[a][b], len(self.cn(a, b)))
                                          for b in verts] for a in verts]

    def adj(self, a, b):
        return frozenset((a, b)) in self.edge_set

    def cn(self, a, b):
        return {v for v in range(1, self.n + 1)
                if self.adj(v, a) and self.adj(v, b)}

    def is_aut(self, perm):
        return all(self.adj(i, j) == self.adj(perm(i), perm(j))
                   for i in range(1, self.n + 1)
                   for j in range(i + 1, self.n + 1))

    def names_only_vertices(self, s):
        """Every vertex that step ``s`` names lies in 1..n; a row indexed
        by -1 would otherwise be read as the row of vertex n."""
        verts = range(1, self.n + 1)
        for name, value in s.fields.items():
            if name in VERTEX_NAMES and value not in verts:
                return False
            if name in VERTEX_LISTS and any(x not in verts for x in value):
                return False
        return True

    def accepts(self, cert) -> bool:
        n, d, c = self.n, self.d, self.colour
        verts = range(1, n + 1)
        commute = set()
        killed = {}
        cands = {}
        gens = []

        def knows(a, b):
            return a == b or frozenset((a, b)) in commute

        def base_cands(j, l):
            return frozenset(p for p in verts if c[p][l] == c[j][l])

        try:
            for pos, s in enumerate(cert.steps):
                if not self.names_only_vertices(s):
                    return False
                k = s.kind
                if k == cm.CHOOSE_Q_RIGHT:
                    if d[s.j][s.l] == math.inf or not knows(s.l, s.q):
                        return False
                    cur = cands.get((s.j, s.l), base_cands(s.j, s.l))
                    new = frozenset(p for p in cur
                                    if c[p][s.q] == c[s.j][s.q])
                    if tuple(sorted(new)) != tuple(s.survivors):
                        return False
                    cands[(s.j, s.l)] = new
                elif k == cm.CHOOSE_Q_MIDDLE:
                    cjl = c[s.j][s.l]
                    if d[s.j][s.l] == math.inf or c[s.p][s.l] != cjl \
                            or s.p == s.j:
                        return False
                    if c[s.j][s.q] == c[s.q][s.p]:
                        return False
                    hits = {x for x in verts
                            if c[x][s.q] == c[s.l][s.q]
                            and c[x][s.j] == cjl and c[x][s.p] == cjl}
                    if hits != {s.l}:
                        return False
                    killed.setdefault((s.j, s.l), set()).add(s.p)
                elif k == cm.ADJ_COMMUTE_CLOSE:
                    if d[s.j][s.l] == math.inf:
                        return False
                    cur = cands.get((s.j, s.l), base_cands(s.j, s.l))
                    if cur - {s.j} - killed.get((s.j, s.l), set()):
                        return False
                    commute.add(frozenset((s.j, s.l)))
                    commute = closure(commute, gens)
                elif k == cm.GENERATOR:
                    if not self.is_aut(s.phi):
                        return False
                    gens.append(s.phi)
                    commute = closure(commute, gens)
                elif k == cm.CONCLUSION_COMMUTATIVE:
                    bases = {frozenset((b,)) for b in s.bases}
                    if closure(bases, gens) != {frozenset((v,))
                                                for v in verts}:
                        return False
                    for b in s.bases:
                        if any(not knows(b, l) for l in verts):
                            return False
                    if pos != len(cert.steps) - 1 \
                            or cert.verdict != cm.VERDICT_NONE:
                        return False
                elif k == cm.DISJOINT_WITNESS:
                    sig, tau = s.sigma, s.tau
                    if sig.is_identity() or tau.is_identity():
                        return False
                    if not (self.is_aut(sig) and self.is_aut(tau)):
                        return False
                    if set(sig.support()) & set(tau.support()):
                        return False
                    if cert.verdict != cm.VERDICT_HAS:
                        return False
                elif k == cm.INJECTIVE_F:
                    if s.n != self.n or s.n == 4:
                        return False
                    offsets = {1, s.n - 1}
                    for chord in s.chords:
                        if not 1 < chord <= s.n // 2:
                            return False
                        offsets |= {chord, s.n - chord}
                    want = {frozenset((i, j))
                            for i in verts for j in verts
                            if i < j and (j - i) % s.n in offsets}
                    if want != self.edge_set:
                        return False
                    if not spectrum_injective(s.n, offsets):
                        return False
                    if cert.verdict != cm.VERDICT_NONE:
                        return False
                else:
                    return False
        except Exception:
            return False
        if not cert.steps:
            return False
        final = cert.steps[-1].kind
        if cert.verdict == cm.VERDICT_NONE:
            return final in (cm.CONCLUSION_COMMUTATIVE, cm.INJECTIVE_F)
        if cert.verdict == cm.VERDICT_HAS:
            return final == cm.DISJOINT_WITNESS
        return False
