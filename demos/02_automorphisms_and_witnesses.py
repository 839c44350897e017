#!/usr/bin/env python3
"""Classical automorphism groups and disjoint-automorphism witnesses.

Two non-trivial automorphisms with disjoint supports force quantum
symmetry.  For vertex-transitive graphs up to 13 vertices this sufficient
condition turns out to be exact, which is what makes the catalog
classification fully mechanical."""

from itertools import combinations

from qsym import automorphism_group, find_disjoint_automorphisms
from qsym.named import build_named
from qsym.perms import act_on_pair, walk

print("orders of some automorphism groups (exact, via orbit-stabilizer "
      "counting):")
for name in ("C12", "Icosahedron", "C12(5)", "2K6", "K12"):
    aut = automorphism_group(build_named(name))
    print(f"  {name:12s} |Aut| = {aut.order}")

print()
print("disjoint pairs where they exist:")
for name in ("C12(5)", "C12(4,5)", "C12(5+)", "K2xC6(2)", "C12",
             "Icosahedron"):
    g = build_named(name)
    pair = find_disjoint_automorphisms(g)
    if pair is None:
        print(f"  {name:12s} none (no quantum symmetry from this route)")
    else:
        sigma, tau = pair
        print(f"  {name:12s} {sigma}  |  {tau}")

print()
print("orbits of vertex pairs drive fact transport in the lemma engine:")
g = build_named("K2xC6")
aut = automorphism_group(g)
d = g.distances()
seen = set()
for i, j in combinations(g.vertices(), 2):
    pair = frozenset((i, j))
    if pair in seen:
        continue
    orbit = walk({pair}, (pair,), aut.generators, act_on_pair)
    seen |= orbit
    sample = sorted(tuple(sorted(p)) for p in orbit)[:4]
    print(f"  orbit of {(i, j)}: distance {d[i][j]}, size {len(orbit)}, "
          f"e.g. {sample}")
