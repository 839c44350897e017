#!/usr/bin/env python3
"""Tour of the graph layer: constructors, metrics, and the analytic
criterion that settles some circulants without any lemma machinery."""

from qsym import CirculantSpec, build_circulant, common_neighbours
from qsym.graphs import cosine_sums
from qsym.named import build_named, catalog_names

print("=" * 70)
print("the twelve-vertex catalog")
print("=" * 70)
for name in catalog_names():
    g = build_named(name)
    degs = sorted({g.degree(v) for v in g.vertices()})
    print(f"  {name:16s} n={g.n:3d} m={g.num_edges():3d} degrees={degs}")

print()
print("circulant graphs are the cycle plus chord classes:")
g = build_circulant(CirculantSpec(12, (4, 5)))
print(f"  C12(4,5): vertex 1 is adjacent to {sorted(g.neighbours(1))}")

print()
print("metric structure of the hexagonal prism K2[]C6:")
g = build_named("K2xC6")
d = g.distances()
print(f"  d(1,10) = {d[1][10]}; vertices at distance 4 from 1: "
      f"{[v for v in g.vertices() if d[1][v] == 4]}")
print(f"  |CN(1,3)| = {len(common_neighbours(g, 1, 3))}, "
      f"|CN(3,10)| = {len(common_neighbours(g, 3, 10))}")

print()
print("the paper's cosine sums for circulants (decide reads the exact "
      "spectrum instead):")
for chords in ((), (3,), (6,), (2,)):
    injective, values = cosine_sums(CirculantSpec(12, chords))
    label = f"C12{chords if chords else ''}"
    print(f"  {label:10s} injective={injective}  "
          f"values={[round(v, 2) for v in values]}")
