"""Named graphs with frozen vertex labelings.

The hand proofs about these graphs cite concrete vertex numbers, so the
constructors here pin the exact labelings used in those arguments (ring
orders, which triangle sits where, and so on).  Commutation certificates
produced by the engine then speak the same language as the written
proofs.  Everything else is built from the generic constructors.
"""

from __future__ import annotations

from .graphs import (
    CirculantSpec,
    Graph,
    GraphError,
    build_circulant,
    build_semicirculant,
    cartesian_product,
    direct_product,
    disjoint_copies,
)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
                 label=f"K{n}")


def cycle_graph(n: int) -> Graph:
    return build_circulant(CirculantSpec(n))


def edgeless_graph(n: int) -> Graph:
    return Graph(n, [], label=f"{n}K1")


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)], label=f"P{n}")


def circulant(n: int, *chords: int) -> Graph:
    return build_circulant(CirculantSpec(n, tuple(chords)))


def cube_graph() -> Graph:
    """The 3-cube as the prism over a 4-cycle: outer ring 1..4, inner 5..8."""
    g = cartesian_product(complete_graph(2), cycle_graph(4))
    return g.relabel("Cube")


# Four triangles {1,3,4}, {2,5,6}, {7,8,9}, {10,11,12}, each vertex with one
# edge leaving its triangle; labels follow the published picture.
_TRUNC_K4_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4), (3, 11), (4, 7),
    (5, 6), (5, 8), (6, 12), (7, 8), (7, 9), (8, 9), (9, 10), (10, 11),
    (10, 12), (11, 12),
]


def truncated_tetrahedron() -> Graph:
    return Graph(12, _TRUNC_K4_EDGES, label="Trunc(K4)")


# Distance-3 graph of the truncated tetrahedron, labels from its picture.
_ANTIP_TRUNC_K4_EDGES = [
    (1, 2), (1, 3), (1, 11), (1, 5), (2, 4), (2, 6), (2, 12), (3, 5),
    (3, 4), (3, 10), (4, 6), (4, 9), (5, 7), (5, 8), (6, 7), (6, 8),
    (7, 9), (7, 11), (8, 10), (8, 12), (9, 10), (9, 11), (10, 12), (11, 12),
]


def antipodal_truncated_tetrahedron() -> Graph:
    return Graph(12, _ANTIP_TRUNC_K4_EDGES, label="Antip(Trunc(K4))")


# Line graph of the cube with the labels of the published picture.
_CUBOCTAHEDRON_EDGES = [
    (1, 2), (1, 3), (1, 11), (1, 6), (2, 3), (2, 7), (2, 12), (3, 4),
    (3, 5), (4, 6), (4, 8), (4, 5), (5, 7), (5, 9), (6, 8), (6, 11),
    (7, 9), (7, 12), (8, 9), (8, 10), (9, 10), (10, 11), (10, 12), (11, 12),
]


def cuboctahedron() -> Graph:
    return Graph(12, _CUBOCTAHEDRON_EDGES, label="Cuboctahedron")


# Line graph of C6(2) with the labels of the published picture.
_LINE_C6_2_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 6), (1, 9), (1, 10),
    (2, 3), (2, 5), (2, 6), (2, 7), (2, 9),
    (3, 4), (3, 5), (3, 7), (3, 10),
    (4, 5), (4, 8), (4, 10), (4, 11),
    (5, 7), (5, 8), (5, 11),
    (6, 7), (6, 8), (6, 9), (6, 12),
    (7, 8), (7, 12),
    (8, 11), (8, 12),
    (9, 10), (9, 11), (9, 12),
    (10, 11), (10, 12),
    (11, 12),
]


def line_graph_c6_2() -> Graph:
    return Graph(12, _LINE_C6_2_EDGES, label="L(C6(2))")


def icosahedron() -> Graph:
    """Icosahedral graph: apex 1, upper ring 2..6, lower ring 7..11, apex 12."""
    edges = [(1, v) for v in range(2, 7)]
    edges += [(12, v) for v in range(7, 12)]
    ring_top = [2, 3, 4, 5, 6]
    ring_bot = [7, 8, 9, 10, 11]
    for idx in range(5):
        edges.append((ring_top[idx], ring_top[(idx + 1) % 5]))
        edges.append((ring_bot[idx], ring_bot[(idx + 1) % 5]))
        edges.append((ring_top[idx], ring_bot[idx]))
        edges.append((ring_top[(idx + 1) % 5], ring_bot[idx]))
    return Graph(12, edges, label="Icosahedron")


def petersen_graph() -> Graph:
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
             (6, 8), (8, 10), (10, 7), (7, 9), (9, 6),
             (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    return Graph(10, edges, label="Petersen")


def _k2_prism(h: Graph) -> Graph:
    """K2 [] h with the first h-copy on 1..n and the second on n+1..2n."""
    return cartesian_product(complete_graph(2), h)


_BUILDERS = {
    # sanity graphs
    "C5": lambda: cycle_graph(5),
    "K3": lambda: complete_graph(3),
    "C4": lambda: cycle_graph(4),
    "Petersen": petersen_graph,
    "K2": lambda: complete_graph(2),
    "Cube": cube_graph,
    # disconnected 12-vertex graphs
    "6K2": lambda: disjoint_copies(complete_graph(2), 6).relabel("6K2"),
    "4K3": lambda: disjoint_copies(complete_graph(3), 4).relabel("4K3"),
    "3K4": lambda: disjoint_copies(complete_graph(4), 3).relabel("3K4"),
    "3C4": lambda: disjoint_copies(cycle_graph(4), 3).relabel("3C4"),
    "2K6": lambda: disjoint_copies(complete_graph(6), 2).relabel("2K6"),
    "2C6": lambda: disjoint_copies(cycle_graph(6), 2).relabel("2C6"),
    "2(K2xK3)": lambda: disjoint_copies(_k2_prism(complete_graph(3)), 2),
    "2C6(2)": lambda: disjoint_copies(circulant(6, 2), 2).relabel("2C6(2)"),
    "2C6(3)": lambda: disjoint_copies(circulant(6, 3), 2).relabel("2C6(3)"),
    # products: direct for K6xK2/K3xK4, prisms K2[]h with outer ring 1..6
    "K6xK2": lambda: direct_product(complete_graph(6), complete_graph(2)),
    "K3xK4": lambda: direct_product(complete_graph(3), complete_graph(4)),
    "K2xC6": lambda: _k2_prism(cycle_graph(6)),
    "C4xC3": lambda: cartesian_product(cycle_graph(4), cycle_graph(3)),
    "K2xC6(2)": lambda: _k2_prism(circulant(6, 2)),
    "K2xC6(3)": lambda: _k2_prism(circulant(6, 3)),
    # circulants
    "C12": lambda: circulant(12),
    "K12": lambda: complete_graph(12),
    "C12(2)": lambda: circulant(12, 2),
    "C12(3)": lambda: circulant(12, 3),
    "C12(4)": lambda: circulant(12, 4),
    "C12(5)": lambda: circulant(12, 5),
    "C12(6)": lambda: circulant(12, 6),
    "C12(2,6)": lambda: circulant(12, 2, 6),
    "C12(3,6)": lambda: circulant(12, 3, 6),
    "C12(4,6)": lambda: circulant(12, 4, 6),
    "C12(4,5)": lambda: circulant(12, 4, 5),
    "C12(5,6)": lambda: circulant(12, 5, 6),
    # semicirculants
    "C12(5+)": lambda: build_semicirculant(12, (), (5,)),
    "C12(3+,6)": lambda: build_semicirculant(12, (6,), (3,)),
    "C12(5+,6)": lambda: build_semicirculant(12, (6,), (5,)),
    "C12(2,5+)": lambda: build_semicirculant(12, (2,), (5,)),
    "C12(4,5+)": lambda: build_semicirculant(12, (4,), (5,)),
    # special cases
    "Cuboctahedron": cuboctahedron,
    "L(C6(2))": line_graph_c6_2,
    "Icosahedron": icosahedron,
    "TruncK4": truncated_tetrahedron,
    "Antip(TruncK4)": antipodal_truncated_tetrahedron,
}

_ALIASES = {
    "L(Cube)": "Cuboctahedron",
    "Icosahedral graph": "Icosahedron",
    "Trunc(K4)": "TruncK4",
    "Antip(Trunc(K4))": "Antip(TruncK4)",
    "C12+": "C12(6)",
    "K2xC6+": "K2xC6(3)",
}

_RESOLVE = {spelling.upper().replace(" ", ""): name for spelling, name
            in [*zip(_BUILDERS, _BUILDERS), *_ALIASES.items()]}


def catalog_names():
    """All catalog names in their canonical spelling."""
    return list(_BUILDERS)


def canonical_name(name: str) -> str | None:
    """The catalog spelling of a name or alias, ignoring case and spaces;
    None for a name the catalog does not know."""
    return _RESOLVE.get(name.upper().replace(" ", ""))


def build_named(name: str) -> Graph:
    """Build a catalog graph from its name or alias (see canonical_name)."""
    key = canonical_name(name)
    if key is None:
        raise GraphError(f"unknown catalog graph {name!r} (see `qsym list`)")
    return _BUILDERS[key]()
