"""Quantum symmetries of finite graphs.

A graph has quantum symmetries when the universal algebra generated by a
magic unitary commuting with its adjacency matrix is noncommutative; this
strictly extends the classical automorphism group.  The package decides
the question for small graphs three ways: disjoint-automorphism witnesses
(sufficient for quantum symmetry), an exact eigenvalue-injectivity
criterion for circulants (sufficient for its absence), and a lemma engine
that emits independently verifiable commutation certificates.  A
degree-bounded noncommutative Groebner basis over the defining relations
provides a second, purely algebraic commutation checker.
"""

from .graphs import (
    INFINITE,
    CirculantSpec,
    Graph,
    GraphError,
    build_circulant,
    build_semicirculant,
    cartesian_product,
    common_neighbours,
    complement,
    direct_product,
    disjoint_copies,
    injective_f_check,
    read_graph,
    write_graph,
)
from .named import build_named, catalog_names
from .perms import (
    AutGroup,
    DeadlineExceeded,
    Permutation,
    automorphism_group,
    find_automorphism,
    find_disjoint_automorphisms,
    is_automorphism,
    is_vertex_transitive,
    parse_cycles,
)
from .certificate import (
    Certificate,
    ProofStep,
    parse_certificate,
    render_certificate,
    serialize_certificate,
    verify_certificate,
)
from .engine import (
    CommutationKB,
    HasQuantumSymmetry,
    NoQuantumSymmetry,
    Undecided,
    decide,
    lemma_fixpoint,
    prove_pair,
)

__version__ = "0.1.0"
