"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go by.  Budgets and tolerances are pinned here, not configurable.
"""

import itertools
import math
import random
import time

import pytest

import qsym.certificate as cm
from qsym.catalog import run_report, twelve_vertex_entries
from qsym.certificate import Certificate, ProofStep, verify_certificate
from qsym.engine import decide, lemma_fixpoint
from qsym.freealg import NcPoly
from qsym.graphs import CirculantSpec, cosine_sums
from qsym.groebner import (
    buchberger,
    commutator,
    commutator_reduces,
    normal_form,
    quantum_relations,
)
from qsym.named import build_named, complete_graph, cycle_graph, edgeless_graph
from qsym.perms import (
    Permutation,
    automorphism_group,
    is_automorphism,
    is_vertex_transitive,
    parse_cycles,
)

from replayer import IndependentReplayer
from test_groebner import edgeless_span_oracle
from util import conjugate


def _line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def graphs():
    return {e.name: e.build() for e in twelve_vertex_entries()}


@pytest.fixture(scope="module")
def verdicts(graphs):
    return {name: decide(g) for name, g in graphs.items()}


def test_criterion_1_catalog_fidelity(graphs):
    start = time.monotonic()
    entries = twelve_vertex_entries()
    sizes = {}
    for e in entries:
        sizes[e.subclass] = sizes.get(e.subclass, 0) + 1
    ok = len(entries) == 37 and sizes == {
        "disconnected": 9, "product": 6, "circulant": 12,
        "semicirculant": 5, "special": 5}
    vt_ok = all(is_vertex_transitive(graphs[e.name]) for e in entries)
    elapsed = time.monotonic() - start
    _line(1, ok and vt_ok and elapsed < 5.0,
          f"37 entries, subclasses 9/6/12/5/5, all vertex-transitive "
          f"({elapsed:.1f}s < 5s)")


def test_criterion_2_classical_groups(graphs):
    start = time.monotonic()
    mismatches = []
    for e in twelve_vertex_entries():
        order = automorphism_group(graphs[e.name]).order
        if order != e.expected_aut_order:
            mismatches.append((e.name, order, e.expected_aut_order))
    elapsed = time.monotonic() - start
    _line(2, not mismatches and elapsed < 120.0,
          f"all 37 |Aut| match the derived orders ({elapsed:.1f}s < 120s); "
          f"mismatches: {mismatches}")


# the published disjoint-automorphism witnesses, verbatim; the product
# graph's bracket pairs [i,k] translate to (i-1)*6 + k in our labels
PAPER_WITNESSES = {
    "C12(5)": ("(1 7)", "(4 10)"),
    "C12(4,5)": ("(1 7)(3 9)(5 11)", "(2 8)(4 10)(6 12)"),
    "C12(5,6)": ("(1 7)", "(4 10)"),
    "C12(5+)": ("(1 7)(2 8)", "(3 9)(4 10)"),
    "C12(3+,6)": ("(2 7)(3 10)(6 11)", "(1 8)(4 9)(5 12)"),
    "C12(5+,6)": ("(1 7)(2 8)", "(3 9)(4 10)"),
    "K2xC6(2)": ("(1 4)(7 10)", "(2 5)(8 11)"),
}


def test_criterion_3_quantum_symmetry_detection(graphs):
    start = time.monotonic()
    flagged = {e.name for e in twelve_vertex_entries()
               if e.expected_has_qsym}
    verdicts = {name: decide(g) for name, g in graphs.items()}
    detected = {name for name, v in verdicts.items()
                if v.kind == "HasQuantumSymmetry"}
    problems = []
    if detected != flagged:
        problems.append(f"detected {sorted(detected ^ flagged)} differ")
    for name in sorted(detected):
        sigma, tau = verdicts[name].witness
        g = graphs[name]
        if sigma.is_identity() or tau.is_identity() \
                or not is_automorphism(g, sigma) \
                or not is_automorphism(g, tau) \
                or set(sigma.support()) & set(tau.support()):
            problems.append(f"bad witness for {name}")
    for name, (s_text, t_text) in PAPER_WITNESSES.items():
        g = graphs[name]
        for text in (s_text, t_text):
            perm = parse_cycles(text, 12)
            if not is_automorphism(g, perm):
                problems.append(f"published witness {text} fails on {name}")
    elapsed = time.monotonic() - start
    _line(3, not problems and elapsed < 60.0,
          f"exactly the 21 flagged entries detected, witnesses verified, "
          f"published pairs hold ({elapsed:.1f}s < 60s); {problems}")


MECHANICAL = ["C5", "K2xC6", "C12(2)", "C12(4)", "C12(2,6)", "C12(3,6)",
              "C12(4,6)", "C12(2,5+)", "C12(4,5+)", "L(C6(2))"]
SOFT_TARGETS = ["TruncK4", "Antip(TruncK4)", "Cuboctahedron", "Icosahedron"]


def test_criterion_4_mechanical_commutativity_proofs():
    problems = []
    for name in MECHANICAL:
        g = build_named(name)
        start = time.monotonic()
        verdict = decide(g, engine="lemmas")
        elapsed = time.monotonic() - start
        if verdict.kind != "NoQuantumSymmetry":
            problems.append(f"{name}: {verdict.kind}")
            continue
        if not verify_certificate(g, verdict.certificate):
            problems.append(f"{name}: certificate fails verification")
        if elapsed >= 10.0:
            problems.append(f"{name}: {elapsed:.1f}s >= 10s")
    soft = {}
    for name in SOFT_TARGETS:
        verdict = decide(build_named(name), engine="lemmas")
        soft[name] = verdict.kind
        if verdict.kind == "HasQuantumSymmetry":
            problems.append(f"soft target {name} flagged quantum")
    _line(4, not problems,
          f"lemma engine closes all 10 mechanical graphs with verified "
          f"certificates; soft targets {soft}; {problems}")


# reported cosine sums; the (3,) row's third entry is an erratum in the
# source (its own formula gives cos(pi/2) + cos(3pi/2) = 0), so that one
# entry is checked against the formula value instead
PAPER_F_TABLE = {
    (): (0.87, 0.5, 0.0, -0.5, -0.87, -1.0),
    (3,): (0.87, -0.5, 0.0, 0.5, -0.87, -2.0),
    (6,): (-0.13, 1.5, -1.0, 0.5, -1.87, 0.0),
}


def test_criterion_5_injective_f():
    problems = []
    for chords, expected in PAPER_F_TABLE.items():
        injective, values = cosine_sums(CirculantSpec(12, chords))
        if not injective:
            problems.append(f"C12{chords}: not injective")
        for s, (got, want) in enumerate(zip(values, expected), start=1):
            if abs(got - want) > 0.01:
                problems.append(f"C12{chords} f({s}) = {got:.4f} != {want}")
    _line(5, not problems,
          f"cosine sums match the reported table within 0.01 and are "
          f"injective for C12, C12(3), C12(6); {problems}")


def test_criterion_6_zero_contradictions():
    start = time.monotonic()
    report = run_report(twelve_vertex_entries())
    elapsed = time.monotonic() - start
    _line(6, not report["contradictions"] and not report["errors"]
          and not report["aut_mismatches"],
          f"full catalog report: contradictions {report['contradictions']}, "
          f"errors {report['errors']}, order mismatches "
          f"{report['aut_mismatches']} ({elapsed:.1f}s)")


def test_criterion_7a_k3_commutators():
    start = time.monotonic()
    g = complete_graph(3)
    gb = buchberger(quantum_relations(g), max_degree=4)
    letters = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    failures = [(a, b) for a, b in itertools.combinations(letters, 2)
                if not commutator_reduces(gb, a, b)]
    elapsed = time.monotonic() - start
    _line("7a", not failures and elapsed < 10.0,
          f"all 36 commutators of the triangle's relations reduce at "
          f"cap 4 ({elapsed:.1f}s < 10s); failures: {failures}")


def test_criterion_7b_dense_oracle_agreement():
    disagreements = []
    for n in (1, 2, 3):
        g = edgeless_graph(n)
        rels = quantum_relations(g)
        gb = buchberger(rels, max_degree=4)
        letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        oracle = edgeless_span_oracle(n)
        pivots = oracle.snapshot()
        rng = random.Random(n + 40)
        tests = [commutator(a, b)
                 for a, b in itertools.combinations(letters, 2)]
        for _ in range(20):
            rel = rng.choice(rels)
            a = tuple(rng.choice(letters) for _ in range(rng.randint(0, 1)))
            b = tuple(rng.choice(letters) for _ in range(rng.randint(0, 1)))
            tests.append(conjugate(rel, a, b))
        for _ in range(20):
            terms = {tuple(rng.choice(letters)
                           for _ in range(rng.randint(0, 3))):
                     rng.randint(-3, 3) for _ in range(3)}
            tests.append(NcPoly(terms))
        for p in tests:
            if normal_form(p, gb.basis).is_zero != oracle.contains(p):
                disagreements.append((n, str(p)))
        assert oracle.pivots == pivots, n
    _line("7b", not disagreements,
          f"degree-4 ideal membership agrees with the dense span oracle "
          f"for n <= 3; disagreements: {disagreements}")


def test_criterion_7c_c4_irreducible_commutator():
    start = time.monotonic()
    g = cycle_graph(4)
    gb = buchberger(quantum_relations(g), max_degree=6)
    letters = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    irreducible = [(a, b) for a, b in itertools.combinations(letters, 2)
                   if not commutator_reduces(gb, a, b)]
    elapsed = time.monotonic() - start
    _line("7c", bool(irreducible) and elapsed < 60.0,
          f"{len(irreducible)} commutators of the 4-cycle stay irreducible "
          f"at cap 6, evidence only ({elapsed:.1f}s < 60s)")


# position of coordinate label (c4, c3) on the 12-cycle, per the published
# relabeling of C12(4,5)
C12_4_5_POSITIONS = {
    (1, 1): 1, (4, 2): 2, (3, 3): 3, (2, 1): 4, (1, 2): 5, (4, 3): 6,
    (3, 1): 7, (2, 2): 8, (1, 3): 9, (4, 1): 10, (3, 2): 11, (2, 3): 12,
}


def test_criterion_7_stretch_c12_4_5_identity():
    """Instances of u_{(i,a)(k,b)} = u_{(i',a)(k',b)} for antipodal i,i'
    and k,k' in the 4-cycle coordinate, reduced over the C12(4,5)
    relations at cap 3.  Permitted to skip above 30 minutes; it is far
    faster than that here."""
    budget = 30 * 60
    start = time.monotonic()
    g = build_named("C12(4,5)")
    gb = buchberger(quantum_relations(g), max_degree=3)
    if time.monotonic() - start > budget:
        pytest.skip("stretch goal exceeded the 30 minute budget")

    def antipode(i):
        return (i + 1) % 4 + 1

    failures = []
    for (i, a, k, b) in [(1, 1, 1, 1), (1, 1, 2, 2), (2, 1, 1, 3),
                         (4, 2, 3, 1)]:
        lhs = NcPoly.generator(C12_4_5_POSITIONS[(i, a)],
                               C12_4_5_POSITIONS[(k, b)])
        rhs = NcPoly.generator(C12_4_5_POSITIONS[(antipode(i), a)],
                               C12_4_5_POSITIONS[(antipode(k), b)])
        if not normal_form(lhs - rhs, gb.basis).is_zero:
            failures.append((i, a, k, b))
    elapsed = time.monotonic() - start
    _line("7-stretch", not failures,
          f"the published identity instances reduce to zero over the "
          f"C12(4,5) relations at cap 3 ({elapsed:.0f}s); {failures}")


# -- criterion 8: certificate integrity under mutation -----------------------


def _mutate_once(rng, cert):
    """One random single-field mutation; None when the draw is a dud."""
    idx = rng.randrange(len(cert.steps))
    s = cert.steps[idx]
    fields = sorted(s.fields)
    if not fields:
        return None
    key = rng.choice(fields)
    old = s.fields[key]
    n = cert.n
    if key in ("phi", "sigma", "tau"):
        a, b = rng.sample(range(1, n + 1), 2)
        new = parse_cycles(f"({a} {b})", n) * old
    elif key in ("survivors", "bases", "chords"):
        pool = list(range(1, n + 1))
        member = rng.choice(pool)
        vals = set(old)
        new = tuple(sorted(vals - {member} if member in vals
                           else vals | {member}))
        if not new:
            return None
    else:
        new = rng.randrange(1, n + 1)
        if new == old:
            return None
    mutated_fields = dict(s.fields)
    mutated_fields[key] = new
    steps = list(cert.steps)
    steps[idx] = ProofStep(s.kind, mutated_fields)
    return Certificate(cert.verdict, cert.n, cert.edges, tuple(steps)), idx, key


def test_criterion_8_certificate_integrity(graphs, verdicts):
    start = time.monotonic()
    produced = [(name, v.certificate) for name, v in verdicts.items()
                if v.certificate is not None]
    bad_produced = [name for name, cert in produced
                    if not verify_certificate(build_named(name), cert)]

    rng = random.Random(2024)
    targets = []
    for name in ("C5", "K2xC6"):
        g = build_named(name)
        aut = automorphism_group(g)
        kb, closed, _ = lemma_fixpoint(g, aut)
        assert closed
        cert = Certificate.for_graph(g, cm.VERDICT_NONE, kb.log)
        targets.append((g, cert, IndependentReplayer(g.n, g.edges())))

    accepted_counterfeits = []
    replayer_disagreements = []
    collected = 0
    draws = 0
    while collected < 100 and draws < 20000:
        draws += 1
        g, cert, replayer = targets[draws % len(targets)]
        out = _mutate_once(rng, cert)
        if out is None:
            continue
        mutated, idx, key = out
        if replayer.accepts(mutated):
            # the mutation landed on another valid proof: not a counterfeit,
            # but the two implementations must still agree on it
            if not verify_certificate(g, mutated):
                replayer_disagreements.append((idx, key))
            continue
        collected += 1
        if verify_certificate(g, mutated):
            accepted_counterfeits.append((idx, key))
    elapsed = time.monotonic() - start
    _line(8, not bad_produced and not accepted_counterfeits
          and not replayer_disagreements and collected == 100
          and elapsed < 30.0,
          f"every produced certificate verifies; {collected} mutated "
          f"counterfeits all rejected ({elapsed:.1f}s < 30s); "
          f"accepted: {accepted_counterfeits}, "
          f"disagreements: {replayer_disagreements}, bad: {bad_produced}")


def test_criterion_9_property_suites_always_runnable():
    # the full sweeps live in test_properties.py; this runs a condensed
    # version of each so the acceptance module is self-contained
    from util import commute_pairs, floyd_warshall, random_graph
    from qsym.graphs import complement
    problems = []
    for e in twelve_vertex_entries()[::4]:
        g = e.build()
        fw = floyd_warshall(g)
        d = g.distances()
        if any(d[i][j] != fw[i][j] for i in g.vertices()
               for j in g.vertices()):
            problems.append(f"distance oracle: {e.name}")
    rng = random.Random(9)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        if complement(complement(g)) != g:
            problems.append("complement involution")
            break
    g = build_named("C12(3,6)")
    aut = automorphism_group(g)
    kb, _, _ = lemma_fixpoint(g, aut)
    from qsym.perms import act_on_pair
    pairs = commute_pairs(kb)
    if any(act_on_pair(gen, p) not in pairs
           for gen in aut.generators for p in pairs):
        problems.append("kb orbit closure")
    gb = buchberger(quantum_relations(cycle_graph(4)), max_degree=4)
    letters = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for _ in range(50):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 3))):
                 rng.randint(-3, 3) for _ in range(3)}
        p = NcPoly(terms)
        once = normal_form(p, gb.basis)
        if normal_form(once, gb.basis) != once:
            problems.append("normal form idempotence")
            break
    _line(9, not problems,
          f"distance oracle, complement involution, kb orbit closure, "
          f"normal-form idempotence all hold; {problems}")
