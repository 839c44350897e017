#!/usr/bin/env python3
"""The lemma engine end to end: derive, render, verify, and tamper.

The 5-cycle derivation below, run without the whole-graph shortcuts,
reproduces the classic worked example: two triple-product kills settle
the adjacent columns, the automorphisms spread the facts, and two
candidate reductions finish the distance-2 columns.  The certificate
states the generators of Aut(C5) once (GENERATOR) and marks where the
known facts are closed under them (ORBIT_CLOSE)."""

from qsym import decide
from qsym.certificate import (
    VERDICT_NONE,
    Certificate,
    parse_certificate,
    render_certificate,
    serialize_certificate,
    verify_certificate,
)
from qsym.engine import lemma_fixpoint
from qsym.named import build_named, cycle_graph
from qsym.perms import automorphism_group

g = cycle_graph(5)
aut = automorphism_group(g)
kb, closed, _ = lemma_fixpoint(g, aut, use_global_seeds=False)
cert = Certificate.for_graph(g, VERDICT_NONE, kb.log)
print(render_certificate(cert, "md"))

print("the same certificate in its serialized (verifiable) form:")
print(serialize_certificate(cert))

result = verify_certificate(g, cert)
print(f"independent verification: ok={bool(result)}")

print()
print("tampering with a single recorded survivor set:")
text = serialize_certificate(cert)
tampered = parse_certificate(
    text.replace("survivors=1", "survivors=1,4", 1))
result = verify_certificate(g, tampered)
print(f"  verifier says: ok={bool(result)}, step {result.step_index}: "
      f"{result.message}")

print()
print("a graph the lemmas cannot close is never mislabelled:")
verdict = decide(build_named("C12(5)"), engine="lemmas")
print(f"  C12(5) with the lemma engine alone: {verdict.kind} "
      f"({verdict.reason})")
verdict = decide(build_named("C12(5)"))
sigma, tau = verdict.witness
print(f"  C12(5) with the full pipeline: {verdict.kind}, "
      f"witness {sigma} | {tau}")
