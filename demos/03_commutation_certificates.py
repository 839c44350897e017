#!/usr/bin/env python3
"""The lemma engine end to end: derive, render, verify, and tamper.

The 5-cycle derivation below follows the classic worked example: one
triple-product kill settles the column pair (1,2) and the automorphisms
carry it to every adjacent pair, then one candidate reduction settles
(1,3) and they carry that to every pair at distance 2.  The worked
example's rows for (1,5) and (1,4) are orbit images of these two, so the
certificate does not derive them.  It states the generators of Aut(C5)
once (GENERATOR), and the replay state closes each proved pair under
them as it enters."""

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
kb, closed, _ = lemma_fixpoint(g, aut)
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
