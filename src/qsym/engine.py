"""Deciding quantum symmetries of a graph.

The decision pipeline mirrors how these questions are settled by hand:

1. look for two non-trivial automorphisms with disjoint supports; their
   existence forces quantum symmetry, and the pair itself is the witness;
2. for circulant graphs, test exactly whether the adjacency eigenvalues
   lambda_1..lambda_{n//2} are pairwise distinct, which rules quantum
   symmetry out wholesale;
3. otherwise grow a monotone knowledge base of commutation facts about
   the generators u_ij from empty by saturating three lemma rules, until
   the rule table accepts the conclusion that one base column per vertex
   orbit commutes with everything (that is enough: automorphisms
   transport column facts along pair orbits, and the certificate states
   their generators once).

Every fact carries a replayable proof step, so the log of a closed run of
step 3 is a certificate that an independent verifier can check against
the graph alone; see :mod:`qsym.certificate`.  The lemma rules live there
once, in its rule table.  The search below only chooses field values and
where steps go (the smallest q, the next candidate p) and proposes each
step to the table, whose check decides whether the rule applies and
whose effect records the fact in the shared replay state, which closes
each commute fact under the stated generators as it enters.  ``decide``
replays every certificate it returns, whatever the stage, and raises
``EngineError`` on one that fails, so no verdict leaves the engine on
unchecked evidence.

The rules are one-sided: they can prove commutation, never refute it.  A
graph the engine cannot close stays Undecided rather than being declared
quantum-symmetric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import certificate as cert_mod
from .certificate import Certificate, CommutationKB, step, verify_certificate
from .graphs import INFINITE, Graph, injective_f_check
from .perms import (
    AutGroup,
    DeadlineExceeded,
    automorphism_group,
    find_disjoint_automorphisms,
)

DEFAULT_TIMEOUT = 30.0


class EngineError(RuntimeError):
    pass


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class HasQuantumSymmetry:
    witness: tuple
    certificate: Certificate
    kind = "HasQuantumSymmetry"


@dataclass(frozen=True)
class NoQuantumSymmetry:
    certificate: Certificate
    kind = "NoQuantumSymmetry"


@dataclass(frozen=True)
class Undecided:
    reason: str
    summary: dict = field(default_factory=dict)
    certificate = None
    kind = "Undecided"


# -- proposing steps to the rule table ---------------------------------------


def _propose(kb: CommutationKB, kind, **fields) -> bool:
    """Record the step iff its rule's check accepts it; the check runs once."""
    if cert_mod.RULES[kind].check(kb, **fields) is not None:
        return False
    kb.apply(cert_mod.ProofStep(kind, fields))
    return True


# -- lemma rules -------------------------------------------------------------


def reduce_candidates(kb: CommutationKB, j, l):
    """Shrink the survivor set for (j,l) with every usable column q.

    Starting from P0 = {p : c(p,l) = c(j,l)}, c the pair colour, each q
    whose column commutes with column l restricts the survivors to
    {p : c(p,q) = c(j,q)}.  Only strictly shrinking applications are
    recorded.  j itself always survives.  The reduction runs on bitmasks;
    ``kb.survivors(j, l)`` holds its result as one, and the return value
    is that set.
    """
    cand = kb.survivors(j, l)
    for q in kb.graph.vertices():
        if cand.bit_count() == 1:
            break
        if not kb.knows_commute(l, q):
            continue
        new = cert_mod.narrowed(kb, cand, j, q)
        if new != cand and _propose(kb, cert_mod.CHOOSE_Q_RIGHT, j=j, l=l,
                                    q=q, survivors=cert_mod.bits(new)):
            cand = new
    return set(cert_mod.bits(cand))


def prove_pair(kb: CommutationKB, j, l) -> bool:
    """Try to establish commute({j,l}); partial kills are kept either way."""
    if kb.dist[j][l] == INFINITE:
        raise EngineError(f"({j},{l}) lie in different components")
    if kb.knows_commute(j, l):
        return True

    reduce_candidates(kb, j, l)
    for p in cert_mod.bits(kb.unkilled(j, l)):
        kill = cert_mod.middle_qs(kb, j, l, p)[1]  # p is a candidate
        if kill:  # the smallest q that kills
            _propose(kb, cert_mod.CHOOSE_Q_MIDDLE, j=j, l=l, p=p,
                     q=cert_mod.bits(kill)[0])
    return _propose(kb, cert_mod.ADJ_COMMUTE_CLOSE, j=j, l=l)


def lemma_fixpoint(g: Graph, aut: AutGroup | None = None,
                   deadline: float | None = None):
    """Saturate the lemma rules; returns (kb, closed, timed_out).

    The knowledge base starts empty, on a connected graph only (else
    ``EngineError``), and one ``GENERATOR`` step states each generator of
    ``aut``.  Every fact is then derived by the three search rules: the
    candidate reduction ``CHOOSE_Q_RIGHT``, the kill ``CHOOSE_Q_MIDDLE``
    and ``ADJ_COMMUTE_CLOSE`` once no candidate but j is left.  Sweeps
    visit one base vertex per vertex orbit and its partner columns in
    ascending distance order, while a base column has an open partner
    and until a sweep proves nothing (each other sweep adds one of the
    n(n-1)/2 commute facts).  The replay state adds every image of a
    proved pair under the generators with the pair itself, so the facts
    stay closed under Aut(G) and the sweep never derives a pair that is
    an image of known ones.
    ``closed`` is the table's answer to the ``CONCLUSION_COMMUTATIVE``
    step proposed last: a closed ``kb.log`` is the whole certificate, an
    open one holds no conclusion.  ``deadline`` also bounds the group
    search when ``aut`` is not given: past it that search raises
    ``DeadlineExceeded``, while the sweeps stop with ``timed_out`` set.
    """
    if not g.is_connected():
        raise EngineError("the lemma engine requires a connected graph")
    aut = aut or automorphism_group(g, deadline=deadline)
    kb = CommutationKB(g)
    for phi in aut.generators:
        _propose(kb, cert_mod.GENERATOR, phi=phi)
    reps = tuple(orbit[0] for orbit in aut.vertex_orbits())

    while kb.open_column_pair(reps) is not None:
        added_this_round = False
        for j0 in reps:
            # by distance from j0, then by vertex: the sort is stable
            for l in sorted(g.vertices(), key=kb.dist[j0].__getitem__):
                if kb.knows_commute(j0, l):
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    return kb, False, True
                if prove_pair(kb, j0, l):
                    added_this_round = True
        if not added_this_round:
            break
    closed = _propose(kb, cert_mod.CONCLUSION_COMMUTATIVE, bases=reps)
    return kb, closed, False


# -- the decision pipeline ---------------------------------------------------


def decide(g: Graph, timeout: float = DEFAULT_TIMEOUT,
           engine: str = "auto", aut: AutGroup | None = None):
    """Decide whether ``g`` has quantum symmetries.

    ``engine`` selects the pipeline: "auto" runs the disjoint-automorphism
    test, then (for circulants) the injectivity criterion, then the lemma
    fixpoint; "lemmas" runs only the fixpoint.  ``aut``, if given, is
    ``automorphism_group(g)``, which the fixpoint then does not recompute.
    Returns a verdict object; Undecided is the fallback, never a wrong
    answer.  Each certificate returned (a lemma one is the closed
    fixpoint's log) has been replayed once by ``verify_certificate``; one
    that fails raises ``EngineError``.
    ``timeout`` is the one bound: past it, the scan, the group or the
    fixpoint ends in ``Undecided(reason="timeout")``; a nan one, which
    would never expire, raises ``ValueError``.  The deadline is
    checked between searches, so the overrun is at most one search: over
    the 3,066 circulants C_n(S), 5 <= n <= 22, the longest gap between two
    checks (or the call's ends) is about 16 ms on Python 3.11 and 2 vCPU,
    on C22(2,3,4,6,7,8,9,10,11): one support size of the disjoint scan,
    then the injectivity test.  ``Graph.pair_colours`` and
    ``Graph.colour_masks``, each computed once per graph, stay the steps
    that read no deadline: on the 126-vertex Kneser graph K(9,4) the pair
    colours take about 12 ms, distances included, and their colour
    classes about 3 ms more.
    """
    if engine not in ("auto", "lemmas"):
        raise ValueError(f"unknown engine {engine!r}")
    if math.isnan(timeout):
        raise ValueError("timeout is nan")
    try:
        verdict = _decide(g, time.monotonic() + timeout, engine, aut)
    except DeadlineExceeded:
        return Undecided(reason="timeout")
    if verdict.certificate is not None:
        check = verify_certificate(g, verdict.certificate)
        if not check:
            raise EngineError(f"internal error: produced certificate fails "
                              f"verification at step {check.step_index}: "
                              f"{check.message}")
    return verdict


def _decide(g: Graph, deadline: float, engine: str, aut: AutGroup | None):
    if engine == "auto":
        pair = find_disjoint_automorphisms(g, deadline=deadline)
        if pair is not None:
            sigma, tau = pair
            cert = Certificate.for_graph(
                g, cert_mod.VERDICT_HAS,
                [step(cert_mod.DISJOINT_WITNESS, sigma=sigma, tau=tau)])
            return HasQuantumSymmetry(witness=pair, certificate=cert)

        spec = g.circulant
        if spec is not None and spec.n != 4 and injective_f_check(spec)[0]:
            cert = Certificate.for_graph(
                g, cert_mod.VERDICT_NONE,
                [step(cert_mod.INJECTIVE_F, n=spec.n, chords=spec.chords)])
            return NoQuantumSymmetry(certificate=cert)

    if not g.is_connected():
        reason = ("disconnected graph without a disjoint automorphism pair"
                  if engine == "auto" else
                  "the lemma engine requires a connected graph")
        return Undecided(reason=reason)

    aut = aut or automorphism_group(g, deadline=deadline)
    kb, closed, timed_out = lemma_fixpoint(g, aut, deadline=deadline)
    if closed:
        return NoQuantumSymmetry(certificate=Certificate.for_graph(
            g, cert_mod.VERDICT_NONE, kb.log))
    reason = "timeout" if timed_out else "lemma rules saturated without closing"
    return Undecided(reason=reason, summary=kb.summary())
