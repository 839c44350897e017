"""Machine-checkable proof certificates for quantum-symmetry verdicts.

A certificate is a replayable log of lemma applications.  Every step names
one of a fixed set of rules about the generators u_ij of the commutation
algebra of a graph; each rule's side conditions can be re-checked from the
graph and the previously accepted steps alone, so a verifier that knows
nothing about the search that produced the log can still validate the
conclusion.  Each rule is written once, in the table ``RULES``: its fields,
its side-condition check and its effect on the replay state
(:class:`CommutationKB`).  The verifier replays a log through that table,
and the lemma engine proposes every step it finds to the same table.  Two
kinds of facts accumulate during replay:

* ``commute {j,l}``  --  u_ij u_kl = u_kl u_ij for all rows i, k;
* ``killed (j,l): p``  --  u_ij u_kl u_ip = 0 for all rows i, k.

Automorphisms enter once each, as ``GENERATOR`` steps.  The replay state
keeps the commute facts closed under the generators stated so far, so a
fact carries its whole orbit from the step that proves it, and the
conclusion reaches every vertex from its bases along their orbits.

The serialized form is line oriented (one step per line, stable field
order) and embeds the graph, so a certificate file is self-contained.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

from .graphs import (
    INFINITE,
    CirculantSpec,
    Graph,
    _decimal,
    build_circulant,
    injective_f_check,
    read_graph,
)
from .perms import is_automorphism, parse_cycles, walk

# step kinds
CHOOSE_Q_RIGHT = "CHOOSE_Q_RIGHT"
CHOOSE_Q_MIDDLE = "CHOOSE_Q_MIDDLE"
GENERATOR = "GENERATOR"
ADJ_COMMUTE_CLOSE = "ADJ_COMMUTE_CLOSE"
CONCLUSION_COMMUTATIVE = "CONCLUSION_COMMUTATIVE"
DISJOINT_WITNESS = "DISJOINT_WITNESS"
INJECTIVE_F = "INJECTIVE_F"

VERDICT_NONE = "no_quantum_symmetry"
VERDICT_HAS = "has_quantum_symmetry"


@dataclass(frozen=True)
class ProofStep:
    kind: str
    fields: dict = field(default_factory=dict)

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __str__(self):
        return serialize_step(self)


def _check_kind(kind, keys) -> None:
    """Raise ``ValueError`` unless ``kind`` is a rule and ``keys`` exactly
    its fields."""
    rule = RULES.get(kind)
    if rule is None:
        raise ValueError(f"unknown step kind {kind!r}")
    if keys != set(rule.fields):
        raise ValueError(f"{kind} takes the fields {rule.fields}, "
                         f"not {tuple(keys)}")


def step(kind, /, **fields) -> ProofStep:
    """A step of ``kind`` with exactly the fields its rule takes."""
    _check_kind(kind, fields.keys())
    return ProofStep(kind, fields)


@dataclass(frozen=True)
class Certificate:
    """A verdict's proof object, bound to the graph it talks about."""

    verdict: str
    n: int
    edges: tuple
    steps: tuple

    @staticmethod
    def for_graph(g: Graph, verdict: str, steps) -> "Certificate":
        return Certificate(verdict=verdict, n=g.n, edges=g.edges(),
                           steps=tuple(steps))

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def matches(self, g: Graph) -> bool:
        return g.n == self.n and set(g.edges()) == set(self.edges)


# -- serialization ---------------------------------------------------------

HEADER = "qsym-certificate v3"
# earlier headers, each refused with the reason its certificates no longer
# replay
RETIRED = {
    "qsym-certificate v1": "its rules compared distances, later versions "
                           "compare pair colours",
    "qsym-certificate v2": "it named an automorphism in every AUT_TRANSFER "
                           "and VERTEX_TRANSIT step, v3 states the generators "
                           "once and closes by orbit",
}


def _token(key, value) -> str:
    """The written form ``key=value`` of one field."""
    if key in ("phi", "sigma", "tau"):
        # compact cycle notation, no spaces: (1,7)(3,9,5)
        return f"{key}={str(value).replace(' ', ',')}"
    if key in ("survivors", "chords", "bases"):
        return f"{key}={','.join(map(str, value)) or '-'}"
    return f"{key}={value}"


def _parse_value(key, text, n):
    if key in ("phi", "sigma", "tau"):
        return parse_cycles(text, n)
    if key in ("survivors", "chords", "bases"):
        if text == "-":
            return ()
        return tuple(map(_decimal, text.split(",")))
    return _decimal(text)


def serialize_step(s: ProofStep) -> str:
    fields = s.fields
    parts = [s.kind]
    for key in RULES[s.kind].fields:
        parts.append(_token(key, fields[key]))
    return " ".join(parts)


def serialize_certificate(cert: Certificate) -> str:
    return "\n".join(_lines(cert)) + "\n"


def _head(verdict, n, edges) -> list:
    """The header, verdict and graph lines of a certificate."""
    return [HEADER, f"verdict {verdict}", f"graph p {n}",
            *(f"graph e {i} {j}" for i, j in edges)]


def _lines(cert: Certificate) -> list:
    return _head(cert.verdict, cert.n, cert.edges) + [
        "step " + serialize_step(s) for s in cert.steps]


def parse_certificate(text: str) -> Certificate:
    """The certificate that ``text`` serializes.  Every line after the
    header and the verdict must be a ``graph`` or a ``step`` record, else
    ``ValueError`` names it.  The text must be the certificate's own
    serialization, up to blank lines and surrounding whitespace: a line
    that would read back differently (``graph e 2 1``, ``j=01``, a cycle
    written from another vertex) is refused by name.

    Each distinct field token (``j=3``, ``survivors=2,7``) is read once
    per certificate: a memo keeps its value and its written form
    ``key=value``.  The read-back is still the whole serialization, line
    for line; a step whose fields come in table order is written back
    from the memo's written forms, any other through
    :func:`serialize_step`."""
    rows = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in rows if ln]
    if lines and lines[0] in RETIRED:
        raise ValueError(f"{lines[0]} is retired: {RETIRED[lines[0]]}; "
                         f"re-run `qsym certificate` on the graph")
    if not lines or lines[0] != HEADER:
        raise ValueError("not a qsym certificate (missing header)")
    if len(lines) < 2 or not lines[1].startswith("verdict "):
        raise ValueError("missing verdict line")
    verdict = lines[1].split(None, 1)[1]
    step_lines = []
    for ln in lines[2:]:
        if ln.startswith("step "):
            step_lines.append(ln[5:])
        elif not ln.startswith("graph "):
            raise ValueError(f"not a graph or step record: {ln!r}")
    # the other lines blanked, so read_graph names a bad graph record by
    # its line in the file
    g = read_graph("\n".join(ln[6:] if ln.startswith("graph ") else ""
                             for ln in rows))
    n, edges = g.n, g.edges()
    readback = _head(verdict, n, edges)
    memo = {}  # token -> (value, written form)
    steps = []
    for ln in step_lines:
        kind, *tokens = ln.split()
        fields = {}
        for tok in tokens:
            key, eq, _ = tok.partition("=")
            if not eq or key in fields:
                raise ValueError(f"malformed field {tok!r} in {kind}")
            fields[key] = tok
        # kind and field set first, so a retired field is named as such
        rule = RULES.get(kind)
        in_order = rule is not None and tuple(fields) == rule.fields
        if not in_order:
            _check_kind(kind, fields.keys())
        written = [kind]
        for key, tok in fields.items():
            known = memo.get(tok)
            if known is None:
                value = _parse_value(key, tok[len(key) + 1:], n)
                known = memo[tok] = (value, _token(key, value))
            fields[key] = known[0]
            written.append(known[1])
        s = ProofStep(kind, fields)
        steps.append(s)
        readback.append("step " + (" ".join(written) if in_order
                                   else serialize_step(s)))
    cert = Certificate(verdict=verdict, n=n, edges=edges, steps=tuple(steps))
    for line, own in zip_longest(lines, readback):
        if line != own:
            raise ValueError(f"certificate line {line!r} does not read back:"
                             f" the serialization has {own!r} in its place")
    return cert


# -- replay state ----------------------------------------------------------


def bits(mask) -> tuple:
    """The vertices of the bitmask ``mask``, in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class CommutationKB:
    """Monotone store of proven facts, searched by the lemma engine and
    replayed into by the verifier.  It is the only input of a rule check:
    ``graph`` is the graph the facts are about, and ``dist``, ``colours``
    and ``masks`` its tables ``distances()``, ``pair_colours()`` and
    ``colour_masks()``, each read on first use and then kept as a plain
    attribute, so a replay of a witness or an injectivity step builds none
    of them.  ``commute`` holds column pairs {j,l} as integer codes: with
    m = n + 1 and j <= l, {j,l} has the code j*m + l, and a diagonal {j}
    the code j*m + j; the code is injective on the vertices 0..n only,
    which is why the verifier refuses any other vertex before a check
    runs.  ``killed[(j,l)]`` is the bitmask
    of the vertices p killed for (j,l), ``candidates[(j,l)]`` that of the
    survivors of the reductions so far, ``generators`` the automorphisms
    that accepted ``GENERATOR`` steps have stated, and ``tables`` their
    pair tables.  The pair table of phi maps the code of (i,j), i*m + j
    for any order of i and j, to the code of {phi(i), phi(j)}.  For phi
    in Aut(G), u_ij -> u_phi(i)phi(j) extends to an automorphism of the
    algebra, so each image of a commute fact is one too, and ``commute``
    stays closed under the tables: a new fact is walked through all of
    them, and a new generator walks every known fact.  Facts only enter
    through :meth:`apply`."""

    def __init__(self, g: Graph):
        self.graph = g
        self.m = g.n + 1
        self.commute: set = set()
        self.killed: dict = {}
        self.candidates: dict = {}
        self.generators: list = []
        self.tables: list = []
        self.log: list = []

    @functools.cached_property
    def dist(self):
        return self.graph.distances()

    @functools.cached_property
    def colours(self):
        return self.graph.pair_colours()

    @functools.cached_property
    def masks(self):
        return self.graph.colour_masks()

    def knows_commute(self, j, l) -> bool:
        return j == l or (j * self.m + l if j <= l
                          else l * self.m + j) in self.commute

    def survivors(self, j, l) -> int:
        """Candidates for (j,l) as a bitmask: P0 = {p : c(p,l) = c(j,l)},
        c the pair colour, until a candidate reduction narrows it."""
        cand = self.candidates.get((j, l))
        if cand is None:
            cand = self.candidates[(j, l)] = narrowed(self, -1, j, l)
        return cand

    def unkilled(self, j, l) -> int:
        """The candidates for (j,l) but j not yet killed, as a bitmask."""
        return self.survivors(j, l) & ~(1 << j) & ~self.killed.get((j, l), 0)

    def open_column_pair(self, bases):
        """The first (base, l) not yet known to commute, or None."""
        return next(((b, l) for b in bases for l in self.graph.vertices()
                     if not self.knows_commute(b, l)), None)

    def apply(self, s: ProofStep):
        """Record an accepted step: its effect on the facts, then the log."""
        effect = RULES[s.kind].effect
        if effect is not None:
            effect(self, **s.fields)
        self.log.append(s)

    # effects: each adds the facts an accepted step's fields establish
    def _commute(self, j, l, **_):
        code = j * self.m + l if j <= l else l * self.m + j
        self.commute.add(code)
        walk(self.commute, (code,), self.tables, list.__getitem__)

    def _add_generator(self, phi):
        img, m = phi.img, self.m
        self.generators.append(phi)
        self.tables.append([a * m + b if a <= b else b * m + a
                            for a in img for b in img])
        walk(self.commute, self.commute, self.tables, list.__getitem__)

    def _narrow(self, j, l, survivors, **_):
        self.candidates[(j, l)] = sum(1 << p for p in survivors)

    def _kill(self, j, l, p, **_):
        self.killed[(j, l)] = self.killed.get((j, l), 0) | 1 << p

    def summary(self) -> dict:
        g = self.graph
        total = g.n * (g.n - 1) // 2
        return {
            "commuting_pairs": len(self.commute),
            "total_pairs": total,
            "killed_monomials": sum(m.bit_count()
                                    for m in self.killed.values()),
            "steps": len(self.log),
        }


# -- the rules -------------------------------------------------------------
#
# A check takes the replay state, the only place it reads the graph from,
# and the step's fields in table order, and returns None when the step is
# justified, else the reason it is not.  The engine calls checks as search
# predicates, where rejection is the common case, so a reason that only
# restates the step's fields names them.
#
# The candidate and middle rules rest on one fact: u_ij u_kl = 0 whenever
# the pairs (i,k) and (j,l) differ in colour, c = ``kb.colours``, the
# class of (distance, number of common neighbours).  Both parts are
# constant on each class of the coherent closure, and every quantum
# orbital lies inside one such class (Lupini, Mancinska and Roberson,
# "Nonlocal games and quantum permutation groups", JFA 2020).  A step
# names vertices only; a verifier recomputes the colours from the graph.
# Vertex sets are bitmasks, and a colour class of ``kb.masks`` is tested
# with one AND.


def narrowed(kb, cand, j, q):
    """The members of the bitmask ``cand`` whose colour with q is that of
    j; with -1 (every vertex) as ``cand`` and q = l, that is P0 for
    (j,l)."""
    return cand & kb.masks[q][kb.colours[q][j]]


def _choose_q_right(kb, j, l, q, survivors):
    if kb.dist[j][l] == INFINITE:
        return "(j,l) disconnected"
    if not kb.knows_commute(l, q):
        return "commute({l,q}) not yet established"
    new = narrowed(kb, kb.survivors(j, l), j, q)
    if bits(new) != tuple(survivors):
        return "survivor set mismatch"


def middle_qs(kb, j, l, p):
    """None when p is no candidate for the middle rule on (j,l), else two
    bitmasks over q: the q with c(j,q) != c(q,p), and among them the q
    that kill u_ij u_kl u_ip, those for which l is the only vertex with
    colour c(l,q) to q, c(j,l) to j and c(p,l) to p."""
    c, masks = kb.colours, kb.masks
    k = c[j][l]
    if kb.dist[j][l] == INFINITE or c[p][l] != k or p == j:
        return None
    ring = masks[j][k] & masks[p][k]
    lone = 1 << l
    separate = kill = 0
    for q in kb.graph.vertices():
        cq = c[q]
        if cq[j] != cq[p]:
            separate |= 1 << q
            if ring & masks[q][cq[l]] == lone:
                kill |= 1 << q
    return separate, kill


def _choose_q_middle(kb, j, l, p, q):
    qs = middle_qs(kb, j, l, p)
    if qs is None:
        return "bad p for the middle rule on (j,l)"
    if not qs[0] >> q & 1:
        return "q does not separate j from p"
    if not qs[1] >> q & 1:
        return "l not unique for the middle rule"


def _adj_commute_close(kb, j, l):
    if kb.dist[j][l] == INFINITE:
        return "(j,l) disconnected"
    if kb.unkilled(j, l):
        return "unkilled candidates remain for (j,l)"


def _generator(kb, phi):
    if not is_automorphism(kb.graph, phi):
        return "phi is not an automorphism"


def _conclusion(kb, bases):
    covered = walk(set(bases), bases, kb.generators)
    missing = set(kb.graph.vertices()) - covered
    if missing:
        return f"vertices {sorted(missing)} not reached from any base"
    pair = kb.open_column_pair(bases)
    if pair is not None:
        return f"column pair ({pair[0]},{pair[1]}) never proved to commute"


def _disjoint_witness(kb, sigma, tau):
    if sigma.is_identity() or tau.is_identity():
        return "witness permutation is the identity"
    if not all(is_automorphism(kb.graph, w) for w in (sigma, tau)):
        return "witness is not an automorphism"
    if set(sigma.support()) & set(tau.support()):
        return "witness supports are not disjoint"


def _injective_f(kb, n, chords):
    spec = CirculantSpec(n, tuple(chords))
    if n != kb.graph.n or build_circulant(spec) != kb.graph:
        return "circulant spec does not rebuild the graph"
    if not injective_f_check(spec)[0]:
        return "eigenvalues are not injective on s = 1..n//2"


@dataclass(frozen=True)
class Rule:
    """One step kind: its fields in serialized order, its side-condition
    check and its effect.  ``verdict`` is the verdict a step of this kind
    proves, if any; a ``final`` step must end the log."""

    fields: tuple
    check: Callable
    effect: Callable | None = None
    verdict: str | None = None
    final: bool = False


_KB = CommutationKB
RULES = {
    CHOOSE_Q_RIGHT: Rule(("j", "l", "q", "survivors"), _choose_q_right,
                         _KB._narrow),
    CHOOSE_Q_MIDDLE: Rule(("j", "l", "p", "q"), _choose_q_middle, _KB._kill),
    GENERATOR: Rule(("phi",), _generator, _KB._add_generator),
    ADJ_COMMUTE_CLOSE: Rule(("j", "l"), _adj_commute_close, _KB._commute),
    CONCLUSION_COMMUTATIVE: Rule(("bases",), _conclusion,
                                 verdict=VERDICT_NONE, final=True),
    DISJOINT_WITNESS: Rule(("sigma", "tau"), _disjoint_witness,
                           verdict=VERDICT_HAS),
    INJECTIVE_F: Rule(("n", "chords"), _injective_f, verdict=VERDICT_NONE),
}


# -- verification ----------------------------------------------------------


@dataclass
class VerificationResult:
    ok: bool
    step_index: int = -1
    message: str = "ok"

    def __bool__(self):
        return self.ok


def _fail(idx, msg):
    return VerificationResult(False, idx, msg)


# fields that name a vertex, and fields that list vertices; ``n`` and
# ``chords`` of INJECTIVE_F do not
VERTEX_FIELDS = frozenset(("j", "l", "p", "q"))
VERTEX_LIST_FIELDS = frozenset(("survivors", "bases"))


def _vertex_out_of_range(s: ProofStep, vertices: frozenset):
    """Why a field of ``s`` names something outside ``vertices``, 1..n,
    else None.  The checks index rows by vertex, and Python would read
    row[-1] as row[n]."""
    for key, value in s.fields.items():
        if key in VERTEX_FIELDS:
            if value not in vertices:
                break
        elif key in VERTEX_LIST_FIELDS and not vertices.issuperset(value):
            break
    else:
        return None
    return f"{key}={value} is outside the vertices 1..{len(vertices)}"


def verify_certificate(g: Graph, cert: Certificate) -> VerificationResult:
    """Replay the log through the rule table: each step's vertices checked
    to lie in 1..n, its check against the graph and the facts accepted
    before it, then its effect.  Never raises on bad input; reports the
    first failing step instead."""
    if not cert.matches(g):
        return _fail(-1, "certificate is bound to a different graph")
    kb = CommutationKB(g)
    vertices = frozenset(g.vertices())
    last = len(cert.steps) - 1
    for idx, s in enumerate(cert.steps):
        try:
            rule = RULES.get(s.kind)
            if rule is None:
                return _fail(idx, f"unknown step kind {s.kind}")
            why = (_vertex_out_of_range(s, vertices)
                   or rule.check(kb, **s.fields))
            if why is None and rule.final and idx != last:
                why = "conclusion must be the final step"
            if why is None and rule.verdict not in (None, cert.verdict):
                why = f"{s.kind} contradicts the verdict"
            if why is not None:
                return _fail(idx, f"{s.kind}: {why}")
            kb.apply(s)
        except Exception as exc:  # malformed fields must not crash the verifier
            return _fail(idx, f"malformed step: {exc}")
    final = RULES.get(cert.steps[-1].kind) if cert.steps else None
    if final is None or final.verdict != cert.verdict:
        return _fail(last, f"no final step proves the verdict {cert.verdict}")
    return VerificationResult(True)


# -- rendering -------------------------------------------------------------


def render_certificate(cert: Certificate, fmt: str = "md") -> str:
    """Human-readable tables in the style of the written proofs.

    Applications of the two workhorse rules are grouped per base vertex:
    candidate reductions as (j, l, q, P) rows and triple-product kills as
    (j, l, p, q) rows.  Everything else becomes a labelled line.  Refuses
    to render a certificate that does not verify against its own graph.
    """
    if fmt not in ("md", "latex"):
        raise ValueError(f"unknown format {fmt!r}")
    result = verify_certificate(cert.graph(), cert)
    if not result:
        raise ValueError(f"refusing to render an invalid certificate: "
                         f"step {result.step_index}: {result.message}")
    middle = {}
    right = {}
    other = []
    for s in cert.steps:
        if s.kind == CHOOSE_Q_MIDDLE:
            middle.setdefault(s.j, []).append((s.j, s.l, s.p, s.q))
        elif s.kind == CHOOSE_Q_RIGHT:
            right.setdefault(s.j, []).append(
                (s.j, s.l, s.q, "{" + ",".join(str(v) for v in s.survivors) + "}"))
        else:
            other.append(serialize_step(s))

    out = []
    title = f"certificate: {cert.verdict} (graph on {cert.n} vertices)"
    tables = (("triple-product kills", "jlpq", middle),
              ("candidate reductions", "jlqP", right))
    if fmt == "md":
        out.append(f"## {title}")
        for heading, cols, groups in tables:
            for j in sorted(groups):
                out += ["", f"### {heading} from base {j} ({', '.join(cols)})",
                        "| " + " | ".join(cols) + " |", "|---|---|---|---|"]
                out.extend("| " + " | ".join(map(str, row)) + " |"
                           for row in groups[j])
        if other:
            out += ["", "### other steps"]
            out.extend(f"- `{line}`" for line in other)
    else:
        out.append(f"% {title}")
        for heading, cols, groups in tables:
            for j in sorted(groups):
                out.append(r"\begin{tabular}{|c|c|c|c|}")
                out.append(r"\hline " + " & ".join(f"${c}$" for c in cols)
                           + r"\\ \hline")
                # survivor sets {1,8} become $\{1,8\}$
                out.extend(" & ".join(map(str, row)).replace("{", r"$\{")
                           .replace("}", r"\}$") + r"\\" for row in groups[j])
                out.append(r"\hline \end{tabular}")
        out.extend(rf"% {line}" for line in other)
    return "\n".join(out) + "\n"
