"""The frozen catalog: all 37 vertex-transitive graphs on 12 vertices.

There are 74 vertex-transitive graphs on 12 vertices; a graph and its
complement have the same quantum automorphism group, so one of each pair
suffices and the catalog keeps 37, sorted into five subclasses.  Each
entry records the expected verdict and the automorphism-group order
derived from the published group names (|D_n| = 2n, |H_n| = 2^n n!,
|Z2 x A5| = 120, and the composite extension of order 768 for the two
exceptional circulants).  The quantum-group names are display metadata
only; nothing here computes them.

Of the 37 entries, 21 are flagged as having quantum symmetries.  The
published running text twice counts differently (20 in the headline count,
3 rather than 4 quantum circulants in a subclass summary, depending on
whether K12 is counted); the per-graph table is authoritative and is what
the flags below encode.

A few small sanity graphs ride along for tests and demos; they carry the
subclass "sanity" and are not part of the 37.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .engine import DEFAULT_TIMEOUT, Undecided, decide
from .graphs import Graph
from .named import build_named, canonical_name
from .perms import DeadlineExceeded, automorphism_group, is_vertex_transitive

# the subclasses of the 37; the sanity graphs are in none of them
SUBCLASSES = ("disconnected", "product", "circulant", "semicirculant",
              "special")

# paper_proof_kind: how the published argument settles the entry
PROOF_KINDS = ("disjoint", "injective_f", "lemma_mechanical",
               "lemma_structural", "external", "trivial")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    subclass: str
    expected_has_qsym: bool
    expected_aut_order: int | None
    paper_proof_kind: str
    aut_display: str = ""
    qaut_display: str = ""

    def build(self) -> Graph:
        return build_named(self.name)


def _e(name, subclass, qsym, order, kind, aut="", qaut=""):
    assert subclass in (*SUBCLASSES, "sanity") and kind in PROOF_KINDS
    return CatalogEntry(name, subclass, qsym, order, kind, aut, qaut)


_ENTRIES = (
    # disconnected: disjoint copies always carry quantum symmetries
    _e("6K2", "disconnected", True, 46080, "disjoint",
       "Z2 wr S6", "Z2 wr* S6+"),
    _e("4K3", "disconnected", True, 31104, "disjoint",
       "S3 wr S4", "S3 wr* S4+"),
    _e("3K4", "disconnected", True, 82944, "disjoint",
       "S4 wr S3", "S4+ wr* S3"),
    _e("3C4", "disconnected", True, 3072, "disjoint",
       "H2 wr S3", "H2+ wr* S3"),
    _e("2K6", "disconnected", True, 1036800, "disjoint",
       "S6 wr Z2", "S6+ wr* Z2"),
    _e("2C6", "disconnected", True, 288, "disjoint",
       "D6 wr Z2", "D6 wr* Z2"),
    _e("2(K2xK3)", "disconnected", True, 288, "disjoint",
       "D6 wr Z2", "D6 wr* Z2"),
    _e("2C6(2)", "disconnected", True, 4608, "disjoint",
       "(Z2 wr S3) wr Z2", "(Z2 wr* S3) wr* Z2"),
    _e("2C6(3)", "disconnected", True, 10368, "disjoint",
       "(S3 wr Z2) wr Z2", "(S3 wr* Z2) wr* Z2"),
    # products of smaller graphs
    _e("K6xK2", "product", True, 1440, "external",
       "S6 x Z2", "S6+ x Z2"),
    _e("K3xK4", "product", True, 144, "external",
       "S3 x S4", "S3 x S4+"),
    _e("K2xC6", "product", False, 24, "lemma_mechanical",
       "Z2 x D6", "Z2 x D6"),
    _e("C4xC3", "product", True, 48, "external",
       "H2 x S3", "H2+ x S3"),
    _e("K2xC6(2)", "product", True, 96, "disjoint",
       "Z2 x (Z2 wr S3)", "?"),
    _e("K2xC6(3)", "product", True, 144, "external",
       "Z2 x (S3 wr Z2)", "Z2 x (S3 wr* Z2)"),
    # circulants
    _e("C12", "circulant", False, 24, "injective_f", "D12", "D12"),
    _e("K12", "circulant", True, 479001600, "trivial", "S12", "S12+"),
    _e("C12(6)", "circulant", False, 24, "injective_f", "D12", "D12"),
    _e("C12(2)", "circulant", False, 24, "lemma_mechanical", "D12", "D12"),
    _e("C12(3)", "circulant", False, 24, "injective_f", "D12", "D12"),
    _e("C12(4)", "circulant", False, 24, "lemma_mechanical", "D12", "D12"),
    _e("C12(5)", "circulant", True, 768, "disjoint", "A768", "?"),
    _e("C12(2,6)", "circulant", False, 24, "lemma_mechanical", "D12", "D12"),
    _e("C12(4,6)", "circulant", False, 24, "lemma_mechanical", "D12", "D12"),
    _e("C12(3,6)", "circulant", False, 24, "lemma_mechanical", "D12", "D12"),
    _e("C12(4,5)", "circulant", True, 48, "disjoint",
       "H2 x S3", "H2+ x S3"),
    _e("C12(5,6)", "circulant", True, 768, "disjoint", "A768", "?"),
    # semicirculants
    _e("C12(5+)", "semicirculant", True, 48, "disjoint", "Z2 x S4", "?"),
    _e("C12(3+,6)", "semicirculant", True, 48, "disjoint",
       "H2 x S3", "H2+ x S3"),
    _e("C12(5+,6)", "semicirculant", True, 48, "disjoint", "Z2 x S4", "?"),
    _e("C12(2,5+)", "semicirculant", False, 12, "lemma_mechanical",
       "D6", "D6"),
    _e("C12(4,5+)", "semicirculant", False, 12, "lemma_mechanical",
       "D6", "D6"),
    # special cases
    _e("Cuboctahedron", "special", False, 48, "lemma_structural",
       "H3", "H3"),
    _e("L(C6(2))", "special", False, 48, "lemma_mechanical", "H3", "H3"),
    _e("Icosahedron", "special", False, 120, "external",
       "Z2 x A5", "Z2 x A5"),
    _e("TruncK4", "special", False, 24, "lemma_structural", "S4", "S4"),
    _e("Antip(TruncK4)", "special", False, 24, "lemma_structural",
       "S4", "S4"),
    # sanity graphs (not part of the 37)
    _e("C5", "sanity", False, 10, "lemma_mechanical", "D5", "D5"),
    _e("K3", "sanity", False, 6, "trivial", "S3", "S3"),
    _e("C4", "sanity", True, 8, "disjoint", "D4", "H2+"),
    _e("Petersen", "sanity", False, 120, "external", "S5", "S5"),
)


def catalog():
    """The catalog entries; the 12-vertex rows always come first."""
    return list(_ENTRIES)


def twelve_vertex_entries():
    return [e for e in _ENTRIES if e.subclass != "sanity"]


def entry_by_name(name: str) -> CatalogEntry:
    """The entry for a name or alias, resolved as ``build_named`` does."""
    key = canonical_name(name)
    for e in _ENTRIES:
        if e.name == key:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


# -- batch report ------------------------------------------------------------


def run_entry(entry: CatalogEntry, timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Evaluate one entry; failures are captured, never raised.  ``timeout``
    bounds the group search and ``decide`` together; a group search that
    runs past it records Undecided with reason "timeout".  ``decide`` has
    replayed every certificate it returns, so ``certificate_ok`` is True
    when the verdict carries one and None otherwise; a failed replay is an
    error row."""
    record = {
        "name": entry.name,
        "subclass": entry.subclass,
        "expected_has_qsym": entry.expected_has_qsym,
        "expected_aut_order": entry.expected_aut_order,
        "aut_group": entry.aut_display,
        "qaut_group": entry.qaut_display,
        "error": None,
        "contradiction": False,
    }
    start = time.monotonic()
    deadline = start + timeout
    try:
        g = entry.build()
        record["n"] = g.n
        record["edges"] = g.num_edges()
        try:
            aut = automorphism_group(g, deadline=deadline)
        except DeadlineExceeded:
            verdict = Undecided(reason="timeout")
        else:
            record["aut_order"] = aut.order
            record["aut_order_ok"] = (entry.expected_aut_order is None
                                      or aut.order == entry.expected_aut_order)
            record["vertex_transitive"] = is_vertex_transitive(g, aut)
            verdict = decide(g, timeout=deadline - time.monotonic(), aut=aut)
        record["verdict"] = verdict.kind
        if verdict.kind == "HasQuantumSymmetry":
            record["witness"] = [str(p) for p in verdict.witness]
            record["contradiction"] = not entry.expected_has_qsym
        elif verdict.kind == "NoQuantumSymmetry":
            record["contradiction"] = entry.expected_has_qsym
        else:
            record["undecided_reason"] = verdict.reason
        record["certificate_ok"] = True if verdict.certificate else None
    except Exception as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = round(time.monotonic() - start, 3)
    return record


def run_report(entries=None, timeout: float = DEFAULT_TIMEOUT) -> dict:
    """Decide every entry, in catalog order, and summarize; per-entry
    failures never abort."""
    entries = list(entries) if entries is not None else twelve_vertex_entries()
    records = [run_entry(e, timeout) for e in entries]

    by_subclass = {}
    for rec in records:
        bucket = by_subclass.setdefault(rec["subclass"],
                                        {"total": 0, "quantum": 0,
                                         "undecided": 0})
        bucket["total"] += 1
        if rec.get("verdict") == "HasQuantumSymmetry":
            bucket["quantum"] += 1
        if rec.get("verdict") == "Undecided" or rec.get("error"):
            bucket["undecided"] += 1
    return {
        "records": records,
        "by_subclass": by_subclass,
        "contradictions": [r["name"] for r in records if r["contradiction"]],
        "errors": [r["name"] for r in records if r["error"]],
        "aut_mismatches": [r["name"] for r in records
                           if r.get("aut_order_ok") is False],
    }


def report_markdown(report: dict) -> str:
    """Markdown table mirroring the published layout."""
    lines = [
        "| Graph | Automorphism Group | Quantum Automorphism Group | "
        "|Aut| | Verdict | Expected | OK | s |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in report["records"]:
        expected = "quantum" if r["expected_has_qsym"] else "classical"
        verdict = r.get("verdict", "ERROR")
        ok = "yes"
        if r["contradiction"] or r["error"] or r.get("aut_order_ok") is False:
            ok = "NO"
        elif verdict == "Undecided":
            ok = "undecided"
        lines.append(
            f"| {r['name']} | {r['aut_group']} | {r['qaut_group']} "
            f"| {r.get('aut_order', '-')} | {verdict} | {expected} "
            f"| {ok} | {r['seconds']} |")
    lines.append("")
    lines.append("| Subclass | total | quantum | undecided |")
    lines.append("|---|---|---|---|")
    for sub, agg in report["by_subclass"].items():
        lines.append(f"| {sub} | {agg['total']} | {agg['quantum']} "
                     f"| {agg['undecided']} |")
    if report["contradictions"]:
        lines.append("")
        lines.append(f"CONTRADICTIONS: {', '.join(report['contradictions'])}")
    return "\n".join(lines) + "\n"
