"""Catalog shape, frozen expectations, and the batch report contract."""

import hashlib
import re
import time

import pytest

import qsym.catalog
from qsym.catalog import (
    CatalogEntry,
    catalog,
    entry_by_name,
    report_markdown,
    run_entry,
    run_report,
    twelve_vertex_entries,
)
from qsym.certificate import serialize_certificate
from qsym.graphs import circulant_spec, complement, injective_f_check
from qsym.named import _ALIASES, build_named, catalog_names
from qsym.perms import (
    DeadlineExceeded,
    automorphism_group,
    is_vertex_transitive,
)

from util import derivation, is_isomorphic, overlapping_witness

EXPECTED_QUANTUM = {
    "6K2", "4K3", "3K4", "3C4", "2K6", "2C6", "2(K2xK3)", "2C6(2)", "2C6(3)",
    "K6xK2", "K3xK4", "C4xC3", "K2xC6(3)", "K2xC6(2)", "K12", "C12(5)",
    "C12(4,5)", "C12(5,6)", "C12(5+)", "C12(3+,6)", "C12(5+,6)",
}

# SHA-256 over the 37 twelve-vertex rows of ``run_entry``, in catalog
# order: each row's name, verdict kind, witness text and serialized
# certificate.
CATALOG_ROWS_SHA256 = \
    "1156975323303c947c1d23520c27cc5ee5f5d72c277d5da07933a3355e273fef"
# The same rows with each certificate cut to its ``util.derivation``.  It
# is no longer that of the v2 certificates: closing the facts under the
# generators after each proved pair dropped the steps that derived orbit
# images.
CATALOG_DERIVATIONS_SHA256 = \
    "09b01c5359d7b68ed757ee95c028de2e7eabc5d12a390daf3808a70f0ad66f6c"
# SHA-256 over every catalog graph, in ``catalog_names()`` order: its
# name, label, order, edge tuple and ``circulant_spec``, one line each.
# Read from the edges, the spec is no longer None for K3 and K12.
NAMED_GRAPHS_SHA256 = \
    "6f39701d6b83d1b3250cc1b0bdde638b151b17fe8d36212c348eb7e326c5d1a8"


def test_catalog_shape():
    rows = twelve_vertex_entries()
    assert len(rows) == 37
    by_subclass = {}
    for e in rows:
        by_subclass.setdefault(e.subclass, []).append(e)
    assert {k: len(v) for k, v in by_subclass.items()} == {
        "disconnected": 9, "product": 6, "circulant": 12,
        "semicirculant": 5, "special": 5,
    }
    names = [e.name for e in catalog()]
    assert len(names) == len(set(names))


def test_quantum_flags():
    assert {e.name for e in twelve_vertex_entries()
            if e.expected_has_qsym} == EXPECTED_QUANTUM
    assert len(EXPECTED_QUANTUM) == 21


def test_every_entry_is_twelve_vertices_and_vertex_transitive():
    for e in twelve_vertex_entries():
        g = e.build()
        assert g.n == 12, e.name
        assert is_vertex_transitive(g), e.name


def test_entry_lookup():
    e = entry_by_name("C12(4,5)")
    assert e.expected_has_qsym and e.paper_proof_kind == "disjoint"
    ico = entry_by_name("Icosahedron")
    assert not ico.expected_has_qsym and ico.paper_proof_kind == "external"
    semi = entry_by_name("C12(2,5+)")
    assert not semi.expected_has_qsym and semi.expected_aut_order == 12
    with pytest.raises(KeyError):
        entry_by_name("C13")


def test_injective_f_rows_pass_the_exact_criterion_except_c12_6():
    """The proof-kind column records the published argument.  For C12(6)
    that argument counts chord 6 twice; its true spectrum has
    lambda_3 = lambda_6 = -1, and the lemmas prove the row instead."""
    rows = {e.name: injective_f_check(circulant_spec(e.build()))
            for e in twelve_vertex_entries()
            if e.paper_proof_kind == "injective_f"}
    assert rows.pop("C12(6)") == (False, 6)
    assert rows and all(ok for ok, _ in rows.values()), rows


def test_aliases_resolve_alike_for_graphs_and_entries():
    """``build_named`` and ``entry_by_name`` share one resolver: every
    alias, in any case and spacing, names its entry's graph."""
    for alias, name in _ALIASES.items():
        for spelling in (alias, alias.upper(), alias.lower(),
                         " ".join(alias), alias.replace(" ", "")):
            assert entry_by_name(spelling) is entry_by_name(name), spelling
            g, h = build_named(spelling), build_named(name)
            assert (g, g.label) == (h, h.label), spelling


def test_catalog_is_complement_free():
    """The table is "up to complements": no entry's complement is
    isomorphic to another entry (self-complementary coincidences aside,
    of which there are none here)."""
    graphs = {e.name: e.build() for e in twelve_vertex_entries()}
    complements = {name: complement(g) for name, g in graphs.items()}
    for name_a, comp in complements.items():
        for name_b, g in graphs.items():
            assert not is_isomorphic(comp, g), (name_a, name_b)


def test_run_entry_record_fields():
    rec = run_entry(entry_by_name("K2xC6"))
    assert rec["verdict"] == "NoQuantumSymmetry"
    assert rec["aut_order"] == 24 and rec["aut_order_ok"]
    assert rec["certificate_ok"] and not rec["contradiction"]
    assert rec["error"] is None and rec["vertex_transitive"]


def test_run_entry_isolates_failures():
    boom = CatalogEntry("boom", "sanity", False, None, "trivial")
    rec = run_entry(boom)
    assert rec["error"] is not None and "boom" in rec["name"]


def test_run_entry_bounds_the_group_search_and_decide_by_one_deadline(
        monkeypatch):
    seen = {}
    group, decide = qsym.catalog.automorphism_group, qsym.catalog.decide

    def group_spy(g, deadline=None):
        seen["deadline"] = deadline
        return group(g, deadline=deadline)

    def decide_spy(g, timeout, **kwargs):
        seen["timeout"] = timeout
        return decide(g, timeout=timeout, **kwargs)

    monkeypatch.setattr(qsym.catalog, "automorphism_group", group_spy)
    monkeypatch.setattr(qsym.catalog, "decide", decide_spy)
    before = time.monotonic()
    rec = run_entry(entry_by_name("K2xC6"), timeout=7.0)
    after = time.monotonic()
    assert rec["verdict"] == "NoQuantumSymmetry" and rec["error"] is None
    assert before + 7.0 <= seen["deadline"] <= after + 7.0
    assert 0 < seen["timeout"] <= seen["deadline"] - before


def test_run_entry_records_a_group_search_timeout_as_undecided(monkeypatch):
    def late(g, deadline=None):
        raise DeadlineExceeded("automorphism search ran past its deadline")

    monkeypatch.setattr(qsym.catalog, "automorphism_group", late)
    rec = run_entry(entry_by_name("K2xC6"), timeout=1.0)
    assert rec["error"] is None and not rec["contradiction"]
    assert rec["verdict"] == "Undecided"
    assert rec["undecided_reason"] == "timeout"
    assert rec["certificate_ok"] is None and "aut_order" not in rec
    assert "| K2xC6 |" in report_markdown(
        {"records": [rec], "by_subclass": {}, "contradictions": []})


def test_run_report_lists_a_row_whose_witness_fails_its_replay_as_an_error(
        monkeypatch):
    overlapping_witness(monkeypatch)
    report = run_report([entry_by_name("C12(5)"), entry_by_name("C12")])
    assert report["errors"] == ["C12(5)"]
    bad, good = report["records"]
    assert bad["error"].startswith("EngineError") and "verdict" not in bad
    assert good["verdict"] == "NoQuantumSymmetry" and good["certificate_ok"]


def test_run_report_subset_and_markdown():
    entries = [entry_by_name(n) for n in ("K2xC6", "C12(5)", "C12")]
    report = run_report(entries)
    assert [r["name"] for r in report["records"]] == ["K2xC6", "C12(5)", "C12"]
    assert report["contradictions"] == [] and report["errors"] == []
    md = report_markdown(report)
    assert "| K2[]C6 |" not in md  # reports use catalog names
    assert "| K2xC6 |" in md
    assert "HasQuantumSymmetry" in md and "NoQuantumSymmetry" in md
    empty = run_report([])
    assert empty["records"] == [] and report_markdown(empty)


def test_report_markdown_rows_have_as_many_cells_as_their_delimiter_row():
    """GitHub-flavoured Markdown renders no table whose rows and delimiter
    row differ in cell count; ``|`` inside a cell must be escaped."""
    report = run_report([entry_by_name(n) for n in ("K2xC6", "C12")])
    lines = report_markdown(report).splitlines()
    tables = [[]]
    for line in lines:
        if line.startswith("|"):
            tables[-1].append(re.split(r"(?<!\\)\|", line.strip("|")))
        elif tables[-1]:
            tables.append([])
    tables = [t for t in tables if t]
    assert [len(t) for t in tables] == [4, 4]
    for header, delimiter, *rows in tables:
        assert set("".join(delimiter)) == {"-"}
        assert all(len(row) == len(delimiter) for row in [header] + rows)


def test_catalog_rows_are_pinned(monkeypatch):
    """The verdicts, witnesses and certificates of the 37 rows are byte
    for byte those pinned, also with each certificate cut to its
    derivation.  ``run_entry`` keeps the witness text but not the
    certificate, so the certificate comes from the ``decide`` call that
    ``run_entry`` makes."""
    verdicts, decide = [], qsym.catalog.decide

    def keep(*args, **kwargs):
        verdicts.append(decide(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(qsym.catalog, "decide", keep)
    heads, texts = [], []
    for entry in twelve_vertex_entries():
        rec = run_entry(entry)
        (verdict,) = verdicts
        verdicts.clear()
        assert rec["verdict"] == verdict.kind and rec["certificate_ok"]
        heads.append(f"{entry.name}\n{verdict.kind}\n"
                     f"{' '.join(rec.get('witness', []))}\n")
        texts.append(serialize_certificate(verdict.certificate))
    assert len(heads) == 37

    def digest(cut):
        parts = (head + cut(text) for head, text in zip(heads, texts))
        return hashlib.sha256("".join(parts).encode()).hexdigest()

    assert digest(str) == CATALOG_ROWS_SHA256
    assert digest(derivation) == CATALOG_DERIVATIONS_SHA256


def test_every_named_graph_is_pinned():
    """Each constructor rebuilds its graph, label and circulant spec
    exactly; a changed labelling or label moves the digest."""
    lines = []
    for name in catalog_names():
        g = build_named(name)
        lines.append(
            f"{name}|{g.label}|{g.n}|{g.edges()}|{circulant_spec(g)}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == NAMED_GRAPHS_SHA256
