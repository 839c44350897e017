"""The benchmark's layer tracer still finds every library name it wraps.

``perfbench/layertrace.py`` times each layer by replacing public names on
the qsym modules; a rename in the library would only show up when the
benchmark runs traced.  This installs it, runs one op through the
criterion and one through the Groebner checker, and restores the names.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import qsym.catalog
import qsym.certificate
import qsym.engine
import qsym.graphs
import qsym.groebner
import qsym.perms
from qsym.catalog import entry_by_name
from qsym.named import complete_graph, cycle_graph

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / \
    "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules():
    return SimpleNamespace(catalog=qsym.catalog, certificate=qsym.certificate,
                           engine=qsym.engine, graphs=qsym.graphs,
                           groebner=qsym.groebner, perms=qsym.perms)


def test_tracer_installs_and_records_each_layer():
    layertrace = _load_layertrace()
    decide = qsym.engine.decide
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer, _modules())  # fails on any lost name
        verdict = qsym.engine.decide(cycle_graph(7))
        g = complete_graph(3)
        gb = qsym.groebner.buchberger(qsym.groebner.quantum_relations(g),
                                      max_degree=4)
        report = qsym.groebner.commutation_report(g, gb)
    finally:
        tracer.unpatch()
    assert qsym.engine.decide is decide
    assert verdict.certificate.steps[0].kind == qsym.certificate.INJECTIVE_F
    assert all(report.values())
    names = {span[0] for span in tracer.spans}
    assert {"graphs.injective_f", "groebner.buchberger",
            "groebner.normal_form"} <= names
    assert tracer.counts["graphs.injective_hits"] == 1


def test_the_catalog_replays_each_certificate_once():
    """``decide`` replays the certificate it returns and ``run_entry``
    replays none, so the traced ``certificate.verify`` spans count one per
    certificate: a lemma-closed row and a witness row give two."""
    layertrace = _load_layertrace()
    tracer = layertrace.Tracer()
    try:
        layertrace.install(tracer, _modules())
        records = [qsym.catalog.run_entry(entry_by_name(name))
                   for name in ("C12(2)", "C12(5)")]
    finally:
        tracer.unpatch()
    assert [r["verdict"] for r in records] == ["NoQuantumSymmetry",
                                               "HasQuantumSymmetry"]
    assert [r["certificate_ok"] for r in records] == [True, True]
    names = [span[0] for span in tracer.spans]
    assert names.count("certificate.verify") == 2
