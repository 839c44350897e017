"""CLI contract: subcommands, exit codes, file round trips."""

import json
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import qsym.catalog
import qsym.engine
import qsym.groebner
from qsym.certificate import CHOOSE_Q_RIGHT, RULES, parse_certificate
from qsym.cli import EXIT_ERROR, build_parser, main
from qsym.engine import Undecided
from qsym.graphs import read_graph, write_graph
from qsym.named import build_named, circulant

from util import overlapping_witness, replay_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "C12(4,5)" in out and "Icosahedron" in out and "6K2" in out


def test_show(capsys):
    code, out, _ = run(capsys, "show", "Cuboctahedron")
    assert code == 0
    assert "vertices: 12" in out and "|Aut| = 48" in out


def test_decide_quantum_graph(capsys):
    code, out, _ = run(capsys, "decide", "C12(4,5)")
    assert code == 0
    assert "HasQuantumSymmetry" in out
    assert "(1 7)(3 9)(5 11)" in out and "(2 8)(4 10)(6 12)" in out


def test_decide_classical_graph_structured(capsys):
    code, out, _ = run(capsys, "decide", "K2xC6", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NoQuantumSymmetry"


def test_decide_timeout_exit_2(capsys, tmp_path):
    hard = tmp_path / "hard.txt"
    hard.write_text(write_graph(build_named("K2xC6(2)")), encoding="utf-8")
    code, out, _ = run(capsys, "decide", str(hard), "--engine", "lemmas",
                       "--timeout", "0.0")
    assert code == 2
    assert "Undecided" in out


def test_decide_a_20_vertex_graph_file(capsys, tmp_path):
    path = tmp_path / "c20.txt"
    path.write_text(write_graph(circulant(20, 3)), encoding="utf-8")
    code, out, _ = run(capsys, "decide", str(path))
    assert code == 0
    assert "NoQuantumSymmetry" in out


def test_decide_unknown_name_exit_1(capsys):
    code, _, err = run(capsys, "decide", "C13(9)")
    assert code == 1 and "unknown catalog graph" in err


def test_decide_malformed_file_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3\ne 1\n", encoding="utf-8")
    code, _, err = run(capsys, "decide", str(bad))
    assert code == 1 and "error" in err


def test_usage_error_exit_1(capsys):
    """argparse's own exit code 2 would read as Undecided."""
    for argv in (("decide", "C5", "--bogus"),
                 ("decide", "C5", "--engine", "nope"),
                 ("decide", "C5", "--format", "xml"),
                 ("certificate", "C5", "--engine", "groebner"),
                 ("certificate", "C5", "--engine", "auto"),
                 ("show", "C5", "--timeout", "1"),
                 ("groebner", "K3", "--engine", "auto"),
                 ("report", "--max-degree", "3"),
                 ("decide", "C5", "--engine", "groebner"),
                 ("decide", "C5", "--max-degree", "3"),
                 ("groebner", "K3", "--max-steps", "5")):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_ERROR and "usage:" in err, argv
    code, out, _ = run(capsys, "decide", "--help")
    assert code == 0 and "--engine" in out


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("argv", [("decide", "C5"), ("certificate", "C5"),
                                  ("groebner", "K3"), ("report",)],
                         ids=lambda argv: argv[0])
def test_timeout_is_a_number_of_seconds_at_least_0(capsys, argv, value):
    """``nan`` would never expire, and a negative timeout would read as
    Undecided: both are usage errors."""
    code, _, err = run(capsys, *argv, "--timeout", value)
    assert code == EXIT_ERROR and "usage:" in err
    assert f"not a number of seconds >= 0: {value!r}" in err


def test_each_subcommand_declares_only_the_options_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command")
    declared = {
        command: sorted(flag for action in p._actions
                        for flag in action.option_strings
                        if flag.startswith("--") and flag != "--help")
        for command, p in subparsers.choices.items()}
    assert declared == {
        "list": [],
        "show": ["--output"],
        "decide": ["--engine", "--format", "--output", "--timeout"],
        "certificate": ["--format", "--output", "--timeout", "--verify"],
        "groebner": ["--max-degree", "--output", "--timeout"],
        "report": ["--format", "--output", "--subclass", "--timeout"],
    }


def test_readme_command_lines_parse():
    """Every qsym command in README's "Command line" block names only
    subcommands, options and choices that the parser accepts."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme,
                      re.S).group(1)
    commands = [part.strip() for line in block.splitlines()
                for part in line.split("&&")]
    assert len(commands) >= 10
    for command in commands:
        argv = shlex.split(command, comments=True)
        assert argv[0] == "qsym", command
        build_parser().parse_args(argv[1:])


def test_readme_python_blocks_run():
    """Every fenced ``python`` block of README.md runs as written, so a
    renamed or removed public name cannot rot the docs unseen."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_graph_file_roundtrip(tmp_path):
    g = build_named("C12(3+,6)")
    path = tmp_path / "g.txt"
    path.write_text(write_graph(g), encoding="utf-8")
    back = read_graph(path.read_text(encoding="utf-8"))
    assert back.n == g.n and set(back.edges()) == set(g.edges())


def test_certificate_emit_verify_roundtrip(capsys, tmp_path):
    cert_path = tmp_path / "c5.cert"
    code, _, _ = run(capsys, "certificate", "C5", "-o", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "certificate", "--verify", str(cert_path))
    assert code == 0 and "certificate OK" in out


def test_certificate_verify_detects_tampering(capsys, tmp_path):
    cert_path = tmp_path / "c5.cert"
    run(capsys, "certificate", "C5", "-o", str(cert_path))
    text = cert_path.read_text(encoding="utf-8")
    # claiming an extra survivor contradicts the recomputed reduction
    tampered = text.replace("CHOOSE_Q_RIGHT j=1 l=3 q=2 survivors=1",
                            "CHOOSE_Q_RIGHT j=1 l=3 q=2 survivors=1,5")
    assert tampered != text
    tampered_path = tmp_path / "tampered.cert"
    tampered_path.write_text(tampered, encoding="utf-8")
    code, out, _ = run(capsys, "certificate", "--verify", str(tampered_path))
    assert code == 1 and "INVALID at step" in out


def test_certificate_verify_truncated_file_exit_1(capsys, tmp_path):
    cert_path = tmp_path / "header_only.cert"
    cert_path.write_text("qsym-certificate v3\n", encoding="utf-8")
    code, _, err = run(capsys, "certificate", "--verify", str(cert_path))
    assert code == EXIT_ERROR and "missing verdict line" in err


def test_certificate_verify_v1_file_exit_1(capsys, tmp_path):
    out_path = tmp_path / "c5.cert"
    assert run(capsys, "decide", "C5", "-o", str(out_path))[0] == 0
    text = out_path.read_text(encoding="utf-8")
    out_path.write_text(text.replace("v3", "v1", 1), encoding="utf-8")
    code, _, err = run(capsys, "certificate", "--verify", str(out_path))
    assert code == EXIT_ERROR and "v1" in err


def test_certificate_verify_v2_file_exit_1(capsys, tmp_path):
    out_path = tmp_path / "c5.cert"
    assert run(capsys, "decide", "C5", "-o", str(out_path))[0] == 0
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("qsym-certificate v3\n")
    out_path.write_text(text.replace("v3", "v2", 1), encoding="utf-8")
    code, _, err = run(capsys, "certificate", "--verify", str(out_path))
    assert code == EXIT_ERROR and "v2" in err


# The C5 certificate as the engine wrote it while ORBIT_CLOSE was a step
# kind: a close after each proved pair.
C5_WITH_ORBIT_CLOSE = """qsym-certificate v3
verdict no_quantum_symmetry
graph p 5
graph e 1 2
graph e 1 5
graph e 2 3
graph e 3 4
graph e 4 5
step GENERATOR phi=(2,5)(3,4)
step GENERATOR phi=(1,2)(3,5)
step CHOOSE_Q_MIDDLE j=1 l=2 p=3 q=1
step ADJ_COMMUTE_CLOSE j=1 l=2
step ORBIT_CLOSE
step CHOOSE_Q_RIGHT j=1 l=3 q=2 survivors=1
step ADJ_COMMUTE_CLOSE j=1 l=3
step ORBIT_CLOSE
step CONCLUSION_COMMUTATIVE bases=1
"""


def test_certificate_verify_orbit_close_file_exit_1(capsys, tmp_path):
    """The replay state closes each fact under the generators itself, so a
    text that still carries the retired close step is refused by name."""
    path = tmp_path / "c5.cert"
    path.write_text(C5_WITH_ORBIT_CLOSE, encoding="utf-8")
    code, _, err = run(capsys, "certificate", "--verify", str(path))
    assert code == EXIT_ERROR and "ORBIT_CLOSE" in err


def test_certificate_refuses_quantum_graph(capsys):
    code, out, _ = run(capsys, "certificate", "C12(5)")
    assert code == 1
    assert "no commutativity certificate" in out


def _count_calls(monkeypatch, module, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_certificate_runs_the_pipeline_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, qsym.engine,
                         "lemma_fixpoint", "automorphism_group")
    code, out, _ = run(capsys, "certificate", "Petersen")
    assert code == 2 and "Undecided" in out
    assert calls == {"lemma_fixpoint": 1, "automorphism_group": 1}


def test_certificate_prefers_lemmas_over_the_criterion(capsys, monkeypatch,
                                                      tmp_path):
    """Where the cosine criterion decides, the lemmas still get their try
    and their proof is printed; where they stay open the criterion's is.
    ``decide -o`` still writes the criterion's proof."""
    code, out, _ = run(capsys, "certificate", "C5")
    assert code == 0 and "INJECTIVE_F" not in out and "CHOOSE_Q" in out
    out_path = tmp_path / "c5.cert"
    code, _, _ = run(capsys, "decide", "C5", "-o", str(out_path))
    assert code == 0
    assert "step INJECTIVE_F" in out_path.read_text(encoding="utf-8")
    monkeypatch.setattr("qsym.cli._load_graph",
                        lambda _source: circulant(10, 2, 3))
    calls = []

    def stays_open(g, *_args, **_kwargs):
        # the colour rules close C10(2,3); keep it open to reach the fallback
        calls.append(g)
        return qsym.engine.CommutationKB(g), False, False

    monkeypatch.setattr(qsym.engine, "lemma_fixpoint", stays_open)
    code, out, _ = run(capsys, "certificate", "C10(2,3)")
    assert code == 0 and "step INJECTIVE_F" in out
    assert len(calls) == 1


def test_certificate_latex_matches_worked_example(capsys):
    """C5's proof renders the published reduction row for (1,3).  The
    published row for (1,4) is its orbit image, which the proof does not
    derive; the rule table accepts it in the state that the same
    certificate, read back from its text form, reaches."""
    code, out, _ = run(capsys, "certificate", "C5", "--format", "latex")
    assert code == 0
    assert "1 & 3 & 2 & $\\{1\\}$" in out
    code, out, _ = run(capsys, "certificate", "C5")
    assert code == 0
    kb = replay_state(parse_certificate(out))
    assert RULES[CHOOSE_Q_RIGHT].check(kb, 1, 4, 3, (1,)) is None


def test_groebner_exit_codes(capsys):
    code, out, _ = run(capsys, "groebner", "K3", "--max-degree", "4")
    assert code == 0 and "NoQuantumSymmetry" in out
    code, out, _ = run(capsys, "groebner", "C4", "--max-degree", "4")
    assert code == 2 and "unsettled" in out


def test_groebner_honours_timeout(capsys):
    code, out, _ = run(capsys, "groebner", "C5", "--max-degree", "3",
                       "--timeout", "0")
    assert code == 2 and "truncated True" in out
    # the 312 relations alone take seconds to inter-reduce
    start = time.monotonic()
    code, out, _ = run(capsys, "groebner", "C12(4,5)", "--max-degree", "3",
                       "--timeout", "0")
    assert time.monotonic() - start < 1.0
    assert code == 2 and "truncated True" in out


def test_groebner_cut_report_counts_untried_pairs(capsys, monkeypatch):
    """A report the deadline cuts after its first column pair says how
    many pairs went untried, exits 2, and never reads as a finished one:
    no commutative conclusion for K3, no bare caveat for C4."""
    reduces, late = qsym.groebner.commutator_reduces, [0.0]

    def reduces_then_expire(*args):
        late[0] = 1e9  # every later clock read is past the deadline
        return reduces(*args)

    monkeypatch.setattr(qsym.groebner, "commutator_reduces",
                        reduces_then_expire)
    monkeypatch.setattr(qsym.groebner, "time", SimpleNamespace(
        monotonic=lambda: time.monotonic() + late[0]))
    code, out, _ = run(capsys, "groebner", "K3", "--max-degree", "4")
    assert code == 2 and "truncated False" in out
    assert "provably commuting: 1 / 6" in out
    assert "column pairs untried at the deadline: 5" in out
    assert "NoQuantumSymmetry" not in out and "prove nothing" not in out
    late[0] = 0.0
    code, out, _ = run(capsys, "groebner", "C4", "--max-degree", "4")
    assert code == 2
    assert "column pairs untried at the deadline: 9" in out
    assert "unsettled column pairs: (1, 1)\n" in out


def test_show_writes_graph_file(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    code, _, _ = run(capsys, "show", "TruncK4", "-o", str(out_path))
    assert code == 0
    back = read_graph(out_path.read_text(encoding="utf-8"))
    assert back.n == 12 and back.num_edges() == 18


def test_a_circulant_read_from_a_file_is_decided_as_by_its_name(
        capsys, tmp_path):
    """Circulance is read from the edges: C5 written to a file decides by
    the one-step criterion, as by name, and ``certificate`` still prints
    its lemma proof."""
    path = tmp_path / "c5.txt"
    assert run(capsys, "show", "C5", "-o", str(path))[0] == 0
    for source in ("C5", str(path)):
        code, out, _ = run(capsys, "decide", source)
        assert code == 0 and "certificate steps: 1\n" in out, source
    code, out, _ = run(capsys, "certificate", str(path))
    assert code == 0 and "CONCLUSION_COMMUTATIVE" in out
    assert "INJECTIVE_F" not in out


def test_groebner_k3(capsys):
    code, out, _ = run(capsys, "groebner", "K3", "--max-degree", "4")
    assert code == 0
    assert "commutative" in out


def test_groebner_c4_reports_caveat(capsys):
    code, out, _ = run(capsys, "groebner", "C4", "--max-degree", "6")
    assert code == 2 and "exhausted False" in out
    assert "prove nothing (the basis is degree-truncated)" in out


def test_groebner_names_the_missing_relations_when_the_basis_is_exhausted(
        capsys, tmp_path):
    """C5 plus an isolated vertex at cap 5: the basis is exhausted, yet 15
    of the 21 column pairs stay irreducible, because the relations omit
    orthogonality; the note says so and not that the basis is truncated."""
    path = tmp_path / "c5k1.txt"
    path.write_text("p 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n")
    code, out, _ = run(capsys, "groebner", str(path), "--max-degree", "5")
    assert code == 2 and "exhausted True" in out
    assert "provably commuting: 6 / 21" in out
    assert "prove nothing (the relations omit orthogonality)" in out
    assert "degree-truncated" not in out


def test_groebner_cap_too_small(capsys):
    code, _, err = run(capsys, "groebner", "C4", "--max-degree", "0")
    assert code == 1 and "degree cap" in err


def test_report_subclass_and_structured(capsys, tmp_path):
    code, out, _ = run(capsys, "report", "--subclass", "semicirculant")
    assert code == 0
    assert out.count("C12(") >= 5
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "report", "--subclass", "special",
                     "--format", "structured", "-o", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(payload["records"]) == 5
    assert payload["contradictions"] == []


def test_report_offers_only_the_subclasses_of_its_rows(capsys):
    """``report`` runs the 37 twelve-vertex rows only, so a subclass that
    none of them has would print an empty table and exit 0, "decided"."""
    code, _, err = run(capsys, "report", "--subclass", "sanity")
    assert code == EXIT_ERROR and "usage:" in err
    assert set(qsym.catalog.SUBCLASSES) == {
        e.subclass for e in qsym.catalog.twelve_vertex_entries()}


def test_report_exits_2_when_a_row_is_undecided(capsys, monkeypatch,
                                               tmp_path):
    """The full report decides all 37 rows and exits 0.  With no row wrong,
    Undecided rows give the exit code of an Undecided verdict, in both
    formats."""
    code, out, _ = run(capsys, "report")
    assert code == 0 and out.count("| yes |") == 37
    monkeypatch.setattr(qsym.catalog, "decide",
                        lambda *_args, **_kwargs: Undecided(reason="timeout"))
    code, out, _ = run(capsys, "report", "--subclass", "special")
    assert code == 2 and out.count("| Undecided |") == 5
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "report", "--subclass", "special",
                     "--format", "structured", "-o", str(out_path))
    assert code == 2
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert [r["verdict"] for r in payload["records"]] == ["Undecided"] * 5
    assert payload["errors"] == [] and payload["contradictions"] == []


def test_report_exits_1_when_a_witness_fails_its_replay(capsys, monkeypatch):
    overlapping_witness(monkeypatch)
    code, out, _ = run(capsys, "report", "--subclass", "circulant")
    assert code == EXIT_ERROR
    assert "| C12(5) |" in out and "| ERROR |" in out
