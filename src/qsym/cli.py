"""Command-line front end.

Subcommands: list, show, decide, certificate, groebner, report.  Exit
codes are a stable contract: 0 for a decided question, 2 for Undecided,
1 for errors (bad input or usage, failed verification, internal trouble).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog as cat
from .certificate import (
    INJECTIVE_F,
    parse_certificate,
    render_certificate,
    serialize_certificate,
    verify_certificate,
)
from .engine import DEFAULT_TIMEOUT, decide
from .graphs import GraphError, read_graph, write_graph
from .groebner import (
    buchberger,
    commutation_report,
    default_degree_cap,
    quantum_relations,
)
from .named import build_named
from .perms import automorphism_group, is_vertex_transitive

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2


def _load_graph(source: str):
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return read_graph(fh.read(), label=os.path.basename(source))
    return build_named(source)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_list(args) -> int:
    rows = cat.catalog()
    print(f"{'name':16s} {'subclass':14s} {'|Aut|':>10s}  quantum?  aut group")
    for e in rows:
        flag = "yes" if e.expected_has_qsym else "no"
        print(f"{e.name:16s} {e.subclass:14s} {e.expected_aut_order or '-':>10}"
              f"  {flag:8s}  {e.aut_display}")
    return EXIT_OK


def cmd_show(args) -> int:
    g = _load_graph(args.graph)
    aut = automorphism_group(g)
    degs = sorted(set(g.degree(v) for v in g.vertices()))
    print(f"graph: {g.label or args.graph}")
    print(f"vertices: {g.n}  edges: {g.num_edges()}  degrees: {degs}")
    print(f"connected: {g.is_connected()}  "
          f"vertex-transitive: {is_vertex_transitive(g, aut)}")
    print(f"|Aut| = {aut.order}")
    if args.output:
        _emit(write_graph(g), args.output)
    return EXIT_OK


def cmd_decide(args) -> int:
    g = _load_graph(args.graph)
    verdict = decide(g, timeout=args.timeout, engine=args.engine)
    payload = {"graph": g.label or args.graph, "verdict": verdict.kind}
    if verdict.kind == "HasQuantumSymmetry":
        sigma, tau = verdict.witness
        payload["witness"] = [str(sigma), str(tau)]
    elif verdict.kind == "Undecided":
        payload["reason"] = verdict.reason
        payload["summary"] = verdict.summary
    if verdict.certificate is not None:
        payload["certificate_steps"] = len(verdict.certificate.steps)
    if args.format == "structured":
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = [f"{payload['graph']}: {verdict.kind}"]
        if "witness" in payload:
            lines.append(f"  disjoint automorphisms: {payload['witness'][0]} "
                         f"and {payload['witness'][1]}")
        if "reason" in payload:
            lines.append(f"  reason: {payload['reason']}")
        if verdict.certificate is not None:
            lines.append(f"  certificate steps: {len(verdict.certificate.steps)}")
            if args.output:
                lines.append(f"  certificate written to {args.output}")
        _emit("\n".join(lines), None)
        if args.output and verdict.certificate is not None:
            _emit(serialize_certificate(verdict.certificate), args.output)
    return EXIT_UNDECIDED if verdict.kind == "Undecided" else EXIT_OK


def cmd_certificate(args) -> int:
    if args.verify:
        with open(args.verify, "r", encoding="utf-8") as fh:
            cert = parse_certificate(fh.read())
        g = _load_graph(args.graph) if args.graph else cert.graph()
        result = verify_certificate(g, cert)
        if result:
            print(f"certificate OK ({len(cert.steps)} steps, "
                  f"verdict {cert.verdict})")
            return EXIT_OK
        print(f"certificate INVALID at step {result.step_index}: "
              f"{result.message}")
        return EXIT_ERROR

    if not args.graph:
        print("certificate: a graph (or --verify FILE) is required",
              file=sys.stderr)
        return EXIT_ERROR
    g = _load_graph(args.graph)
    deadline = time.monotonic() + args.timeout
    verdict = decide(g, timeout=args.timeout)
    if verdict.kind == "HasQuantumSymmetry":
        print(f"{g.label or args.graph} has quantum symmetries; no "
              "commutativity certificate exists (witness: "
              f"{verdict.witness[0]} and {verdict.witness[1]})")
        return EXIT_ERROR
    if verdict.kind == "NoQuantumSymmetry" \
            and verdict.certificate.steps[0].kind == INJECTIVE_F:
        # the criterion settled it before the lemmas ran: try them in the
        # time left, and keep the criterion's proof if they stay open
        lemmas = decide(g, timeout=max(0.0, deadline - time.monotonic()),
                        engine="lemmas")
        if lemmas.kind == "NoQuantumSymmetry":
            verdict = lemmas
    if verdict.kind == "Undecided":
        print(f"{g.label or args.graph}: Undecided ({verdict.reason}); "
              "nothing to certify")
        return EXIT_UNDECIDED
    cert = verdict.certificate
    if args.format in ("md", "latex"):
        _emit(render_certificate(cert, args.format), args.output)
    else:
        _emit(serialize_certificate(cert), args.output)
    return EXIT_OK


def cmd_groebner(args) -> int:
    g = _load_graph(args.graph)
    deadline = time.monotonic() + args.timeout
    cap = args.max_degree if args.max_degree is not None \
        else default_degree_cap(g.n)
    rels = quantum_relations(g)
    gb = buchberger(rels, max_degree=cap, deadline=deadline)
    pairs = commutation_report(g, gb, deadline=deadline)
    commuting = [p for p, ok in pairs.items() if ok]
    open_pairs = [p for p, ok in pairs.items() if ok is False]
    untried = len(pairs) - len(commuting) - len(open_pairs)
    lines = [
        f"graph: {g.label or args.graph} (n={g.n})",
        f"relations: {len(rels)}",
        f"basis size: {len(gb.basis)}",
        f"complete up to degree: {gb.complete_up_to_degree} "
        f"(cap {cap}, exhausted {gb.exhausted}, truncated {gb.truncated}, "
        f"steps {gb.steps}, discarded over cap {gb.discarded_over_cap})",
        f"column pairs provably commuting: {len(commuting)} / {len(pairs)}",
    ]
    if untried:
        lines.append(f"column pairs untried at the deadline: {untried}")
    elif not open_pairs:
        lines.append("the algebra is commutative at this cap: "
                     "NoQuantumSymmetry")
    if open_pairs:
        preview = ", ".join(str(p) for p in open_pairs[:8])
        lines.append(f"unsettled column pairs: {preview}"
                     + (" ..." if len(open_pairs) > 8 else ""))
        why = ("the relations omit orthogonality" if gb.exhausted
               else "the basis is degree-truncated")
        lines.append("note: reductions to zero prove commutation in the "
                     "quantum automorphism algebra; irreducible commutators "
                     f"prove nothing ({why})")
    _emit("\n".join(lines), args.output)
    return EXIT_OK if len(commuting) == len(pairs) else EXIT_UNDECIDED


def cmd_report(args) -> int:
    entries = cat.twelve_vertex_entries()
    if args.subclass:
        entries = [e for e in entries if e.subclass == args.subclass]
    report = cat.run_report(entries, timeout=args.timeout)
    if args.format == "structured":
        _emit(json.dumps(report, indent=2, default=str), args.output)
    else:
        _emit(cat.report_markdown(report), args.output)
    if report["contradictions"] or report["errors"] \
            or report["aut_mismatches"]:
        return EXIT_ERROR
    undecided = any(r.get("verdict") == "Undecided" for r in report["records"])
    return EXIT_UNDECIDED if undecided else EXIT_OK


def seconds(text) -> float:
    """A timeout: a number of seconds >= 0, ``inf`` included.  ``nan``
    would never expire, as every comparison with it is false."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(
            f"not a number of seconds >= 0: {text!r}")
    return value


GRAPH = ("graph",), {"help": "catalog name or graph file path"}
OPTIONAL_GRAPH = ("graph",), {**GRAPH[1], "nargs": "?"}
TIMEOUT = ("--timeout",), {"type": seconds, "default": DEFAULT_TIMEOUT}
OUTPUT = ("--output", "-o"), {"default": None}


def _choice(flag, *choices):
    return (flag,), {"choices": choices, "default": choices[0]}


# name, handler, help, and the only options the handler reads
SUBCOMMANDS = (
    ("list", cmd_list, "print the catalog alias table", ()),
    ("show", cmd_show, "print graph statistics; -o writes the graph file",
     (GRAPH, OUTPUT)),
    ("decide", cmd_decide, "decide quantum symmetry",
     (GRAPH, _choice("--engine", "auto", "lemmas"), TIMEOUT,
      _choice("--format", "text", "structured"), OUTPUT)),
    ("certificate", cmd_certificate,
     "emit or verify a commutation certificate",
     (OPTIONAL_GRAPH, TIMEOUT, _choice("--format", "text", "md", "latex"),
      OUTPUT,
      (("--verify",), {"default": None, "metavar": "FILE",
                       "help": "re-check a serialized certificate"}))),
    ("groebner", cmd_groebner, "degree-capped Groebner reduction report",
     (GRAPH, (("--max-degree",), {"type": int, "default": None}), TIMEOUT,
      OUTPUT)),
    ("report", cmd_report, "run the full catalog",
     (TIMEOUT, _choice("--format", "text", "structured"), OUTPUT,
      (("--subclass",), {"default": None, "choices": cat.SUBCLASSES}))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="decide quantum symmetries of finite graphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which reads as Undecided
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (GraphError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
