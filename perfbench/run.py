"""qsym benchmark: turn graph descriptions into checked verdicts, timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads (see README.md beside this file for why each was chosen and
which layer metric should move which end-to-end metric):

    catalog   qsym.catalog.run_entry on the 37 twelve-vertex entries
    lemmas    decide(engine="lemmas") on all 378 circulants C_n(S),
              5 <= n <= 16, then serialize -> parse -> verify
    groebner  quantum_relations -> buchberger(cap) -> commutation_report

One op takes one graph from its description to a verdict; each op builds
its graph fresh, because ``Graph`` caches its distance matrix.  Ops run
one at a time in this single process (closed loop, no threads).  A pass
visits every input once in an order drawn from ``--seed``; passes repeat
while the next one is expected to end within ``--seconds`` of pass time
(at least one pass, four when traced).  Outputs are checked
after each pass, off the clock; a failed check counts the op as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones, reports the tracing overhead against the untraced ones, checks that
both give the same output digest, and writes the spans under
``perfbench/out/``.  The last line of stdout is the result JSON; the line
before it records the machine, the seed and the output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layertrace

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# decide()'s default; no op comes near it, so decided_share is deterministic
DECIDE_TIMEOUT = 30.0
SETUP_REPEATS = 9
# Time metrics are reported at a reference machine speed: each measured
# time is divided by the loop time of calibrate() taken around it, then
# multiplied by this, the loop's time at the reference speed (its typical
# time on a shared 2.1 GHz Xeon VM, so values read roughly as seconds there).
CALIB_REF_S = 0.0025
QSYM_MODULES = ("catalog", "certificate", "cli", "engine", "freealg",
                "graphs", "groebner", "named", "perms")


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


class Env:
    """One set-up: every qsym module imported afresh (so each set-up pays
    the import again) and the independent replayer."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "qsym" or m.startswith("qsym.")]:
            del sys.modules[name]
        for name in QSYM_MODULES:
            setattr(self, name, importlib.import_module("qsym." + name))
        spec = importlib.util.spec_from_file_location(
            "perfbench_replayer", ROOT / "tests" / "replayer.py")
        replayer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(replayer)
        self.Replayer = replayer.IndependentReplayer


def check_witness(env, g, witness):
    replayer = env.Replayer(g.n, g.edges())
    require(len(witness) == 2, "witness is not a pair")
    sigma, tau = witness
    require(not sigma.is_identity() and not tau.is_identity(),
            "witness contains the identity")
    require(replayer.is_aut(sigma) and replayer.is_aut(tau),
            "witness is not a pair of automorphisms")
    require(not set(sigma.support()) & set(tau.support()),
            "witness supports overlap")


class CertificateChecker:
    """Replays each distinct certificate text once with the independent
    replayer, on the op's input graph.  The library verifier already ran
    inside the op (run_entry's certificate_ok, the lemmas round trip)."""

    def __init__(self, env):
        self.env = env
        self.seen = {}

    def check(self, g, cert, text):
        key = (g.label, text)
        if key not in self.seen:
            self.seen[key] = self.env.Replayer(g.n, g.edges()).accepts(cert)
        require(self.seen[key], "certificate rejected by the replayer")


# -- workloads --------------------------------------------------------------
#
# A workload's check() returns (verdict kind, decided, digest part) or
# raises CheckFailed; check_pass() sees the verdict kinds of a whole pass.


class Workload:
    def check_pass(self, kinds):
        pass


class Catalog(Workload):
    """qsym.catalog.run_entry on each of the 37 twelve-vertex entries."""

    name = "catalog"

    def __init__(self, env):
        self.env = env
        self.certs = CertificateChecker(env)
        # run_entry keeps the witness text but drops the certificate, so
        # the verdict is kept from the decide() call that run_entry makes
        self.verdicts = []
        decide = env.catalog.decide

        def keep_verdict(*args, **kwargs):
            verdict = decide(*args, **kwargs)
            self.verdicts.append(verdict)
            return verdict

        env.catalog.decide = keep_verdict

    def inputs(self):
        return [(e.name, e) for e in self.env.catalog.twelve_vertex_entries()]

    def warmup_input(self):
        return self.env.catalog.entry_by_name("C4")

    def op(self, entry):
        record = self.env.catalog.run_entry(entry, timeout=DECIDE_TIMEOUT)
        return record, (self.verdicts.pop() if self.verdicts else None)

    def check(self, name, entry, out):
        record, verdict = out
        require(record["error"] is None, f"run_entry error {record['error']}")
        require(verdict is not None, "no verdict")
        require(record["verdict"] == verdict.kind, "record/verdict mismatch")
        require(not record["contradiction"], "contradicts the catalog")
        require(record["aut_order_ok"], "automorphism group order mismatch")
        require(record["certificate_ok"] is True, "certificate_ok is not True")
        want = "HasQuantumSymmetry" if entry.expected_has_qsym \
            else "NoQuantumSymmetry"
        require(verdict.kind == want, f"{verdict.kind}, expected {want}")
        part = [name, verdict.kind]
        g = entry.build()
        if verdict.kind == "HasQuantumSymmetry":
            check_witness(self.env, g, verdict.witness)
            require(record["witness"] == [str(p) for p in verdict.witness],
                    "record witness differs from the verdict")
            part += record["witness"]
        text = self.env.certificate.serialize_certificate(verdict.certificate)
        self.certs.check(g, verdict.certificate, text)
        part.append(text)
        return verdict.kind, True, "\n".join(part)

    def check_pass(self, kinds):
        has = kinds.count("HasQuantumSymmetry")
        no = kinds.count("NoQuantumSymmetry")
        require((has, no) == (21, 16), f"{has} Has / {no} No, want 21 / 16")


class Lemmas(Workload):
    """decide(engine="lemmas") on every circulant C_n(S), 5 <= n <= 16,
    then the certificate round trip: serialize -> parse -> verify."""

    name = "lemmas"
    VERDICTS = HERE / "lemmas_verdicts.json"

    def __init__(self, env):
        self.env = env
        self.certs = CertificateChecker(env)
        with open(self.VERDICTS, encoding="utf-8") as fh:
            table = json.load(fh)
        self.frozen = {name: kind for kind, names in table.items()
                       for name in names}

    def inputs(self):
        out = []
        for n in range(5, 17):
            chords = list(range(2, n // 2 + 1))
            for mask in range(1 << len(chords)):
                spec = self.env.graphs.CirculantSpec(
                    n, tuple(c for b, c in enumerate(chords) if mask >> b & 1))
                out.append((spec.name(), spec))
        return out

    def warmup_input(self):
        return self.env.graphs.CirculantSpec(5)

    def op(self, spec):
        env = self.env
        g = env.graphs.build_circulant(spec)
        verdict = env.engine.decide(g, timeout=DECIDE_TIMEOUT, engine="lemmas")
        if verdict.certificate is None:
            return verdict, None, None, None
        text = env.certificate.serialize_certificate(verdict.certificate)
        parsed = env.certificate.parse_certificate(text)
        ok = env.certificate.verify_certificate(parsed.graph(), parsed)
        return verdict, text, parsed, bool(ok)

    def check(self, name, spec, out):
        verdict, text, parsed, ok = out
        frozen = self.frozen.get(name)
        require(frozen is not None, "not in the frozen verdict table")
        require(frozen == "Undecided" or verdict.kind == frozen,
                f"{verdict.kind}, frozen verdict {frozen}")
        part = [name, verdict.kind]
        if verdict.kind == "Undecided":
            require(verdict.certificate is None, "Undecided with certificate")
            return verdict.kind, False, "\n".join(part)
        require(ok, "round-trip verification failed")
        require(self.env.certificate.serialize_certificate(parsed) == text,
                "parsed certificate does not serialize back to its text")
        g = self.env.graphs.build_circulant(spec)
        if verdict.kind == "HasQuantumSymmetry":
            check_witness(self.env, g, verdict.witness)
            part += [str(p) for p in verdict.witness]
        self.certs.check(g, parsed, text)
        part.append(text)
        return verdict.kind, True, "\n".join(part)


class Groebner(Workload):
    """quantum_relations -> buchberger(cap) -> commutation_report, as
    ``qsym groebner G --max-degree D`` runs it."""

    name = "groebner"
    # (name, graph, degree cap, commuting column pairs, exhausted)
    INPUTS = (("K3@4", ("K", 3), 4, 6, True),
              ("C4@4", ("C", 4, ()), 4, 0, False),
              ("K4@3", ("K", 4), 3, 0, False),
              ("C6@3", ("C", 6, ()), 3, 0, False),
              ("C8(4)@3", ("C", 8, (4,)), 3, 0, False),
              ("C5@3", ("C", 5, ()), 3, 0, False))

    def __init__(self, env):
        self.env = env

    def inputs(self):
        return [(row[0], row) for row in self.INPUTS]

    def warmup_input(self):
        return self.INPUTS[0]

    def build(self, desc):
        if desc[0] == "K":
            return self.env.named.complete_graph(desc[1])
        return self.env.graphs.build_circulant(
            self.env.graphs.CirculantSpec(desc[1], desc[2]))

    def op(self, row):
        gb_mod = self.env.groebner
        g = self.build(row[1])
        rels = gb_mod.quantum_relations(g)
        gb = gb_mod.buchberger(rels, max_degree=row[2])
        return gb, gb_mod.commutation_report(g, gb)

    def check(self, name, row, out):
        gb, pairs = out
        commuting = sorted(p for p, ok in pairs.items() if ok)
        require(len(commuting) == row[3],
                f"{len(commuting)} commuting column pairs, frozen {row[3]}")
        require(gb.exhausted == row[4],
                f"exhausted={gb.exhausted}, frozen {row[4]}")
        part = [name, f"{gb.steps} {gb.complete_up_to_degree} {gb.exhausted} "
                      f"{gb.truncated} {gb.discarded_over_cap}",
                repr(commuting)] + [str(p) for p in gb.basis]
        decided = len(commuting) == len(pairs)
        return ("commutative" if decided else "open"), decided, \
            "\n".join(part)


WORKLOADS = {w.name: w for w in (Catalog, Lemmas, Groebner)}


# -- measurement --------------------------------------------------------------


def _loop():
    # the kinds of work qsym does: dicts keyed by tuples, small sets,
    # comprehensions and exact rational arithmetic
    table = {}
    acc = Fraction(0)
    for i in range(400):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        acc += len(frozenset(j for j in range(8) if j & i))
    return acc


def calibrate(min_seconds: float = 0.0):
    """(seconds, loops): a fixed pure-Python loop, repeated until at least
    ``min_seconds`` have passed; seconds / loops is the machine's speed now.

    A shared host can run the same code up to 1.9x slower for minutes at a
    time.  Dividing an op's time by the loop time measured just before and
    after it cancels most of that drift, which no statistic over the op
    times of one run can do.  After a long op the loop runs for 5% of the
    op's time, so its estimate averages over the same short swings.
    """
    loops = 0
    t0 = perf_counter()
    while True:
        _loop()
        loops += 1
        seconds = perf_counter() - t0
        if seconds >= min_seconds:
            return seconds, loops


def loop_time(before, after) -> float:
    """Mean loop time over two calibrate() results."""
    return (before[0] + after[0]) / (before[1] + after[1])


def set_up(workload_cls):
    """Import, build the workload's inputs and warm up on one cheap input."""
    env = Env()
    wl = workload_cls(env)
    inputs = wl.inputs()
    wl.op(wl.warmup_input())
    return wl, inputs


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.latencies = {}  # input name -> seconds
        self.scales = {}  # input name -> loop_time() around the op
        self.failures = []
        self.problems = []
        self.decided = 0
        self.digest = ""
        self.layers = {}


def run_pass(wl, inputs, rng, tracer, op_base):
    order = list(inputs)
    rng.shuffle(order)
    result = Pass(tracer is not None)
    outs = []
    if tracer is not None:
        first_span = len(tracer.spans)
        tracer.counts.clear()
        layertrace.install(tracer, wl.env)
    start = perf_counter()
    calib = calibrate()
    for k, (name, desc) in enumerate(order):
        if tracer is not None:
            tracer.op = op_base + k
        t0 = perf_counter()
        try:
            out, err = wl.op(desc), None
        except Exception as exc:  # a raising op is a failed op
            out, err = None, exc
        result.latencies[name] = seconds = perf_counter() - t0
        after = calibrate(0.05 * seconds)
        result.scales[name] = loop_time(calib, after)
        calib = after
        outs.append((name, desc, out, err))
    result.wall = perf_counter() - start
    if tracer is not None:
        tracer.unpatch()
        totals = tracer.layer_totals(first_span)
        n = len(order)
        result.layers = {name: fn(totals, tracer.counts, n)
                         for name, _unit, _better, fn in layertrace.PER_LAYER}
        result.layers["trace.spans_per_op"] = (len(tracer.spans)
                                               - first_span) / n

    # output checks, off the clock and after the tracer has unpatched
    parts, kinds = {}, []
    for name, desc, out, err in outs:
        try:
            if err is not None:
                raise CheckFailed(f"raised {type(err).__name__}: {err}")
            kind, decided, parts[name] = wl.check(name, desc, out)
            result.decided += decided
            kinds.append(kind)
        except Exception as exc:  # any failed or broken check fails the op
            result.failures.append(f"{name}: {type(exc).__name__}: {exc}")
    if not result.failures:
        try:
            wl.check_pass(kinds)
        except CheckFailed as exc:
            result.problems.append(f"pass: {exc}")
    digest = hashlib.sha256()
    for name in sorted(parts):
        digest.update(f"{len(parts[name])}:{parts[name]}\n".encode())
    result.digest = digest.hexdigest()
    return result


def median_latencies(passes, normalized=True) -> dict:
    """Each input's median latency over the passes, in seconds at the
    reference speed (``normalized``) or as measured on the wall clock."""
    samples = {}
    for p in passes:
        for name, seconds in p.latencies.items():
            if normalized:
                seconds *= CALIB_REF_S / p.scales[name]
            samples.setdefault(name, []).append(seconds)
    return {name: statistics.median(v) for name, v in samples.items()}


def latency_metrics(latencies: dict, prefix="") -> dict:
    """pass_s and the p50/p90 latencies over inputs."""
    deciles = statistics.quantiles(latencies.values(), n=10,
                                   method="inclusive")
    return {
        prefix + "pass_s": {"value": sum(latencies.values()), "unit": "s"},
        prefix + "latency_p50_ms": {"value": 1e3 * deciles[4], "unit": "ms"},
        prefix + "latency_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qsym" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "replayer.py").is_file():
        print(f"perfbench: no qsym sources (src/qsym, tests/replayer.py) "
              f"under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload_cls = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        # a user's set-up starts in a fresh process, without the previous
        # set-up's modules left for the cyclic collector
        gc.collect()
        before = calibrate()
        t0 = perf_counter()
        wl, inputs = set_up(workload_cls)
        seconds = perf_counter() - t0
        setup_times.append(
            seconds * CALIB_REF_S / loop_time(before, calibrate()))

    rng = random.Random(args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    passes = []
    measured = 0.0
    # a traced run alternates untraced and traced passes, at least two each.
    # Another pass starts only if, at the mean pass time so far, it ends
    # within --seconds
    min_passes = 4 if args.trace else 1
    while len(passes) < min_passes \
            or measured * (len(passes) + 1) / len(passes) <= args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(wl, inputs, rng, tracer if traced else None,
                     len(passes) * len(inputs))
        passes.append(p)
        measured += p.wall

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    digests = {p.digest for p in passes if not p.failures}
    problems = [f for p in passes for f in p.problems]
    if len(digests) > 1:
        problems.append("passes disagree on the output digest"
                        + (" (traced vs untraced)" if args.trace else ""))

    plain = [p for p in passes if not p.traced]
    latencies = median_latencies(plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "decide_timeout_s": DECIDE_TIMEOUT,
        "inputs": len(inputs),
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "latency_samples": len(latencies),
        "ops_timed": sum(len(p.latencies) for p in plain),
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "setup_s": [round(t, 4) for t in setup_times],
        "digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
        "failed_share": failed / attempted,
        "failures": (failures + problems)[:20],
    }

    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = {}
        for name, unit, _better, _fn in layertrace.PER_LAYER:
            metrics[name] = {"value": statistics.median(
                p.layers[name] for p in traced), "unit": unit}
        overhead = sum(median_latencies(traced).values()) \
            / sum(latencies.values()) - 1.0
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        metrics.update(latency_metrics(median_latencies(plain, False),
                                       prefix="wall."))
        metrics["calib.loop_ms"] = {"value": 1e3 * statistics.median(
            c for p in plain for c in p.scales.values()), "unit": "ms"}
        metrics["trace.spans_per_op"] = {"value": statistics.median(
            p.layers["trace.spans_per_op"] for p in traced), "unit": "1/op"}
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        info["spans_file"] = str(out.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            **latency_metrics(latencies),
            "decided_share": {"value": sum(p.decided for p in plain)
                              / sum(len(p.latencies) for p in plain),
                              "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
